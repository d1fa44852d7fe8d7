//! The replication wire protocol: framed messages between a primary's
//! binlog streamer and a replica's I/O thread.
//!
//! Every message is one frame in the binlog's own framing
//! (`magic || len || payload`, see [`minidb::wal::frame`]), so a network
//! capture of the replication stream carves with the exact same tooling
//! as a stolen binlog file — the stream *is* the binlog, in flight.

use mdb_trace::codec::{self, put_bytes32, put_i64, put_u32, put_u64, Reader, StreamDecoder};
use minidb::wal::BinlogEvent;

use crate::{ReplError, ReplResult};

/// A binlog frame payload tagged with its GTID-style sequence number
/// and an explicit sealed/plaintext codec bit.
///
/// The payload is shipped **verbatim** from the primary's binlog: a
/// plaintext [`BinlogEvent`] encoding on a stock primary, or a sealed
/// `logenc` record when the primary runs with
/// `DbConfig::encrypted_wal` — in which case the replication stream is
/// ciphertext end-to-end and only the replica's apply loop (holding the
/// shared log key) can read the statement. The `sealed` flag is set by
/// the primary from the frame's on-disk magic and travels with the
/// event, so no consumer ever has to *guess* a payload's codec by
/// probing whether it parses (a sealed ciphertext that coincidentally
/// parsed as a plaintext event would otherwise be misclassified).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SequencedEvent {
    /// Global sequence number in the primary's binlog.
    pub seq: u64,
    /// Whether `payload` is a sealed `logenc` record (vs a plaintext
    /// [`BinlogEvent`] encoding) — the frame magic it was carved from.
    pub sealed: bool,
    /// The raw binlog frame payload (plaintext event or sealed record).
    pub payload: Vec<u8>,
}

impl SequencedEvent {
    /// Builds a plaintext-payload event (the stock, unencrypted path).
    pub fn plain(seq: u64, event: &BinlogEvent) -> SequencedEvent {
        SequencedEvent {
            seq,
            sealed: false,
            payload: event.encode(),
        }
    }

    /// Decodes the payload as a plaintext [`BinlogEvent`]. `None` for a
    /// sealed payload — use `Db::decode_binlog_frame` with the key.
    pub fn decode_plain(&self) -> Option<BinlogEvent> {
        if self.sealed {
            return None;
        }
        BinlogEvent::decode(&self.payload).ok()
    }
}

/// Cuts `events` to the longest prefix (never empty) whose
/// [`WireMessage::Events`] encoding fits one frame, and returns that
/// encoding's length. Without the cut, a batch of large statements
/// would frame past [`codec::MAX_PAYLOAD`] and the replica's decoder
/// would — correctly — discard it as a corrupt header.
pub fn fit_events_to_frame(events: &mut Vec<SequencedEvent>) -> usize {
    let mut size = 1 + 4; // tag + count
    let mut keep = 0;
    for e in events.iter() {
        let grown = size + 8 + 1 + 4 + e.payload.len();
        if keep > 0 && grown > codec::MAX_PAYLOAD {
            break;
        }
        size = grown;
        keep += 1;
    }
    events.truncate(keep);
    size
}

/// Message type tags on the wire.
const TAG_HANDSHAKE: u8 = 1;
const TAG_EVENTS: u8 = 2;
const TAG_HEARTBEAT: u8 = 3;
const TAG_PURGED: u8 = 4;

/// One replication protocol message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireMessage {
    /// Replica → primary: start (or resume) streaming at `next_seq`.
    Handshake {
        /// The replica's server id.
        replica_id: u64,
        /// First sequence number the replica still needs.
        next_seq: u64,
    },
    /// Primary → replica: a batch of consecutive events.
    Events {
        /// The batch, in sequence order.
        events: Vec<SequencedEvent>,
    },
    /// Primary → replica: nothing new; carries the primary's position so
    /// the replica can compute lag even on an idle stream.
    Heartbeat {
        /// The primary's end-of-binlog sequence.
        primary_seq: u64,
        /// The primary's simulated UNIX time.
        timestamp: i64,
    },
    /// Primary → replica: the requested position predates the purge
    /// horizon; streaming resumes at `purged_to` and the gap is lost.
    Purged {
        /// First sequence number still available.
        purged_to: u64,
    },
}

impl WireMessage {
    /// Serializes the message payload (without framing).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            WireMessage::Handshake {
                replica_id,
                next_seq,
            } => {
                out.push(TAG_HANDSHAKE);
                put_u64(&mut out, *replica_id);
                put_u64(&mut out, *next_seq);
            }
            WireMessage::Events { events } => {
                out.push(TAG_EVENTS);
                put_u32(&mut out, events.len() as u32);
                for e in events {
                    put_u64(&mut out, e.seq);
                    out.push(e.sealed as u8);
                    put_bytes32(&mut out, &e.payload);
                }
            }
            WireMessage::Heartbeat {
                primary_seq,
                timestamp,
            } => {
                out.push(TAG_HEARTBEAT);
                put_u64(&mut out, *primary_seq);
                put_i64(&mut out, *timestamp);
            }
            WireMessage::Purged { purged_to } => {
                out.push(TAG_PURGED);
                put_u64(&mut out, *purged_to);
            }
        }
        out
    }

    /// Parses a message payload.
    pub fn decode(buf: &[u8]) -> ReplResult<WireMessage> {
        let mut c = Reader::new(buf);
        let msg = match c.u8()? {
            TAG_HANDSHAKE => WireMessage::Handshake {
                replica_id: c.u64()?,
                next_seq: c.u64()?,
            },
            TAG_EVENTS => {
                let n = c.u32()? as usize;
                let mut events = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    let seq = c.u64()?;
                    let sealed = match c.u8()? {
                        0 => false,
                        1 => true,
                        other => {
                            return Err(ReplError::Protocol(format!(
                                "bad event codec flag {other}"
                            )));
                        }
                    };
                    // The payload stays opaque on the wire: it may be a
                    // sealed record only the replica's key can open.
                    let payload = c.bytes32()?.to_vec();
                    events.push(SequencedEvent {
                        seq,
                        sealed,
                        payload,
                    });
                }
                WireMessage::Events { events }
            }
            TAG_HEARTBEAT => WireMessage::Heartbeat {
                primary_seq: c.u64()?,
                timestamp: c.i64()?,
            },
            TAG_PURGED => WireMessage::Purged {
                purged_to: c.u64()?,
            },
            other => {
                return Err(ReplError::Protocol(format!("unknown message tag {other}")));
            }
        };
        if c.remaining() != 0 {
            return Err(ReplError::Protocol("trailing bytes in message".into()));
        }
        Ok(msg)
    }

    /// Frames the encoded message for a byte-stream transport.
    pub fn to_frame(&self) -> Vec<u8> {
        codec::REPL_WIRE.encode(false, 0, &self.encode())
    }
}

/// Incremental frame parser for byte-stream transports: feed raw bytes,
/// pop whole messages. The typed face of a [`StreamDecoder`] over
/// [`codec::REPL_WIRE`]: it resyncs on the frame magic after garbage
/// and treats a length past [`codec::MAX_PAYLOAD`] as garbage too, so a
/// corrupt header cannot stall the stream while the buffer balloons.
pub struct FrameDecoder(StreamDecoder);

impl Default for FrameDecoder {
    fn default() -> Self {
        FrameDecoder(StreamDecoder::new(&codec::REPL_WIRE))
    }
}

impl FrameDecoder {
    /// Appends raw bytes from the stream.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.0.feed(bytes);
    }

    /// Pops the next complete message, if one is buffered.
    pub fn next_message(&mut self) -> ReplResult<Option<WireMessage>> {
        // REPL_WIRE carries no CRC, so `next_frame` cannot fail.
        let frame = self.0.next_frame().ok().flatten();
        frame.map(|f| WireMessage::decode(f.payload)).transpose()
    }

    /// Bytes currently buffered (diagnostics).
    pub fn buffered(&self) -> usize {
        self.0.buffered()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64) -> SequencedEvent {
        SequencedEvent::plain(
            seq,
            &BinlogEvent {
                lsn: seq,
                txn: seq,
                timestamp: 1_700_000_000 + seq as i64,
                statement: format!("INSERT INTO t VALUES ({seq})"),
                // Odd events carry a trace context: the replication
                // stream must ship the optional tail transparently.
                ctx: (seq % 2 == 1).then_some(mdb_trace::TraceContext {
                    trace_id: 0xAB00 + seq as u128,
                    span_id: 0xCD00 + seq,
                    sampled: true,
                }),
            },
        )
    }

    #[test]
    fn opaque_payloads_survive_the_wire() {
        // A sealed (or simply arbitrary) payload must ship verbatim:
        // the wire layer no longer insists on parseable plaintext.
        let sealed = SequencedEvent {
            seq: 9,
            sealed: true,
            payload: vec![0x5E, 0xA1, 0xC0, 0xDE, 0xFF, 0x00, 0x42],
        };
        let msg = WireMessage::Events {
            events: vec![sealed.clone()],
        };
        let back = WireMessage::decode(&msg.encode()).unwrap();
        assert_eq!(back, msg);
        assert!(sealed.decode_plain().is_none(), "opaque bytes stay opaque");
        assert_eq!(ev(3).decode_plain().unwrap().lsn, 3);
    }

    #[test]
    fn messages_round_trip() {
        let msgs = [
            WireMessage::Handshake {
                replica_id: 7,
                next_seq: 42,
            },
            WireMessage::Events {
                events: vec![ev(1), ev(2), ev(3)],
            },
            WireMessage::Heartbeat {
                primary_seq: 99,
                timestamp: 1_700_000_123,
            },
            WireMessage::Purged { purged_to: 55 },
        ];
        for m in &msgs {
            assert_eq!(&WireMessage::decode(&m.encode()).unwrap(), m);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(WireMessage::decode(&[]).is_err());
        assert!(WireMessage::decode(&[200]).is_err());
        let mut enc = WireMessage::Purged { purged_to: 1 }.encode();
        enc.push(0);
        assert!(WireMessage::decode(&enc).is_err(), "trailing byte");
    }

    #[test]
    fn oversized_length_field_is_garbage_not_a_stall() {
        // `D1DEC0DE FFFFFFFF`: a corrupt (or hostile) header. Waiting
        // for 4 GiB of "payload" would stall the replica while its
        // buffer balloons; the cap makes it garbage to resync past.
        let (a, b) = (
            WireMessage::Purged { purged_to: 9 },
            WireMessage::Events {
                events: vec![ev(5)],
            },
        );
        let mut dec = FrameDecoder::default();
        dec.feed(&[0xDE, 0xC0, 0xDE, 0xD1, 0xFF, 0xFF, 0xFF, 0xFF]);
        dec.feed(&a.to_frame());
        dec.feed(&b.to_frame());
        assert_eq!(dec.next_message().unwrap(), Some(a));
        assert_eq!(dec.next_message().unwrap(), Some(b));
        assert_eq!(dec.next_message().unwrap(), None);
        assert_eq!(dec.buffered(), 0);
        // And a peer that keeps streaming after such a header cannot
        // grow the buffer: nothing frame-like is ever retained.
        dec.feed(&[0xDE, 0xC0, 0xDE, 0xD1, 0xFF, 0xFF, 0xFF, 0xFF]);
        for _ in 0..64 {
            dec.feed(&[0x55; 4096]);
            assert_eq!(dec.next_message().unwrap(), None);
            assert!(dec.buffered() < 4);
        }
    }

    #[test]
    fn event_batches_close_before_the_frame_cap() {
        let big = |seq| SequencedEvent {
            seq,
            sealed: true,
            payload: vec![0xAB; 6 << 20],
        };
        // Three 6 MiB events would frame past the 16 MiB cap: ship two.
        let mut batch = vec![big(0), big(1), big(2)];
        let encoded_len = fit_events_to_frame(&mut batch);
        assert_eq!(batch.len(), 2);
        assert!(encoded_len <= codec::MAX_PAYLOAD);
        let msg = WireMessage::Events { events: batch };
        assert_eq!(msg.encode().len(), encoded_len);
        let mut dec = FrameDecoder::default();
        dec.feed(&msg.to_frame());
        assert_eq!(dec.next_message().unwrap(), Some(msg));
        // A small batch is untouched, and a batch is never cut to nothing.
        let mut small = vec![ev(1), ev(2), ev(3)];
        fit_events_to_frame(&mut small);
        assert_eq!(small.len(), 3);
        let mut lone = vec![SequencedEvent {
            seq: 0,
            sealed: false,
            payload: vec![0; codec::MAX_PAYLOAD],
        }];
        fit_events_to_frame(&mut lone);
        assert_eq!(lone.len(), 1);
    }
}
