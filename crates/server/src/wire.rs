//! The client/server wire protocol: framed request/response messages.
//!
//! A v1 message is one frame:
//!
//! ```text
//! "MSRV" || len:u32 LE || payload (len bytes) || crc32(payload):u32 LE
//! ```
//!
//! Protocol v2 adds an optional distributed trace context without
//! breaking v1 decoders on the same stream. A v2 frame uses its own
//! magic and prefixes the message payload with a context slot:
//!
//! ```text
//! "MSV2" || len:u32 LE || ctx_flag:u8 || [ctx: 25 bytes if flag=1]
//!        || message payload || crc32(whole payload):u32 LE
//! ```
//!
//! Senders emit v1 frames whenever no context is attached, so a
//! context-free v2 client is byte-identical to a v1 client, and
//! [`FrameDecoder`] resyncs over *both* magics — a stream may
//! interleave versions freely (mid-stream protocol upgrades, mixed
//! client fleets).
//!
//! The framing deliberately mirrors the binlog's (`magic || len ||
//! payload`, [`minidb::wal::frame`]) with a CRC-32 trailer bolted on;
//! both are descriptions ([`codec::SERVER`], [`codec::WAL`]) handed to
//! the one frame layer in [`mdb_trace::codec`]. The consequence the
//! threat-model cares about: a packet capture of the SQL session
//! carves with the same resync loop as a stolen log file — literally. Statement text crosses this
//! channel verbatim, before any EDB layer touches the rows — and in
//! v2, so does the trace id that joins the capture to every other
//! node's logs (the E19 surface).
//!
//! A `Result` reply carries the engine's row block as it is: the
//! server splices the block the statement answered with (and the query
//! cache shares) into the payload with one copy, [`answer_reply_frame`].
//! The bytes equal [`WireMessage::Result`]'s encoding of the decoded
//! rows, which clients, tests and the `\trace` reply still use.

// Bytes from the network are parsed here: a bad frame is a typed
// error, never a panic.
#![cfg_attr(
    not(test),
    deny(
        clippy::indexing_slicing,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

use mdb_trace::codec::{self, put_bytes32, put_u32, put_u64, Reader, StreamDecoder};
use mdb_trace::TraceContext;
use minidb::engine::Answer;
use minidb::value::{decode_rows, encode_rows, rows_encoded_len};

/// Upper bound on one frame's payload — the cap every frame format
/// shares. Decoders treat a longer claim as garbage; the server's
/// sender refuses to frame a longer reply, the client's a longer request.
pub const MAX_FRAME_LEN: usize = codec::MAX_PAYLOAD;

/// CRC-32 (IEEE), re-exported from the shared codec so every log and
/// wire format checksums identically.
pub use mdb_trace::codec::crc32;

/// Wire-protocol decode error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Payload bytes did not parse as a message.
    Protocol(String),
    /// The CRC-32 trailer did not match the payload.
    Crc { expected: u32, found: u32 },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Protocol(m) => write!(f, "protocol error: {m}"),
            WireError::Crc { expected, found } => {
                write!(
                    f,
                    "crc mismatch: expected {expected:#010x}, found {found:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<codec::ReadError> for WireError {
    fn from(e: codec::ReadError) -> Self {
        WireError::Protocol(e.to_string())
    }
}

impl From<codec::CrcMismatch> for WireError {
    fn from(e: codec::CrcMismatch) -> Self {
        WireError::Crc {
            expected: e.expected,
            found: e.found,
        }
    }
}

type WireResult<T> = Result<T, WireError>;

/// Message type tags on the wire.
const TAG_HELLO: u8 = 1;
const TAG_QUERY: u8 = 2;
const TAG_PREPARE: u8 = 3;
const TAG_EXECUTE_PREPARED: u8 = 4;
const TAG_QUIT: u8 = 5;
const TAG_TRACE: u8 = 6;
const TAG_GREETING: u8 = 16;
const TAG_RESULT: u8 = 17;
const TAG_ERROR: u8 = 18;
const TAG_BYE: u8 = 19;

/// A query result as shipped over the wire: the engine's own result.
/// Its rows travel as a row block ([`minidb::value::encode_rows`]), the
/// bytes the query cache holds.
pub type WireResultSet = minidb::QueryResult;

/// One protocol message, either direction.
#[derive(Clone, Debug, PartialEq)]
pub enum WireMessage {
    /// Client → server: open a session as `user`. Must be first.
    Hello {
        /// User name recorded in the engine's processlist.
        user: String,
    },
    /// Client → server: execute one SQL statement.
    Query {
        /// The statement text.
        sql: String,
    },
    /// Client → server: cache `sql` under `name` in this session.
    Prepare {
        /// Statement handle.
        name: String,
        /// The statement text to cache.
        sql: String,
    },
    /// Client → server: execute a previously prepared statement.
    ExecutePrepared {
        /// Statement handle from a prior [`WireMessage::Prepare`].
        name: String,
    },
    /// Client → server: render the session's most recent statement
    /// trace (the `\trace` meta-command). Answered with a
    /// [`WireMessage::Result`] span table, or [`WireMessage::Error`]
    /// when the flight recorder holds none.
    Trace,
    /// Client → server: close the session.
    Quit,
    /// Server → client: session established.
    Greeting {
        /// The engine connection id backing this session.
        session_id: u64,
        /// Server identification string.
        server: String,
    },
    /// Server → client: a statement's result set.
    Result(WireResultSet),
    /// Server → client: a statement failed.
    Error {
        /// The engine's error rendering.
        message: String,
    },
    /// Server → client: acknowledges [`WireMessage::Quit`].
    Bye,
}

impl WireMessage {
    /// Serializes the message payload (without framing).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Exactly the number of bytes [`Self::encode_into`] appends — what
    /// a frame buffer is sized from, and what the frame-limit checks
    /// compare before anything is written.
    fn encoded_len(&self) -> usize {
        1 + match self {
            WireMessage::Hello { user: s }
            | WireMessage::Query { sql: s }
            | WireMessage::ExecutePrepared { name: s }
            | WireMessage::Error { message: s } => 4 + s.len(),
            WireMessage::Prepare { name, sql } => 8 + name.len() + sql.len(),
            WireMessage::Trace | WireMessage::Quit | WireMessage::Bye => 0,
            WireMessage::Greeting { server, .. } => 12 + server.len(),
            WireMessage::Result(rs) => result_len(&rs.columns, rows_encoded_len(&rs.rows)),
        }
    }

    /// Appends the message payload (without framing) to `out`.
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            WireMessage::Hello { user } => {
                out.push(TAG_HELLO);
                put_bytes32(out, user.as_bytes());
            }
            WireMessage::Query { sql } => {
                out.push(TAG_QUERY);
                put_bytes32(out, sql.as_bytes());
            }
            WireMessage::Prepare { name, sql } => {
                out.push(TAG_PREPARE);
                put_bytes32(out, name.as_bytes());
                put_bytes32(out, sql.as_bytes());
            }
            WireMessage::ExecutePrepared { name } => {
                out.push(TAG_EXECUTE_PREPARED);
                put_bytes32(out, name.as_bytes());
            }
            WireMessage::Trace => out.push(TAG_TRACE),
            WireMessage::Quit => out.push(TAG_QUIT),
            WireMessage::Greeting { session_id, server } => {
                out.push(TAG_GREETING);
                put_u64(out, *session_id);
                put_bytes32(out, server.as_bytes());
            }
            WireMessage::Result(rs) => put_result(
                out,
                &rs.columns,
                |out| encode_rows(&rs.rows, out),
                (rs.rows_examined, rs.rows_affected),
            ),
            WireMessage::Error { message } => {
                out.push(TAG_ERROR);
                put_bytes32(out, message.as_bytes());
            }
            WireMessage::Bye => out.push(TAG_BYE),
        }
    }

    /// Parses a message payload.
    pub fn decode(buf: &[u8]) -> WireResult<WireMessage> {
        let mut c = Reader::new(buf);
        let msg = match c.u8()? {
            TAG_HELLO => WireMessage::Hello { user: c.str32()? },
            TAG_QUERY => WireMessage::Query { sql: c.str32()? },
            TAG_PREPARE => WireMessage::Prepare {
                name: c.str32()?,
                sql: c.str32()?,
            },
            TAG_EXECUTE_PREPARED => WireMessage::ExecutePrepared { name: c.str32()? },
            TAG_TRACE => WireMessage::Trace,
            TAG_QUIT => WireMessage::Quit,
            TAG_GREETING => WireMessage::Greeting {
                session_id: c.u64()?,
                server: c.str32()?,
            },
            TAG_RESULT => {
                let ncols = c.u32()? as usize;
                let mut columns = Vec::with_capacity(ncols.min(1024));
                for _ in 0..ncols {
                    columns.push(c.str32()?);
                }
                let mut end = c.pos();
                let rows =
                    decode_rows(buf, &mut end).map_err(|e| WireError::Protocol(e.to_string()))?;
                c.take(end - c.pos())?;
                WireMessage::Result(WireResultSet {
                    columns,
                    rows,
                    rows_examined: c.u64()?,
                    rows_affected: c.u64()?,
                })
            }
            TAG_ERROR => WireMessage::Error {
                message: c.str32()?,
            },
            TAG_BYE => WireMessage::Bye,
            other => {
                return Err(WireError::Protocol(format!("unknown message tag {other}")));
            }
        };
        if c.remaining() != 0 {
            return Err(WireError::Protocol("trailing bytes in message".into()));
        }
        Ok(msg)
    }

    /// Frames the encoded message as a v1 frame:
    /// `magic || len || payload || crc32(payload)`.
    pub fn to_frame(&self) -> Vec<u8> {
        codec::SERVER.encode_with(false, 0, self.encoded_len(), |out| self.encode_into(out))
    }

    /// [`Self::to_frame`] for replies built from unbounded data (a
    /// result set): past [`MAX_FRAME_LEN`], the
    /// [`WireMessage::Error`] frame that says so.
    pub fn to_reply_frame(&self) -> Vec<u8> {
        reply_frame(self.encoded_len(), |out| self.encode_into(out))
    }
}

/// The `Result` reply frame of an engine answer, its row block spliced
/// into the payload with one copy: byte for byte the
/// [`WireMessage::to_reply_frame`] of the decoded answer, the same
/// [`MAX_FRAME_LEN`] guard included, without decoding a row.
pub fn answer_reply_frame(answer: &Answer) -> Vec<u8> {
    let block = answer.rows.as_bytes();
    let len = 1 + result_len(&answer.columns, block.len());
    reply_frame(len, |out| {
        put_result(
            out,
            &answer.columns,
            |out| out.extend_from_slice(block),
            (answer.rows_examined, answer.rows_affected),
        )
    })
}

/// A v1 reply frame of the `len`-byte payload `encode` writes. A
/// payload past [`MAX_FRAME_LEN`] would be discarded by the peer's
/// decoder as a corrupt header, leaving the client blocked on a reply
/// that never parses — so it is replaced by a [`WireMessage::Error`]
/// frame instead.
fn reply_frame(len: usize, encode: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    if len > MAX_FRAME_LEN {
        let message = "result exceeds frame limit".into();
        return WireMessage::Error { message }.to_frame();
    }
    codec::SERVER.encode_with(false, 0, len, encode)
}

/// Bytes of a `Result` message after its tag, when its row block is
/// `block_len` bytes.
fn result_len(columns: &[String], block_len: usize) -> usize {
    let names: usize = columns.iter().map(|c| 4 + c.len()).sum();
    4 + names + block_len + 16
}

/// Writes a `Result` message: the tag and column names, the row block
/// `put_rows` appends, then the `(rows_examined, rows_affected)` counts.
fn put_result(
    out: &mut Vec<u8>,
    columns: &[String],
    put_rows: impl FnOnce(&mut Vec<u8>),
    (rows_examined, rows_affected): (u64, u64),
) {
    out.push(TAG_RESULT);
    put_u32(out, columns.len() as u32);
    for c in columns {
        put_bytes32(out, c.as_bytes());
    }
    put_rows(out);
    put_u64(out, rows_examined);
    put_u64(out, rows_affected);
}

/// A message plus the distributed trace context it travelled with —
/// what v2 framing puts on the wire and what [`FrameDecoder`] yields.
#[derive(Clone, Debug, PartialEq)]
pub struct Envelope {
    /// The protocol message.
    pub msg: WireMessage,
    /// Distributed trace context, when the sender attached one.
    pub ctx: Option<TraceContext>,
}

impl Envelope {
    /// A context-free envelope.
    pub fn plain(msg: WireMessage) -> Envelope {
        Envelope { msg, ctx: None }
    }

    /// Payload bytes of this envelope's frame: the v2 context slot when
    /// a context is attached, then the message.
    fn payload_len(&self) -> usize {
        let slot = match self.ctx {
            Some(_) => 1 + TraceContext::WIRE_LEN,
            None => 0,
        };
        slot + self.msg.encoded_len()
    }

    /// The frame of a `len`-byte payload: v2 when a context is
    /// attached, v1 otherwise.
    fn frame(&self, len: usize) -> Vec<u8> {
        codec::SERVER.encode_with(self.ctx.is_some(), 0, len, |out| {
            if let Some(ctx) = self.ctx {
                out.push(1);
                ctx.encode(out);
            }
            self.msg.encode_into(out);
        })
    }

    /// Frames the envelope for the TCP transport: a v2 frame when a
    /// context is attached, the byte-identical v1 frame otherwise —
    /// so senders never pay the context slot for context-free traffic
    /// and v1 peers keep decoding them.
    pub fn to_frame(&self) -> Vec<u8> {
        self.frame(self.payload_len())
    }

    /// [`Self::to_frame`] for requests built from unbounded data (a
    /// statement text). A payload past [`MAX_FRAME_LEN`] would be
    /// discarded by the server's decoder as a corrupt header and never
    /// answered, so it is refused with its length instead.
    pub fn to_request_frame(&self) -> Result<Vec<u8>, usize> {
        let len = self.payload_len();
        if len > MAX_FRAME_LEN {
            return Err(len);
        }
        Ok(self.frame(len))
    }

    /// Parses a v2 frame payload (context slot + message).
    fn decode_v2(payload: &[u8]) -> WireResult<Envelope> {
        let mut r = Reader::new(payload);
        let ctx = match r.u8()? {
            0 => None,
            1 => Some(
                TraceContext::decode(r.take(TraceContext::WIRE_LEN)?)
                    .ok_or_else(|| WireError::Protocol("bad trace context".into()))?,
            ),
            other => return Err(WireError::Protocol(format!("unknown ctx flag {other}"))),
        };
        let msg = WireMessage::decode(payload.get(r.pos()..).unwrap_or_default())?;
        Ok(Envelope { msg, ctx })
    }
}

/// Incremental frame parser: feed raw stream bytes, pop whole
/// envelopes. The typed face of a [`StreamDecoder`] over
/// [`codec::SERVER`]: it resyncs on either frame magic (v1 `MSRV`, v2
/// `MSV2`) after garbage or a mid-frame cut with the same loop that
/// carves a binlog or decodes the replication stream — the wire stream
/// is designed to be carvable, and one stream may interleave protocol
/// versions.
pub struct FrameDecoder(StreamDecoder);

impl Default for FrameDecoder {
    fn default() -> Self {
        FrameDecoder(StreamDecoder::new(&codec::SERVER))
    }
}

impl FrameDecoder {
    /// Appends raw bytes from the stream.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.0.feed(bytes);
    }

    /// Pops the next complete message, if one is buffered, discarding
    /// any attached trace context (v1 callers).
    pub fn next_message(&mut self) -> WireResult<Option<WireMessage>> {
        Ok(self.next_envelope()?.map(|e| e.msg))
    }

    /// Pops the next complete envelope, if one is buffered.
    ///
    /// A frame whose CRC trailer mismatches is rejected with an error
    /// (one whose length field is absurd, silently); the decoder then
    /// resyncs past that magic, so subsequent intact frames still
    /// decode.
    pub fn next_envelope(&mut self) -> WireResult<Option<Envelope>> {
        let Some(frame) = self.0.next_frame()? else {
            return Ok(None);
        };
        if frame.alt {
            Envelope::decode_v2(frame.payload).map(Some)
        } else {
            Ok(Some(Envelope::plain(WireMessage::decode(frame.payload)?)))
        }
    }

    /// Bytes currently buffered (diagnostics).
    pub fn buffered(&self) -> usize {
        self.0.buffered()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minidb::value::Value;

    fn sample_result() -> WireMessage {
        WireMessage::Result(WireResultSet {
            columns: vec!["id".into(), "name".into(), "blob".into()],
            rows: vec![
                vec![Value::Int(1), Value::Text("alice".into()), Value::Null],
                vec![
                    Value::Int(2),
                    Value::Text("bób".into()),
                    Value::Bytes(vec![0, 255, 7]),
                ],
            ],
            rows_examined: 9,
            rows_affected: 0,
        })
    }

    /// A range reply of the `range_scan_cold` shape: 200 rows of
    /// `(INT, TEXT, INT)`, one NULL and one BYTES cell for coverage.
    fn wide_result() -> WireMessage {
        let mut rows: Vec<Vec<Value>> = (0..200)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Text(format!("payload-{i:040}")),
                    Value::Int(i * 7),
                ]
            })
            .collect();
        rows[3][1] = Value::Null;
        rows[4][2] = Value::Bytes(vec![0xAB; 33]);
        WireMessage::Result(WireResultSet {
            columns: vec!["id".into(), "v".into(), "k".into()],
            rows,
            rows_examined: 200,
            rows_affected: 0,
        })
    }

    fn sample_messages() -> Vec<WireMessage> {
        vec![
            WireMessage::Hello { user: "app".into() },
            WireMessage::Query {
                sql: "SELECT * FROM t WHERE name = 'héllo'".into(),
            },
            WireMessage::Prepare {
                name: "q1".into(),
                sql: "SELECT 1".into(),
            },
            WireMessage::ExecutePrepared { name: "q1".into() },
            WireMessage::Trace,
            WireMessage::Quit,
            WireMessage::Greeting {
                session_id: 42,
                server: "minidb".into(),
            },
            sample_result(),
            WireMessage::Error {
                message: "unknown table: t".into(),
            },
            WireMessage::Bye,
            WireMessage::Result(WireResultSet::default()),
        ]
    }

    #[test]
    fn messages_round_trip() {
        for m in &sample_messages() {
            assert_eq!(&WireMessage::decode(&m.encode()).unwrap(), m);
        }
    }

    #[test]
    fn in_place_framing_is_bit_equal_to_encode_then_frame() {
        let ctx = TraceContext {
            trace_id: 0xFEED_F00D,
            span_id: 0x1234,
            sampled: true,
        };
        let mut msgs = sample_messages();
        msgs.push(wide_result());
        for m in msgs {
            let payload = m.encode();
            assert_eq!(m.encoded_len(), payload.len(), "{m:?}");
            let v1 = codec::SERVER.encode(false, 0, &payload);
            assert_eq!(m.to_reply_frame(), v1, "{m:?}");
            if let WireMessage::Result(rs) = &m {
                // The server's splice of the same rows as a block.
                assert_eq!(answer_reply_frame(&Answer::from(rs.clone())), v1);
            }
            assert_eq!(m.to_frame(), v1);
            let plain = Envelope::plain(m.clone());
            assert_eq!(plain.to_frame(), v1);
            assert_eq!(plain.to_request_frame(), Ok(v1));
            let mut v2 = vec![1u8];
            ctx.encode(&mut v2);
            v2.extend_from_slice(&payload);
            let traced = Envelope {
                msg: m,
                ctx: Some(ctx),
            };
            let v2 = codec::SERVER.encode(true, 0, &v2);
            assert_eq!(traced.to_frame(), v2);
            assert_eq!(traced.to_request_frame(), Ok(v2));
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(WireMessage::decode(&[]).is_err());
        assert!(WireMessage::decode(&[250]).is_err());
        let mut enc = WireMessage::Quit.encode();
        enc.push(0);
        assert!(WireMessage::decode(&enc).is_err(), "trailing byte");
    }

    #[test]
    fn a_malformed_row_block_is_a_protocol_error() {
        let payload = sample_result().encode();
        for cut in 1..payload.len() {
            assert!(
                matches!(
                    WireMessage::decode(&payload[..cut]),
                    Err(WireError::Protocol(_))
                ),
                "cut {cut}"
            );
        }
        // Tag, column count and the three names, then the row count.
        let rows_at = 1 + 4 + (4 + 2) + (4 + 4) + (4 + 4);
        let first_value = rows_at + 4 + 4;
        let corrupt = |at: usize, bytes: &[u8]| {
            let mut p = payload.clone();
            p[at..at + bytes.len()].copy_from_slice(bytes);
            WireMessage::decode(&p)
        };
        // An absurd row count reserves no more than the payload holds.
        assert!(matches!(
            corrupt(rows_at, &[0xFF; 4]),
            Err(WireError::Protocol(_))
        ));
        assert_eq!(
            corrupt(first_value, &[9]),
            Err(WireError::Protocol(
                "storage error: unknown value tag 9".into()
            ))
        );
        // "alice" is the second value of the first row.
        let alice = first_value + 9 + 5;
        assert!(matches!(
            corrupt(alice, &[0xFF]),
            Err(WireError::Protocol(_))
        ));
    }

    #[test]
    fn v2_envelope_round_trips_with_and_without_context() {
        let ctx = TraceContext {
            trace_id: 0xFEED_F00D,
            span_id: 0x1234,
            sampled: true,
        };
        let traced = Envelope {
            msg: WireMessage::Query {
                sql: "SELECT secret FROM accounts".into(),
            },
            ctx: Some(ctx),
        };
        let plain = Envelope::plain(WireMessage::Bye);
        // Context-free envelopes emit byte-identical v1 frames.
        assert_eq!(plain.to_frame(), WireMessage::Bye.to_frame());
        assert_eq!(&traced.to_frame()[..4], b"MSV2");
        let mut dec = FrameDecoder::default();
        dec.feed(&traced.to_frame());
        dec.feed(&plain.to_frame());
        assert_eq!(dec.next_envelope().unwrap(), Some(traced));
        assert_eq!(dec.next_envelope().unwrap(), Some(plain));
        assert_eq!(dec.next_envelope().unwrap(), None);
    }

    #[test]
    fn mixed_version_stream_decodes_through_next_message() {
        // A v1 caller (next_message) reading a v2 frame still gets the
        // message; the context is simply dropped.
        let traced = Envelope {
            msg: WireMessage::Query {
                sql: "BEGIN".into(),
            },
            ctx: Some(TraceContext::generate()),
        };
        let mut dec = FrameDecoder::default();
        dec.feed(&[0x00, 0x4D]); // garbage + a magic-prefix byte
        dec.feed(&WireMessage::Quit.to_frame());
        dec.feed(&traced.to_frame());
        assert_eq!(dec.next_message().unwrap(), Some(WireMessage::Quit));
        assert_eq!(dec.next_message().unwrap(), Some(traced.msg));
    }

    #[test]
    fn v2_payload_corruption_is_rejected() {
        // Bad ctx flag.
        let mut payload = vec![7u8];
        payload.extend_from_slice(&WireMessage::Quit.encode());
        assert!(Envelope::decode_v2(&payload).is_err());
        // Truncated context.
        let payload = vec![1u8, 0, 0];
        assert!(Envelope::decode_v2(&payload).is_err());
        assert!(Envelope::decode_v2(&[]).is_err());
    }

    #[test]
    fn crc_corruption_is_rejected_then_resynced() {
        let bad = WireMessage::Query {
            sql: "SELECT secret FROM accounts".into(),
        };
        let good = WireMessage::Bye;
        let mut frame = bad.to_frame();
        let n = frame.len();
        frame[n - 2] ^= 0x40; // flip a bit in the CRC trailer
        let mut dec = FrameDecoder::default();
        dec.feed(&frame);
        dec.feed(&good.to_frame());
        assert!(matches!(dec.next_message(), Err(WireError::Crc { .. })));
        assert_eq!(dec.next_message().unwrap(), Some(good));
    }

    #[test]
    fn over_cap_replies_become_an_error_frame() {
        // Error payload = tag + u32 length + text.
        let reply = |payload_len: usize| WireMessage::Error {
            message: "x".repeat(payload_len - 5),
        };
        let mut dec = FrameDecoder::default();
        // Exactly at the cap the reply ships as itself and decodes.
        let at_cap = reply(MAX_FRAME_LEN);
        assert_eq!(at_cap.encode().len(), MAX_FRAME_LEN);
        dec.feed(&at_cap.to_reply_frame());
        assert_eq!(dec.next_message().unwrap(), Some(at_cap));
        // One byte more and the unchecked frame is garbage to the
        // peer's decoder — the client would block on it forever…
        let over = reply(MAX_FRAME_LEN + 1);
        dec.feed(&over.to_frame());
        assert_eq!(dec.next_message().unwrap(), None);
        // …so the server's send path answers with an Error instead.
        dec.feed(&over.to_reply_frame());
        let error = WireMessage::Error {
            message: "result exceeds frame limit".into(),
        };
        assert_eq!(dec.next_message().unwrap(), Some(error.clone()));
        // The same guard measures a spliced block: one row of one
        // BYTES value, `n` bytes long.
        let answer = |n: usize| {
            Answer::from(WireResultSet {
                columns: vec!["b".into()],
                rows: vec![vec![Value::Bytes(vec![7; n])]],
                ..Default::default()
            })
        };
        let framing = 1 + result_len(&["b".into()], answer(0).rows.as_bytes().len());
        let at_cap = answer(MAX_FRAME_LEN - framing);
        dec.feed(&answer_reply_frame(&at_cap));
        let rows = at_cap.decode().unwrap();
        assert_eq!(dec.next_message().unwrap(), Some(WireMessage::Result(rows)));
        let over = answer(MAX_FRAME_LEN - framing + 1);
        assert_eq!(answer_reply_frame(&over), error.to_frame());
    }
}
