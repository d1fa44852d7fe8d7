//! The versioned on-disk trace record — the slow log's wire format —
//! and its forensic carver.
//!
//! ```text
//! record  = magic "MTRC" | version u8 | payload_len u32 LE | payload | crc32 u32 LE
//!           (the shared frame layer: [`crate::codec::TRACE`])
//! payload = conn_id u64 | started i64 | total_us u64 | trace_id u64
//!           | statement str | digest str
//!           | tables:  u16 n, n × str
//!           | root span
//!           | (v2) node str
//!           | (v2) ctx flag u8, flag=1 → trace_id u128 | span_id u64 | flags u8
//! span    = name str | start_us u64 | dur_us u64
//!           | attrs:    u16 n, n × (str, u64)
//!           | children: u16 n, n × span
//! str     = u16 len LE | utf-8 bytes
//! ```
//!
//! Version 2 (this PR) appends the recording node's identity and the
//! optional distributed [`TraceContext`] — the cross-node join key E19
//! carves. [`carve`] accepts both versions: v1 records decode with an
//! empty node and no context.
//!
//! The CRC covers `version | payload_len | payload`. Every record is
//! self-delimiting and checksummed, so [`carve`] recovers all intact
//! records from a byte stream that has been truncated mid-record or
//! corrupted in the middle — the realistic state of a slow log lifted
//! from a stolen disk. Decoding is bounded (string/fan-out/depth caps)
//! so carving adversarial bytes stays cheap.

use crate::codec::{self, put_i64, put_str16, put_u16, put_u64, Reader};
use crate::{Span, StatementTrace, TraceContext};

/// Current format version (v2: node identity + distributed context).
pub const VERSION: u8 = 2;
/// The pre-xtrace format, still carvable.
pub const VERSION_V1: u8 = 1;

/// Decode caps: widest fan-out, deepest nesting.
const MAX_FANOUT: usize = 4096;
const MAX_DEPTH: usize = 64;

/// CRC-32 (IEEE), re-exported from the shared codec.
pub use crate::codec::crc32;

/// Writes a `u16` element count, saturating like the `take` beside it.
fn put_count(out: &mut Vec<u8>, n: usize) {
    put_u16(out, n.min(u16::MAX as usize) as u16);
}

fn put_span(out: &mut Vec<u8>, s: &Span) {
    put_str16(out, &s.name);
    put_u64(out, s.start_us);
    put_u64(out, s.dur_us);
    put_count(out, s.attrs.len());
    for (k, v) in s.attrs.iter().take(u16::MAX as usize) {
        put_str16(out, k);
        put_u64(out, *v);
    }
    put_count(out, s.children.len());
    for c in s.children.iter().take(u16::MAX as usize) {
        put_span(out, c);
    }
}

/// Serializes just the payload (no framing). Shared with the snapshot
/// container, which frames sections itself.
pub fn encode_payload(t: &StatementTrace, out: &mut Vec<u8>) {
    put_u64(out, t.conn_id);
    put_i64(out, t.started_unix);
    put_u64(out, t.total_us);
    put_u64(out, t.trace_id);
    put_str16(out, &t.statement);
    put_str16(out, &t.digest);
    put_count(out, t.tables.len());
    for tab in t.tables.iter().take(u16::MAX as usize) {
        put_str16(out, tab);
    }
    put_span(out, &t.root);
    // v2 tail: node identity + optional distributed context.
    put_str16(out, &t.node);
    match &t.ctx {
        Some(ctx) => {
            out.push(1);
            ctx.encode(out);
        }
        None => out.push(0),
    }
}

/// Serializes one framed, checksummed record (what the engine appends
/// to `slow.log`).
pub fn encode_record(t: &StatementTrace) -> Vec<u8> {
    let mut payload = Vec::new();
    encode_payload(t, &mut payload);
    codec::TRACE.encode(false, VERSION, &payload)
}

/// Reads a `u16` element count, rejecting absurd fan-outs.
fn count(r: &mut Reader) -> Option<usize> {
    let n = r.u16().ok()? as usize;
    (n <= MAX_FANOUT).then_some(n)
}

fn span(r: &mut Reader, depth: usize) -> Option<Span> {
    if depth > MAX_DEPTH {
        return None;
    }
    let name = r.str16().ok()?;
    let start_us = r.u64().ok()?;
    let dur_us = r.u64().ok()?;
    let n_attrs = count(r)?;
    let mut attrs = Vec::with_capacity(n_attrs.min(64));
    for _ in 0..n_attrs {
        attrs.push((r.str16().ok()?, r.u64().ok()?));
    }
    let n_children = count(r)?;
    let mut children = Vec::with_capacity(n_children.min(64));
    for _ in 0..n_children {
        children.push(span(r, depth + 1)?);
    }
    Some(Span {
        name,
        start_us,
        dur_us,
        attrs,
        children,
    })
}

/// Decodes the fields shared by every payload version.
fn decode_common(r: &mut Reader) -> Option<StatementTrace> {
    let conn_id = r.u64().ok()?;
    let started_unix = r.i64().ok()?;
    let total_us = r.u64().ok()?;
    let trace_id = r.u64().ok()?;
    let statement = r.str16().ok()?;
    let digest = r.str16().ok()?;
    let n_tables = count(r)?;
    let mut tables = Vec::with_capacity(n_tables.min(64));
    for _ in 0..n_tables {
        tables.push(r.str16().ok()?);
    }
    let root = span(r, 0)?;
    Some(StatementTrace {
        trace_id,
        conn_id,
        started_unix,
        statement,
        digest,
        total_us,
        tables,
        root,
        node: String::new(),
        ctx: None,
    })
}

/// Deserializes a v2 payload produced by [`encode_payload`]. Returns
/// the trace and the number of bytes consumed; `None` on malformation.
pub fn decode_payload(buf: &[u8]) -> Option<(StatementTrace, usize)> {
    let mut r = Reader::new(buf);
    let mut t = decode_common(&mut r)?;
    t.node = r.str16().ok()?;
    t.ctx = match r.u8().ok()? {
        0 => None,
        1 => Some(TraceContext::decode(r.take(TraceContext::WIRE_LEN).ok()?)?),
        _ => return None,
    };
    Some((t, r.pos()))
}

/// Deserializes a v1 payload (no node, no context).
pub fn decode_payload_v1(buf: &[u8]) -> Option<(StatementTrace, usize)> {
    let mut r = Reader::new(buf);
    let t = decode_common(&mut r)?;
    Some((t, r.pos()))
}

/// One record recovered by [`carve`], with its byte offset in the input.
#[derive(Clone, Debug)]
pub struct CarvedRecord {
    /// Offset of the record's magic in the scanned bytes.
    pub offset: usize,
    /// The decoded trace.
    pub trace: StatementTrace,
}

/// Scans raw bytes for intact trace records. Resynchronizes on the
/// magic after truncated or corrupted stretches: a record is accepted
/// only if its version, length, CRC, and payload all check out, so a
/// flipped byte costs at most the record it lands in.
pub fn carve(raw: &[u8]) -> Vec<CarvedRecord> {
    codec::scan(&codec::TRACE, raw)
        .filter_map(|f| {
            let (trace, consumed) = match f.version {
                VERSION => decode_payload(f.payload)?,
                _ => decode_payload_v1(f.payload)?,
            };
            (consumed == f.payload.len()).then_some(CarvedRecord {
                offset: f.offset,
                trace,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(i: u64) -> StatementTrace {
        let mut b = crate::TraceBuilder::new(
            i,
            1_483_228_800 + i as i64,
            &format!("SELECT * FROM t{i} WHERE id = {i}"),
            &format!("d{i:04x}"),
        );
        b.table(&format!("t{i}"));
        b.begin("parse");
        b.end(30);
        b.begin("scan");
        b.attr("rows_examined", i * 10);
        b.end_elastic();
        b.finish(300 + i * 2)
    }

    #[test]
    fn record_round_trip() {
        let t = sample(3);
        let bytes = encode_record(&t);
        let carved = carve(&bytes);
        assert_eq!(carved.len(), 1);
        assert_eq!(carved[0].offset, 0);
        assert_eq!(carved[0].trace, t);
    }

    #[test]
    fn embedded_magic_inside_a_statement_does_not_confuse_the_carver() {
        let t = StatementTrace::minimal(1, 0, "SELECT 'MTRC' FROM t -- MTRC", "d", 10, 0);
        let mut buf = encode_record(&t);
        buf.extend_from_slice(&encode_record(&sample(1)));
        let carved = carve(&buf);
        assert_eq!(carved.len(), 2);
        assert_eq!(carved[0].trace.statement, "SELECT 'MTRC' FROM t -- MTRC");
    }

    /// Frames a payload as a v1 record (what a pre-xtrace slow log
    /// holds): same framing, version byte 1, no node/ctx tail.
    fn encode_record_v1(t: &StatementTrace) -> Vec<u8> {
        let mut payload = Vec::new();
        let mut bare = t.clone();
        bare.node = String::new();
        bare.ctx = None;
        encode_payload(&bare, &mut payload);
        // Strip the v2 tail: node str (2-byte len + bytes) + flag byte.
        let tail = 2 + bare.node.len() + 1;
        payload.truncate(payload.len() - tail);
        codec::TRACE.encode(false, VERSION_V1, &payload)
    }

    #[test]
    fn v2_round_trip_keeps_node_and_context() {
        let mut t = sample(5);
        t.node = "replica-0".to_string();
        t.ctx = Some(TraceContext {
            trace_id: 0xABCD_EF01_2345_6789_0011_2233_4455_6677,
            span_id: 0x1122_3344_5566_7788,
            sampled: true,
        });
        let carved = carve(&encode_record(&t));
        assert_eq!(carved.len(), 1);
        assert_eq!(carved[0].trace, t);
    }

    #[test]
    fn carve_accepts_mixed_v1_and_v2_records() {
        let mut buf = Vec::new();
        let old = sample(1);
        buf.extend_from_slice(&encode_record_v1(&old));
        let mut new = sample(2);
        new.node = "primary".into();
        new.ctx = Some(TraceContext::generate());
        buf.extend_from_slice(&encode_record(&new));
        let carved = carve(&buf);
        assert_eq!(carved.len(), 2);
        assert_eq!(carved[0].trace, old, "v1 decodes with empty node, no ctx");
        assert_eq!(carved[0].trace.node, "");
        assert_eq!(carved[0].trace.ctx, None);
        assert_eq!(carved[1].trace, new);
    }

    #[test]
    fn unknown_version_is_skipped_not_misparsed() {
        let mut rec = encode_record(&sample(1));
        rec[4] = 9; // Version byte.
                    // Fix the CRC so only the version check can reject it.
        let len = rec.len();
        let crc = crc32(&rec[4..len - 4]);
        rec[len - 4..].copy_from_slice(&crc.to_le_bytes());
        assert!(carve(&rec).is_empty());
    }
}
