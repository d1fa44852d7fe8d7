//! Serialization of [`SystemImage`] to a single byte container, so a
//! captured snapshot can be written to disk and analysed later by the
//! standalone forensic tooling (the workflow a real attacker has: image
//! first, carve at leisure).
//!
//! Format (`EDBSNAP6`, little-endian, length-prefixed throughout):
//!
//! ```text
//! magic "EDBSNAP6" | captured_at i64
//! disk:   u32 n, then n × (str name, u64 len, bytes)
//! memory: u64 heap_len, heap bytes
//!         [cached_queries] [cached_pages] [page_access_counts]
//!         [adaptive_hash_keys] [stmts_current] [stmts_history]
//!         [digest_summary] [processlist]
//! metrics: [counters] [gauges] [histograms]
//! traces:  u32 n, then n × (u64 len, mdb-trace record payload)
//! zonemaps: u32 n, then n × (str file, u32 page_no, u64 rows,
//!           u32 ncols, ncols × (u32 col, i64 min, i64 max))
//! versions: u32 n, then n × (str table, u64 row_id, u32 nversions,
//!           nversions × (u8 state, u8 op, u64 xmin, u64 xmax,
//!           u64 offset, bytes row))
//! ```

use std::collections::BTreeMap;

use mdb_trace::codec::{put_bytes64, put_i64, put_u32, put_u64, Reader};

use crate::error::{DbError, DbResult};
use crate::mvcc::Version;
use crate::observability::{DigestStats, ProcessEntry, StatementEvent};
use crate::row::Row;
use crate::snapshot::{DiskImage, MemoryImage, SystemImage, VersionChain, ZoneMapPage};

const MAGIC: &[u8; 8] = b"EDBSNAP6";

impl SystemImage {
    /// Serializes the image to the `EDBSNAP6` container.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        put_i64(&mut out, self.captured_at);
        // Disk.
        put_u32(&mut out, self.disk.files.len() as u32);
        for (name, data) in &self.disk.files {
            put_bytes64(&mut out, name.as_bytes());
            put_bytes64(&mut out, data);
        }
        // Memory.
        let m = &self.memory;
        put_bytes64(&mut out, &m.heap);
        put_u32(&mut out, m.cached_queries.len() as u32);
        for q in &m.cached_queries {
            put_bytes64(&mut out, q.as_bytes());
        }
        put_u32(&mut out, m.cached_pages.len() as u32);
        for (f, p) in &m.cached_pages {
            put_bytes64(&mut out, f.as_bytes());
            put_u32(&mut out, *p);
        }
        put_u32(&mut out, m.page_access_counts.len() as u32);
        for ((f, p), c) in &m.page_access_counts {
            put_bytes64(&mut out, f.as_bytes());
            put_u32(&mut out, *p);
            put_u64(&mut out, *c);
        }
        put_u32(&mut out, m.adaptive_hash_keys.len() as u32);
        for (k, (f, p)) in &m.adaptive_hash_keys {
            put_bytes64(&mut out, k);
            put_bytes64(&mut out, f.as_bytes());
            put_u32(&mut out, *p);
        }
        for events in [&m.statements_current, &m.statements_history] {
            put_u32(&mut out, events.len() as u32);
            for e in events.iter() {
                put_u64(&mut out, e.thread_id);
                put_u64(&mut out, e.event_id);
                put_bytes64(&mut out, e.sql_text.as_bytes());
                put_bytes64(&mut out, e.digest.as_bytes());
                put_i64(&mut out, e.timestamp);
                put_u64(&mut out, e.rows_examined);
                put_u64(&mut out, e.rows_returned);
            }
        }
        put_u32(&mut out, m.digest_summary.len() as u32);
        for d in &m.digest_summary {
            put_bytes64(&mut out, d.digest.as_bytes());
            put_u64(&mut out, d.count_star);
            put_u64(&mut out, d.sum_rows_examined);
            put_u64(&mut out, d.sum_rows_returned);
            put_i64(&mut out, d.first_seen);
            put_i64(&mut out, d.last_seen);
        }
        put_u32(&mut out, m.processlist.len() as u32);
        for p in &m.processlist {
            put_u64(&mut out, p.id);
            put_bytes64(&mut out, p.user.as_bytes());
            put_i64(&mut out, p.connect_time);
            match &p.current_query {
                Some(q) => {
                    out.push(1);
                    put_bytes64(&mut out, q.as_bytes());
                }
                None => out.push(0),
            }
        }
        let ms = &m.metrics;
        put_u32(&mut out, ms.counters.len() as u32);
        for (name, v) in &ms.counters {
            put_bytes64(&mut out, name.as_bytes());
            put_u64(&mut out, *v);
        }
        put_u32(&mut out, ms.gauges.len() as u32);
        for (name, v) in &ms.gauges {
            put_bytes64(&mut out, name.as_bytes());
            put_i64(&mut out, *v);
        }
        put_u32(&mut out, ms.histograms.len() as u32);
        for h in &ms.histograms {
            put_bytes64(&mut out, h.name.as_bytes());
            put_u64(&mut out, h.count);
            put_u64(&mut out, h.sum);
            put_u32(&mut out, h.buckets.len() as u32);
            for (idx, n) in &h.buckets {
                out.push(*idx);
                put_u64(&mut out, *n);
            }
            put_u32(&mut out, h.exemplars.len() as u32);
            for (idx, tid, val) in &h.exemplars {
                out.push(*idx);
                out.extend_from_slice(&tid.to_le_bytes());
                put_u64(&mut out, *val);
            }
        }
        // The flight-recorder ring, reusing the mdb-trace payload wire
        // format (same bytes the slow-log carver understands).
        put_u32(&mut out, m.query_traces.len() as u32);
        for t in &m.query_traces {
            let mut payload = Vec::new();
            mdb_trace::record::encode_payload(t, &mut payload);
            put_bytes64(&mut out, &payload);
        }
        // The zone-map mirrors: per-page plaintext min/max bounds.
        put_u32(&mut out, m.zone_maps.len() as u32);
        for z in &m.zone_maps {
            put_bytes64(&mut out, z.file.as_bytes());
            put_u32(&mut out, z.page_no);
            put_u64(&mut out, z.rows);
            put_u32(&mut out, z.columns.len() as u32);
            for (col, min, max) in &z.columns {
                put_u32(&mut out, *col as u32);
                put_i64(&mut out, *min);
                put_i64(&mut out, *max);
            }
        }
        // The MVCC version chains: per-row supersession history.
        put_u32(&mut out, m.version_chains.len() as u32);
        for c in &m.version_chains {
            put_bytes64(&mut out, c.table.as_bytes());
            put_u64(&mut out, c.row_id);
            put_u32(&mut out, c.versions.len() as u32);
            for v in &c.versions {
                out.push(v.state);
                out.push(v.op);
                put_u64(&mut out, v.xmin);
                put_u64(&mut out, v.xmax);
                put_u64(&mut out, v.offset as u64);
                put_bytes64(&mut out, &v.row.encode());
            }
        }
        out
    }

    /// Parses an `EDBSNAP6` container.
    pub fn from_bytes(buf: &[u8]) -> DbResult<SystemImage> {
        let mut r = Reader::new(buf);
        if r.take(8)? != MAGIC {
            return Err(DbError::Storage("not an EDBSNAP6 image".into()));
        }
        let captured_at = r.i64()?;
        let n_files = r.u32()? as usize;
        let mut files = BTreeMap::new();
        for _ in 0..n_files {
            let name = r.str64()?;
            let data = r.bytes64()?.to_vec();
            files.insert(name, data);
        }
        let heap = r.bytes64()?.to_vec();
        let mut cached_queries = Vec::new();
        for _ in 0..r.u32()? {
            cached_queries.push(r.str64()?);
        }
        let mut cached_pages = Vec::new();
        for _ in 0..r.u32()? {
            let f = r.str64()?;
            let p = r.u32()?;
            cached_pages.push((f, p));
        }
        let mut page_access_counts = Vec::new();
        for _ in 0..r.u32()? {
            let f = r.str64()?;
            let p = r.u32()?;
            let c = r.u64()?;
            page_access_counts.push(((f, p), c));
        }
        let mut adaptive_hash_keys = Vec::new();
        for _ in 0..r.u32()? {
            let k = r.bytes64()?.to_vec();
            let f = r.str64()?;
            let p = r.u32()?;
            adaptive_hash_keys.push((k, (f, p)));
        }
        let read_events = |r: &mut Reader| -> DbResult<Vec<StatementEvent>> {
            let mut out = Vec::new();
            for _ in 0..r.u32()? {
                out.push(StatementEvent {
                    thread_id: r.u64()?,
                    event_id: r.u64()?,
                    sql_text: r.str64()?,
                    digest: r.str64()?,
                    timestamp: r.i64()?,
                    rows_examined: r.u64()?,
                    rows_returned: r.u64()?,
                    text_ptr: None,
                });
            }
            Ok(out)
        };
        let statements_current = read_events(&mut r)?;
        let statements_history = read_events(&mut r)?;
        let mut digest_summary = Vec::new();
        for _ in 0..r.u32()? {
            digest_summary.push(DigestStats {
                digest: r.str64()?,
                count_star: r.u64()?,
                sum_rows_examined: r.u64()?,
                sum_rows_returned: r.u64()?,
                first_seen: r.i64()?,
                last_seen: r.i64()?,
            });
        }
        let mut processlist = Vec::new();
        for _ in 0..r.u32()? {
            let id = r.u64()?;
            let user = r.str64()?;
            let connect_time = r.i64()?;
            let current_query = match r.u8()? {
                0 => None,
                _ => Some(r.str64()?),
            };
            processlist.push(ProcessEntry {
                id,
                user,
                connect_time,
                current_query,
            });
        }
        let mut metrics = mdb_telemetry::MetricsSnapshot::default();
        for _ in 0..r.u32()? {
            let name = r.str64()?;
            let v = r.u64()?;
            metrics.counters.push((name, v));
        }
        for _ in 0..r.u32()? {
            let name = r.str64()?;
            let v = r.i64()?;
            metrics.gauges.push((name, v));
        }
        for _ in 0..r.u32()? {
            let name = r.str64()?;
            let count = r.u64()?;
            let sum = r.u64()?;
            let mut buckets = Vec::new();
            for _ in 0..r.u32()? {
                let idx = r.u8()?;
                let n = r.u64()?;
                buckets.push((idx, n));
            }
            let mut exemplars = Vec::new();
            for _ in 0..r.u32()? {
                let idx = r.u8()?;
                let tid = r.u128()?;
                let val = r.u64()?;
                exemplars.push((idx, tid, val));
            }
            metrics.histograms.push(mdb_telemetry::HistogramSnapshot {
                name,
                count,
                sum,
                buckets,
                exemplars,
            });
        }
        let mut query_traces = Vec::new();
        for _ in 0..r.u32()? {
            let payload = r.bytes64()?;
            let (t, consumed) = mdb_trace::record::decode_payload(payload)
                .ok_or_else(|| DbError::Storage("bad trace record in snapshot".into()))?;
            if consumed != payload.len() {
                return Err(DbError::Storage("trailing bytes in trace record".into()));
            }
            query_traces.push(t);
        }
        let mut zone_maps = Vec::new();
        for _ in 0..r.u32()? {
            let file = r.str64()?;
            let page_no = r.u32()?;
            let rows = r.u64()?;
            let mut columns = Vec::new();
            for _ in 0..r.u32()? {
                let col = r.u32()? as u16;
                let min = r.i64()?;
                let max = r.i64()?;
                columns.push((col, min, max));
            }
            zone_maps.push(ZoneMapPage {
                file,
                page_no,
                rows,
                columns,
            });
        }
        let mut version_chains = Vec::new();
        for _ in 0..r.u32()? {
            let table = r.str64()?;
            let row_id = r.u64()?;
            let mut versions = Vec::new();
            for _ in 0..r.u32()? {
                let state = r.u8()?;
                let op = r.u8()?;
                let xmin = r.u64()?;
                let xmax = r.u64()?;
                let offset = r.u64()? as usize;
                let row = Row::decode(r.bytes64()?)?;
                versions.push(Version {
                    xmin,
                    xmax,
                    state,
                    op,
                    row,
                    offset,
                });
            }
            version_chains.push(VersionChain {
                table,
                row_id,
                versions,
            });
        }
        if r.remaining() != 0 {
            return Err(DbError::Storage("trailing bytes in snapshot".into()));
        }
        Ok(SystemImage {
            disk: DiskImage { files },
            memory: MemoryImage {
                heap,
                cached_queries,
                cached_pages,
                page_access_counts,
                adaptive_hash_keys,
                statements_current,
                statements_history,
                digest_summary,
                processlist,
                metrics,
                query_traces,
                zone_maps,
                version_chains,
            },
            captured_at,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Db, DbConfig};

    fn image() -> SystemImage {
        let config = DbConfig {
            redo_capacity: 1 << 16,
            undo_capacity: 1 << 16,
            ..DbConfig::default()
        };
        let db = Db::open(config);
        let conn = db.connect("app");
        conn.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
            .unwrap();
        conn.execute("INSERT INTO t VALUES (1, 'hello')").unwrap();
        conn.execute("UPDATE t SET v = 'world' WHERE id = 1")
            .unwrap();
        conn.execute("SELECT * FROM t WHERE id = 1").unwrap();
        db.system_image()
    }

    #[test]
    fn round_trips() {
        let img = image();
        let bytes = img.to_bytes();
        let back = SystemImage::from_bytes(&bytes).unwrap();
        assert_eq!(back.captured_at, img.captured_at);
        assert_eq!(back.disk.files, img.disk.files);
        assert_eq!(back.memory.heap, img.memory.heap);
        assert_eq!(back.memory.cached_queries, img.memory.cached_queries);
        assert_eq!(
            back.memory.statements_history.len(),
            img.memory.statements_history.len()
        );
        assert_eq!(
            back.memory.digest_summary.len(),
            img.memory.digest_summary.len()
        );
        assert_eq!(back.memory.processlist.len(), img.memory.processlist.len());
        // Telemetry rides along: the captured registry state (non-empty
        // after the workload) survives the container byte-exactly.
        assert!(!img.memory.metrics.is_zero());
        assert!(img
            .memory
            .metrics
            .counter("sql.table_access.t")
            .is_some_and(|v| v >= 2));
        assert_eq!(back.memory.metrics, img.memory.metrics);
        // The flight-recorder ring rides along too, span trees and all.
        assert!(!img.memory.query_traces.is_empty());
        assert_eq!(back.memory.query_traces, img.memory.query_traces);
        // And so do the zone-map mirrors: the INSERT above touched one
        // heap page, whose synopsis carries the plaintext id range.
        assert!(!img.memory.zone_maps.is_empty());
        assert!(img.memory.zone_maps[0]
            .columns
            .iter()
            .any(|&(_, min, max)| min == 1 && max == 1));
        assert_eq!(back.memory.zone_maps, img.memory.zone_maps);
        // The MVCC version chains: the UPDATE archived one before-image
        // whose full row survives the container.
        assert!(!img.memory.version_chains.is_empty());
        assert_eq!(back.memory.version_chains, img.memory.version_chains);
    }

    #[test]
    fn rejects_garbage_and_truncation() {
        assert!(SystemImage::from_bytes(b"not a snapshot").is_err());
        let bytes = image().to_bytes();
        for cut in [8usize, 16, bytes.len() / 2, bytes.len() - 1] {
            assert!(SystemImage::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(SystemImage::from_bytes(&extra).is_err(), "trailing byte");
    }
}
