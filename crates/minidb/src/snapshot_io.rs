//! Serialization of [`SystemImage`] to a single byte container, so a
//! captured snapshot can be written to disk and analysed later by the
//! standalone forensic tooling (the workflow a real attacker has: image
//! first, carve at leisure).
//!
//! The container is the magic `EDBSNAP6`, then the `SystemImage`
//! declaration in the `sections!` block below, field by field in the
//! order listed. Each section type names its fields once there, and
//! both [`SystemImage::to_bytes`] and [`SystemImage::from_bytes`] come
//! from that list. The container is unframed: a 50 MB redo ring does
//! not fit a frame's `MAX_PAYLOAD`. Each field's wire form follows its
//! type:
//!
//! ```text
//! u8 u32 u64 i64 u128      fixed width, little-endian
//! usize                    u64
//! u16                      u32 (a zone-map column ordinal)
//! String, Vec<u8>          u64 length, bytes
//! Vec<T>                   u32 count, count × T
//! BTreeMap<K, V>           u32 count, count × (K, V)
//! (A, B), (A, B, C)        A, B[, C]
//! Option<T>                u8 0, or u8 1 then T
//! Row                      u64 length, Row::encode bytes
//! StatementTrace           u64 length, mdb-trace record payload
//! ```

// A snapshot file is outside input: a bad one is a typed error, never
// a panic.
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

use std::collections::BTreeMap;

use mdb_telemetry::{HistogramSnapshot, MetricsSnapshot};
use mdb_trace::codec::{put_bytes64, put_u32, Reader};
use mdb_trace::StatementTrace;

use crate::error::{DbError, DbResult};
use crate::mvcc::Version;
use crate::observability::{DigestStats, ProcessEntry, StatementEvent};
use crate::row::Row;
use crate::snapshot::{DiskImage, MemoryImage, SystemImage, VersionChain, ZoneMapPage};

const MAGIC: &[u8; 8] = b"EDBSNAP6";

impl SystemImage {
    /// Serializes the image to the `EDBSNAP6` container.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        self.put(&mut out);
        out
    }

    /// Parses an `EDBSNAP6` container.
    pub fn from_bytes(buf: &[u8]) -> DbResult<SystemImage> {
        let mut r = Reader::new(buf);
        if r.take(8)? != MAGIC {
            return Err(DbError::Storage("not an EDBSNAP6 image".into()));
        }
        let image = SystemImage::get(&mut r)?;
        if r.remaining() != 0 {
            return Err(DbError::Storage("trailing bytes in snapshot".into()));
        }
        Ok(image)
    }
}

/// One value's wire form: `put` appends it, `get` reads it back or
/// fails without panicking.
trait Field: Sized {
    fn put(&self, out: &mut Vec<u8>);

    fn get(r: &mut Reader) -> DbResult<Self>;

    /// A `Vec<Self>`: a `u32` count, then each item. `u8` overrides the
    /// pair, so a byte blob is one `u64`-length run.
    fn put_vec(items: &[Self], out: &mut Vec<u8>) {
        put_u32(out, items.len() as u32);
        for item in items {
            item.put(out);
        }
    }

    fn get_vec(r: &mut Reader) -> DbResult<Vec<Self>> {
        // No capacity from the claimed count: every item consumes input,
        // so the vector grows only as far as the bytes really go.
        let mut items = Vec::new();
        for _ in 0..r.u32()? {
            items.push(Self::get(r)?);
        }
        Ok(items)
    }
}

/// One `Field` impl per little-endian integer, read by the `Reader`
/// method of the same name.
macro_rules! le_fields {
    ($($ty:ident),*) => {$(
        impl Field for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn get(r: &mut Reader) -> DbResult<Self> {
                Ok(r.$ty()?)
            }
        }
    )*};
}
le_fields!(u32, u64, i64, u128);

/// One `Field` impl per tuple arity: the elements in order.
macro_rules! tuple_fields {
    ($(($($t:ident $i:tt),+))*) => {$(
        impl<$($t: Field),+> Field for ($($t,)+) {
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$i.put(out);)+
            }

            fn get(r: &mut Reader) -> DbResult<Self> {
                Ok(($($t::get(r)?,)+))
            }
        }
    )*};
}
tuple_fields!((A 0, B 1) (A 0, B 1, C 2));

/// One `Field` impl per section type, from its wire fields in order.
/// Fields after a `;` are not carried and read back as the value given.
macro_rules! sections {
    ($($ty:ident { $($f:ident),+ $(; $($skip:ident: $v:expr),+)? })*) => {$(
        impl Field for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$f.put(out);)+
            }

            fn get(r: &mut Reader) -> DbResult<Self> {
                Ok($ty {
                    $($f: Field::get(r)?,)+
                    $($($skip: $v,)+)?
                })
            }
        }
    )*};
}
sections! {
    SystemImage { captured_at, disk, memory }
    DiskImage { files }
    MemoryImage {
        heap, cached_queries, cached_pages, page_access_counts, adaptive_hash_keys,
        statements_current, statements_history, digest_summary, processlist, metrics,
        query_traces, zone_maps, version_chains
    }
    StatementEvent {
        thread_id, event_id, sql_text, digest, timestamp, rows_examined, rows_returned;
        text_ptr: None
    }
    DigestStats { digest, count_star, sum_rows_examined, sum_rows_returned, first_seen, last_seen }
    ProcessEntry { id, user, connect_time, current_query }
    MetricsSnapshot { counters, gauges, histograms }
    HistogramSnapshot { name, count, sum, buckets, exemplars }
    ZoneMapPage { file, page_no, rows, columns }
    VersionChain { table, row_id, versions }
    Version { state, op, xmin, xmax, offset, row }
}

impl Field for u8 {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }

    fn get(r: &mut Reader) -> DbResult<Self> {
        Ok(r.u8()?)
    }

    fn put_vec(items: &[u8], out: &mut Vec<u8>) {
        put_bytes64(out, items);
    }

    fn get_vec(r: &mut Reader) -> DbResult<Vec<u8>> {
        Ok(r.bytes64()?.to_vec())
    }
}

/// The one `u16` in an image is a zone-map column ordinal, carried as
/// a `u32`; a wider value is an error, not a different column.
impl Field for u16 {
    fn put(&self, out: &mut Vec<u8>) {
        u32::from(*self).put(out);
    }

    fn get(r: &mut Reader) -> DbResult<Self> {
        let n = r.u32()?;
        u16::try_from(n).map_err(|_| DbError::Storage(format!("column ordinal {n} exceeds u16")))
    }
}

impl Field for usize {
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u64).put(out);
    }

    fn get(r: &mut Reader) -> DbResult<Self> {
        let n = r.u64()?;
        usize::try_from(n).map_err(|_| DbError::Storage(format!("offset {n} exceeds usize")))
    }
}

impl Field for String {
    fn put(&self, out: &mut Vec<u8>) {
        put_bytes64(out, self.as_bytes());
    }

    fn get(r: &mut Reader) -> DbResult<Self> {
        Ok(r.str64()?)
    }
}

impl<T: Field> Field for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        T::put_vec(self, out);
    }

    fn get(r: &mut Reader) -> DbResult<Self> {
        T::get_vec(r)
    }
}

impl<K: Field + Ord, V: Field> Field for BTreeMap<K, V> {
    fn put(&self, out: &mut Vec<u8>) {
        put_u32(out, self.len() as u32);
        for (k, v) in self {
            k.put(out);
            v.put(out);
        }
    }

    fn get(r: &mut Reader) -> DbResult<Self> {
        Ok(Vec::<(K, V)>::get(r)?.into_iter().collect())
    }
}

impl<T: Field> Field for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Some(v) => {
                out.push(1);
                v.put(out);
            }
            None => out.push(0),
        }
    }

    fn get(r: &mut Reader) -> DbResult<Self> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::get(r)?)),
            tag => Err(DbError::Storage(format!("bad option tag {tag}"))),
        }
    }
}

impl Field for Row {
    fn put(&self, out: &mut Vec<u8>) {
        put_bytes64(out, &self.encode());
    }

    fn get(r: &mut Reader) -> DbResult<Self> {
        let bytes = r.bytes64()?;
        // Every value takes at least a byte: refuse a column count the
        // bytes cannot hold before `Row::decode` reserves room for it.
        if Row::decode_header(bytes)?.1 > bytes.len() {
            return Err(DbError::Storage(
                "row column count exceeds its bytes".into(),
            ));
        }
        Row::decode(bytes)
    }
}

/// A flight-recorder trace rides as an mdb-trace record payload: the
/// same bytes the slow-log carver understands.
impl Field for StatementTrace {
    fn put(&self, out: &mut Vec<u8>) {
        let mut payload = Vec::new();
        mdb_trace::record::encode_payload(self, &mut payload);
        put_bytes64(out, &payload);
    }

    fn get(r: &mut Reader) -> DbResult<Self> {
        let payload = r.bytes64()?;
        let (t, consumed) = mdb_trace::record::decode_payload(payload)
            .ok_or_else(|| DbError::Storage("bad trace record in snapshot".into()))?;
        if consumed != payload.len() {
            return Err(DbError::Storage("trailing bytes in trace record".into()));
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Db, DbConfig};

    fn fnv(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// A workload whose image is the same bytes on every run: tracing
    /// off, so no random trace id lands in it.
    fn deterministic_image() -> SystemImage {
        let db = Db::open(DbConfig {
            redo_capacity: 1 << 16,
            undo_capacity: 1 << 16,
            trace_enabled: false,
            ..DbConfig::default()
        });
        let conn = db.connect("app");
        conn.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT, b BYTES)")
            .unwrap();
        for i in 0..40 {
            conn.execute(&format!(
                "INSERT INTO t VALUES ({i}, 'row-{i}', X'{i:04x}')"
            ))
            .unwrap();
        }
        conn.execute("UPDATE t SET v = 'changed' WHERE id = 3")
            .unwrap();
        conn.execute("DELETE FROM t WHERE id = 5").unwrap();
        // Distinct texts past the query cache, one hot key: the
        // adaptive hash index adopts it.
        for i in 1..=10 {
            let pad = " ".repeat(i);
            conn.execute(&format!("SELECT * FROM t WHERE id ={pad}7"))
                .unwrap();
        }
        conn.execute("SELECT v FROM t WHERE id > 10 AND id < 20")
            .unwrap();
        db.system_image()
    }

    /// A traced image with every section non-empty.
    fn traced_image() -> SystemImage {
        let db = Db::open(DbConfig {
            redo_capacity: 1 << 16,
            undo_capacity: 1 << 16,
            ..DbConfig::default()
        });
        let conn = db.connect("app");
        conn.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
            .unwrap();
        for i in 0..20 {
            conn.execute(&format!("INSERT INTO t VALUES ({i}, 'hello-{i}')"))
                .unwrap();
        }
        conn.execute("UPDATE t SET v = 'world' WHERE id = 1")
            .unwrap();
        for i in 1..=10 {
            let pad = " ".repeat(i);
            conn.execute(&format!("SELECT * FROM t WHERE id ={pad}1"))
                .unwrap();
        }
        let mut img = db.system_image();
        // Between statements no statement is in flight, and the engine
        // sets no gauge; give both sections an entry.
        let m = &mut img.memory;
        m.statements_current
            .push(m.statements_history.last().unwrap().clone());
        m.metrics.gauges.push(("repl.lag_events".into(), -3));
        img
    }

    /// The container's bytes are those of the hand-written codec this
    /// one replaced: length and FNV-1a captured from it for this image.
    #[test]
    fn container_bytes_are_pinned() {
        let bytes = deterministic_image().to_bytes();
        assert_eq!(bytes, deterministic_image().to_bytes());
        assert_eq!(
            (bytes.len(), format!("{:016x}", fnv(&bytes))),
            (206_682, "e3e9cd727901637b".to_string())
        );
    }

    #[test]
    fn round_trips() {
        let mut img = traced_image();
        let m = &img.memory;
        assert!(!img.disk.files.is_empty() && !m.heap.is_empty());
        let lens = [
            m.cached_queries.len(),
            m.cached_pages.len(),
            m.page_access_counts.len(),
            m.adaptive_hash_keys.len(),
            m.statements_current.len(),
            m.statements_history.len(),
            m.digest_summary.len(),
            m.processlist.len(),
            m.metrics.counters.len(),
            m.metrics.gauges.len(),
            m.metrics.histograms.len(),
            m.query_traces.len(),
            m.zone_maps.len(),
            m.version_chains.len(),
        ];
        assert!(!lens.contains(&0), "an empty section: {lens:?}");
        assert!(m.metrics.histograms.iter().any(|h| !h.exemplars.is_empty()));
        assert!(m.processlist.iter().any(|p| p.current_query.is_none()));
        let back = SystemImage::from_bytes(&img.to_bytes()).unwrap();
        // The arena pointer of a statement's text is not carried.
        for e in img.memory.statements_current.iter_mut() {
            e.text_ptr = None;
        }
        for e in img.memory.statements_history.iter_mut() {
            e.text_ptr = None;
        }
        assert_eq!(back, img);
    }

    #[test]
    fn rejects_garbage_and_truncation() {
        assert!(SystemImage::from_bytes(b"not a snapshot").is_err());
        let bytes = deterministic_image().to_bytes();
        for cut in [8usize, 16, bytes.len() / 2, bytes.len() - 1] {
            assert!(SystemImage::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(SystemImage::from_bytes(&extra).is_err(), "trailing byte");
    }

    /// A zone-map column ordinal is a `u16` carried as a `u32`; one
    /// above 65,535 is an error, not a different column.
    #[test]
    fn rejects_a_column_ordinal_past_u16() {
        let mut img = deterministic_image();
        img.memory.zone_maps = vec![ZoneMapPage {
            file: "table_t.ibd".into(),
            page_no: 0,
            rows: 1,
            columns: vec![(7, 1, 2)],
        }];
        img.memory.version_chains.clear();
        let mut bytes = img.to_bytes();
        // ... | u32 col | i64 min | i64 max | u32 chain count (0).
        let col = bytes.len() - 4 - 16 - 4;
        assert_eq!(bytes[col..col + 4], 7u32.to_le_bytes());
        let back = SystemImage::from_bytes(&bytes).unwrap();
        assert_eq!(back.memory.zone_maps, img.memory.zone_maps);
        bytes[col..col + 4].copy_from_slice(&(65_536 + 7u32).to_le_bytes());
        assert!(SystemImage::from_bytes(&bytes).is_err());
    }
}
