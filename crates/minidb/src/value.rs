//! SQL values and their binary encoding.

// Bytes from pages, logs and the wire are read here: a bad one is a
// typed error, never a panic.
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

use core::cmp::Ordering;
use core::fmt;

use mdb_trace::codec::{put_u32, Reader};

use crate::error::{DbError, DbResult};

/// Column types supported by MiniDB.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColumnType {
    /// 64-bit signed integer.
    Int,
    /// UTF-8 text.
    Text,
    /// Raw bytes (ciphertexts live here).
    Bytes,
}

impl fmt::Display for ColumnType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColumnType::Int => write!(f, "INT"),
            ColumnType::Text => write!(f, "TEXT"),
            ColumnType::Bytes => write!(f, "BYTES"),
        }
    }
}

/// A runtime SQL value.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// UTF-8 text.
    Text(String),
    /// Raw bytes, written in SQL as `X'hex'`.
    Bytes(Vec<u8>),
}

impl Value {
    /// The column type this value inhabits, or `None` for NULL.
    pub fn column_type(&self) -> Option<ColumnType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(ColumnType::Int),
            Value::Text(_) => Some(ColumnType::Text),
            Value::Bytes(_) => Some(ColumnType::Bytes),
        }
    }

    /// Whether this value may be stored in a column of type `ty`.
    /// NULL fits every column.
    pub fn fits(&self, ty: ColumnType) -> bool {
        match self.column_type() {
            None => true,
            Some(t) => t == ty,
        }
    }

    /// Renders the value as a SQL literal.
    pub fn to_sql(&self) -> String {
        match self {
            Value::Null => "NULL".to_string(),
            Value::Int(i) => i.to_string(),
            Value::Text(s) => format!("'{}'", s.replace('\'', "''")),
            Value::Bytes(b) => {
                let hex: String = b.iter().map(|x| format!("{x:02x}")).collect();
                format!("X'{hex}'")
            }
        }
    }

    /// Encodes the value into `out` with a 1-byte tag and explicit length,
    /// the format rows use on pages and in log records.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Value::Null => out.push(0),
            Value::Int(i) => {
                out.push(1);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Value::Text(s) => {
                out.push(2);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            Value::Bytes(b) => {
                out.push(3);
                out.extend_from_slice(&(b.len() as u32).to_le_bytes());
                out.extend_from_slice(b);
            }
        }
    }

    /// Bytes [`Value::encode`] appends for this value.
    pub fn encoded_len(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Int(_) => 9,
            Value::Text(s) => 5 + s.len(),
            Value::Bytes(b) => 5 + b.len(),
        }
    }

    /// Decodes a value from `buf[*pos..]`, advancing `pos`.
    #[inline(always)]
    pub fn decode(buf: &[u8], pos: &mut usize) -> DbResult<Value> {
        let (value, end) = read(buf, *pos)?;
        *pos = end;
        Ok(value.to_value())
    }

    /// Orders `self` against the value encoded at `buf[*pos..]`, exactly
    /// as `Ord for Value` would order it against the decoded value,
    /// advancing `pos` past it. The encoded value is read and checked
    /// by `read`, but not materialized.
    #[inline(always)]
    pub fn cmp_encoded(&self, buf: &[u8], pos: &mut usize) -> DbResult<Ordering> {
        let (value, end) = read(buf, *pos)?;
        *pos = end;
        Ok(self.borrowed().cmp(&value))
    }

    /// SQL three-valued comparison: `None` when either side is NULL.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        self.borrowed().sql_cmp(other.borrowed())
    }

    /// The value borrowed, as [`read`] yields the value encoded.
    #[inline(always)]
    pub(crate) fn borrowed(&self) -> ValueRef<'_> {
        match self {
            Value::Null => ValueRef::Null,
            Value::Int(i) => ValueRef::Int(*i),
            Value::Text(s) => ValueRef::Text(s),
            Value::Bytes(b) => ValueRef::Bytes(b),
        }
    }
}

/// A value where it lies in an encoded buffer, as [`read`] found it:
/// what a [`Value`] holds, borrowed. It orders as `Ord for Value` does:
/// the variants in the same order, INT as `i64`, TEXT and BYTES
/// bytewise (which is how `String` orders too).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum ValueRef<'a> {
    Null,
    Int(i64),
    Text(&'a str),
    Bytes(&'a [u8]),
}

impl ValueRef<'_> {
    /// The value, owned.
    #[inline(always)]
    pub(crate) fn to_value(self) -> Value {
        match self {
            ValueRef::Null => Value::Null,
            ValueRef::Int(i) => Value::Int(i),
            ValueRef::Text(s) => Value::Text(s.to_owned()),
            ValueRef::Bytes(b) => Value::Bytes(b.to_vec()),
        }
    }

    /// SQL three-valued comparison: `None` when either side is NULL.
    /// Cross-type comparisons order by type tag, mirroring SQLite's
    /// affinity-free fallback; they never occur in well-typed plans.
    #[inline(always)]
    pub(crate) fn sql_cmp(self, other: ValueRef<'_>) -> Option<Ordering> {
        let null = self == ValueRef::Null || other == ValueRef::Null;
        (!null).then(|| self.cmp(&other))
    }
}

/// Reads the value encoded at `buf[pos..]` ([`Value::encode`]'s tag
/// and explicit length) and returns it with the offset where it ends.
/// This is the one reader of the encoding: rows, predicates, B+ tree
/// nodes and row blocks all read values here, so every bounds check
/// lives here, and so does the check that a TEXT body is UTF-8. What it
/// accepts is a value's canonical encoding, so its bytes may be copied
/// as they are (into a [`RowBlock`], or into the halves of a split
/// node).
///
/// This and its callers are forced inline: they are the inner loop of
/// every scan (see `predicate::EncodedRow`) and of every B+ tree node
/// read.
#[inline(always)]
pub(crate) fn read(buf: &[u8], pos: usize) -> DbResult<(ValueRef<'_>, usize)> {
    let rest = buf.get(pos..).unwrap_or_default();
    let (&tag, rest) = rest.split_first().ok_or_else(|| truncated("value tag"))?;
    let (value, len) = match tag {
        0 => (ValueRef::Null, 0),
        1 => {
            let int = rest.first_chunk().ok_or_else(|| truncated("body"))?;
            (ValueRef::Int(i64::from_le_bytes(*int)), 8)
        }
        2 | 3 => {
            let (len, rest) = rest
                .split_first_chunk()
                .ok_or_else(|| truncated("length"))?;
            let len = u32::from_le_bytes(*len) as usize;
            let body = rest.get(..len).ok_or_else(|| truncated("body"))?;
            let value = match tag {
                2 => ValueRef::Text(std::str::from_utf8(body).map_err(|_| bad_utf8())?),
                _ => ValueRef::Bytes(body),
            };
            (value, 4 + len)
        }
        t => return Err(DbError::Storage(format!("unknown value tag {t}"))),
    };
    Ok((value, pos + 1 + len))
}

/// A result's rows as one row block: the bytes [`encode_rows`] writes,
/// owned, plus the row count. A SELECT answers with one, which the
/// query cache shares as an `Arc` and a `Result` reply splices whole;
/// only an in-process caller decodes it, after the engine lock is
/// released. The count at the front is kept current, so the bytes are
/// a complete block after every row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RowBlock {
    bytes: Vec<u8>,
    rows: usize,
}

impl Default for RowBlock {
    fn default() -> Self {
        RowBlock::new()
    }
}

impl RowBlock {
    /// A block of no rows, with room for a short row or two before it
    /// grows.
    pub fn new() -> RowBlock {
        let mut bytes = Vec::with_capacity(64);
        put_u32(&mut bytes, 0);
        RowBlock { bytes, rows: 0 }
    }

    /// The block of `rows`, encoded once.
    pub fn from_rows(rows: &[Vec<Value>]) -> RowBlock {
        let mut bytes = Vec::with_capacity(rows_encoded_len(rows));
        encode_rows(rows, &mut bytes);
        RowBlock {
            bytes,
            rows: rows.len(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the block holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The encoded block, count first: what a `Result` reply carries.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The rows, decoded. A malformed block is a [`DbError::Storage`],
    /// never a panic.
    pub fn decode(&self) -> DbResult<Vec<Vec<Value>>> {
        let mut pos = 0;
        let rows = decode_rows(&self.bytes, &mut pos)?;
        if pos != self.bytes.len() {
            return Err(DbError::Storage("trailing bytes after row block".into()));
        }
        Ok(rows)
    }

    /// Starts a row of `width` values; exactly `width`
    /// [`Self::push_value`] or [`Self::push`] calls must follow.
    pub(crate) fn push_row(&mut self, width: usize) {
        self.rows += 1;
        if let Some(count) = self.bytes.first_chunk_mut() {
            *count = (self.rows as u32).to_le_bytes();
        }
        put_u32(&mut self.bytes, width as u32);
    }

    /// Appends one value's encoding, bytes that [`read`] accepted.
    pub(crate) fn push_value(&mut self, encoded: &[u8]) {
        self.bytes.extend_from_slice(encoded);
    }

    /// Encodes one value onto the row [`Self::push_row`] started.
    pub(crate) fn push(&mut self, value: &Value) {
        value.encode(&mut self.bytes);
    }
}

/// Appends `rows` as a row block: a `u32` row count, then per row a
/// `u32` width and its values in [`Value::encode`]'s format. A cached
/// result holds one, and a `Result` reply on the wire carries one.
pub fn encode_rows(rows: &[Vec<Value>], out: &mut Vec<u8>) {
    put_u32(out, rows.len() as u32);
    for row in rows {
        put_u32(out, row.len() as u32);
        for v in row {
            v.encode(out);
        }
    }
}

/// Bytes [`encode_rows`] appends for `rows`.
pub fn rows_encoded_len(rows: &[Vec<Value>]) -> usize {
    let rows: usize = rows
        .iter()
        .map(|row| 4 + row.iter().map(Value::encoded_len).sum::<usize>())
        .sum();
    4 + rows
}

/// Decodes the row block at `buf[*pos..]`, advancing `pos` past it. A
/// malformed block is a [`DbError::Storage`], never a panic.
pub fn decode_rows(buf: &[u8], pos: &mut usize) -> DbResult<Vec<Vec<Value>>> {
    let count = u32_at(buf, pos)?;
    // Every row costs at least its width field: a corrupt count cannot
    // reserve more than the buffer could hold.
    let mut rows = Vec::with_capacity(count.min((buf.len() - *pos) / 4));
    for _ in 0..count {
        let width = u32_at(buf, pos)?;
        let mut row = Vec::with_capacity(width.min(buf.len() - *pos));
        for _ in 0..width {
            row.push(Value::decode(buf, pos)?);
        }
        rows.push(row);
    }
    Ok(rows)
}

/// The `u32` at `buf[*pos..]`, advancing `pos`.
fn u32_at(buf: &[u8], pos: &mut usize) -> DbResult<usize> {
    let n = Reader::new(buf.get(*pos..).unwrap_or_default()).u32()?;
    *pos += 4;
    Ok(n as usize)
}

#[cold]
fn bad_utf8() -> DbError {
    DbError::Storage("invalid utf8 in text value".into())
}

#[cold]
fn truncated(what: &str) -> DbError {
    DbError::Storage(format!("truncated {what}"))
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Text(s) => write!(f, "{s}"),
            Value::Bytes(b) => {
                for x in b {
                    write!(f, "{x:02x}")?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Value) {
        let mut buf = Vec::new();
        v.encode(&mut buf);
        assert_eq!(v.encoded_len(), buf.len());
        let mut pos = 0;
        assert_eq!(&Value::decode(&buf, &mut pos).unwrap(), v);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn encode_round_trips() {
        round_trip(&Value::Null);
        round_trip(&Value::Int(0));
        round_trip(&Value::Int(i64::MIN));
        round_trip(&Value::Int(i64::MAX));
        round_trip(&Value::Text(String::new()));
        round_trip(&Value::Text("O'Brien".into()));
        round_trip(&Value::Bytes(vec![0, 255, 1, 2]));
    }

    #[test]
    fn decode_rejects_truncation() {
        let mut buf = Vec::new();
        Value::Text("hello".into()).encode(&mut buf);
        for cut in 0..buf.len() {
            let mut pos = 0;
            assert!(Value::decode(&buf[..cut], &mut pos).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn read_ends_where_decode_ends() {
        for v in [
            Value::Null,
            Value::Int(-77),
            Value::Text("read me".into()),
            Value::Bytes(vec![9; 300]),
        ] {
            let mut buf = vec![0xAA];
            v.encode(&mut buf);
            let (read_back, end) = read(&buf, 1).unwrap();
            assert_eq!((read_back.to_value(), end), (v, buf.len()));
            for cut in 1..buf.len() {
                assert!(read(&buf[..cut], 1).is_err(), "cut {cut}");
            }
        }
    }

    #[test]
    fn row_blocks_round_trip_through_the_storage_encoding() {
        let rows = vec![
            vec![
                Value::Null,
                Value::Int(i64::MIN),
                Value::Text(String::new()),
                Value::Bytes(vec![]),
            ],
            vec![
                Value::Null,
                Value::Int(i64::MAX),
                Value::Text("bób — 東京".into()),
                Value::Bytes(vec![0, 255, 7]),
            ],
        ];
        for rows in [rows, vec![], vec![vec![]; 3]] {
            let block = RowBlock::from_rows(&rows);
            assert_eq!(block.len(), rows.len());
            assert_eq!(block.as_bytes().len(), rows_encoded_len(&rows));
            assert_eq!(block.decode(), Ok(rows));
        }
        assert_eq!(RowBlock::new(), RowBlock::from_rows(&[]));
    }

    #[test]
    fn a_truncated_row_block_is_a_typed_error() {
        let rows = vec![
            vec![Value::Int(-1), Value::Text("héllo".into())],
            vec![Value::Null, Value::Bytes(vec![1, 2, 3])],
        ];
        let full = RowBlock::from_rows(&rows);
        for cut in 0..full.bytes.len() {
            let short = RowBlock {
                bytes: full.bytes[..cut].to_vec(),
                rows: 2,
            };
            assert!(
                matches!(short.decode(), Err(DbError::Storage(_))),
                "cut {cut}"
            );
        }
        let mut long = full;
        long.bytes.push(0);
        assert!(matches!(long.decode(), Err(DbError::Storage(_))));
    }

    #[test]
    fn read_accepts_what_decode_accepts() {
        let mut bad_utf8 = Vec::new();
        Value::Bytes(vec![b'o', 0xFF, b'k']).encode(&mut bad_utf8);
        bad_utf8[0] = 2;
        let mut bad_tag = Vec::new();
        Value::Int(5).encode(&mut bad_tag);
        bad_tag[0] = 9;
        let mut ok = Vec::new();
        Value::Text("東京".into()).encode(&mut ok);
        for buf in [bad_utf8, bad_tag, ok.clone(), ok[..ok.len() - 1].to_vec()] {
            let (mut a, mut c) = (0, 0);
            let decoded = Value::decode(&buf, &mut a);
            let read = read(&buf, 0);
            let compared = Value::Text("x".into()).cmp_encoded(&buf, &mut c);
            assert_eq!(decoded.map(|_| a), read.clone().map(|r| r.1), "{buf:?}");
            assert_eq!(read.map(|r| r.1), compared.map(|_| c), "{buf:?}");
        }
    }

    #[test]
    fn sql_literals() {
        assert_eq!(Value::Int(-5).to_sql(), "-5");
        assert_eq!(Value::Text("a'b".into()).to_sql(), "'a''b'");
        assert_eq!(Value::Bytes(vec![0xAB, 0x01]).to_sql(), "X'ab01'");
        assert_eq!(Value::Null.to_sql(), "NULL");
    }

    #[test]
    fn null_comparisons_are_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
        assert_eq!(
            Value::Int(1).sql_cmp(&Value::Int(2)),
            Some(core::cmp::Ordering::Less)
        );
    }

    #[test]
    fn fits_types() {
        assert!(Value::Int(1).fits(ColumnType::Int));
        assert!(!Value::Int(1).fits(ColumnType::Text));
        assert!(Value::Null.fits(ColumnType::Int));
        assert!(Value::Null.fits(ColumnType::Bytes));
    }
}
