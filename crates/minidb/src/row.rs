//! Row representation and byte-level encoding.
//!
//! Rows are encoded exactly once and the same bytes flow to pages, redo
//! records, and undo records — which is what lets the forensic parsers in
//! the `snapshot-attack` crate reconstruct full row images from raw log
//! bytes, as Frühwirt et al. do for InnoDB.

use crate::error::{DbError, DbResult};
use crate::value::Value;

/// A row id: stable identity of a row within its table, independent of the
/// primary key (InnoDB's implicit `DB_ROW_ID` analogue).
pub type RowId = u64;

/// Bytes of the `(id u64, column count u16)` header every encoded row
/// starts with; the first value's tag follows.
pub const ROW_HEADER_LEN: usize = 10;

/// A materialized row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row {
    /// Stable row identity.
    pub id: RowId,
    /// Column values in schema order.
    pub values: Vec<Value>,
}

impl Row {
    /// Encodes the row (id, column count, then each value).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.values.len() * 8);
        out.extend_from_slice(&self.id.to_le_bytes());
        out.extend_from_slice(&(self.values.len() as u16).to_le_bytes());
        for v in &self.values {
            v.encode(&mut out);
        }
        out
    }

    /// Decodes a row from the byte image produced by [`Row::encode`].
    pub fn decode(buf: &[u8]) -> DbResult<Row> {
        let mut pos = 0;
        let row = Self::decode_at(buf, &mut pos)?;
        if pos != buf.len() {
            return Err(DbError::Storage("trailing bytes after row".into()));
        }
        Ok(row)
    }

    /// Reads the `(id, column count)` header at the start of `buf`.
    pub fn decode_header(buf: &[u8]) -> DbResult<(RowId, usize)> {
        let id = buf
            .first_chunk::<8>()
            .ok_or_else(|| DbError::Storage("truncated row id".into()))?;
        let n = buf[8..]
            .first_chunk::<2>()
            .ok_or_else(|| DbError::Storage("truncated column count".into()))?;
        Ok((u64::from_le_bytes(*id), u16::from_le_bytes(*n) as usize))
    }

    /// Decodes a row starting at `buf[*pos..]`, advancing `pos`.
    pub fn decode_at(buf: &[u8], pos: &mut usize) -> DbResult<Row> {
        let (id, n) = Self::decode_header(buf.get(*pos..).unwrap_or_default())?;
        *pos += ROW_HEADER_LEN;
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            values.push(Value::decode(buf, pos)?);
        }
        Ok(Row { id, values })
    }

    /// Decodes a row materializing only the columns flagged in `needed`
    /// (schema-ordinal indexed); every other column is byte-skipped and
    /// left as [`Value::Null`]. `None` means all columns. Columns past
    /// `needed.len()` are skipped. The projection-pushdown scan path uses
    /// this so `SELECT a FROM t` never allocates `t`'s TEXT/BYTES
    /// payloads.
    pub fn decode_partial(buf: &[u8], needed: Option<&[bool]>) -> DbResult<Row> {
        let Some(needed) = needed else {
            return Self::decode(buf);
        };
        let (id, n) = Self::decode_header(buf)?;
        let mut pos = ROW_HEADER_LEN;
        let mut values = Vec::with_capacity(n);
        for i in 0..n {
            if needed.get(i).copied().unwrap_or(false) {
                values.push(Value::decode(buf, &mut pos)?);
            } else {
                Value::skip(buf, &mut pos)?;
                values.push(Value::Null);
            }
        }
        if pos != buf.len() {
            return Err(DbError::Storage("trailing bytes after row".into()));
        }
        Ok(Row { id, values })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let row = Row {
            id: 42,
            values: vec![
                Value::Int(7),
                Value::Text("abc".into()),
                Value::Null,
                Value::Bytes(vec![1, 2, 3]),
            ],
        };
        assert_eq!(Row::decode(&row.encode()).unwrap(), row);
    }

    #[test]
    fn decode_partial_materializes_only_needed_columns() {
        let row = Row {
            id: 42,
            values: vec![
                Value::Int(7),
                Value::Text("expensive payload".into()),
                Value::Int(-3),
                Value::Bytes(vec![1, 2, 3]),
            ],
        };
        let bytes = row.encode();
        let got = Row::decode_partial(&bytes, Some(&[true, false, true, false])).unwrap();
        assert_eq!(got.id, 42);
        assert_eq!(
            got.values,
            vec![Value::Int(7), Value::Null, Value::Int(-3), Value::Null]
        );
        // None mask == full decode; short mask skips the tail.
        assert_eq!(Row::decode_partial(&bytes, None).unwrap(), row);
        let head = Row::decode_partial(&bytes, Some(&[true])).unwrap();
        assert_eq!(head.values[0], Value::Int(7));
        assert_eq!(head.values[3], Value::Null);
    }

    #[test]
    fn rejects_trailing_garbage() {
        let row = Row {
            id: 1,
            values: vec![Value::Int(1)],
        };
        let mut bytes = row.encode();
        bytes.push(0xFF);
        assert!(Row::decode(&bytes).is_err());
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let row = Row {
            id: 9,
            values: vec![Value::Text("hello world".into()), Value::Int(-1)],
        };
        let bytes = row.encode();
        for cut in 0..bytes.len() {
            assert!(Row::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }
}
