//! Row representation and byte-level encoding.
//!
//! Rows are encoded exactly once and the same bytes flow to pages, redo
//! records, and undo records — which is what lets the forensic parsers in
//! the `snapshot-attack` crate reconstruct full row images from raw log
//! bytes, as Frühwirt et al. do for InnoDB.

// Row images come from pages and log records: a bad one is a typed
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

use crate::error::{DbError, DbResult};
use crate::value::{self, RowBlock, Value, ValueRef};

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
        Self::decode_partial(buf, None)
    }

    /// Reads the `(id, column count)` header at the start of `buf`.
    pub fn decode_header(buf: &[u8]) -> DbResult<(RowId, usize)> {
        let id = buf
            .first_chunk::<8>()
            .ok_or_else(|| DbError::Storage("truncated row id".into()))?;
        let n = buf
            .get(8..)
            .and_then(<[u8]>::first_chunk::<2>)
            .ok_or_else(|| DbError::Storage("truncated column count".into()))?;
        Ok((u64::from_le_bytes(*id), u16::from_le_bytes(*n) as usize))
    }

    /// Decodes a row materializing only the columns flagged in `needed`
    /// (schema-ordinal indexed); every other column is checked as
    /// [`Row::decode`] checks it but left as [`Value::Null`]. `None`
    /// means all columns. Columns past `needed.len()` are left NULL.
    /// The projection-pushdown scan path uses this so `SELECT a FROM t`
    /// never allocates `t`'s TEXT/BYTES payloads.
    pub fn decode_partial(buf: &[u8], needed: Option<&[bool]>) -> DbResult<Row> {
        let (id, mut cells) = RowCursor::new(buf)?;
        let mut values = Vec::with_capacity(cells.left);
        while let Some(v) = cells.next()? {
            let wanted = needed.is_none_or(|m| m.get(values.len()) == Some(&true));
            values.push(if wanted { v.to_value() } else { Value::Null });
        }
        cells.finish()?;
        Ok(Row { id, values })
    }

    /// Appends the columns `proj` lists (schema ordinals, in that
    /// order, repeats allowed) of the encoded row `cell` to `block` as
    /// one row, copying their bytes without decoding them. The cell is
    /// read as [`Row::decode`] reads it, so a cell the rows would refuse
    /// is refused here too, as is a listed column the row does not
    /// have. `spans` is scratch reused across rows; a refused cell
    /// leaves `block` as it was.
    pub fn copy_columns(
        cell: &[u8],
        proj: &[usize],
        spans: &mut Vec<(usize, usize)>,
        block: &mut RowBlock,
    ) -> DbResult<()> {
        let (_, mut cells) = RowCursor::new(cell)?;
        let n = cells.left;
        spans.clear();
        // Every column costs at least its tag byte.
        spans.reserve(n.min(cell.len()));
        while cells.left > 0 {
            let start = cells.pos;
            cells.next()?;
            spans.push((start, cells.pos));
        }
        cells.finish()?;
        if let Some(&i) = proj.iter().find(|&&i| i >= n) {
            return Err(DbError::Storage(format!(
                "row of {n} columns has no column {i}"
            )));
        }
        block.push_row(proj.len());
        for &i in proj {
            // Every ordinal is below `n`, and every span lies in `cell`.
            let value = spans.get(i).and_then(|&(from, to)| cell.get(from..to));
            block.push_value(value.unwrap_or_default());
        }
        Ok(())
    }
}

/// A walk over an encoded row ([`Row::encode`]'s image): its header,
/// then each value through [`value::read`], then the check that the row
/// ends where the cell does: how a whole row cell is read.
struct RowCursor<'a> {
    cell: &'a [u8],
    /// Where the next value starts.
    pos: usize,
    /// Values the header claims that are not read yet.
    left: usize,
}

impl<'a> RowCursor<'a> {
    /// Reads the header of `cell`: the row id, and a cursor at the
    /// first value.
    #[inline(always)]
    fn new(cell: &'a [u8]) -> DbResult<(RowId, RowCursor<'a>)> {
        let (id, left) = Row::decode_header(cell)?;
        let pos = ROW_HEADER_LEN;
        Ok((id, RowCursor { cell, pos, left }))
    }

    /// The next value; `None` once every value the header claims is
    /// read.
    #[inline(always)]
    fn next(&mut self) -> DbResult<Option<ValueRef<'a>>> {
        if self.left == 0 {
            return Ok(None);
        }
        let (value, end) = value::read(self.cell, self.pos)?;
        self.pos = end;
        self.left -= 1;
        Ok(Some(value))
    }

    /// Reads the values left, then checks that the row ends where the
    /// cell does.
    #[inline(always)]
    fn finish(mut self) -> DbResult<()> {
        while self.next()?.is_some() {}
        if self.pos != self.cell.len() {
            return Err(trailing());
        }
        Ok(())
    }
}

#[cold]
fn trailing() -> DbError {
    DbError::Storage("trailing bytes after row".into())
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
    fn copy_columns_projects_without_decoding() {
        let row = Row {
            id: 42,
            values: vec![
                Value::Int(7),
                Value::Text("héllo".into()),
                Value::Null,
                Value::Bytes(vec![1, 2, 3]),
            ],
        };
        let bytes = row.encode();
        let (mut spans, mut block) = (Vec::new(), RowBlock::new());
        let proj = [3, 1, 1, 0];
        Row::copy_columns(&bytes, &proj, &mut spans, &mut block).unwrap();
        Row::copy_columns(&bytes, &[2], &mut spans, &mut block).unwrap();
        let want = [
            proj.iter().map(|&i| row.values[i].clone()).collect(),
            vec![Value::Null],
        ];
        assert_eq!(block, RowBlock::from_rows(&want));
    }

    #[test]
    fn copy_columns_refuses_what_decode_refuses() {
        let row = Row {
            id: 1,
            values: vec![Value::Int(5), Value::Text("ok".into())],
        };
        let good = row.encode();
        let mut bad_utf8 = good.clone();
        let last = bad_utf8.len() - 1;
        bad_utf8[last] = 0xFF;
        let mut trailing = good.clone();
        trailing.push(0);
        let cases: [(&[u8], &[usize]); 4] = [
            (&bad_utf8, &[0]),
            (&trailing, &[0]),
            (&good[..good.len() - 1], &[0]),
            // A column the row does not have.
            (&good, &[0, 2]),
        ];
        let (mut spans, mut block) = (Vec::new(), RowBlock::new());
        for (cell, proj) in cases {
            let got = Row::copy_columns(cell, proj, &mut spans, &mut block);
            assert!(matches!(got, Err(DbError::Storage(_))), "{cell:?} {proj:?}");
            assert!(Row::decode_partial(cell, None).is_err() || proj.contains(&2));
            assert_eq!(block, RowBlock::new(), "a refused cell adds nothing");
        }
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
