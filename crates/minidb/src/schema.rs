//! Table schemas.

use crate::error::{DbError, DbResult};
use crate::value::{ColumnType, Value};

/// Definition of one column.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name (stored lower-cased; SQL identifiers are
    /// case-insensitive in MiniDB).
    pub name: String,
    /// Column type.
    pub ty: ColumnType,
    /// Whether this column is the table's primary key.
    pub primary_key: bool,
}

/// Definition of one table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TableSchema {
    /// Table name (lower-cased).
    pub name: String,
    /// Columns in declaration order.
    pub columns: Vec<ColumnDef>,
}

impl TableSchema {
    /// Creates a schema, validating name uniqueness and key arity.
    pub fn new(name: &str, columns: Vec<ColumnDef>) -> DbResult<TableSchema> {
        if columns.is_empty() {
            return Err(DbError::Schema(format!("table {name} has no columns")));
        }
        let mut seen = std::collections::BTreeSet::new();
        for c in &columns {
            if !seen.insert(c.name.clone()) {
                return Err(DbError::Schema(format!(
                    "duplicate column {} in table {name}",
                    c.name
                )));
            }
        }
        if columns.iter().filter(|c| c.primary_key).count() > 1 {
            return Err(DbError::Schema(format!(
                "table {name} declares more than one primary key"
            )));
        }
        Ok(TableSchema {
            name: name.to_ascii_lowercase(),
            columns,
        })
    }

    /// Index of `column` in the row layout.
    pub fn column_index(&self, column: &str) -> DbResult<usize> {
        let lowered = column.to_ascii_lowercase();
        self.columns
            .iter()
            .position(|c| c.name == lowered)
            .ok_or(DbError::UnknownColumn(column.to_string()))
    }

    /// Index of the primary-key column, if one was declared.
    pub fn primary_key_index(&self) -> Option<usize> {
        self.columns.iter().position(|c| c.primary_key)
    }

    /// Validates that `values` is a well-typed full row for this schema.
    pub fn check_row(&self, values: &[Value]) -> DbResult<()> {
        if values.len() != self.columns.len() {
            return Err(DbError::Schema(format!(
                "table {} expects {} values, got {}",
                self.name,
                self.columns.len(),
                values.len()
            )));
        }
        for (v, c) in values.iter().zip(self.columns.iter()) {
            if !v.fits(c.ty) {
                return Err(DbError::Schema(format!(
                    "value {v:?} does not fit column {} of type {}",
                    c.name, c.ty
                )));
            }
            if c.primary_key && *v == Value::Null {
                return Err(DbError::Schema(format!(
                    "primary key {} must not be NULL",
                    c.name
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(name: &str, ty: ColumnType, pk: bool) -> ColumnDef {
        ColumnDef {
            name: name.into(),
            ty,
            primary_key: pk,
        }
    }

    #[test]
    fn valid_schema() {
        let s = TableSchema::new(
            "Customers",
            vec![
                col("id", ColumnType::Int, true),
                col("state", ColumnType::Text, false),
            ],
        )
        .unwrap();
        assert_eq!(s.name, "customers");
        assert_eq!(s.primary_key_index(), Some(0));
        assert_eq!(s.column_index("STATE").unwrap(), 1);
        assert!(s.column_index("zip").is_err());
    }

    #[test]
    fn rejects_duplicates_and_multi_pk() {
        assert!(TableSchema::new(
            "t",
            vec![
                col("a", ColumnType::Int, false),
                col("a", ColumnType::Int, false)
            ]
        )
        .is_err());
        assert!(TableSchema::new(
            "t",
            vec![
                col("a", ColumnType::Int, true),
                col("b", ColumnType::Int, true)
            ]
        )
        .is_err());
        assert!(TableSchema::new("t", vec![]).is_err());
    }

    #[test]
    fn row_checking() {
        let s = TableSchema::new(
            "t",
            vec![
                col("id", ColumnType::Int, true),
                col("name", ColumnType::Text, false),
            ],
        )
        .unwrap();
        assert!(s
            .check_row(&[Value::Int(1), Value::Text("x".into())])
            .is_ok());
        assert!(s.check_row(&[Value::Int(1), Value::Null]).is_ok());
        assert!(s.check_row(&[Value::Null, Value::Null]).is_err(), "NULL pk");
        assert!(s.check_row(&[Value::Int(1)]).is_err(), "arity");
        assert!(s
            .check_row(&[Value::Text("no".into()), Value::Text("x".into())])
            .is_err());
    }
}
