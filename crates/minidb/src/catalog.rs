//! The catalog: table schemas and index definitions, persisted on the
//! virtual disk so DDL survives crashes.

use std::collections::BTreeMap;

use mdb_trace::codec::{put_str16, put_u16, put_u32, Reader};

use crate::error::{DbError, DbResult};
use crate::schema::{ColumnDef, TableSchema};
use crate::value::ColumnType;
use crate::vdisk::VDisk;

/// On-disk catalog file name.
pub const CATALOG_FILE: &str = "catalog";

/// One index definition. The B+ tree lives in `file` with its root at
/// page 0 (roots are stable in [`crate::storage::BTree`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IndexDef {
    /// Index name.
    pub name: String,
    /// Index file on disk.
    pub file: String,
    /// Index of the keyed column in the table schema.
    pub column_idx: usize,
}

/// One table's catalog entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TableDef {
    /// Catalog-assigned table id (stable, used in WAL records).
    pub id: u32,
    /// Schema.
    pub schema: TableSchema,
    /// Heap file on disk.
    pub file: String,
    /// Secondary + primary-key indexes.
    pub indexes: Vec<IndexDef>,
}

/// The full catalog.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Catalog {
    /// Tables by (lower-cased) name.
    pub tables: BTreeMap<String, TableDef>,
    /// Next table id.
    pub next_table_id: u32,
}

impl Catalog {
    /// Looks up a table.
    pub fn get(&self, name: &str) -> DbResult<&TableDef> {
        self.tables
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))
    }

    /// Looks up a table by its id.
    pub fn get_by_id(&self, id: u32) -> Option<&TableDef> {
        self.tables.values().find(|t| t.id == id)
    }

    /// Serializes and writes the catalog to disk.
    pub fn persist(&self, vdisk: &mut VDisk) {
        let mut out = Vec::new();
        put_u32(&mut out, self.next_table_id);
        put_u32(&mut out, self.tables.len() as u32);
        for t in self.tables.values() {
            put_str16(&mut out, &t.schema.name);
            put_u32(&mut out, t.id);
            put_str16(&mut out, &t.file);
            put_u16(&mut out, t.schema.columns.len() as u16);
            for c in &t.schema.columns {
                put_str16(&mut out, &c.name);
                out.push(match c.ty {
                    ColumnType::Int => 1,
                    ColumnType::Text => 2,
                    ColumnType::Bytes => 3,
                });
                out.push(c.primary_key as u8);
            }
            put_u16(&mut out, t.indexes.len() as u16);
            for ix in &t.indexes {
                put_str16(&mut out, &ix.name);
                put_str16(&mut out, &ix.file);
                put_u16(&mut out, ix.column_idx as u16);
            }
        }
        vdisk.write(CATALOG_FILE, out);
    }

    /// Loads the catalog from disk (empty catalog if the file is absent).
    pub fn load(vdisk: &VDisk) -> DbResult<Catalog> {
        let Some(buf) = vdisk.read(CATALOG_FILE) else {
            return Ok(Catalog::default());
        };
        let mut r = Reader::new(buf);
        let next_table_id = r.u32()?;
        let n_tables = r.u32()? as usize;
        let mut tables = BTreeMap::new();
        for _ in 0..n_tables {
            let name = r.str16()?;
            let id = r.u32()?;
            let file = r.str16()?;
            let n_cols = r.u16()? as usize;
            let mut columns = Vec::with_capacity(n_cols);
            for _ in 0..n_cols {
                let cname = r.str16()?;
                let ty = match r.u8()? {
                    1 => ColumnType::Int,
                    2 => ColumnType::Text,
                    3 => ColumnType::Bytes,
                    t => return Err(DbError::Storage(format!("bad column type tag {t}"))),
                };
                let pk = r.u8()? != 0;
                columns.push(ColumnDef {
                    name: cname,
                    ty,
                    primary_key: pk,
                });
            }
            let n_idx = r.u16()? as usize;
            let mut indexes = Vec::with_capacity(n_idx);
            for _ in 0..n_idx {
                let iname = r.str16()?;
                let ifile = r.str16()?;
                let column_idx = r.u16()? as usize;
                indexes.push(IndexDef {
                    name: iname,
                    file: ifile,
                    column_idx,
                });
            }
            let schema = TableSchema::new(&name, columns)?;
            tables.insert(
                name.clone(),
                TableDef {
                    id,
                    schema,
                    file,
                    indexes,
                },
            );
        }
        Ok(Catalog {
            tables,
            next_table_id,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Catalog {
        let schema = TableSchema::new(
            "customers",
            vec![
                ColumnDef {
                    name: "id".into(),
                    ty: ColumnType::Int,
                    primary_key: true,
                },
                ColumnDef {
                    name: "state".into(),
                    ty: ColumnType::Text,
                    primary_key: false,
                },
            ],
        )
        .unwrap();
        let mut tables = BTreeMap::new();
        tables.insert(
            "customers".to_string(),
            TableDef {
                id: 1,
                schema,
                file: "table_customers.ibd".into(),
                indexes: vec![IndexDef {
                    name: "pk_customers".into(),
                    file: "index_customers_id.ibd".into(),
                    column_idx: 0,
                }],
            },
        );
        Catalog {
            tables,
            next_table_id: 2,
        }
    }

    #[test]
    fn persist_load_round_trip() {
        let cat = sample();
        let mut vd = VDisk::new();
        cat.persist(&mut vd);
        let loaded = Catalog::load(&vd).unwrap();
        assert_eq!(loaded, cat);
    }

    #[test]
    fn missing_file_is_empty_catalog() {
        let vd = VDisk::new();
        let loaded = Catalog::load(&vd).unwrap();
        assert!(loaded.tables.is_empty());
    }

    #[test]
    fn truncated_catalog_rejected() {
        let cat = sample();
        let mut vd = VDisk::new();
        cat.persist(&mut vd);
        let bytes = vd.read(CATALOG_FILE).unwrap().to_vec();
        for cut in 1..bytes.len() {
            let mut vd2 = VDisk::new();
            vd2.write(CATALOG_FILE, bytes[..cut].to_vec());
            assert!(Catalog::load(&vd2).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn lookups() {
        let cat = sample();
        assert!(cat.get("customers").is_ok());
        assert!(cat.get("CUSTOMERS").is_ok());
        assert!(cat.get("nope").is_err());
        assert_eq!(cat.get_by_id(1).unwrap().schema.name, "customers");
        assert!(cat.get_by_id(99).is_none());
    }
}
