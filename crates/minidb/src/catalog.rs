//! The catalog: the one registry of tables. Each entry holds a table's
//! definition (schema and index definitions, persisted on the virtual
//! disk so DDL survives crashes) beside its open storage: the heap and
//! the B+ trees.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

use mdb_trace::codec::{put_str16, put_u16, put_u32, Reader};

use crate::error::{DbError, DbResult};
use crate::schema::{ColumnDef, TableSchema};
use crate::storage::btree::BTree;
use crate::storage::table::TableHeap;
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

/// One table's persisted definition.
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

/// One table: its definition and its open storage.
pub(crate) struct Table {
    /// The definition. A statement holds a handle to it across engine
    /// calls instead of a copy; DDL is its only writer.
    pub(crate) def: Arc<TableDef>,
    /// The heap.
    pub(crate) heap: TableHeap,
    /// One tree per index, parallel to `def.indexes`.
    pub(crate) btrees: Vec<BTree>,
}

/// The catalog: every table by name, and the next table id. Table names
/// are case-insensitive: the map is keyed by the schema's lower-case name,
/// and every lookup folds the name it is given.
#[derive(Default)]
pub struct Catalog {
    tables: BTreeMap<String, Table>,
    next_table_id: u32,
}

/// `name` as the map keys it. Borrowed unless `name` has an upper-case
/// letter, so the lower-case names the parser produces cost no copy.
fn key(name: &str) -> Cow<'_, str> {
    if name.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(name.to_ascii_lowercase())
    } else {
        Cow::Borrowed(name)
    }
}

impl Catalog {
    /// Looks up a table.
    pub(crate) fn get(&self, name: &str) -> DbResult<&Table> {
        self.tables
            .get(key(name).as_ref())
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))
    }

    /// Looks up a table for a change to its storage.
    pub(crate) fn get_mut(&mut self, name: &str) -> DbResult<&mut Table> {
        self.tables
            .get_mut(key(name).as_ref())
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))
    }

    /// Whether a table of this name exists.
    pub(crate) fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(key(name).as_ref())
    }

    /// Looks up a table by its id.
    pub(crate) fn get_by_id(&self, id: u32) -> Option<&Table> {
        self.tables.values().find(|t| t.def.id == id)
    }

    /// Every table, in name order.
    pub(crate) fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.values()
    }

    /// Allocates a table id. Ids are never reused, so a re-created name
    /// gets a fresh one.
    pub(crate) fn alloc_id(&mut self) -> u32 {
        let id = self.next_table_id.max(1);
        self.next_table_id = id + 1;
        id
    }

    /// Registers a table under its schema's (lower-case) name.
    pub(crate) fn insert(&mut self, table: Table) {
        self.tables.insert(table.def.schema.name.clone(), table);
    }

    /// Unregisters a table, handing back its storage.
    pub(crate) fn remove(&mut self, name: &str) -> DbResult<Table> {
        self.tables
            .remove(key(name).as_ref())
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))
    }

    /// Serializes and writes the table definitions to disk.
    pub fn persist(&self, vdisk: &mut VDisk) {
        let defs = self.tables.values().map(|t| t.def.as_ref());
        vdisk.write(CATALOG_FILE, encode(self.next_table_id, defs));
    }

    /// Loads the catalog from disk (empty if the file is absent), opening
    /// each table's heap and trees with `open`, in name order.
    pub(crate) fn load(
        vdisk: &mut VDisk,
        mut open: impl FnMut(&mut VDisk, &TableDef) -> DbResult<(TableHeap, Vec<BTree>)>,
    ) -> DbResult<Catalog> {
        let (next_table_id, defs) = match vdisk.read(CATALOG_FILE) {
            Some(buf) => decode(buf)?,
            None => (0, Vec::new()),
        };
        let mut catalog = Catalog {
            tables: BTreeMap::new(),
            next_table_id,
        };
        for def in defs {
            let (heap, btrees) = open(vdisk, &def)?;
            catalog.insert(Table {
                def: Arc::new(def),
                heap,
                btrees,
            });
        }
        Ok(catalog)
    }
}

/// The catalog file's bytes.
fn encode<'a>(next_table_id: u32, defs: impl ExactSizeIterator<Item = &'a TableDef>) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, next_table_id);
    put_u32(&mut out, defs.len() as u32);
    for t in defs {
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
    out
}

/// Parses the catalog file: the next table id and the definitions.
fn decode(buf: &[u8]) -> DbResult<(u32, Vec<TableDef>)> {
    let mut r = Reader::new(buf);
    let next_table_id = r.u32()?;
    let n_tables = r.u32()? as usize;
    let mut defs = Vec::new();
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
            if column_idx >= n_cols {
                return Err(DbError::Storage(format!(
                    "index {iname} on column {column_idx} of a {n_cols}-column table"
                )));
            }
            indexes.push(IndexDef {
                name: iname,
                file: ifile,
                column_idx,
            });
        }
        defs.push(TableDef {
            id,
            schema: TableSchema::new(&name, columns)?,
            file,
            indexes,
        });
    }
    Ok((next_table_id, defs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::shardpool::ShardedBufferPool;

    fn sample() -> TableDef {
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
        TableDef {
            id: 1,
            schema,
            file: "table_customers.ibd".into(),
            indexes: vec![IndexDef {
                name: "pk_customers".into(),
                file: "index_customers_id.ibd".into(),
                column_idx: 0,
            }],
        }
    }

    /// Loads `vd`'s catalog with every table on a fresh empty heap.
    fn load(vd: &mut VDisk) -> DbResult<Catalog> {
        let pool = ShardedBufferPool::new(8, 1);
        Catalog::load(vd, |vd, def| {
            Ok((TableHeap::create(&pool, vd, &def.file)?, Vec::new()))
        })
    }

    #[test]
    fn persist_load_round_trip() {
        let bytes = encode(2, [&sample()].into_iter());
        assert_eq!(decode(&bytes).unwrap(), (2, vec![sample()]));
        let mut vd = VDisk::new();
        vd.write(CATALOG_FILE, bytes.clone());
        let cat = load(&mut vd).unwrap();
        assert_eq!(*cat.get("customers").unwrap().def, sample());
        cat.persist(&mut vd);
        assert_eq!(vd.read(CATALOG_FILE).unwrap(), bytes);
    }

    #[test]
    fn missing_file_is_empty_catalog() {
        let loaded = load(&mut VDisk::new()).unwrap();
        assert!(loaded.tables().next().is_none());
    }

    #[test]
    fn truncated_catalog_rejected() {
        let bytes = encode(2, [&sample()].into_iter());
        for cut in 1..bytes.len() {
            let mut vd2 = VDisk::new();
            vd2.write(CATALOG_FILE, bytes[..cut].to_vec());
            assert!(load(&mut vd2).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn lookups() {
        let mut vd = VDisk::new();
        vd.write(CATALOG_FILE, encode(2, [&sample()].into_iter()));
        let mut cat = load(&mut vd).unwrap();
        assert!(cat.get("customers").is_ok());
        assert!(cat.get("CUSTOMERS").is_ok());
        assert!(cat.get("nope").is_err());
        assert_eq!(cat.get_by_id(1).unwrap().def.schema.name, "customers");
        assert!(cat.get_by_id(99).is_none());
        assert_eq!(cat.alloc_id(), 2, "ids continue from the persisted counter");
        assert!(cat.contains("Customers"));
        assert!(cat.remove("Customers").is_ok());
        assert!(cat.get("customers").is_err());
    }
}
