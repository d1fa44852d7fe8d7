//! A Seabed-style encrypted analytics table: SPLASHE-split categorical
//! columns with ASHE aggregation, plus the enhanced variant.
//!
//! The client rewrites `SELECT count(*) FROM t WHERE a = v` into
//! `SELECT ASHE_SUM(c_<v>) FROM t` — the server sums one opaque column
//! and learns nothing *from the data*. Enhanced SPLASHE keeps dedicated
//! columns only for frequent values; infrequent values share a DET "tail"
//! column, padded with dummy rows so every tail value appears equally
//! often at rest.
//!
//! The §6 failure: each rewritten query names its column in plain SQL, so
//! the DBMS digest table accumulates an exact *query histogram per
//! plaintext value*, and frequency analysis does the rest.

use edb_crypto::feistel::SmallPrp;
use edb_crypto::splashe::{SplasheColumn, SplasheConfig};
use edb_crypto::{kdf, Key};
use minidb::engine::{Connection, Db};
use minidb::value::Value;

use crate::error::{hex_literal, EdbError, EdbResult};

/// Operating mode.
#[derive(Clone, Debug)]
pub enum SeabedMode {
    /// Basic SPLASHE: every domain value gets a dedicated column.
    Basic,
    /// Enhanced SPLASHE: `frequent` values get dedicated columns; the rest
    /// live in a padded DET tail. Each tail value is padded with dummy
    /// rows up to `pad_each_to` apparent occurrences.
    Enhanced {
        /// Values with dedicated columns.
        frequent: Vec<u32>,
        /// Padding target per tail value.
        pad_each_to: u64,
    },
}

/// One Seabed-protected table with a single sensitive categorical column.
pub struct SeabedTable {
    conn: Connection,
    name: String,
    column: SplasheColumn,
    /// Secret value→column-label permutation: the server must not learn a
    /// column's plaintext from its *name*, only the client knows the map.
    label_prp: SmallPrp,
    mode: SeabedMode,
    domain: u32,
    /// Ids of real (non-padding) rows, in insertion order.
    real_rows: u64,
    /// All row ids ever inserted (real + padding).
    all_rows: u64,
    /// True per-tail-value padding counts (client-side bookkeeping).
    tail_padding: std::collections::BTreeMap<u32, u64>,
}

impl SeabedTable {
    /// Creates the encrypted table. `domain` is the size of the sensitive
    /// column's plaintext domain (values `0..domain`).
    pub fn create(
        db: &Db,
        master: &Key,
        name: &str,
        domain: u32,
        mode: SeabedMode,
    ) -> EdbResult<SeabedTable> {
        let config = match &mode {
            SeabedMode::Basic => SplasheConfig::basic(domain),
            SeabedMode::Enhanced { frequent, .. } => {
                SplasheConfig::enhanced(domain, frequent.clone())?
            }
        };
        let column = SplasheColumn::new(master, &format!("{name}.a"), config);
        let label_prp = SmallPrp::new(
            &kdf::derive_key(&master.0, format!("{name}.labels").as_bytes()),
            domain as u64,
        );
        let conn = db.connect("seabed-proxy");
        let mut cols = vec!["id INT PRIMARY KEY".to_string()];
        for &v in &column.config().dedicated {
            cols.push(format!("c{} INT", label_prp.permute(v as u64)));
        }
        if matches!(mode, SeabedMode::Enhanced { .. }) {
            cols.push("tail BYTES".to_string());
        }
        conn.execute(&format!("CREATE TABLE {name} ({})", cols.join(", ")))?;
        Ok(SeabedTable {
            conn,
            name: name.to_string(),
            column,
            label_prp,
            mode,
            domain,
            real_rows: 0,
            all_rows: 0,
            tail_padding: Default::default(),
        })
    }

    /// Inserts one row whose sensitive value is `value`.
    pub fn insert(&mut self, value: u32) -> EdbResult<()> {
        if value >= self.domain {
            return Err(EdbError::Client(format!("value {value} outside domain")));
        }
        let id = self.all_rows;
        let cell = self.column.encode(id, value)?;
        let mut literals = vec![id.to_string()];
        for ashe in &cell.ashe_cells {
            literals.push((ashe.body as i64).to_string());
        }
        if matches!(self.mode, SeabedMode::Enhanced { .. }) {
            match &cell.det_tail {
                Some(ct) => literals.push(hex_literal(ct)),
                None => literals.push("NULL".to_string()),
            }
        }
        self.conn.execute(&format!(
            "INSERT INTO {} VALUES ({})",
            self.name,
            literals.join(", ")
        ))?;
        self.all_rows += 1;
        self.real_rows += 1;
        Ok(())
    }

    /// Pads the tail (enhanced mode): adds dummy rows so every non-
    /// dedicated value reaches the configured apparent count. Call once
    /// after loading real data.
    pub fn pad_tail(&mut self) -> EdbResult<()> {
        let SeabedMode::Enhanced { pad_each_to, .. } = self.mode.clone() else {
            return Ok(());
        };
        for v in 0..self.domain {
            if self.column.config().is_dedicated(v) {
                continue;
            }
            // Count existing apparent occurrences of v in the tail.
            let ct = self.column.tail_padding_cell(v);
            let r = self.conn.execute(&format!(
                "SELECT COUNT(*) FROM {} WHERE tail = {}",
                self.name,
                hex_literal(&ct)
            ))?;
            let existing = match r.rows[0][0] {
                Value::Int(n) => n as u64,
                _ => 0,
            };
            for _ in existing..pad_each_to {
                let id = self.all_rows;
                // Dummy rows carry ASHE(0) in every dedicated column so
                // they never perturb dedicated counts.
                let cell = self.column.encode(id, v)?;
                let mut literals = vec![id.to_string()];
                for ashe in &cell.ashe_cells {
                    literals.push((ashe.body as i64).to_string());
                }
                literals.push(hex_literal(cell.det_tail.as_ref().expect("tail value")));
                self.conn.execute(&format!(
                    "INSERT INTO {} VALUES ({})",
                    self.name,
                    literals.join(", ")
                ))?;
                self.all_rows += 1;
                *self.tail_padding.entry(v).or_insert(0) += 1;
            }
        }
        Ok(())
    }

    /// The rewritten SQL for `count(a = value)` — exposed so experiments
    /// can inspect what the DBMS sees (and digests).
    pub fn rewrite_count(&self, value: u32) -> EdbResult<String> {
        if self.column.config().is_dedicated(value) {
            let label = self.label_prp.permute(value as u64);
            Ok(format!("SELECT ASHE_SUM(c{label}) FROM {}", self.name))
        } else {
            let ct = self.column.tail_padding_cell(value);
            Ok(format!(
                "SELECT COUNT(*) FROM {} WHERE tail = {}",
                self.name,
                hex_literal(&ct)
            ))
        }
    }

    /// Runs `SELECT count(*) WHERE a = value` through the rewriting.
    pub fn count_eq(&mut self, value: u32) -> EdbResult<u64> {
        if value >= self.domain {
            return Err(EdbError::Client(format!("value {value} outside domain")));
        }
        let sql = self.rewrite_count(value)?;
        let r = self.conn.execute(&sql)?;
        let raw = match r.rows[0][0] {
            Value::Int(n) => n as u64,
            _ => return Err(EdbError::Client("unexpected aggregate type".into())),
        };
        if self.column.config().is_dedicated(value) {
            Ok(self.column.decrypt_count(value, 0..self.all_rows, raw)?)
        } else {
            // Tail counts include padding; the client subtracts it.
            let pad = self.tail_padding.get(&value).copied().unwrap_or(0);
            Ok(raw - pad)
        }
    }

    /// Oracle accessor (ground truth for experiments): the plaintext value
    /// behind a dedicated column label, i.e. the inverse of the secret
    /// permutation. A real attacker does not have this.
    pub fn oracle_value_of_label(&self, label: u32) -> u32 {
        self.label_prp.invert(label as u64) as u32
    }

    /// The DET tail ciphertext for `value` (oracle/test accessor).
    pub fn oracle_tail_ct(&self, value: u32) -> Vec<u8> {
        self.column.tail_padding_cell(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minidb::engine::DbConfig;

    fn load(t: &mut SeabedTable, values: &[u32]) {
        for &v in values {
            t.insert(v).unwrap();
        }
    }

    #[test]
    fn basic_counts_match_plaintext() {
        let db = Db::open(DbConfig::default());
        let mut t =
            SeabedTable::create(&db, &Key([1u8; 32]), "sales", 5, SeabedMode::Basic).unwrap();
        let values = [0u32, 1, 1, 2, 2, 2, 4];
        load(&mut t, &values);
        for v in 0..5 {
            let expect = values.iter().filter(|&&x| x == v).count() as u64;
            assert_eq!(t.count_eq(v).unwrap(), expect, "value {v}");
        }
    }

    #[test]
    fn server_stores_only_opaque_numbers() {
        let db = Db::open(DbConfig::default());
        let mut t =
            SeabedTable::create(&db, &Key([2u8; 32]), "sales", 3, SeabedMode::Basic).unwrap();
        load(&mut t, &[0, 0, 1, 2]);
        // The raw column sums are ASHE-padded: they are not the counts.
        let conn = db.connect("attacker");
        let r = conn.execute("SELECT ASHE_SUM(c0) FROM sales").unwrap();
        let Value::Int(raw) = r.rows[0][0] else {
            panic!()
        };
        assert_ne!(raw, 2, "raw ASHE sum must not equal the plaintext count");
    }

    #[test]
    fn enhanced_mode_counts_and_padding() {
        let db = Db::open(DbConfig::default());
        let mut t = SeabedTable::create(
            &db,
            &Key([3u8; 32]),
            "sales",
            6,
            SeabedMode::Enhanced {
                frequent: vec![0, 1],
                pad_each_to: 5,
            },
        )
        .unwrap();
        // Frequent: 0 (x4), 1 (x3). Infrequent: 3 (x2), 5 (x1).
        load(&mut t, &[0, 0, 0, 0, 1, 1, 1, 3, 3, 5]);
        t.pad_tail().unwrap();
        assert_eq!(t.count_eq(0).unwrap(), 4);
        assert_eq!(t.count_eq(1).unwrap(), 3);
        assert_eq!(t.count_eq(3).unwrap(), 2);
        assert_eq!(t.count_eq(5).unwrap(), 1);
        assert_eq!(t.count_eq(2).unwrap(), 0);
        // At rest, every tail value appears exactly pad_each_to times.
        let conn = db.connect("attacker");
        for v in [2u32, 3, 4, 5] {
            let ct = t.column.tail_padding_cell(v);
            let r = conn
                .execute(&format!(
                    "SELECT COUNT(*) FROM sales WHERE tail = {}",
                    hex_literal(&ct)
                ))
                .unwrap();
            assert_eq!(r.rows[0][0], Value::Int(5), "tail value {v} not padded");
        }
    }

    #[test]
    fn rewrite_names_the_column() {
        let db = Db::open(DbConfig::default());
        let t = SeabedTable::create(&db, &Key([4u8; 32]), "s", 4, SeabedMode::Basic).unwrap();
        let sql = t.rewrite_count(2).unwrap();
        assert!(
            sql.starts_with("SELECT ASHE_SUM(c") && sql.ends_with(" FROM s"),
            "{sql}"
        );
        // The column label must not trivially reveal the value for every
        // value (the map is a secret permutation)...
        let labels: Vec<String> = (0..4).map(|v| t.rewrite_count(v).unwrap()).collect();
        assert!(
            (0..4).any(|v| labels[v as usize] != format!("SELECT ASHE_SUM(c{v}) FROM s")),
            "permutation must not be the identity: {labels:?}"
        );
        // ...but distinct values → distinct SQL → distinct digests. That
        // is the leak the digest table will aggregate.
        assert_ne!(t.rewrite_count(1).unwrap(), t.rewrite_count(2).unwrap());
    }

    #[test]
    fn out_of_domain_rejected() {
        let db = Db::open(DbConfig::default());
        let mut t = SeabedTable::create(&db, &Key([5u8; 32]), "s", 2, SeabedMode::Basic).unwrap();
        assert!(t.insert(2).is_err());
        assert!(t.count_eq(2).is_err());
    }
}
