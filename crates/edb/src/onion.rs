//! CryptDB-style *adjustable onion encryption*.
//!
//! CryptDB stores each sensitive column at the strongest encryption that
//! still supports the queries seen so far: initially `RND(DET(value))` —
//! semantically secure — and when the first equality query arrives the
//! proxy *peels* the RND layer by sending the server a decryption key for
//! the outer layer, leaving DET ciphertexts that support `=` natively.
//!
//! Two §-relevant consequences, both reproduced here:
//!
//! * **Peeling is a write.** The layer adjustment rewrites every cell of
//!   the column (`UPDATE … SET col = <det ct>`), so the transaction logs
//!   record *when* each column was downgraded and what its DET ciphertexts
//!   are — a snapshot attacker learns the downgrade history even if the
//!   column was peeled back long ago.
//! * **Peeling is a ratchet.** The column never returns to RND, so one
//!   equality query permanently reduces the column to
//!   frequency-analysis-vulnerable DET — the "leakage inheritance" that
//!   §6 exploits via the at-rest histogram.

use std::collections::HashMap;

use edb_crypto::{det, rnd, Key};
use minidb::engine::{Connection, Db};
use minidb::value::Value;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::error::{hex_literal, EdbError, EdbResult};

/// The onion state of a column.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OnionLevel {
    /// `RND(DET(value))` — semantically secure, supports no predicates.
    Rnd,
    /// `DET(value)` — equality-searchable, leaks the histogram at rest.
    Det,
}

/// An onion-encrypted table with one sensitive text column.
pub struct OnionTable {
    conn: Connection,
    name: String,
    det_key: Key,
    rnd_key: Key,
    level: OnionLevel,
    rows: u64,
    rng: StdRng,
    /// Ratchet log: simulated time at which each peel happened.
    peel_log: Vec<i64>,
    /// Client-side cache of the inner DET cts (used to peel).
    det_cts: HashMap<u64, Vec<u8>>,
}

impl OnionTable {
    /// Creates the table: `id INT PRIMARY KEY, secret BYTES`.
    pub fn create(db: &Db, master: &Key, name: &str, rng_seed: u64) -> EdbResult<OnionTable> {
        let conn = db.connect("onion-proxy");
        conn.execute(&format!(
            "CREATE TABLE {name} (id INT PRIMARY KEY, secret BYTES)"
        ))?;
        Ok(OnionTable {
            conn,
            name: name.to_string(),
            det_key: Key::derive(master, &format!("{name}.det")),
            rnd_key: Key::derive(master, &format!("{name}.rnd")),
            level: OnionLevel::Rnd,
            rows: 0,
            rng: StdRng::seed_from_u64(rng_seed),
            peel_log: Vec::new(),
            det_cts: HashMap::new(),
        })
    }

    /// Current onion level.
    pub fn level(&self) -> OnionLevel {
        self.level
    }

    /// Times at which the column was downgraded.
    pub fn peel_log(&self) -> &[i64] {
        &self.peel_log
    }

    /// Inserts a row. At `Rnd` the stored cell is `RND(DET(value))`; after
    /// a peel, new rows are inserted directly at `DET`.
    pub fn insert(&mut self, value: &str) -> EdbResult<u64> {
        let id = self.rows;
        let inner = det::encrypt(&self.det_key, value.as_bytes());
        self.det_cts.insert(id, inner.clone());
        let cell = match self.level {
            OnionLevel::Rnd => rnd::encrypt(&self.rnd_key, &inner, &mut self.rng),
            OnionLevel::Det => inner,
        };
        self.conn.execute(&format!(
            "INSERT INTO {} VALUES ({id}, {})",
            self.name,
            hex_literal(&cell)
        ))?;
        self.rows += 1;
        Ok(id)
    }

    /// Peels the RND layer so equality predicates can run. Idempotent.
    /// Every cell is rewritten — one logged `UPDATE` per row, committed as
    /// one transaction (the adjustment CryptDB performs server-side with
    /// the delivered layer key; MiniDB has no in-server decrypt UDF, so
    /// the proxy writes the inner ciphertexts itself — the log footprint
    /// is the same).
    pub fn peel_to_det(&mut self) -> EdbResult<()> {
        if self.level == OnionLevel::Det {
            return Ok(());
        }
        self.conn.execute("BEGIN")?;
        for id in 0..self.rows {
            let inner = self.det_cts.get(&id).expect("client cache is complete");
            self.conn.execute(&format!(
                "UPDATE {} SET secret = {} WHERE id = {id}",
                self.name,
                hex_literal(inner)
            ))?;
        }
        self.conn.execute("COMMIT")?;
        self.level = OnionLevel::Det;
        self.peel_log.push(self.conn.db().now());
        // The downgrade itself is telemetry-visible: one ratchet event
        // and a burst of rewrites the size of the column.
        let telemetry = self.conn.db().telemetry();
        telemetry.counter("edb.onion.peel_downgrades").inc();
        telemetry.counter("edb.onion.peel_rewrites").add(self.rows);
        Ok(())
    }

    /// Runs `secret = value`, peeling first if required. Returns matching
    /// row ids.
    pub fn select_eq(&mut self, value: &str) -> EdbResult<Vec<u64>> {
        self.peel_to_det()?;
        let ct = det::encrypt(&self.det_key, value.as_bytes());
        let r = self.conn.execute(&format!(
            "SELECT id FROM {} WHERE secret = {}",
            self.name,
            hex_literal(&ct)
        ))?;
        Ok(r.rows
            .iter()
            .map(|row| match row[0] {
                Value::Int(i) => i as u64,
                _ => unreachable!("id column is INT"),
            })
            .collect())
    }

    /// Decrypts one row through the proxy (any level).
    pub fn read(&mut self, id: u64) -> EdbResult<String> {
        let r = self
            .conn
            .execute(&format!("SELECT secret FROM {} WHERE id = {id}", self.name))?;
        let Some(row) = r.rows.first() else {
            return Err(EdbError::Client(format!("row {id} not found")));
        };
        let Value::Bytes(cell) = &row[0] else {
            return Err(EdbError::Client("expected bytes cell".into()));
        };
        let inner = match self.level {
            OnionLevel::Rnd => rnd::decrypt(&self.rnd_key, cell)?,
            OnionLevel::Det => cell.clone(),
        };
        let plain = det::decrypt(&self.det_key, &inner)?;
        Ok(String::from_utf8_lossy(&plain).into_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minidb::engine::DbConfig;
    use minidb::wal::BINLOG_FILE;
    use snapshot_attack_helpers::*;

    /// Minimal local forensic helpers (the full ones live in the
    /// `snapshot-attack` crate, which depends on this one).
    mod snapshot_attack_helpers {
        use minidb::wal::{carve_frames, BinlogEvent};

        pub fn binlog_events(raw: &[u8]) -> Vec<BinlogEvent> {
            carve_frames(raw)
                .into_iter()
                .filter_map(|(_, p)| BinlogEvent::decode(p).ok())
                .collect()
        }
    }

    fn small_db() -> Db {
        let config = DbConfig {
            redo_capacity: 2 << 20,
            undo_capacity: 2 << 20,
            ..DbConfig::default()
        };
        Db::open(config)
    }

    fn load(t: &mut OnionTable) {
        for v in ["flu", "flu", "diabetes", "flu", "rare"] {
            t.insert(v).unwrap();
        }
    }

    #[test]
    fn rnd_level_hides_equality() {
        let db = small_db();
        let mut t = OnionTable::create(&db, &Key([1u8; 32]), "onions", 3).unwrap();
        load(&mut t);
        assert_eq!(t.level(), OnionLevel::Rnd);
        // At rest, all five cells are distinct (RND): no histogram.
        let conn = db.connect("attacker");
        let r = conn.execute("SELECT secret FROM onions").unwrap();
        let mut cells: Vec<&Value> = r.rows.iter().map(|row| &row[0]).collect();
        cells.sort();
        cells.dedup();
        assert_eq!(cells.len(), 5, "RND cells must all differ");
        // And reads still decrypt.
        assert_eq!(t.read(2).unwrap(), "diabetes");
    }

    #[test]
    fn equality_query_ratchets_to_det() {
        let db = small_db();
        let mut t = OnionTable::create(&db, &Key([2u8; 32]), "onions", 4).unwrap();
        load(&mut t);
        let hits = t.select_eq("flu").unwrap();
        assert_eq!(hits, vec![0, 1, 3]);
        assert_eq!(t.level(), OnionLevel::Det);
        // The ratchet: the at-rest histogram now leaks (3-1-1).
        let conn = db.connect("attacker");
        let r = conn.execute("SELECT secret FROM onions").unwrap();
        let mut counts = std::collections::HashMap::new();
        for row in &r.rows {
            *counts.entry(row[0].clone()).or_insert(0usize) += 1;
        }
        let mut hist: Vec<usize> = counts.values().copied().collect();
        hist.sort_unstable();
        assert_eq!(hist, vec![1, 1, 3]);
        // Reads still work, and later inserts go in at DET.
        assert_eq!(t.read(0).unwrap(), "flu");
        t.insert("flu").unwrap();
        assert_eq!(t.select_eq("flu").unwrap().len(), 4);
    }

    #[test]
    fn peel_is_idempotent() {
        let db = small_db();
        let mut t = OnionTable::create(&db, &Key([3u8; 32]), "onions", 5).unwrap();
        load(&mut t);
        t.peel_to_det().unwrap();
        let first_log = t.peel_log().to_vec();
        t.peel_to_det().unwrap();
        t.select_eq("rare").unwrap();
        assert_eq!(t.peel_log(), first_log.as_slice(), "only one peel event");
    }

    #[test]
    fn peeling_leaves_a_logged_write_burst() {
        let db = small_db();
        let mut t = OnionTable::create(&db, &Key([4u8; 32]), "onions", 6).unwrap();
        load(&mut t);
        let before = binlog_events(db.disk_image().file(BINLOG_FILE).unwrap()).len();
        t.select_eq("flu").unwrap();
        let events = binlog_events(db.disk_image().file(BINLOG_FILE).unwrap());
        let peels: Vec<_> = events[before..]
            .iter()
            .filter(|e| e.statement.starts_with("UPDATE onions SET secret"))
            .collect();
        assert_eq!(peels.len(), 5, "one rewrite per row, all in the logs");
        // All five share one transaction: the downgrade moment is datable.
        let txns: std::collections::BTreeSet<u64> = peels.iter().map(|e| e.txn).collect();
        assert_eq!(txns.len(), 1);
        // And the undo log still holds the *old RND cells* — the snapshot
        // attacker can even prove the column used to be RND.
        let undo =
            minidb::wal::carve_frames(db.disk_image().file(minidb::wal::UNDO_FILE).unwrap()).len();
        assert!(undo > 0);
    }
}
