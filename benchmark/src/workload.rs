//! The five workloads: engine configuration, seeded initial data, and
//! the per-connection statement generators with the model they keep of
//! what the database must hold once every statement is acknowledged.
//!
//! Every input is a function of `--seed` alone. Each connection draws
//! from its own generator and writes only keys of its own partition, so
//! a connection's statement stream does not depend on how the two
//! connections interleave, and the final table is the union of the two
//! models however long each connection ran.

use std::collections::HashMap;

use corpus::zipf::Zipf;
use minidb::value::Value;
use minidb::DbConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Closed-loop client connections, one generator thread each. Two
/// callers that wait for their reply on a two-core sandbox.
pub const CONNECTIONS: usize = 2;

/// Rows per `INSERT` statement of the load phase.
const LOAD_BATCH: u64 = 100;

/// Rows a range or group query of `range_scan_cold` returns.
const RANGE_ROWS: i64 = 200;

/// Both balances of a `txn_mvcc` pair start here, so a pair always sums
/// to twice this.
const INITIAL_BAL: i64 = 1000;

/// The log key every node of the hardened fleet shares.
const WAL_KEY: [u8; 32] = [0xB7; 32];

/// Text every `acct.memo` value starts with: the plaintext window the
/// leakage gate hunts for in the hardened fleet's logs.
pub const MEMO_MARKER: &str = "memo-";

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Zipf point reads on a table that fits the buffer pool.
    PointReadHot,
    /// Range and full scans on a table four times the buffer pool.
    RangeScanCold,
    /// Replicated OLTP mix, seed configuration.
    OltpReplSeed,
    /// The same statement stream with every mitigation on.
    OltpReplHardened,
    /// Transfers, point reads and read-only transactions on one node.
    TxnMvcc,
}

/// Every workload, in report order.
pub const ALL: [Workload; 5] = [
    Workload::PointReadHot,
    Workload::RangeScanCold,
    Workload::OltpReplSeed,
    Workload::OltpReplHardened,
    Workload::TxnMvcc,
];

impl Workload {
    /// The name `--workload` takes and `BENCHMARK.json` lists.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PointReadHot => "point_read_hot",
            Workload::RangeScanCold => "range_scan_cold",
            Workload::OltpReplSeed => "oltp_repl_seed",
            Workload::OltpReplHardened => "oltp_repl_hardened",
            Workload::TxnMvcc => "txn_mvcc",
        }
    }

    /// Parses a `--workload` value.
    pub fn from_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs a primary with two replicas.
    pub fn replicated(self) -> bool {
        matches!(self, Workload::OltpReplSeed | Workload::OltpReplHardened)
    }

    /// Whether the measured phase writes.
    pub fn writes(self) -> bool {
        self.replicated() || self == Workload::TxnMvcc
    }

    /// Engine configuration. `fsync_latency_us` stays 0 everywhere, so
    /// no number here measures how simulated sleeps overlap.
    pub fn config(self) -> DbConfig {
        match self {
            // Every mitigation the engine ships, as one preset, until
            // the engine itself has one (`LeakagePolicy::hardened()`).
            Workload::OltpReplHardened => DbConfig {
                encrypted_wal: true,
                wal_key: Some(WAL_KEY),
                group_commit: true,
                scrub_before_images: true,
                heap_secure_delete: true,
                telemetry_scrub_on_flush: true,
                trace_id_hashing: true,
                query_cache_enabled: false,
                zone_maps_enabled: false,
                ..DbConfig::default()
            },
            _ => DbConfig::default(),
        }
    }

    /// The log key of [`Workload::config`], when it seals its logs.
    pub fn wal_key(self) -> Option<[u8; 32]> {
        self.config().wal_key
    }

    /// The one table the workload uses.
    pub fn table(self) -> &'static str {
        match self {
            Workload::PointReadHot => "kv",
            Workload::RangeScanCold => "ev",
            _ => "acct",
        }
    }

    /// Rows loaded before the measured phase. `kv` with its primary-key
    /// B+ tree (16 keys to a leaf page after sequential inserts) fits
    /// the 256-page pool; the heap of `ev` alone is four times it.
    pub fn rows(self, smoke: bool) -> u64 {
        let full = match self {
            Workload::PointReadHot => 2_500,
            Workload::RangeScanCold => 200_000,
            Workload::OltpReplSeed | Workload::OltpReplHardened => 20_000,
            Workload::TxnMvcc => 10_000,
        };
        match (smoke, self) {
            (false, _) => full,
            // Still larger than the pool, so scans still fault.
            (true, Workload::RangeScanCold) => 80_000,
            (true, _) => full / 10,
        }
    }

    fn create_table(self) -> &'static str {
        match self {
            Workload::PointReadHot => "CREATE TABLE kv (id INT PRIMARY KEY, v INT)",
            Workload::RangeScanCold => {
                "CREATE TABLE ev (id INT PRIMARY KEY, ts INT, grp INT, v TEXT)"
            }
            Workload::OltpReplSeed | Workload::OltpReplHardened => {
                "CREATE TABLE acct (id INT PRIMARY KEY, bal INT, memo TEXT)"
            }
            Workload::TxnMvcc => "CREATE TABLE acct (id INT PRIMARY KEY, bal INT)",
        }
    }

    /// Row `id` as the load phase inserts it.
    pub fn initial_row(self, seed: u64, rows: u64, id: i64) -> Vec<Value> {
        let h = mix(seed, id as u64);
        match self {
            Workload::PointReadHot => vec![Value::Int(id), Value::Int((h % 1_000_000) as i64)],
            Workload::RangeScanCold => vec![
                Value::Int(id),
                Value::Int(ts_of(id)),
                Value::Int(id % groups(rows)),
                Value::Text(format!("payload-{id:010}-{h:016x}")),
            ],
            Workload::OltpReplSeed | Workload::OltpReplHardened => vec![
                Value::Int(id),
                Value::Int((h % 10_000) as i64),
                Value::Text(format!("{MEMO_MARKER}{id}-0")),
            ],
            Workload::TxnMvcc => vec![Value::Int(id), Value::Int(INITIAL_BAL)],
        }
    }

    /// The load phase: `CREATE TABLE`, then the rows in 100-row
    /// `INSERT`s.
    pub fn load_statements(self, seed: u64, smoke: bool) -> impl Iterator<Item = String> {
        let rows = self.rows(smoke);
        let inserts = (0..rows).step_by(LOAD_BATCH as usize).map(move |start| {
            let mut sql = format!("INSERT INTO {} VALUES ", self.table());
            for id in start..(start + LOAD_BATCH).min(rows) {
                if id > start {
                    sql.push_str(", ");
                }
                push_tuple(&mut sql, &self.initial_row(seed, rows, id as i64));
            }
            sql
        });
        std::iter::once(self.create_table().to_string()).chain(inserts)
    }
}

/// SplitMix64 of `seed ^ x`: the seeded hash every generated value
/// comes from.
pub fn mix(seed: u64, x: u64) -> u64 {
    let mut z = (seed ^ x.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `ev.ts` rises with `ev.id`, so per-page zone maps on the un-indexed
/// column can prune a `ts` range to the pages that hold it.
fn ts_of(id: i64) -> i64 {
    1_500_000_000 + 2 * id
}

/// Distinct `ev.grp` values: `grp = x` matches [`RANGE_ROWS`] rows
/// spread over every page, which no zone map can prune.
fn groups(rows: u64) -> i64 {
    rows as i64 / RANGE_ROWS
}

fn push_tuple(sql: &mut String, row: &[Value]) {
    sql.push('(');
    for (i, v) in row.iter().enumerate() {
        if i > 0 {
            sql.push_str(", ");
        }
        match v {
            Value::Int(n) => sql.push_str(&n.to_string()),
            Value::Text(t) => {
                sql.push('\'');
                sql.push_str(t);
                sql.push('\'');
            }
            other => unreachable!("the benchmark generates only INT and TEXT, not {other:?}"),
        }
    }
    sql.push(')');
}

/// Bytes of user data in a row: 8 per integer, the length of a text.
fn row_bytes(row: &[Value]) -> u64 {
    row.iter()
        .map(|v| match v {
            Value::Text(t) => t.len() as u64,
            _ => 8,
        })
        .sum()
}

/// User bytes the load phase inserts.
pub fn load_user_bytes(workload: Workload, seed: u64, smoke: bool) -> u64 {
    let rows = workload.rows(smoke);
    (0..rows as i64)
        .map(|id| row_bytes(&workload.initial_row(seed, rows, id)))
        .sum()
}

/// What a statement's result must look like.
#[derive(Clone, Debug, PartialEq)]
pub enum Check {
    /// `BEGIN` / `COMMIT`: any successful result.
    Done,
    /// DML: this many rows affected.
    Affected(u64),
    /// Exactly this row, or no row at all.
    Row(Option<Vec<Value>>),
    /// Exactly one row, whatever it holds (the other connection owns
    /// the key and may be changing it).
    One,
    /// At most one row (the other connection may have deleted the key).
    AtMostOne,
    /// This many rows whose first column sums to `sum`.
    CountSum {
        /// Expected row count.
        rows: u64,
        /// Expected sum of the first column.
        sum: i64,
    },
}

/// What a client sees as one operation, for the per-kind latencies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One autocommit `SELECT`.
    Read,
    /// One autocommit `INSERT` / `UPDATE` / `DELETE`.
    Write,
    /// `BEGIN` … `COMMIT`.
    Txn,
}

/// One statement and the check on its result.
#[derive(Clone, Debug)]
pub struct Stmt {
    /// Statement text.
    pub sql: String,
    /// Expected result.
    pub check: Check,
}

/// Statements one connection sends back to back.
#[derive(Clone, Debug)]
pub struct Unit {
    /// Operation kind.
    pub kind: Kind,
    /// The statements, in order.
    pub stmts: Vec<Stmt>,
    /// User bytes the unit writes once acknowledged.
    pub user_bytes: u64,
    /// For a read-only transaction over an account pair: what the
    /// first columns of its `SELECT`s must sum to.
    pub pair_sum: Option<i64>,
}

impl Unit {
    fn one(kind: Kind, sql: String, check: Check, user_bytes: u64) -> Unit {
        Unit {
            kind,
            stmts: vec![Stmt { sql, check }],
            user_bytes,
            pair_sum: None,
        }
    }
}

/// Rows one connection owns, with O(1) uniform choice among them.
struct Partition {
    rows: HashMap<i64, Vec<Value>>,
    keys: Vec<i64>,
}

/// One connection's statement generator and its model.
pub struct Generator {
    workload: Workload,
    seed: u64,
    conn: usize,
    rows: u64,
    rng: StdRng,
    zipf: Option<Zipf>,
    /// Rows this connection owns (write workloads only).
    own: Partition,
    /// Next id this connection inserts.
    next_insert: i64,
    /// Statements generated so far; versions the memo texts.
    counter: u64,
}

impl Generator {
    /// The generator of connection `conn` (0 or 1).
    pub fn new(workload: Workload, seed: u64, smoke: bool, conn: usize) -> Generator {
        let rows = workload.rows(smoke);
        let mut seed_bytes = [0u8; 32];
        seed_bytes[..8].copy_from_slice(&seed.to_le_bytes());
        seed_bytes[8..16].copy_from_slice(&(conn as u64 + 1).to_le_bytes());
        seed_bytes[16..24].copy_from_slice(&mix(seed, conn as u64).to_le_bytes());
        let mut own = Partition {
            rows: HashMap::new(),
            keys: Vec::new(),
        };
        if workload.writes() {
            for id in (0..rows as i64).filter(|id| owner(workload, rows, *id) == conn) {
                own.rows.insert(id, workload.initial_row(seed, rows, id));
                own.keys.push(id);
            }
        }
        Generator {
            workload,
            seed,
            conn,
            rows,
            rng: StdRng::from_seed(seed_bytes),
            zipf: (workload == Workload::PointReadHot).then(|| Zipf::new(rows as usize, 1.0)),
            own,
            next_insert: rows as i64 + conn as i64,
            counter: 0,
        }
    }

    /// The rows this connection owns, as the database must hold them
    /// once everything generated so far is acknowledged.
    pub fn into_model(self) -> HashMap<i64, Vec<Value>> {
        self.own.rows
    }

    /// Generates the next unit and applies it to the model.
    pub fn next_unit(&mut self) -> Unit {
        self.counter += 1;
        match self.workload {
            Workload::PointReadHot => self.point_read(),
            Workload::RangeScanCold => self.range_scan(),
            Workload::OltpReplSeed | Workload::OltpReplHardened => self.oltp(),
            Workload::TxnMvcc => self.txn(),
        }
    }

    fn point_read(&mut self) -> Unit {
        let rank = self
            .zipf
            .as_ref()
            .expect("built in new")
            .sample(&mut self.rng) as u64;
        // 7919 is prime and shares no factor with the row count, so this
        // spreads the hot ranks over the table's pages.
        let id = (rank * 7919 % self.rows) as i64;
        let row = self.workload.initial_row(self.seed, self.rows, id);
        Unit::one(
            Kind::Read,
            format!("SELECT v FROM kv WHERE id = {id}"),
            Check::Row(Some(vec![row[1].clone()])),
            0,
        )
    }

    fn range_scan(&mut self) -> Unit {
        let pick = self.rng.gen_range(0..100u32);
        let first = self.rng.gen_range(0..self.rows as i64 - RANGE_ROWS);
        let range_sum = RANGE_ROWS * first + RANGE_ROWS * (RANGE_ROWS - 1) / 2;
        let (sql, sum) = if pick < 70 {
            (
                format!(
                    "SELECT id, grp, v FROM ev WHERE id >= {first} AND id < {}",
                    first + RANGE_ROWS
                ),
                range_sum,
            )
        } else if pick < 98 {
            (
                format!(
                    "SELECT id, grp, v FROM ev WHERE ts >= {} AND ts < {}",
                    ts_of(first),
                    ts_of(first + RANGE_ROWS)
                ),
                range_sum,
            )
        } else {
            let groups = groups(self.rows);
            let g = first % groups;
            (
                format!("SELECT id, grp, v FROM ev WHERE grp = {g}"),
                RANGE_ROWS * g + groups * RANGE_ROWS * (RANGE_ROWS - 1) / 2,
            )
        };
        Unit::one(
            Kind::Read,
            sql,
            Check::CountSum {
                rows: RANGE_ROWS as u64,
                sum,
            },
            0,
        )
    }

    fn oltp(&mut self) -> Unit {
        let pick = self.rng.gen_range(0..100u32);
        if pick < 40 {
            let id = self.rng.gen_range(0..self.next_insert);
            let check = if owner(self.workload, self.rows, id) == self.conn {
                Check::Row(self.own.rows.get(&id).map(|r| r[1..].to_vec()))
            } else {
                Check::AtMostOne
            };
            return Unit::one(
                Kind::Read,
                format!("SELECT bal, memo FROM acct WHERE id = {id}"),
                check,
                0,
            );
        }
        let bal = self.rng.gen_range(0..10_000i64);
        let memo = format!("{MEMO_MARKER}{}-{}", self.conn, self.counter);
        if pick < 70 && !self.own.keys.is_empty() {
            let id = self.own.keys[self.rng.gen_range(0..self.own.keys.len())];
            let row = vec![Value::Int(id), Value::Int(bal), Value::Text(memo.clone())];
            let bytes = row_bytes(&row);
            self.own.rows.insert(id, row);
            Unit::one(
                Kind::Write,
                format!("UPDATE acct SET bal = {bal}, memo = '{memo}' WHERE id = {id}"),
                Check::Affected(1),
                bytes,
            )
        } else if pick < 92 || self.own.keys.is_empty() {
            let id = self.next_insert;
            self.next_insert += CONNECTIONS as i64;
            let row = vec![Value::Int(id), Value::Int(bal), Value::Text(memo.clone())];
            let bytes = row_bytes(&row);
            self.own.rows.insert(id, row);
            self.own.keys.push(id);
            Unit::one(
                Kind::Write,
                format!("INSERT INTO acct VALUES ({id}, {bal}, '{memo}')"),
                Check::Affected(1),
                bytes,
            )
        } else {
            let at = self.rng.gen_range(0..self.own.keys.len());
            let id = self.own.keys.swap_remove(at);
            self.own.rows.remove(&id);
            // A delete writes its key.
            Unit::one(
                Kind::Write,
                format!("DELETE FROM acct WHERE id = {id}"),
                Check::Affected(1),
                8,
            )
        }
    }

    fn txn(&mut self) -> Unit {
        let pairs = self.rows as i64 / 2;
        let pick = self.rng.gen_range(0..100u32);
        let select = |id: i64| format!("SELECT bal FROM acct WHERE id = {id}");
        if pick < 50 {
            // A transfer inside one of this connection's own pairs, with
            // the new balances taken from the model.
            let pair = self.rng.gen_range(0..pairs / CONNECTIONS as i64) * CONNECTIONS as i64
                + self.conn as i64;
            let amount = self.rng.gen_range(1..=100i64);
            let mut stmts = vec![Stmt {
                sql: "BEGIN".into(),
                check: Check::Done,
            }];
            for (id, delta) in [(pair, -amount), (pair + pairs, amount)] {
                let row = self.own.rows.get_mut(&id).expect("own pair is loaded");
                let Value::Int(bal) = row[1] else {
                    unreachable!("acct.bal is INT")
                };
                row[1] = Value::Int(bal + delta);
                stmts.push(Stmt {
                    sql: format!("UPDATE acct SET bal = {} WHERE id = {id}", bal + delta),
                    check: Check::Affected(1),
                });
            }
            stmts.push(Stmt {
                sql: "COMMIT".into(),
                check: Check::Done,
            });
            Unit {
                kind: Kind::Txn,
                stmts,
                user_bytes: 32,
                pair_sum: None,
            }
        } else if pick < 80 {
            let id = self.rng.gen_range(0..2 * pairs);
            let check = match self.own.rows.get(&id) {
                Some(row) => Check::Row(Some(row[1..].to_vec())),
                None => Check::One,
            };
            Unit::one(Kind::Read, select(id), check, 0)
        } else {
            let pair = self.rng.gen_range(0..pairs);
            let stmt = |sql: String, check| Stmt { sql, check };
            Unit {
                kind: Kind::Txn,
                stmts: vec![
                    stmt("BEGIN".into(), Check::Done),
                    stmt(select(pair), Check::One),
                    stmt(select(pair + pairs), Check::One),
                    stmt("COMMIT".into(), Check::Done),
                ],
                user_bytes: 0,
                pair_sum: Some(2 * INITIAL_BAL),
            }
        }
    }
}

/// Which connection may write row `id`.
fn owner(workload: Workload, rows: u64, id: i64) -> usize {
    let key = match workload {
        // Both accounts of a pair belong to one connection.
        Workload::TxnMvcc => id % (rows as i64 / 2),
        _ => id,
    };
    key as usize % CONNECTIONS
}

/// The two connections' streams interleaved unit by unit: the order the
/// single-threaded replay runs and [`stream_hash`] covers.
pub struct Interleaved {
    gens: Vec<Generator>,
    turn: usize,
}

impl Interleaved {
    /// Fresh generators for every connection.
    pub fn new(workload: Workload, seed: u64, smoke: bool) -> Interleaved {
        Interleaved {
            gens: (0..CONNECTIONS)
                .map(|c| Generator::new(workload, seed, smoke, c))
                .collect(),
            turn: 0,
        }
    }

    /// The next unit and the connection it belongs to.
    pub fn next_unit(&mut self) -> (usize, Unit) {
        let conn = self.turn % CONNECTIONS;
        self.turn += 1;
        (conn, self.gens[conn].next_unit())
    }
}

/// Statements [`stream_hash`] covers.
const HASHED_STATEMENTS: usize = 10_000;

/// FNV-1a over the load statements and the first statements of the
/// interleaved stream, folded to 32 bits so it survives a trip through
/// a JSON number. Same seed, same inputs, same hash.
pub fn stream_hash(workload: Workload, seed: u64, smoke: bool) -> u32 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |sql: &str| {
        for b in sql.bytes().chain(std::iter::once(b'\n')) {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    workload.load_statements(seed, smoke).for_each(|s| eat(&s));
    let mut stream = Interleaved::new(workload, seed, smoke);
    let mut hashed = 0;
    while hashed < HASHED_STATEMENTS {
        let (_, unit) = stream.next_unit();
        for s in &unit.stmts {
            eat(&s.sql);
        }
        hashed += unit.stmts.len();
    }
    (h >> 32) as u32 ^ h as u32
}

/// The rows the table must hold at the end of a run.
pub enum Expected {
    /// Nothing wrote: the loaded rows.
    Initial {
        /// Workload whose load phase defines the rows.
        workload: Workload,
        /// Run seed.
        seed: u64,
        /// Loaded row count.
        rows: u64,
    },
    /// The union of the connections' models.
    Model(HashMap<i64, Vec<Value>>),
}

impl Expected {
    /// Number of rows expected.
    pub fn len(&self) -> usize {
        match self {
            Expected::Initial { rows, .. } => *rows as usize,
            Expected::Model(m) => m.len(),
        }
    }

    /// Whether no row is expected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `row` is exactly what the table must hold under its key.
    pub fn matches(&self, row: &[Value]) -> bool {
        let Some(Value::Int(id)) = row.first() else {
            return false;
        };
        match self {
            Expected::Initial {
                workload,
                seed,
                rows,
            } => (0..*rows as i64).contains(id) && workload.initial_row(*seed, *rows, *id) == row,
            Expected::Model(m) => m.get(id).is_some_and(|r| r == row),
        }
    }
}
