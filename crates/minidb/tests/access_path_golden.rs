//! Golden access-path test: the leakage surfaces a fixed statement
//! stream leaves behind are part of the scan path's contract.
//!
//! The paper's point is that buffer-pool recency, access counters and
//! scan counters *are* the leak, so the executor may batch its work but
//! must account for it exactly as the row-at-a-time executor did. A
//! scan-path change that moves any expected value below has changed
//! what a snapshot attacker sees.
//!
//! What the stream leaves is rendered in two parts. The *statement*
//! part — rows examined and returned, errors, scan pages pruned and
//! decoded, and a hash of every answer except `EXPLAIN ANALYZE`'s, which
//! prints page attributes — depends on the access path chosen, not on
//! how many index pages it crosses. The *pool* part — hits, misses,
//! evictions, access counts, recency order, the adaptive hash index and
//! the dump — does. The dense B+ tree (append splits leave full leaves,
//! `storage/btree.rs`) moved only the second: the statement part below
//! was captured by running this file at its parent (`f791665`) and is
//! bit-equal here; the pool part is this commit's, with half as many
//! leaves under every key range (misses 5,591 → 3,634 with no
//! transaction).
//!
//! The stream runs in two variants ([`Stream`]). With no transaction
//! anywhere, the statement part is also what the parent of the
//! read-committed overlay left (PR 13, `72f28ca`): a read with nothing
//! uncommitted on its table takes that commit's path byte for byte.
//! With session `b` holding a transaction on `tag` open while `a` reads
//! `ev`, the values are the overlay's own — before it that read went
//! through a full scan and version walk — and `a`'s `ev` answers must not differ from the first variant's: a
//! transaction on another table is invisible to a read, in its rows and
//! in what it examined.

use minidb::engine::{Connection, Db, DbConfig};
use minidb::storage::DUMP_FILE;

mod common;
use common::{fnv, Rng};

const EV_ROWS: i64 = 3_000;
const TAG_ROWS: i64 = 1_200;

/// Whether session `b`'s statements run inside `BEGIN … COMMIT`.
#[derive(Clone, Copy, PartialEq)]
enum Stream {
    /// As written: `a` reads `ev` while `b` has an uncommitted write on
    /// `tag`.
    Mixed,
    /// The same statements with `b`'s `BEGIN` and `COMMIT` left out.
    NoTransaction,
}

/// What the stream's answers fold into.
#[derive(Default)]
struct Answers {
    rows_examined: u64,
    rows_returned: u64,
    text: String,
    /// `text` without the `EXPLAIN ANALYZE` answers, whose span trees
    /// print buffer-pool attributes.
    plain: String,
    /// The part of `text` that session `a`'s SELECTs on `ev` wrote.
    ev_reads: String,
}

impl Answers {
    fn run(&mut self, conn: &Connection, sql: &str) {
        use std::fmt::Write;
        let from = self.text.len();
        match conn.execute(sql) {
            Ok(r) => {
                self.rows_examined += r.rows_examined;
                self.rows_returned += r.rows.len() as u64;
                write!(
                    self.text,
                    "{:?}|{}|{};",
                    r.rows, r.rows_examined, r.rows_affected
                )
                .unwrap();
            }
            Err(e) => write!(self.text, "ERR {e};").unwrap(),
        }
        if !sql.starts_with("EXPLAIN ANALYZE") {
            self.plain.push_str(&self.text[from..]);
        }
    }

    /// [`Self::run`] for a SELECT on `ev` by session `a`.
    fn read_ev(&mut self, a: &Connection, sql: &str) {
        let from = self.text.len();
        self.run(a, sql);
        self.ev_reads.push_str(&self.text[from..]);
    }
}

fn load(conn: &Connection) {
    conn.execute("CREATE TABLE ev (id INT PRIMARY KEY, ts INT, grp INT, v TEXT)")
        .unwrap();
    conn.execute("CREATE TABLE tag (id INT PRIMARY KEY, k INT, note TEXT)")
        .unwrap();
    conn.execute("CREATE INDEX tag_k ON tag (k)").unwrap();
    for start in (0..EV_ROWS).step_by(100) {
        let values: Vec<String> = (start..start + 100)
            .map(|i| format!("({i}, {}, {}, 'payload-{i:08}')", 1_000 + i * 10, i % 15))
            .collect();
        conn.execute(&format!("INSERT INTO ev VALUES {}", values.join(", ")))
            .unwrap();
    }
    for start in (0..TAG_ROWS).step_by(100) {
        let values: Vec<String> = (start..start + 100)
            .map(|i| {
                let note = if i % 9 == 0 {
                    "NULL".to_string()
                } else {
                    format!("'n{}'", i % 7)
                };
                format!("({i}, {}, {note})", i % 17)
            })
            .collect();
        conn.execute(&format!("INSERT INTO tag VALUES {}", values.join(", ")))
            .unwrap();
    }
}

/// One statement of the measured stream. `a` runs autocommit; `b`
/// holds a transaction on `tag` open across one of `a`'s reads of `ev`
/// ([`Stream::Mixed`]).
fn step(
    stream: Stream,
    rng: &mut Rng,
    a: &Connection,
    b: &Connection,
    out: &mut Answers,
    next_id: &mut i64,
) {
    let id = rng.below(EV_ROWS as u64 - 200) as i64;
    match rng.below(20) {
        0..=3 => out.read_ev(
            a,
            &format!(
                "SELECT id, grp, v FROM ev WHERE id >= {id} AND id < {}",
                id + 150
            ),
        ),
        4..=5 => out.read_ev(
            a,
            &format!(
                "SELECT id, v FROM ev WHERE ts >= {} AND ts < {}",
                1_000 + id * 10,
                1_000 + (id + 120) * 10
            ),
        ),
        6 => out.read_ev(a, &format!("SELECT id, ts FROM ev WHERE grp = {}", id % 15)),
        7 => out.read_ev(
            a,
            &format!(
                "SELECT * FROM ev WHERE grp = {} AND ts > {} LIMIT 7",
                id % 15,
                id * 5
            ),
        ),
        8 => out.read_ev(
            a,
            &format!("SELECT id FROM ev WHERE id >= {id} LIMIT {}", id % 40),
        ),
        9..=10 => out.run(
            a,
            &format!(
                "SELECT id, note FROM tag WHERE k >= {} AND k <= {} AND note != 'n3'",
                id % 17,
                id % 17 + 2
            ),
        ),
        11 => out.run(
            a,
            &format!("SELECT COUNT(*) FROM tag WHERE k = {} LIMIT 30", id % 17),
        ),
        12 => out.run(
            a,
            &format!(
                "SELECT id, k FROM tag WHERE NOT (k < {} OR note = 'n1') ORDER BY k DESC LIMIT 25",
                id % 17
            ),
        ),
        13 => out.run(
            a,
            &format!(
                "UPDATE ev SET grp = {} WHERE id >= {id} AND id < {}",
                id % 15,
                id + 20
            ),
        ),
        14 => out.run(
            a,
            // A longer payload moves the rows off their pages, so later
            // index ranges stop visiting the heap in page order.
            &format!(
                "UPDATE ev SET v = 'moved-{id}-{}' WHERE ts >= {} AND ts < {}",
                "x".repeat((id % 30) as usize),
                1_000 + id * 10,
                1_000 + (id + 8) * 10
            ),
        ),
        15 => out.run(a, &format!("DELETE FROM ev WHERE id = {id}")),
        16 => {
            out.run(
                a,
                &format!(
                    "INSERT INTO ev VALUES ({}, {}, {}, 'late-{id}')",
                    *next_id,
                    1_000 + *next_id * 10,
                    *next_id % 15
                ),
            );
            *next_id += 1;
        }
        17 => {
            let in_txn = stream == Stream::Mixed;
            if in_txn {
                out.run(b, "BEGIN");
            }
            out.run(
                b,
                &format!(
                    "SELECT id, grp FROM ev WHERE id >= {id} AND id < {}",
                    id + 30
                ),
            );
            out.run(
                b,
                &format!("UPDATE tag SET note = 'txn' WHERE id = {}", id % TAG_ROWS),
            );
            // `b`'s write is to `tag`: `ev` has no uncommitted row, so
            // this is the read it would be with no transaction open, and
            // returns the first five in scan order. (The parent's detour
            // returned the first five by row id; both are valid.)
            out.read_ev(
                a,
                &format!("SELECT id FROM ev WHERE grp = {} LIMIT 5", id % 15),
            );
            if in_txn {
                out.run(b, "COMMIT");
            }
        }
        18 => out.run(
            a,
            &format!(
                "EXPLAIN ANALYZE SELECT id FROM ev WHERE ts >= {} AND ts < {}",
                id * 10,
                id * 10 + 900
            ),
        ),
        _ => out.run(
            a,
            &format!(
                "EXPLAIN ANALYZE SELECT id, note FROM tag WHERE k = {} AND id > {id}",
                id % 17
            ),
        ),
    }
}

/// What one run of the stream left behind.
struct Surfaces {
    /// What the statements did, whatever the index's page count.
    statements: String,
    /// What the buffer pool saw and kept.
    pool: String,
    /// Session `a`'s `ev` answers.
    ev_reads: String,
}

/// Runs the seeded stream and renders every surface it left.
fn run_stream(stream: Stream) -> Surfaces {
    let db = Db::open(DbConfig {
        buffer_pool_pages: 24,
        bufpool_shards: 4,
        bufpool_dump_interval: 64,
        ..DbConfig::default()
    });
    let a = db.connect("a");
    let b = db.connect("b");
    load(&a);
    let mut rng = Rng(0x5EED_0013);
    let mut out = Answers::default();
    let mut next_id = EV_ROWS;
    for _ in 0..400 {
        step(stream, &mut rng, &a, &b, &mut out, &mut next_id);
    }

    let mem = db.memory_image();
    let counter = |name: &str| mem.metrics.counter(name).unwrap_or(0);
    let shards: Vec<(u64, u64)> = (0..4)
        .map(|i| {
            (
                counter(&format!("bufpool.shard{i}.hits")),
                counter(&format!("bufpool.shard{i}.misses")),
            )
        })
        .collect();
    let dump = db
        .disk_image()
        .file(DUMP_FILE)
        .map(<[u8]>::to_vec)
        .unwrap_or_default();

    let statements = format!(
        "rows_examined={} rows_returned={} errors={} answers_without_explain={:016x}\n\
         pages_pruned={} pages_decoded={}",
        out.rows_examined,
        out.rows_returned,
        out.text.matches("ERR ").count(),
        fnv(out.plain.as_bytes()),
        counter("scan.pages_pruned"),
        counter("scan.pages_decoded"),
    );
    let pool = format!(
        "answers={:016x}\n\
         hits={} misses={} evictions={} shards={:?}\n\
         access_counts={:016x} lru_order={:016x} adaptive_hash={:016x} dump={:016x}",
        fnv(out.text.as_bytes()),
        counter("bufpool.hits"),
        counter("bufpool.misses"),
        counter("bufpool.evictions"),
        shards,
        fnv(format!("{:?}", mem.page_access_counts).as_bytes()),
        fnv(format!("{:?}", mem.cached_pages).as_bytes()),
        fnv(format!("{:?}", mem.adaptive_hash_keys).as_bytes()),
        fnv(String::from_utf8_lossy(&dump).as_bytes()),
    );
    Surfaces {
        statements,
        pool,
        ev_reads: out.ev_reads,
    }
}

#[test]
fn no_transaction_stream_leaves_the_parent_commits_access_path() {
    let got = run_stream(Stream::NoTransaction);
    assert_eq!(
        got.statements,
        "rows_examined=156858 rows_returned=30558 errors=0 \
         answers_without_explain=80a8d61795d45156\n\
         pages_pruned=757 pages_decoded=517"
    );
    assert_eq!(
        got.pool,
        "answers=d439274dbc846a05\n\
         hits=73458 misses=3634 evictions=3832 \
         shards=[(11384, 698), (19216, 1046), (23220, 974), (19638, 916)]\n\
         access_counts=4a3175f110b6789d lru_order=d06b920201dc90a0 \
         adaptive_hash=338289e8978009b2 dump=1ae241f7374fcde2"
    );
}

#[test]
fn transaction_on_another_table_is_invisible_to_a_read() {
    let got = run_stream(Stream::Mixed);
    // `b`'s own read of `ev` inside its transaction is a snapshot read
    // (a full scan and version walk, by design), which is what the pool
    // and scan counters have over the other variant's.
    assert_eq!(
        got.statements,
        "rows_examined=201374 rows_returned=30558 errors=0 \
         answers_without_explain=d18bd000583d06f7\n\
         pages_pruned=757 pages_decoded=697"
    );
    assert_eq!(
        got.pool,
        "answers=fffbab2c3a8ca3e1\n\
         hits=73079 misses=3676 evictions=3874 \
         shards=[(11335, 702), (19182, 1050), (23091, 1003), (19471, 921)]\n\
         access_counts=467d7865801ea51b lru_order=d06b920201dc90a0 \
         adaptive_hash=338289e8978009b2 dump=03bef85870bef913"
    );
    let without = run_stream(Stream::NoTransaction);
    assert!(
        got.ev_reads == without.ev_reads,
        "`a`'s ev answers changed because `b` had a transaction open on `tag`"
    );
}
