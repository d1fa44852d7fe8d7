//! Model checking the engine: arbitrary sequences of DML, transactions,
//! crashes, and recoveries, cross-checked against a plain `BTreeMap`
//! model at every step — first from the one session that writes, then
//! from two more that only read beside it (read-committed, and a pinned
//! snapshot).

use std::collections::BTreeMap;

use minidb::engine::{Connection, Db, DbConfig};
use minidb::value::Value;
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    Insert { key: i64, val: i64 },
    Update { key: i64, val: i64 },
    Delete { key: i64 },
    Begin,
    Commit,
    Rollback,
    CrashRecover,
    Checkpoint,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (0i64..40, any::<i64>()).prop_map(|(key, val)| Op::Insert { key, val }),
        3 => (0i64..40, any::<i64>()).prop_map(|(key, val)| Op::Update { key, val }),
        2 => (0i64..40).prop_map(|key| Op::Delete { key }),
        1 => Just(Op::Begin),
        1 => Just(Op::Commit),
        1 => Just(Op::Rollback),
        1 => Just(Op::CrashRecover),
        1 => Just(Op::Checkpoint),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn engine_matches_btreemap_model(ops in proptest::collection::vec(arb_op(), 1..60)) {
        let config = DbConfig {
            redo_capacity: 256 * 1024,
            undo_capacity: 256 * 1024,
            ..DbConfig::default()
        };
        let db = Db::open(config);
        let mut conn = db.connect("model");
        conn.execute("CREATE TABLE m (k INT PRIMARY KEY, v INT)").unwrap();

        // Committed state and the in-transaction overlay.
        let mut committed: BTreeMap<i64, i64> = BTreeMap::new();
        let mut overlay: Option<BTreeMap<i64, i64>> = None;

        for op in &ops {
            let state = overlay.as_mut().unwrap_or(&mut committed);
            match op {
                Op::Insert { key, val } => {
                    let r = conn.execute(&format!("INSERT INTO m VALUES ({key}, {val})"));
                    if state.contains_key(key) {
                        prop_assert!(r.is_err(), "duplicate pk {key} must fail");
                    } else {
                        prop_assert!(r.is_ok(), "{r:?}");
                        state.insert(*key, *val);
                    }
                }
                Op::Update { key, val } => {
                    let r = conn
                        .execute(&format!("UPDATE m SET v = {val} WHERE k = {key}"))
                        .unwrap();
                    let expect = u64::from(state.contains_key(key));
                    prop_assert_eq!(r.rows_affected, expect);
                    if state.contains_key(key) {
                        state.insert(*key, *val);
                    }
                }
                Op::Delete { key } => {
                    let r = conn
                        .execute(&format!("DELETE FROM m WHERE k = {key}"))
                        .unwrap();
                    prop_assert_eq!(r.rows_affected, u64::from(state.remove(key).is_some()));
                }
                Op::Begin => {
                    if overlay.is_none() {
                        conn.execute("BEGIN").unwrap();
                        overlay = Some(committed.clone());
                    }
                }
                Op::Commit => {
                    if let Some(o) = overlay.take() {
                        conn.execute("COMMIT").unwrap();
                        committed = o;
                    }
                }
                Op::Rollback => {
                    if overlay.take().is_some() {
                        conn.execute("ROLLBACK").unwrap();
                    }
                }
                Op::CrashRecover => {
                    // Crash discards any open transaction.
                    overlay = None;
                    db.crash();
                    db.recover().unwrap();
                    conn = db.connect("model");
                }
                Op::Checkpoint => {
                    db.shutdown(); // Flush + checkpoint; engine stays usable.
                }
            }
        }
        // Final audit: engine contents equal the model (committed view if
        // a txn is still open is the overlay — the connection's view).
        let view = overlay.as_ref().unwrap_or(&committed);
        let r = conn.execute("SELECT k, v FROM m ORDER BY k").unwrap();
        let got: Vec<(i64, i64)> = r
            .rows
            .iter()
            .map(|row| match (&row[0], &row[1]) {
                (Value::Int(k), Value::Int(v)) => (*k, *v),
                other => panic!("{other:?}"),
            })
            .collect();
        let want: Vec<(i64, i64)> = view.iter().map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(got, want);
        // And one more crash/recover must preserve the *committed* state.
        db.crash();
        db.recover().unwrap();
        let conn = db.connect("audit");
        let r = conn.execute("SELECT k, v FROM m ORDER BY k").unwrap();
        let got: Vec<(i64, i64)> = r
            .rows
            .iter()
            .map(|row| match (&row[0], &row[1]) {
                (Value::Int(k), Value::Int(v)) => (*k, *v),
                other => panic!("{other:?}"),
            })
            .collect();
        let want: Vec<(i64, i64)> = committed.iter().map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(got, want);
    }
}

// ================= three sessions =================
//
// A writer works on `m` in and out of transactions while `n` stays
// idle. After each of its steps a read-committed session and a snapshot
// session run random SELECTs on both tables: the first must see exactly
// the committed model, the second the committed model as of its BEGIN.

/// Rows loaded into `m` before the writer starts: `PAD`-wide, so the
/// table spans several pages, with `v` rising with `k`, so zone maps on
/// the un-indexed column have something to prune.
const M_ROWS: i64 = 240;
const N_ROWS: i64 = 50;
const PAD: usize = 180;

type Model = BTreeMap<i64, i64>;

/// The writer's keys: 40 of them, spread over every page of `m`, the
/// last five not loaded — few enough that one transaction often writes
/// the same row twice.
fn arb_key() -> impl Strategy<Value = i64> {
    (0i64..40).prop_map(|i| i * 7)
}

#[derive(Clone, Debug)]
enum Write {
    Insert {
        key: i64,
        val: i64,
    },
    Update {
        key: i64,
        val: i64,
    },
    /// Two UPDATEs of one row back to back: inside a transaction the
    /// second archives the transaction's own first image.
    UpdateTwice {
        key: i64,
        first: i64,
        val: i64,
    },
    UpdateRange {
        lo: i64,
        width: i64,
        val: i64,
    },
    Delete {
        key: i64,
    },
    Begin,
    Commit,
    Rollback,
}

fn arb_write() -> impl Strategy<Value = Write> {
    let val = || 0i64..70;
    prop_oneof![
        3 => (arb_key(), val()).prop_map(|(key, val)| Write::Insert { key, val }),
        4 => (arb_key(), val()).prop_map(|(key, val)| Write::Update { key, val }),
        2 => (arb_key(), val(), val())
            .prop_map(|(key, first, val)| Write::UpdateTwice { key, first, val }),
        1 => (0i64..280, 1i64..30, val())
            .prop_map(|(lo, width, val)| Write::UpdateRange { lo, width, val }),
        3 => arb_key().prop_map(|key| Write::Delete { key }),
        3 => Just(Write::Begin),
        2 => Just(Write::Commit),
        2 => Just(Write::Rollback),
    ]
}

#[derive(Clone, Debug)]
enum Filter {
    None,
    PkPoint(i64),
    PkRange {
        lo: i64,
        width: i64,
    },
    /// `v` has no index: a heap scan, zone-map pruned when those are on.
    ValRange {
        lo: i64,
        width: i64,
    },
}

#[derive(Clone, Debug)]
struct Query {
    /// `SELECT k` rather than `SELECT k, v`: a narrower `needed` mask.
    key_only: bool,
    filter: Filter,
    /// `(column, descending)`.
    order_by: Option<(&'static str, bool)>,
    limit: Option<usize>,
}

fn arb_query() -> impl Strategy<Value = Query> {
    let filter = prop_oneof![
        1 => Just(Filter::None),
        3 => prop_oneof![arb_key(), 0i64..280].prop_map(Filter::PkPoint),
        3 => (0i64..280, 1i64..80).prop_map(|(lo, width)| Filter::PkRange { lo, width }),
        3 => (0i64..70, 1i64..20).prop_map(|(lo, width)| Filter::ValRange { lo, width }),
    ];
    let order_by = prop_oneof![
        Just(None),
        (prop_oneof![Just("k"), Just("v")], any::<bool>()).prop_map(Some),
    ];
    let limit = prop_oneof![Just(None), (1usize..12).prop_map(Some)];
    (any::<bool>(), filter, order_by, limit).prop_map(|(key_only, filter, order_by, limit)| Query {
        key_only,
        filter,
        order_by,
        limit,
    })
}

impl Query {
    fn sql(&self, table: &str) -> String {
        let mut sql = format!(
            "SELECT {} FROM {table}",
            if self.key_only { "k" } else { "k, v" }
        );
        match self.filter {
            Filter::None => {}
            Filter::PkPoint(k) => sql += &format!(" WHERE k = {k}"),
            Filter::PkRange { lo, width } => {
                sql += &format!(" WHERE k >= {lo} AND k < {}", lo + width)
            }
            Filter::ValRange { lo, width } => {
                sql += &format!(" WHERE v >= {lo} AND v < {}", lo + width)
            }
        }
        if let Some((col, desc)) = self.order_by {
            sql += &format!(" ORDER BY {col}{}", if desc { " DESC" } else { "" });
        }
        if let Some(limit) = self.limit {
            sql += &format!(" LIMIT {limit}");
        }
        sql
    }

    fn matches(&self, k: i64, v: i64) -> bool {
        match self.filter {
            Filter::None => true,
            Filter::PkPoint(x) => k == x,
            Filter::PkRange { lo, width } => (lo..lo + width).contains(&k),
            Filter::ValRange { lo, width } => (lo..lo + width).contains(&v),
        }
    }

    /// Runs the query on `conn` and holds the answer against `model`:
    /// the same rows as a multiset; under ORDER BY the same sequence of
    /// sort keys (ties may come in any order); under LIMIT the right
    /// count, and without ORDER BY any sub-multiset of the matches.
    fn check(&self, conn: &Connection, table: &str, model: &Model) -> Result<(), String> {
        let sql = self.sql(table);
        let r = conn.execute(&sql).map_err(|e| format!("{sql}: {e}"))?;
        let fail = |why: &str| Err(format!("{sql}: {why}; got {:?}", r.rows));
        let matches: Model = model
            .iter()
            .filter(|(&k, &v)| self.matches(k, v))
            .map(|(&k, &v)| (k, v))
            .collect();
        // `k` is unique, so it names the model row a result row must be.
        let mut got: Vec<(i64, i64)> = Vec::new();
        for row in &r.rows {
            let Value::Int(k) = row[0] else {
                return fail("non-INT key");
            };
            let Some(&v) = matches.get(&k) else {
                return fail(&format!("row {k} is not among the model's matches"));
            };
            if !self.key_only && row[1] != Value::Int(v) {
                return fail(&format!("row {k} should hold {v}"));
            }
            if got.iter().any(|&(seen, _)| seen == k) {
                return fail(&format!("row {k} returned twice"));
            }
            got.push((k, v));
        }
        let want_len = self.limit.map_or(matches.len(), |l| l.min(matches.len()));
        if got.len() != want_len {
            return fail(&format!("{want_len} rows expected of {:?}", matches));
        }
        if let Some((col, desc)) = self.order_by {
            let sort_key = |&(k, v): &(i64, i64)| if col == "k" { k } else { v };
            let mut want: Vec<i64> = matches.iter().map(|(&k, &v)| sort_key(&(k, v))).collect();
            want.sort_unstable();
            if desc {
                want.reverse();
            }
            want.truncate(want_len);
            if got.iter().map(sort_key).collect::<Vec<_>>() != want {
                return fail(&format!("sort keys should read {want:?}"));
            }
        }
        Ok(())
    }
}

/// One step: what the writer does, what the readers then ask of each
/// table, and whether the snapshot session ends its transaction and
/// pins a new one first.
#[derive(Clone, Debug)]
struct Step {
    write: Write,
    on_m: Query,
    on_n: Query,
    repin: bool,
}

fn arb_step() -> impl Strategy<Value = Step> {
    (
        arb_write(),
        arb_query(),
        arb_query(),
        (0u32..100).prop_map(|pick| pick < 15),
    )
        .prop_map(|(write, on_m, on_n, repin)| Step {
            write,
            on_m,
            on_n,
            repin,
        })
}

fn load_two_tables(conn: &Connection) -> (Model, Model) {
    conn.execute("CREATE TABLE m (k INT PRIMARY KEY, v INT, pad TEXT)")
        .unwrap();
    conn.execute("CREATE TABLE n (k INT PRIMARY KEY, v INT)")
        .unwrap();
    let m: Model = (0..M_ROWS).map(|k| (k, k / 4)).collect();
    let n: Model = (0..N_ROWS).map(|k| (k, k * 3 % 17)).collect();
    let pad = "p".repeat(PAD);
    let tuples: Vec<String> = m
        .iter()
        .map(|(k, v)| format!("({k}, {v}, '{pad}')"))
        .collect();
    conn.execute(&format!("INSERT INTO m VALUES {}", tuples.join(", ")))
        .unwrap();
    let tuples: Vec<String> = n.iter().map(|(k, v)| format!("({k}, {v})")).collect();
    conn.execute(&format!("INSERT INTO n VALUES {}", tuples.join(", ")))
        .unwrap();
    (m, n)
}

/// Applies one writer step to the engine and to the model it must end
/// up equal to (`open` is the writer's own view while in a transaction).
fn write_step(
    conn: &Connection,
    write: &Write,
    committed: &mut Model,
    open: &mut Option<Model>,
) -> Result<(), String> {
    let affected = |sql: String, want: usize| match conn.execute(&sql) {
        Ok(r) if r.rows_affected == want as u64 => Ok(()),
        other => Err(format!("{sql}: {want} rows should change, got {other:?}")),
    };
    let state = open.as_mut().unwrap_or(committed);
    match *write {
        Write::Insert { key, val } => {
            let r = conn.execute(&format!("INSERT INTO m VALUES ({key}, {val}, 'w')"));
            // A duplicate key fails the statement, not the transaction.
            if r.is_ok() == state.contains_key(&key) {
                return Err(format!("INSERT of key {key}: {r:?}"));
            }
            state.entry(key).or_insert(val);
        }
        Write::Update { key, val } => {
            affected(
                format!("UPDATE m SET v = {val} WHERE k = {key}"),
                state.contains_key(&key) as usize,
            )?;
            state.entry(key).and_modify(|v| *v = val);
        }
        Write::UpdateTwice { key, first, val } => {
            for v in [first, val] {
                affected(
                    format!("UPDATE m SET v = {v} WHERE k = {key}"),
                    state.contains_key(&key) as usize,
                )?;
            }
            state.entry(key).and_modify(|v| *v = val);
        }
        Write::UpdateRange { lo, width, val } => {
            affected(
                format!(
                    "UPDATE m SET v = {val} WHERE k >= {lo} AND k < {}",
                    lo + width
                ),
                state.range(lo..lo + width).count(),
            )?;
            state.range_mut(lo..lo + width).for_each(|(_, v)| *v = val);
        }
        Write::Delete { key } => {
            affected(
                format!("DELETE FROM m WHERE k = {key}"),
                state.contains_key(&key) as usize,
            )?;
            state.remove(&key);
        }
        Write::Begin => {
            if open.is_none() {
                conn.execute("BEGIN").map_err(|e| e.to_string())?;
                *open = Some(committed.clone());
            }
        }
        Write::Commit => {
            if let Some(done) = open.take() {
                conn.execute("COMMIT").map_err(|e| e.to_string())?;
                *committed = done;
            }
        }
        Write::Rollback => {
            if open.take().is_some() {
                conn.execute("ROLLBACK").map_err(|e| e.to_string())?;
            }
        }
    }
    Ok(())
}

fn run_three_sessions(config: DbConfig, steps: &[Step]) -> Result<(), String> {
    let db = Db::open(config);
    let writer = db.connect("writer");
    let reader = db.connect("read-committed");
    let pinned = db.connect("snapshot");
    let (mut committed, n) = load_two_tables(&writer);
    let mut open: Option<Model> = None;
    pinned.execute("BEGIN").unwrap();
    let mut as_of_begin = committed.clone();

    for (i, step) in steps.iter().enumerate() {
        let at = |e: String| format!("step {i} ({:?}): {e}", step.write);
        write_step(&writer, &step.write, &mut committed, &mut open).map_err(at)?;
        // The writer reads its own writes.
        let own = open.as_ref().unwrap_or(&committed);
        step.on_m.check(&writer, "m", own).map_err(at)?;
        // Read-committed: the committed model, whatever the writer has
        // pending on `m`; `n` must not notice the transaction at all.
        step.on_m.check(&reader, "m", &committed).map_err(at)?;
        step.on_n.check(&reader, "n", &n).map_err(at)?;
        if step.repin {
            pinned.execute("COMMIT").unwrap();
            pinned.execute("BEGIN").unwrap();
            as_of_begin = committed.clone();
        }
        step.on_m.check(&pinned, "m", &as_of_begin).map_err(at)?;
        step.on_n.check(&pinned, "n", &n).map_err(at)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn readers_beside_a_writer_match_the_committed_model(
        steps in proptest::collection::vec(arb_step(), 1..40),
    ) {
        for (zone_maps_enabled, query_cache_enabled) in
            [(true, true), (true, false), (false, true), (false, false)]
        {
            let config = DbConfig {
                zone_maps_enabled,
                query_cache_enabled,
                ..DbConfig::default()
            };
            if let Err(e) = run_three_sessions(config, &steps) {
                prop_assert!(
                    false,
                    "zone maps {zone_maps_enabled}, query cache {query_cache_enabled}: {e}"
                );
            }
        }
    }
}
