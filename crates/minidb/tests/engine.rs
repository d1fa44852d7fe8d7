//! End-to-end engine tests: SQL execution, planning, transactions,
//! crash/recovery, and the leakage-relevant instrumentation.

use minidb::engine::{Db, DbConfig};
use minidb::value::Value;

fn db() -> Db {
    Db::open(DbConfig::default())
}

fn setup_customers(db: &Db) {
    let conn = db.connect("app");
    conn.execute("CREATE TABLE customers (id INT PRIMARY KEY, state TEXT, age INT)")
        .unwrap();
    conn.execute(
        "INSERT INTO customers VALUES \
         (1, 'IN', 30), (2, 'AZ', 25), (3, 'IN', 41), (4, 'CA', 25), (5, 'NY', 67)",
    )
    .unwrap();
}

#[test]
fn basic_crud() {
    let db = db();
    setup_customers(&db);
    let conn = db.connect("app");

    let r = conn
        .execute("SELECT * FROM customers WHERE state = 'IN'")
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    assert_eq!(r.columns, vec!["id", "state", "age"]);

    let r = conn
        .execute("UPDATE customers SET age = 31 WHERE id = 1")
        .unwrap();
    assert_eq!(r.rows_affected, 1);
    let r = conn
        .execute("SELECT age FROM customers WHERE id = 1")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(31));

    let r = conn
        .execute("DELETE FROM customers WHERE age >= 60")
        .unwrap();
    assert_eq!(r.rows_affected, 1);
    let r = conn.execute("SELECT COUNT(*) FROM customers").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(4));
}

#[test]
fn order_by_and_limit() {
    let db = db();
    setup_customers(&db);
    let conn = db.connect("app");
    let r = conn
        .execute("SELECT id FROM customers ORDER BY age DESC LIMIT 2")
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    assert_eq!(r.rows[0][0], Value::Int(5)); // age 67
    assert_eq!(r.rows[1][0], Value::Int(3)); // age 41
}

#[test]
fn primary_key_uniqueness() {
    let db = db();
    setup_customers(&db);
    let conn = db.connect("app");
    let err = conn
        .execute("INSERT INTO customers VALUES (1, 'TX', 50)")
        .unwrap_err();
    assert!(format!("{err}").contains("duplicate key"), "{err}");
    // The failed statement must not have partially applied.
    let r = conn.execute("SELECT COUNT(*) FROM customers").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(5));
}

#[test]
fn multi_row_insert_atomicity_on_error() {
    let db = db();
    setup_customers(&db);
    let conn = db.connect("app");
    // Third row collides with pk 2: the whole statement must roll back.
    let err =
        conn.execute("INSERT INTO customers VALUES (10, 'WA', 20), (11, 'OR', 21), (2, 'XX', 1)");
    assert!(err.is_err());
    let r = conn.execute("SELECT COUNT(*) FROM customers").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(5));
    let r = conn
        .execute("SELECT * FROM customers WHERE id = 10")
        .unwrap();
    assert!(r.rows.is_empty());
}

#[test]
fn secondary_index_used_and_correct() {
    let db = db();
    setup_customers(&db);
    let conn = db.connect("app");
    conn.execute("CREATE INDEX ix_state ON customers (state)")
        .unwrap();
    // Index scan: rows_examined equals matches, not the table size.
    let r = conn
        .execute("SELECT id FROM customers WHERE state = 'IN'")
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    assert_eq!(r.rows_examined, 2, "index scan should examine 2 rows");
    // Full scan for an unindexed predicate examines everything.
    let r = conn
        .execute("SELECT id FROM customers WHERE age = 25")
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    assert_eq!(r.rows_examined, 5);
}

#[test]
fn pk_range_scan() {
    let db = db();
    let conn = db.connect("app");
    conn.execute("CREATE TABLE n (k INT PRIMARY KEY, v INT)")
        .unwrap();
    for chunk in (0..300).collect::<Vec<i64>>().chunks(50) {
        let values: Vec<String> = chunk.iter().map(|i| format!("({i}, {})", i * 2)).collect();
        conn.execute(&format!("INSERT INTO n VALUES {}", values.join(", ")))
            .unwrap();
    }
    let r = conn.execute("SELECT k FROM n WHERE k >= 290").unwrap();
    assert_eq!(r.rows.len(), 10);
    assert_eq!(r.rows_examined, 10, "range should use the pk index");
    let r = conn
        .execute("SELECT k FROM n WHERE k < 5 ORDER BY k")
        .unwrap();
    assert_eq!(
        r.rows.iter().map(|x| x[0].clone()).collect::<Vec<_>>(),
        (0..5).map(Value::Int).collect::<Vec<_>>()
    );
}

#[test]
fn explicit_transaction_commit_and_rollback() {
    let db = db();
    setup_customers(&db);
    let conn = db.connect("app");
    conn.execute("BEGIN").unwrap();
    conn.execute("INSERT INTO customers VALUES (6, 'TX', 19)")
        .unwrap();
    conn.execute("UPDATE customers SET age = 99 WHERE id = 1")
        .unwrap();
    conn.execute("ROLLBACK").unwrap();
    let r = conn.execute("SELECT COUNT(*) FROM customers").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(5));
    let r = conn
        .execute("SELECT age FROM customers WHERE id = 1")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(30), "update rolled back");

    conn.execute("BEGIN").unwrap();
    conn.execute("INSERT INTO customers VALUES (6, 'TX', 19)")
        .unwrap();
    conn.execute("COMMIT").unwrap();
    let r = conn.execute("SELECT COUNT(*) FROM customers").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(6));
}

#[test]
fn txn_errors() {
    let db = db();
    let conn = db.connect("app");
    assert!(conn.execute("COMMIT").is_err());
    assert!(conn.execute("ROLLBACK").is_err());
    conn.execute("BEGIN").unwrap();
    assert!(conn.execute("BEGIN").is_err());
}

#[test]
fn crash_recovery_preserves_committed_data() {
    let db = db();
    setup_customers(&db);
    let conn = db.connect("app");
    conn.execute("UPDATE customers SET age = 77 WHERE id = 2")
        .unwrap();
    drop(conn);
    // No shutdown: dirty pages die with the crash.
    db.crash();
    assert!(db.is_crashed());
    let conn2 = db.connect("app");
    assert!(conn2.execute("SELECT * FROM customers").is_err());
    drop(conn2);
    db.recover().unwrap();
    let conn = db.connect("app");
    let r = conn
        .execute("SELECT age FROM customers WHERE id = 2")
        .unwrap();
    assert_eq!(
        r.rows[0][0],
        Value::Int(77),
        "committed update survives crash"
    );
    let r = conn.execute("SELECT COUNT(*) FROM customers").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(5));
}

#[test]
fn crash_rolls_back_open_transaction() {
    let db = db();
    setup_customers(&db);
    let conn = db.connect("app");
    conn.execute("BEGIN").unwrap();
    conn.execute("INSERT INTO customers VALUES (9, 'FL', 33)")
        .unwrap();
    conn.execute("DELETE FROM customers WHERE id = 1").unwrap();
    // Crash with the transaction still open.
    db.crash();
    db.recover().unwrap();
    let conn = db.connect("app");
    let r = conn.execute("SELECT COUNT(*) FROM customers").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(5), "uncommitted txn rolled back");
    let r = conn
        .execute("SELECT * FROM customers WHERE id = 9")
        .unwrap();
    assert!(r.rows.is_empty());
    let r = conn
        .execute("SELECT * FROM customers WHERE id = 1")
        .unwrap();
    assert_eq!(r.rows.len(), 1, "uncommitted delete undone");
}

#[test]
fn recovery_with_many_writes_and_index_rebuild() {
    let db = db();
    let conn = db.connect("app");
    conn.execute("CREATE TABLE big (k INT PRIMARY KEY, s TEXT)")
        .unwrap();
    for i in 0..500 {
        conn.execute(&format!("INSERT INTO big VALUES ({i}, 'row-{i}')"))
            .unwrap();
    }
    conn.execute("DELETE FROM big WHERE k < 100").unwrap();
    conn.execute("UPDATE big SET s = 'updated' WHERE k = 250")
        .unwrap();
    drop(conn);
    db.crash();
    db.recover().unwrap();
    let conn = db.connect("app");
    let r = conn.execute("SELECT COUNT(*) FROM big").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(400));
    let r = conn.execute("SELECT s FROM big WHERE k = 250").unwrap();
    assert_eq!(r.rows[0][0], Value::Text("updated".into()));
    assert_eq!(r.rows_examined, 1, "pk index rebuilt and used");
}

#[test]
fn query_cache_hit_and_invalidation() {
    let db = db();
    setup_customers(&db);
    let conn = db.connect("app");
    let q = "SELECT * FROM customers WHERE state = 'IN'";
    let first = conn.execute(q).unwrap();
    assert!(first.rows_examined > 0);
    let second = conn.execute(q).unwrap();
    assert_eq!(
        second.rows_examined, 0,
        "second run served from query cache"
    );
    assert_eq!(first.rows, second.rows);
    // A write to the table invalidates.
    conn.execute("INSERT INTO customers VALUES (7, 'IN', 52)")
        .unwrap();
    let third = conn.execute(q).unwrap();
    assert!(third.rows_examined > 0, "cache invalidated by write");
    assert_eq!(third.rows.len(), 3);

    // Every projection path — in place (schema order), moved out
    // (reordered), cloned (a column twice) — answers the same from the
    // scan and from the cache.
    let star = conn
        .execute("SELECT * FROM customers WHERE age < 50 ORDER BY id")
        .unwrap()
        .rows;
    for (list, cols) in [
        ("id, age", &[0, 2][..]),
        ("state", &[1]),
        ("age, id", &[2, 0]),
        ("age, state, id", &[2, 1, 0]),
        ("age, id, id", &[2, 0, 0]),
        ("id, id, state", &[0, 0, 1]),
    ] {
        let q = format!("SELECT {list} FROM customers WHERE age < 50 ORDER BY id");
        let want: Vec<Vec<Value>> = star
            .iter()
            .map(|r| cols.iter().map(|&c| r[c].clone()).collect())
            .collect();
        let scanned = conn.execute(&q).unwrap();
        assert!(scanned.rows_examined > 0, "{q}");
        assert_eq!(scanned.rows, want, "{q}");
        let cached = conn.execute(&q).unwrap();
        assert_eq!(cached.rows_examined, 0, "{q}");
        assert_eq!(
            (cached.columns, cached.rows),
            (scanned.columns, want),
            "{q}"
        );
    }
}

#[test]
fn processlist_visible_via_sql_injection() {
    let db = db();
    setup_customers(&db);
    let victim = db.connect("webapp");
    victim
        .execute("SELECT * FROM customers WHERE id = 1")
        .unwrap();
    // The attacker's own injected query is visible as *current*; the
    // victim's connection shows in the list.
    let attacker = db.connect("webapp"); // Same user: SQL injection runs as the app.
    let r = attacker
        .execute("SELECT * FROM information_schema.processlist")
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    let infos: Vec<String> = r.rows.iter().map(|row| row[3].to_string()).collect();
    assert!(
        infos.iter().any(|i| i.contains("processlist")),
        "attacker sees own in-flight query: {infos:?}"
    );
}

#[test]
fn performance_schema_history_and_digests_via_sql() {
    let db = db();
    setup_customers(&db);
    let conn = db.connect("app");
    conn.execute("SELECT * FROM customers WHERE state = 'IN'")
        .unwrap();
    conn.execute("SELECT * FROM customers WHERE state = 'AZ'")
        .unwrap();
    conn.execute("SELECT * FROM customers WHERE age >= 25")
        .unwrap();

    let attacker = db.connect("app");
    let r = attacker
        .execute("SELECT sql_text FROM performance_schema.events_statements_history")
        .unwrap();
    let texts: Vec<String> = r.rows.iter().map(|row| row[0].to_string()).collect();
    assert!(
        texts.iter().any(|t| t.contains("state = 'IN'")),
        "{texts:?}"
    );

    let r = attacker
        .execute(
            "SELECT digest_text, count_star FROM \
             performance_schema.events_statements_summary_by_digest",
        )
        .unwrap();
    let mut count_by_digest = std::collections::HashMap::new();
    for row in &r.rows {
        count_by_digest.insert(row[0].to_string(), row[1].clone());
    }
    // The two state queries share a digest with count 2.
    assert_eq!(
        count_by_digest["SELECT * FROM customers WHERE state = ?"],
        Value::Int(2)
    );
    assert_eq!(
        count_by_digest["SELECT * FROM customers WHERE age >= ?"],
        Value::Int(1)
    );
}

#[test]
fn history_bounded_at_configured_size() {
    let db = db();
    setup_customers(&db);
    let conn = db.connect("app");
    for i in 0..30 {
        conn.execute(&format!("SELECT * FROM customers WHERE id = {i}"))
            .unwrap();
    }
    let r = conn
        .execute(&format!(
            "SELECT sql_text FROM performance_schema.events_statements_history \
             WHERE thread_id = {}",
            conn.id
        ))
        .unwrap();
    // 10 history entries for this thread; the SELECT on history itself is
    // current, not yet history.
    assert_eq!(r.rows.len(), 10);
}

#[test]
fn binlog_records_writes_with_timestamps() {
    let db = db();
    setup_customers(&db);
    let image = db.disk_image();
    let binlog = image.file(minidb::wal::BINLOG_FILE).unwrap();
    let events: Vec<minidb::wal::BinlogEvent> = minidb::wal::carve_frames(binlog)
        .into_iter()
        .filter_map(|(_, p)| minidb::wal::BinlogEvent::decode(p).ok())
        .collect();
    // The CREATE TABLE autocommit plus the committed INSERT: DDL is
    // binlogged (MySQL implicit commit) so replicas can reproduce schema.
    assert_eq!(events.len(), 2, "DDL + one committed write statement");
    assert!(events[0].statement.starts_with("CREATE TABLE customers"));
    assert!(events[1].statement.starts_with("INSERT INTO customers"));
    assert!(events[1].timestamp >= 1_483_228_800);
}

#[test]
fn general_log_off_by_default_slow_log_triggers() {
    let config = DbConfig {
        slow_query_threshold_us: 100, // Everything with rows is "slow".
        ..DbConfig::default()
    };
    let db = Db::open(config);
    setup_customers(&db);
    let conn = db.connect("app");
    conn.execute("SELECT * FROM customers").unwrap();
    let image = db.disk_image();
    assert!(
        image.file("general.log").is_none(),
        "general log off by default"
    );
    // The slow log is a stream of structured trace records, not text.
    let carved = mdb_trace::record::carve(image.file("slow.log").unwrap());
    assert!(
        carved
            .iter()
            .any(|c| c.trace.statement == "SELECT * FROM customers"),
        "slow statement text carvable from the structured log"
    );
    let rec = carved
        .iter()
        .find(|c| c.trace.statement == "SELECT * FROM customers")
        .unwrap();
    assert!(rec.trace.total_us > 100);
    assert_eq!(rec.trace.tables, vec!["customers".to_string()]);

    // Switched on, the general log takes one text line per statement,
    // failed ones included, and is a disk file: a crash keeps it.
    let db = Db::open(DbConfig {
        general_log_enabled: true,
        ..DbConfig::default()
    });
    let conn = db.connect("app");
    let t0 = db.now();
    let statements = [
        "CREATE TABLE t (id INT PRIMARY KEY)",
        "INSERT INTO t VALUES (1)",
        "SELECT * FROM missing",
        "SELEKT 1",
        "SELECT * FROM t",
    ];
    let failed = statements.map(|sql| conn.execute(sql).is_err());
    assert_eq!(failed, [false, false, true, true, false]);
    let expected: String = (t0 + 1..)
        .zip(statements)
        .map(|(started, sql)| format!("{started} {} Query\t{sql}\n", conn.id))
        .collect();
    let general_log = |db: &Db| db.disk_image().file("general.log").map(<[u8]>::to_vec);
    assert_eq!(general_log(&db), Some(expected.clone().into_bytes()));
    db.crash();
    db.recover().unwrap();
    assert_eq!(general_log(&db), Some(expected.into_bytes()));
}

#[test]
fn udf_registration_and_use() {
    let db = db();
    let conn = db.connect("app");
    conn.execute("CREATE TABLE t (id INT PRIMARY KEY, tag TEXT)")
        .unwrap();
    conn.execute("INSERT INTO t VALUES (1, 'aa'), (2, 'bb')")
        .unwrap();
    db.register_function(
        "IS_AA",
        std::sync::Arc::new(|args: &[Value]| {
            Ok(Value::Int((args[0] == Value::Text("aa".into())) as i64))
        }),
    );
    let r = conn.execute("SELECT id FROM t WHERE IS_AA(tag)").unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(1)]]);
    assert!(conn.execute("SELECT id FROM t WHERE NO_SUCH(tag)").is_err());
}

#[test]
fn heap_residue_of_executed_queries() {
    let db = db();
    setup_customers(&db);
    let conn = db.connect("app");
    let marker = "zzqqxx_unique_marker_zzqqxx";
    let _ = conn.execute(&format!("SELECT * FROM customers WHERE state = '{marker}'"));
    // Execute some more statements so the marker's exec allocation is
    // definitely freed.
    for i in 0..20 {
        conn.execute(&format!("SELECT * FROM customers WHERE id = {i}"))
            .unwrap();
    }
    let mem = db.memory_image();
    assert!(
        mem.heap_occurrences(marker.as_bytes()) >= 1,
        "freed query text must still be in the heap image"
    );
}

#[test]
fn many_connections_parallel_access() {
    let db = db();
    setup_customers(&db);
    let handles: Vec<_> = (0..8)
        .map(|t| {
            let db = db.clone();
            std::thread::spawn(move || {
                let conn = db.connect(&format!("user{t}"));
                for i in 0..50 {
                    let id = 100 + t * 100 + i;
                    conn.execute(&format!("INSERT INTO customers VALUES ({id}, 'TX', 20)"))
                        .unwrap();
                    conn.execute(&format!("SELECT * FROM customers WHERE id = {id}"))
                        .unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let conn = db.connect("check");
    let r = conn.execute("SELECT COUNT(*) FROM customers").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(5 + 8 * 50));
}

#[test]
fn bufpool_dump_written_on_shutdown() {
    let db = db();
    setup_customers(&db);
    db.shutdown();
    let image = db.disk_image();
    let dump = String::from_utf8(image.file("ib_buffer_pool").unwrap().to_vec()).unwrap();
    assert!(dump.contains("table_customers.ibd"), "{dump}");
}

#[test]
fn null_handling() {
    let db = db();
    let conn = db.connect("app");
    conn.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        .unwrap();
    conn.execute("INSERT INTO t VALUES (1, NULL), (2, 5)")
        .unwrap();
    // NULL never matches comparisons.
    let r = conn.execute("SELECT id FROM t WHERE v = 5").unwrap();
    assert_eq!(r.rows.len(), 1);
    let r = conn.execute("SELECT id FROM t WHERE v != 5").unwrap();
    assert_eq!(r.rows.len(), 0, "NULL != 5 is not true in SQL");
    let r = conn.execute("SELECT v FROM t WHERE id = 1").unwrap();
    assert_eq!(r.rows[0][0], Value::Null);
}

#[test]
fn bytes_values_round_trip() {
    let db = db();
    let conn = db.connect("app");
    conn.execute("CREATE TABLE c (id INT PRIMARY KEY, ct BYTES)")
        .unwrap();
    conn.execute("INSERT INTO c VALUES (1, X'deadbeef')")
        .unwrap();
    let r = conn.execute("SELECT ct FROM c WHERE id = 1").unwrap();
    assert_eq!(r.rows[0][0], Value::Bytes(vec![0xDE, 0xAD, 0xBE, 0xEF]));
    let r = conn
        .execute("SELECT id FROM c WHERE ct = X'deadbeef'")
        .unwrap();
    assert_eq!(r.rows.len(), 1);
}

#[test]
fn explain_reports_access_path() {
    let db = db();
    setup_customers(&db);
    let conn = db.connect("app");
    let r = conn
        .execute("EXPLAIN SELECT * FROM customers WHERE id = 3")
        .unwrap();
    let plan = r.rows[0][0].to_string();
    assert!(plan.contains("index scan on pk_customers"), "{plan}");
    let r = conn
        .execute("EXPLAIN SELECT * FROM customers WHERE age = 25")
        .unwrap();
    assert!(
        r.rows[0][0].to_string().contains("full table scan"),
        "{:?}",
        r.rows
    );
    // Bound intersection shows in the plan.
    let r = conn
        .execute("EXPLAIN SELECT * FROM customers WHERE id >= 2 AND id < 4")
        .unwrap();
    let plan = r.rows[0][0].to_string();
    assert!(
        plan.contains("Included(Int(2))") && plan.contains("Excluded(Int(4))"),
        "{plan}"
    );
    let r = conn
        .execute("EXPLAIN SELECT * FROM information_schema.processlist")
        .unwrap();
    assert!(
        r.rows[0][0].to_string().contains("virtual table"),
        "{:?}",
        r.rows
    );
}

#[test]
fn aggregates() {
    let db = db();
    setup_customers(&db);
    let conn = db.connect("app");
    let r = conn
        .execute("SELECT SUM(age), MIN(age), MAX(age) FROM customers")
        .unwrap();
    assert_eq!(
        r.rows[0],
        vec![Value::Int(188), Value::Int(25), Value::Int(67)]
    );
    let r = conn
        .execute("SELECT COUNT(*) FROM customers WHERE age = 25")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(2));
}

// ================= query flight recorder =================

#[test]
fn explain_analyze_span_tree_and_exact_child_sum() {
    let db = db();
    setup_customers(&db);
    let conn = db.connect("app");
    let r = conn
        .execute("EXPLAIN ANALYZE SELECT * FROM customers WHERE age >= 25")
        .unwrap();
    assert_eq!(r.columns, vec!["span", "start_us", "dur_us", "detail"]);
    let spans: Vec<(String, i64)> = r
        .rows
        .iter()
        .map(|row| {
            (
                row[0].to_string(),
                match row[2] {
                    Value::Int(d) => d,
                    _ => -1,
                },
            )
        })
        .collect();
    // Root, then the pipeline stages, depth-indented.
    assert_eq!(spans[0].0, "statement");
    let names: Vec<&str> = spans.iter().map(|(n, _)| n.trim_start()).collect();
    for stage in ["parse", "plan", "scan", "bufpool"] {
        assert!(names.contains(&stage), "missing {stage} in {names:?}");
    }
    // bufpool is nested under scan (deeper indent).
    let scan = spans
        .iter()
        .find(|(n, _)| n.trim_start() == "scan")
        .unwrap();
    let bufpool = spans
        .iter()
        .find(|(n, _)| n.trim_start() == "bufpool")
        .unwrap();
    let depth = |s: &str| (s.len() - s.trim_start().len()) / 2;
    assert_eq!(depth(&bufpool.0), depth(&scan.0) + 1);
    // The cost model partitions the statement duration across top-level
    // stages exactly: children of the root sum to the root's duration.
    let total = spans[0].1;
    let top_level_sum: i64 = spans
        .iter()
        .filter(|(n, _)| depth(n) == 1)
        .map(|(_, d)| *d)
        .sum();
    assert_eq!(
        top_level_sum, total,
        "top-level spans partition the statement time"
    );
    // EXPLAIN ANALYZE executes its target (MySQL 8 semantics).
    assert_eq!(r.rows_examined, 5);
    // The rows_examined attribute rides on the scan span.
    let scan_detail = r
        .rows
        .iter()
        .find(|row| row[0].to_string().trim_start() == "scan")
        .unwrap()[3]
        .to_string();
    assert!(scan_detail.contains("rows_examined=5"), "{scan_detail}");
}

#[test]
fn explain_analyze_executes_writes() {
    let db = db();
    setup_customers(&db);
    let conn = db.connect("app");
    let r = conn
        .execute("EXPLAIN ANALYZE UPDATE customers SET age = 99 WHERE id = 1")
        .unwrap();
    let names: Vec<String> = r.rows.iter().map(|row| row[0].to_string()).collect();
    assert!(names.iter().any(|n| n.trim_start() == "write"), "{names:?}");
    assert!(
        names.iter().any(|n| n.trim_start() == "wal_append"),
        "{names:?}"
    );
    assert!(
        names.iter().any(|n| n.trim_start() == "commit"),
        "{names:?}"
    );
    let check = conn
        .execute("SELECT age FROM customers WHERE id = 1")
        .unwrap();
    assert_eq!(check.rows[0][0], Value::Int(99), "the target actually ran");
}

#[test]
fn query_traces_virtual_table_and_ring_eviction() {
    let config = DbConfig {
        trace_ring_capacity: 4,
        ..DbConfig::default()
    };
    let db = Db::open(config);
    setup_customers(&db);
    let conn = db.connect("app");
    for i in 0..6 {
        conn.execute(&format!("SELECT * FROM customers WHERE id = {i}"))
            .unwrap();
    }
    let r = conn
        .execute("SELECT statement, tables FROM information_schema.query_traces")
        .unwrap();
    // Capacity 4: the ring holds the latest 4 statements only.
    assert_eq!(r.rows.len(), 4);
    let texts: Vec<String> = r.rows.iter().map(|row| row[0].to_string()).collect();
    assert!(
        texts.iter().all(|t| !t.contains("id = 0")),
        "oldest evicted: {texts:?}"
    );
    assert!(texts.iter().any(|t| t.contains("id = 5")), "{texts:?}");
    assert!(r.rows.iter().all(|row| row[1].to_string() == "customers"));
    let rec = db.trace_recorder();
    assert!(rec.evicted() > 0, "eviction counter advanced");

    // The programmatic view exposes the span trees with attributes.
    let traces = db.query_traces();
    assert_eq!(traces.len(), 4);
    let t = traces
        .iter()
        .find(|t| t.statement.contains("id = 5"))
        .expect("recent select still in ring");
    let scan = t.root.find("scan").expect("scan span");
    assert!(scan.attrs.iter().any(|(k, _)| k == "rows_examined"));
    let bufpool = t.root.find("bufpool").expect("bufpool span");
    assert!(bufpool.attrs.iter().any(|(k, _)| k == "pages_hit"));
}

#[test]
fn tracing_disabled_keeps_ring_empty_and_slow_log_minimal() {
    let config = DbConfig {
        trace_enabled: false,
        slow_query_threshold_us: 100,
        ..DbConfig::default()
    };
    let db = Db::open(config);
    setup_customers(&db);
    let conn = db.connect("app");
    conn.execute("SELECT * FROM customers").unwrap();
    assert!(
        db.query_traces().is_empty(),
        "disarmed recorder stays empty"
    );
    let err = conn
        .execute("SELECT * FROM information_schema.query_traces")
        .unwrap();
    assert!(err.rows.is_empty());
    // Slow statements still land on disk, as minimal text+timing records
    // (no span tree, no table list).
    let image = db.disk_image();
    let carved = mdb_trace::record::carve(image.file("slow.log").unwrap());
    let rec = carved
        .iter()
        .find(|c| c.trace.statement == "SELECT * FROM customers")
        .expect("minimal record still written");
    assert!(rec.trace.tables.is_empty());
    assert!(rec.trace.root.children.is_empty());
}

#[test]
fn flush_diagnostics_scrub_clears_latency_histograms_and_trace_ring() {
    let config = DbConfig {
        telemetry_scrub_on_flush: true,
        ..DbConfig::default()
    };
    let db = Db::open(config);
    setup_customers(&db);
    let conn = db.connect("app");
    conn.execute("SELECT * FROM customers").unwrap();
    let before = db.metrics_snapshot();
    let lat = |snap: &mdb_telemetry::MetricsSnapshot| {
        snap.histograms
            .iter()
            .filter(|h| h.name.starts_with("sql.latency_us."))
            .map(|h| h.count)
            .sum::<u64>()
    };
    assert!(lat(&before) > 0, "latency histograms populated");
    assert!(!db.query_traces().is_empty());

    db.flush_diagnostics();

    // Scrub means scrub: per-kind latency histograms AND the flight
    // recorder go with the counters, not just the perf-schema rows.
    let after = db.metrics_snapshot();
    assert_eq!(lat(&after), 0, "latency histograms scrubbed on flush");
    assert!(
        db.query_traces().is_empty(),
        "flight recorder cleared on flush"
    );
}

#[test]
fn flush_diagnostics_default_keeps_trace_ring() {
    let db = db();
    setup_customers(&db);
    let conn = db.connect("app");
    conn.execute("SELECT * FROM customers").unwrap();
    let n = db.query_traces().len();
    assert!(n > 0);
    db.flush_diagnostics();
    // Default flush wipes the perf schema but NOT the flight recorder —
    // the residual timeline e15 reconstructs.
    assert_eq!(db.query_traces().len(), n);
    let r = conn
        .execute("SELECT sql_text FROM performance_schema.events_statements_history")
        .unwrap();
    assert!(r.rows.is_empty(), "perf schema history wiped");
}

// ================= MVCC snapshot isolation =================

#[test]
fn mvcc_snapshot_reads_ignore_later_commits() {
    let db = db();
    setup_customers(&db);
    let reader = db.connect("reader");
    let writer = db.connect("writer");

    reader.execute("BEGIN").unwrap();
    let r = reader
        .execute("SELECT age FROM customers WHERE id = 1")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(30));

    // Another session commits an update and a delete mid-transaction.
    writer
        .execute("UPDATE customers SET age = 99 WHERE id = 1")
        .unwrap();
    writer
        .execute("DELETE FROM customers WHERE id = 5")
        .unwrap();

    // The pinned snapshot still sees the old world: the pre-update age
    // and the deleted row both resolve through the version chains.
    let r = reader
        .execute("SELECT age FROM customers WHERE id = 1")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(30), "update invisible to snapshot");
    let r = reader
        .execute("SELECT id FROM customers WHERE id = 5")
        .unwrap();
    assert_eq!(r.rows.len(), 1, "deleted row resurrected for snapshot");

    // After COMMIT the next read sees the new committed state.
    reader.execute("COMMIT").unwrap();
    let r = reader
        .execute("SELECT age FROM customers WHERE id = 1")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(99));
    let r = reader
        .execute("SELECT id FROM customers WHERE id = 5")
        .unwrap();
    assert!(r.rows.is_empty());
}

#[test]
fn mvcc_uncommitted_writes_invisible_to_others_but_own() {
    let db = db();
    setup_customers(&db);
    let writer = db.connect("writer");
    let other = db.connect("other");

    writer.execute("BEGIN").unwrap();
    writer
        .execute("UPDATE customers SET age = 77 WHERE id = 2")
        .unwrap();
    writer
        .execute("INSERT INTO customers VALUES (6, 'TX', 50)")
        .unwrap();

    // Read-your-own-writes inside the transaction.
    let r = writer
        .execute("SELECT age FROM customers WHERE id = 2")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(77));
    let r = writer
        .execute("SELECT id FROM customers WHERE id = 6")
        .unwrap();
    assert_eq!(r.rows.len(), 1);

    // An autocommit reader in another session must not see either.
    let r = other
        .execute("SELECT age FROM customers WHERE id = 2")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(25), "no dirty read");
    let r = other
        .execute("SELECT id FROM customers WHERE id = 6")
        .unwrap();
    assert!(r.rows.is_empty(), "uncommitted insert invisible");

    writer.execute("COMMIT").unwrap();
    let r = other
        .execute("SELECT age FROM customers WHERE id = 2")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(77));
}

/// `SELECT age … WHERE id = 2` as `conn` sees it: autocommit
/// (read-committed), then inside its own `BEGIN … COMMIT` (snapshot).
fn age_of_2(conn: &minidb::engine::Connection) -> [Value; 2] {
    let read = || {
        let r = conn
            .execute("SELECT age FROM customers WHERE id = 2")
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        r.rows[0][0].clone()
    };
    let autocommit = read();
    conn.execute("BEGIN").unwrap();
    let snapshot = read();
    conn.execute("COMMIT").unwrap();
    [autocommit, snapshot]
}

#[test]
fn mvcc_intermediate_images_of_an_open_transaction_are_invisible() {
    let db = db();
    setup_customers(&db);
    let a = db.connect("a");
    let b = db.connect("b");
    let committed = [Value::Int(25), Value::Int(25)];

    a.execute("BEGIN").unwrap();
    a.execute("UPDATE customers SET age = 1 WHERE id = 2")
        .unwrap();
    assert_eq!(age_of_2(&b), committed, "first uncommitted write");
    // The second write archives A's own first image; it is pending like
    // the committed pre-image below it, but it is nobody's history.
    a.execute("UPDATE customers SET age = 2 WHERE id = 2")
        .unwrap();
    assert_eq!(age_of_2(&b), committed, "intermediate image leaked");
    a.execute("DELETE FROM customers WHERE id = 2").unwrap();
    assert_eq!(age_of_2(&b), committed, "uncommitted delete");
    a.execute("ROLLBACK").unwrap();
    assert_eq!(age_of_2(&b), committed, "after rollback");

    // An INSERT superseded in its own transaction has no committed image.
    a.execute("BEGIN").unwrap();
    a.execute("INSERT INTO customers VALUES (6, 'TX', 50)")
        .unwrap();
    a.execute("UPDATE customers SET age = 51 WHERE id = 6")
        .unwrap();
    for sql in [
        "SELECT age FROM customers WHERE id = 6",
        "SELECT age FROM customers WHERE age >= 50 AND age < 60",
    ] {
        assert!(b.execute(sql).unwrap().rows.is_empty(), "{sql}");
    }
    a.execute("COMMIT").unwrap();
    let r = b.execute("SELECT age FROM customers WHERE id = 6").unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(51)]]);
}

#[test]
fn mvcc_statement_rollback_keeps_earlier_uncommitted_writes_hidden() {
    let db = db();
    setup_customers(&db);
    let a = db.connect("a");
    let b = db.connect("b");
    a.execute("BEGIN").unwrap();
    a.execute("UPDATE customers SET age = 1 WHERE id = 2")
        .unwrap();
    // Moves row 2 to key 9, then row 3 onto the same key, and is undone
    // as a statement; A's first write to row 2 still stands.
    assert!(a
        .execute("UPDATE customers SET id = 9 WHERE id >= 2")
        .is_err());
    let r = a.execute("SELECT age FROM customers WHERE id = 2").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(1), "own write survives");
    assert_eq!(age_of_2(&b), [Value::Int(25), Value::Int(25)]);
    a.execute("COMMIT").unwrap();
    assert_eq!(age_of_2(&b), [Value::Int(1), Value::Int(1)]);
}

/// Every row of `customers`, on `db` and on a replica rebuilt from
/// nothing but `db`'s binlog.
fn customers_here_and_replayed(db: &Db) -> [Vec<Vec<Value>>; 2] {
    let dump = |db: &Db| {
        db.connect("audit")
            .execute("SELECT * FROM customers ORDER BY id")
            .unwrap()
            .rows
    };
    let replica = Db::open(DbConfig::default());
    let (frames, _) = db.binlog_frames_from(0, usize::MAX);
    for (_, sealed, payload) in frames {
        let ev = db.decode_binlog_frame(sealed, &payload).unwrap();
        replica
            .apply_replicated(&ev.statement, ev.timestamp)
            .unwrap();
    }
    [dump(db), dump(&replica)]
}

#[test]
fn mvcc_write_to_a_row_another_transaction_owns_is_a_conflict() {
    use minidb::DbError;
    for a_ends_with in ["ROLLBACK", "COMMIT"] {
        let db = db();
        setup_customers(&db);
        let a = db.connect("a");
        let b = db.connect("b");
        a.execute("BEGIN").unwrap();
        a.execute("UPDATE customers SET age = 1 WHERE id = 2")
            .unwrap();

        // First updater wins: B is refused, and refused whole — row 1,
        // which its statement reached first, is put back.
        for sql in [
            "UPDATE customers SET age = 7 WHERE id = 2",
            "UPDATE customers SET age = 7 WHERE id <= 2",
            "DELETE FROM customers WHERE id <= 2",
        ] {
            let err = b.execute(sql).unwrap_err();
            assert!(matches!(err, DbError::WriteConflict(_)), "{sql}: {err}");
        }
        // ... also from inside a transaction of its own, which survives.
        b.execute("BEGIN").unwrap();
        b.execute("UPDATE customers SET age = 8 WHERE id = 3")
            .unwrap();
        let err = b
            .execute("UPDATE customers SET age = 8 WHERE id = 2")
            .unwrap_err();
        assert!(matches!(err, DbError::WriteConflict(_)), "{err}");
        b.execute("COMMIT").unwrap();
        let r = b
            .execute("SELECT age FROM customers WHERE id <= 3 ORDER BY id")
            .unwrap();
        assert_eq!(
            r.rows,
            vec![
                vec![Value::Int(30)],
                vec![Value::Int(25)],
                vec![Value::Int(8)]
            ],
            "refused writes left nothing behind"
        );

        a.execute(a_ends_with).unwrap();
        let r = b
            .execute("UPDATE customers SET age = 7 WHERE id = 2")
            .unwrap();
        assert_eq!(r.rows_affected, 1, "retry after A ended");
        let [primary, replica] = customers_here_and_replayed(&db);
        assert_eq!(
            primary[1][2],
            Value::Int(7),
            "the acked write is the final value"
        );
        assert_eq!(primary, replica, "the binlog tells the same story");
    }
}

#[test]
fn mvcc_rollback_aborts_version_records() {
    let db = db();
    setup_customers(&db);
    let conn = db.connect("app");
    conn.execute("BEGIN").unwrap();
    conn.execute("UPDATE customers SET age = 1 WHERE age >= 25")
        .unwrap();
    conn.execute("ROLLBACK").unwrap();
    let r = conn
        .execute("SELECT age FROM customers ORDER BY id")
        .unwrap();
    assert_eq!(
        r.rows.iter().map(|r| r[0].clone()).collect::<Vec<_>>(),
        vec![
            Value::Int(30),
            Value::Int(25),
            Value::Int(41),
            Value::Int(25),
            Value::Int(67)
        ],
        "rollback restored every row"
    );
    // The aborted before-images are still counted until vacuum reclaims
    // them — they are real bytes in the version store.
    assert!(db.version_count() > 0);
    let (reclaimed, remaining) = db.vacuum();
    assert_eq!(remaining, 0);
    assert!(reclaimed >= 5);
}

#[test]
fn mvcc_version_store_archives_update_history() {
    use minidb::mvcc::VERSIONS_FILE;
    let db = db();
    let conn = db.connect("app");
    conn.execute("CREATE TABLE secrets (id INT PRIMARY KEY, balance INT)")
        .unwrap();
    conn.execute("INSERT INTO secrets VALUES (1, 1000)")
        .unwrap();
    for k in 0..8 {
        conn.execute(&format!("UPDATE secrets SET balance = {}", 1001 + k))
            .unwrap();
    }
    assert_eq!(db.version_count(), 8, "one archived version per UPDATE");

    // Default vacuum tombstones: the engine forgets the versions, the
    // file keeps every payload byte.
    let before = db.disk_image().file(VERSIONS_FILE).unwrap().len();
    let (reclaimed, remaining) = db.vacuum();
    assert_eq!((reclaimed, remaining), (8, 0));
    assert_eq!(
        db.disk_image().file(VERSIONS_FILE).unwrap().len(),
        before,
        "tombstoning vacuum leaves the before-images on disk"
    );
}

#[test]
fn scrub_all_walks_every_leakage_surface() {
    use minidb::mvcc::VERSIONS_FILE;
    let db = db();
    setup_customers(&db);
    let conn = db.connect("app");
    // Populate every surface: versions, query cache, perf schema,
    // telemetry, traces.
    conn.execute("UPDATE customers SET age = 31 WHERE id = 1")
        .unwrap();
    conn.execute("SELECT * FROM customers").unwrap();
    conn.execute("SELECT * FROM customers").unwrap();
    assert!(db.version_count() > 0);
    assert!(!db.query_traces().is_empty());

    db.scrub_all();

    // The regression list: every surface, one scrub.
    assert_eq!(db.version_count(), 0, "version chains vacuumed");
    let img = db.disk_image();
    assert!(
        img.file(VERSIONS_FILE).is_none_or(|f| f.is_empty()),
        "version store physically scrubbed, not tombstoned"
    );
    assert!(db.query_traces().is_empty(), "flight recorder cleared");
    let snap = db.metrics_snapshot();
    assert!(
        snap.counters.iter().all(|(_, v)| *v == 0),
        "telemetry counters zeroed"
    );
    let r = conn
        .execute("SELECT sql_text FROM performance_schema.events_statements_history")
        .unwrap();
    assert!(r.rows.is_empty(), "perf schema history wiped");
    // Query cache was dropped: the identical SELECT below re-executes
    // (cache hits counter stays zero after the scrub).
    conn.execute("SELECT * FROM customers").unwrap();
    conn.execute("SELECT * FROM customers").unwrap();
    let snap = db.metrics_snapshot();
    assert_eq!(
        snap.counter("sql.query_cache_hits"),
        Some(1),
        "cache repopulated only after scrub"
    );
}

/// DDL through a crash, on the paths that keep a table's definition and
/// its storage: an index backfilled on a populated table, a DROP under
/// another session's open transaction, and a re-CREATE of the dropped
/// name.
#[test]
fn ddl_survives_crash_backfill_drop_and_recreate() {
    use minidb::wal::{carve_frames, OpKind, RedoRecord, REDO_FILE};
    use minidb::DbError;
    let db = db();
    let redo_table_ids = |db: &Db| -> Vec<u32> {
        let image = db.disk_image();
        carve_frames(image.file(REDO_FILE).unwrap())
            .into_iter()
            .filter_map(|(_, p)| RedoRecord::decode(p).ok())
            .filter(|r| r.op == OpKind::Insert)
            .map(|r| r.table_id)
            .collect()
    };
    let conn = db.connect("app");
    conn.execute("CREATE TABLE items (id INT PRIMARY KEY, grp INT, name TEXT)")
        .unwrap();
    for i in 0..40 {
        conn.execute(&format!(
            "INSERT INTO items VALUES ({i}, {}, 'n{i}')",
            i % 5
        ))
        .unwrap();
    }
    // The backfill: the index is built over rows already on the heap.
    conn.execute("CREATE INDEX ix_grp ON items (grp)").unwrap();
    let query = "SELECT id, name FROM items WHERE grp = 3";
    let explain = "EXPLAIN SELECT id, name FROM items WHERE grp = 3";
    let before = conn.execute(query).unwrap().rows;
    assert_eq!(before.len(), 8);
    let plan = conn.execute(explain).unwrap().rows[0][0].to_string();
    assert!(plan.contains("index scan on ix_grp"), "{plan}");
    let old_id = redo_table_ids(&db)[0];
    drop(conn);
    db.crash();
    db.recover().unwrap();

    let conn = db.connect("app");
    let plan = conn.execute(explain).unwrap().rows[0][0].to_string();
    assert!(plan.contains("index scan on ix_grp"), "{plan}");
    let after = conn.execute(query).unwrap();
    assert_eq!(after.rows, before, "the rebuilt index answers as before");
    assert_eq!(after.rows_examined, 8, "the index scan is taken");

    // DROP under a second session's open transaction: its ROLLBACK finds
    // no table to compensate and succeeds.
    let writer = db.connect("writer");
    writer.execute("BEGIN").unwrap();
    writer
        .execute("UPDATE items SET name = 'x' WHERE id = 1")
        .unwrap();
    writer
        .execute("INSERT INTO items VALUES (100, 1, 'late')")
        .unwrap();
    writer.execute("DELETE FROM items WHERE id = 2").unwrap();
    conn.execute("DROP TABLE items").unwrap();
    writer.execute("ROLLBACK").unwrap();
    drop((conn, writer));
    db.crash();
    db.recover().unwrap();

    let conn = db.connect("app");
    let err = conn.execute("SELECT * FROM items").unwrap_err();
    assert!(matches!(err, DbError::UnknownTable(_)), "{err}");
    let image = db.disk_image();
    let left: Vec<_> = image
        .file_names()
        .into_iter()
        .filter(|f| f.starts_with("table_items") || f.starts_with("index_items"))
        .collect();
    assert!(left.is_empty(), "dropped files still on disk: {left:?}");

    // Re-CREATE: an empty table under a fresh id.
    conn.execute("CREATE TABLE items (id INT PRIMARY KEY, grp INT, name TEXT)")
        .unwrap();
    let r = conn.execute("SELECT COUNT(*) FROM items").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(0));
    conn.execute("INSERT INTO items VALUES (1, 1, 'new')")
        .unwrap();
    let new_id = *redo_table_ids(&db).last().unwrap();
    assert_ne!(new_id, old_id, "a re-created table gets a fresh id");
    let r = conn.execute("SELECT id, name FROM items").unwrap();
    assert_eq!(r.rows, [[Value::Int(1), Value::Text("new".into())]]);
}
