//! Integration tests for the systems substrate under stress: crashes in
//! awkward places, snapshots taken mid-workload, and concurrent sessions.

use edb_repro::minidb::engine::{Db, DbConfig};
use edb_repro::minidb::value::Value;
use edb_repro::snapshot_attack::threat::{capture, AttackVector};

fn small_db() -> Db {
    let config = DbConfig {
        redo_capacity: 2 << 20,
        undo_capacity: 2 << 20,
        ..DbConfig::default()
    };
    Db::open(config)
}

#[test]
fn repeated_crash_recover_cycles_preserve_data() {
    let db = small_db();
    let conn = db.connect("app");
    conn.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        .unwrap();
    let mut expected = 0i64;
    for round in 0..5 {
        let conn = db.connect("app");
        for i in 0..50 {
            let id = round * 50 + i;
            conn.execute(&format!("INSERT INTO t VALUES ({id}, {})", id * 2))
                .unwrap();
            expected += 1;
        }
        db.crash();
        db.recover().unwrap();
        let conn = db.connect("check");
        let r = conn.execute("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(expected), "round {round}");
    }
}

#[test]
fn crash_mid_explicit_txn_is_atomic() {
    let db = small_db();
    let conn = db.connect("app");
    conn.execute("CREATE TABLE acct (id INT PRIMARY KEY, bal INT)")
        .unwrap();
    conn.execute("INSERT INTO acct VALUES (1, 100), (2, 100)")
        .unwrap();
    // A transfer that crashes between the two legs.
    conn.execute("BEGIN").unwrap();
    conn.execute("UPDATE acct SET bal = 0 WHERE id = 1")
        .unwrap();
    db.crash();
    db.recover().unwrap();
    let conn = db.connect("check");
    let r = conn.execute("SELECT SUM(bal) FROM acct").unwrap();
    assert_eq!(
        r.rows[0][0],
        Value::Int(200),
        "half-applied transfer rolled back"
    );
}

#[test]
fn crash_immediately_after_wraparound_recovers() {
    let config = DbConfig {
        redo_capacity: 64 * 1024,
        undo_capacity: 64 * 1024,
        ..DbConfig::default()
    };
    let db = Db::open(config);
    let conn = db.connect("app");
    conn.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
        .unwrap();
    // Far more writes than the circular log holds: the engine must have
    // checkpointed before each wrap, so recovery still converges.
    for i in 0..3_000 {
        conn.execute(&format!("INSERT INTO t VALUES ({i}, 'padding-row-{i}')"))
            .unwrap();
    }
    db.crash();
    db.recover().unwrap();
    let conn = db.connect("check");
    let r = conn.execute("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(3_000));
    let r = conn.execute("SELECT v FROM t WHERE id = 2999").unwrap();
    assert_eq!(r.rows[0][0], Value::Text("padding-row-2999".into()));
}

#[test]
fn snapshot_during_concurrent_workload_is_consistent() {
    let db = small_db();
    let conn = db.connect("app");
    conn.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        .unwrap();
    drop(conn);

    let writers: Vec<_> = (0..4)
        .map(|w| {
            let db = db.clone();
            std::thread::spawn(move || {
                let conn = db.connect(&format!("writer{w}"));
                for i in 0..200 {
                    let id = w * 1_000 + i;
                    conn.execute(&format!("INSERT INTO t VALUES ({id}, {i})"))
                        .unwrap();
                }
            })
        })
        .collect();
    // Take snapshots while the writers are running.
    let mut snapshot_rows = Vec::new();
    for _ in 0..10 {
        let image = db.system_image();
        snapshot_rows.push(image.disk.total_bytes());
        std::thread::yield_now();
    }
    for w in writers {
        w.join().unwrap();
    }
    let conn = db.connect("check");
    let r = conn.execute("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(800));
    // Snapshots were all well-formed (parseable catalog implies so).
    assert!(snapshot_rows.iter().all(|&b| b > 0));
}

#[test]
fn observation_capture_on_all_vectors_during_activity() {
    let db = small_db();
    let conn = db.connect("app");
    conn.execute("CREATE TABLE t (id INT PRIMARY KEY)").unwrap();
    for i in 0..100 {
        conn.execute(&format!("INSERT INTO t VALUES ({i})"))
            .unwrap();
    }
    for vector in AttackVector::ALL {
        let obs = capture(&db, vector);
        if let Some(disk) = &obs.persistent_db {
            assert!(disk.file("catalog").is_some(), "{vector:?}");
        }
        if let Some(mem) = &obs.volatile_db {
            assert!(!mem.heap.is_empty(), "{vector:?}");
        }
    }
}

#[test]
fn recovery_is_idempotent() {
    let db = small_db();
    let conn = db.connect("app");
    conn.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        .unwrap();
    conn.execute("INSERT INTO t VALUES (1, 10), (2, 20)")
        .unwrap();
    conn.execute("UPDATE t SET v = 11 WHERE id = 1").unwrap();
    db.crash();
    db.recover().unwrap();
    // Recover again without a crash in between: must be a no-op.
    db.crash();
    db.recover().unwrap();
    let conn = db.connect("check");
    let r = conn.execute("SELECT v FROM t ORDER BY id").unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(11)], vec![Value::Int(20)]]);
}
