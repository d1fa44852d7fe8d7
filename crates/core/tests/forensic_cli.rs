//! The `forensic` binary, end to end. Images built in process are
//! written with `SystemImage::to_bytes` to files, and every command
//! runs on one of them: each exits 0 and prints an item it recovered.
//! A truncated image exits 1.

use std::path::PathBuf;
use std::process::Command;
use std::time::Duration;

use mdb_repl::{ReplicaSet, ReplicaSetConfig};
use minidb::engine::{Db, DbConfig};
use minidb::snapshot::SystemImage;

/// Small logs, so three images stay a few hundred KiB.
fn config() -> DbConfig {
    DbConfig {
        redo_capacity: 1 << 16,
        undo_capacity: 1 << 16,
        ..DbConfig::default()
    }
}

/// A primary and its one replica. Every primary statement is slow, so
/// the slow log holds them all; the UPDATE leaves a version chain, the
/// range read touches zone maps and index leaves, and a clean shutdown
/// writes the buffer-pool LRU dump.
fn replicated_images() -> (SystemImage, SystemImage) {
    let mut set = ReplicaSet::start(ReplicaSetConfig {
        replicas: 1,
        base: DbConfig {
            slow_query_threshold_us: 0,
            ..config()
        },
        ..ReplicaSetConfig::default()
    })
    .unwrap();
    set.write("CREATE TABLE patients (id INT PRIMARY KEY, name TEXT, ward INT, token BYTES)")
        .unwrap();
    for i in 0..40 {
        set.write(&format!(
            "INSERT INTO patients VALUES ({i}, 'patient-{i}', {}, X'{:08x}')",
            i % 5,
            0xdead_0000u32 + i
        ))
        .unwrap();
    }
    set.write("UPDATE patients SET ward = 9 WHERE id = 3")
        .unwrap();
    set.write("DELETE FROM patients WHERE id = 4").unwrap();
    set.read_on_primary("SELECT name FROM patients WHERE id >= 10 AND id < 20")
        .unwrap();
    assert!(set.wait_for_sync(Duration::from_secs(30)), "replica syncs");
    set.primary().shutdown();
    let images = (set.primary().system_image(), set.replica(0).system_image());
    set.shutdown();
    images
}

/// A primary fenced after a promotion took its first four writes: the
/// last three are its divergent tail.
fn fenced_image() -> SystemImage {
    let db = Db::open(config());
    let conn = db.connect("app");
    conn.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
        .unwrap();
    for i in 0..6 {
        conn.execute(&format!("INSERT INTO t VALUES ({i}, 'acked-{i}')"))
            .unwrap();
    }
    let fenced = db.fence_divergent(db.binlog_next_seq() - 3);
    assert_eq!(fenced.len(), 3);
    db.system_image()
}

fn write(name: &str, bytes: &[u8]) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("forensic-{name}-{}.edbsnap", std::process::id()));
    std::fs::write(&path, bytes).unwrap();
    path
}

/// Runs `forensic` and returns its exit code and stdout.
fn forensic(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_forensic"))
        .args(args)
        .output()
        .unwrap();
    (
        out.status.code().unwrap(),
        String::from_utf8(out.stdout).unwrap(),
    )
}

#[test]
fn every_command_recovers_something_from_a_real_image() {
    let (primary, replica) = replicated_images();
    let primary_bytes = primary.to_bytes();
    let primary_path = write("primary", &primary_bytes);
    let replica_path = write("replica", &replica.to_bytes());
    let fenced_path = write("fenced", &fenced_image().to_bytes());
    let truncated_path = write("truncated", &primary_bytes[..primary_bytes.len() / 2]);
    let [p, r, f, t] = [&primary_path, &replica_path, &fenced_path, &truncated_path]
        .map(|path| path.to_str().unwrap());

    // (arguments, a line fragment only a recovered item prints).
    let cases: &[(&[&str], &str)] = &[
        (&[p, "summary"], "version chains"),
        (&[p, "writes"], "Insert"),
        (&[p, "undo"], "was ["),
        (&[p, "binlog"], "UPDATE patients SET ward = 9"),
        (&[r, "relay"], "INSERT INTO patients VALUES (39"),
        (&[f, "divergent"], "acked-5"),
        (&[p, "strings"], "heap@"),
        (&[p, "tokens"], "dead0027"),
        (&[p, "digests"], "rows_examined="),
        (&[p, "bufpool"], "leaf"),
        (&[p, "metrics"], "patients"),
        (&[p, "tracelog"], "[both]"),
        (&[p, "zonemap"], "table_patients.ibd page"),
        (&[p, "versions"], "[committed/UPDATE]"),
        (&[r, "xtrace"], "trace="),
        (&[r, "xtrace", p], "session"),
    ];
    for (args, expect) in cases {
        let (code, stdout) = forensic(args);
        assert_eq!(code, 0, "forensic {args:?}");
        assert!(
            stdout.contains(expect),
            "forensic {args:?} printed no {expect:?}:\n{stdout}"
        );
    }
    // The cases above run every command the usage text lists, in order.
    let usage = Command::new(env!("CARGO_BIN_EXE_forensic"))
        .output()
        .unwrap();
    assert_eq!(usage.status.code(), Some(2));
    let usage = String::from_utf8(usage.stderr).unwrap();
    let listed: Vec<&str> = usage
        .lines()
        .skip_while(|l| *l != "commands:")
        .skip(1)
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    let mut tested: Vec<&str> = cases.iter().map(|(args, _)| args[1]).collect();
    tested.dedup();
    assert_eq!(listed, tested, "{usage}");

    assert_eq!(forensic(&[t, "summary"]).0, 1, "a truncated image");
    assert_eq!(forensic(&[p, "no-such-command"]).0, 2);

    for path in [primary_path, replica_path, fenced_path, truncated_path] {
        std::fs::remove_file(path).unwrap();
    }
}
