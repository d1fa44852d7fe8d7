//! Golden heap arena: what a seeded statement stream leaves in the
//! process heap (§5) and the digest table (§4) of a primary and of the
//! replica that applies its writes.
//!
//! Which freed block a later statement reuses is decided by the order of
//! the allocations and frees each statement makes — the exec and history
//! copies of its text, one buffer per string literal, the query-cache
//! key — so a change to how the engine reads a statement's text that
//! moves one allocation moves these values. The stream covers string
//! literals (`''` escapes included), parse errors with and without
//! literals, text the lexer rejects, `EXPLAIN ANALYZE`, query-cache hits
//! and misses, and the replication applier, its failures included.
//!
//! The expected values were captured by running this file at the commit
//! before statements were lexed outside the engine lock (`d7df98c`),
//! where the engine lexed each statement three times under it.
//!
//! The query cache frees the entries of a written table in hash-map
//! order, so the stream keeps at most one cached SELECT on the written
//! table `kv` between two writes; the read-only table `tag` holds the
//! cache hits.

use minidb::engine::{Db, DbConfig};

mod common;
use common::{fnv, Rng};

/// A string literal of `n` characters, with a `''` escape when `n` is
/// a multiple of five.
fn literal(rng: &mut Rng, n: u64) -> String {
    let body: String = (0..n)
        .map(|i| (b'a' + ((rng.next() + i) % 26) as u8) as char)
        .collect();
    if n.is_multiple_of(5) {
        format!("'{body}''s'")
    } else {
        format!("'{body}'")
    }
}

/// The heap, history and digest surfaces of one node.
fn surfaces(db: &Db) -> String {
    let mem = db.memory_image();
    let counter = |name: &str| mem.metrics.counter(name).unwrap_or(0);
    let history: String = mem
        .statements_history
        .iter()
        .map(|e| format!("{}:{}:{:?};", e.thread_id, e.event_id, e.text_ptr))
        .collect();
    format!(
        "heap={:016x} bytes={} allocs={} reused={} cache_hits={}\n\
         history={} {:016x}\n\
         digests={} {:016x}",
        fnv(&mem.heap),
        mem.heap.len(),
        counter("heap.allocs"),
        counter("heap.reused_allocs"),
        counter("sql.query_cache_hits"),
        mem.statements_history.len(),
        fnv(history.as_bytes()),
        mem.digest_summary.len(),
        fnv(format!("{:?}", mem.digest_summary).as_bytes()),
    )
}

/// Runs the stream; returns the primary's and the replica's surfaces
/// and the number of failed statements on each.
fn run() -> (String, String, usize, usize) {
    let primary = Db::open(DbConfig::default());
    let replica = Db::open(DbConfig {
        read_only: true,
        ..DbConfig::default()
    });
    let a = primary.connect("app");
    let b = primary.connect("ops");
    let mut failed = 0;
    let mut apply_failed = 0;
    // A primary write that succeeds is shipped to the replica.
    let mut write = |sql: &str, failed: &mut usize| match a.execute(sql) {
        Ok(_) => {
            if replica.apply_replicated(sql, primary.now()).is_err() {
                apply_failed += 1;
            }
        }
        Err(_) => *failed += 1,
    };

    write("CREATE TABLE kv (id INT PRIMARY KEY, v TEXT)", &mut failed);
    a.execute("CREATE TABLE tag (id INT PRIMARY KEY, name TEXT)")
        .unwrap();
    for i in 0..12 {
        a.execute(&format!("INSERT INTO tag VALUES ({i}, 'tag-{i:03}')"))
            .unwrap();
    }
    let mut rng = Rng(0x5EED_0027);
    for i in 0..40 {
        let v = literal(&mut rng, i % 23);
        write(&format!("INSERT INTO kv VALUES ({i}, {v})"), &mut failed);
    }
    let mut next_id = 40;
    let run = |conn: &minidb::Connection, sql: &str, failed: &mut usize| {
        if conn.execute(sql).is_err() {
            *failed += 1;
        }
    };
    for _ in 0..150 {
        let id = rng.below(next_id);
        let len = rng.below(40);
        let v = literal(&mut rng, len);
        // One write to `kv`…
        match rng.below(4) {
            0 | 1 => write(
                &format!("UPDATE kv SET v = {v} WHERE id = {id}"),
                &mut failed,
            ),
            2 => {
                write(
                    &format!("INSERT INTO kv VALUES ({next_id}, {v})"),
                    &mut failed,
                );
                next_id += 1;
            }
            _ => write(&format!("DELETE FROM kv WHERE id = {id}"), &mut failed),
        }
        // …then at most one SELECT on it before the next write.
        match rng.below(3) {
            0 => run(
                &b,
                &format!("SELECT v FROM kv WHERE id = {id}"),
                &mut failed,
            ),
            1 => run(&b, &format!("SELECT id FROM kv WHERE v = {v}"), &mut failed),
            _ => {}
        }
        // A read of `tag` from a small set of texts: cache hits.
        let t = rng.below(6);
        run(
            &a,
            &format!("SELECT name FROM tag WHERE id = {t}"),
            &mut failed,
        );
        // And one of the rest.
        match rng.below(6) {
            0 => run(&b, &format!("INSERT INTO kv VALUES ({v}"), &mut failed),
            1 => run(&a, &format!("SELEC v FROM kv WHERE id = {id}"), &mut failed),
            2 => run(
                &b,
                &format!("SELECT v FROM kv WHERE v = {v} AND € = 1"),
                &mut failed,
            ),
            3 => run(
                &a,
                &format!("SELECT v FROM kv WHERE v = 'open{id}"),
                &mut failed,
            ),
            4 => run(
                &b,
                &format!("EXPLAIN ANALYZE SELECT name FROM tag WHERE id >= {t} AND name != {v}"),
                &mut failed,
            ),
            _ => run(
                &a,
                &format!("SELECT COUNT(*) FROM tag WHERE name = {v}"),
                &mut failed,
            ),
        }
    }
    // The applier's failure paths: a parse error and unlexable text.
    for sql in [
        "UPDATE kv SET v = 'x' WHERE",
        "UPDATE kv SET v = '€ WHERE id = 1",
    ] {
        if replica.apply_replicated(sql, primary.now()).is_err() {
            apply_failed += 1;
        }
    }
    (surfaces(&primary), surfaces(&replica), failed, apply_failed)
}

#[test]
fn statement_text_leaves_the_same_heap_and_digests() {
    let (primary, replica, failed, apply_failed) = run();
    // Parse errors and unlexable text, on purpose.
    assert_eq!((failed, apply_failed), (96, 2), "failed statements");
    assert_eq!(
        primary,
        "heap=0a0512507ff416aa bytes=7200 allocs=1659 reused=1556 cache_hits=144\n\
         history=20 fcef2226f51a3dd4\n\
         digests=14 111449fdb2d0b652"
    );
    assert_eq!(
        replica,
        "heap=01db919490bd9399 bytes=1648 allocs=539 reused=508 cache_hits=0\n\
         history=10 7ef24f3f8a7d4109\n\
         digests=6 3b3d84dbb2903e8a"
    );
}
