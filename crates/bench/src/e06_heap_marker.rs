//! E6 — §5's heap-persistence experiment, re-run script-for-script:
//!
//! 1. issue a `SELECT` with a random string that appears nowhere in the
//!    database;
//! 2. issue 100 matching and 900 non-matching `SELECT`s;
//! 3. insert 500 random rows and make 1,000 more `SELECT`s;
//! 4. wait ~20 minutes, make 100,000 more `SELECT`s;
//! 5. dump the process memory and count occurrences of the original
//!    query text and of the random string alone.
//!
//! The paper found the full query text in **3** distinct locations and
//! the bare string in 3 more.

use minidb::engine::{Db, DbConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snapshot_attack::forensics::memscan;
use snapshot_attack::report::Table;

use crate::Options;

fn random_token(rng: &mut StdRng, len: usize) -> String {
    const ALPHA: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
    (0..len)
        .map(|_| ALPHA[rng.gen_range(0..ALPHA.len())] as char)
        .collect()
}

/// Runs the experiment.
pub fn run(opts: &Options) -> Vec<Table> {
    let tail_queries = if opts.quick { 2_000 } else { 100_000 };
    let mut rng = StdRng::seed_from_u64(opts.seed);

    let config = DbConfig {
        redo_capacity: 8 << 20,
        undo_capacity: 8 << 20,
        ..DbConfig::default()
    };
    let db = Db::open(config);
    let conn = db.connect("app");
    conn.execute("CREATE TABLE inbox (id INT PRIMARY KEY, sender TEXT, subject TEXT)")
        .unwrap();
    for i in 0..200 {
        conn.execute(&format!(
            "INSERT INTO inbox VALUES ({i}, 'user{}', 'subject {i}')",
            i % 17
        ))
        .unwrap();
    }

    // Step 1: the marker query — a random string as the filtered value,
    // matching no rows (the paper used a random column name; a random
    // WHERE parameter exercises the same allocation paths, and §5 repeats
    // the experiment both ways).
    let marker = random_token(&mut rng, 24);
    let marker_query = format!("SELECT * FROM inbox WHERE sender = '{marker}'");
    conn.execute(&marker_query).unwrap();

    // Step 2: 100 matching + 900 non-matching SELECTs.
    for i in 0..100 {
        conn.execute(&format!(
            "SELECT * FROM inbox WHERE sender = 'user{}'",
            i % 17
        ))
        .unwrap();
    }
    for i in 0..900 {
        conn.execute(&format!("SELECT * FROM inbox WHERE sender = 'ghost{i}'"))
            .unwrap();
    }
    // Step 3: 500 random inserts, 1,000 more SELECTs.
    for i in 0..500 {
        conn.execute(&format!(
            "INSERT INTO inbox VALUES ({}, 'u{}', '{}')",
            1000 + i,
            rng.gen_range(0..50),
            random_token(&mut rng, 40)
        ))
        .unwrap();
    }
    for i in 0..1000 {
        conn.execute(&format!("SELECT * FROM inbox WHERE id = {}", i % 1500))
            .unwrap();
    }
    // Step 4: wait ~20 minutes, then the long tail.
    db.advance_time(20 * 60);
    for i in 0..tail_queries {
        conn.execute(&format!("SELECT * FROM inbox WHERE id = {}", i % 1500))
            .unwrap();
    }

    // Step 5: dump memory and search.
    let mem = db.memory_image();
    let full_hits = memscan::count_occurrences(&mem.heap, marker_query.as_bytes());
    let marker_hits = memscan::count_occurrences(&mem.heap, marker.as_bytes());

    let mut t = Table::new(
        "E6 - marker query persistence in the process heap (paper: 3 + 3)",
        &["measurement", "this run", "paper"],
    );
    t.row(&[
        format!("full query text copies (len {})", marker_query.len()),
        full_hits.to_string(),
        "3".into(),
    ]);
    t.row(&[
        "marker string occurrences (incl. inside full copies)".into(),
        marker_hits.to_string(),
        "6".into(),
    ]);
    t.row(&[
        "statements executed after the marker".into(),
        (2_500 + tail_queries).to_string(),
        "102,000".into(),
    ]);
    t.row(&[
        "heap image size (bytes)".into(),
        mem.heap.len().to_string(),
        "-".into(),
    ]);
    t.claim(
        "the freed marker query text persists in the heap",
        full_hits >= 1,
    );
    t.claim(
        "the bare marker count includes the full copies",
        marker_hits >= full_hits,
    );
    opts.absorb_db(&db);
    vec![t]
}
