//! Cross-crate integration tests: each §6 attack pipeline, driven end to
//! end through the public APIs only — encrypted database on top of
//! MiniDB, realistic snapshot in the middle, leakage-abuse attack at the
//! end.

use edb_repro::edb::cryptdb::{ColumnCrypto, CryptDbProxy, EncColumn, Query};
use edb_repro::edb_crypto::swp::Trapdoor;
use edb_repro::edb_crypto::Key;
use edb_repro::minidb::engine::{Db, DbConfig};
use edb_repro::minidb::value::Value;
use edb_repro::snapshot_attack::forensics::memscan;
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
fn swp_trapdoor_breaks_semantic_security_from_a_snapshot() {
    let db = small_db();
    let mut proxy = CryptDbProxy::new(&db, Key([1u8; 32]), 5).unwrap();
    proxy
        .create_table(
            "mail",
            vec![
                EncColumn {
                    name: "id".into(),
                    crypto: ColumnCrypto::PlainInt,
                    primary_key: true,
                },
                EncColumn {
                    name: "body".into(),
                    crypto: ColumnCrypto::Search,
                    primary_key: false,
                },
            ],
        )
        .unwrap();
    let bodies = [
        "the acquisition closes friday",
        "cafeteria menu changes monday",
        "acquisition diligence documents attached",
    ];
    for (i, b) in bodies.iter().enumerate() {
        proxy
            .insert("mail", &[Value::Int(i as i64), Value::Text(b.to_string())])
            .unwrap();
    }
    // Victim searches once.
    proxy
        .select(
            "mail",
            &Query::Contains("body".into(), "acquisition".into()),
        )
        .unwrap();

    // Attacker: VM snapshot → carve the trapdoor → replay it.
    let obs = capture(&db, AttackVector::VmSnapshotLeak);
    let mem = obs.volatile_db.unwrap();
    let tokens: Vec<Trapdoor> = memscan::carve_tokens(&mem.heap)
        .iter()
        .filter_map(|b| Trapdoor::from_bytes(b))
        .collect();
    assert!(
        !tokens.is_empty(),
        "trapdoor must be carvable from the heap"
    );

    let conn = db.connect("attacker");
    let stored = conn.execute("SELECT id, body_swp FROM mail").unwrap();
    let mut matching = std::collections::BTreeSet::new();
    for td in &tokens {
        for row in &stored.rows {
            let Value::Bytes(blob) = &row[1] else {
                panic!()
            };
            let cts = edb_repro::edb::cryptdb::parse_swp_blob(blob).unwrap();
            if cts
                .iter()
                .any(|ct| edb_repro::edb_crypto::swp::server_match(td, ct))
            {
                let Value::Int(id) = row[0] else { panic!() };
                matching.insert(id);
            }
        }
    }
    // Semantic security is broken: the attacker distinguishes which
    // encrypted rows match the victim's keyword.
    assert_eq!(matching.into_iter().collect::<Vec<_>>(), vec![0, 2]);
}

#[test]
fn ore_tokens_from_heap_order_stolen_ciphertexts() {
    use edb_repro::edb_crypto::ore::{compare, LeftCiphertext, RightCiphertext};

    let db = small_db();
    let mut proxy = CryptDbProxy::new(&db, Key([2u8; 32]), 6).unwrap();
    proxy
        .create_table(
            "payroll",
            vec![
                EncColumn {
                    name: "id".into(),
                    crypto: ColumnCrypto::PlainInt,
                    primary_key: true,
                },
                EncColumn {
                    name: "salary".into(),
                    crypto: ColumnCrypto::Ore,
                    primary_key: false,
                },
            ],
        )
        .unwrap();
    let salaries = [45_000u32, 90_000, 61_000, 130_000];
    for (i, s) in salaries.iter().enumerate() {
        proxy
            .insert("payroll", &[Value::Int(i as i64), Value::Int(*s as i64)])
            .unwrap();
    }
    // Victim runs one range query; the two bound tokens hit the heap.
    proxy
        .select("payroll", &Query::Range("salary".into(), 60_000, 100_000))
        .unwrap();

    let obs = capture(&db, AttackVector::VmSnapshotLeak);
    let mem = obs.volatile_db.unwrap();
    let tokens: Vec<LeftCiphertext> = memscan::carve_tokens(&mem.heap)
        .iter()
        .filter_map(|b| LeftCiphertext::from_bytes(b).ok())
        .collect();
    assert!(tokens.len() >= 2, "both range-bound tokens recoverable");

    // Apply a token to every stolen right ciphertext: the attacker
    // partitions the encrypted column by order against the hidden bound.
    let conn = db.connect("attacker");
    let stored = conn.execute("SELECT id, salary_ore FROM payroll").unwrap();
    let mut partitions = Vec::new();
    for row in &stored.rows {
        let Value::Bytes(ct) = &row[1] else { panic!() };
        let right = RightCiphertext::from_bytes(ct).unwrap();
        let ord = compare(&tokens[0], &right).unwrap();
        partitions.push(ord);
    }
    // The partition is non-trivial (some above, some below the bound).
    assert!(partitions.iter().any(|o| o.is_lt()));
    assert!(partitions.iter().any(|o| o.is_gt()));
}

#[test]
fn det_column_leaks_histogram_to_pure_disk_theft() {
    let db = small_db();
    let mut proxy = CryptDbProxy::new(&db, Key([3u8; 32]), 7).unwrap();
    proxy
        .create_table(
            "patients",
            vec![
                EncColumn {
                    name: "id".into(),
                    crypto: ColumnCrypto::PlainInt,
                    primary_key: true,
                },
                EncColumn {
                    name: "diagnosis".into(),
                    crypto: ColumnCrypto::Det,
                    primary_key: false,
                },
            ],
        )
        .unwrap();
    let diagnoses = ["flu", "flu", "flu", "diabetes", "diabetes", "rare-disease"];
    for (i, d) in diagnoses.iter().enumerate() {
        proxy
            .insert(
                "patients",
                &[Value::Int(i as i64), Value::Text(d.to_string())],
            )
            .unwrap();
    }
    db.shutdown();

    // Disk theft: the redo log alone contains the DET ciphertexts; their
    // multiset is the plaintext histogram.
    let obs = capture(&db, AttackVector::DiskTheft);
    let disk = obs.persistent_db.unwrap();
    let writes = edb_repro::snapshot_attack::forensics::wal::reconstruct_writes(
        disk.file(edb_repro::minidb::wal::REDO_FILE).unwrap(),
    );
    let mut counts: std::collections::HashMap<Vec<u8>, usize> = Default::default();
    for w in writes.iter().filter_map(|w| w.row.as_ref()) {
        if let Value::Bytes(ct) = &w.values[1] {
            *counts.entry(ct.clone()).or_default() += 1;
        }
    }
    let mut histogram: Vec<usize> = counts.values().copied().collect();
    histogram.sort_unstable();
    assert_eq!(histogram, vec![1, 2, 3], "3-2-1 plaintext shape leaks");
}

#[test]
fn full_pipeline_survives_log_wraparound() {
    // Failure injection: the circular log wraps *during* the victim
    // workload; the attack still works on the surviving suffix.
    let config = DbConfig {
        redo_capacity: 64 * 1024,
        undo_capacity: 64 * 1024,
        ..DbConfig::default()
    };
    let db = Db::open(config);
    let conn = db.connect("app");
    conn.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
        .unwrap();
    for i in 0..2_000 {
        conn.execute(&format!("INSERT INTO t VALUES ({i}, 'row-{i}')"))
            .unwrap();
    }
    let disk = db.disk_image();
    let writes = edb_repro::snapshot_attack::forensics::wal::reconstruct_writes(
        disk.file(edb_repro::minidb::wal::REDO_FILE).unwrap(),
    );
    assert!(!writes.is_empty());
    assert!(writes.len() < 2_000, "wrap discarded the oldest records");
    // Every surviving record is intact and decodable.
    for w in &writes {
        if w.op == edb_repro::minidb::wal::OpKind::Insert {
            assert!(w.row.is_some(), "carved insert must decode");
        }
    }
    // LSNs are strictly increasing after the carve's sort.
    assert!(writes.windows(2).all(|w| w[0].lsn < w[1].lsn));
}
