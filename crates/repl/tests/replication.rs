//! End-to-end replication scenarios: the full primary → replica pipeline
//! over both transports, relay-log persistence across primary-side binlog
//! purges, and idempotent resume after disconnects and restarts.

use std::sync::atomic::Ordering;
use std::time::Duration;

use mdb_repl::replica::Replica;
use mdb_repl::router::{ReadTarget, ReplicaSet, ReplicaSetConfig, TransportKind};
use mdb_repl::transport::{duplex, Transport};
use mdb_repl::{PrimaryServer, ReplError};
use minidb::wal::{carve_frames, BinlogEvent};
use minidb::{Db, DbConfig};

fn wait_until(mut cond: impl FnMut() -> bool, timeout: Duration) -> bool {
    let deadline = std::time::Instant::now() + timeout;
    while std::time::Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    cond()
}

/// The core leakage claim: purge the PRIMARY's binlog, and every shipped
/// statement still sits in each replica's relay log, carvable with the
/// same frame scan as the binlog itself.
#[test]
fn relay_log_survives_primary_binlog_purge() {
    let mut set = ReplicaSet::start(ReplicaSetConfig::default()).unwrap();
    set.write("CREATE TABLE patients (id INT PRIMARY KEY, diagnosis TEXT)")
        .unwrap();
    for i in 0..8 {
        set.write(&format!("INSERT INTO patients VALUES ({i}, 'dx{i}')"))
            .unwrap();
    }
    assert!(set.wait_for_sync(Duration::from_secs(5)));

    // Hygiene on the primary: PURGE BINARY LOGS.
    set.primary().purge_binlog();
    let primary_disk = set.primary().system_image().disk;
    let binlog = primary_disk
        .files
        .iter()
        .find(|(name, _)| name.contains("binlog"))
        .map(|(_, data)| data.clone())
        .unwrap_or_default();
    assert!(
        carve_frames(&binlog)
            .iter()
            .filter_map(|(_, p)| BinlogEvent::decode(p).ok())
            .count()
            == 0,
        "purged primary binlog should carve empty"
    );

    // Each replica's relay log still holds the full statement history.
    for i in 0..set.replica_count() {
        let image = set.replica(i).system_image();
        let (_, relay) = image
            .disk
            .files
            .iter()
            .find(|(name, _)| name.starts_with("relay-bin.0"))
            .expect("replica disk image contains the relay log");
        let stmts: Vec<BinlogEvent> = carve_frames(relay)
            .iter()
            .filter_map(|(_, p)| BinlogEvent::decode(p).ok())
            .collect();
        assert_eq!(stmts.len(), 9, "replica {i} relays every statement");
        assert!(stmts.iter().any(|e| e.statement.contains("dx7")));
        assert!(stmts.iter().all(|e| e.timestamp > 0));
    }
    set.shutdown();
}

/// A replica restarted from its own disk resumes at the right position
/// and does not re-apply (or re-relay) events it already has.
#[test]
fn restarted_replica_resumes_without_duplicates() {
    let primary = Db::open(DbConfig::default());
    let server = PrimaryServer::new(primary.clone());
    let replica_db = Db::open(DbConfig {
        server_id: 2,
        read_only: true,
        ..DbConfig::default()
    });

    let connect = |server: &PrimaryServer| {
        let (p_end, r_end) = duplex();
        server.serve(Box::new(p_end));
        r_end
    };

    // Phase 1: replicate a few writes, then stop the replica.
    let conn = primary.connect("root");
    conn.execute("CREATE TABLE t (id INT PRIMARY KEY)").unwrap();
    for i in 0..5 {
        conn.execute(&format!("INSERT INTO t VALUES ({i})"))
            .unwrap();
    }
    let mut endpoints = vec![connect(&server)];
    let mut replica = Replica::start(
        replica_db.clone(),
        Box::new(move || {
            endpoints
                .pop()
                .map(|e| Box::new(e) as Box<dyn Transport>)
                .ok_or(ReplError::Disconnected)
        }),
    );
    let shared = replica.shared();
    let target = primary.binlog_next_seq();
    assert!(wait_until(
        || shared.next_seq.load(Ordering::SeqCst) >= target,
        Duration::from_secs(5)
    ));
    replica.stop();
    let relay_len_before = replica_db
        .read_server_file("relay-bin.000001")
        .unwrap()
        .len();

    // Phase 2: more writes while the replica is down, then restart it.
    for i in 5..9 {
        conn.execute(&format!("INSERT INTO t VALUES ({i})"))
            .unwrap();
    }
    let mut endpoints = vec![connect(&server)];
    let mut replica = Replica::start(
        replica_db.clone(),
        Box::new(move || {
            endpoints
                .pop()
                .map(|e| Box::new(e) as Box<dyn Transport>)
                .ok_or(ReplError::Disconnected)
        }),
    );
    let shared = replica.shared();
    let target = primary.binlog_next_seq();
    assert!(wait_until(
        || shared.next_seq.load(Ordering::SeqCst) >= target,
        Duration::from_secs(5)
    ));

    // Exactly the 4 missed events were relayed on top — no rewind.
    let relay = replica_db.read_server_file("relay-bin.000001").unwrap();
    let events: Vec<BinlogEvent> = carve_frames(&relay)
        .iter()
        .filter_map(|(_, p)| BinlogEvent::decode(p).ok())
        .collect();
    assert_eq!(events.len() as u64, target, "one relay entry per event");
    assert!(relay.len() > relay_len_before);

    // And the table has no duplicate rows.
    let rconn = replica_db.connect("reader");
    let rows = rconn.execute("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(rows.rows[0][0].to_string(), "9");
    replica.stop();
    server.shutdown();
}

/// The same topology over loopback TCP: the stream crosses a real socket.
#[test]
fn replica_set_over_tcp() {
    let mut set = ReplicaSet::start(ReplicaSetConfig {
        replicas: 2,
        transport: TransportKind::Tcp,
        ..ReplicaSetConfig::default()
    })
    .unwrap();
    set.write("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
        .unwrap();
    for i in 0..12 {
        set.write(&format!("INSERT INTO t VALUES ({i}, 'v{i}')"))
            .unwrap();
    }
    assert!(set.wait_for_sync(Duration::from_secs(10)));
    assert!(matches!(set.route_read(), ReadTarget::Replica(_)));
    let rows = set.read("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(rows.rows[0][0].to_string(), "12");

    // Lag is visible through SQL on the primary.
    let admin = set.primary().connect("admin");
    let status = admin
        .execute("SELECT replica_id, state, next_seq, lag_events FROM information_schema.replicas")
        .unwrap();
    assert_eq!(status.rows.len(), 2);
    set.shutdown();
}

/// Writes on a replica are refused; the set routes them to the primary.
#[test]
fn read_only_gate_and_write_routing() {
    let mut set = ReplicaSet::start(ReplicaSetConfig {
        replicas: 1,
        ..ReplicaSetConfig::default()
    })
    .unwrap();
    set.write("CREATE TABLE t (id INT PRIMARY KEY)").unwrap();
    assert!(set.wait_for_sync(Duration::from_secs(5)));
    let direct = set.replica(0).connect("intruder");
    assert_eq!(
        direct.execute("INSERT INTO t VALUES (1)"),
        Err(minidb::DbError::ReadOnly)
    );
    // The router's write path lands on the primary and replicates out.
    set.write("INSERT INTO t VALUES (1)").unwrap();
    assert!(set.wait_for_sync(Duration::from_secs(5)));
    let rows = set.read("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(rows.rows[0][0].to_string(), "1");
    set.shutdown();
}

#[test]
fn lag_histograms_populate_with_percentiles() {
    // ROADMAP item: `wait_for_sync` latency and relay-apply latency are
    // histograms on the primary/replica registries, so lag percentiles
    // (p50/p95/p99) come from telemetry instead of ad-hoc timers — and
    // surface on the status port like every other histogram.
    let mut set = ReplicaSet::start(ReplicaSetConfig::default()).unwrap();
    set.write("CREATE TABLE t (id INT PRIMARY KEY)").unwrap();
    for i in 0..20 {
        set.write(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        if i % 5 == 4 {
            assert!(set.wait_for_sync(Duration::from_secs(5)));
        }
    }
    assert!(set.wait_for_sync(Duration::from_secs(5)));

    let snap = set.primary().telemetry().snapshot();
    let wait = snap
        .histogram("repl.wait_for_sync_us")
        .expect("wait_for_sync must record a histogram");
    assert_eq!(wait.count, 5);
    // Percentile upper bounds are monotone and bracket the recorded data.
    assert!(wait.p50() <= wait.p95() && wait.p95() <= wait.p99());
    assert!(wait.p99() >= wait.p50());
    assert_eq!(wait.p99(), wait.quantile_upper_bound(0.99));

    let rsnap = set.replica(0).telemetry().snapshot();
    let apply = rsnap
        .histogram("repl.apply_latency_us")
        .expect("apply loop must record per-event latency");
    assert_eq!(apply.count, 21, "one sample per applied event");
    assert!(apply.sum > 0);
    assert!(apply.p95() >= apply.p50());
    set.shutdown();
}

/// The E14 mitigation, end to end: an `encrypted_wal` fleet ships sealed
/// binlog records over the wire and into every relay log. The replicas
/// still apply every statement (they hold the log key), but a snapshot
/// attacker carving any disk in the fleet — primary binlog or replica
/// relay — recovers zero plaintext statements.
#[test]
fn encrypted_fleet_ships_ciphertext_end_to_end() {
    let key = [0x42u8; 32];
    let mut set = ReplicaSet::start(ReplicaSetConfig {
        base: DbConfig {
            encrypted_wal: true,
            wal_key: Some(key),
            group_commit: true,
            ..DbConfig::default()
        },
        ..ReplicaSetConfig::default()
    })
    .unwrap();
    set.write("CREATE TABLE patients (id INT PRIMARY KEY, diagnosis TEXT)")
        .unwrap();
    for i in 0..6 {
        set.write(&format!(
            "INSERT INTO patients VALUES ({i}, 'hiv-status-{i}')"
        ))
        .unwrap();
    }
    assert!(set.wait_for_sync(Duration::from_secs(5)));

    // Replication worked: the rows are readable on a replica.
    let rows = set.read("SELECT COUNT(*) FROM patients").unwrap();
    assert_eq!(rows.rows[0][0].to_string(), "6");

    // Gather every log surface in the fleet: primary binlog + all relays.
    let mut surfaces: Vec<(String, Vec<u8>)> = Vec::new();
    let primary_disk = set.primary().system_image().disk;
    for (name, data) in &primary_disk.files {
        if name.contains("binlog") {
            surfaces.push((format!("primary:{name}"), data.clone()));
        }
    }
    for i in 0..set.replica_count() {
        let image = set.replica(i).system_image();
        for (name, data) in &image.disk.files {
            if name.starts_with("relay-bin.0") {
                surfaces.push((format!("replica{i}:{name}"), data.clone()));
            }
        }
    }
    assert!(surfaces.len() >= 3, "binlog + one relay per replica");

    for (label, raw) in &surfaces {
        let plaintext_events = carve_frames(raw)
            .iter()
            .filter_map(|(_, p)| BinlogEvent::decode(p).ok())
            .count();
        assert_eq!(plaintext_events, 0, "{label} carved plaintext events");
        assert!(
            !raw.windows(10).any(|w| w == b"hiv-status"),
            "{label} leaks a plaintext column value"
        );
        assert!(
            !raw.windows(6).any(|w| w == b"INSERT"),
            "{label} leaks plaintext SQL"
        );
    }

    // Cross-node nonce safety: the replica re-logs every applied
    // statement into its *own* binlog at the same (stream, seq)
    // positions the primary used, with near-identical plaintexts, under
    // the same fleet key. Per-origin subkeys must keep those keystreams
    // disjoint — shared keystreams would leave the two binlogs
    // near-identical (XOR of the ciphertexts = XOR of the plaintexts,
    // which is ~zero here), handing a two-image attacker the E2/E3
    // channels back.
    use edb_crypto::logenc::{HEADER_LEN, TAG_LEN};
    use minidb::wal::{carve_enc_frames, WalCrypto, BINLOG_FILE};
    let opener = WalCrypto::new(key, 0);
    let primary_binlog = primary_disk.file(BINLOG_FILE).unwrap().to_vec();
    let p_frames = carve_enc_frames(&primary_binlog);
    assert!(!p_frames.is_empty());
    let replica_image = set.replica(0).system_image();
    let replica_binlog = replica_image.disk.file(BINLOG_FILE).unwrap();
    let r_frames = carve_enc_frames(replica_binlog);
    assert!(!r_frames.is_empty(), "replica re-logs applied statements");
    let mut compared = 0;
    for ((_, pf), (_, rf)) in p_frames.iter().zip(&r_frames) {
        let (p_origin, _, p_seq, p_plain) = opener.open(pf).expect("primary frame opens");
        let (r_origin, _, r_seq, r_plain) = opener.open(rf).expect("replica frame opens");
        assert_ne!(p_origin, r_origin, "two nodes sealed under one origin");
        if p_seq != r_seq {
            continue;
        }
        // Same (stream, seq) on two nodes: XORing the ciphertext bodies
        // must not reveal the plaintext XOR (with a shared keystream it
        // would, exactly — and these plaintexts are near-identical, so
        // the leak would be near-total).
        let pb = &pf[HEADER_LEN..pf.len() - TAG_LEN];
        let rb = &rf[HEADER_LEN..rf.len() - TAG_LEN];
        let n = pb.len().min(rb.len());
        let ct_xor: Vec<u8> = pb[..n].iter().zip(&rb[..n]).map(|(a, b)| a ^ b).collect();
        let pt_xor: Vec<u8> = p_plain[..n.min(p_plain.len())]
            .iter()
            .zip(&r_plain[..n.min(r_plain.len())])
            .map(|(a, b)| a ^ b)
            .collect();
        assert_ne!(
            &ct_xor[..pt_xor.len()],
            &pt_xor[..],
            "cross-node keystream reuse at seq {p_seq}"
        );
        compared += 1;
    }
    assert!(compared > 0, "no cross-node position collision exercised");
    set.shutdown();
}
