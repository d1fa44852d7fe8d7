//! End-to-end tests for the engine's observability port: a live `Db`
//! with `obs` set, probed over real TCP with the crate's
//! curl-style client — `/metrics`, `/healthz`, `/varz` — plus the
//! diagnostics-wipe contract for the scrape retention ring.

use mdb_obs::{http, prom, ObsOptions};
use minidb::{Db, DbConfig};

fn obs_config() -> DbConfig {
    DbConfig {
        obs: Some(ObsOptions::default()),
        ..DbConfig::default()
    }
}

fn seed(db: &Db) {
    let conn = db.connect("app");
    conn.execute("CREATE TABLE patients (id INT PRIMARY KEY, age INT)")
        .unwrap();
    for i in 0..10 {
        conn.execute(&format!("INSERT INTO patients VALUES ({i}, {})", 20 + i))
            .unwrap();
    }
    conn.execute("SELECT * FROM patients WHERE age >= 25")
        .unwrap();
}

#[test]
fn metrics_healthz_varz_against_live_db() {
    let db = Db::open(obs_config());
    let addr = db.obs_addr().expect("obs server must be running");
    seed(&db);

    // /metrics: exposition parses, and the engine's counters are there
    // with exact original names recoverable from the `name` label.
    let (status, body) = http::get(addr, "/metrics", None).unwrap();
    assert_eq!(status, 200);
    let samples = prom::parse(&body).expect("exposition must parse");
    let find = |name: &str| {
        samples
            .iter()
            .find(|s| s.metric_name() == Some(name) && !s.series.ends_with("_bucket"))
            .unwrap_or_else(|| panic!("missing {name} in:\n{body}"))
    };
    assert_eq!(find("sql.statements").value_u64(), Some(12));
    // Per-table access counters leak the (user-chosen) table name.
    assert!(find("sql.table_access.patients").value_u64().unwrap() >= 11);
    // Histogram series carry _sum/_count; rows_returned sums the SELECT.
    let sum = samples
        .iter()
        .find(|s| s.series.ends_with("_sum") && s.metric_name() == Some("sql.rows_returned"))
        .unwrap();
    assert!(sum.value_u64().unwrap() >= 5, "{body}");

    // /healthz: ready, with WAL and bufpool components.
    let (status, body) = http::get(addr, "/healthz", None).unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"ready\":true"), "{body}");
    assert!(body.contains("\"wal\""), "{body}");
    assert!(body.contains("\"bufpool\""), "{body}");

    // /varz: the registry's JSON dump plus server meta.
    let (status, body) = http::get(addr, "/varz", None).unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"retained_scrapes\":1"), "{body}");
    assert!(body.contains("sql.statements"), "{body}");

    db.shutdown();
    // After shutdown the server is gone: the address stops accepting.
    assert!(db.obs_addr().is_none());
}

#[test]
fn crashed_engine_reports_not_ready() {
    let db = Db::open(obs_config());
    let addr = db.obs_addr().unwrap();
    seed(&db);
    db.crash();
    let (status, body) = http::get(addr, "/healthz", None).unwrap();
    assert_eq!(status, 503);
    assert!(body.contains("\"ready\":false"), "{body}");
    assert!(body.contains("crashed"), "{body}");
    db.recover().unwrap();
    let (status, _) = http::get(addr, "/healthz", None).unwrap();
    assert_eq!(status, 200);
}

#[test]
fn auth_token_gates_the_data_endpoints() {
    let db = Db::open(DbConfig {
        obs: Some(ObsOptions {
            auth_token: Some("scrape-secret".into()),
            ..ObsOptions::default()
        }),
        ..DbConfig::default()
    });
    let addr = db.obs_addr().unwrap();
    assert_eq!(http::get(addr, "/metrics", None).unwrap().0, 401);
    assert_eq!(http::get(addr, "/varz", None).unwrap().0, 401);
    assert_eq!(http::get(addr, "/healthz", None).unwrap().0, 200);
    let (status, _) = http::get(addr, "/metrics", Some("scrape-secret")).unwrap();
    assert_eq!(status, 200);
}

#[test]
fn flush_diagnostics_clears_the_retention_ring() {
    // Regression: `flush_diagnostics` + `telemetry_scrub_on_flush` must
    // clear the obs retention ring along with the registry and trace
    // ring — retained scrape deltas ARE diagnostics state.
    let db = Db::open(DbConfig {
        telemetry_scrub_on_flush: true,
        ..obs_config()
    });
    let addr = db.obs_addr().unwrap();
    let ring = db.obs_ring().unwrap();
    seed(&db);
    for _ in 0..3 {
        http::get(addr, "/metrics", None).unwrap();
    }
    assert_eq!(ring.len(), 3);
    assert!(ring
        .entries()
        .last()
        .unwrap()
        .totals
        .counter("sql.statements")
        .is_some());

    db.flush_diagnostics();
    assert!(
        ring.is_empty(),
        "flush_diagnostics must clear the scrape ring"
    );

    // And the next scrape starts from scrubbed counters: no residual
    // totals, no deltas against pre-flush state.
    let (_, body) = http::get(addr, "/metrics", None).unwrap();
    let samples = prom::parse(&body).unwrap();
    let stm = samples
        .iter()
        .find(|s| s.metric_name() == Some("sql.statements"))
        .unwrap();
    assert_eq!(stm.value_u64(), Some(0));
    assert_eq!(ring.len(), 1);
    assert!(ring.entries()[0].counter_deltas.is_empty());
}

#[test]
fn flush_without_scrub_flag_keeps_the_ring() {
    // Default config: FLUSH wipes perf_schema but the status port keeps
    // its retention — the forgotten-surface default E17 exploits.
    let db = Db::open(obs_config());
    let addr = db.obs_addr().unwrap();
    let ring = db.obs_ring().unwrap();
    seed(&db);
    http::get(addr, "/metrics", None).unwrap();
    http::get(addr, "/metrics", None).unwrap();
    db.flush_diagnostics();
    assert_eq!(
        ring.len(),
        2,
        "default flush must NOT clear the scrape ring"
    );
}

#[test]
fn crash_clears_ring_and_scrub_config_quantizes() {
    let db = Db::open(DbConfig {
        obs: Some(ObsOptions {
            scrub: true,
            ..ObsOptions::default()
        }),
        ..DbConfig::default()
    });
    let addr = db.obs_addr().unwrap();
    seed(&db);
    let (_, body) = http::get(addr, "/metrics", None).unwrap();
    // Scrubbed exposition: no per-table series, quantized statements.
    assert!(!body.contains("table_access"), "{body}");
    let samples = prom::parse(&body).unwrap();
    let stm = samples
        .iter()
        .find(|s| s.metric_name() == Some("sql.statements"))
        .unwrap();
    assert_eq!(stm.value_u64(), Some(16)); // 12 → next power of two.

    let ring = db.obs_ring().unwrap();
    assert_eq!(ring.len(), 1);
    db.crash();
    assert!(ring.is_empty(), "crash must drop retained scrapes");
}

#[test]
fn group_commit_metrics_surface_on_both_planes() {
    // The group-commit pipeline's telemetry — `wal.fsyncs` (now one per
    // coalesced batch), the `wal.group_commit_batch_size` histogram, and
    // the `wal.group_commit_waits` counter — must show up on BOTH
    // operator planes: the remote `/metrics` scrape and the SQL-visible
    // `information_schema.metrics` table.
    let db = Db::open(DbConfig {
        group_commit: true,
        ..obs_config()
    });
    let addr = db.obs_addr().unwrap();
    let conn = db.connect("app");
    conn.execute("CREATE TABLE t (id INT PRIMARY KEY)").unwrap();
    // Concurrent committers so at least one commit rides a batch behind
    // an in-progress flush.
    std::thread::scope(|s| {
        for t in 0..4usize {
            let db = db.clone();
            s.spawn(move || {
                let c = db.connect("w");
                for i in 0..10usize {
                    c.execute(&format!("INSERT INTO t VALUES ({})", t * 10 + i))
                        .unwrap();
                }
            });
        }
    });

    // Plane 1: the Prometheus scrape.
    let (status, body) = http::get(addr, "/metrics", None).unwrap();
    assert_eq!(status, 200);
    let samples = prom::parse(&body).unwrap();
    let find = |name: &str| {
        samples
            .iter()
            .find(|s| s.metric_name() == Some(name) && !s.series.ends_with("_bucket"))
            .unwrap_or_else(|| panic!("missing {name} in:\n{body}"))
    };
    let fsyncs = find("wal.fsyncs").value_u64().unwrap();
    // The satellite accounting fix: 41 commits (40 inserts + 1 DDL) must
    // have coalesced into strictly fewer device syncs than statements.
    assert!((1..=41).contains(&fsyncs), "{fsyncs} fsyncs");
    assert!(
        body.contains("wal.group_commit_batch_size"),
        "batch-size histogram missing:\n{body}"
    );
    find("wal.group_commit_waits");

    // Plane 2: plain SQL.
    let rows = conn
        .execute("SELECT metric, value FROM information_schema.metrics")
        .unwrap();
    let sql_metric = |name: &str| {
        rows.rows
            .iter()
            .find(|r| r[0].to_string() == name)
            .unwrap_or_else(|| panic!("missing {name} in information_schema.metrics"))[1]
            .to_string()
            .parse::<i64>()
            .unwrap()
    };
    assert_eq!(sql_metric("wal.fsyncs") as u64, fsyncs);
    let batches = sql_metric("wal.group_commit_batch_size.count");
    assert_eq!(batches as u64, fsyncs, "one histogram sample per batch");
    assert!(sql_metric("wal.group_commit_waits") >= 0);
}
