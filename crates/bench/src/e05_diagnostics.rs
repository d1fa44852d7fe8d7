//! E5 — §4 "Diagnostic Tables": everything a SQL-injection attacker reads
//! with plain `SELECT`s — processlist, per-thread statement history
//! (10 entries), and the digest summary including the paper's worked
//! canonicalization example.
//!
//! E5d extends the section to the engine's telemetry registry: after the
//! operator wipes the performance schema (`FLUSH STATUS` / `TRUNCATE
//! performance_schema.*`, modeled by `Db::flush_diagnostics`), the
//! statement history reads back empty — but `information_schema.metrics`
//! still serves the lifetime per-table access counters, so the injected
//! attacker recovers the victim's query distribution anyway.

use minidb::engine::{Db, DbConfig};
use minidb::value::Value;
use snapshot_attack::report::Table;
use snapshot_attack::threat::{capture, AttackVector};

use crate::Options;

/// An INT result value; 0 for any other kind.
fn int(v: &Value) -> i64 {
    match v {
        Value::Int(n) => *n,
        _ => 0,
    }
}

/// Runs the experiment.
pub fn run(opts: &Options) -> Vec<Table> {
    let config = DbConfig {
        redo_capacity: 1 << 20,
        undo_capacity: 1 << 20,
        ..DbConfig::default()
    };
    let db = Db::open(config);
    let setup = db.connect("app");
    setup
        .execute("CREATE TABLE customers (id INT PRIMARY KEY, state TEXT, age INT)")
        .unwrap();
    for i in 0..40 {
        setup
            .execute(&format!(
                "INSERT INTO customers VALUES ({i}, '{}', {})",
                if i % 3 == 0 { "IN" } else { "AZ" },
                20 + i
            ))
            .unwrap();
    }

    // The victim's queries — including the paper's §4 worked example.
    let victim = db.connect("webapp");
    let paper_queries = [
        "SELECT * FROM CUSTOMERS WHERE STATE='IN'",
        "SELECT * FROM CUSTOMERS WHERE STATE='AZ'",
        "SELECT * FROM CUSTOMERS WHERE AGE >=25",
        "SELECT * FROM CUSTOMERS WHERE STATE='IN' AND AGE >=25",
    ];
    for q in paper_queries {
        victim.execute(q).unwrap();
    }
    for i in 0..20 {
        victim
            .execute(&format!("SELECT * FROM customers WHERE id = {i}"))
            .unwrap();
    }

    // ---- attacker: SQL injection, running as the web app's DB user ----
    let obs = capture(&db, AttackVector::SqlInjection);
    let inj = obs.sql.expect("sql injection has live SQL");

    let mut t_hist = Table::new(
        "E5a - events_statements_history via SQL injection (victim thread)",
        &["thread", "sql_text"],
    );
    let hist = inj
        .execute(&format!(
            "SELECT thread_id, sql_text FROM performance_schema.events_statements_history \
             WHERE thread_id = {}",
            victim.id
        ))
        .unwrap();
    for row in &hist.rows {
        t_hist.row(&[row[0].to_string(), row[1].to_string()]);
    }
    t_hist.claim(
        "the history holds the victim thread's last 10 statements",
        hist.rows.len() == 10,
    );

    let mut t_digest = Table::new(
        "E5b - events_statements_summary_by_digest (query 'types' since restart)",
        &["digest_text", "count_star", "sum_rows_examined"],
    );
    let digests = inj
        .execute(
            "SELECT digest_text, count_star, sum_rows_examined \
             FROM performance_schema.events_statements_summary_by_digest \
             ORDER BY count_star DESC",
        )
        .unwrap();
    for row in &digests.rows {
        t_digest.row(&[row[0].to_string(), row[1].to_string(), row[2].to_string()]);
    }
    // The count of the first digest (highest count first) whose text
    // contains `needle`.
    let count = |needle: &str| {
        digests
            .rows
            .iter()
            .find(|r| r[0].to_string().contains(needle))
            .map_or(0, |r| int(&r[1]))
    };
    t_digest.claim(
        "the paper's 4 queries leave 3 digests: STATE='IN' and 'AZ' share one (count 2)",
        count("WHERE state = ?") == 2
            && count("WHERE age >= ?") == 1
            && count("WHERE state = ? AND age >= ?") == 1,
    );
    t_digest.claim(
        "the 20 point queries share one digest",
        count("WHERE id = ?") == 20,
    );

    let mut t_proc = Table::new(
        "E5c - information_schema.processlist (live queries)",
        &["id", "user", "time", "info"],
    );
    let procs = inj
        .execute("SELECT * FROM information_schema.processlist")
        .unwrap();
    for row in &procs.rows {
        t_proc.row(&[
            row[0].to_string(),
            row[1].to_string(),
            row[2].to_string(),
            row[3].to_string(),
        ]);
    }
    t_proc.claim(
        "the attacker sees its own injected query in the processlist",
        procs
            .rows
            .iter()
            .any(|r| r[3].to_string().contains("processlist")),
    );
    // ---- E5d: the perf schema gets wiped; the metrics registry doesn't.
    // Model a defender reacting to E5a-c: TRUNCATE performance_schema.*
    // + FLUSH STATUS. Then inject again.
    db.flush_diagnostics();
    let mut t_metrics = Table::new(
        "E5d - information_schema.metrics AFTER the perf schema is wiped",
        &["metric", "value", "history rows left"],
    );
    let hist_after = inj
        .execute("SELECT thread_id, sql_text FROM performance_schema.events_statements_history")
        .unwrap()
        .rows
        .len();
    let metrics = inj
        .execute("SELECT metric, kind, value FROM information_schema.metrics")
        .unwrap();
    for row in &metrics.rows {
        let name = row[0].to_string();
        if name.starts_with("sql.table_access.") || name == "sql.statements" {
            t_metrics.row(&[name, row[2].to_string(), hist_after.to_string()]);
        }
    }
    let metric = |name: &str| {
        metrics
            .rows
            .iter()
            .find(|r| r[0].to_string() == name)
            .map_or(0, |r| int(&r[2]))
    };
    t_metrics.claim("the wipe leaves no statement history", hist_after == 0);
    // 40 inserts + 24 victim selects, at minimum.
    t_metrics.claim(
        "the registry still counts >= 64 accesses to customers and >= 65 statements",
        metric("sql.table_access.customers") >= 64 && metric("sql.statements") >= 65,
    );
    opts.absorb_db(&db);
    vec![t_hist, t_digest, t_proc, t_metrics]
}
