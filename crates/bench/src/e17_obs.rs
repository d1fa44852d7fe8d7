//! E17 (extension) — the scrape channel: your status port is a remote
//! volume oracle.
//!
//! The victim is the E16 fixture — EDB-encrypted payloads, plaintext
//! range-queried `ts` — with one production-realistic addition: the
//! engine's observability port is on (`DbConfig::obs_listen`), serving
//! `/metrics` to whatever can open a TCP connection, the way every
//! Prometheus-scraped DBMS does. The attacker is
//! [`snapshot_attack::attacks::volume::RemoteObserver`]: it never sees
//! disk, memory, logs, or SQL — it polls `/metrics` on an interval and
//! diffs cumulative counters between scrapes. When at most one client
//! query lands per scrape window, the `sql.rows_returned` sum delta IS
//! that query's result volume, and for the victim's range family
//! (`ts <= k*STEP` over a dense column) the volume inverts straight to
//! the secret bound `k`.
//!
//! The experiment measures the channel's bandwidth against its
//! controls: recovery rate vs scrape interval (fast scrapes isolate
//! queries; slow scrapes merge them), then the two mitigation knobs —
//! `obs_scrub` (per-table series dropped, every value quantized to a
//! power of two) and bearer-token auth (the observer is simply denied).
//! A second table cross-checks the replication-lag histograms: the
//! p50/p95/p99 a remote scrape derives from `_bucket` lines must equal
//! the engine-side
//! [`HistogramSnapshot::p99`](mdb_telemetry::HistogramSnapshot::p99)
//! family — same data, no privileged access needed. A third gives the
//! channel's shape for a fixed seeded workload — series and body bytes
//! per scrape, plain and scrubbed (exact, since the engine's clock is
//! simulated) — and what a scrape costs in wall-clock time.

use std::time::{Duration, Instant};

use edb_crypto::{kdf, rnd, Key};
use mdb_obs::{http, prom};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snapshot_attack::attacks::volume::{
    denied_count, evaluate, infer_windows, invert_range_volume, scrapes, RemoteObserver,
};
use snapshot_attack::report::Table;

use crate::scanbench;
use crate::{pct, Options};

/// Scrape interval for the acceptance variant (the issue's criterion:
/// >= 80% per-query volume recovery at 100 ms).
const FAST_SCRAPE_MS: u64 = 100;
/// Slow-scraper variant: queries arrive faster than scrapes, so
/// volumes merge.
const SLOW_SCRAPE_MS: u64 = 500;
const MERGED_SPACING_MS: u64 = 180;

/// How the client paces its queries against the observer.
#[derive(Clone, Copy)]
enum Pacing {
    /// Before each query, wait for the observer's next observation to
    /// land (a denied scrape counts). The query then runs while the
    /// observer sleeps its interval, so no scrape reads the counters
    /// mid-statement (seeing the table counted before its rows), and
    /// consecutive queries fall in different scrape windows however
    /// slow the build or loaded the box.
    Isolated,
    /// A fixed gap in milliseconds, shorter than the scrape interval, so
    /// windows merge.
    EveryMs(u64),
}

/// The E16 encrypted victim with its status port open.
fn victim(rows: usize, scrub: bool, auth: Option<&str>, seed: u64) -> minidb::engine::Db {
    let config = minidb::engine::DbConfig {
        redo_capacity: 16 << 20,
        undo_capacity: 16 << 20,
        query_cache_enabled: false,
        obs_listen: Some("127.0.0.1:0".into()),
        obs_scrub: scrub,
        obs_auth_token: auth.map(str::to_string),
        ..minidb::engine::DbConfig::default()
    };
    let db = minidb::engine::Db::open(config);
    let conn = db.connect("app");
    conn.execute("CREATE TABLE readings (id INT PRIMARY KEY, ts INT, payload BYTES)")
        .unwrap();
    let master = Key([0x17; 32]);
    let key = Key(kdf::derive_key(&master.0, b"e17/payload"));
    let mut rng = StdRng::seed_from_u64(seed);
    for chunk in (0..rows as i64).collect::<Vec<_>>().chunks(200) {
        let values: Vec<String> = chunk
            .iter()
            .map(|i| {
                let ct = rnd::encrypt(&key, format!("reading-{i}").as_bytes(), &mut rng);
                let hex: String = ct.iter().map(|b| format!("{b:02x}")).collect();
                format!("({i}, {}, X'{hex}')", i * scanbench::STEP)
            })
            .collect();
        conn.execute(&format!(
            "INSERT INTO readings VALUES {}",
            values.join(", ")
        ))
        .unwrap();
    }
    db
}

/// One variant's scoreboard.
struct VariantOutcome {
    scrapes: usize,
    denied: usize,
    isolated: usize,
    merged_queries: u64,
    recovery_rate: f64,
    /// Fraction of secret range bounds recovered exactly via
    /// [`invert_range_volume`].
    bound_rate: f64,
}

/// Which mitigation knob (if any) a variant enables.
#[derive(Clone, Copy, PartialEq)]
enum Mitigation {
    None,
    Scrub,
    Auth,
}

/// Runs the victim workload under a polling observer and scores it.
fn run_variant(
    rows: usize,
    queries: usize,
    scrape_ms: u64,
    pacing: Pacing,
    mitigation: Mitigation,
    seed: u64,
    opts: &Options,
) -> VariantOutcome {
    let scrub = mitigation == Mitigation::Scrub;
    let token = (mitigation == Mitigation::Auth).then_some("scrape-secret");
    let db = victim(rows, scrub, token, seed);
    let addr = db.obs_addr().expect("victim obs port must be up");
    // The attack premise: the observer holds NO credentials.
    let observer = RemoteObserver::start(addr, Duration::from_millis(scrape_ms), None);
    // Let the observer land a baseline scrape before the queries start.
    std::thread::sleep(Duration::from_millis(scrape_ms * 2));

    let conn = db.connect("analyst");
    let mut rng = StdRng::seed_from_u64(seed ^ 0xE17);
    let mut true_bounds = Vec::with_capacity(queries);
    let mut truth = Vec::with_capacity(queries);
    for _ in 0..queries {
        if let Pacing::Isolated = pacing {
            let seen = observer.observed();
            while observer.observed() == seen {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let k = rng.gen_range(0..rows as u64);
        let res = conn
            .execute(&format!(
                "SELECT payload FROM readings WHERE ts >= 0 AND ts <= {}",
                k as i64 * scanbench::STEP
            ))
            .unwrap();
        assert_eq!(res.rows.len() as u64, k + 1, "dense fixture: volume = k+1");
        true_bounds.push(k);
        truth.push(k + 1);
        if let Pacing::EveryMs(ms) = pacing {
            std::thread::sleep(Duration::from_millis(ms));
        }
    }
    // Drain: let the final query's counters get scraped.
    std::thread::sleep(Duration::from_millis(scrape_ms * 3));
    let observations = observer.stop();
    opts.absorb_db(&db);
    db.shutdown();

    let scraped = scrapes(&observations);
    // Scrub drops the per-table counters; the observer falls back to the
    // global statement counter as its query clock.
    let query_key = if scrub {
        "sql.statements"
    } else {
        "sql.table_access.readings"
    };
    let windows = infer_windows(&scraped, query_key, "sql.rows_returned.sum");
    let score = evaluate(&windows, &truth);
    // Volume → secret bound, scored against the true ks (multiset).
    let mut remaining = true_bounds.clone();
    let mut bound_hits = 0usize;
    for v in &score.recovered {
        if let Some(k) = invert_range_volume(*v) {
            if let Some(pos) = remaining.iter().position(|&t| t == k) {
                remaining.swap_remove(pos);
                bound_hits += 1;
            }
        }
    }
    VariantOutcome {
        scrapes: scraped.len(),
        denied: denied_count(&observations),
        isolated: score.recovered.len(),
        merged_queries: score.merged_queries,
        recovery_rate: score.recovery_rate,
        bound_rate: bound_hits as f64 / queries as f64,
    }
}

/// Remote percentile from exposition `_bucket` lines: the smallest
/// bucket upper bound whose cumulative count reaches quantile `q` —
/// the same rule as `HistogramSnapshot::quantile_upper_bound`, computed
/// from nothing but one scrape.
fn percentile_from_exposition(
    samples: &[mdb_obs::prom::Sample],
    name: &str,
    q: f64,
) -> Option<u64> {
    let count = samples
        .iter()
        .find(|s| s.series.ends_with("_count") && s.metric_name() == Some(name))?
        .value_u64()?;
    let target = (q.clamp(0.0, 1.0) * count as f64).ceil() as u64;
    let mut last = None;
    for s in samples
        .iter()
        .filter(|s| s.series.ends_with("_bucket") && s.metric_name() == Some(name))
    {
        let le = match s.label("le")? {
            "+Inf" => u64::MAX,
            v => v.parse().ok()?,
        };
        last = Some(le);
        if s.value_u64()? >= target {
            return Some(le);
        }
    }
    last
}

/// Seeds the exposition-shape workload: `rows` plaintext events, then
/// `queries` 1% range counts, with the status port open.
fn shape_db(rows: usize, queries: usize, scrub: bool) -> minidb::engine::Db {
    let db = minidb::engine::Db::open(minidb::engine::DbConfig {
        query_cache_enabled: false,
        obs_listen: Some("127.0.0.1:0".into()),
        obs_scrub: scrub,
        ..minidb::engine::DbConfig::default()
    });
    let conn = db.connect("bench");
    conn.execute("CREATE TABLE events (id INT PRIMARY KEY, ts INT, note TEXT)")
        .unwrap();
    for chunk in (0..rows as i64).collect::<Vec<_>>().chunks(200) {
        let values: Vec<String> = chunk
            .iter()
            .map(|i| format!("({i}, {}, 'evt-{i}')", i * scanbench::STEP))
            .collect();
        conn.execute(&format!("INSERT INTO events VALUES {}", values.join(", ")))
            .unwrap();
    }
    let span = rows as i64 * scanbench::STEP;
    for q in 0..queries as i64 {
        let lo = q * span / queries.max(1) as i64;
        conn.execute(&format!(
            "SELECT COUNT(*) FROM events WHERE ts >= {lo} AND ts <= {}",
            lo + span / 100
        ))
        .unwrap();
    }
    db
}

/// Mean microseconds per call of `f` over `iters` calls.
fn mean_us(iters: u32, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    for _ in 0..iters {
        f();
    }
    started.elapsed().as_secs_f64() * 1e6 / iters as f64
}

/// The exposition-shape table: one fresh scrape per variant (before any
/// rate series or scrape-counter drift can change the body), then the
/// plain server's TCP round-trip and in-process encode/parse cost.
fn exposition_shape(opts: &Options) -> Table {
    let (rows, queries) = if opts.quick { (2_000, 8) } else { (10_000, 20) };
    let mut shape = Table::new(
        "E17 - /metrics exposition shape and scrape cost",
        &[
            "exposition",
            "series",
            "body bytes",
            "scrape round-trip",
            "encode",
            "parse",
        ],
    );
    for scrub in [false, true] {
        let db = shape_db(rows, queries, scrub);
        let addr = db.obs_addr().unwrap();
        let (status, body) = http::get(addr, "/metrics", None).unwrap();
        assert_eq!(status, 200);
        let series = prom::parse(&body).expect("exposition parses").len();
        let roundtrip = mean_us(50, || {
            assert_eq!(http::get(addr, "/metrics", None).unwrap().0, 200);
        });
        let snap = db.telemetry().snapshot();
        let encoded = prom::encode(&snap, &[]);
        let encode = mean_us(200, || drop(prom::encode(&snap, &[])));
        let parse = mean_us(200, || drop(prom::parse(&encoded).unwrap()));
        opts.absorb_db(&db);
        db.shutdown();
        shape
            .row(&[
                if scrub { "obs_scrub = true" } else { "plain" }.into(),
                series.to_string(),
                body.len().to_string(),
                format!("{roundtrip:.0}us"),
                format!("{encode:.1}us"),
                format!("{parse:.1}us"),
            ])
            .measured(&[3, 4, 5]);
    }
    shape
}

/// Runs the experiment.
pub fn run(opts: &Options) -> Vec<Table> {
    let rows = if opts.quick { 2_000 } else { 5_000 };
    let queries = if opts.quick { 10 } else { 20 };

    let mut channel = Table::new(
        "E17 - per-query volume recovery by a remote /metrics observer",
        &[
            "variant",
            "scrape interval",
            "scrapes",
            "denied",
            "isolated",
            "merged queries",
            "volume recovery",
            "range bound recovery",
        ],
    );
    let variants = [
        (
            "open port (production default)",
            FAST_SCRAPE_MS,
            Pacing::Isolated,
            Mitigation::None,
        ),
        (
            "open port, slow scraper (windows merge)",
            SLOW_SCRAPE_MS,
            Pacing::EveryMs(MERGED_SPACING_MS),
            Mitigation::None,
        ),
        (
            "obs_scrub = true (quantized exposition)",
            FAST_SCRAPE_MS,
            Pacing::Isolated,
            Mitigation::Scrub,
        ),
        (
            "bearer-token auth (observer unauthenticated)",
            FAST_SCRAPE_MS,
            Pacing::Isolated,
            Mitigation::Auth,
        ),
    ];
    for (seed, (variant, scrape_ms, pacing, mitigation)) in (0x1701..).zip(variants) {
        let v = run_variant(
            rows,
            queries,
            scrape_ms,
            pacing,
            mitigation,
            opts.seed ^ seed,
            opts,
        );
        channel
            .row(&[
                variant.into(),
                format!("{scrape_ms}ms"),
                v.scrapes.to_string(),
                v.denied.to_string(),
                v.isolated.to_string(),
                v.merged_queries.to_string(),
                pct(v.recovery_rate),
                pct(v.bound_rate),
            ])
            // Scrape and denial counts are wall time over the interval.
            .measured(&[2, 3]);
    }

    // ---- part two: lag percentiles, engine-side vs remote scrape ----
    let mut lag = Table::new(
        "E17 - replication lag percentiles: engine histogram vs remote scrape",
        &[
            "metric",
            "count",
            "p50",
            "p95",
            "p99",
            "remote p50/p95/p99",
            "match",
        ],
    );
    let mut set = mdb_repl::router::ReplicaSet::start(mdb_repl::router::ReplicaSetConfig {
        replicas: 2,
        base: minidb::engine::DbConfig {
            obs_listen: Some("127.0.0.1:0".into()),
            ..minidb::engine::DbConfig::default()
        },
        ..mdb_repl::router::ReplicaSetConfig::default()
    })
    .expect("replica set");
    set.write("CREATE TABLE evts (id INT PRIMARY KEY)").unwrap();
    let syncs = if opts.quick { 8 } else { 16 };
    for i in 0..syncs {
        set.write(&format!("INSERT INTO evts VALUES ({i})"))
            .unwrap();
        assert!(set.wait_for_sync(Duration::from_secs(5)));
    }
    let engine = set
        .primary()
        .telemetry()
        .snapshot()
        .histogram("repl.wait_for_sync_us")
        .expect("wait_for_sync histogram")
        .clone();
    let addr = set.primary().obs_addr().expect("primary obs port");
    let (status, body) = mdb_obs::http::get(addr, "/metrics", None).unwrap();
    assert_eq!(status, 200);
    let samples = mdb_obs::prom::parse(&body).expect("primary exposition parses");
    let remote: Vec<u64> = [0.50, 0.95, 0.99]
        .iter()
        .map(|q| percentile_from_exposition(&samples, "repl.wait_for_sync_us", *q).unwrap_or(0))
        .collect();
    let engine_p = [engine.p50(), engine.p95(), engine.p99()];
    lag.row(&[
        "repl.wait_for_sync_us".into(),
        engine.count.to_string(),
        format!("{}us", engine_p[0]),
        format!("{}us", engine_p[1]),
        format!("{}us", engine_p[2]),
        format!("{}/{}/{}us", remote[0], remote[1], remote[2]),
        if remote == engine_p {
            "EXACT"
        } else {
            "DIVERGED"
        }
        .into(),
    ])
    // Wall-clock waits: which bucket a percentile lands in is timing.
    .measured(&[2, 3, 4, 5]);
    let apply = set
        .replica(0)
        .telemetry()
        .snapshot()
        .histogram("repl.apply_latency_us")
        .expect("apply latency histogram")
        .clone();
    lag.row(&[
        "repl.apply_latency_us (replica 0, engine-side)".into(),
        apply.count.to_string(),
        format!("{}us", apply.p50()),
        format!("{}us", apply.p95()),
        format!("{}us", apply.p99()),
        "-".into(),
        "-".into(),
    ])
    .measured(&[2, 3, 4]);
    opts.absorb_db(set.primary());
    set.shutdown();

    vec![channel, lag, exposition_shape(opts)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_channel_recovers_volumes_and_mitigations_narrow_it() {
        let tables = run(&Options {
            quick: true,
            ..Default::default()
        });
        let rate = |row: &Vec<String>, col: usize| -> f64 {
            row[col].trim_end_matches('%').parse::<f64>().unwrap() / 100.0
        };

        let open = &tables[0].rows[0];
        // The acceptance criterion: >= 80% per-query volume recovery
        // from scrapes alone at a 100 ms interval.
        assert!(rate(open, 6) >= 0.8, "open-port recovery too low: {open:?}");
        assert!(
            rate(open, 7) >= 0.8,
            "bound inversion should track volumes: {open:?}"
        );

        let slow = &tables[0].rows[1];
        assert!(
            slow[5].parse::<u64>().unwrap() > 0,
            "slow scraper must merge windows: {slow:?}"
        );
        assert!(rate(slow, 6) < rate(open, 6), "{slow:?}");

        let scrubbed = &tables[0].rows[2];
        assert!(
            rate(scrubbed, 6) <= 0.5 && rate(scrubbed, 6) < rate(open, 6),
            "scrub must measurably narrow the channel: {scrubbed:?}"
        );

        let authed = &tables[0].rows[3];
        assert_eq!(
            rate(authed, 6),
            0.0,
            "auth must close the channel: {authed:?}"
        );
        assert!(
            authed[3].parse::<u64>().unwrap() > 0,
            "denials recorded: {authed:?}"
        );
        assert_eq!(authed[2], "0", "no successful scrapes: {authed:?}");

        // Part two: a remote scrape reproduces engine-side percentiles.
        let lag = &tables[1].rows[0];
        assert_eq!(lag[6], "EXACT", "{lag:?}");

        // Part three: scrub drops per-table series and all bucket lines,
        // so its exposition is strictly smaller.
        let (plain, scrubbed) = (&tables[2].rows[0], &tables[2].rows[1]);
        let n = |row: &Vec<String>, col: usize| row[col].parse::<usize>().unwrap();
        assert!(n(plain, 1) > 20 && n(plain, 2) > 500, "{plain:?}");
        assert!(n(scrubbed, 1) < n(plain, 1), "{scrubbed:?}");
        assert!(n(scrubbed, 2) < n(plain, 2), "{scrubbed:?}");
    }
}
