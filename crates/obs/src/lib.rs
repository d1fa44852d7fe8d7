//! # mdb-obs — the live diagnostics plane, and why it leaks
//!
//! A zero-dependency observability server that exposes an
//! [`mdb_telemetry::Registry`] over TCP, the way every production DBMS
//! exposes its status counters to Prometheus, load balancers, and
//! dashboards:
//!
//! * `GET /metrics` — Prometheus text exposition: counters, gauges, and
//!   log2-histogram `_bucket`/`_sum`/`_count` series ([`prom`]), plus
//!   per-second rates derived from the retention ring.
//! * `GET /healthz` — readiness probe fed by a caller-supplied
//!   [`HealthSource`] (the engine wires WAL, buffer-pool, and
//!   replication state into it).
//! * `GET /varz` — JSON dump reusing the registry's own serializer.
//!
//! Each `/metrics` scrape also lands a timestamped [`MetricsSnapshot`]
//! in an in-process [`RetentionRing`], so consecutive scrapes can be
//! turned into *rates and deltas*, not just lifetime totals.
//!
//! **This crate is the repo's first leakage surface that needs no
//! access to the victim's disk or memory.** Every earlier experiment
//! (snapshots, trace rings, zone maps) assumed the paper's snapshot
//! attacker; the scrape channel hands a *remote network observer* the
//! same per-table counters and volume histograms, refreshed on every
//! poll. E17 (`core::attacks::volume`) reconstructs per-query result
//! volumes purely from `/metrics` deltas. The mitigation knobs are
//! [`ObsOptions::auth_token`] (gate the channel) and
//! [`ObsOptions::scrub`] (quantize it, [`prom::scrub`]).

pub mod http;
pub mod prom;

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use mdb_telemetry::{json, MetricsSnapshot, Registry};
use parking_lot::Mutex;

/// Capacity of a server's retention ring, in scrape snapshots.
const RETENTION_SNAPSHOTS: usize = 64;

/// Observability-server configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct ObsOptions {
    /// Listen address (`"127.0.0.1:0"` binds an ephemeral port).
    pub listen: String,
    /// When set, `/metrics` and `/varz` require
    /// `Authorization: Bearer <token>`; `/healthz` stays open so load
    /// balancers keep working (exactly the hole real deployments leave).
    pub auth_token: Option<String>,
    /// Scrub the exposition: drop per-table series and quantize values
    /// to powers of two ([`prom::scrub`]).
    pub scrub: bool,
}

impl Default for ObsOptions {
    fn default() -> Self {
        ObsOptions {
            listen: "127.0.0.1:0".into(),
            auth_token: None,
            scrub: false,
        }
    }
}

/// One component's line in the `/healthz` report.
#[derive(Clone, Debug)]
pub struct HealthComponent {
    /// Component name (`wal`, `bufpool`, `replication`, …).
    pub name: String,
    /// Whether the component is healthy.
    pub ok: bool,
    /// Human-readable detail.
    pub detail: String,
}

/// The `/healthz` payload.
#[derive(Clone, Debug, Default)]
pub struct HealthReport {
    /// Overall readiness: 200 when true, 503 when false.
    pub ready: bool,
    /// Per-component state.
    pub components: Vec<HealthComponent>,
}

impl HealthReport {
    /// A degenerate not-ready report with a single reason.
    pub fn unavailable(reason: &str) -> HealthReport {
        HealthReport {
            ready: false,
            components: vec![HealthComponent {
                name: "engine".into(),
                ok: false,
                detail: reason.into(),
            }],
        }
    }

    /// Serializes as `{"ready":bool,"components":[{...}]}`.
    pub fn to_json(&self) -> String {
        let mut w = json::Writer::new();
        w.obj_open();
        w.key("ready");
        w.bool(self.ready);
        w.key("components");
        w.arr_open();
        for c in &self.components {
            w.obj_open();
            w.key("name");
            w.string(&c.name);
            w.key("ok");
            w.bool(c.ok);
            w.key("detail");
            w.string(&c.detail);
            w.obj_close();
        }
        w.arr_close();
        w.obj_close();
        w.into_string()
    }
}

/// Produces a fresh health report per `/healthz` request. Runs on the
/// obs accept thread; implementations may take engine locks but must
/// never block indefinitely.
pub type HealthSource = Arc<dyn Fn() -> HealthReport + Send + Sync>;

/// One retained scrape: when it happened, the totals it saw, and the
/// delta against the previous scrape.
#[derive(Clone, Debug)]
pub struct TimedSnapshot {
    /// Milliseconds since the server started.
    pub at_ms: u64,
    /// The totals this scrape rendered.
    pub totals: MetricsSnapshot,
    /// Counter deltas vs the previous retained scrape (empty on the
    /// first).
    pub counter_deltas: Vec<(String, u64)>,
}

/// Bounded in-process ring of timestamped scrape snapshots — the state
/// that turns lifetime totals into rates. Cheap to clone (shared).
///
/// Like the trace ring (PR 3), this is diagnostics state the engine
/// must clear on `flush_diagnostics` when `telemetry_scrub_on_flush`
/// is set: a "wiped" server that still holds the last N scrape deltas
/// has not wiped anything.
#[derive(Clone)]
pub struct RetentionRing {
    inner: Arc<Mutex<RingInner>>,
}

struct RingInner {
    capacity: usize,
    entries: VecDeque<TimedSnapshot>,
}

impl RetentionRing {
    /// An empty ring holding at most `capacity` scrapes.
    pub fn new(capacity: usize) -> RetentionRing {
        RetentionRing {
            inner: Arc::new(Mutex::new(RingInner {
                capacity: capacity.max(1),
                entries: VecDeque::new(),
            })),
        }
    }

    /// Pushes a scrape, computing its counter deltas against the
    /// previous entry; evicts the oldest entry beyond capacity.
    /// Returns the per-second counter rates for the new entry.
    pub fn push(&self, at_ms: u64, totals: MetricsSnapshot) -> Vec<(String, f64)> {
        let mut g = self.inner.lock();
        let mut deltas = Vec::new();
        let mut rates = Vec::new();
        if let Some(prev) = g.entries.back() {
            let dt_ms = at_ms.saturating_sub(prev.at_ms).max(1);
            for (name, cur) in &totals.counters {
                let before = prev.totals.counter(name).unwrap_or(0);
                let delta = cur.saturating_sub(before);
                deltas.push((name.clone(), delta));
                rates.push((name.clone(), delta as f64 * 1000.0 / dt_ms as f64));
            }
        }
        g.entries.push_back(TimedSnapshot {
            at_ms,
            totals,
            counter_deltas: deltas,
        });
        while g.entries.len() > g.capacity {
            g.entries.pop_front();
        }
        rates
    }

    /// Number of retained scrapes.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All retained scrapes, oldest first.
    pub fn entries(&self) -> Vec<TimedSnapshot> {
        self.inner.lock().entries.iter().cloned().collect()
    }

    /// Drops every retained scrape (the `flush_diagnostics` contract).
    pub fn clear(&self) {
        self.inner.lock().entries.clear();
    }
}

/// The observability server: an accept loop on its own thread serving
/// `/metrics`, `/healthz`, and `/varz` for one registry.
pub struct ObsServer {
    addr: SocketAddr,
    ring: RetentionRing,
    shutdown: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

struct Endpoints {
    registry: Registry,
    health: HealthSource,
    ring: RetentionRing,
    options: ObsOptions,
    started: Instant,
    scrapes: mdb_telemetry::Counter,
    unauthorized: mdb_telemetry::Counter,
}

impl ObsServer {
    /// Binds `options.listen` and starts serving. The server observes
    /// itself: `obs.scrapes` and `obs.unauthorized` are registered in
    /// the same registry it exports.
    pub fn start(
        registry: Registry,
        health: HealthSource,
        options: ObsOptions,
    ) -> std::io::Result<ObsServer> {
        let listener = TcpListener::bind(options.listen.as_str())?;
        let addr = listener.local_addr()?;
        let ring = RetentionRing::new(RETENTION_SNAPSHOTS);
        let shutdown = Arc::new(AtomicBool::new(false));
        let endpoints = Endpoints {
            scrapes: registry.counter("obs.scrapes"),
            unauthorized: registry.counter("obs.unauthorized"),
            registry,
            health,
            ring: ring.clone(),
            options,
            started: Instant::now(),
        };
        let handle = {
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || accept_loop(&listener, &endpoints, &shutdown))
        };
        Ok(ObsServer {
            addr,
            ring,
            shutdown,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The retention ring (shared handle).
    pub fn ring(&self) -> RetentionRing {
        self.ring.clone()
    }

    /// Stops the accept loop and joins the thread.
    pub fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            // Wake the blocking `accept`; the loop sees the flag and
            // serves nothing more.
            let _ = TcpStream::connect(self.addr);
            let _ = h.join();
        }
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: &TcpListener, endpoints: &Endpoints, shutdown: &AtomicBool) {
    while let Ok((mut stream, _)) = listener.accept() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        // One request per connection; errors only poison this
        // connection, never the loop.
        let _ = serve_one(&mut stream, endpoints);
    }
}

fn serve_one(stream: &mut TcpStream, ep: &Endpoints) -> std::io::Result<()> {
    let req = http::read_request(stream)?;
    if req.method != "GET" {
        return http::write_response(stream, 405, "text/plain", "GET only\n");
    }
    // /healthz stays unauthenticated (the load-balancer hole); the
    // data-bearing endpoints honor the token.
    if req.path != "/healthz" {
        if let Some(token) = &ep.options.auth_token {
            if req.bearer_token() != Some(token.as_str()) {
                ep.unauthorized.inc();
                return http::write_response(stream, 401, "text/plain", "unauthorized\n");
            }
        }
    }
    match req.path.as_str() {
        "/metrics" => {
            ep.scrapes.inc();
            let snap = ep.registry.snapshot();
            let snap = if ep.options.scrub {
                prom::scrub(&snap)
            } else {
                snap
            };
            let at_ms = ep.started.elapsed().as_millis() as u64;
            let rates = ep.ring.push(at_ms, snap.clone());
            let body = prom::encode(&snap, &rates);
            http::write_response(stream, 200, prom::CONTENT_TYPE, &body)
        }
        "/healthz" => {
            let report = (ep.health)();
            let status = if report.ready { 200 } else { 503 };
            http::write_response(stream, status, "application/json", &report.to_json())
        }
        "/varz" => {
            let snap = ep.registry.snapshot();
            let snap = if ep.options.scrub {
                prom::scrub(&snap)
            } else {
                snap
            };
            let mut w = json::Writer::new();
            w.obj_open();
            w.key("uptime_ms");
            w.u64(ep.started.elapsed().as_millis() as u64);
            w.key("retained_scrapes");
            w.u64(ep.ring.len() as u64);
            w.key("metrics");
            w.raw(&snap.to_json());
            w.obj_close();
            http::write_response(stream, 200, "application/json", &w.into_string())
        }
        _ => http::write_response(stream, 404, "text/plain", "unknown endpoint\n"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn healthy() -> HealthSource {
        Arc::new(|| HealthReport {
            ready: true,
            components: vec![HealthComponent {
                name: "test".into(),
                ok: true,
                detail: "static".into(),
            }],
        })
    }

    fn start(options: ObsOptions) -> (Registry, ObsServer) {
        let r = Registry::new();
        let srv = ObsServer::start(r.clone(), healthy(), options).unwrap();
        (r, srv)
    }

    #[test]
    fn metrics_endpoint_serves_exposition_and_rates() {
        let (r, mut srv) = start(ObsOptions::default());
        r.counter("sql.statements").add(5);
        let addr = srv.local_addr();
        let (status, body) = http::get(addr, "/metrics", None).unwrap();
        assert_eq!(status, 200);
        assert!(
            body.contains("mdb_sql_statements{name=\"sql.statements\"} 5"),
            "{body}"
        );
        // Self-observation: the scrape itself is counted.
        r.counter("sql.statements").add(3);
        let (_, body2) = http::get(addr, "/metrics", None).unwrap();
        assert!(
            body2.contains("mdb_obs_scrapes{name=\"obs.scrapes\"} 2"),
            "{body2}"
        );
        // Second scrape has a rate series derived from the ring delta.
        assert!(
            body2.contains("mdb_sql_statements_rate{name=\"sql.statements\"}"),
            "{body2}"
        );
        assert_eq!(srv.ring().len(), 2);
        let entries = srv.ring().entries();
        let delta = entries[1]
            .counter_deltas
            .iter()
            .find(|(n, _)| n == "sql.statements")
            .unwrap()
            .1;
        assert_eq!(delta, 3);
        srv.stop();
    }

    #[test]
    fn healthz_and_varz_and_404() {
        let (r, mut srv) = start(ObsOptions::default());
        r.gauge("depth").set(7);
        let addr = srv.local_addr();
        let (status, body) = http::get(addr, "/healthz", None).unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"ready\":true"), "{body}");
        let (status, body) = http::get(addr, "/varz", None).unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"depth\":7"), "{body}");
        assert!(body.contains("\"uptime_ms\":"), "{body}");
        let (status, _) = http::get(addr, "/nope", None).unwrap();
        assert_eq!(status, 404);
        srv.stop();
    }

    #[test]
    fn auth_gates_metrics_but_not_healthz() {
        let (r, mut srv) = start(ObsOptions {
            auth_token: Some("s3cret".into()),
            ..ObsOptions::default()
        });
        r.counter("sql.statements").inc();
        let addr = srv.local_addr();
        let (status, _) = http::get(addr, "/metrics", None).unwrap();
        assert_eq!(status, 401);
        let (status, _) = http::get(addr, "/metrics", Some("wrong")).unwrap();
        assert_eq!(status, 401);
        let (status, body) = http::get(addr, "/metrics", Some("s3cret")).unwrap();
        assert_eq!(status, 200);
        assert!(
            body.contains("mdb_obs_unauthorized{name=\"obs.unauthorized\"} 2"),
            "{body}"
        );
        let (status, _) = http::get(addr, "/healthz", None).unwrap();
        assert_eq!(status, 200);
        // Denied scrapes never land in the ring.
        assert_eq!(srv.ring().len(), 1);
        srv.stop();
    }

    #[test]
    fn scrub_mode_quantizes_the_exposition() {
        let (r, mut srv) = start(ObsOptions {
            scrub: true,
            ..ObsOptions::default()
        });
        r.counter("sql.statements").add(37);
        r.counter("sql.table_access.patients").add(9);
        let addr = srv.local_addr();
        let (_, body) = http::get(addr, "/metrics", None).unwrap();
        assert!(
            body.contains("mdb_sql_statements{name=\"sql.statements\"} 64"),
            "{body}"
        );
        assert!(!body.contains("table_access"), "{body}");
        srv.stop();
    }

    #[test]
    fn retention_ring_is_bounded_and_clearable() {
        let ring = RetentionRing::new(3);
        for i in 0..5u64 {
            let r = Registry::new();
            r.counter("c").add(i);
            ring.push(i * 100, r.snapshot());
        }
        assert_eq!(ring.len(), 3);
        let entries = ring.entries();
        assert_eq!(entries[0].at_ms, 200);
        // Deltas chain across retained entries.
        assert_eq!(entries[2].counter_deltas, vec![("c".to_string(), 1)]);
        ring.clear();
        assert!(ring.is_empty());
    }

    #[test]
    fn not_ready_health_is_503() {
        let r = Registry::new();
        let mut srv = ObsServer::start(
            r,
            Arc::new(|| HealthReport::unavailable("crashed")),
            ObsOptions::default(),
        )
        .unwrap();
        let (status, body) = http::get(srv.local_addr(), "/healthz", None).unwrap();
        assert_eq!(status, 503);
        assert!(body.contains("\"ready\":false"), "{body}");
        srv.stop();
    }
}
