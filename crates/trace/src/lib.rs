//! mdb-trace — per-statement execution traces for MiniDB.
//!
//! A trace is a tree of causally-nested [`Span`]s (parse → plan →
//! heap/index scan → buffer-pool I/O → WAL append → commit), each
//! carrying numeric attributes (rows examined, pages hit/missed, bytes
//! logged). The engine builds one [`StatementTrace`] per statement with
//! a [`TraceBuilder`] and deposits it in a bounded in-memory
//! [`Recorder`] ring — the *flight recorder* of the last N statements.
//!
//! Durations are **simulated** microseconds from the engine's
//! deterministic cost model, not wall-clock samples: fixed-cost stages
//! close with an explicit cost, one *elastic* stage per statement
//! absorbs the residual, so the top-level children always sum exactly
//! to the statement total (the `EXPLAIN ANALYZE` invariant).
//!
//! Like the telemetry registry, the disabled hot path is a single
//! relaxed atomic load ([`Recorder::is_enabled`]); no span state is
//! allocated when tracing is off.
//!
//! True to the paper, all of this is modeled as *leakage*: the ring
//! rides along in every memory image, and the versioned slow-log
//! records ([`record`]) are carvable from stolen disks long after
//! `performance_schema` has been wiped.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

pub mod chrome;
pub mod codec;
pub mod merge;
pub mod record;

// ================= distributed trace context =================

/// SplitMix64: the id mixer behind [`TraceContext`] generation and the
/// `trace_id_hashing` mitigation. Zero-dependency, full-period, and
/// statistically fine for identifiers (not for cryptography — the
/// mitigation's strength is the secrecy of the key, modeled here).
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Process-local entropy without a `rand` dependency: the std hasher's
/// per-process random keys, folded through SplitMix64. Each call hashes
/// a fresh [`std::collections::hash_map::RandomState`], so successive
/// calls yield independent values. Public because the engine draws its
/// `trace_id_hashing` key from the same well.
pub fn entropy64() -> u64 {
    use std::hash::{BuildHasher, Hasher};
    let h = std::collections::hash_map::RandomState::new().build_hasher();
    splitmix64(h.finish())
}

/// A W3C-traceparent-style distributed trace context: the identity a
/// request carries across process boundaries so every node's spans land
/// in the same trace.
///
/// The client generates a root context per statement; each hop derives
/// a [`child`](TraceContext::child) (same `trace_id`, fresh `span_id`)
/// before doing its own work, so the received `span_id` is the parent
/// of the work the receiver records. The 25-byte wire form
/// ([`encode`](TraceContext::encode)) rides in v2 MSRV frames, binlog
/// events, and v2 slow-log records — which is exactly why E19 treats it
/// as a leakage surface: one identifier, recoverable from three
/// machines' disks, joins them all.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// 128-bit trace identity, shared by every span of the trace.
    pub trace_id: u128,
    /// 64-bit id of the sender's span (the parent of work done under
    /// this context).
    pub span_id: u64,
    /// Whether the trace is sampled; unsampled contexts propagate but
    /// recorders treat them as absent (the sampling mitigation).
    pub sampled: bool,
}

impl TraceContext {
    /// Encoded wire length: trace_id (16) + span_id (8) + flags (1).
    pub const WIRE_LEN: usize = 25;

    /// A fresh root context (new random trace and span ids, sampled).
    pub fn generate() -> TraceContext {
        let hi = entropy64();
        let lo = entropy64();
        let trace_id = ((hi as u128) << 64) | lo as u128;
        TraceContext {
            // Zero trace ids are reserved as "absent" in traceparent.
            trace_id: if trace_id == 0 { 1 } else { trace_id },
            span_id: entropy64() | 1,
            sampled: true,
        }
    }

    /// Derives the context for work caused by this one: same trace,
    /// fresh span id. The receiver records `self.span_id` as the parent.
    pub fn child(&self) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            span_id: entropy64() | 1,
            sampled: self.sampled,
        }
    }

    /// The `trace_id_hashing` mitigation: a keyed rehash applied at the
    /// replication boundary. Ids stay stable under one key (replica-side
    /// spans of one trace still correlate with each other) but join
    /// against nothing recorded outside that boundary.
    pub fn rehash(&self, key: u64) -> TraceContext {
        let lo = splitmix64(self.trace_id as u64 ^ key);
        let hi = splitmix64((self.trace_id >> 64) as u64 ^ key.rotate_left(17));
        TraceContext {
            trace_id: ((hi as u128) << 64) | lo as u128,
            span_id: splitmix64(self.span_id ^ key),
            sampled: self.sampled,
        }
    }

    /// Formats as a W3C `traceparent` header value
    /// (`00-<32 hex>-<16 hex>-<flags>`).
    pub fn to_traceparent(&self) -> String {
        format!(
            "00-{:032x}-{:016x}-{:02x}",
            self.trace_id,
            self.span_id,
            u8::from(self.sampled)
        )
    }

    /// Parses a W3C `traceparent` value (version 00; zero ids rejected,
    /// per the spec).
    pub fn parse_traceparent(s: &str) -> Option<TraceContext> {
        let mut parts = s.split('-');
        let (version, tid, sid, flags) =
            (parts.next()?, parts.next()?, parts.next()?, parts.next()?);
        if parts.next().is_some() || version != "00" || tid.len() != 32 || sid.len() != 16 {
            return None;
        }
        let trace_id = u128::from_str_radix(tid, 16).ok()?;
        let span_id = u64::from_str_radix(sid, 16).ok()?;
        let flags = u8::from_str_radix(flags, 16).ok()?;
        if trace_id == 0 || span_id == 0 {
            return None;
        }
        Some(TraceContext {
            trace_id,
            span_id,
            sampled: flags & 1 != 0,
        })
    }

    /// Appends the 25-byte wire form (all little-endian).
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.trace_id.to_le_bytes());
        out.extend_from_slice(&self.span_id.to_le_bytes());
        out.push(u8::from(self.sampled));
    }

    /// Decodes the wire form from the first [`WIRE_LEN`](Self::WIRE_LEN)
    /// bytes of `buf`.
    pub fn decode(buf: &[u8]) -> Option<TraceContext> {
        let mut r = codec::Reader::new(buf);
        Some(TraceContext {
            trace_id: r.u128().ok()?,
            span_id: r.u64().ok()?,
            sampled: r.u8().ok()? & 1 != 0,
        })
    }
}

/// One node of the span tree: a named execution stage with a start
/// offset and duration (simulated µs, relative to statement start),
/// numeric attributes, and causally-nested children.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Stage name (`"parse"`, `"plan"`, `"scan"`, `"bufpool"`, …).
    pub name: String,
    /// Offset from statement start, simulated µs.
    pub start_us: u64,
    /// Duration, simulated µs.
    pub dur_us: u64,
    /// Numeric attributes, e.g. `("rows_examined", 512)`.
    pub attrs: Vec<(String, u64)>,
    /// Child spans, in execution order.
    pub children: Vec<Span>,
}

impl Span {
    /// Looks up an attribute by key.
    pub fn attr(&self, key: &str) -> Option<u64> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }

    /// First direct child with the given name.
    pub fn child(&self, name: &str) -> Option<&Span> {
        self.children.iter().find(|c| c.name == name)
    }

    /// First span with the given name anywhere in the subtree.
    pub fn find(&self, name: &str) -> Option<&Span> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    /// Number of spans in the subtree (including this one).
    pub fn span_count(&self) -> usize {
        1 + self.children.iter().map(Span::span_count).sum::<usize>()
    }

    /// Depth-first flattening: `(span, depth)` pairs, preorder.
    pub fn flatten(&self) -> Vec<(&Span, usize)> {
        let mut out = Vec::new();
        self.flatten_into(0, &mut out);
        out
    }

    fn flatten_into<'a>(&'a self, depth: usize, out: &mut Vec<(&'a Span, usize)>) {
        out.push((self, depth));
        for c in &self.children {
            c.flatten_into(depth + 1, out);
        }
    }
}

/// A completed per-statement trace: identity, timing, the statement
/// text and digest, the tables it touched, and the span tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StatementTrace {
    /// Ring-assigned id (0 until recorded).
    pub trace_id: u64,
    /// Connection ("thread") that ran the statement.
    pub conn_id: u64,
    /// Simulated UNIX time the statement started.
    pub started_unix: i64,
    /// Full statement text — verbatim, ciphertext literals included.
    pub statement: String,
    /// Statement digest (normalized-text hash).
    pub digest: String,
    /// Total statement duration, simulated µs.
    pub total_us: u64,
    /// Tables the statement touched, deduplicated, in first-touch order.
    pub tables: Vec<String>,
    /// Root of the span tree (named `"statement"`).
    pub root: Span,
    /// Which node recorded the trace (`"primary"`, `"replica-0"`, a
    /// client name, or `""` for an untagged single-node recorder).
    pub node: String,
    /// Distributed trace context, when the statement carried one. All
    /// spans of one logical request — client, server, replica apply —
    /// share `ctx.trace_id`.
    pub ctx: Option<TraceContext>,
}

impl StatementTrace {
    /// A minimal single-span trace, used for slow-log records when the
    /// full tracer is disarmed: text, timing, and row count survive even
    /// then — only the span tree and table list are lost.
    pub fn minimal(
        conn_id: u64,
        started_unix: i64,
        statement: &str,
        digest: &str,
        total_us: u64,
        rows_examined: u64,
    ) -> StatementTrace {
        StatementTrace {
            trace_id: 0,
            conn_id,
            started_unix,
            statement: statement.to_string(),
            digest: digest.to_string(),
            total_us,
            tables: Vec::new(),
            root: Span {
                name: "statement".to_string(),
                start_us: 0,
                dur_us: total_us,
                attrs: vec![("rows_examined".to_string(), rows_examined)],
                children: Vec::new(),
            },
            node: String::new(),
            ctx: None,
        }
    }
}

// ================= builder =================

struct Node {
    name: String,
    dur_us: u64,
    attrs: Vec<(String, u64)>,
    children: Vec<usize>,
}

/// Incrementally builds one statement's span tree. The engine opens a
/// builder per traced statement, brackets each execution stage with
/// [`begin`](TraceBuilder::begin) / [`end`](TraceBuilder::end) (passing
/// the stage's simulated cost), marks exactly one stage *elastic* —
/// typically the scan or write — and calls
/// [`finish`](TraceBuilder::finish) with the statement total; the
/// elastic stage absorbs the residual so top-level durations sum
/// exactly to the total.
pub struct TraceBuilder {
    conn_id: u64,
    started_unix: i64,
    statement: String,
    digest: String,
    tables: Vec<String>,
    nodes: Vec<Node>,
    /// Open spans, innermost last. `stack[0]` is always the root.
    stack: Vec<usize>,
    elastic: Option<usize>,
    ctx: Option<TraceContext>,
}

impl TraceBuilder {
    /// Starts a trace for one statement.
    pub fn new(conn_id: u64, started_unix: i64, statement: &str, digest: &str) -> TraceBuilder {
        TraceBuilder {
            conn_id,
            started_unix,
            statement: statement.to_string(),
            digest: digest.to_string(),
            tables: Vec::new(),
            nodes: vec![Node {
                name: "statement".to_string(),
                dur_us: 0,
                attrs: Vec::new(),
                children: Vec::new(),
            }],
            stack: vec![0],
            elastic: None,
            ctx: None,
        }
    }

    /// Attaches the distributed trace context this statement runs
    /// under (the node's own span context, not the parent's).
    pub fn set_ctx(&mut self, ctx: TraceContext) {
        self.ctx = Some(ctx);
    }

    /// The attached distributed context, if any.
    pub fn ctx(&self) -> Option<TraceContext> {
        self.ctx
    }

    /// Opens a child span of the innermost open span.
    pub fn begin(&mut self, name: &str) {
        let idx = self.nodes.len();
        self.nodes.push(Node {
            name: name.to_string(),
            dur_us: 0,
            attrs: Vec::new(),
            children: Vec::new(),
        });
        let parent = *self.stack.last().expect("root never closes");
        self.nodes[parent].children.push(idx);
        self.stack.push(idx);
    }

    /// Adds an attribute to the innermost open span.
    pub fn attr(&mut self, key: &str, value: u64) {
        let idx = *self.stack.last().expect("root never closes");
        self.nodes[idx].attrs.push((key.to_string(), value));
    }

    /// Records a touched table (deduplicated, order-preserving).
    pub fn table(&mut self, name: &str) {
        if !self.tables.iter().any(|t| t == name) {
            self.tables.push(name.to_string());
        }
    }

    /// Closes the innermost open span with a fixed simulated cost.
    pub fn end(&mut self, cost_us: u64) {
        if self.stack.len() > 1 {
            let idx = self.stack.pop().expect("checked");
            self.nodes[idx].dur_us = cost_us;
        }
    }

    /// Closes the innermost open span and marks it elastic: it will
    /// absorb the residual between the fixed stage costs and the
    /// statement total at [`finish`](TraceBuilder::finish). Last call
    /// wins if invoked more than once.
    pub fn end_elastic(&mut self) {
        if self.stack.len() > 1 {
            let idx = self.stack.pop().expect("checked");
            self.nodes[idx].dur_us = 0;
            self.elastic = Some(idx);
        }
    }

    /// Finalizes the trace given the statement's total simulated
    /// duration. Any still-open spans are closed at zero cost; the
    /// elastic span (or, failing one at top level, a synthetic `other`
    /// stage) absorbs the residual, so the root's direct children sum
    /// exactly to `total_us`.
    pub fn finish(mut self, total_us: u64) -> StatementTrace {
        while self.stack.len() > 1 {
            self.end(0);
        }
        self.nodes[0].dur_us = total_us;
        let top_sum: u64 = self.nodes[0]
            .children
            .iter()
            .map(|&c| self.nodes[c].dur_us)
            .sum();
        let residual = total_us.saturating_sub(top_sum);
        if residual > 0 {
            match self.elastic.filter(|e| self.nodes[0].children.contains(e)) {
                Some(e) => self.nodes[e].dur_us += residual,
                None => {
                    let idx = self.nodes.len();
                    self.nodes.push(Node {
                        name: "other".to_string(),
                        dur_us: residual,
                        attrs: Vec::new(),
                        children: Vec::new(),
                    });
                    self.nodes[0].children.push(idx);
                }
            }
        }
        let root = materialize(&self.nodes, 0, 0, total_us);
        StatementTrace {
            trace_id: 0,
            conn_id: self.conn_id,
            started_unix: self.started_unix,
            statement: self.statement,
            digest: self.digest,
            total_us,
            tables: self.tables,
            root,
            node: String::new(),
            ctx: self.ctx,
        }
    }
}

/// Converts the builder arena into the recursive span tree, laying
/// children out sequentially from the parent's start and clamping them
/// to the parent's extent (nested costs are advisory; top-level costs
/// are exact by construction).
fn materialize(nodes: &[Node], idx: usize, start_us: u64, dur_us: u64) -> Span {
    let n = &nodes[idx];
    let end = start_us + dur_us;
    let mut cursor = start_us;
    let mut children = Vec::with_capacity(n.children.len());
    for &c in &n.children {
        let child_start = cursor.min(end);
        let child_dur = nodes[c].dur_us.min(end - child_start);
        children.push(materialize(nodes, c, child_start, child_dur));
        cursor = child_start + child_dur;
    }
    Span {
        name: n.name.clone(),
        start_us,
        dur_us,
        attrs: n.attrs.clone(),
        children,
    }
}

// ================= flight recorder =================

#[derive(Debug)]
struct RingInner {
    ring: VecDeque<StatementTrace>,
    capacity: usize,
    next_id: u64,
    evicted: u64,
    /// Node identity stamped onto recorded traces (cross-node merge key).
    node: String,
}

/// The flight recorder: a bounded ring of the last N statement traces.
/// Cloneable; clones share state (the engine, `information_schema`, and
/// the memory-image capture all read the same ring). Note what the ring
/// deliberately does **not** do: it survives
/// `Db::flush_diagnostics` — wiping `performance_schema` leaves the
/// flight recorder intact, which is exactly the residual surface e15
/// measures.
#[derive(Clone, Debug)]
pub struct Recorder {
    enabled: Arc<AtomicBool>,
    inner: Arc<Mutex<RingInner>>,
}

impl Recorder {
    /// An armed recorder holding up to `capacity` traces.
    pub fn new(capacity: usize) -> Recorder {
        Recorder::with_enabled(capacity, true)
    }

    /// A disarmed recorder: `is_enabled` is false, `record` drops.
    pub fn new_disabled(capacity: usize) -> Recorder {
        Recorder::with_enabled(capacity, false)
    }

    fn with_enabled(capacity: usize, enabled: bool) -> Recorder {
        Recorder {
            enabled: Arc::new(AtomicBool::new(enabled)),
            inner: Arc::new(Mutex::new(RingInner {
                ring: VecDeque::with_capacity(capacity.min(1024)),
                capacity: capacity.max(1),
                next_id: 1,
                evicted: 0,
                node: String::new(),
            })),
        }
    }

    /// Sets the node identity stamped onto traces recorded here (traces
    /// that already carry a node keep it — absorbed rings stay tagged
    /// with their origin).
    pub fn set_node(&self, node: &str) {
        self.inner.lock().node = node.to_string();
    }

    /// This recorder's node identity.
    pub fn node(&self) -> String {
        self.inner.lock().node.clone()
    }

    /// The hot-path gate: one relaxed atomic load.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Arms or disarms the recorder.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Assigns the next trace id, pushes the trace (evicting the oldest
    /// past capacity), and returns the id-stamped trace. Records even
    /// when disarmed — the caller gates on [`is_enabled`](Self::is_enabled).
    pub fn record(&self, mut trace: StatementTrace) -> StatementTrace {
        let mut g = self.inner.lock();
        trace.trace_id = g.next_id;
        g.next_id += 1;
        if trace.node.is_empty() {
            trace.node = g.node.clone();
        }
        g.ring.push_back(trace.clone());
        while g.ring.len() > g.capacity {
            g.ring.pop_front();
            g.evicted += 1;
        }
        trace
    }

    /// Folds externally produced traces in (the harness absorbing an
    /// experiment database's ring). Ids are reassigned locally.
    pub fn absorb(&self, traces: Vec<StatementTrace>) {
        for t in traces {
            self.record(t);
        }
    }

    /// Ring contents, oldest first.
    pub fn traces(&self) -> Vec<StatementTrace> {
        self.inner.lock().ring.iter().cloned().collect()
    }

    /// Number of traces currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().ring.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.inner.lock().capacity
    }

    /// Traces evicted so far (lifetime count).
    pub fn evicted(&self) -> u64 {
        self.inner.lock().evicted
    }

    /// Drops all traces (crash, or an explicit diagnostics scrub). Id
    /// assignment continues — like restarting `performance_schema`,
    /// the wipe is observable in the numbering gap.
    pub fn clear(&self) {
        self.inner.lock().ring.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(statement: &str) -> TraceBuilder {
        TraceBuilder::new(7, 1_483_228_801, statement, "digest-x")
    }

    #[test]
    fn builder_top_level_durations_sum_to_total() {
        let mut b = build("SELECT * FROM t");
        b.begin("parse");
        b.end(40);
        b.begin("plan");
        b.attr("index_used", 0);
        b.end(40);
        b.begin("scan");
        b.begin("bufpool");
        b.attr("pages_hit", 3);
        b.end(5);
        b.attr("rows_examined", 100);
        b.end_elastic();
        let t = b.finish(500);
        assert_eq!(t.total_us, 500);
        assert_eq!(t.root.dur_us, 500);
        let sum: u64 = t.root.children.iter().map(|c| c.dur_us).sum();
        assert_eq!(sum, 500);
        // The elastic scan absorbed the residual.
        assert_eq!(t.root.child("scan").unwrap().dur_us, 420);
        // Children are laid out sequentially.
        assert_eq!(t.root.child("plan").unwrap().start_us, 40);
        assert_eq!(t.root.child("scan").unwrap().start_us, 80);
        assert_eq!(
            t.root
                .child("scan")
                .unwrap()
                .child("bufpool")
                .unwrap()
                .start_us,
            80
        );
    }

    #[test]
    fn builder_without_elastic_synthesizes_other() {
        let mut b = build("BEGIN");
        b.begin("parse");
        b.end(40);
        let t = b.finish(300);
        let sum: u64 = t.root.children.iter().map(|c| c.dur_us).sum();
        assert_eq!(sum, 300);
        assert_eq!(t.root.child("other").unwrap().dur_us, 260);
    }

    #[test]
    fn builder_closes_dangling_spans_and_clamps_children() {
        let mut b = build("SELECT 1");
        b.begin("scan");
        b.begin("bufpool");
        b.end(9999); // Advisory nested cost larger than the statement.
                     // "scan" left open: finish closes it.
        let t = b.finish(100);
        let scan = t.root.child("scan").unwrap();
        assert!(scan.child("bufpool").unwrap().dur_us <= scan.dur_us);
        let sum: u64 = t.root.children.iter().map(|c| c.dur_us).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn tables_dedup_preserving_order() {
        let mut b = build("SELECT …");
        b.table("orders");
        b.table("customers");
        b.table("orders");
        let t = b.finish(1);
        assert_eq!(t.tables, ["orders", "customers"]);
    }

    #[test]
    fn ring_assigns_ids_and_evicts_oldest() {
        let r = Recorder::new(3);
        for i in 0..5 {
            let t = r.record(StatementTrace::minimal(1, i, &format!("q{i}"), "d", 10, 0));
            assert_eq!(t.trace_id, i as u64 + 1);
        }
        let held = r.traces();
        assert_eq!(held.len(), 3);
        assert_eq!(r.evicted(), 2);
        let texts: Vec<&str> = held.iter().map(|t| t.statement.as_str()).collect();
        assert_eq!(texts, ["q2", "q3", "q4"]);
        r.clear();
        assert!(r.is_empty());
        // Numbering continues across the wipe.
        assert_eq!(
            r.record(StatementTrace::minimal(1, 9, "q", "d", 1, 0))
                .trace_id,
            6
        );
    }

    #[test]
    fn disabled_recorder_gate() {
        let r = Recorder::new_disabled(8);
        assert!(!r.is_enabled());
        r.set_enabled(true);
        assert!(r.is_enabled());
    }

    #[test]
    fn context_generation_and_children_share_the_trace_id() {
        let root = TraceContext::generate();
        assert_ne!(root.trace_id, 0);
        assert_ne!(root.span_id, 0);
        assert!(root.sampled);
        let child = root.child();
        assert_eq!(child.trace_id, root.trace_id);
        assert_ne!(child.span_id, root.span_id);
        // Two generated roots collide with probability ~2^-128.
        assert_ne!(TraceContext::generate().trace_id, root.trace_id);
    }

    #[test]
    fn traceparent_round_trip() {
        let ctx = TraceContext {
            trace_id: 0x0102_0304_0506_0708_090A_0B0C_0D0E_0F10,
            span_id: 0xDEAD_BEEF_0BAD_F00D,
            sampled: true,
        };
        let s = ctx.to_traceparent();
        assert_eq!(s, "00-0102030405060708090a0b0c0d0e0f10-deadbeef0badf00d-01");
        assert_eq!(TraceContext::parse_traceparent(&s), Some(ctx));
        // Zero ids, wrong version, and wrong shapes are rejected.
        assert!(TraceContext::parse_traceparent(
            "00-00000000000000000000000000000000-deadbeef0badf00d-01"
        )
        .is_none());
        assert!(TraceContext::parse_traceparent("01-aa-bb-01").is_none());
        assert!(TraceContext::parse_traceparent("garbage").is_none());
    }

    #[test]
    fn context_wire_round_trip() {
        let ctx = TraceContext {
            trace_id: u128::MAX - 7,
            span_id: 42,
            sampled: false,
        };
        let mut buf = Vec::new();
        ctx.encode(&mut buf);
        assert_eq!(buf.len(), TraceContext::WIRE_LEN);
        assert_eq!(TraceContext::decode(&buf), Some(ctx));
        assert!(TraceContext::decode(&buf[..24]).is_none());
    }

    #[test]
    fn rehash_is_keyed_and_stable() {
        let ctx = TraceContext::generate();
        let a = ctx.rehash(0x1234);
        assert_eq!(a, ctx.rehash(0x1234), "same key, same rehash");
        assert_ne!(a.trace_id, ctx.trace_id, "join against the original breaks");
        assert_ne!(a.trace_id, ctx.rehash(0x5678).trace_id, "key matters");
        assert_eq!(a.sampled, ctx.sampled);
    }

    #[test]
    fn recorder_stamps_node_on_untagged_traces_only() {
        let r = Recorder::new(8);
        r.set_node("replica-0");
        let t = r.record(StatementTrace::minimal(1, 0, "q", "d", 1, 0));
        assert_eq!(t.node, "replica-0");
        let mut foreign = StatementTrace::minimal(1, 0, "q2", "d", 1, 0);
        foreign.node = "primary".to_string();
        assert_eq!(r.record(foreign).node, "primary");
    }

    #[test]
    fn builder_carries_the_context_into_the_trace() {
        let ctx = TraceContext::generate();
        let mut b = build("SELECT 1");
        b.set_ctx(ctx);
        assert_eq!(b.ctx(), Some(ctx));
        assert_eq!(b.finish(10).ctx, Some(ctx));
    }
}
