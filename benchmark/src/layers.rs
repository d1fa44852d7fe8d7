//! Per-layer attribution: the single-threaded, in-process replay that
//! puts one span around every public call a statement crosses on its
//! way from client to replica, the Chrome trace it writes, and the
//! timings of the layers no statement crosses on its own (log sealing,
//! vacuum).
//!
//! The spans are recorded here, around the calls into each layer; spans
//! inside the engine are a later change (ROADMAP item 1).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use edb_crypto::{logenc, Key};
use mdb_repl::wire::{FrameDecoder as ReplDecoder, SequencedEvent, WireMessage as ReplMessage};
use mdb_repl::{relay, ReplError};
use mdb_server::wire::Envelope;
use mdb_server::{FrameDecoder, WireMessage, WireResultSet};
use mdb_trace::TraceContext;
use minidb::sql::parse_statement;
use minidb::{Connection, Db, DbConfig};

use crate::driver::check_result;
use crate::workload::{Check, Interleaved, Stmt, Workload};

/// Span names, one per layer boundary. The prefix is the module.
pub mod span {
    /// One statement, client send to client receive: parent of the rest.
    pub const STATEMENT: &str = "client.statement";
    /// Client: draw the trace context, frame the query.
    pub const ENCODE_REQ: &str = "server.wire.encode_req";
    /// Server: reassemble and decode the query frame.
    pub const DECODE_REQ: &str = "server.wire.decode_req";
    /// `sql::parser::parse_statement` alone (the engine parses again
    /// inside `execute`; this span sizes that share).
    pub const PARSE: &str = "minidb.sql.parse";
    /// `Connection::execute_traced`.
    pub const EXECUTE: &str = "minidb.engine.execute";
    /// Server: frame the result set.
    pub const ENCODE_RES: &str = "server.wire.encode_res";
    /// Client: reassemble and decode the result frame.
    pub const DECODE_RES: &str = "server.wire.decode_res";
    /// Primary streamer: read new binlog frames, frame the batch.
    pub const SHIP: &str = "repl.wire.ship";
    /// Replica: reassemble and decode the batch.
    pub const RECEIVE: &str = "repl.wire.receive";
    /// Replica: append the event to the relay log.
    pub const RELAY: &str = "repl.relay.append";
    /// Replica: open the frame and `apply_replicated`.
    pub const APPLY: &str = "repl.apply";
}

/// Spans whose time lies on a statement's way from send to receive.
const BLOCKING: [&str; 5] = [
    span::ENCODE_REQ,
    span::DECODE_REQ,
    span::EXECUTE,
    span::ENCODE_RES,
    span::DECODE_RES,
];

/// One recorded span.
pub struct Span {
    /// Layer boundary, one of [`span`].
    pub name: &'static str,
    /// The span that caused it (`""` for a statement's root).
    pub parent: &'static str,
    /// Statement id shared by every span of one statement.
    pub stmt: u32,
    /// Connection the statement ran on.
    pub conn: u8,
    /// Start, nanoseconds since the replay began.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
}

/// Records spans in memory, or nothing at all when off.
struct Tracer {
    on: bool,
    origin: Instant,
    stmt: u32,
    conn: u8,
    spans: Vec<Span>,
}

impl Tracer {
    /// Opens a span that encloses others; [`Tracer::end`] closes it.
    fn begin(&mut self, name: &'static str) -> Option<(usize, Duration)> {
        if !self.on {
            return None;
        }
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name,
            parent: "",
            stmt: self.stmt,
            conn: self.conn,
            start_ns: start.as_nanos() as u64,
            dur_ns: 0,
        });
        Some((self.spans.len() - 1, start))
    }

    fn end(&mut self, open: Option<(usize, Duration)>) {
        if let Some((at, start)) = open {
            self.spans[at].dur_ns = (self.origin.elapsed() - start).as_nanos() as u64;
        }
    }

    fn span<T>(&mut self, name: &'static str, parent: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = self.origin.elapsed();
        let out = f();
        let dur = self.origin.elapsed() - start;
        self.spans.push(Span {
            name,
            parent,
            stmt: self.stmt,
            conn: self.conn,
            start_ns: start.as_nanos() as u64,
            dur_ns: dur.as_nanos() as u64,
        });
        out
    }
}

/// What one replay produced.
pub struct Replay {
    /// Every span, in completion order (empty when spans were off).
    pub spans: Vec<Span>,
    /// Statements replayed.
    pub statements: u64,
    /// Statements that failed or returned the wrong result.
    pub failed: u64,
    /// Wall time of the replay loop.
    pub wall: Duration,
    /// Bytes of result frames produced.
    pub res_bytes: u64,
}

/// The replica side of the replay: a scratch read-only node fed by hand.
struct ScratchReplica {
    db: Db,
    next_seq: u64,
    decoder: ReplDecoder,
}

impl ScratchReplica {
    /// Ships everything the primary logged since the last call through
    /// the replication codec into the scratch replica.
    fn ship(&mut self, primary: &Db, tracer: &mut Tracer) -> Result<(), ReplError> {
        loop {
            let (frame, next) = tracer.span(span::SHIP, span::STATEMENT, || {
                let (frames, next) = primary.binlog_frames_from(self.next_seq, 64);
                let events = frames
                    .into_iter()
                    .map(|(seq, sealed, payload)| SequencedEvent {
                        seq,
                        sealed,
                        payload,
                    })
                    .collect();
                (ReplMessage::Events { events }.to_frame(), next)
            });
            if next == self.next_seq {
                return Ok(());
            }
            self.next_seq = next;
            let msg = tracer.span(span::RECEIVE, span::STATEMENT, || {
                self.decoder.feed(&frame);
                self.decoder.next_message()
            })?;
            let Some(ReplMessage::Events { events }) = msg else {
                return Err(ReplError::Protocol("batch did not decode".into()));
            };
            for ev in events {
                tracer.span(span::RELAY, span::STATEMENT, || {
                    relay::append_event(&self.db, &ev)
                });
                tracer.span(span::APPLY, span::STATEMENT, || {
                    let event = self.db.decode_binlog_frame(ev.sealed, &ev.payload)?;
                    self.db
                        .apply_replicated_ctx(&event.statement, event.timestamp, event.ctx)
                })?;
            }
        }
    }
}

/// One statement through every codec and engine call of the wire path:
/// client frame → server decode → execute → result frame → client
/// decode. The two decoders are the server's and the client's.
fn round_trip(
    tracer: &mut Tracer,
    (req_decoder, res_decoder): &mut (FrameDecoder, FrameDecoder),
    conn: &Connection,
    stmt: &Stmt,
    res_bytes: &mut u64,
) -> bool {
    let frame = tracer.span(span::ENCODE_REQ, span::STATEMENT, || {
        Envelope {
            msg: WireMessage::Query {
                sql: stmt.sql.clone(),
            },
            ctx: Some(TraceContext::generate()),
        }
        .to_frame()
    });
    let env = tracer.span(span::DECODE_REQ, span::STATEMENT, || {
        req_decoder.feed(&frame);
        req_decoder.next_envelope()
    });
    let Ok(Some(Envelope {
        msg: WireMessage::Query { sql },
        ctx,
    })) = env
    else {
        return false;
    };
    tracer.span(span::PARSE, span::STATEMENT, || {
        black_box(parse_statement(black_box(&sql))).is_ok()
    });
    let result = tracer.span(span::EXECUTE, span::STATEMENT, || {
        conn.execute_traced(&sql, ctx)
    });
    let Ok(result) = result else {
        return false;
    };
    let frame = tracer.span(span::ENCODE_RES, span::STATEMENT, || {
        WireMessage::Result(WireResultSet {
            columns: result.columns,
            rows: result.rows,
            rows_examined: result.rows_examined,
            rows_affected: result.rows_affected,
        })
        .to_frame()
    });
    *res_bytes += frame.len() as u64;
    let reply = tracer.span(span::DECODE_RES, span::STATEMENT, || {
        res_decoder.feed(&frame);
        res_decoder.next_message()
    });
    matches!(reply, Ok(Some(WireMessage::Result(r))) if check_result(&stmt.check, &r))
}

/// Replays the first `max_statements` statements of the seeded stream
/// (or as many as fit in `time_cap`) on fresh in-process nodes: every
/// codec and engine call the wire path makes, minus sockets and threads.
pub fn replay(
    workload: Workload,
    seed: u64,
    smoke: bool,
    max_statements: u64,
    time_cap: Duration,
    traced: bool,
) -> Replay {
    let config = workload.config();
    let primary = Db::open(config.clone());
    let loader = primary.connect("load");
    for sql in workload.load_statements(seed, smoke) {
        loader.execute(&sql).expect("load statement succeeds");
    }
    let mut tracer = Tracer {
        on: false,
        origin: Instant::now(),
        stmt: 0,
        conn: 0,
        spans: Vec::new(),
    };
    let mut replica = workload.replicated().then(|| ScratchReplica {
        db: Db::open(DbConfig {
            server_id: 2,
            read_only: true,
            ..config
        }),
        next_seq: 0,
        decoder: ReplDecoder::default(),
    });
    if let Some(r) = &mut replica {
        r.ship(&primary, &mut tracer).expect("load replicates");
    }

    let conns = [primary.connect("c0"), primary.connect("c1")];
    let mut stream = Interleaved::new(workload, seed, smoke);
    let mut codecs = (FrameDecoder::default(), FrameDecoder::default());
    let mut out = Replay {
        spans: Vec::new(),
        statements: 0,
        failed: 0,
        wall: Duration::ZERO,
        res_bytes: 0,
    };
    tracer.on = traced;
    tracer.origin = Instant::now();
    let started = Instant::now();
    while out.statements < max_statements && started.elapsed() < time_cap {
        let (conn, unit) = stream.next_unit();
        for stmt in unit.stmts {
            tracer.stmt = out.statements as u32;
            tracer.conn = conn as u8;
            out.statements += 1;
            // The root closes when the client has its reply; what
            // follows is the replication the statement caused.
            let root = tracer.begin(span::STATEMENT);
            let ok = round_trip(
                &mut tracer,
                &mut codecs,
                &conns[conn],
                &stmt,
                &mut out.res_bytes,
            );
            tracer.end(root);
            let logged = matches!(stmt.check, Check::Affected(_)) || stmt.sql == "COMMIT";
            let shipped = match (&mut replica, logged) {
                (Some(r), true) => r.ship(&primary, &mut tracer).is_ok(),
                _ => true,
            };
            if !(ok && shipped) {
                out.failed += 1;
            }
        }
    }
    out.wall = started.elapsed();
    out.spans = tracer.spans;
    out
}

/// Nearest-rank percentile of unsorted samples; 0 when there are none.
pub fn percentile(samples: &mut [u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1] as f64
}

/// Median duration of every span name, nanoseconds.
pub fn span_p50_ns(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut by_name: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for s in spans {
        by_name.entry(s.name).or_default().push(s.dur_ns);
    }
    by_name
        .into_iter()
        .map(|(name, mut d)| (name, percentile(&mut d, 0.5)))
        .collect()
}

/// Sum of the medians of the in-process layers a statement waits for,
/// microseconds. What is left of the end-to-end median is TCP, thread
/// hand-off and the wait for the engine lock.
pub fn blocking_p50_us(p50_ns: &BTreeMap<&'static str, f64>) -> f64 {
    BLOCKING
        .iter()
        .map(|name| p50_ns.get(name).copied().unwrap_or(0.0))
        .sum::<f64>()
        / 1e3
}

/// Writes the spans as Chrome `trace_event` JSON (`chrome://tracing`,
/// Perfetto): one complete event per span, one lane per connection.
pub fn write_chrome_trace(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    w.write_all(b"{\"traceEvents\":[")?;
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            w.write_all(b",")?;
        }
        write!(
            w,
            "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"stmt\":{},\"parent\":\"{}\"}}}}",
            s.name,
            s.conn,
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3,
            s.stmt,
            s.parent
        )?;
    }
    w.write_all(b"\n]}\n")?;
    w.flush()
}

/// Seal and open cost of the log-encryption layer, nanoseconds per
/// byte, timed on the run's own binlog frame payloads.
pub fn logenc_ns_per_byte(primary: &Db, key: [u8; 32]) -> (f64, f64) {
    let (frames, _) = primary.binlog_frames_from(0, 2_000);
    let bytes: usize = frames.iter().map(|(_, _, p)| p.len()).sum();
    if bytes == 0 {
        return (0.0, 0.0);
    }
    let key = Key(key);
    let started = Instant::now();
    let sealed: Vec<Vec<u8>> = frames
        .iter()
        .map(|(seq, _, p)| logenc::seal(&key, 1, logenc::STREAM_BINLOG, *seq, black_box(p)))
        .collect();
    let seal_ns = started.elapsed().as_nanos() as f64;
    let started = Instant::now();
    for s in &sealed {
        black_box(logenc::open(&key, black_box(s)).expect("own seal opens"));
    }
    let open_ns = started.elapsed().as_nanos() as f64;
    (seal_ns / bytes as f64, open_ns / bytes as f64)
}
