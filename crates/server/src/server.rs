//! The server half: a blocking accept loop plus one worker thread
//! per client connection, each owning an engine
//! [`Connection`] and the session state
//! (prepared-text cache) that rides on it.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use mdb_trace::TraceContext;
use minidb::engine::{Connection, Db};
use parking_lot::Mutex;

use crate::wire::{answer_reply_frame, FrameDecoder, WireMessage, WireResultSet};

/// How long a session read blocks before re-checking shutdown.
const READ_POLL: Duration = Duration::from_millis(20);
/// Identification string sent in the greeting.
const SERVER_NAME: &str = "minidb/0.1";
/// Per-session prepared-statement cache capacity; `PREPARE` of a new
/// name beyond it is refused.
pub(crate) const PREPARED_CACHE_CAP: usize = 64;

/// SQL-server configuration.
#[derive(Clone, Debug)]
pub struct ServerOptions {
    /// Listen address (`"127.0.0.1:0"` binds an ephemeral port; read it
    /// back via [`MdbServer::local_addr`]).
    pub listen: String,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            listen: "127.0.0.1:0".into(),
        }
    }
}

/// The SQL server: an accept loop on its own thread, one worker thread
/// per connected client, all executing against one shared [`Db`].
///
/// Lifecycle follows the obs server: a shutdown flag every thread
/// polls, and `stop()` joins the accept thread first, then the workers,
/// with no lock held across a join.
pub struct MdbServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<()>>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

struct Stats {
    connections: mdb_telemetry::Counter,
    statements: mdb_telemetry::Counter,
    wire_errors: mdb_telemetry::Counter,
}

impl MdbServer {
    /// Binds `options.listen` and starts accepting clients for `db`.
    pub fn start(db: Db, options: ServerOptions) -> std::io::Result<MdbServer> {
        let listener = TcpListener::bind(options.listen.as_str())?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let workers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let registry = db.telemetry();
        let stats = Arc::new(Stats {
            connections: registry.counter("server.connections"),
            statements: registry.counter("server.statements"),
            wire_errors: registry.counter("server.wire_errors"),
        });
        let accept_handle = {
            let shutdown = Arc::clone(&shutdown);
            let workers = Arc::clone(&workers);
            std::thread::spawn(move || accept_loop(&listener, &db, &shutdown, &workers, &stats))
        };
        Ok(MdbServer {
            addr,
            shutdown,
            accept_handle: Some(accept_handle),
            workers,
        })
    }

    /// The bound address (resolves an ephemeral `:0` port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop, then joins every session worker. Sessions
    /// notice the flag at their next read poll; an open transaction on
    /// a severed session rolls back when its engine connection drops.
    pub fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept_handle.take() {
            // Wake the blocking `accept`; the loop sees the flag and
            // serves nothing more.
            let _ = TcpStream::connect(self.addr);
            let _ = h.join();
        }
        // Take the handles out, then join outside the lock: a worker
        // exiting concurrently must never deadlock against stop().
        let handles: Vec<_> = std::mem::take(&mut *self.workers.lock());
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for MdbServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(
    listener: &TcpListener,
    db: &Db,
    shutdown: &Arc<AtomicBool>,
    workers: &Mutex<Vec<JoinHandle<()>>>,
    stats: &Arc<Stats>,
) {
    while let Ok((stream, _)) = listener.accept() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        stats.connections.inc();
        let db = db.clone();
        let shutdown = Arc::clone(shutdown);
        let stats = Arc::clone(stats);
        let handle = std::thread::spawn(move || {
            // Session errors only poison this connection.
            let _ = serve_session(&db, stream, &shutdown, &stats);
        });
        workers.lock().push(handle);
    }
}

fn send(stream: &mut TcpStream, msg: &WireMessage) -> std::io::Result<()> {
    stream.write_all(&msg.to_reply_frame())
}

/// Runs one statement and frames its reply: the answer's row block is
/// spliced into the `Result` frame as the engine built it, undecoded.
fn execute(conn: &Connection, sql: &str, ctx: Option<TraceContext>) -> Vec<u8> {
    match conn.execute_encoded(sql, ctx) {
        Ok(answer) => answer_reply_frame(&answer),
        Err(e) => WireMessage::Error {
            message: e.to_string(),
        }
        .to_reply_frame(),
    }
}

fn serve_session(
    db: &Db,
    mut stream: TcpStream,
    shutdown: &AtomicBool,
    stats: &Stats,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(READ_POLL))?;
    stream.set_nodelay(true).ok();
    let mut decoder = FrameDecoder::default();
    let mut buf = [0u8; 4096];

    // Session state: established on Hello.
    let mut conn: Option<Connection> = None;
    let mut prepared: HashMap<String, String> = HashMap::new();

    'session: while !shutdown.load(Ordering::SeqCst) {
        let n = match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(e) => return Err(e),
        };
        decoder.feed(&buf[..n]);
        loop {
            let env = match decoder.next_envelope() {
                Ok(Some(e)) => e,
                Ok(None) => break,
                Err(e) => {
                    // Corrupt frame: report, stay connected — the
                    // decoder has already resynced past it.
                    stats.wire_errors.inc();
                    send(
                        &mut stream,
                        &WireMessage::Error {
                            message: e.to_string(),
                        },
                    )?;
                    continue;
                }
            };
            // The trace context rides on the envelope, not the message:
            // any statement-bearing frame may carry one.
            let ctx = env.ctx;
            match env.msg {
                WireMessage::Hello { user } => {
                    if conn.is_some() {
                        send(
                            &mut stream,
                            &WireMessage::Error {
                                message: "session already established".into(),
                            },
                        )?;
                        continue;
                    }
                    let c = db.connect(&user);
                    send(
                        &mut stream,
                        &WireMessage::Greeting {
                            session_id: c.id,
                            server: SERVER_NAME.into(),
                        },
                    )?;
                    conn = Some(c);
                }
                WireMessage::Query { sql } => {
                    let Some(c) = conn.as_ref() else {
                        send(&mut stream, &hello_first())?;
                        continue;
                    };
                    stats.statements.inc();
                    stream.write_all(&execute(c, &sql, ctx))?;
                }
                WireMessage::Trace => {
                    let Some(c) = conn.as_ref() else {
                        send(&mut stream, &hello_first())?;
                        continue;
                    };
                    let reply = match c.last_trace_rendered() {
                        Some(r) => WireMessage::Result(r),
                        None => WireMessage::Error {
                            message: "no trace recorded for this session \
                                      (flight recorder empty or disabled)"
                                .into(),
                        },
                    };
                    send(&mut stream, &reply)?;
                }
                WireMessage::Prepare { name, sql } => {
                    if conn.is_none() {
                        send(&mut stream, &hello_first())?;
                        continue;
                    }
                    if prepared.len() >= PREPARED_CACHE_CAP && !prepared.contains_key(&name) {
                        send(
                            &mut stream,
                            &WireMessage::Error {
                                message: format!(
                                    "prepared cache full ({PREPARED_CACHE_CAP} statements)"
                                ),
                            },
                        )?;
                        continue;
                    }
                    prepared.insert(name, sql);
                    send(&mut stream, &WireMessage::Result(WireResultSet::default()))?;
                }
                WireMessage::ExecutePrepared { name } => {
                    let Some(c) = conn.as_ref() else {
                        send(&mut stream, &hello_first())?;
                        continue;
                    };
                    let Some(sql) = prepared.get(&name).cloned() else {
                        send(
                            &mut stream,
                            &WireMessage::Error {
                                message: format!("unknown prepared statement '{name}'"),
                            },
                        )?;
                        continue;
                    };
                    stats.statements.inc();
                    stream.write_all(&execute(c, &sql, ctx))?;
                }
                WireMessage::Quit => {
                    send(&mut stream, &WireMessage::Bye)?;
                    break 'session;
                }
                // Server → client messages arriving at the server are a
                // confused (or malicious) peer.
                WireMessage::Greeting { .. }
                | WireMessage::Result(_)
                | WireMessage::Error { .. }
                | WireMessage::Bye => {
                    stats.wire_errors.inc();
                    send(
                        &mut stream,
                        &WireMessage::Error {
                            message: "unexpected server-side message".into(),
                        },
                    )?;
                }
            }
        }
    }
    // `conn` drops here: the engine disconnects the processlist entry
    // and rolls back any transaction the client left open.
    Ok(())
}

fn hello_first() -> WireMessage {
    WireMessage::Error {
        message: "say Hello first".into(),
    }
}
