//! The client half: a blocking connector speaking the [`crate::wire`]
//! protocol. One [`MdbClient`] is one server session — and therefore
//! one engine connection, one transaction scope, one MVCC snapshot at
//! a time.
//!
//! The client is also the *root* of every distributed trace: with
//! tracing on (the default) each statement gets a fresh
//! [`TraceContext`] that rides the v2 frame to the server, and the
//! client records its own `wire_send` / `wire_recv` spans into an
//! attached [`Recorder`] — the client lane of a merged multi-node
//! timeline ([`mdb_trace::merge`]).

use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

use mdb_trace::{Recorder, TraceBuilder, TraceContext};

use crate::wire::{Envelope, FrameDecoder, WireError, WireMessage, WireResultSet};

/// Client-side protocol error.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(std::io::Error),
    /// The byte stream failed to parse.
    Wire(WireError),
    /// The server reported a statement error.
    Server(String),
    /// The server sent a message this call did not expect.
    Unexpected(String),
    /// The server closed the stream.
    Closed,
    /// The request's payload, of this many bytes, exceeds
    /// [`crate::wire::MAX_FRAME_LEN`]; nothing was sent.
    TooLarge(usize),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Wire(e) => write!(f, "wire error: {e}"),
            ClientError::Server(m) => write!(f, "server error: {m}"),
            ClientError::Unexpected(m) => write!(f, "unexpected message: {m}"),
            ClientError::Closed => write!(f, "connection closed"),
            ClientError::TooLarge(len) => {
                write!(f, "request of {len} bytes exceeds the frame limit")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// Simulated cost model for the client's own spans (µs): the wire
/// spans bracket the round trip so the gap midpoint is the client's
/// estimate of the server statement's midpoint (the merge anchor).
const CLIENT_TOTAL_US: u64 = 400;
const WIRE_SEND_START_US: u64 = 50;
const WIRE_SPAN_US: u64 = 50;
const WIRE_RECV_START_US: u64 = 300;

/// Bytes the client asks the socket for per read.
const READ_BUF: usize = 64 * 1024;

/// A connected SQL session.
pub struct MdbClient {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Socket read buffer, [`READ_BUF`] bytes: a range reply arrives in
    /// one or two reads instead of a 4 KiB stack chunk per syscall.
    read_buf: Box<[u8]>,
    session_id: u64,
    server: String,
    /// Whether statements carry a distributed trace context (v2 frames).
    tracing: bool,
    /// Mark only every Nth context sampled (the sampling mitigation);
    /// 1 = every statement.
    sample_every: u64,
    statements_sent: u64,
    /// Context the most recent statement travelled under.
    last_ctx: Option<TraceContext>,
    /// Client-side flight recorder for `wire_send`/`wire_recv` spans.
    recorder: Option<Recorder>,
    /// The client's own simulated clock (UNIX seconds), advancing one
    /// second per statement like the engine's default cost model —
    /// deliberately *not* synchronized with the server, so the merged
    /// timeline has a real clock offset to estimate.
    clock_unix: i64,
}

impl MdbClient {
    /// Connects, performs the Hello/Greeting handshake as `user`.
    pub fn connect(addr: impl ToSocketAddrs, user: &str) -> Result<MdbClient, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let mut client = MdbClient {
            stream,
            decoder: FrameDecoder::default(),
            read_buf: vec![0; READ_BUF].into_boxed_slice(),
            session_id: 0,
            server: String::new(),
            tracing: true,
            sample_every: 1,
            statements_sent: 0,
            last_ctx: None,
            recorder: None,
            clock_unix: 0,
        };
        client.send(WireMessage::Hello { user: user.into() }, None)?;
        match client.recv()? {
            WireMessage::Greeting { session_id, server } => {
                client.session_id = session_id;
                client.server = server;
                Ok(client)
            }
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Enables or disables distributed tracing. Off, every frame is
    /// v1 — byte-identical to a pre-tracing client.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    /// The sampling mitigation: only every `every`-th statement's
    /// context is marked sampled (unsampled contexts still propagate,
    /// but recorders drop them). `1` samples everything.
    pub fn set_trace_sampling(&mut self, every: u64) {
        self.sample_every = every.max(1);
    }

    /// Attaches a flight recorder for the client's own spans (set its
    /// node identity first — it labels the client lane in a merge).
    pub fn attach_recorder(&mut self, recorder: Recorder) {
        self.recorder = Some(recorder);
    }

    /// Sets the client's simulated clock (UNIX seconds). It advances
    /// one second per statement.
    pub fn set_clock(&mut self, unix: i64) {
        self.clock_unix = unix;
    }

    /// The context the most recent statement travelled under, if any.
    pub fn last_ctx(&self) -> Option<TraceContext> {
        self.last_ctx
    }

    /// The engine connection id backing this session.
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// The server identification string from the greeting.
    pub fn server_name(&self) -> &str {
        &self.server
    }

    /// Executes one SQL statement and waits for its result.
    pub fn query(&mut self, sql: &str) -> Result<WireResultSet, ClientError> {
        self.statement(WireMessage::Query { sql: sql.into() }, sql)
    }

    /// Caches `sql` under `name` in the server-side session.
    pub fn prepare(&mut self, name: &str, sql: &str) -> Result<(), ClientError> {
        let msg = WireMessage::Prepare {
            name: name.into(),
            sql: sql.into(),
        };
        self.send(msg, None)?;
        self.expect_result().map(|_| ())
    }

    /// Executes a statement prepared with [`MdbClient::prepare`].
    pub fn execute_prepared(&mut self, name: &str) -> Result<WireResultSet, ClientError> {
        self.statement(
            WireMessage::ExecutePrepared { name: name.into() },
            &format!("EXECUTE {name}"),
        )
    }

    /// Fetches the server-side trace of this session's most recent
    /// statement, rendered as the `EXPLAIN ANALYZE` span table (the
    /// `\trace` meta-command).
    pub fn trace(&mut self) -> Result<WireResultSet, ClientError> {
        self.send(WireMessage::Trace, None)?;
        self.expect_result()
    }

    /// One statement round trip: generate the root context, frame,
    /// send, await the result, and record the client-side spans.
    fn statement(
        &mut self,
        msg: WireMessage,
        display_sql: &str,
    ) -> Result<WireResultSet, ClientError> {
        let ctx = if self.tracing {
            let mut c = TraceContext::generate();
            c.sampled = self.statements_sent.is_multiple_of(self.sample_every);
            Some(c)
        } else {
            None
        };
        self.statements_sent += 1;
        self.last_ctx = ctx;
        let started = self.clock_unix;
        self.clock_unix += 1;
        self.send(msg, ctx)?;
        let result = self.expect_result();
        if let (Some(rec), Some(ctx)) = (&self.recorder, ctx) {
            if rec.is_enabled() && ctx.sampled {
                let mut b = TraceBuilder::new(
                    self.session_id,
                    started,
                    display_sql,
                    &minidb::sql::digest_text(display_sql),
                );
                b.set_ctx(ctx);
                b.begin("wire_send");
                b.end(WIRE_SPAN_US);
                b.begin("wire_recv");
                b.end(WIRE_SPAN_US);
                let mut t = b.finish(CLIENT_TOTAL_US);
                // Place the wire spans at the modeled offsets so the
                // send→recv gap midpoint is a usable merge anchor.
                t.root.children[0].start_us = WIRE_SEND_START_US;
                t.root.children[1].start_us = WIRE_RECV_START_US;
                if let Ok(rs) = &result {
                    t.root
                        .attrs
                        .push(("rows_examined".into(), rs.rows_examined));
                }
                rec.record(t);
            }
        }
        result
    }

    /// Closes the session gracefully (Quit/Bye).
    pub fn close(mut self) -> Result<(), ClientError> {
        self.send(WireMessage::Quit, None)?;
        match self.recv()? {
            WireMessage::Bye => Ok(()),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Frames and writes one request, refusing one the server's decoder
    /// would drop without an answer ([`Envelope::to_request_frame`]).
    fn send(&mut self, msg: WireMessage, ctx: Option<TraceContext>) -> Result<(), ClientError> {
        let frame = Envelope { msg, ctx }
            .to_request_frame()
            .map_err(ClientError::TooLarge)?;
        self.stream.write_all(&frame)?;
        Ok(())
    }

    fn recv(&mut self) -> Result<WireMessage, ClientError> {
        loop {
            if let Some(msg) = self.decoder.next_message()? {
                return Ok(msg);
            }
            let n = self.stream.read(&mut self.read_buf)?;
            if n == 0 {
                return Err(ClientError::Closed);
            }
            self.decoder.feed(&self.read_buf[..n]);
        }
    }

    fn expect_result(&mut self) -> Result<WireResultSet, ClientError> {
        match self.recv()? {
            WireMessage::Result(rs) => Ok(rs),
            WireMessage::Error { message } => Err(ClientError::Server(message)),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }
}
