//! The SPFE session server: a TCP accept loop multiplexing concurrent
//! sessions, one thread per connection.
//!
//! Each connection carries exactly one session, opened by a Hello frame
//! whose label names the driver — the server hosts that driver's server
//! cores (`spfe::harness`) and answers every message with the cores'
//! reply — or a [`FrameKind::Stats`] scrape, answered with a live
//! `spfe-metrics/v1` snapshot on the same listener (DESIGN.md §16).
//! Sessions are fully isolated: a connection that stalls, dies
//! mid-protocol, sends garbage, or even panics its session thread poisons
//! only its own session — the accept loop and every other session keep
//! running, which is the property `tests/net_timeout.rs` pins down.
//!
//! Every session settles into the operational [`Metrics`] registry:
//! opened/completed counters, the typed [`FailureKind`] taxonomy instead
//! of one opaque `failed` count, per-frame byte totals, and a
//! per-driver wall-clock histogram folded at close. With
//! `SPFE_LOG` set, each session additionally emits one structured JSONL
//! line on stderr ([`SessionLogRecord`]).
//!
//! Shutdown is cooperative: [`Server::shutdown`] flips a flag and nudges
//! the accept loop awake with a loopback connection, then joins it. No
//! signal handling, no non-std dependencies.

use crate::client::write_stamped;
use spfe::harness::{self, ServerCore};
use spfe_obs::metrics::{
    epoch_micros, FailureKind, Metrics, MetricsSnapshot, SessionLogRecord, SessionUsage,
};
use spfe_transport::frame::{read_frame_or_eof, read_frame_or_eof_traced, write_frame};
use spfe_transport::{Frame, FrameKind, Lamport, ProtocolError};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Per-connection read deadline. A session whose client goes quiet
    /// for longer is torn down (its thread exits); other sessions are
    /// unaffected. `None` waits forever.
    pub read_deadline: Option<Duration>,
    /// Fault injection for tests: a Hello naming this driver makes the
    /// session thread panic mid-handshake, exercising the unwind-capture
    /// path (counted as [`FailureKind::Panic`]). Never set in production.
    pub inject_panic_driver: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            read_deadline: Some(Duration::from_secs(30)),
            inject_panic_driver: None,
        }
    }
}

/// A running SPFE session server.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    metrics: Arc<Metrics>,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// accept loop on a background thread.
    ///
    /// # Errors
    ///
    /// Any `io::Error` from binding the listener.
    pub fn bind(addr: &str, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let metrics = Arc::new(Metrics::new());
        let accept = {
            let stop = Arc::clone(&stop);
            let metrics = Arc::clone(&metrics);
            std::thread::spawn(move || accept_loop(&listener, &config, &stop, &metrics))
        };
        Ok(Server {
            addr: local,
            stop,
            metrics,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live metrics registry (shared with the accept loop).
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.metrics)
    }

    /// A point-in-time copy of every operational counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Sessions opened so far (a connection that showed frame activity;
    /// clean connect-and-close probes and metrics scrapes are excluded).
    pub fn sessions_opened(&self) -> u64 {
        self.metrics.sessions_opened()
    }

    /// Sessions that ran to a clean close (Bye or clean EOF).
    pub fn sessions_completed(&self) -> u64 {
        self.metrics.sessions_completed()
    }

    /// Sessions torn down on an error, summed over the failure taxonomy.
    pub fn sessions_failed(&self) -> u64 {
        self.metrics.sessions_failed()
    }

    /// Sessions torn down with one specific [`FailureKind`].
    pub fn failures(&self, kind: FailureKind) -> u64 {
        self.metrics.failures(kind)
    }

    /// Stops accepting, wakes the accept loop, and joins it. In-flight
    /// session threads run to completion on their own; their sockets are
    /// not yanked.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Nudge the blocking accept() awake with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Maps a session-stage [`ProtocolError`] into the failure taxonomy.
/// `handshake` is true until the Hello acknowledgement was written.
pub fn classify_failure(handshake: bool, e: &ProtocolError) -> FailureKind {
    match e {
        ProtocolError::Codec(_) => FailureKind::CodecReject,
        ProtocolError::Timeout { .. } if handshake => FailureKind::HandshakeTimeout,
        ProtocolError::Timeout { .. } | ProtocolError::RetriesExhausted { .. } => {
            FailureKind::TransferTimeout
        }
        ProtocolError::ServerCrashed { .. } | ProtocolError::Dropped { .. } => FailureKind::Io,
        _ => FailureKind::ProtocolError,
    }
}

fn accept_loop(
    listener: &TcpListener,
    config: &ServerConfig,
    stop: &AtomicBool,
    metrics: &Arc<Metrics>,
) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let config = config.clone();
        let metrics = Arc::clone(metrics);
        std::thread::spawn(move || run_session(stream, &config, &metrics));
    }
}

/// How a session ended when no failure tore it down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SessionEnd {
    /// Clean EOF before any frame (the shutdown nudge, port scanners):
    /// not a session, nothing counted.
    Noop,
    /// A metrics scrape; tracked as `stats_probes`, not as a session.
    Stats,
    /// A session that ran to Bye or clean EOF.
    Completed,
}

/// A torn-down session: the classification plus the underlying error.
#[derive(Debug)]
struct SessionFailure {
    kind: FailureKind,
    #[allow(dead_code)] // kept for debug formatting in logs/tests
    error: ProtocolError,
}

/// What the session thread knows about itself, shared across the unwind
/// boundary so a panicking session still settles its partial accounting.
#[derive(Debug, Default)]
struct SessionCtx {
    session: u64,
    driver: String,
    opened: bool,
    /// What the session transferred so far, metered by the server itself.
    usage: SessionUsage,
}

/// The metrics `mode` label of every session: the server computes its
/// half of the protocol.
const MODE: &str = "compute";

fn lock_ctx<'a>(ctx: &'a Mutex<SessionCtx>) -> std::sync::MutexGuard<'a, SessionCtx> {
    ctx.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Counts the session as opened exactly once (first frame activity).
fn ensure_opened(ctx: &Mutex<SessionCtx>, metrics: &Metrics) {
    let mut c = lock_ctx(ctx);
    if !c.opened {
        c.opened = true;
        metrics.session_opened();
    }
}

/// Builds a classified failure, making sure the session was counted as
/// opened first so `opened == completed + failed + active` always holds.
fn fail(
    ctx: &Mutex<SessionCtx>,
    metrics: &Metrics,
    handshake: bool,
    error: ProtocolError,
) -> SessionFailure {
    ensure_opened(ctx, metrics);
    SessionFailure {
        kind: classify_failure(handshake, &error),
        error,
    }
}

/// Runs one connection to completion and settles its metrics + log line.
fn run_session(mut stream: TcpStream, config: &ServerConfig, metrics: &Arc<Metrics>) {
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "unknown".to_owned());
    let start = Instant::now();
    let ctx = Mutex::new(SessionCtx::default());
    let result = catch_unwind(AssertUnwindSafe(|| {
        serve_connection(&mut stream, config, metrics, &ctx)
    }));
    let ctx = ctx.into_inner().unwrap_or_else(PoisonError::into_inner);
    let outcome: Result<(), FailureKind> = match &result {
        Ok(Ok(SessionEnd::Noop)) | Ok(Ok(SessionEnd::Stats)) => return,
        Ok(Ok(SessionEnd::Completed)) => Ok(()),
        Ok(Err(f)) => Err(f.kind),
        Err(_) => {
            // The session thread panicked. The unwind is contained here:
            // count it, log it, and let the thread exit quietly.
            if !ctx.opened {
                metrics.session_opened();
            }
            Err(FailureKind::Panic)
        }
    };
    let usage = SessionUsage {
        wall_micros: start.elapsed().as_micros() as u64,
        ..ctx.usage
    };
    let driver = if ctx.driver.is_empty() {
        "unknown"
    } else {
        ctx.driver.as_str()
    };
    // Close the per-session span in this thread's trace journal; the
    // settle path runs even when the session failed or panicked, so a
    // captured server journal always balances its session slices. The
    // journal is complete before the session counts as settled.
    if ctx.opened {
        spfe_obs::net_session_event(false, ctx.session, driver);
        spfe_obs::trace::flush();
    }
    metrics.session_closed(driver, MODE, outcome, usage);
    SessionLogRecord {
        seq: spfe_obs::metrics::next_log_seq(),
        ts_micros: epoch_micros(),
        session: ctx.session,
        peer: &peer,
        driver,
        mode: MODE,
        outcome: match outcome {
            Ok(()) => "ok",
            Err(kind) => kind.name(),
        },
        wall_micros: usage.wall_micros,
        bytes_in: usage.bytes_in,
        bytes_out: usage.bytes_out,
        half_rounds: usage.half_rounds,
    }
    .emit();
}

/// Sends an Error frame (best effort) and returns the protocol error.
fn abort(stream: &mut TcpStream, session: u64, label: &str, reason: &'static str) -> ProtocolError {
    let e = ProtocolError::InvalidMessage {
        label: "net-session",
        reason,
    };
    let frame = Frame::control(
        FrameKind::Error,
        false,
        session,
        label,
        reason.as_bytes().to_vec(),
    );
    let _ = write_frame(stream, &frame, 0, "net-error");
    e
}

/// Runs one session (or scrape) on the session's own thread.
fn serve_connection(
    stream: &mut TcpStream,
    config: &ServerConfig,
    metrics: &Metrics,
    ctx: &Mutex<SessionCtx>,
) -> Result<SessionEnd, SessionFailure> {
    if stream
        .set_read_timeout(config.read_deadline)
        .and_then(|()| stream.set_write_timeout(config.read_deadline))
        .is_err()
    {
        return Err(fail(
            ctx,
            metrics,
            true,
            ProtocolError::InvalidMessage {
                label: "net-session",
                reason: "could not configure socket deadlines",
            },
        ));
    }
    let hello = match read_frame_or_eof(stream, true, 0, "net-hello") {
        // The shutdown nudge (and port scanners) connect and immediately
        // close; that is a no-op, not a failed session.
        Ok(None) => return Ok(SessionEnd::Noop),
        Ok(Some(f)) => f,
        Err(e) => return Err(fail(ctx, metrics, true, e)),
    };
    if hello.kind == FrameKind::Stats {
        return Ok(stats_session(stream, metrics, hello));
    }
    ensure_opened(ctx, metrics);
    {
        let mut c = lock_ctx(ctx);
        c.session = hello.session;
        c.driver = hello.label.clone();
    }
    if hello.kind != FrameKind::Hello {
        return Err(fail(
            ctx,
            metrics,
            true,
            abort(stream, hello.session, "", "expected a hello frame"),
        ));
    }
    let session = hello.session;
    spfe_obs::net_session_event(true, session, &hello.label);
    if config.inject_panic_driver.as_deref() == Some(hello.label.as_str()) {
        panic!("injected session panic (ServerConfig::inject_panic_driver)");
    }
    let Some(cores) = harness::cores(&hello.label) else {
        return Err(fail(
            ctx,
            metrics,
            true,
            abort(stream, session, &hello.label, "unknown driver"),
        ));
    };
    let mut cores = cores(0).servers();
    let ack = Frame::control(FrameKind::Hello, false, session, &hello.label, Vec::new());
    if let Err(e) = write_frame(stream, &ack, 0, "net-hello") {
        return Err(fail(ctx, metrics, true, e));
    }
    compute_session(stream, session, &mut cores, metrics, ctx).map(|()| SessionEnd::Completed)
}

/// Answers [`FrameKind::Stats`] requests until the scraper hangs up.
/// Scrapes are best effort and never count as session failures; each
/// answered request bumps `stats_probes`. The request payload selects
/// the format: `[0]` (or empty) = `spfe-metrics/v1` JSON, `[1]` =
/// Prometheus text exposition.
fn stats_session(stream: &mut TcpStream, metrics: &Metrics, first: Frame) -> SessionEnd {
    let mut request = first;
    loop {
        metrics.stats_probe();
        let snap = metrics.snapshot();
        let (label, body) = if request.payload.first() == Some(&1) {
            ("prom", snap.prometheus())
        } else {
            ("json", snap.to_json())
        };
        let reply = Frame::control(
            FrameKind::Stats,
            false,
            request.session,
            label,
            body.into_bytes(),
        );
        if write_frame(stream, &reply, 0, "net-stats").is_err() {
            return SessionEnd::Stats;
        }
        request = match read_frame_or_eof(stream, true, 0, "net-stats") {
            // `--watch` holds the connection and sends further Stats
            // frames; anything else ends the scrape.
            Ok(Some(f)) if f.kind == FrameKind::Stats => f,
            _ => return SessionEnd::Stats,
        };
    }
}

/// Feeds each Msg frame to the addressed server core and writes its one
/// reply back, until the client sends Bye (or hangs up) or an error
/// tears the session down. Incoming frames meter as client → server
/// traffic, originated replies as server → client. Half-rounds come from
/// the server's own exchange count, never from the client's stamps: a
/// reply to a core's `j`-th exchange is half-round `2j`, and the session
/// has as many half-rounds as its furthest reply.
fn compute_session(
    stream: &mut TcpStream,
    session: u64,
    cores: &mut [ServerCore],
    metrics: &Metrics,
    ctx: &Mutex<SessionCtx>,
) -> Result<(), SessionFailure> {
    serve_cores(stream, session, cores, metrics, ctx).map_err(|e| fail(ctx, metrics, false, e))
}

fn serve_cores(
    stream: &mut TcpStream,
    session: u64,
    cores: &mut [ServerCore],
    metrics: &Metrics,
    ctx: &Mutex<SessionCtx>,
) -> Result<(), ProtocolError> {
    let mut clock = Lamport::new();
    loop {
        let Some((frame, carried)) = read_frame_or_eof_traced(stream, true, 0, "net-compute")?
        else {
            return Ok(());
        };
        let recv_stamp = clock.observe(carried.unwrap_or(0));
        let bytes = frame.payload.len() as u64;
        match frame.kind {
            FrameKind::Bye => {
                spfe_obs::net_frame_event(false, "net-bye", 0, frame.half_round, recv_stamp);
                return Ok(());
            }
            FrameKind::Msg if frame.session == session => {
                spfe_obs::net_frame_event(false, &frame.label, bytes, frame.half_round, recv_stamp);
                metrics.transfer(true, bytes);
                {
                    let usage = &mut lock_ctx(ctx).usage;
                    usage.bytes_in += bytes;
                    usage.frames_in += 1;
                }
                let idx = frame.server as usize;
                let Some(core) = cores.get_mut(idx) else {
                    let reason = "message addresses an unknown server";
                    return Err(abort(stream, session, &frame.label, reason));
                };
                let (label, payload) = match core.on_message(&frame.label, &frame.payload) {
                    Ok(reply) => reply,
                    Err(e) => {
                        let reason = "server core rejected the message";
                        let _ = abort(stream, session, &frame.label, reason);
                        return Err(e);
                    }
                };
                let half_round = 2 * core.answered() as u32;
                let reply = Frame::msg(false, session, half_round, idx, label, payload);
                let bytes = reply.payload.len() as u64;
                metrics.transfer(false, bytes);
                {
                    let usage = &mut lock_ctx(ctx).usage;
                    usage.bytes_out += bytes;
                    usage.frames_out += 1;
                    usage.half_rounds = usage.half_rounds.max(u64::from(half_round));
                }
                write_stamped(stream, &mut clock, &reply, label)?;
            }
            _ => {
                let reason = "unexpected frame in compute session";
                return Err(abort(stream, session, &frame.label, reason));
            }
        }
    }
}
