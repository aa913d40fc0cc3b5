//! The networked client runner: drives a sans-io [`ClientRounds`] over a
//! connected stream, metering every frame on a local [`Transcript`].
//!
//! [`run_core`] is a transport for the shared client loop
//! ([`spfe_transport::run_client`]), the same loop [`spfe_transport::pump`]
//! runs: each exchange sends every query, then reads exactly one reply
//! per query in arrival order (which, over one ordered stream and a
//! sequential peer, is server order) — so the metered transcript, and
//! hence the digest, per-label byte totals, and the `spfe-view/v1`
//! fingerprints, are byte-identical to the in-memory run of the same
//! cores.
//!
//! [`run_driver`] is the convenience entry point the `spfe-client` binary
//! and the conformance matrix use: it builds the driver's client from
//! `spfe::harness`, runs it against the server's cores, and returns the
//! digest plus the client-side transcript.

use spfe::harness;
use spfe_obs::trace as journal;
use spfe_transport::frame::{read_frame, read_frame_traced, write_frame};
use spfe_transport::{
    run_client, ClientRounds, Direction, Frame, FrameKind, Lamport, ProtocolError, Transcript,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A fresh process-unique session identifier.
pub fn next_session_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// The result of one networked driver run.
#[derive(Debug)]
pub struct NetRun {
    /// The protocol digest (same convention as the harness driver table).
    pub digest: u64,
    /// The client-side metered transcript.
    pub transcript: Transcript,
}

fn invalid(reason: &'static str) -> ProtocolError {
    ProtocolError::InvalidMessage {
        label: "net-msg",
        reason,
    }
}

/// Drives `core` over `stream`: handshake, one burst of queries and
/// replies per exchange, Bye. Returns the digest and the metered
/// transcript.
///
/// Each reply must come from a server the exchange addressed, under the
/// exchange's reply label, and at most once per query; anything else
/// fails the session with a typed [`ProtocolError::InvalidMessage`].
///
/// # Errors
///
/// Any transport, framing, or core [`ProtocolError`]; a read deadline on
/// the stream surfaces as [`ProtocolError::Timeout`].
pub fn run_core<S: Read + Write>(
    mut stream: S,
    driver: &str,
    core: &mut dyn ClientRounds,
    num_servers: usize,
    session: u64,
) -> Result<(u64, Transcript), ProtocolError> {
    let hello = Frame::control(FrameKind::Hello, true, session, driver, Vec::new());
    write_frame(&mut stream, &hello, 0, "net-hello")?;
    let ack = read_frame(&mut stream, 0, "net-hello")?;
    if ack.kind == FrameKind::Error {
        return Err(ProtocolError::InvalidMessage {
            label: "net-hello",
            reason: "peer rejected the session",
        });
    }
    if ack.kind != FrameKind::Hello || ack.session != session {
        return Err(ProtocolError::InvalidMessage {
            label: "net-hello",
            reason: "malformed hello acknowledgement",
        });
    }
    spfe_obs::net_session_event(true, session, driver);
    let mut transcript = Transcript::new(num_servers);
    let mut clock = Lamport::new();
    let digest = run_client(core, |ex, queries| {
        // Burst-send every query, in query order.
        let mut pending = Vec::with_capacity(queries.len());
        for (server, payload) in queries {
            if server >= num_servers {
                return Err(invalid("query addresses an unknown server"));
            }
            transcript.record_raw(Direction::ClientToServer(server), ex.query, payload.len());
            let half_round = transcript.report().half_rounds;
            let frame = Frame::msg(true, session, half_round, server, ex.query, payload);
            write_stamped(&mut stream, &mut clock, &frame, ex.query)?;
            pending.push((server, None));
        }
        // Then exactly one reply per query, matched by server.
        for _ in 0..pending.len() {
            let (frame, carried) = read_frame_traced(&mut stream, 0, "net-msg")?;
            let recv_stamp = clock.observe(carried.unwrap_or(0));
            match frame.kind {
                FrameKind::Msg if frame.session == session => {}
                FrameKind::Error => return Err(invalid("server aborted the session")),
                _ => return Err(invalid("unexpected frame from server")),
            }
            let server = frame.server as usize;
            if frame.label != ex.reply {
                return Err(invalid("reply label is foreign to this exchange"));
            }
            let slot = pending
                .iter_mut()
                .find(|(s, reply)| *s == server && reply.is_none())
                .ok_or_else(|| invalid("duplicate or unsolicited reply"))?;
            let bytes = frame.payload.len();
            spfe_obs::net_frame_event(false, ex.reply, bytes as u64, frame.half_round, recv_stamp);
            transcript.record_raw(Direction::ServerToClient(server), ex.reply, bytes);
            slot.1 = Some(frame.payload);
        }
        Ok(pending.into_iter().filter_map(|(_, reply)| reply).collect())
    })?;
    let bye = Frame {
        half_round: transcript.report().half_rounds,
        ..Frame::control(FrameKind::Bye, true, session, "", Vec::new())
    };
    let _ = write_stamped(&mut stream, &mut clock, &bye, "net-bye");
    spfe_obs::net_session_event(false, session, driver);
    Ok((digest, transcript))
}

/// Writes `frame` stamped by the sender's `clock`: with tracing on, a
/// `TraceCtx` frame carrying the stamp goes first and the send is
/// journalled under `label`.
pub(crate) fn write_stamped<W: Write>(
    w: &mut W,
    clock: &mut Lamport,
    frame: &Frame,
    label: &'static str,
) -> Result<(), ProtocolError> {
    let stamp = clock.tick();
    let server = frame.server as usize;
    if journal::tracing() {
        let ctx = Frame::trace_ctx(
            frame.client_to_server,
            frame.session,
            frame.half_round,
            stamp,
        );
        write_frame(w, &ctx, server, label)?;
        let bytes = frame.payload.len() as u64;
        spfe_obs::net_frame_event(true, label, bytes, frame.half_round, stamp);
    }
    write_frame(w, frame, server, label)
}

/// Runs harness driver `name` over TCP against the server's cores.
///
/// # Errors
///
/// [`ProtocolError::InvalidMessage`] for an unknown driver name, else as
/// [`run_core`].
pub fn run_driver(
    addr: &str,
    name: &str,
    deadline: Option<Duration>,
) -> Result<NetRun, ProtocolError> {
    let d = harness::driver(name).ok_or(ProtocolError::InvalidMessage {
        label: "net-hello",
        reason: "unknown driver name",
    })?;
    let mut client = (d.cores)(0).client();
    let stream = connect(addr, deadline)?;
    let (digest, transcript) =
        run_core(stream, name, client.as_mut(), d.servers, next_session_id())?;
    Ok(NetRun { digest, transcript })
}

/// A held-open metrics scrape connection (one TCP connect amortized
/// over many probes — what `spfe-client stats --watch` uses).
///
/// Each [`StatsConn::fetch`] sends one [`FrameKind::Stats`] request and
/// returns the rendered snapshot; the server answers on the same
/// connection until it is dropped.
#[derive(Debug)]
pub struct StatsConn {
    stream: TcpStream,
    session: u64,
}

impl StatsConn {
    /// Connects to a running `spfe-server` for scraping.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::ServerCrashed`] when the connect fails, else any
    /// socket-configuration error.
    pub fn connect(addr: &str, deadline: Option<Duration>) -> Result<StatsConn, ProtocolError> {
        Ok(StatsConn {
            stream: connect(addr, deadline)?,
            session: next_session_id(),
        })
    }

    /// Fetches one snapshot: Prometheus text exposition when `prom`,
    /// `spfe-metrics/v2` JSON otherwise.
    ///
    /// # Errors
    ///
    /// Any transport error, or [`ProtocolError::InvalidMessage`] when the
    /// peer answers with anything but a UTF-8 Stats frame.
    pub fn fetch(&mut self, prom: bool) -> Result<String, ProtocolError> {
        let request = Frame::control(
            FrameKind::Stats,
            true,
            self.session,
            "stats",
            vec![u8::from(prom)],
        );
        write_frame(&mut self.stream, &request, 0, "net-stats")?;
        let reply = read_frame(&mut self.stream, 0, "net-stats")?;
        if reply.kind != FrameKind::Stats {
            return Err(ProtocolError::InvalidMessage {
                label: "net-stats",
                reason: "peer did not answer the stats request",
            });
        }
        String::from_utf8(reply.payload).map_err(|_| ProtocolError::InvalidMessage {
            label: "net-stats",
            reason: "stats payload is not UTF-8",
        })
    }
}

/// One-shot metrics scrape: connect, fetch one snapshot, hang up.
///
/// # Errors
///
/// As [`StatsConn::connect`] / [`StatsConn::fetch`].
pub fn fetch_stats(
    addr: &str,
    prom: bool,
    deadline: Option<Duration>,
) -> Result<String, ProtocolError> {
    StatsConn::connect(addr, deadline)?.fetch(prom)
}

fn connect(addr: &str, deadline: Option<Duration>) -> Result<TcpStream, ProtocolError> {
    let stream =
        TcpStream::connect(addr).map_err(|_| ProtocolError::ServerCrashed { server: 0 })?;
    stream
        .set_read_timeout(deadline)
        .and_then(|()| stream.set_write_timeout(deadline))
        .map_err(|_| ProtocolError::InvalidMessage {
            label: "net-hello",
            reason: "could not configure socket deadlines",
        })?;
    Ok(stream)
}
