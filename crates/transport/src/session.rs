//! Sans-io session cores: protocol state machines with the transport
//! fully external.
//!
//! A [`SessionCore`] is one party's half of a protocol as a pure message
//! processor — *message in → new state + messages out* — with no channel,
//! socket, or clock inside. The driver that owns the transport feeds it
//! delivered bytes and carries its emissions; the same core therefore
//! runs unchanged over the in-memory [`Transcript`](crate::Transcript),
//! the fault-injecting [`crate::FaultyChannel`], or a TCP stream, and the
//! conformance matrix (`tests/net_conformance.rs`) proves all three
//! produce byte-identical transcripts.
//!
//! Every protocol in the workspace is a sequence of [`Exchange`]s: the
//! client sends one query to each server it addresses and each of them
//! answers with exactly one reply. [`RoundClient`] and [`RoundServer`]
//! do that state tracking once — which exchange is in flight, which
//! replies are still missing, which labels are legal — so a protocol only
//! supplies its per-exchange logic ([`ClientRounds`], [`ServerRounds`])
//! and its phase spans come for free.
//!
//! [`pump`] is the in-memory driver: it runs a client core against a set
//! of server cores over any [`Channel`], delivering all client → server
//! messages of a burst, then all server replies in server order, so the
//! metered half-round structure — and hence every audit fingerprint — is
//! the same as over TCP. [`pump_parallel`] does the same with the server
//! cores of a burst evaluated side by side on the worker pool.

use crate::channel::{deliver_with_retry, Channel};
use crate::error::ProtocolError;
use crate::lamport::Lamport;
use crate::meter::Direction;
use spfe_math::par::{par_map_cost, CostClass};
use std::sync::Mutex;

/// Where a session core stands after processing a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// More messages are expected.
    Running,
    /// The core has produced its final output (or sent its last message).
    Done,
}

/// A message a core asks its driver to deliver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutMsg {
    /// The server on the non-client end of the message.
    pub server: usize,
    /// Direction (`true` = client → server).
    pub client_to_server: bool,
    /// Protocol label (the label the transcript meters).
    pub label: &'static str,
    /// The `Wire` encoding of the protocol message.
    pub payload: Vec<u8>,
}

impl OutMsg {
    /// A client → server message.
    pub fn to_server(server: usize, label: &'static str, payload: Vec<u8>) -> OutMsg {
        OutMsg {
            server,
            client_to_server: true,
            label,
            payload,
        }
    }

    /// A server → client message from server `server`.
    pub fn to_client(server: usize, label: &'static str, payload: Vec<u8>) -> OutMsg {
        OutMsg {
            server,
            client_to_server: false,
            label,
            payload,
        }
    }
}

/// One party's half of a protocol as an explicit state machine.
///
/// Object-safe. A core owns its randomness source, so its behaviour is a
/// pure function of its construction and the messages fed to it.
pub trait SessionCore {
    /// Messages to send before anything is received (client cores emit
    /// their opening queries here; server cores emit nothing).
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] if the core cannot open the session.
    fn start(&mut self) -> Result<(SessionState, Vec<OutMsg>), ProtocolError> {
        Ok((SessionState::Running, Vec::new()))
    }

    /// Feeds one delivered message: `server` is the peer on the other end
    /// (for a server core, its own index), `half_round` the receiver-side
    /// half-round counter, `payload` the bytes as seen by this party.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] on malformed bytes or protocol violations; the
    /// driver aborts the session and surfaces the error.
    fn on_message(
        &mut self,
        half_round: u32,
        server: usize,
        label: &str,
        payload: &[u8],
    ) -> Result<(SessionState, Vec<OutMsg>), ProtocolError>;
}

impl<T: SessionCore + ?Sized> SessionCore for Box<T> {
    fn start(&mut self) -> Result<(SessionState, Vec<OutMsg>), ProtocolError> {
        (**self).start()
    }

    fn on_message(
        &mut self,
        half_round: u32,
        server: usize,
        label: &str,
        payload: &[u8],
    ) -> Result<(SessionState, Vec<OutMsg>), ProtocolError> {
        (**self).on_message(half_round, server, label, payload)
    }
}

/// A client-side [`SessionCore`] that reduces the protocol result to the
/// `u64` digest convention the conformance harness uses.
pub trait ClientCore: SessionCore {
    /// The digest of the protocol result, once [`SessionState::Done`].
    fn digest(&self) -> Option<u64>;

    /// Maps a wire label back into the protocol's static label set, so a
    /// networked driver can meter received frames with the same
    /// `&'static str` labels the in-memory transcript uses. `None` marks
    /// the label as foreign to this protocol.
    fn static_label(&self, label: &str) -> Option<&'static str>;

    /// The protocol span of the exchange in flight: drivers time the
    /// message deliveries of a burst under it.
    fn span(&self) -> &'static str;
}

/// One query → reply exchange of a protocol: the client sends one
/// `query`-labelled message to each server it addresses, and each of
/// them answers with exactly one `reply`-labelled message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exchange {
    /// The protocol span both parties time the exchange under.
    pub span: &'static str,
    /// Label of the client's queries.
    pub query: &'static str,
    /// Label of the servers' replies.
    pub reply: &'static str,
    /// The server's phase span (`"server-scan"` or `"server-eval"`).
    pub eval: &'static str,
}

impl Exchange {
    /// The exchange timed under `span`, carrying `query`-labelled queries
    /// and `reply`-labelled replies, with the server phase span `eval`.
    pub const fn new(
        span: &'static str,
        query: &'static str,
        reply: &'static str,
        eval: &'static str,
    ) -> Exchange {
        Exchange {
            span,
            query,
            reply,
            eval,
        }
    }
}

/// One exchange's queries: `(server, payload)` pairs.
pub type Queries = Vec<(usize, Vec<u8>)>;

/// A protocol's client logic, one [`Exchange`] at a time; wrap it in a
/// [`RoundClient`] to get a [`ClientCore`].
pub trait ClientRounds {
    /// The protocol's exchanges, in order. Only trailing exchanges may be
    /// skipped (see [`ClientRounds::queries`]).
    fn exchanges(&self) -> &[Exchange];

    /// The queries of exchange `step` as `(server, payload)` pairs, or
    /// `None` when the protocol does not need this exchange (e.g. no
    /// fallback retrievals are left). Timed as `<span>/query-gen`.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] if the queries cannot be built.
    fn queries(&mut self, step: usize) -> Result<Option<Queries>, ProtocolError>;

    /// Takes the replies of exchange `step`, one per query, in query
    /// order. Timed as `<span>/reconstruct`.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] on malformed or inconsistent replies.
    fn absorb(&mut self, step: usize, replies: Vec<Vec<u8>>) -> Result<(), ProtocolError>;

    /// The harness digest of the protocol result, once every exchange
    /// ran or was skipped.
    fn digest(&self) -> Option<u64>;
}

/// A protocol's server logic, one [`Exchange`] at a time; wrap it in a
/// [`RoundServer`] to get a [`SessionCore`].
pub trait ServerRounds {
    /// The protocol's exchanges, in order (the same table the client
    /// uses).
    fn exchanges(&self) -> &[Exchange];

    /// Answers the query of exchange `step`. Timed as `<span>/<eval>`.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] on a malformed (client-controlled) query.
    fn answer(&mut self, step: usize, query: &[u8]) -> Result<Vec<u8>, ProtocolError>;
}

/// Runs `f` under the `span/phase` span pair.
fn timed<T>(span: &'static str, phase: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = spfe_obs::span(span);
    let _phase = spfe_obs::span(phase);
    f()
}

fn unexpected(label: &'static str) -> ProtocolError {
    ProtocolError::InvalidMessage {
        label,
        reason: "message is out of sequence for this protocol",
    }
}

/// The client half of any [`ClientRounds`] protocol: emits each
/// exchange's queries, collects exactly one reply per query, and moves to
/// the next exchange once all of them are in.
#[derive(Debug)]
pub struct RoundClient<C> {
    inner: C,
    /// The exchange in flight (`None` before [`SessionCore::start`]).
    step: Option<usize>,
    /// The server of each query in flight, with its reply once received.
    pending: Vec<(usize, Option<Vec<u8>>)>,
    done: bool,
}

impl<C: ClientRounds> RoundClient<C> {
    /// Wraps the protocol logic `inner`.
    pub fn new(inner: C) -> Self {
        RoundClient {
            inner,
            step: None,
            pending: Vec::new(),
            done: false,
        }
    }

    /// The protocol logic (read its result once the session is done).
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// Unwraps the protocol logic.
    pub fn into_inner(self) -> C {
        self.inner
    }

    /// Emits the queries of the first exchange at or after `from` that
    /// the protocol needs, or finishes.
    fn advance(&mut self, from: usize) -> Result<(SessionState, Vec<OutMsg>), ProtocolError> {
        for step in from..self.inner.exchanges().len() {
            let ex = self.inner.exchanges()[step];
            self.step = Some(step);
            let Some(queries) = timed(ex.span, "query-gen", || self.inner.queries(step))? else {
                continue;
            };
            self.pending = queries.iter().map(|&(server, _)| (server, None)).collect();
            let out = queries
                .into_iter()
                .map(|(server, payload)| OutMsg::to_server(server, ex.query, payload))
                .collect();
            return Ok((SessionState::Running, out));
        }
        self.done = true;
        Ok((SessionState::Done, Vec::new()))
    }
}

impl<C: ClientRounds> SessionCore for RoundClient<C> {
    fn start(&mut self) -> Result<(SessionState, Vec<OutMsg>), ProtocolError> {
        if self.step.is_some() {
            return Err(ProtocolError::InvalidMessage {
                label: "session",
                reason: "client core started twice",
            });
        }
        self.advance(0)
    }

    fn on_message(
        &mut self,
        _half_round: u32,
        server: usize,
        label: &str,
        payload: &[u8],
    ) -> Result<(SessionState, Vec<OutMsg>), ProtocolError> {
        let step = match self.step {
            Some(step) if !self.done => step,
            _ => return Err(unexpected("session")),
        };
        let ex = self.inner.exchanges()[step];
        let slot = self
            .pending
            .iter_mut()
            .find(|(s, reply)| *s == server && reply.is_none())
            .filter(|_| label == ex.reply)
            .ok_or(unexpected(ex.reply))?;
        slot.1 = Some(payload.to_vec());
        if self.pending.iter().any(|(_, reply)| reply.is_none()) {
            return Ok((SessionState::Running, Vec::new()));
        }
        let replies = self.pending.drain(..).filter_map(|(_, r)| r).collect();
        timed(ex.span, "reconstruct", || self.inner.absorb(step, replies))?;
        self.advance(step + 1)
    }
}

impl<C: ClientRounds> ClientCore for RoundClient<C> {
    fn digest(&self) -> Option<u64> {
        self.done.then(|| self.inner.digest()).flatten()
    }

    fn static_label(&self, label: &str) -> Option<&'static str> {
        self.inner
            .exchanges()
            .iter()
            .find(|ex| ex.reply == label)
            .map(|ex| ex.reply)
    }

    fn span(&self) -> &'static str {
        self.inner.exchanges()[self.step.unwrap_or(0)].span
    }
}

/// The server half of any [`ServerRounds`] protocol: accepts the
/// exchanges strictly in order and answers each query with exactly one
/// reply.
#[derive(Debug)]
pub struct RoundServer<S> {
    index: usize,
    inner: S,
    next: usize,
}

impl<S: ServerRounds> RoundServer<S> {
    /// Server `index` running the protocol logic `inner`.
    pub fn new(index: usize, inner: S) -> Self {
        RoundServer {
            index,
            inner,
            next: 0,
        }
    }

    /// The protocol logic (e.g. to read a server's output shares).
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: ServerRounds> SessionCore for RoundServer<S> {
    fn on_message(
        &mut self,
        _half_round: u32,
        _server: usize,
        label: &str,
        payload: &[u8],
    ) -> Result<(SessionState, Vec<OutMsg>), ProtocolError> {
        let step = self.next;
        let ex = *self
            .inner
            .exchanges()
            .get(step)
            .filter(|ex| ex.query == label)
            .ok_or(unexpected("session"))?;
        let reply = timed(ex.span, ex.eval, || self.inner.answer(step, payload))?;
        self.next += 1;
        let state = if self.next == self.inner.exchanges().len() {
            SessionState::Done
        } else {
            SessionState::Running
        };
        Ok((state, vec![OutMsg::to_client(self.index, ex.reply, reply)]))
    }
}

/// Delivers one message over `ch` under the protocol span, stamping the
/// send on the sender's causal clock and the receipt on the receiver's.
/// A retried delivery reuses its stamp, so stamps stay strictly monotone
/// per party under masked faults.
fn carry(
    ch: &mut dyn Channel,
    span: &'static str,
    m: &OutMsg,
    half_round: u32,
    from: &mut Lamport,
    to: &mut Lamport,
) -> Result<Vec<u8>, ProtocolError> {
    let _span = spfe_obs::span(span);
    let stamp = from.tick();
    spfe_obs::net_frame_event(true, m.label, m.payload.len() as u64, half_round, stamp);
    let dir = if m.client_to_server {
        Direction::ClientToServer(m.server)
    } else {
        Direction::ServerToClient(m.server)
    };
    let delivered = deliver_with_retry(ch, dir, m.label, &m.payload)?;
    let recv = to.observe(stamp);
    spfe_obs::net_frame_event(false, m.label, delivered.len() as u64, half_round, recv);
    Ok(delivered)
}

/// One server's messages of a burst: its core, its index, the deliveries.
type Inbox<'a, S> = (&'a mut S, usize, Vec<(&'static str, Vec<u8>)>);

/// Feeds a server core its messages of a burst in order; returns its
/// replies.
fn answer<S: SessionCore>(
    (core, index, msgs): &mut Inbox<'_, S>,
    half_round: u32,
) -> Result<Vec<OutMsg>, ProtocolError> {
    let mut replies = Vec::new();
    for (label, payload) in msgs.iter() {
        replies.extend(core.on_message(half_round, *index, label, payload)?.1);
    }
    Ok(replies)
}

/// Per-server replies of one burst, in server order.
type Answers = Vec<Result<Vec<OutMsg>, ProtocolError>>;

/// Runs a client core against its server cores over any [`Channel`],
/// phase-synchronized: each burst delivers every client → server message,
/// feeds the server cores, then delivers every server reply in server
/// order. Transient transport faults are retried with the same bounded
/// policy as [`crate::ChannelExt`]. The server cores run one after
/// another, so they need not be `Send` (e.g. when they share the
/// caller's rng with the client); [`pump_parallel`] runs `Send` ones on
/// the worker pool.
///
/// # Errors
///
/// Any [`ProtocolError`] surfaced by the transport or either side's core,
/// or [`ProtocolError::InvalidMessage`] if the client core stops without
/// a digest.
pub fn pump<S: SessionCore>(
    ch: &mut dyn Channel,
    client: &mut dyn ClientCore,
    servers: &mut [S],
) -> Result<u64, ProtocolError> {
    drive(
        ch,
        client,
        servers,
        |inboxes: Vec<Inbox<'_, S>>, half_round| {
            inboxes
                .into_iter()
                .map(|mut b| answer(&mut b, half_round))
                .collect()
        },
    )
}

/// [`pump`] with the server cores of each burst evaluated on the worker
/// pool: servers are independent parties, so a `k`-server protocol's
/// `k` Ω(n) evaluations run side by side. Delivery and metering stay
/// serial and in order, so the transcript is identical to [`pump`]'s.
///
/// # Errors
///
/// As [`pump`].
pub fn pump_parallel<S: SessionCore + Send>(
    ch: &mut dyn Channel,
    client: &mut dyn ClientCore,
    servers: &mut [S],
) -> Result<u64, ProtocolError> {
    drive(
        ch,
        client,
        servers,
        |inboxes: Vec<Inbox<'_, S>>, half_round| {
            let jobs: Vec<Mutex<Inbox<'_, S>>> = inboxes.into_iter().map(Mutex::new).collect();
            par_map_cost(CostClass::Heavy, &jobs, |b| {
                answer(
                    &mut b.lock().expect("each inbox is locked once, by its own job"),
                    half_round,
                )
            })
        },
    )
}

fn drive<S: SessionCore>(
    ch: &mut dyn Channel,
    client: &mut dyn ClientCore,
    servers: &mut [S],
    mut answer: impl for<'a> FnMut(Vec<Inbox<'a, S>>, u32) -> Answers,
) -> Result<u64, ProtocolError> {
    for s in servers.iter_mut() {
        // Server cores may not speak first in this driver family.
        let (_, outs) = s.start()?;
        if !outs.is_empty() {
            return Err(ProtocolError::InvalidMessage {
                label: "session",
                reason: "server core tried to speak before the client",
            });
        }
    }
    let (mut state, mut outbox) = client.start()?;
    let mut half_round = 0u32;
    // Causal clocks for the trace journal, one per party.
    let mut client_clock = Lamport::new();
    let mut server_clocks = vec![Lamport::new(); servers.len()];
    while !outbox.is_empty() {
        let span = client.span();
        half_round += 1;
        let mut msgs = vec![Vec::new(); servers.len()];
        for m in outbox.drain(..) {
            if !m.client_to_server || m.server >= servers.len() {
                return Err(ProtocolError::InvalidMessage {
                    label: m.label,
                    reason: "client core emitted a misdirected message",
                });
            }
            let clock = &mut server_clocks[m.server];
            let delivered = carry(ch, span, &m, half_round, &mut client_clock, clock)?;
            msgs[m.server].push((m.label, delivered));
        }
        let inboxes = (servers.iter_mut().enumerate().zip(msgs))
            .filter(|(_, msgs)| !msgs.is_empty())
            .map(|((index, core), msgs)| (core, index, msgs))
            .collect();
        let mut replies = Vec::new();
        for outs in answer(inboxes, half_round) {
            replies.extend(outs?);
        }
        half_round += 1;
        for m in replies {
            if m.client_to_server || m.server >= servers.len() {
                return Err(ProtocolError::InvalidMessage {
                    label: m.label,
                    reason: "server core emitted a misdirected message",
                });
            }
            let clock = &mut server_clocks[m.server];
            let delivered = carry(ch, span, &m, half_round, clock, &mut client_clock)?;
            let (s, outs) = client.on_message(half_round, m.server, m.label, &delivered)?;
            state = s;
            outbox.extend(outs);
        }
        if outbox.is_empty() && state == SessionState::Running {
            return Err(ProtocolError::InvalidMessage {
                label: "session",
                reason: "session stalled: no messages in flight and client not done",
            });
        }
    }
    client.digest().ok_or(ProtocolError::InvalidMessage {
        label: "session",
        reason: "client core finished without a digest",
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meter::Transcript;
    use crate::wire::Wire;

    const TOY: &[Exchange] = &[
        Exchange::new("toy", "toy-q", "toy-a", "server-eval"),
        Exchange::new("toy", "toy-extra-q", "toy-extra-a", "server-eval"),
    ];

    /// Toy protocol: client sends `x` to each server, server replies
    /// `x + server`, client sums the replies; the second exchange runs
    /// only when `extra` is set.
    struct ToyClient {
        x: u64,
        k: usize,
        extra: bool,
        sum: u64,
    }

    impl ClientRounds for ToyClient {
        fn exchanges(&self) -> &[Exchange] {
            TOY
        }
        fn queries(&mut self, step: usize) -> Result<Option<Queries>, ProtocolError> {
            Ok((step == 0 || self.extra)
                .then(|| (0..self.k).map(|s| (s, self.x.to_bytes())).collect()))
        }
        fn absorb(&mut self, _step: usize, replies: Vec<Vec<u8>>) -> Result<(), ProtocolError> {
            for r in replies {
                self.sum += u64::from_bytes(&r)?;
            }
            Ok(())
        }
        fn digest(&self) -> Option<u64> {
            Some(self.sum)
        }
    }

    struct ToyServer {
        index: usize,
    }

    impl ServerRounds for ToyServer {
        fn exchanges(&self) -> &[Exchange] {
            TOY
        }
        fn answer(&mut self, _step: usize, query: &[u8]) -> Result<Vec<u8>, ProtocolError> {
            Ok((u64::from_bytes(query)? + self.index as u64).to_bytes())
        }
    }

    fn toy(k: usize, extra: bool) -> (RoundClient<ToyClient>, Vec<RoundServer<ToyServer>>) {
        let client = RoundClient::new(ToyClient {
            x: 10,
            k,
            extra,
            sum: 0,
        });
        let servers = (0..k)
            .map(|index| RoundServer::new(index, ToyServer { index }))
            .collect();
        (client, servers)
    }

    #[test]
    fn pump_runs_the_toy_protocol() {
        let k = 3;
        let (mut client, mut servers) = toy(k, false);
        let mut t = Transcript::new(k);
        let got = pump(&mut t, &mut client, &mut servers).unwrap();
        assert_eq!(got, 33);
        let rep = t.report();
        assert_eq!(rep.half_rounds, 2, "one full round");
        assert_eq!(rep.messages, 2 * k as u64);
    }

    #[test]
    fn optional_exchanges_run_only_when_asked() {
        let (mut client, mut servers) = toy(2, true);
        let mut t = Transcript::new(2);
        assert_eq!(pump(&mut t, &mut client, &mut servers).unwrap(), 42);
        assert_eq!(t.report().half_rounds, 4, "two full rounds");
    }

    #[test]
    fn pump_surfaces_misdirected_messages() {
        struct Bad;
        impl SessionCore for Bad {
            fn start(&mut self) -> Result<(SessionState, Vec<OutMsg>), ProtocolError> {
                Ok((
                    SessionState::Running,
                    vec![OutMsg::to_server(5, "bad", vec![])],
                ))
            }
            fn on_message(
                &mut self,
                _: u32,
                _: usize,
                _: &str,
                _: &[u8],
            ) -> Result<(SessionState, Vec<OutMsg>), ProtocolError> {
                unreachable!()
            }
        }
        impl ClientCore for Bad {
            fn digest(&self) -> Option<u64> {
                None
            }
            fn static_label(&self, _: &str) -> Option<&'static str> {
                None
            }
            fn span(&self) -> &'static str {
                "bad"
            }
        }
        let mut t = Transcript::new(1);
        let none: &mut [RoundServer<ToyServer>] = &mut [];
        let err = pump(&mut t, &mut Bad, none).unwrap_err();
        assert!(matches!(err, ProtocolError::InvalidMessage { .. }));
    }
}
