//! Sans-io protocol cores: each party's half of a protocol with the
//! transport fully external.
//!
//! Every protocol in the workspace is a sequence of [`Exchange`]s — "a
//! message from the client to each server followed by a reply from each
//! server" (§1.2): the client sends one query to each server it
//! addresses and each of them answers with exactly one reply. A protocol
//! supplies its per-exchange logic as a [`ClientRounds`] and a
//! [`ServerRounds`], with no channel, socket, or clock inside; the same
//! logic therefore runs unchanged over the in-memory
//! [`Transcript`](crate::Transcript), the fault-injecting
//! [`crate::FaultyChannel`], or a TCP stream, and the conformance matrix
//! (`tests/net_conformance.rs`) proves all three produce byte-identical
//! transcripts.
//!
//! Each side has exactly one driver. [`run_client`] is the client loop:
//! it builds each exchange's queries, hands them to a transport, and
//! absorbs the replies, timing both phases under the exchange's span.
//! [`RoundServer`] is the server check: it accepts the exchanges strictly
//! in order, under their query labels, and answers each query with one
//! reply.
//!
//! [`pump`] is the in-memory transport: it delivers all client → server
//! messages of an exchange, then all server replies in server order, so
//! the metered half-round structure — and hence every audit fingerprint
//! — is the same as over TCP. [`pump_parallel`] does the same with the
//! servers of an exchange evaluated side by side on the worker pool.

use crate::channel::{deliver_with_retry, Channel};
use crate::error::ProtocolError;
use crate::lamport::Lamport;
use crate::meter::Direction;
use spfe_math::par::{par_map_cost, CostClass};
use std::sync::Mutex;

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

/// A protocol's client logic, one [`Exchange`] at a time; [`run_client`]
/// drives it.
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
/// [`RoundServer`] to serve it.
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

impl<T: ServerRounds + ?Sized> ServerRounds for Box<T> {
    fn exchanges(&self) -> &[Exchange] {
        (**self).exchanges()
    }

    fn answer(&mut self, step: usize, query: &[u8]) -> Result<Vec<u8>, ProtocolError> {
        (**self).answer(step, query)
    }
}

/// Runs `f` under the `span/phase` span pair.
fn timed<T>(span: &'static str, phase: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = spfe_obs::span(span);
    let _phase = spfe_obs::span(phase);
    f()
}

/// The client loop every transport shares. For each exchange it builds
/// the queries (timed as `<span>/query-gen`), skips the exchange when
/// there are none, hands them to `transport` — which carries each query
/// to its server and returns one reply per query, in query order — and
/// absorbs the replies (timed as `<span>/reconstruct`). Returns the
/// protocol digest.
///
/// # Errors
///
/// Any [`ProtocolError`] from the client logic or the transport, or
/// [`ProtocolError::InvalidMessage`] if the protocol ends without a
/// digest.
pub fn run_client(
    client: &mut dyn ClientRounds,
    mut transport: impl FnMut(Exchange, Queries) -> Result<Vec<Vec<u8>>, ProtocolError>,
) -> Result<u64, ProtocolError> {
    for step in 0..client.exchanges().len() {
        let ex = client.exchanges()[step];
        let Some(queries) = timed(ex.span, "query-gen", || client.queries(step))? else {
            continue;
        };
        let replies = transport(ex, queries)?;
        timed(ex.span, "reconstruct", || client.absorb(step, replies))?;
    }
    client.digest().ok_or(ProtocolError::InvalidMessage {
        label: "session",
        reason: "client finished without a digest",
    })
}

/// The server half of any [`ServerRounds`] protocol: accepts the
/// exchanges strictly in order and answers each query with exactly one
/// reply.
#[derive(Debug)]
pub struct RoundServer<S> {
    inner: S,
    next: usize,
}

impl<S: ServerRounds> RoundServer<S> {
    /// A server running the protocol logic `inner`.
    pub fn new(inner: S) -> Self {
        RoundServer { inner, next: 0 }
    }

    /// The protocol logic (e.g. to read a server's output shares).
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// How many exchanges this server has answered.
    pub fn answered(&self) -> usize {
        self.next
    }

    /// Answers one delivered query: `label` must be the query label of
    /// the next exchange. Returns the reply label and payload.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::InvalidMessage`] for a label that is foreign or
    /// out of sequence, else any error of [`ServerRounds::answer`].
    pub fn on_message(
        &mut self,
        label: &str,
        payload: &[u8],
    ) -> Result<(&'static str, Vec<u8>), ProtocolError> {
        let step = self.next;
        let ex = *self
            .inner
            .exchanges()
            .get(step)
            .filter(|ex| ex.query == label)
            .ok_or(ProtocolError::InvalidMessage {
                label: "session",
                reason: "message is out of sequence for this protocol",
            })?;
        let reply = timed(ex.span, ex.eval, || self.inner.answer(step, payload))?;
        self.next += 1;
        Ok((ex.reply, reply))
    }
}

/// Delivers one `(direction, label, payload)` message over `ch` under the
/// protocol span, stamping the send on the sender's causal clock and the
/// receipt on the receiver's. A retried delivery reuses its stamp, so
/// stamps stay strictly monotone per party under masked faults.
fn carry(
    ch: &mut dyn Channel,
    span: &'static str,
    (dir, label, payload): (Direction, &'static str, &[u8]),
    half_round: u32,
    from: &mut Lamport,
    to: &mut Lamport,
) -> Result<Vec<u8>, ProtocolError> {
    let _span = spfe_obs::span(span);
    let stamp = from.tick();
    spfe_obs::net_frame_event(true, label, payload.len() as u64, half_round, stamp);
    let delivered = deliver_with_retry(ch, dir, label, payload)?;
    let recv = to.observe(stamp);
    spfe_obs::net_frame_event(false, label, delivered.len() as u64, half_round, recv);
    Ok(delivered)
}

/// One server's queries of an exchange: its index, its core, and the
/// delivered payloads with their positions in the exchange's queries.
type Inbox<'a, S> = (usize, &'a mut RoundServer<S>, Vec<(usize, Vec<u8>)>);

/// One server's replies of an exchange: its index, then the query
/// position, reply label, and payload of each reply.
type Answers = (usize, Vec<(usize, &'static str, Vec<u8>)>);

/// Feeds a server core its `label`-labelled queries of an exchange in
/// order; returns its replies.
fn answer<S: ServerRounds>(
    (index, core, msgs): &mut Inbox<'_, S>,
    label: &str,
) -> Result<Answers, ProtocolError> {
    let replies = msgs
        .iter()
        .map(|(pos, payload)| {
            let (reply_label, reply) = core.on_message(label, payload)?;
            Ok((*pos, reply_label, reply))
        })
        .collect::<Result<_, ProtocolError>>()?;
    Ok((*index, replies))
}

/// Runs a client against its servers over any [`Channel`],
/// phase-synchronized: each exchange delivers every client → server
/// query, feeds the server cores, then delivers every server reply in
/// server order. Transient transport faults are retried with the same
/// bounded policy as [`crate::ChannelExt`]. The server cores run one
/// after another, so they need not be `Send` (e.g. when they share the
/// caller's rng with the client); [`pump_parallel`] runs `Send` ones on
/// the worker pool.
///
/// # Errors
///
/// Any [`ProtocolError`] surfaced by the transport, the client, or a
/// server core.
pub fn pump<S: ServerRounds>(
    ch: &mut dyn Channel,
    client: &mut dyn ClientRounds,
    servers: &mut [RoundServer<S>],
) -> Result<u64, ProtocolError> {
    drive(ch, client, servers, |inboxes: Vec<Inbox<'_, S>>, label| {
        inboxes
            .into_iter()
            .map(|mut b| answer(&mut b, label))
            .collect()
    })
}

/// [`pump`] with the server cores of each exchange evaluated on the
/// worker pool: servers are independent parties, so a `k`-server
/// protocol's `k` Ω(n) evaluations run side by side. Delivery and
/// metering stay serial and in order, so the transcript is identical to
/// [`pump`]'s.
///
/// # Errors
///
/// As [`pump`].
pub fn pump_parallel<S: ServerRounds + Send>(
    ch: &mut dyn Channel,
    client: &mut dyn ClientRounds,
    servers: &mut [RoundServer<S>],
) -> Result<u64, ProtocolError> {
    drive(ch, client, servers, |inboxes: Vec<Inbox<'_, S>>, label| {
        let jobs: Vec<Mutex<Inbox<'_, S>>> = inboxes.into_iter().map(Mutex::new).collect();
        par_map_cost(CostClass::Heavy, &jobs, |b| {
            answer(
                &mut b.lock().expect("each inbox is locked once, by its own job"),
                label,
            )
        })
    })
}

fn drive<S: ServerRounds>(
    ch: &mut dyn Channel,
    client: &mut dyn ClientRounds,
    servers: &mut [RoundServer<S>],
    mut answer_all: impl for<'a> FnMut(
        Vec<Inbox<'a, S>>,
        &'static str,
    ) -> Vec<Result<Answers, ProtocolError>>,
) -> Result<u64, ProtocolError> {
    let mut half_round = 0u32;
    // Causal clocks for the trace journal, one per party.
    let mut client_clock = Lamport::new();
    let mut server_clocks = vec![Lamport::new(); servers.len()];
    run_client(client, |ex, queries| {
        half_round += 1;
        let num_queries = queries.len();
        let mut msgs = vec![Vec::new(); servers.len()];
        for (pos, (server, payload)) in queries.into_iter().enumerate() {
            let clock = server_clocks
                .get_mut(server)
                .ok_or(ProtocolError::InvalidMessage {
                    label: ex.query,
                    reason: "query addresses an unknown server",
                })?;
            let msg = (Direction::ClientToServer(server), ex.query, &payload[..]);
            let delivered = carry(ch, ex.span, msg, half_round, &mut client_clock, clock)?;
            msgs[server].push((pos, delivered));
        }
        let inboxes = (servers.iter_mut().zip(msgs).enumerate())
            .filter(|(_, (_, msgs))| !msgs.is_empty())
            .map(|(index, (core, msgs))| (index, core, msgs))
            .collect();
        let answers = answer_all(inboxes, ex.query)
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;
        half_round += 1;
        let mut replies = vec![Vec::new(); num_queries];
        for (server, outs) in answers {
            let clock = &mut server_clocks[server];
            for (pos, label, payload) in outs {
                let msg = (Direction::ServerToClient(server), label, &payload[..]);
                replies[pos] = carry(ch, ex.span, msg, half_round, clock, &mut client_clock)?;
            }
        }
        Ok(replies)
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

    /// Toy protocol: client sends `x` to each of `k` servers (starting at
    /// server `first`), server replies `x + server`, client sums the
    /// replies; the second exchange runs only when `extra` is set.
    struct ToyClient {
        x: u64,
        first: usize,
        k: usize,
        extra: bool,
        sum: u64,
    }

    impl ClientRounds for ToyClient {
        fn exchanges(&self) -> &[Exchange] {
            TOY
        }
        fn queries(&mut self, step: usize) -> Result<Option<Queries>, ProtocolError> {
            let servers = self.first..self.first + self.k;
            Ok(
                (step == 0 || self.extra)
                    .then(|| servers.map(|s| (s, self.x.to_bytes())).collect()),
            )
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

    fn toy(k: usize, extra: bool) -> (ToyClient, Vec<RoundServer<ToyServer>>) {
        let client = ToyClient {
            x: 10,
            first: 0,
            k,
            extra,
            sum: 0,
        };
        let servers = (0..k)
            .map(|index| RoundServer::new(ToyServer { index }))
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
        assert!(servers.iter().all(|s| s.answered() == 1));
    }

    #[test]
    fn optional_exchanges_run_only_when_asked() {
        let (mut client, mut servers) = toy(2, true);
        let mut t = Transcript::new(2);
        assert_eq!(
            pump_parallel(&mut t, &mut client, &mut servers).unwrap(),
            42
        );
        assert_eq!(t.report().half_rounds, 4, "two full rounds");
    }

    #[test]
    fn pump_surfaces_misdirected_messages() {
        let (mut client, mut servers) = toy(1, false);
        client.first = 5;
        let mut t = Transcript::new(1);
        let err = pump(&mut t, &mut client, &mut servers).unwrap_err();
        assert!(matches!(err, ProtocolError::InvalidMessage { .. }));
    }

    #[test]
    fn round_server_answers_in_order_only() {
        let mut server = RoundServer::new(ToyServer { index: 1 });
        let q = 10u64.to_bytes();
        let out_of_order = server.on_message("toy-extra-q", &q);
        assert!(matches!(
            out_of_order,
            Err(ProtocolError::InvalidMessage { .. })
        ));
        assert_eq!(
            server.on_message("toy-q", &q).unwrap(),
            ("toy-a", 11u64.to_bytes())
        );
        assert!(server.on_message("toy-q", &q).is_err(), "replayed query");
        assert!(server.on_message("toy-extra-q", &q).is_ok());
        assert!(
            server.on_message("toy-extra-q", &q).is_err(),
            "past the end"
        );
        assert_eq!(server.answered(), 2);
    }
}
