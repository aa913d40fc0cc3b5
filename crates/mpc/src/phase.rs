//! One-exchange protocol phases on inputs each party already holds.
//!
//! A [`SharePhase`] is the second half of a composite SPFE protocol: the
//! client and the server each hold a vector of private words (in SPFE,
//! their additive shares of the selected items) and run one query →
//! reply exchange on them. The phase logic gets its words and randomness
//! per call, so the same phase runs after an input-selection exchange
//! (`spfe_core::input_select::Select1Then`) or on words fixed up front
//! ([`OnShares`], [`pump_on`]).

use spfe_math::{RandomSource, SharedRng};
use spfe_transport::{
    pump, Channel, ClientRounds, Exchange, ProtocolError, Queries, RoundServer, ServerRounds,
};

/// A protocol phase that runs on each party's private words.
pub trait SharePhase {
    /// The phase's exchange.
    fn exchange(&self) -> Exchange;
}

/// The client half of a [`SharePhase`].
pub trait ShareClient: SharePhase {
    /// The phase's query, built on the client's words.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] if the query cannot be built.
    fn query<R: RandomSource>(
        &mut self,
        shares: &[u64],
        rng: &mut R,
    ) -> Result<Vec<u8>, ProtocolError>;

    /// Takes the server's reply.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] on a malformed reply.
    fn absorb(&mut self, reply: &[u8]) -> Result<(), ProtocolError>;

    /// The harness digest of the phase's output.
    fn digest(&self) -> Option<u64>;
}

/// The server half of a [`SharePhase`].
pub trait ShareServer: SharePhase {
    /// Answers the client's query on the server's words.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] on a malformed (client-controlled) query.
    fn answer<R: RandomSource>(
        &mut self,
        shares: &[u64],
        query: &[u8],
        rng: &mut R,
    ) -> Result<Vec<u8>, ProtocolError>;
}

/// A [`SharePhase`] on words the party already holds.
#[derive(Debug)]
pub struct OnShares<Ph, R> {
    phase: Ph,
    shares: Vec<u64>,
    rng: R,
    exchanges: [Exchange; 1],
}

impl<Ph: SharePhase, R> OnShares<Ph, R> {
    /// Runs `phase` on this party's `shares`.
    pub fn new(phase: Ph, shares: Vec<u64>, rng: R) -> Self {
        let exchanges = [phase.exchange()];
        OnShares {
            phase,
            shares,
            rng,
            exchanges,
        }
    }
}

impl<Ph: ShareClient, R: RandomSource> ClientRounds for OnShares<Ph, R> {
    fn exchanges(&self) -> &[Exchange] {
        &self.exchanges
    }

    fn queries(&mut self, _step: usize) -> Result<Option<Queries>, ProtocolError> {
        Ok(Some(vec![(
            0,
            self.phase.query(&self.shares, &mut self.rng)?,
        )]))
    }

    fn absorb(&mut self, _step: usize, replies: Vec<Vec<u8>>) -> Result<(), ProtocolError> {
        self.phase.absorb(&replies[0])
    }

    fn digest(&self) -> Option<u64> {
        self.phase.digest()
    }
}

impl<Ph: ShareServer, R: RandomSource> ServerRounds for OnShares<Ph, R> {
    fn exchanges(&self) -> &[Exchange] {
        &self.exchanges
    }

    fn answer(&mut self, _step: usize, query: &[u8]) -> Result<Vec<u8>, ProtocolError> {
        self.phase.answer(&self.shares, query, &mut self.rng)
    }
}

/// Pumps `client` on its words against `server` on its words, both
/// drawing from `rng` in protocol order; returns the finished client
/// phase.
///
/// # Errors
///
/// [`ProtocolError`] on any transport fault or malformed message.
pub fn pump_on<C, S, R>(
    t: &mut dyn Channel,
    (client, client_words): (C, Vec<u64>),
    (server, server_words): (S, Vec<u64>),
    rng: &mut R,
) -> Result<C, ProtocolError>
where
    C: ShareClient,
    S: ShareServer,
    R: RandomSource + ?Sized,
{
    let rng = SharedRng::new(rng);
    let mut client = OnShares::new(client, client_words, &rng);
    let server = OnShares::new(server, server_words, &rng);
    pump(t, &mut client, &mut [RoundServer::new(server)])?;
    Ok(client.phase)
}
