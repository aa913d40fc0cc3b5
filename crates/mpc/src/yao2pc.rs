//! 1-round secure two-party computation from Yao garbling + OT — the
//! paper's `MPC(m, s)` primitive with cost `m × SPIR(2,1,κ) + O(κ·s)`.
//!
//! Convention: the circuit's first `server_bits.len()` inputs belong to the
//! garbler (server), the rest to the evaluator (client). The client opens
//! the round with one base-OT query per input bit (the deterministic OT
//! setup removes the server-first setup flow); the server replies with the
//! garbled circuit, its own active input labels, and the OT transfers of
//! the client's labels. The client evaluates and learns the output — and
//! only the output (weak-security discussion of §3.3: a malicious client
//! can substitute its *own* share bits, which changes only which function
//! of ≤ m positions it learns).

use crate::garble::{self, GarbledCircuit, Label};
use crate::phase::{pump_on, ShareClient, SharePhase, ShareServer};
use spfe_circuits::boolean::Circuit;
use spfe_crypto::SchnorrGroup;
use spfe_math::RandomSource;
use spfe_ot::ot2;
use spfe_transport::{Channel, Exchange, ProtocolError, Reader, Wire, WireError};

/// Domain label for the deterministic OT setup.
const OT_LABEL: &[u8] = b"spfe-yao2pc-input-ot";

/// Client's opening message: one OT query per client input bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct YaoQuery {
    /// OT queries, one per client input bit in order.
    pub label_ots: Vec<ot2::OtQuery>,
}

impl Wire for YaoQuery {
    fn encode(&self, out: &mut Vec<u8>) {
        self.label_ots.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(YaoQuery {
            label_ots: Vec::<ot2::OtQuery>::decode(r)?,
        })
    }
}

/// Server's reply: garbled circuit + garbler labels + OT transfers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct YaoReply {
    /// The garbled tables/decode info.
    pub garbled: GarbledCircuit,
    /// Active labels of the server's own inputs.
    pub server_labels: Vec<Label>,
    /// OT transfers carrying the client's input labels.
    pub label_transfers: Vec<ot2::OtTransfer>,
}

impl Wire for YaoReply {
    fn encode(&self, out: &mut Vec<u8>) {
        self.garbled.encode(out);
        self.server_labels.encode(out);
        self.label_transfers.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(YaoReply {
            garbled: GarbledCircuit::decode(r)?,
            server_labels: Vec::<Label>::decode(r)?,
            label_transfers: Vec::<ot2::OtTransfer>::decode(r)?,
        })
    }
}

/// Client state across the round.
#[derive(Debug)]
pub struct YaoClientState {
    ot_states: Vec<ot2::OtReceiverState>,
}

/// Client: builds the OT queries for its input bits.
pub fn client_query<R: RandomSource + ?Sized>(
    group: &SchnorrGroup,
    client_bits: &[bool],
    rng: &mut R,
) -> (YaoQuery, YaoClientState) {
    let setup = ot2::deterministic_setup(group, OT_LABEL);
    let mut label_ots = Vec::with_capacity(client_bits.len());
    let mut ot_states = Vec::with_capacity(client_bits.len());
    for &bit in client_bits {
        let (q, st) = ot2::receiver_choose(group, &setup, bit, rng);
        label_ots.push(q);
        ot_states.push(st);
    }
    (YaoQuery { label_ots }, YaoClientState { ot_states })
}

/// Server: garbles and answers.
///
/// # Errors
///
/// [`ProtocolError::InvalidMessage`] if the (client-controlled) query
/// arity does not fit the circuit's input split.
pub fn server_reply<R: RandomSource + ?Sized>(
    group: &SchnorrGroup,
    circuit: &Circuit,
    server_bits: &[bool],
    query: &YaoQuery,
    rng: &mut R,
) -> Result<YaoReply, ProtocolError> {
    let n_client = query.label_ots.len();
    if server_bits.len() + n_client != circuit.num_inputs() {
        return Err(ProtocolError::InvalidMessage {
            label: "yao-query",
            reason: "input split does not match circuit",
        });
    }
    let mut seed = [0u8; 32];
    rng.fill_bytes(&mut seed);
    let (garbled, secrets) = garble::garble(circuit, seed);
    let server_labels = server_bits
        .iter()
        .enumerate()
        .map(|(i, &b)| secrets.input_label(i, b))
        .collect();
    let setup = ot2::deterministic_setup(group, OT_LABEL);
    let label_transfers = query
        .label_ots
        .iter()
        .enumerate()
        .map(|(j, q)| {
            let (l0, l1) = secrets.input_label_pair(server_bits.len() + j);
            ot2::sender_transfer(group, &setup, q, &l0, &l1, rng)
        })
        .collect();
    Ok(YaoReply {
        garbled,
        server_labels,
        label_transfers,
    })
}

/// Client: recovers its labels and evaluates.
///
/// # Errors
///
/// [`ProtocolError::InvalidMessage`] on a structurally inconsistent
/// (server-controlled) reply: wrong OT/label arity, wrong label size, or a
/// garbled circuit that does not match the agreed circuit shape.
pub fn client_evaluate(
    group: &SchnorrGroup,
    circuit: &Circuit,
    state: &YaoClientState,
    reply: &YaoReply,
) -> Result<Vec<bool>, ProtocolError> {
    const BAD: ProtocolError = ProtocolError::InvalidMessage {
        label: "yao-reply",
        reason: "reply inconsistent with circuit",
    };
    if state.ot_states.len() != reply.label_transfers.len()
        || reply.server_labels.len() + state.ot_states.len() != circuit.num_inputs()
        || !garble::is_well_formed(circuit, &reply.garbled)
    {
        return Err(BAD);
    }
    let mut labels: Vec<Label> = reply.server_labels.clone();
    for (st, tr) in state.ot_states.iter().zip(&reply.label_transfers) {
        let bytes = ot2::receiver_output(group, st, tr);
        labels.push(Label::try_from(bytes.as_slice()).map_err(|_| BAD)?);
    }
    Ok(garble::evaluate(circuit, &reply.garbled, &labels))
}

/// The protocol's exchange under the span `span`: the client's OT
/// queries up, the garbled circuit with its transfers down.
pub const fn exchange(span: &'static str) -> Exchange {
    Exchange::new(span, "yao-query", "yao-reply", "server-eval")
}

/// Client half of the protocol: evaluates the circuit on its input
/// words, each packed into `width` bits, followed by any extra private
/// bits.
#[derive(Debug)]
pub struct YaoClient {
    span: &'static str,
    group: SchnorrGroup,
    circuit: Circuit,
    width: usize,
    extra: Vec<bool>,
    state: Option<YaoClientState>,
    out: Option<Vec<bool>>,
}

impl YaoClient {
    /// A client evaluating `circuit` on `width`-bit words, timed under
    /// `span`.
    pub fn new(span: &'static str, group: SchnorrGroup, circuit: Circuit, width: usize) -> Self {
        YaoClient {
            span,
            group,
            circuit,
            width,
            extra: Vec::new(),
            state: None,
            out: None,
        }
    }

    /// The same client with `extra` private input bits after its words.
    pub fn with_extra(self, extra: Vec<bool>) -> Self {
        YaoClient { extra, ..self }
    }

    /// The circuit's output bits, once the session is done.
    pub fn output(&self) -> Option<&[bool]> {
        self.out.as_deref()
    }
}

impl SharePhase for YaoClient {
    fn exchange(&self) -> Exchange {
        exchange(self.span)
    }
}

impl ShareClient for YaoClient {
    fn query<R: RandomSource>(
        &mut self,
        words: &[u64],
        rng: &mut R,
    ) -> Result<Vec<u8>, ProtocolError> {
        let mut bits: Vec<bool> = words.iter().flat_map(|&w| to_bits(w, self.width)).collect();
        bits.extend_from_slice(&self.extra);
        let (q, state) = client_query(&self.group, &bits, rng);
        self.state = Some(state);
        Ok(q.to_bytes())
    }

    fn absorb(&mut self, reply: &[u8]) -> Result<(), ProtocolError> {
        let reply = YaoReply::from_bytes(reply)?;
        let state = self.state.as_ref().expect("query precedes the reply");
        self.out = Some(client_evaluate(&self.group, &self.circuit, state, &reply)?);
        Ok(())
    }

    /// The (first 64) output bits as a little-endian integer.
    fn digest(&self) -> Option<u64> {
        let out = self.out.as_ref()?;
        Some(from_bits(&out[..out.len().min(64)]))
    }
}

/// Server half of the protocol: garbles the circuit with its input
/// words, each packed into `width` bits, as the garbler's inputs.
#[derive(Debug)]
pub struct YaoServer {
    span: &'static str,
    group: SchnorrGroup,
    circuit: Circuit,
    width: usize,
}

impl YaoServer {
    /// A garbler of `circuit` on `width`-bit words, timed under `span`.
    pub fn new(span: &'static str, group: SchnorrGroup, circuit: Circuit, width: usize) -> Self {
        YaoServer {
            span,
            group,
            circuit,
            width,
        }
    }
}

impl SharePhase for YaoServer {
    fn exchange(&self) -> Exchange {
        exchange(self.span)
    }
}

impl ShareServer for YaoServer {
    fn answer<R: RandomSource>(
        &mut self,
        words: &[u64],
        query: &[u8],
        rng: &mut R,
    ) -> Result<Vec<u8>, ProtocolError> {
        let query = YaoQuery::from_bytes(query)?;
        let bits: Vec<bool> = words.iter().flat_map(|&w| to_bits(w, self.width)).collect();
        Ok(server_reply(&self.group, &self.circuit, &bits, &query, rng)?.to_bytes())
    }
}

/// Runs the 1-round protocol with both parties' input words fixed up
/// front; returns the output bits (known to the client).
///
/// # Errors
///
/// [`ProtocolError`] on any transport fault or malformed message.
pub fn run<R: RandomSource + ?Sized>(
    t: &mut dyn Channel,
    client: (YaoClient, Vec<u64>),
    server: (YaoServer, Vec<u64>),
    rng: &mut R,
) -> Result<Vec<bool>, ProtocolError> {
    let client = pump_on(t, client, server, rng)?;
    Ok(client.out.expect("pump finished the session"))
}

/// Packs a `u64` into `width` little-endian bits.
pub fn to_bits(v: u64, width: usize) -> Vec<bool> {
    (0..width).map(|i| (v >> i) & 1 == 1).collect()
}

/// Unpacks little-endian bits into a `u64`.
///
/// # Panics
///
/// Panics if more than 64 bits are supplied.
pub fn from_bits(bits: &[bool]) -> u64 {
    assert!(bits.len() <= 64);
    bits.iter()
        .enumerate()
        .fold(0, |acc, (i, &b)| acc | ((b as u64) << i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spfe_circuits::builders::{bits_for, share_sum_mod_circuit, sum_circuit};
    use spfe_crypto::ChaChaRng;
    use spfe_transport::Transcript;

    fn setup() -> (SchnorrGroup, ChaChaRng) {
        let mut rng = ChaChaRng::from_u64_seed(0x2FC);
        (SchnorrGroup::generate(96, &mut rng), rng)
    }

    fn parties(group: &SchnorrGroup, c: Circuit, width: usize) -> (YaoClient, YaoServer) {
        let server = YaoServer::new("yao2pc", group.clone(), c.clone(), width);
        (YaoClient::new("yao2pc", group.clone(), c, width), server)
    }

    #[test]
    fn computes_sum_of_split_inputs() {
        let (group, mut rng) = setup();
        // Sum of 4 words: server holds 2, client holds 2.
        let (c, s) = parties(&group, sum_circuit(4, 4), 4);
        let mut t = Transcript::new(1);
        let out = run(&mut t, (c, vec![14, 1]), (s, vec![3, 9]), &mut rng).unwrap();
        assert_eq!(from_bits(&out), 27);
        assert_eq!(t.report().half_rounds, 2, "must be one round");
    }

    #[test]
    fn share_reconstruction_inside_mpc() {
        // The actual SPFE MPC phase: f(x) from additive shares mod p.
        let (group, mut rng) = setup();
        let p = 97u64;
        let m = 3;
        let w = bits_for(p - 1);
        let c = share_sum_mod_circuit(m, p);
        let xs = [50u64, 96, 20];
        let a_shares = [13u64, 55, 96];
        let b_shares: Vec<u64> = xs
            .iter()
            .zip(&a_shares)
            .map(|(&x, &a)| (x + p - a) % p)
            .collect();
        let (client, server) = parties(&group, c, w);
        let mut t = Transcript::new(1);
        let out = run(
            &mut t,
            (client, b_shares),
            (server, a_shares.to_vec()),
            &mut rng,
        )
        .unwrap();
        assert_eq!(from_bits(&out), xs.iter().sum::<u64>() % p);
    }

    #[test]
    fn all_client_inputs() {
        let (group, mut rng) = setup();
        let (c, s) = parties(&group, sum_circuit(2, 3), 3);
        let mut t = Transcript::new(1);
        let out = run(&mut t, (c, vec![5, 6]), (s, vec![]), &mut rng).unwrap();
        assert_eq!(from_bits(&out), 11);
    }

    #[test]
    fn all_server_inputs() {
        let (group, mut rng) = setup();
        let (c, s) = parties(&group, sum_circuit(2, 3), 3);
        let mut t = Transcript::new(1);
        let out = run(&mut t, (c, vec![]), (s, vec![5, 6]), &mut rng).unwrap();
        assert_eq!(from_bits(&out), 11);
    }

    #[test]
    fn cost_splits_as_table1_says() {
        // Communication = |garbled circuit| (κ·C_f term) + per-client-bit OT
        // (m × SPIR(2,1,κ) term).
        let (group, mut rng) = setup();
        let (c, s) = parties(&group, sum_circuit(4, 4), 4);
        let mut t = Transcript::new(1);
        run(&mut t, (c, vec![15; 2]), (s, vec![0; 2]), &mut rng).unwrap();
        let rep = t.report();
        // The reply dominates (garbled circuit ≫ queries).
        assert!(rep.server_to_client > rep.client_to_server);
        // Doubling the circuit roughly doubles the reply.
        let (c2, s2) = parties(&group, sum_circuit(8, 4), 4);
        let mut t2 = Transcript::new(1);
        run(&mut t2, (c2, vec![15; 4]), (s2, vec![0; 4]), &mut rng).unwrap();
        let ratio = t2.report().server_to_client as f64 / rep.server_to_client as f64;
        assert!(ratio > 1.4 && ratio < 3.0, "ratio {ratio}");
    }

    #[test]
    fn bit_helpers_roundtrip() {
        for v in [0u64, 1, 255, 12345] {
            assert_eq!(from_bits(&to_bits(v, 20)), v);
        }
    }
}
