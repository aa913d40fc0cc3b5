//! Single-server SPIR: PIR plus database secrecy (\[25\], \[32\]+\[36\]).
//!
//! The homomorphic PIR of [`crate::hom_pir`] leaks the client's entire
//! matrix row (√n items). The symmetric transform here restricts the client
//! to exactly one item:
//!
//! * the server adds an independent random pad `ρ_j` to every column answer
//!   (homomorphically: `E(x[row][j] + ρ_j)`), and
//! * the client obtains *only* `ρ_col` for its one target column via a
//!   1-out-of-`cols` OT (the paper's symmetric-privacy mechanism).
//!
//! Both the PIR query and the OT query travel in the client's single
//! message; the padded columns and the OT answer travel in the server's
//! reply — a 1-round `SPIR(n, 1, *)` with `O(√n·κ)` communication.

use crate::hom_pir::{self, HomPirAnswer, HomPirQuery, Layout};
use spfe_crypto::hom::{HomomorphicPk, HomomorphicSk};
use spfe_crypto::SchnorrGroup;
use spfe_math::modular::mod_sub;
use spfe_math::{Nat, RandomSource, SharedRng};
use spfe_ot::{ot2, ot_n};
use spfe_transport::{
    pump, Channel, ChannelExt, ClientRounds, Exchange, ProtocolError, Queries, Reader, RoundServer,
    ServerRounds, Wire, WireError,
};
use std::borrow::Cow;

/// Domain-separation label for the OT's deterministic setup element.
const OT_SETUP_LABEL: &[u8] = b"spfe-spir-pad-ot";

/// Client query: PIR row selector + OT query for the pad of one column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpirQuery {
    /// Homomorphic PIR query (row selection).
    pub pir: HomPirQuery,
    /// OT query for the column pad.
    pub pad_ot: ot_n::OtnQuery,
}

impl Wire for SpirQuery {
    fn encode(&self, out: &mut Vec<u8>) {
        self.pir.encode(out);
        self.pad_ot.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(SpirQuery {
            pir: HomPirQuery::decode(r)?,
            pad_ot: ot_n::OtnQuery::decode(r)?,
        })
    }
}

/// Server answer: padded columns + OT transfer of the pads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpirAnswer {
    /// `E(x[row][j] + ρ_j)` per column.
    pub padded: HomPirAnswer,
    /// OT answer revealing exactly one `ρ_j`.
    pub pad_ot: ot_n::OtnAnswer,
}

impl Wire for SpirAnswer {
    fn encode(&self, out: &mut Vec<u8>) {
        self.padded.encode(out);
        self.pad_ot.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(SpirAnswer {
            padded: HomPirAnswer::decode(r)?,
            pad_ot: ot_n::OtnAnswer::decode(r)?,
        })
    }
}

/// Client-side state held across the round.
#[derive(Debug)]
pub struct SpirClientState {
    layout: Layout,
    index: usize,
    ot_state: ot_n::OtnReceiverState,
}

/// The SPIR instance configuration shared by both parties.
#[derive(Debug, Clone)]
pub struct SpirParams {
    /// Group for the pad OT.
    pub group: SchnorrGroup,
    /// Database size.
    pub n: usize,
}

impl SpirParams {
    /// Creates parameters for a database of `n` items.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(group: SchnorrGroup, n: usize) -> Self {
        assert!(n > 0);
        SpirParams { group, n }
    }

    /// The matrix layout.
    pub fn layout(&self) -> Layout {
        Layout::square(self.n)
    }

    fn ot_setup(&self) -> ot2::OtSetup {
        ot2::deterministic_setup(&self.group, OT_SETUP_LABEL)
    }
}

/// Number of bytes used to serialize one pad.
fn pad_bytes<P: HomomorphicPk>(pk: &P) -> usize {
    pk.plaintext_modulus().bit_len().div_ceil(8)
}

/// Client: builds the combined query for `index`.
///
/// # Panics
///
/// Panics if `index >= n`.
pub fn client_query<P: HomomorphicPk, R: RandomSource + ?Sized>(
    params: &SpirParams,
    pk: &P,
    index: usize,
    rng: &mut R,
) -> (SpirQuery, SpirClientState) {
    assert!(index < params.n, "index out of range");
    let layout = params.layout();
    let pir = hom_pir::client_query(pk, &layout, index, rng);
    let (_, col) = layout.position(index);
    let (pad_ot, ot_state) =
        ot_n::receiver_choose(&params.group, &params.ot_setup(), layout.cols, col, rng);
    (
        SpirQuery { pir, pad_ot },
        SpirClientState {
            layout,
            index,
            ot_state,
        },
    )
}

/// Server: pads every column homomorphically and transfers the pads by OT.
///
/// # Errors
///
/// [`ProtocolError::InvalidMessage`] on malformed (client-controlled)
/// queries.
pub fn server_answer<P: HomomorphicPk, R: RandomSource + ?Sized>(
    params: &SpirParams,
    pk: &P,
    db: &[u64],
    query: &SpirQuery,
    rng: &mut R,
) -> Result<SpirAnswer, ProtocolError> {
    let layout = params.layout();
    let columns = hom_pir::server_answer(pk, &layout, db, &query.pir)?;
    let u = pk.plaintext_modulus().clone();
    let width = pad_bytes(pk);
    // Random pads, applied under encryption.
    let pads: Vec<Nat> = (0..layout.cols)
        .map(|_| Nat::random_below(rng, &u))
        .collect();
    let enc_pads = pk.encrypt_batch(&pads, rng);
    // Pad application is one homomorphic add per column — no modexp, so
    // `CostClass::Light`: it only fans out for very wide answers and runs
    // inline at typical √n column counts.
    let pad_jobs: Vec<(&P::Ciphertext, &P::Ciphertext)> = columns.iter().zip(&enc_pads).collect();
    let padded: Vec<P::Ciphertext> = spfe_math::par::par_map_cost(
        spfe_math::par::CostClass::Light,
        &pad_jobs,
        |&(c, enc_pad)| pk.add(c, enc_pad),
    );
    let pad_items: Vec<Vec<u8>> = pads
        .iter()
        .map(|rho| rho.to_le_bytes_padded(width))
        .collect();
    let pad_ot = ot_n::sender_answer(
        &params.group,
        &params.ot_setup(),
        &query.pad_ot,
        &pad_items,
        rng,
    );
    Ok(SpirAnswer {
        padded: hom_pir::answer_to_wire(pk, &padded),
        pad_ot,
    })
}

/// Client: unpads its single item.
///
/// # Errors
///
/// [`ProtocolError::InvalidMessage`] on malformed (server-controlled)
/// answers.
pub fn client_decode<P: HomomorphicPk, S: HomomorphicSk<P>>(
    params: &SpirParams,
    pk: &P,
    sk: &S,
    state: &SpirClientState,
    answer: &SpirAnswer,
) -> Result<u64, ProtocolError> {
    let (_, col) = state.layout.position(state.index);
    let ct_bytes = answer
        .padded
        .columns
        .get(col)
        .ok_or(ProtocolError::InvalidMessage {
            label: "spir-answer",
            reason: "answer has too few columns",
        })?;
    let ct = pk
        .ciphertext_from_bytes(ct_bytes)
        .ok_or(ProtocolError::InvalidMessage {
            label: "spir-answer",
            reason: "malformed answer ciphertext",
        })?;
    let masked = sk.decrypt(&ct);
    let pad = Nat::from_le_bytes(&ot_n::receiver_output(
        &params.group,
        &state.ot_state,
        &answer.pad_ot,
    ));
    mod_sub(
        &masked,
        &pad.rem(pk.plaintext_modulus()),
        pk.plaintext_modulus(),
    )
    .to_u64()
    .ok_or(ProtocolError::InvalidMessage {
        label: "spir-answer",
        reason: "unpadded item exceeds u64",
    })
}

/// Server answer for multi-word items (width `W`): per column, `W` padded
/// ciphertexts; the OT transfers all `W` pads of one column together. The
/// client's query is *identical* to the single-word case — chunks share
/// both the PIR row selector and the pad OT, so upstream cost is
/// width-independent and downstream scales with `W` (this is what makes
/// `SPIR(n, 1, κ)` cost `κ/ℓ ×` more than `SPIR(n, 1, ℓ)` downstream only,
/// as the paper's comparisons assume).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpirWordsAnswer {
    /// `padded[c]` = the chunk-`c` padded column answers.
    pub padded: Vec<HomPirAnswer>,
    /// OT answer revealing the `W` pads of exactly one column.
    pub pad_ot: ot_n::OtnAnswer,
}

impl Wire for SpirWordsAnswer {
    fn encode(&self, out: &mut Vec<u8>) {
        self.padded.encode(out);
        self.pad_ot.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(SpirWordsAnswer {
            padded: Vec::<HomPirAnswer>::decode(r)?,
            pad_ot: ot_n::OtnAnswer::decode(r)?,
        })
    }
}

/// The rng-free scan stage of [`server_answer_words`]: for each of the `W`
/// chunks, the raw (unpadded) per-column ciphertexts.
///
/// Splitting the scan from the randomized pad/OT stage lets callers (e.g.
/// [`crate::batched`]) run many scans on the worker pool and then apply
/// [`pad_answer_words`] serially, keeping the rng draw order — and hence
/// the wire transcript — independent of the thread count.
///
/// # Errors
///
/// [`ProtocolError::InvalidMessage`] on malformed (client-controlled)
/// queries.
///
/// # Panics
///
/// Panics on ragged items (the server's own data).
pub fn scan_words<P: HomomorphicPk>(
    params: &SpirParams,
    pk: &P,
    db_words: &[Vec<u64>],
    query: &SpirQuery,
) -> Result<Vec<Vec<P::Ciphertext>>, ProtocolError> {
    assert_eq!(db_words.len(), params.n, "db size mismatch");
    let width = db_words.first().map_or(0, |it| it.len());
    assert!(width > 0, "empty items");
    assert!(db_words.iter().all(|it| it.len() == width), "ragged items");
    let layout = params.layout();
    (0..width)
        .map(|c| {
            let chunk_db: Vec<u64> = db_words.iter().map(|it| it[c]).collect();
            hom_pir::server_answer(pk, &layout, &chunk_db, &query.pir)
        })
        .collect()
}

/// The randomized stage of [`server_answer_words`]: pads every scanned
/// column under encryption and transfers the pads by OT.
///
/// # Panics
///
/// Panics on malformed queries or a scan of the wrong shape.
pub fn pad_answer_words<P: HomomorphicPk, R: RandomSource + ?Sized>(
    params: &SpirParams,
    pk: &P,
    scanned: &[Vec<P::Ciphertext>],
    query: &SpirQuery,
    rng: &mut R,
) -> SpirWordsAnswer {
    let width = scanned.len();
    assert!(width > 0, "empty scan");
    let layout = params.layout();
    let u = pk.plaintext_modulus().clone();
    let pad_w = pad_bytes(pk);
    // pads[c][j] = pad for chunk c, column j.
    let pads: Vec<Vec<Nat>> = (0..width)
        .map(|_| {
            (0..layout.cols)
                .map(|_| Nat::random_below(rng, &u))
                .collect()
        })
        .collect();
    let padded: Vec<HomPirAnswer> = scanned
        .iter()
        .zip(&pads)
        .map(|(cols, chunk_pads)| {
            assert_eq!(cols.len(), layout.cols, "scan arity mismatch");
            let enc_pads = pk.encrypt_batch(chunk_pads, rng);
            let blinded: Vec<P::Ciphertext> = cols
                .iter()
                .zip(&enc_pads)
                .map(|(ct, enc_pad)| pk.add(ct, enc_pad))
                .collect();
            hom_pir::answer_to_wire(pk, &blinded)
        })
        .collect();
    // OT item for column j: all W pads concatenated.
    let pad_items: Vec<Vec<u8>> = (0..layout.cols)
        .map(|j| {
            let mut out = Vec::with_capacity(width * pad_w);
            for chunk_pads in &pads {
                out.extend(chunk_pads[j].to_le_bytes_padded(pad_w));
            }
            out
        })
        .collect();
    let pad_ot = ot_n::sender_answer(
        &params.group,
        &params.ot_setup(),
        &query.pad_ot,
        &pad_items,
        rng,
    );
    SpirWordsAnswer { padded, pad_ot }
}

/// Server: answers a (standard) SPIR query against a multi-word database
/// `db_words` (each item a fixed-width `Vec<u64>`) — the scan stage
/// followed by the pad/OT stage.
///
/// # Errors
///
/// [`ProtocolError::InvalidMessage`] on malformed (client-controlled)
/// queries.
///
/// # Panics
///
/// Panics on ragged items (the server's own data).
pub fn server_answer_words<P: HomomorphicPk, R: RandomSource + ?Sized>(
    params: &SpirParams,
    pk: &P,
    db_words: &[Vec<u64>],
    query: &SpirQuery,
    rng: &mut R,
) -> Result<SpirWordsAnswer, ProtocolError> {
    let scanned = scan_words(params, pk, db_words, query)?;
    Ok(pad_answer_words(params, pk, &scanned, query, rng))
}

/// Client: unpads its multi-word item.
///
/// # Errors
///
/// [`ProtocolError::InvalidMessage`] on malformed (server-controlled)
/// answers.
pub fn client_decode_words<P: HomomorphicPk, S: HomomorphicSk<P>>(
    params: &SpirParams,
    pk: &P,
    sk: &S,
    state: &SpirClientState,
    answer: &SpirWordsAnswer,
) -> Result<Vec<u64>, ProtocolError> {
    let (_, col) = state.layout.position(state.index);
    let pad_w = pad_bytes(pk);
    let pads_bytes = ot_n::receiver_output(&params.group, &state.ot_state, &answer.pad_ot);
    let u = pk.plaintext_modulus();
    if pads_bytes.len() < answer.padded.len() * pad_w {
        return Err(ProtocolError::InvalidMessage {
            label: "spirw-answer",
            reason: "OT pads shorter than the answer",
        });
    }
    answer
        .padded
        .iter()
        .enumerate()
        .map(|(c, chunk)| {
            let ct_bytes = chunk
                .columns
                .get(col)
                .ok_or(ProtocolError::InvalidMessage {
                    label: "spirw-answer",
                    reason: "answer has too few columns",
                })?;
            let ct = pk
                .ciphertext_from_bytes(ct_bytes)
                .ok_or(ProtocolError::InvalidMessage {
                    label: "spirw-answer",
                    reason: "malformed answer ciphertext",
                })?;
            let masked = sk.decrypt(&ct);
            let pad = Nat::from_le_bytes(&pads_bytes[c * pad_w..(c + 1) * pad_w]);
            mod_sub(&masked, &pad.rem(u), u)
                .to_u64()
                .ok_or(ProtocolError::InvalidMessage {
                    label: "spirw-answer",
                    reason: "unpadded item exceeds u64",
                })
        })
        .collect()
}

/// Runs a full 1-round multi-word SPIR over a metered channel.
///
/// # Errors
///
/// [`ProtocolError`] on any transport fault or malformed message.
///
/// # Panics
///
/// Panics on index out of range or ragged items (driver bugs).
pub fn run_words<P: HomomorphicPk, S: HomomorphicSk<P>, R: RandomSource + ?Sized>(
    t: &mut dyn Channel,
    params: &SpirParams,
    pk: &P,
    sk: &S,
    db_words: &[Vec<u64>],
    index: usize,
    rng: &mut R,
) -> Result<Vec<u64>, ProtocolError> {
    let _proto = spfe_obs::span("spirw");
    let (q, state) = {
        let _s = spfe_obs::span("query-gen");
        client_query(params, pk, index, rng)
    };
    let q = t.client_to_server(0, "spirw-query", &q)?;
    let a = {
        let _s = spfe_obs::span("server-scan");
        server_answer_words(params, pk, db_words, &q, rng)?
    };
    let a = t.server_to_client(0, "spirw-answer", &a)?;
    let _s = spfe_obs::span("reconstruct");
    client_decode_words(params, pk, sk, &state, &a)
}

/// The protocol's single exchange: PIR selector + pad OT query up,
/// padded columns + pad OT answer down.
pub const EXCHANGES: &[Exchange] = &[Exchange::new(
    "spir",
    "spir-query",
    "spir-answer",
    "server-scan",
)];

/// Server half of single-server SPIR; its pads come from its own `rng`.
#[derive(Debug)]
pub struct SpirServer<'a, P, R> {
    params: SpirParams,
    pk: &'a P,
    db: Cow<'a, [u64]>,
    rng: R,
}

impl<'a, P: HomomorphicPk, R: RandomSource> SpirServer<'a, P, R> {
    /// A server holding `db` (of `params.n` items).
    pub fn new(params: SpirParams, pk: &'a P, db: impl Into<Cow<'a, [u64]>>, rng: R) -> Self {
        SpirServer {
            params,
            pk,
            db: db.into(),
            rng,
        }
    }
}

impl<P: HomomorphicPk, R: RandomSource> ServerRounds for SpirServer<'_, P, R> {
    fn exchanges(&self) -> &[Exchange] {
        EXCHANGES
    }

    fn answer(&mut self, _step: usize, query: &[u8]) -> Result<Vec<u8>, ProtocolError> {
        let query = SpirQuery::from_bytes(query)?;
        let answer = server_answer(&self.params, self.pk, &self.db, &query, &mut self.rng)?;
        Ok(answer.to_bytes())
    }
}

/// Client half of single-server SPIR: query, then unpad the one item.
#[derive(Debug)]
pub struct SpirClient<'a, P, S, R> {
    params: SpirParams,
    pk: &'a P,
    sk: &'a S,
    index: usize,
    rng: R,
    state: Option<SpirClientState>,
    result: Option<u64>,
}

impl<'a, P: HomomorphicPk, S: HomomorphicSk<P>, R: RandomSource> SpirClient<'a, P, S, R> {
    /// A client retrieving `index` (below `params.n`).
    pub fn new(params: SpirParams, pk: &'a P, sk: &'a S, index: usize, rng: R) -> Self {
        SpirClient {
            params,
            pk,
            sk,
            index,
            rng,
            state: None,
            result: None,
        }
    }
}

impl<P: HomomorphicPk, S: HomomorphicSk<P>, R: RandomSource> ClientRounds
    for SpirClient<'_, P, S, R>
{
    fn exchanges(&self) -> &[Exchange] {
        EXCHANGES
    }

    fn queries(&mut self, _step: usize) -> Result<Option<Queries>, ProtocolError> {
        let (q, state) = client_query(&self.params, self.pk, self.index, &mut self.rng);
        self.state = Some(state);
        Ok(Some(vec![(0, q.to_bytes())]))
    }

    fn absorb(&mut self, _step: usize, replies: Vec<Vec<u8>>) -> Result<(), ProtocolError> {
        let answer = SpirAnswer::from_bytes(&replies[0])?;
        let state = self
            .state
            .as_ref()
            .expect("query state precedes the answer");
        let item = client_decode(&self.params, self.pk, self.sk, state, &answer)?;
        self.result = Some(item);
        Ok(())
    }

    fn digest(&self) -> Option<u64> {
        self.result
    }
}

/// Runs the single-item SPIR over a metered channel.
///
/// # Errors
///
/// [`ProtocolError`] on any transport fault or malformed message.
///
/// # Panics
///
/// Panics on index out of range (a driver bug).
pub fn run<P: HomomorphicPk, S: HomomorphicSk<P>, R: RandomSource + ?Sized>(
    t: &mut dyn Channel,
    params: &SpirParams,
    pk: &P,
    sk: &S,
    db: &[u64],
    index: usize,
    rng: &mut R,
) -> Result<u64, ProtocolError> {
    assert_eq!(db.len(), params.n, "db size mismatch");
    let rng = SharedRng::new(rng);
    let mut client = SpirClient::new(params.clone(), pk, sk, index, &rng);
    let server = SpirServer::new(params.clone(), pk, db, &rng);
    pump(t, &mut client, &mut [RoundServer::new(server)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use spfe_crypto::{ChaChaRng, HomomorphicScheme, Paillier};
    use spfe_transport::Transcript;

    fn setup() -> (
        SpirParams,
        spfe_crypto::PaillierPk,
        spfe_crypto::PaillierSk,
        ChaChaRng,
    ) {
        let mut rng = ChaChaRng::from_u64_seed(0x5217);
        let group = SchnorrGroup::generate(96, &mut rng);
        let (pk, sk) = Paillier::keygen(128, &mut rng);
        (SpirParams::new(group, 12), pk, sk, rng)
    }

    fn db(n: usize) -> Vec<u64> {
        (0..n as u64).map(|i| i * 101 + 17).collect()
    }

    #[test]
    fn retrieves_every_index() {
        let (params, pk, sk, mut rng) = setup();
        let database = db(params.n);
        for i in 0..params.n {
            let mut t = Transcript::new(1);
            assert_eq!(
                run(&mut t, &params, &pk, &sk, &database, i, &mut rng).unwrap(),
                database[i],
                "i={i}"
            );
        }
    }

    #[test]
    fn protocol_is_one_round() {
        let (params, pk, sk, mut rng) = setup();
        let database = db(params.n);
        let mut t = Transcript::new(1);
        run(&mut t, &params, &pk, &sk, &database, 3, &mut rng).unwrap();
        assert_eq!(t.report().half_rounds, 2);
    }

    #[test]
    fn other_columns_remain_padded() {
        // Database secrecy: the client's decryptions of non-target columns
        // are uniformly masked — without the pad they do not reveal items.
        let (params, pk, sk, mut rng) = setup();
        let database = db(params.n);
        let (q, state) = client_query(&params, &pk, 0, &mut rng);
        let a = server_answer(&params, &pk, &database, &q, &mut rng).unwrap();
        let layout = params.layout();
        let mut masked_matches = 0;
        for j in 1..layout.cols {
            let ct = pk.ciphertext_from_bytes(&a.padded.columns[j]).unwrap();
            let val = sk.decrypt(&ct);
            // Row 0 item at column j.
            let idx = j;
            if idx < database.len() && val == Nat::from(database[idx]) {
                masked_matches += 1;
            }
        }
        assert_eq!(masked_matches, 0, "pads failed to hide other columns");
        // While the target column still decodes correctly.
        assert_eq!(
            client_decode(&params, &pk, &sk, &state, &a).unwrap(),
            database[0]
        );
    }

    #[test]
    fn pad_wraps_modulus_correctly() {
        // Run many indices so some pad + item wraps mod n (probabilistic but
        // overwhelmingly likely across 12 runs with ~128-bit pads).
        let (params, pk, sk, mut rng) = setup();
        let database = db(params.n);
        for i in 0..params.n {
            let mut t = Transcript::new(1);
            let got = run(&mut t, &params, &pk, &sk, &database, i, &mut rng).unwrap();
            assert_eq!(got, database[i]);
        }
    }

    #[test]
    fn communication_scales_like_sqrt_n() {
        let (_, pk, sk, mut rng) = setup();
        let group = SchnorrGroup::generate(96, &mut rng);
        let mut totals = Vec::new();
        for n in [16usize, 64, 256] {
            let params = SpirParams::new(group.clone(), n);
            let database = db(n);
            let mut t = Transcript::new(1);
            run(&mut t, &params, &pk, &sk, &database, 1, &mut rng).unwrap();
            totals.push(t.report().total_bytes());
        }
        let r = totals[2] as f64 / totals[0] as f64;
        assert!(r < 16.0 * 0.75, "16× database should be ≈4× bytes, got {r}");
    }

    #[test]
    fn wire_roundtrip() {
        let (params, pk, _, mut rng) = setup();
        let (q, _) = client_query(&params, &pk, 5, &mut rng);
        assert_eq!(SpirQuery::from_bytes(&q.to_bytes()).unwrap(), q);
    }
}
