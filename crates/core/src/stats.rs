//! §4 — protocols tailored to private statistics.
//!
//! * [`weighted_sum`] — the paper's efficient 1-round single-server
//!   protocol for `Σ w_j · x_{i_j}`: the server masks the database with a
//!   random degree-`(m−1)` polynomial `P_s`, the client batch-retrieves
//!   the masked items with `SPIR(n, m, F)` and, in the *same* message,
//!   sends encryptions of the coefficients `c_k = Σ_j w_j · i_j^k` of the
//!   linear functional `Σ_j w_j·P_s(i_j)` in `s`; the server's homomorphic
//!   reply lets the client unmask. Malicious clients can only redirect the
//!   coefficients to *another* linear combination of selected items — the
//!   paper's counting argument.
//! * [`average_and_variance`] — the "package": the server keeps the
//!   squared database `x'` alongside `x` and answers the same batched
//!   query against both (plus two functional replies), still one round.
//! * [`frequency`] — the keyword-counting protocol: after any input
//!   selection, one extra round of blinded, permuted comparisons; the
//!   client counts decryptions ≡ 0.

use crate::input_select::{SharesModP, STAT_SECURITY_BITS};
use spfe_crypto::hom::{HomomorphicPk, HomomorphicSk};
use spfe_crypto::SchnorrGroup;
use spfe_math::{Fp64, Nat, Poly, RandomSource, SharedRng};
use spfe_mpc::phase::{pump_on, ShareClient, SharePhase, ShareServer};
use spfe_pir::{batched, spir};
use spfe_transport::{
    pump, Channel, ChannelExt, ClientRounds, Exchange, ProtocolError, Queries, RoundServer,
    ServerRounds, Wire,
};
use std::borrow::Cow;

/// Undoes the `+1` shift of a retrieved masked cell (server-controlled,
/// so any `u64` maps into the field).
fn unshift(field: Fp64, v: u64) -> u64 {
    field.sub(field.from_u64(v), 1)
}

/// Encrypts the blinded functional value `Σ-term + p·(R+1)` so the client
/// learns exactly the mod-`p` value.
fn check_capacity<P: HomomorphicPk>(pk: &P, p: u64, m: usize) {
    let bound = Nat::from(p)
        .square()
        .mul_u64(m as u64)
        .add(&Nat::from(p).shl(STAT_SECURITY_BITS + 1));
    assert!(
        &bound < pk.plaintext_modulus(),
        "plaintext modulus too small for field {p} and m={m}"
    );
}

/// Computes the client's functional coefficients `c_k = Σ_j w_j · i_j^k`.
fn functional_coeffs(field: Fp64, indices: &[usize], weights: &[u64]) -> Vec<u64> {
    let m = indices.len();
    (0..m)
        .map(|k| {
            indices.iter().zip(weights).fold(0u64, |acc, (&i, &w)| {
                let pow = field.pow(field.from_u64(i as u64), k as u64);
                field.add(acc, field.mul(field.from_u64(w), pow))
            })
        })
        .collect()
}

/// Server-side: the homomorphic functional reply
/// `E(Σ_k s_k·c_k + p·(R+1))` from the (client-controlled) encrypted
/// coefficients; `label` names the message the coefficients arrived in.
fn functional_reply<P: HomomorphicPk, R: RandomSource + ?Sized>(
    pk: &P,
    field: Fp64,
    s_poly: &Poly,
    coeff_cts: &[Vec<u8>],
    label: &'static str,
    rng: &mut R,
) -> Result<Vec<u8>, ProtocolError> {
    let p = field.modulus();
    let mut acc: Option<P::Ciphertext> = None;
    for (k, ct_bytes) in coeff_cts.iter().enumerate() {
        let s_k = s_poly.coeffs().get(k).copied().unwrap_or(0);
        if s_k == 0 {
            continue;
        }
        let ct = pk
            .ciphertext_from_bytes(ct_bytes)
            .ok_or(ProtocolError::InvalidMessage {
                label,
                reason: "coefficient is not a ciphertext",
            })?;
        let term = pk.mul_const(&ct, &Nat::from(s_k));
        acc = Some(match acc {
            None => term,
            Some(prev) => pk.add(&prev, &term),
        });
    }
    let blind = Nat::from(p).mul(&Nat::random_bits(rng, STAT_SECURITY_BITS).add(&Nat::one()));
    let offset = pk.encrypt(&blind, rng);
    let total = match acc {
        None => offset,
        Some(a) => pk.add(&a, &offset),
    };
    Ok(pk.ciphertext_to_bytes(&total))
}

/// The protocol's exchanges: batched SPIR queries plus the encrypted
/// functional coefficients up, the masked answers plus the functional
/// reply down; then — only when cuckoo placement left indices over — one
/// full-database SPIR per leftover against the same masked database.
pub const WEIGHTED_SUM: &[Exchange] = &[
    Exchange::new("weighted-sum", "wsum-query", "wsum-answer", "server-eval"),
    Exchange::new(
        "weighted-sum",
        "wsum-fallback-q",
        "wsum-fallback-a",
        "server-eval",
    ),
];

/// Server half of [`weighted_sum`]: masks the database with a fresh
/// degree-`(m−1)` polynomial `P_s` and answers the batched SPIR plus the
/// functional.
#[derive(Debug)]
pub struct WeightedSumServer<'a, P, R> {
    group: SchnorrGroup,
    pk: &'a P,
    db: Cow<'a, [u64]>,
    field: Fp64,
    m: usize,
    rng: R,
    s_poly: Option<Poly>,
}

impl<'a, P: HomomorphicPk, R: RandomSource> WeightedSumServer<'a, P, R> {
    /// A server holding `db` that serves `m`-item weighted sums over
    /// `field`.
    pub fn new(
        group: SchnorrGroup,
        pk: &'a P,
        db: impl Into<Cow<'a, [u64]>>,
        field: Fp64,
        m: usize,
        rng: R,
    ) -> Self {
        WeightedSumServer {
            group,
            pk,
            db: db.into(),
            field,
            m,
            rng,
            s_poly: None,
        }
    }

    /// The database masked by `P_s`, shifted into `[1, p]`: no cell is
    /// zero, so the scans cost the same whatever mask the server drew.
    fn masked<'s>(&'s self, s_poly: &'s Poly) -> impl Iterator<Item = u64> + 's {
        let field = self.field;
        (self.db.iter().enumerate()).map(move |(i, &x)| field.add(x, s_poly.eval(i as u64)) + 1)
    }
}

impl<P: HomomorphicPk, R: RandomSource> ServerRounds for WeightedSumServer<'_, P, R> {
    fn exchanges(&self) -> &[Exchange] {
        WEIGHTED_SUM
    }

    fn answer(&mut self, step: usize, query: &[u8]) -> Result<Vec<u8>, ProtocolError> {
        let (pk, field) = (self.pk, self.field);
        if step == 0 {
            let (queries, coeff_cts) = <(batched::BatchedQuery, Vec<Vec<u8>>)>::from_bytes(query)?;
            let s_poly = Poly::random(self.m.saturating_sub(1), field, &mut self.rng);
            let words: Vec<Vec<u64>> = self.masked(&s_poly).map(|v| vec![v]).collect();
            let group = &self.group;
            let answers = batched::server_answer_words(group, pk, &words, &queries, &mut self.rng)?;
            drop(words);
            let label = "wsum-query";
            let func = functional_reply(pk, field, &s_poly, &coeff_cts, label, &mut self.rng)?;
            self.s_poly = Some(s_poly);
            return Ok((answers, func).to_bytes());
        }
        let s_poly = self
            .s_poly
            .as_ref()
            .expect("the first exchange precedes fallbacks");
        let queries = Vec::<spir::SpirQuery>::from_bytes(query)?;
        // At most one fallback per sampled index, and only for a session
        // that has leftovers: each query is an Ω(n) scan of the masked db.
        if queries.is_empty() || queries.len() > self.m {
            return Err(ProtocolError::InvalidMessage {
                label: "wsum-fallback-q",
                reason: "fallback count exceeds the sample size",
            });
        }
        let masked: Vec<u64> = self.masked(s_poly).collect();
        let params = spir::SpirParams::new(self.group.clone(), self.db.len());
        let answers: Vec<spir::SpirAnswer> = queries
            .iter()
            .map(|fq| spir::server_answer(&params, pk, &masked, fq, &mut self.rng))
            .collect::<Result<_, _>>()?;
        Ok(answers.to_bytes())
    }
}

/// Client half of [`weighted_sum`]: learns `Σ w_j·x_{i_j} mod p` and
/// nothing else.
#[derive(Debug)]
pub struct WeightedSumClient<'a, P, S, R> {
    group: SchnorrGroup,
    pk: &'a P,
    sk: &'a S,
    n: usize,
    indices: Vec<usize>,
    weights: Vec<u64>,
    field: Fp64,
    rng: R,
    state: Option<batched::BatchedClientState>,
    fallbacks: Vec<spir::SpirClientState>,
    retrieved: Vec<Vec<u64>>,
    func: Vec<u8>,
    result: Option<u64>,
}

impl<'a, P: HomomorphicPk, S: HomomorphicSk<P>, R: RandomSource> WeightedSumClient<'a, P, S, R> {
    /// A client computing the `weights`-weighted sum of the items at
    /// `indices` of an `n`-item database, over `field`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        group: SchnorrGroup,
        pk: &'a P,
        sk: &'a S,
        n: usize,
        indices: &[usize],
        weights: &[u64],
        field: Fp64,
        rng: R,
    ) -> Self {
        WeightedSumClient {
            group,
            pk,
            sk,
            n,
            indices: indices.to_vec(),
            weights: weights.to_vec(),
            field,
            rng,
            state: None,
            fallbacks: Vec::new(),
            retrieved: Vec::new(),
            func: Vec::new(),
            result: None,
        }
    }

    /// `Σ w_j·x'_{i_j} − Σ w_j·P_s(i_j)`, once every item is retrieved.
    fn finish(&mut self) -> Result<(), ProtocolError> {
        const BAD_FUNC: ProtocolError = ProtocolError::InvalidMessage {
            label: "wsum-answer",
            reason: "malformed functional reply",
        };
        let field = self.field;
        let masked_sum = self
            .retrieved
            .iter()
            .zip(&self.weights)
            .fold(0u64, |acc, (v, &w)| {
                field.add(acc, field.mul(field.from_u64(w), unshift(field, v[0])))
            });
        let func = self.pk.ciphertext_from_bytes(&self.func).ok_or(BAD_FUNC)?;
        let func_val = self.sk.decrypt(&func);
        let mask_sum = func_val
            .rem(&Nat::from(field.modulus()))
            .to_u64()
            .ok_or(BAD_FUNC)?;
        self.result = Some(field.sub(masked_sum, mask_sum));
        Ok(())
    }
}

impl<P: HomomorphicPk, S: HomomorphicSk<P>, R: RandomSource> ClientRounds
    for WeightedSumClient<'_, P, S, R>
{
    fn exchanges(&self) -> &[Exchange] {
        WEIGHTED_SUM
    }

    fn queries(&mut self, step: usize) -> Result<Option<Queries>, ProtocolError> {
        let (pk, field) = (self.pk, self.field);
        if step == 0 {
            let (queries, state) =
                batched::client_query(&self.group, pk, self.n, &self.indices, &mut self.rng);
            self.state = Some(state);
            let coeff_cts: Vec<Vec<u8>> = functional_coeffs(field, &self.indices, &self.weights)
                .iter()
                .map(|&c| pk.ciphertext_to_bytes(&pk.encrypt(&Nat::from(c), &mut self.rng)))
                .collect();
            return Ok(Some(vec![(0, (queries, coeff_cts).to_bytes())]));
        }
        let state = self
            .state
            .as_ref()
            .expect("batched queries precede fallbacks");
        if state.leftovers.is_empty() {
            return Ok(None);
        }
        let params = spir::SpirParams::new(self.group.clone(), self.n);
        let mut queries = Vec::with_capacity(state.leftovers.len());
        for &q in &state.leftovers {
            let (fq, fst) = spir::client_query(&params, pk, self.indices[q], &mut self.rng);
            queries.push(fq);
            self.fallbacks.push(fst);
        }
        Ok(Some(vec![(0, queries.to_bytes())]))
    }

    fn absorb(&mut self, step: usize, replies: Vec<Vec<u8>>) -> Result<(), ProtocolError> {
        let state = self.state.as_ref().expect("queries precede answers");
        if step == 0 {
            let (answers, func) = <(Vec<spir::SpirWordsAnswer>, Vec<u8>)>::from_bytes(&replies[0])?;
            self.retrieved = batched::client_decode_words(self.pk, self.sk, state, &answers, 1)?;
            self.func = func;
            return if state.leftovers.is_empty() {
                self.finish()
            } else {
                Ok(())
            };
        }
        let answers = Vec::<spir::SpirAnswer>::from_bytes(&replies[0])?;
        if answers.len() != self.fallbacks.len() {
            return Err(ProtocolError::InvalidMessage {
                label: "wsum-fallback-a",
                reason: "answer count does not match query count",
            });
        }
        let params = spir::SpirParams::new(self.group.clone(), self.n);
        for ((&q, st), a) in state.leftovers.iter().zip(&self.fallbacks).zip(&answers) {
            self.retrieved[q] = vec![spir::client_decode(&params, self.pk, self.sk, st, a)?];
        }
        self.finish()
    }

    fn digest(&self) -> Option<u64> {
        self.result
    }
}

/// The §4 one-round weighted-sum protocol: returns
/// `Σ_j weights[j] · x_{indices[j]} mod p`.
///
/// # Errors
///
/// [`ProtocolError`] on any transport fault or malformed counterparty
/// message.
///
/// # Panics
///
/// Panics if lengths mismatch, values exceed the field, the field is not
/// larger than `n`, or the homomorphic plaintext space is too small (all
/// local setup bugs, not attacks).
#[allow(clippy::too_many_arguments)]
pub fn weighted_sum<P, S, R>(
    t: &mut dyn Channel,
    group: &SchnorrGroup,
    pk: &P,
    sk: &S,
    db: &[u64],
    indices: &[usize],
    weights: &[u64],
    field: Fp64,
    rng: &mut R,
) -> Result<u64, ProtocolError>
where
    P: HomomorphicPk,
    S: HomomorphicSk<P>,
    R: RandomSource + ?Sized,
{
    let p = field.modulus();
    let m = indices.len();
    assert!(m > 0 && weights.len() == m, "weights/indices mismatch");
    assert!(p > db.len() as u64, "field must exceed n");
    assert!(db.iter().all(|&v| v < p), "db value exceeds field");
    check_capacity(pk, p, m);
    let rng = SharedRng::new(rng);
    let mut client = WeightedSumClient::new(
        group.clone(),
        pk,
        sk,
        db.len(),
        indices,
        weights,
        field,
        &rng,
    );
    let server = WeightedSumServer::new(group.clone(), pk, db, field, m, &rng);
    pump(t, &mut client, &mut [RoundServer::new(server)])
}

/// The §4 average+variance package, one round: the same batched query is
/// answered against both `x` and the squared database; returns
/// `(Σ x_{i_j}, Σ x_{i_j}²) mod p`. The client derives mean and variance.
///
/// # Errors
///
/// [`ProtocolError`] on any transport fault or malformed counterparty
/// message.
///
/// # Panics
///
/// Same local-setup preconditions as [`weighted_sum`]; squares must also
/// fit the field.
#[allow(clippy::too_many_arguments)]
pub fn average_and_variance<P, S, R>(
    t: &mut dyn Channel,
    group: &SchnorrGroup,
    pk: &P,
    sk: &S,
    db: &[u64],
    db_squared: &[u64],
    indices: &[usize],
    field: Fp64,
    rng: &mut R,
) -> Result<(u64, u64), ProtocolError>
where
    P: HomomorphicPk,
    S: HomomorphicSk<P>,
    R: RandomSource + ?Sized,
{
    let p = field.modulus();
    let m = indices.len();
    assert!(m > 0);
    assert!(p > db.len() as u64, "field must exceed n");
    assert!(
        db.iter().all(|&v| v < p) && db_squared.iter().all(|&v| v < p),
        "db value exceeds field"
    );
    check_capacity(pk, p, m);
    let _proto = spfe_obs::span("avg-var");

    // Client: one query set + coefficients for the all-ones functional
    // (weights 1), sent once but applied to both masking polynomials.
    let (queries, state) = batched::client_query(group, pk, db.len(), indices, rng);
    let ones = vec![1u64; m];
    let coeffs = functional_coeffs(field, indices, &ones);
    let coeff_cts: Vec<Vec<u8>> = coeffs
        .iter()
        .map(|&c| pk.ciphertext_to_bytes(&pk.encrypt(&Nat::from(c), rng)))
        .collect();
    let (queries, coeff_cts) = t.client_to_server(0, "avgvar-query", &(queries, coeff_cts))?;

    // Server: two independent masks; the same query answered twice.
    let s1 = Poly::random(m.saturating_sub(1), field, rng);
    let s2 = Poly::random(m.saturating_sub(1), field, rng);
    // Shifted into [1, p], as in weighted_sum: no cell is zero.
    let mask = |base: &[u64], s: &Poly| -> Vec<Vec<u64>> {
        base.iter()
            .enumerate()
            .map(|(i, &x)| vec![field.add(x, s.eval(i as u64)) + 1])
            .collect()
    };
    let a1 = batched::server_answer_words(group, pk, &mask(db, &s1), &queries, rng)?;
    let a2 = batched::server_answer_words(group, pk, &mask(db_squared, &s2), &queries, rng)?;
    let f1 = functional_reply(pk, field, &s1, &coeff_cts, "avgvar-query", rng)?;
    let f2 = functional_reply(pk, field, &s2, &coeff_cts, "avgvar-query", rng)?;
    let ((a1, a2), (f1, f2)) = t.server_to_client(0, "avgvar-answer", &((a1, a2), (f1, f2)))?;

    assert!(
        state.leftovers.is_empty(),
        "avg/var package requires cuckoo placement to succeed (retry with fresh randomness)"
    );
    const BAD_FUNC: ProtocolError = ProtocolError::InvalidMessage {
        label: "avgvar-answer",
        reason: "malformed functional reply",
    };
    let decode = |answers: &[spfe_pir::spir::SpirWordsAnswer],
                  func: &[u8]|
     -> Result<u64, ProtocolError> {
        let retrieved = batched::client_decode_words(pk, sk, &state, answers, 1)?;
        let masked_sum = (retrieved.iter()).fold(0, |acc, v| field.add(acc, unshift(field, v[0])));
        let func_val = sk.decrypt(&pk.ciphertext_from_bytes(func).ok_or(BAD_FUNC)?);
        let mask_sum = func_val.rem(&Nat::from(p)).to_u64().ok_or(BAD_FUNC)?;
        Ok(field.sub(masked_sum, mask_sum))
    };
    Ok((decode(&a1, &f1)?, decode(&a2, &f2)?))
}

/// Server half of the frequency round: blinds, scales and permutes the
/// comparison ciphertexts. Every input ciphertext is client-controlled.
fn frequency_replies<P, R>(
    pk: &P,
    field: Fp64,
    server_shares: &[u64],
    client_cts: &[Vec<u8>],
    label: &'static str,
    rng: &mut R,
) -> Result<Vec<Vec<u8>>, ProtocolError>
where
    P: HomomorphicPk,
    R: RandomSource + ?Sized,
{
    if client_cts.len() != server_shares.len() {
        return Err(ProtocolError::InvalidMessage {
            label,
            reason: "share count does not match selection size",
        });
    }
    let p = field.modulus();
    let mut replies: Vec<Vec<u8>> = client_cts
        .iter()
        .zip(server_shares)
        .map(|(ct_bytes, &a_j)| {
            let ct = pk
                .ciphertext_from_bytes(ct_bytes)
                .ok_or(ProtocolError::InvalidMessage {
                    label,
                    reason: "share is not a ciphertext",
                })?;
            let sum = pk.add(&ct, &pk.encrypt(&Nat::from(a_j), rng));
            let rho = field.random_nonzero(rng);
            let scaled = pk.mul_const(&sum, &Nat::from(rho));
            let blind = Nat::from(p).mul(&Nat::random_bits(rng, STAT_SECURITY_BITS));
            let out = pk.add(&scaled, &pk.encrypt(&blind, rng));
            Ok::<_, ProtocolError>(pk.ciphertext_to_bytes(&pk.rerandomize(&out, rng)))
        })
        .collect::<Result<_, _>>()?;
    // Fisher–Yates permutation from server randomness.
    for i in (1..replies.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        replies.swap(i, j);
    }
    Ok(replies)
}

/// Client half: counts the replies whose decryption is ≡ 0 (mod p).
fn count_zero_replies<P, S>(
    pk: &P,
    sk: &S,
    p: u64,
    expected: usize,
    replies: &[Vec<u8>],
    label: &'static str,
) -> Result<u64, ProtocolError>
where
    P: HomomorphicPk,
    S: HomomorphicSk<P>,
{
    if replies.len() != expected {
        return Err(ProtocolError::InvalidMessage {
            label,
            reason: "reply count does not match selection size",
        });
    }
    let mut count = 0u64;
    for ct_bytes in replies {
        let ct = pk
            .ciphertext_from_bytes(ct_bytes)
            .ok_or(ProtocolError::InvalidMessage {
                label,
                reason: "reply is not a ciphertext",
            })?;
        if sk.decrypt(&ct).rem(&Nat::from(p)).is_zero() {
            count += 1;
        }
    }
    Ok(count)
}

/// The frequency round's exchange: the client's blinded share
/// ciphertexts up, the permuted comparison ciphertexts down.
pub const FREQUENCY: Exchange = Exchange::new(
    "frequency",
    "freq-blinded-shares",
    "freq-replies",
    "server-eval",
);

/// [`frequency_multi`]'s exchange (one keyword per selected item).
pub const FREQUENCY_MULTI: Exchange = Exchange::new(
    "frequency-multi",
    "freqm-blinded-shares",
    "freqm-replies",
    "server-eval",
);

/// Client half of the frequency round: sends `E(b_j − w_j)` and counts
/// the replies that decrypt to `0 mod p`.
#[derive(Debug)]
pub struct FrequencyClient<'a, P, S> {
    exchange: Exchange,
    pk: &'a P,
    sk: &'a S,
    field: Fp64,
    keywords: Vec<u64>,
    count: Option<u64>,
}

impl<'a, P: HomomorphicPk, S: HomomorphicSk<P>> FrequencyClient<'a, P, S> {
    /// A client counting how many selected items equal `keywords[j]`
    /// (shares mod the prime `field`) under `exchange`.
    pub fn new(exchange: Exchange, pk: &'a P, sk: &'a S, field: Fp64, keywords: Vec<u64>) -> Self {
        FrequencyClient {
            exchange,
            pk,
            sk,
            field,
            keywords,
            count: None,
        }
    }
}

impl<P, S> SharePhase for FrequencyClient<'_, P, S> {
    fn exchange(&self) -> Exchange {
        self.exchange
    }
}

impl<P: HomomorphicPk, S: HomomorphicSk<P>> ShareClient for FrequencyClient<'_, P, S> {
    fn query<R: RandomSource>(
        &mut self,
        shares: &[u64],
        rng: &mut R,
    ) -> Result<Vec<u8>, ProtocolError> {
        let (pk, field) = (self.pk, self.field);
        let client_cts: Vec<Vec<u8>> = shares
            .iter()
            .zip(&self.keywords)
            .map(|(&b, &w)| {
                let v = field.sub(b, field.from_u64(w));
                pk.ciphertext_to_bytes(&pk.encrypt(&Nat::from(v), rng))
            })
            .collect();
        Ok(client_cts.to_bytes())
    }

    fn absorb(&mut self, reply: &[u8]) -> Result<(), ProtocolError> {
        let replies = Vec::<Vec<u8>>::from_bytes(reply)?;
        let p = self.field.modulus();
        let m = self.keywords.len();
        self.count = Some(count_zero_replies(
            self.pk,
            self.sk,
            p,
            m,
            &replies,
            self.exchange.reply,
        )?);
        Ok(())
    }

    fn digest(&self) -> Option<u64> {
        self.count
    }
}

/// Server half of the frequency round: blinds, scales and permutes the
/// comparison ciphertexts against its shares.
#[derive(Debug)]
pub struct FrequencyServer<'a, P> {
    exchange: Exchange,
    pk: &'a P,
    field: Fp64,
}

impl<'a, P: HomomorphicPk> FrequencyServer<'a, P> {
    /// A server answering under `exchange` with shares mod the prime
    /// `field`.
    pub fn new(exchange: Exchange, pk: &'a P, field: Fp64) -> Self {
        FrequencyServer {
            exchange,
            pk,
            field,
        }
    }
}

impl<P> SharePhase for FrequencyServer<'_, P> {
    fn exchange(&self) -> Exchange {
        self.exchange
    }
}

impl<P: HomomorphicPk> ShareServer for FrequencyServer<'_, P> {
    fn answer<R: RandomSource>(
        &mut self,
        shares: &[u64],
        query: &[u8],
        rng: &mut R,
    ) -> Result<Vec<u8>, ProtocolError> {
        let client_cts = Vec::<Vec<u8>>::from_bytes(query)?;
        let label = self.exchange.query;
        Ok(frequency_replies(self.pk, self.field, shares, &client_cts, label, rng)?.to_bytes())
    }
}

/// Pumps one frequency round on shares both parties already hold.
fn pump_frequency<P, S, R>(
    t: &mut dyn Channel,
    exchange: Exchange,
    pk: &P,
    sk: &S,
    shares: &SharesModP,
    keywords: Vec<u64>,
    rng: &mut R,
) -> Result<u64, ProtocolError>
where
    P: HomomorphicPk,
    S: HomomorphicSk<P>,
    R: RandomSource + ?Sized,
{
    let m = shares.server.len();
    assert!(m > 0 && shares.client.len() == m && keywords.len() == m);
    let field = Fp64::new(shares.p).expect("share modulus must be prime");
    check_capacity(pk, shares.p, m);
    let client = FrequencyClient::new(exchange, pk, sk, field, keywords);
    let server = FrequencyServer::new(exchange, pk, field);
    let (client, server) = (
        (client, shares.client.clone()),
        (server, shares.server.clone()),
    );
    let client = pump_on(t, client, server, rng)?;
    Ok(ShareClient::digest(&client).expect("pump finished the session"))
}

/// The §4 frequency protocol: given additive shares of the selected items
/// (from any input-selection protocol), one extra round counts how many
/// equal `keyword`.
///
/// The client sends `E(b_j − w)`; the server replies with a random
/// permutation of `E(ρ_j·(a_j + b_j − w) + p·R_j)`; the client counts
/// decryptions divisible by `p`.
///
/// # Errors
///
/// [`ProtocolError`] on any transport fault or malformed counterparty
/// message.
///
/// # Panics
///
/// Panics if shares are empty or the plaintext space too small (local
/// setup bugs, not attacks).
pub fn frequency<P, S, R>(
    t: &mut dyn Channel,
    pk: &P,
    sk: &S,
    shares: &SharesModP,
    keyword: u64,
    rng: &mut R,
) -> Result<u64, ProtocolError>
where
    P: HomomorphicPk,
    S: HomomorphicSk<P>,
    R: RandomSource + ?Sized,
{
    let keywords = vec![keyword; shares.server.len()];
    pump_frequency(t, FREQUENCY, pk, sk, shares, keywords, rng)
}

/// The generalized frequency protocol with a *different keyword per
/// selected item* — the paper's closing observation that a (even
/// malicious) client's power in the frequency protocol is exactly "a
/// different keyword ... for each selected item", offered here as a
/// feature: count how many `x_{i_j} == keywords[j]`.
///
/// # Errors
///
/// [`ProtocolError`] on any transport fault or malformed counterparty
/// message.
///
/// # Panics
///
/// Panics if lengths mismatch or the plaintext space is too small (local
/// setup bugs, not attacks).
pub fn frequency_multi<P, S, R>(
    t: &mut dyn Channel,
    pk: &P,
    sk: &S,
    shares: &SharesModP,
    keywords: &[u64],
    rng: &mut R,
) -> Result<u64, ProtocolError>
where
    P: HomomorphicPk,
    S: HomomorphicSk<P>,
    R: RandomSource + ?Sized,
{
    pump_frequency(t, FREQUENCY_MULTI, pk, sk, shares, keywords.to_vec(), rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::reference;
    use crate::input_select::select1;
    use spfe_crypto::{ChaChaRng, HomomorphicScheme, Paillier};
    use spfe_transport::Transcript;

    fn crypto() -> (
        SchnorrGroup,
        spfe_crypto::PaillierPk,
        spfe_crypto::PaillierSk,
        ChaChaRng,
    ) {
        let mut rng = ChaChaRng::from_u64_seed(0x444);
        let group = SchnorrGroup::generate(96, &mut rng);
        let (pk, sk) = Paillier::keygen(160, &mut rng);
        (group, pk, sk, rng)
    }

    #[test]
    fn weighted_sum_matches_reference() {
        let (group, pk, sk, mut rng) = crypto();
        let db: Vec<u64> = (0..40u64).map(|i| (i * 17 + 3) % 100).collect();
        let field = Fp64::new(65_537).unwrap();
        let indices = [0usize, 13, 27, 39];
        let weights = [1u64, 2, 3, 4];
        let mut t = Transcript::new(1);
        let got = weighted_sum(
            &mut t, &group, &pk, &sk, &db, &indices, &weights, field, &mut rng,
        )
        .unwrap();
        let expect = reference::weighted_sum(&db, &indices, &weights) % field.modulus();
        assert_eq!(got, expect);
    }

    #[test]
    fn weighted_sum_is_one_round() {
        let (group, pk, sk, mut rng) = crypto();
        let db: Vec<u64> = (0..30u64).collect();
        let field = Fp64::new(65_537).unwrap();
        let mut t = Transcript::new(1);
        weighted_sum(
            &mut t,
            &group,
            &pk,
            &sk,
            &db,
            &[1, 15, 29],
            &[1, 1, 1],
            field,
            &mut rng,
        )
        .unwrap();
        assert_eq!(t.report().half_rounds, 2, "§4: one round");
    }

    #[test]
    fn plain_sum_via_unit_weights() {
        let (group, pk, sk, mut rng) = crypto();
        let db: Vec<u64> = (0..25u64).map(|i| i + 50).collect();
        let field = Fp64::new(65_537).unwrap();
        let indices = [3usize, 8, 20];
        let mut t = Transcript::new(1);
        let got = weighted_sum(
            &mut t,
            &group,
            &pk,
            &sk,
            &db,
            &indices,
            &[1, 1, 1],
            field,
            &mut rng,
        )
        .unwrap();
        assert_eq!(got, reference::sum(&db, &indices));
    }

    #[test]
    fn average_and_variance_package() {
        let (group, pk, sk, mut rng) = crypto();
        let db: Vec<u64> = (0..36u64).map(|i| (i * 7) % 50 + 1).collect();
        let sq: Vec<u64> = db.iter().map(|&v| v * v).collect();
        let field = Fp64::at_least(40_000);
        let indices = [2usize, 11, 30];
        let mut t = Transcript::new(1);
        let (s, ss) = average_and_variance(
            &mut t, &group, &pk, &sk, &db, &sq, &indices, field, &mut rng,
        )
        .unwrap();
        let expect_s = reference::sum(&db, &indices);
        let expect_ss: u64 = indices.iter().map(|&i| db[i] * db[i]).sum();
        assert_eq!((s, ss), (expect_s, expect_ss));
        assert_eq!(t.report().half_rounds, 2, "package stays one round");
    }

    #[test]
    fn frequency_counts_keyword() {
        let (group, pk, sk, mut rng) = crypto();
        let db = vec![9u64, 4, 9, 9, 2, 7, 9, 0];
        let field = Fp64::new(257).unwrap();
        let indices = [0usize, 2, 4, 6, 7];
        let mut t = Transcript::new(1);
        let shares = select1(&mut t, &group, &pk, &sk, &db, &indices, field, &mut rng).unwrap();
        let got = frequency(&mut t, &pk, &sk, &shares, 9, &mut rng).unwrap();
        assert_eq!(got, 3);
        // Selection (1 round) + frequency (1 round) = 2 rounds.
        assert_eq!(t.report().half_rounds, 4);
    }

    #[test]
    fn frequency_zero_and_all_matches() {
        let (group, pk, sk, mut rng) = crypto();
        let db = vec![5u64, 5, 5, 1];
        let field = Fp64::new(101).unwrap();
        let mut t = Transcript::new(1);
        let shares = select1(&mut t, &group, &pk, &sk, &db, &[0, 1, 2], field, &mut rng).unwrap();
        assert_eq!(
            frequency(&mut t, &pk, &sk, &shares, 5, &mut rng).unwrap(),
            3
        );
        let mut t2 = Transcript::new(1);
        let shares2 = select1(&mut t2, &group, &pk, &sk, &db, &[0, 3], field, &mut rng).unwrap();
        assert_eq!(
            frequency(&mut t2, &pk, &sk, &shares2, 7, &mut rng).unwrap(),
            0
        );
    }

    #[test]
    fn frequency_multi_per_item_keywords() {
        let (group, pk, sk, mut rng) = crypto();
        let db = vec![3u64, 8, 15, 8, 42];
        let field = Fp64::new(101).unwrap();
        let indices = [0usize, 1, 2, 4];
        let mut t = Transcript::new(1);
        let shares = select1(&mut t, &group, &pk, &sk, &db, &indices, field, &mut rng).unwrap();
        // Match pattern: x₀==3 ✓, x₁==9 ✗, x₂==15 ✓, x₄==42 ✓ → 3.
        let got = frequency_multi(&mut t, &pk, &sk, &shares, &[3, 9, 15, 42], &mut rng).unwrap();
        assert_eq!(got, 3);
        // Uniform keywords degenerate to the plain protocol.
        let mut t2 = Transcript::new(1);
        let shares2 = select1(&mut t2, &group, &pk, &sk, &db, &[1, 3], field, &mut rng).unwrap();
        assert_eq!(
            frequency_multi(&mut t2, &pk, &sk, &shares2, &[8, 8], &mut rng).unwrap(),
            2
        );
    }

    #[test]
    fn malicious_weighted_client_gets_linear_combination_only() {
        // The counting argument: a client submitting arbitrary coefficient
        // vectors learns *some* linear combination of selected items. We
        // emulate by running with a different weight vector than claimed —
        // the output is exactly that other linear combination.
        let (group, pk, sk, mut rng) = crypto();
        let db: Vec<u64> = (0..20u64).map(|i| i + 1).collect();
        let field = Fp64::new(65_537).unwrap();
        let indices = [1usize, 5];
        let sneaky_weights = [7u64, 11];
        let mut t = Transcript::new(1);
        let got = weighted_sum(
            &mut t,
            &group,
            &pk,
            &sk,
            &db,
            &indices,
            &sneaky_weights,
            field,
            &mut rng,
        )
        .unwrap();
        assert_eq!(
            got,
            reference::weighted_sum(&db, &indices, &sneaky_weights) % field.modulus()
        );
    }
}
