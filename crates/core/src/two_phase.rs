//! §3.3 — complete two-phase SPFE: input selection + secure function
//! evaluation on the shares.
//!
//! The second phase comes in two flavors, matching Table 1's "efficient
//! scalability to arithmetic circuits?" column:
//!
//! * [`yao_phase`] — Yao's protocol on a Boolean circuit that first
//!   reconstructs `x_j = a_j + b_j mod p` from the shares and then applies
//!   `f` (the "composition overhead" circuit the paper describes for the
//!   Boolean case);
//! * [`arith_phase`] — the §3.3.4 protocol on an arithmetic circuit over
//!   the client's homomorphic plaintext ring, composed with the integer
//!   shares of `select3`.
//!
//! The end-to-end runners ([`run_select1_yao`] etc.) reproduce the four
//! single-server Table 1 rows together with `psm_spfe`.

use crate::input_select::{self, IntShares, Select1Client, Select1Server, Select1Then, SharesModP};
use crate::statistic::Statistic;
use spfe_circuits::boolean::Circuit;
use spfe_circuits::builders::bits_for;
use spfe_crypto::hom::{HomomorphicPk, HomomorphicSk};
use spfe_crypto::SchnorrGroup;
use spfe_math::{Fp64, Nat, RandomSource, SharedRng};
use spfe_mpc::yao2pc::{self, YaoClient, YaoServer};
use spfe_transport::{pump, Channel, ProtocolError, RoundServer};

/// Yao MPC phase: evaluates the statistic on mod-`p` shares.
///
/// # Errors
///
/// [`ProtocolError`] on any transport fault or malformed message.
///
/// # Panics
///
/// Panics if shares are empty or inconsistent (local setup bugs).
pub fn yao_phase<R: RandomSource + ?Sized>(
    t: &mut dyn Channel,
    group: &SchnorrGroup,
    shares: &SharesModP,
    stat: &Statistic,
    rng: &mut R,
) -> Result<Vec<u64>, ProtocolError> {
    let m = shares.server.len();
    assert!(m > 0 && shares.client.len() == m);
    let (client, server) = yao_parties(
        "yao-phase",
        group,
        stat.share_circuit(m, shares.p),
        shares.p,
    );
    let (client, server) = (
        (client, shares.client.clone()),
        (server, shares.server.clone()),
    );
    let out = yao2pc::run(t, client, server, rng)?;
    Ok(stat.decode_bits(&out, m, shares.p))
}

/// The two halves of a Yao phase evaluating `circuit` on shares mod `p`.
pub fn yao_parties(
    span: &'static str,
    group: &SchnorrGroup,
    circuit: Circuit,
    p: u64,
) -> (YaoClient, YaoServer) {
    let width = bits_for(p - 1);
    let server = YaoServer::new(span, group.clone(), circuit.clone(), width);
    (YaoClient::new(span, group.clone(), circuit, width), server)
}

/// §3.3.4 arithmetic MPC phase on integer shares: evaluates the statistic
/// over the client's homomorphic ring. Returns exact integer results
/// (shares are exact over ℤ and values stay far below the ring modulus).
///
/// # Errors
///
/// [`ProtocolError`] on any transport fault or malformed message.
///
/// # Panics
///
/// Panics on empty shares or if the ring is too small (local setup bugs).
pub fn arith_phase<P, S, R>(
    t: &mut dyn Channel,
    pk: &P,
    sk: &S,
    shares: &IntShares,
    stat: &Statistic,
    rng: &mut R,
) -> Result<Vec<Nat>, ProtocolError>
where
    P: HomomorphicPk,
    S: HomomorphicSk<P>,
    R: RandomSource + ?Sized,
{
    let m = shares.server.len();
    assert!(m > 0 && shares.client_masks.len() == m);
    let _s = spfe_obs::span("arith-phase");
    let ring = pk.plaintext_modulus().clone();
    let circuit = stat.share_arith_circuit(m, ring.clone());
    // Client inputs: −R_j mod ring; server inputs: S_j mod ring.
    let client_inputs: Vec<Nat> = shares
        .client_masks
        .iter()
        .map(|r| spfe_math::modular::mod_neg(&r.rem(&ring), &ring))
        .collect();
    let server_inputs: Vec<Nat> = shares.server.iter().map(|s| s.rem(&ring)).collect();
    spfe_mpc::arith_mpc::run(t, pk, sk, &circuit, &client_inputs, &server_inputs, rng)
}

/// §3.3.1 + Yao: the Table 1 "2 rounds / Weak" row.
///
/// # Errors
///
/// [`ProtocolError`] on any transport fault or malformed message.
#[allow(clippy::too_many_arguments)]
pub fn run_select1_yao<P, S, R>(
    t: &mut dyn Channel,
    group: &SchnorrGroup,
    pk: &P,
    sk: &S,
    db: &[u64],
    indices: &[usize],
    stat: &Statistic,
    field: Fp64,
    rng: &mut R,
) -> Result<Vec<u64>, ProtocolError>
where
    P: HomomorphicPk,
    S: HomomorphicSk<P>,
    R: RandomSource + ?Sized,
{
    let (m, p) = (indices.len(), field.modulus());
    assert!(m > 0, "no indices selected");
    assert!(db.iter().all(|&v| v < p), "db value exceeds field");
    assert!(indices.iter().all(|&i| i < db.len()), "index out of range");
    let (yao_client, yao_server) = yao_parties("yao-phase", group, stat.share_circuit(m, p), p);
    let rng = SharedRng::new(rng);
    let sel = Select1Client::new(group, pk, sk, db.len(), indices, field, &rng);
    let mut client = Select1Then::new(sel, yao_client);
    let sel = Select1Server::new(group, pk, db, field, m, &rng, &rng);
    let server = Select1Then::new(sel, yao_server);
    pump(t, &mut client, &mut [RoundServer::new(server)])?;
    let out = client.phase().output().expect("pump finished the session");
    Ok(stat.decode_bits(out, m, p))
}

/// §3.3.2 (variant 1) + Yao: "2 rounds / Weak, κm² overhead".
///
/// # Errors
///
/// [`ProtocolError`] on any transport fault or malformed message.
#[allow(clippy::too_many_arguments)]
pub fn run_select2v1_yao<P, S, R>(
    t: &mut dyn Channel,
    group: &SchnorrGroup,
    pk: &P,
    sk: &S,
    db: &[u64],
    indices: &[usize],
    stat: &Statistic,
    field: Fp64,
    rng: &mut R,
) -> Result<Vec<u64>, ProtocolError>
where
    P: HomomorphicPk,
    S: HomomorphicSk<P>,
    R: RandomSource + ?Sized,
{
    let shares = input_select::select2_v1(t, group, pk, sk, db, indices, field, rng)?;
    yao_phase(t, group, &shares, stat, rng)
}

/// §3.3.2 (variant 2) + Yao: "2.5 rounds / None*, κm overhead".
///
/// # Errors
///
/// [`ProtocolError`] on any transport fault or malformed message.
#[allow(clippy::too_many_arguments)]
pub fn run_select2v2_yao<PC, SC, PS, SS, R>(
    t: &mut dyn Channel,
    group: &SchnorrGroup,
    client_pk: &PC,
    client_sk: &SC,
    server_pk: &PS,
    server_sk: &SS,
    db: &[u64],
    indices: &[usize],
    stat: &Statistic,
    field: Fp64,
    rng: &mut R,
) -> Result<Vec<u64>, ProtocolError>
where
    PC: HomomorphicPk,
    SC: HomomorphicSk<PC>,
    PS: HomomorphicPk,
    SS: HomomorphicSk<PS>,
    R: RandomSource + ?Sized,
{
    let shares = input_select::select2_v2(
        t, group, client_pk, client_sk, server_pk, server_sk, db, indices, field, rng,
    )?;
    yao_phase(t, group, &shares, stat, rng)
}

/// §3.3.3 + §3.3.4: "2 rounds / None*", scaling to arithmetic circuits.
///
/// Returns the statistic's outputs as exact integers.
///
/// # Errors
///
/// [`ProtocolError`] on any transport fault or malformed message.
#[allow(clippy::too_many_arguments)]
pub fn run_select3_arith<PC, SC, PS, SS, R>(
    t: &mut dyn Channel,
    group: &SchnorrGroup,
    client_pk: &PC,
    client_sk: &SC,
    server_pk: &PS,
    server_sk: &SS,
    db: &[u64],
    indices: &[usize],
    stat: &Statistic,
    rng: &mut R,
) -> Result<Vec<Nat>, ProtocolError>
where
    PC: HomomorphicPk,
    SC: HomomorphicSk<PC>,
    PS: HomomorphicPk,
    SS: HomomorphicSk<PS>,
    R: RandomSource + ?Sized,
{
    let value_bits = bits_for(db.iter().copied().max().unwrap_or(1));
    let shares = input_select::select3(
        t, group, client_pk, client_sk, server_pk, server_sk, db, indices, value_bits, rng,
    )?;
    arith_phase(t, client_pk, client_sk, &shares, stat, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::reference;
    use spfe_crypto::{ChaChaRng, HomomorphicScheme, Paillier};
    use spfe_transport::Transcript;

    fn crypto() -> (
        SchnorrGroup,
        spfe_crypto::PaillierPk,
        spfe_crypto::PaillierSk,
        ChaChaRng,
    ) {
        let mut rng = ChaChaRng::from_u64_seed(0x77);
        let group = SchnorrGroup::generate(96, &mut rng);
        let (pk, sk) = Paillier::keygen(160, &mut rng);
        (group, pk, sk, rng)
    }

    fn db() -> Vec<u64> {
        (0..24u64).map(|i| (i * 31 + 5) % 64).collect()
    }

    #[test]
    fn select1_yao_sum() {
        let (group, pk, sk, mut rng) = crypto();
        let database = db();
        let field = Fp64::new(65_537).unwrap();
        let indices = [3usize, 11, 23];
        let mut t = Transcript::new(1);
        let got = run_select1_yao(
            &mut t,
            &group,
            &pk,
            &sk,
            &database,
            &indices,
            &Statistic::Sum,
            field,
            &mut rng,
        )
        .unwrap();
        assert_eq!(
            got,
            vec![reference::sum(&database, &indices) % field.modulus()]
        );
        assert_eq!(t.report().half_rounds, 4, "2 rounds per Table 1");
    }

    #[test]
    fn select1_yao_frequency() {
        let (group, pk, sk, mut rng) = crypto();
        let database = vec![7u64, 3, 7, 1, 7, 0];
        let field = Fp64::new(257).unwrap();
        let indices = [0usize, 1, 2, 4];
        let mut t = Transcript::new(1);
        let got = run_select1_yao(
            &mut t,
            &group,
            &pk,
            &sk,
            &database,
            &indices,
            &Statistic::Frequency { keyword: 7 },
            field,
            &mut rng,
        )
        .unwrap();
        assert_eq!(got, vec![3]);
    }

    #[test]
    fn select2v1_yao_sum() {
        let (group, pk, sk, mut rng) = crypto();
        let database = db();
        let field = Fp64::new(65_537).unwrap();
        let indices = [0usize, 7, 15, 23];
        let mut t = Transcript::new(1);
        let got = run_select2v1_yao(
            &mut t,
            &group,
            &pk,
            &sk,
            &database,
            &indices,
            &Statistic::Sum,
            field,
            &mut rng,
        )
        .unwrap();
        assert_eq!(
            got,
            vec![reference::sum(&database, &indices) % field.modulus()]
        );
        assert_eq!(t.report().half_rounds, 4);
    }

    #[test]
    fn select2v2_yao_sum() {
        let (group, pk, sk, mut rng) = crypto();
        let (spk, ssk) = Paillier::keygen(160, &mut rng);
        let database = db();
        let field = Fp64::new(65_537).unwrap();
        let indices = [1usize, 12, 20];
        let mut t = Transcript::new(1);
        let got = run_select2v2_yao(
            &mut t,
            &group,
            &pk,
            &sk,
            &spk,
            &ssk,
            &database,
            &indices,
            &Statistic::Sum,
            field,
            &mut rng,
        )
        .unwrap();
        assert_eq!(
            got,
            vec![reference::sum(&database, &indices) % field.modulus()]
        );
        assert_eq!(t.report().half_rounds, 5, "2.5 rounds per Table 1");
    }

    #[test]
    fn select3_arith_sum() {
        let (group, pk, sk, mut rng) = crypto();
        let (spk, ssk) = Paillier::keygen(160, &mut rng);
        let database = db();
        let indices = [2usize, 9, 16, 23];
        let mut t = Transcript::new(1);
        let got = run_select3_arith(
            &mut t,
            &group,
            &pk,
            &sk,
            &spk,
            &ssk,
            &database,
            &indices,
            &Statistic::Sum,
            &mut rng,
        )
        .unwrap();
        assert_eq!(got, vec![Nat::from(reference::sum(&database, &indices))]);
        assert_eq!(t.report().half_rounds, 4, "2 rounds per Table 1");
    }

    #[test]
    fn select3_arith_sum_and_squares() {
        let (group, pk, sk, mut rng) = crypto();
        let (spk, ssk) = Paillier::keygen(160, &mut rng);
        let database = db();
        let indices = [5usize, 6, 7];
        let mut t = Transcript::new(1);
        let got = run_select3_arith(
            &mut t,
            &group,
            &pk,
            &sk,
            &spk,
            &ssk,
            &database,
            &indices,
            &Statistic::SumAndSquares,
            &mut rng,
        )
        .unwrap();
        let s = reference::sum(&database, &indices);
        let ss: u64 = indices.iter().map(|&i| database[i] * database[i]).sum();
        assert_eq!(got, vec![Nat::from(s), Nat::from(ss)]);
        // One extra round for the multiplication level: 3 rounds total.
        assert_eq!(t.report().half_rounds, 6);
    }

    #[test]
    fn select1_yao_median() {
        // The median statistic: a full Batcher sorting network evaluated
        // under garbling — the "heavy f" end of the MPC(m, C_f) spectrum.
        let (group, pk, sk, mut rng) = crypto();
        let database = vec![50u64, 3, 77, 12, 30, 61];
        let field = Fp64::new(127).unwrap();
        let indices = [0usize, 1, 2, 3, 4];
        let mut t = Transcript::new(1);
        let got = run_select1_yao(
            &mut t,
            &group,
            &pk,
            &sk,
            &database,
            &indices,
            &Statistic::Median,
            field,
            &mut rng,
        )
        .unwrap();
        // Values: 50, 3, 77, 12, 30 → sorted 3,12,30,50,77 → median 30.
        assert_eq!(got, vec![30]);
    }

    #[test]
    fn malicious_client_share_shift_gives_weak_security() {
        // The §3.3 discussion: a client that shifts its shares by Δ before
        // the MPC phase learns f(x_I + Δ) — a function of the same ≤ m
        // positions — and nothing more.
        let (group, pk, sk, mut rng) = crypto();
        let database = db();
        let field = Fp64::new(65_537).unwrap();
        let indices = [3usize, 11];
        let mut t = Transcript::new(1);
        let mut shares = input_select::select1(
            &mut t, &group, &pk, &sk, &database, &indices, field, &mut rng,
        )
        .unwrap();
        // Malicious shift by Δ = (10, 100).
        shares.client[0] = field.add(shares.client[0], 10);
        shares.client[1] = field.add(shares.client[1], 100);
        let got = yao_phase(&mut t, &group, &shares, &Statistic::Sum, &mut rng).unwrap();
        let honest = reference::sum(&database, &indices) % field.modulus();
        assert_eq!(
            got,
            vec![field.add(honest, 110)],
            "client learns f(x_I + Δ)"
        );
    }
}
