//! The linear-communication baselines SPFE is measured against (§1, §1.1).
//!
//! 1. [`buy_the_database`] — the "obvious solution often employed in
//!    practice": the server ships the whole database; the client computes
//!    `f` locally. Perfect client privacy, zero database secrecy,
//!    communication `Θ(n)`.
//! 2. [`generic_yao`] — generic secure two-party computation of the SPFE
//!    functionality: a single garbled circuit whose *inputs include the
//!    entire database*, so the circuit has `Ω(n)` selection gates
//!    (a `log n`-level multiplexer tree per selected item). This is the
//!    "generic solutions … communication at least linear in n" strawman
//!    the paper's introduction argues against; we actually run it, so the
//!    crossover experiments (E9) compare real executions.

use crate::statistic::Statistic;
use spfe_circuits::boolean::{Circuit, CircuitBuilder, WireId};
use spfe_crypto::SchnorrGroup;
use spfe_math::RandomSource;
use spfe_mpc::yao2pc::{self, YaoClient, YaoServer};
use spfe_transport::{Channel, ChannelExt, ProtocolError, Wire as _};

/// Ships the entire database to the client, which evaluates locally.
/// Returns the statistic's values; the transcript records the `Θ(n·ℓ)`
/// download.
///
/// # Errors
///
/// [`ProtocolError`] on any transport fault.
pub fn buy_the_database(
    t: &mut dyn Channel,
    db: &[u64],
    indices: &[usize],
    stat: &Statistic,
) -> Result<Vec<u64>, ProtocolError> {
    // A 1-byte request, then the full database.
    let _ = t.client_to_server(0, "buy-request", &1u8)?;
    let copy: Vec<u64> = t.server_to_client(0, "buy-database", &db.to_vec())?;
    let p = copy.iter().copied().max().unwrap_or(0).max(1);
    // Local evaluation, exact (no modulus): use a modulus above everything.
    let big_p = (p + 1).next_power_of_two().max(1 << 20);
    Ok(stat.clear_eval(&copy, indices, big_p))
}

/// Size in bytes of the buy-the-database transfer for `n` items of
/// `value_bits` bits — the analytic baseline curve.
pub fn buy_cost_bytes(n: usize, value_bits: usize) -> u64 {
    (n * value_bits) as u64 / 8
}

/// Builds the generic-MPC circuit for the SPFE functionality: a
/// multiplexer tree selecting `m` items of `value_bits` bits out of `n`
/// (server inputs), driven by `m·⌈log₂ n⌉` client index bits, followed by
/// the statistic's circuit.
///
/// Circuit size is `Ω(n·m·value_bits)` — the point of the baseline.
pub fn selection_circuit(n: usize, m: usize, value_bits: usize, stat: &Statistic) -> Circuit {
    assert!(n > 0 && m > 0 && value_bits > 0);
    let index_bits = spfe_circuits::formula::index_bits(n);
    let mut b = CircuitBuilder::new();
    // Server inputs: the whole database, bit by bit.
    let db_words: Vec<Vec<WireId>> = (0..n).map(|_| b.inputs(value_bits)).collect();
    // Client inputs: m indices.
    let idx_words: Vec<Vec<WireId>> = (0..m).map(|_| b.inputs(index_bits)).collect();
    // Selection: for each slot, a log-depth mux tree over the database.
    let selected: Vec<Vec<WireId>> = idx_words
        .iter()
        .map(|idx| {
            let mut level: Vec<Vec<WireId>> = db_words.clone();
            for &sel_bit in idx {
                let mut next = Vec::with_capacity(level.len().div_ceil(2));
                let mut it = level.chunks(2);
                for pair in &mut it {
                    if pair.len() == 2 {
                        next.push(b.mux_words(sel_bit, &pair[0], &pair[1]));
                    } else {
                        next.push(pair[0].clone());
                    }
                }
                level = next;
            }
            level[0].clone()
        })
        .collect();
    // Apply the statistic on the selected words.
    let max_val = (1u64 << value_bits) - 1;
    apply_stat(&mut b, &selected, stat, max_val);
    b.build()
}

fn apply_stat(b: &mut CircuitBuilder, words: &[Vec<WireId>], stat: &Statistic, max_val: u64) {
    match stat {
        Statistic::Sum => {
            let mut acc = words[0].clone();
            for w in &words[1..] {
                acc = add_any(b, &acc, w);
            }
            for wire in acc {
                b.output(wire);
            }
        }
        Statistic::Frequency { keyword } => {
            assert!(*keyword <= max_val, "keyword exceeds item width");
            let width = words[0].len();
            let kw: Vec<WireId> = (0..width)
                .map(|i| b.constant((keyword >> i) & 1 == 1))
                .collect();
            let flags: Vec<Vec<WireId>> = words.iter().map(|w| vec![b.eq_words(w, &kw)]).collect();
            let mut acc = flags[0].clone();
            for f in &flags[1..] {
                acc = add_any(b, &acc, f);
            }
            for wire in acc {
                b.output(wire);
            }
        }
        other => panic!("generic baseline does not implement {other:?}"),
    }
}

fn add_any(b: &mut CircuitBuilder, x: &[WireId], y: &[WireId]) -> Vec<WireId> {
    let w = x.len().max(y.len());
    let pad = |b: &mut CircuitBuilder, v: &[WireId], w: usize| {
        let mut out = v.to_vec();
        while out.len() < w {
            out.push(b.constant(false));
        }
        out
    };
    let xx = pad(b, x, w);
    let yy = pad(b, y, w);
    b.add_words(&xx, &yy)
}

/// Runs the generic-Yao SPFE baseline end to end: the server garbles the
/// whole-database selection circuit; the client's inputs are its index
/// bits. Communication is dominated by the `Ω(κ·n)` garbled tables.
///
/// # Errors
///
/// [`ProtocolError`] on any transport fault or malformed counterparty
/// message.
///
/// # Panics
///
/// Panics on out-of-range indices or oversized values (local setup bugs,
/// not attacks).
pub fn generic_yao<R: RandomSource + ?Sized>(
    t: &mut dyn Channel,
    group: &SchnorrGroup,
    db: &[u64],
    indices: &[usize],
    value_bits: usize,
    stat: &Statistic,
    rng: &mut R,
) -> Result<Vec<u64>, ProtocolError> {
    let n = db.len();
    let m = indices.len();
    assert!(m > 0);
    assert!(indices.iter().all(|&i| i < n), "index out of range");
    assert!(
        db.iter().all(|&v| v < (1u64 << value_bits)),
        "value exceeds width"
    );
    let circuit = selection_circuit(n, m, value_bits, stat);
    let index_bits = spfe_circuits::formula::index_bits(n);
    let server = YaoServer::new("generic-yao", group.clone(), circuit.clone(), value_bits);
    let client = YaoClient::new("generic-yao", group.clone(), circuit, index_bits);
    let client_words = indices.iter().map(|&i| i as u64).collect();
    let out = yao2pc::run(t, (client, client_words), (server, db.to_vec()), rng)?;
    Ok(vec![yao2pc::from_bits(&out)])
}

/// Analytic size (bytes) of the garbled selection circuit — used to plot
/// the baseline beyond sizes that are practical to actually garble.
pub fn generic_yao_cost_estimate(n: usize, m: usize, value_bits: usize) -> u64 {
    let stat = Statistic::Sum;
    if n <= 1 << 12 {
        // Small enough: measure the real thing.
        let c = selection_circuit(n, m, value_bits, &stat);
        let (gc, _) = spfe_mpc::garble::garble(&c, [0u8; 32]);
        gc.to_bytes().len() as u64
    } else {
        // Extrapolate from the per-item cost at a reference size.
        let reference = 1 << 10;
        let c = selection_circuit(reference, m, value_bits, &stat);
        let (gc, _) = spfe_mpc::garble::garble(&c, [0u8; 32]);
        (gc.to_bytes().len() as u64) * (n as u64) / (reference as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::reference;
    use spfe_crypto::ChaChaRng;
    use spfe_transport::Transcript;

    #[test]
    fn buy_baseline_is_linear_and_correct() {
        let db: Vec<u64> = (0..200u64).map(|i| i % 37).collect();
        let indices = [0usize, 50, 100];
        let mut t = Transcript::new(1);
        let got = buy_the_database(&mut t, &db, &indices, &Statistic::Sum).unwrap();
        assert_eq!(got[0], reference::sum(&db, &indices));
        // Downstream ≥ 8 bytes per item.
        assert!(t.report().server_to_client >= 8 * db.len() as u64);
    }

    #[test]
    fn generic_yao_computes_sum() {
        let mut rng = ChaChaRng::from_u64_seed(0x9A0);
        let group = SchnorrGroup::generate(96, &mut rng);
        let db: Vec<u64> = (0..16u64).map(|i| (i * 5) % 8).collect();
        let indices = [2usize, 9, 15];
        let mut t = Transcript::new(1);
        let got = generic_yao(&mut t, &group, &db, &indices, 3, &Statistic::Sum, &mut rng).unwrap();
        assert_eq!(got[0], reference::sum(&db, &indices));
    }

    #[test]
    fn generic_yao_frequency() {
        let mut rng = ChaChaRng::from_u64_seed(0x9A1);
        let group = SchnorrGroup::generate(96, &mut rng);
        let db = vec![3u64, 1, 3, 2, 3, 0, 1, 2];
        let indices = [0usize, 2, 4, 5];
        let mut t = Transcript::new(1);
        let got = generic_yao(
            &mut t,
            &group,
            &db,
            &indices,
            2,
            &Statistic::Frequency { keyword: 3 },
            &mut rng,
        )
        .unwrap();
        assert_eq!(got[0], 3);
    }

    #[test]
    fn selection_circuit_size_is_linear_in_n() {
        let s16 = selection_circuit(16, 2, 4, &Statistic::Sum).size();
        let s64 = selection_circuit(64, 2, 4, &Statistic::Sum).size();
        let ratio = s64 as f64 / s16 as f64;
        assert!(ratio > 3.0 && ratio < 5.0, "Ω(n) selection: {ratio}");
    }

    #[test]
    fn generic_yao_communication_is_linear_in_n() {
        let mut rng = ChaChaRng::from_u64_seed(0x9A2);
        let group = SchnorrGroup::generate(96, &mut rng);
        let mut totals = Vec::new();
        for n in [16usize, 64] {
            let db: Vec<u64> = (0..n as u64).map(|i| i % 4).collect();
            let mut t = Transcript::new(1);
            generic_yao(&mut t, &group, &db, &[1, 2], 2, &Statistic::Sum, &mut rng).unwrap();
            totals.push(t.report().total_bytes());
        }
        let ratio = totals[1] as f64 / totals[0] as f64;
        assert!(ratio > 3.0, "4× database should be ≈4× bytes: {ratio}");
    }

    #[test]
    fn cost_estimate_monotone() {
        let a = generic_yao_cost_estimate(256, 2, 4);
        let b = generic_yao_cost_estimate(1024, 2, 4);
        assert!(b > 3 * a);
        assert_eq!(buy_cost_bytes(1000, 16), 2000);
    }
}
