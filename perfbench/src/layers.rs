//! Per-layer probes: timed calls into the public functions of one layer
//! at a time — Montgomery arithmetic, the homomorphic schemes, the
//! in-memory protocol drivers and the worker pool.

use crate::measure::{self, mix};
use crate::recorder;
use crate::statsq::{Keys, Profile, Query};
use crate::Metrics;
use spfe::harness;
use spfe_crypto::{ChaChaRng, HomomorphicPk, HomomorphicSk};
use spfe_math::{par, Montgomery, Nat};
use spfe_transport::Transcript;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Modulus widths probed: the toy Paillier `n²`, the deploy Schnorr
/// group and the deploy Paillier `n²`.
pub const WIDTHS: [usize; 3] = [320, 1536, 4096];

/// Median nanoseconds per call of `f` over `batches` batches, each of as
/// many calls as fill `target` (at least one).
fn ns_per_call(mut f: impl FnMut(), target: Duration, batches: usize) -> f64 {
    let mut k = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..k {
            f();
        }
        if t.elapsed() >= target || k >= 1 << 24 {
            break;
        }
        k *= 2;
    }
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..k {
                f();
            }
            t.elapsed().as_nanos() as f64 / k as f64
        })
        .collect();
    measure::median(&samples)
}

/// `math.mont_mul_ns.w*` and `math.modexp_us.w*`: `Montgomery::mont_mul`
/// and `Montgomery::pow` (exponent as wide as the modulus) on a random
/// odd modulus of each width.
pub fn math(out: &mut Metrics) {
    let span = recorder::span("probe:math", 0);
    for bits in WIDTHS {
        let mut rng = ChaChaRng::from_u64_seed(mix(0x3A7, bits as u64));
        let mut n = Nat::random_exact_bits(&mut rng, bits);
        n.set_bit(0, true);
        let ctx = Montgomery::new(n.clone());
        let a = Nat::random_below(&mut rng, &n);
        let b = Nat::random_below(&mut rng, &n);
        let e = Nat::random_exact_bits(&mut rng, bits);
        let mul = {
            let _call = recorder::span("Montgomery::mont_mul", span.id());
            ns_per_call(
                || {
                    black_box(ctx.mont_mul(black_box(&a), black_box(&b)));
                },
                Duration::from_millis(10),
                7,
            )
        };
        let pow = {
            let _call = recorder::span("Montgomery::pow", span.id());
            ns_per_call(
                || {
                    black_box(ctx.pow(black_box(&a), black_box(&e)));
                },
                Duration::from_millis(20),
                5,
            )
        };
        out.push(&format!("math.mont_mul_ns.w{bits}"), mul, "ns");
        out.push(&format!("math.modexp_us.w{bits}"), pow / 1e3, "us");
    }
}

/// `crypto.*_{us,ns}.<profile>`: Paillier encryption and decryption,
/// homomorphic addition and scalar multiplication by a 20-bit constant
/// (the width of the statistic's field).
pub fn crypto(out: &mut Metrics, profile: Profile, keys: &Keys) {
    let span = recorder::span(&format!("probe:crypto.{}", profile.name()), 0);
    let (pk, sk) = (&keys.pk, &keys.sk);
    let mut rng = ChaChaRng::from_u64_seed(0xC0DE);
    let m = Nat::from(123_456u64);
    let c1 = pk.encrypt(&m, &mut rng);
    let c2 = pk.encrypt(&Nat::from(654_321u64), &mut rng);
    let scalar = Nat::from(0xF_4243u64);
    assert_eq!(sk.decrypt(&c1), m, "Paillier round trip");
    let timed = |call: &str, target_ms: u64, f: &mut dyn FnMut()| {
        let _call = recorder::span(call, span.id());
        ns_per_call(f, Duration::from_millis(target_ms), 5)
    };
    let enc = timed("HomomorphicPk::encrypt", 20, &mut || {
        black_box(pk.encrypt(black_box(&m), &mut rng));
    });
    let dec = timed("HomomorphicSk::decrypt", 20, &mut || {
        black_box(sk.decrypt(black_box(&c1)));
    });
    let add = timed("HomomorphicPk::add", 10, &mut || {
        black_box(pk.add(black_box(&c1), black_box(&c2)));
    });
    let smul = timed("HomomorphicPk::mul_const", 10, &mut || {
        black_box(pk.mul_const(black_box(&c1), black_box(&scalar)));
    });
    let p = profile.name();
    out.push(&format!("crypto.paillier_encrypt_us.{p}"), enc / 1e3, "us");
    out.push(&format!("crypto.paillier_decrypt_us.{p}"), dec / 1e3, "us");
    out.push(&format!("crypto.hom_add_ns.{p}"), add, "ns");
    out.push(&format!("crypto.hom_scalar_mul_ns.{p}"), smul, "ns");
}

/// In-memory median session time of every harness driver over a metered
/// `Transcript` (`core.inmem_ms.<driver>`); false if a digest was wrong.
pub fn inmem(out: &mut Metrics, runs: usize) -> (Vec<(&'static str, f64)>, bool) {
    let span = recorder::span("probe:inmem", 0);
    let mut all_ok = true;
    let mut medians = Vec::new();
    for d in harness::drivers() {
        let once = || {
            let mut t = Transcript::new(d.servers);
            let start = Instant::now();
            let got = {
                let _call = recorder::span(&format!("inmem:{}", d.name), span.id());
                (d.run)(&mut t)
            };
            (measure::ms(start.elapsed()), got == Ok(d.expect))
        };
        all_ok &= once().1;
        let samples: Vec<f64> = (0..runs)
            .map(|_| {
                let (ms, ok) = once();
                all_ok &= ok;
                ms
            })
            .collect();
        let p50 = measure::median(&samples);
        out.push(&format!("core.inmem_ms.{}", d.name), p50, "ms");
        medians.push((d.name, p50));
    }
    (medians, all_ok)
}

/// `math.par_speedup`: the query's server-eval phase time at one pool
/// thread over its time at the default thread count (one session each,
/// read from the program's phase spans); false if an answer was wrong.
pub fn par_speedup(out: &mut Metrics, q: &Query) -> bool {
    let span = recorder::span("probe:par_speedup", 0);
    let eval_ms = |threads: Option<usize>, i: u64| {
        par::set_threads(threads);
        spfe_obs::reset_spans();
        let s = q.session(i, span.id());
        let ns: u64 = spfe_obs::spans_snapshot()
            .iter()
            .filter(|s| s.path == "weighted-sum/server-eval")
            .map(|s| s.ns)
            .sum();
        par::set_threads(None);
        (ns as f64 / 1e6, s.correct)
    };
    let (serial, ok1) = eval_ms(Some(1), 1 << 40);
    let (pooled, ok2) = eval_ms(None, (1 << 40) + 1);
    out.push("math.par_speedup", serial / pooled, "ratio");
    ok1 && ok2
}
