//! The cross-transport conformance matrix (DESIGN.md §15).
//!
//! Every harness driver runs its client core against its server cores
//! over three transports — [`spfe::transport::pump`] over the in-memory
//! metered channel, the same pump over the fault-injecting channel under
//! the two audit mask seeds, and a genuine client-vs-server session over
//! loopback TCP — and must produce the identical answer, the identical
//! per-label communication bytes, the identical half-round structure,
//! the identical per-party view fingerprints, and the identical
//! deterministic op counters.
//!
//! The matrix re-runs at `SPFE_THREADS` 1 and 4: thread count is outside
//! the protocol, so nothing observable may move.

mod common;
use common::*;

use spfe::obs::audit::deterministic_ops;
use spfe::transport::{FaultAction, FaultPlan, FaultyChannel, Transcript};
use spfe_net::{run_driver, Server, ServerConfig};
use std::sync::Mutex;

/// Op counters are process-global; every test that reads them serializes
/// on this lock.
static LOCK: Mutex<()> = Mutex::new(());

/// Everything the matrix compares for one run.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Obs {
    digest: u64,
    report: spfe::transport::CommReport,
    labels: Vec<spfe::obs::LabelStat>,
    fingerprints: Vec<String>,
    ops: Vec<(String, u64)>,
}

fn observe(digest: u64, t: &Transcript) -> Obs {
    Obs {
        digest,
        report: t.report(),
        labels: t.report_by_label(),
        fingerprints: t
            .party_views()
            .iter()
            .map(|v| v.fingerprint_hex())
            .collect(),
        ops: deterministic_ops(&spfe::obs::ops_snapshot()),
    }
}

/// Prepares a measured run: fixture warmed (so keygen ops don't leak into
/// the first measurement), op counters zeroed, thread override applied.
fn arm(threads: usize) {
    let _ = fx();
    spfe::math::par::set_threads(Some(threads));
    spfe::obs::reset();
}

fn in_memory(d: &Driver, threads: usize) -> Obs {
    arm(threads);
    let mut ch = FaultyChannel::new(d.servers, FaultPlan::honest(), 0);
    let digest = (d.run)(&mut ch).expect("honest run");
    observe(digest, ch.inner())
}

fn faulty(d: &Driver, seed: u64, threads: usize) -> Obs {
    arm(threads);
    let mut ch = FaultyChannel::new(
        d.servers,
        FaultPlan::with_rate(seed, FaultAction::Drop, 300),
        0,
    );
    let digest = (d.run)(&mut ch).expect("masked faulty run");
    observe(digest, ch.inner())
}

fn tcp(d: &Driver, addr: &str, threads: usize) -> Obs {
    arm(threads);
    let run = run_driver(addr, d.name, Some(std::time::Duration::from_secs(30))).expect("tcp run");
    observe(run.digest, &run.transcript)
}

fn local_server() -> Server {
    Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind loopback")
}

/// The matrix: every driver, three transports, two thread counts, one
/// set of observables.
#[test]
fn every_driver_is_transport_invariant() {
    let _g = LOCK.lock().unwrap();
    let server = local_server();
    let addr = server.local_addr().to_string();
    for threads in [1usize, 4] {
        for d in drivers() {
            let base = in_memory(&d, threads);
            assert_eq!(
                base.digest, d.expect,
                "[{} t{threads}] in-memory digest",
                d.name
            );
            for seed in [11u64, 77] {
                let f = faulty(&d, seed, threads);
                assert_eq!(
                    f, base,
                    "[{} t{threads} seed {seed}] masked faults changed an observable",
                    d.name
                );
            }
            let r = tcp(&d, &addr, threads);
            assert_eq!(
                r, base,
                "[{} t{threads}] loopback TCP changed an observable",
                d.name
            );
        }
    }
    spfe::math::par::set_threads(None);
}

/// Op counters must be identical across thread counts (the thread axis is
/// outside the protocol), for every driver and every transport.
#[test]
fn op_counters_are_thread_invariant() {
    let _g = LOCK.lock().unwrap();
    for d in drivers() {
        let one = in_memory(&d, 1);
        let four = in_memory(&d, 4);
        assert_eq!(
            one, four,
            "[{}] observables moved between SPFE_THREADS=1 and 4",
            d.name
        );
    }
    spfe::math::par::set_threads(None);
}

/// Runs driver `name`'s canonical case through its protocol's public
/// entry point over `t`, with the client seed the harness cores use.
/// `None` for drivers whose servers draw their own randomness, since the
/// entry point shares one rng between the parties and the cores do not.
fn entry_point(name: &str, t: &mut Transcript) -> Option<u64> {
    use spfe::crypto::ChaChaRng;
    let f = fx();
    Some(match name {
        "xor2" => {
            let mut rng = ChaChaRng::from_u64_seed(0xA0);
            let item = spfe::pir::xor2::run(t, &xor_db_v(0), 5, &mut rng).expect("xor2 run");
            item.iter().map(|&b| u64::from(b)).sum()
        }
        "hom_pir" => {
            let mut rng = ChaChaRng::from_u64_seed(0xA1);
            spfe::pir::hom_pir::run(t, &f.pk, &f.sk, &db16_v(0), 9, &mut rng).expect("hom_pir run")
        }
        "poly_it" => {
            let mut rng = ChaChaRng::from_u64_seed(0xA5);
            spfe::pir::poly_it::run(t, &poly_params(), &db16_v(0), 5, &mut rng)
                .expect("poly_it run")
        }
        "multiserver" => {
            let mut rng = ChaChaRng::from_u64_seed(0xA6);
            spfe::core::multiserver::run(t, &ms_params(), &db16_v(0), &[3, 10], None, &mut rng)
                .expect("multiserver run")
        }
        _ => return None,
    })
}

/// The sans-io half of the matrix: for every driver whose servers draw no
/// randomness, the protocol's public entry point and the harness-built
/// cores — pumped in memory, pumped under masked faults, and hosted over
/// loopback TCP — produce identical observables.
#[test]
fn extracted_cores_match_their_monolithic_drivers() {
    let _g = LOCK.lock().unwrap();
    let server = local_server();
    let addr = server.local_addr().to_string();
    let mut covered = Vec::new();
    for threads in [1usize, 4] {
        for d in drivers() {
            arm(threads);
            let mut t = Transcript::new(d.servers);
            let Some(digest) = entry_point(d.name, &mut t) else {
                continue;
            };
            let base = observe(digest, &t);
            assert_eq!(base.digest, d.expect, "[{} t{threads}] entry point", d.name);
            if threads == 1 {
                covered.push(d.name);
            }

            assert_eq!(
                in_memory(&d, threads),
                base,
                "[{} t{threads}] cores over in-memory diverged from the entry point",
                d.name
            );
            for seed in [11u64, 77] {
                assert_eq!(
                    faulty(&d, seed, threads),
                    base,
                    "[{} t{threads} seed {seed}] cores under masked faults diverged",
                    d.name
                );
            }
            assert_eq!(
                tcp(&d, &addr, threads),
                base,
                "[{} t{threads}] hosted cores over TCP diverged from the entry point",
                d.name
            );
        }
    }
    assert_eq!(covered, ["xor2", "hom_pir", "poly_it", "multiserver"]);
    spfe::math::par::set_threads(None);
}

/// Concurrent sessions multiplex on one listener without interference:
/// several drivers at once, every digest right, every session completed.
#[test]
fn concurrent_sessions_multiplex_on_one_listener() {
    let _g = LOCK.lock().unwrap();
    let _ = fx();
    spfe::math::par::set_threads(Some(1));
    let server = local_server();
    let addr = server.local_addr().to_string();
    let names = [
        "xor2",
        "poly_it",
        "two_phase",
        "weighted_sum",
        "xor2",
        "frequency",
    ];
    let handles: Vec<_> = names
        .iter()
        .map(|name| {
            let addr = addr.clone();
            let name = (*name).to_owned();
            std::thread::spawn(move || {
                let run = run_driver(&addr, &name, Some(std::time::Duration::from_secs(30)))
                    .expect("concurrent run");
                (name, run.digest)
            })
        })
        .collect();
    let table = drivers();
    for h in handles {
        let (name, digest) = h.join().expect("session thread");
        let d = table.iter().find(|d| d.name == name).unwrap();
        assert_eq!(digest, d.expect, "[{name}] concurrent session digest");
    }
    spfe::math::par::set_threads(None);
}
