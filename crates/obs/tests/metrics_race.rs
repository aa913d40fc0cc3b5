//! Snapshot consistency of the metrics registry under concurrent session
//! churn: a poller must never observe session counters or byte totals
//! that disagree with the per-driver rows, however the closes interleave.

use spfe_obs::metrics::{FailureKind, Metrics, SessionUsage};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const THREADS: usize = 4;
const PAIRS: usize = 200_000;

#[test]
fn snapshots_stay_consistent_while_sessions_close_concurrently() {
    let metrics = Arc::new(Metrics::new());
    let done = Arc::new(AtomicBool::new(false));
    let poller = {
        let (metrics, done) = (Arc::clone(&metrics), Arc::clone(&done));
        std::thread::spawn(move || {
            let (mut snapshots, mut inconsistent) = (0u64, 0u64);
            while !done.load(Ordering::Acquire) {
                let snap = metrics.snapshot();
                let rows: u64 = snap.drivers.iter().map(|d| d.sessions).sum();
                let settled = snap.sessions_completed + snap.sessions_failed();
                let bytes_in: u64 = snap.drivers.iter().map(|d| d.bytes_in).sum();
                let bytes_out: u64 = snap.drivers.iter().map(|d| d.bytes_out).sum();
                if rows != settled
                    || snap.sessions_opened != settled + snap.sessions_active
                    || (snap.bytes_in, snap.bytes_out) != (bytes_in, bytes_out)
                {
                    inconsistent += 1;
                }
                snapshots += 1;
            }
            (snapshots, inconsistent)
        })
    };
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let metrics = Arc::clone(&metrics);
            std::thread::spawn(move || {
                let driver = format!("driver{t}");
                for i in 0..PAIRS {
                    metrics.session_opened();
                    let outcome = if i % 7 == 0 {
                        Err(FailureKind::ProtocolError)
                    } else {
                        Ok(())
                    };
                    let usage = SessionUsage {
                        bytes_in: 3 + (i % 5) as u64,
                        bytes_out: 1 + t as u64,
                        half_rounds: 2,
                        wall_micros: 1,
                    };
                    metrics.session_closed(&driver, outcome, usage);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker");
    }
    done.store(true, Ordering::Release);
    let (snapshots, inconsistent) = poller.join().expect("poller");
    assert!(snapshots > 0, "the poller never ran");
    assert_eq!(
        inconsistent, 0,
        "{inconsistent} of {snapshots} snapshots disagreed with the per-driver rows"
    );
    let last = metrics.snapshot();
    let total = (THREADS * PAIRS) as u64;
    assert_eq!(last.sessions_opened, total);
    assert_eq!(last.sessions_completed + last.sessions_failed(), total);
    assert_eq!(last.sessions_active, 0);
    let bytes_in: u64 = (0..PAIRS).map(|i| 3 + (i % 5) as u64).sum();
    let bytes_out: u64 = (0..THREADS).map(|t| (1 + t as u64) * PAIRS as u64).sum();
    assert_eq!(
        (last.bytes_in, last.bytes_out),
        (THREADS as u64 * bytes_in, bytes_out)
    );
}
