//! Snapshot consistency of the metrics registry under concurrent session
//! churn: a poller must never observe session counters that disagree
//! with the per-driver rows, however the closes interleave.

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
                if rows != settled || snap.sessions_opened != settled + snap.sessions_active {
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
                    metrics.session_closed(&driver, "compute", outcome, SessionUsage::default());
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
}
