//! The service-health gate: turn `spfe-metrics/v2` snapshots into CI
//! verdicts (`spfe-tables serve-report`).
//!
//! Two modes, mirroring the cost-trend gate in [`crate::trend`]:
//!
//! * **Health** ([`check_health`]) — one snapshot, absolute rules: no
//!   failed sessions, nonzero traffic, and the registry's internal
//!   invariants intact (`opened == completed + failed + active`, every
//!   driver row summing up). This is what CI runs against the snapshot
//!   scraped after the networked smoke stage, replacing fragile greps
//!   over the server's stdout.
//! * **Drift** ([`compare_snapshots`]) — two snapshots of the *same*
//!   server run (e.g. mid-run and at shutdown): every monotonic counter
//!   must be non-decreasing (a counter going backwards means the scrapes
//!   are from different processes — a meaningless comparison the gate
//!   rejects loudly), and any *growth* in a failure counter pinpoints
//!   exactly which [`FailureKind`] fired in the window.
//!
//! Wall-clock histograms are deliberately not gated — latency varies run
//! to run; the deterministic session/byte counters are the gate surface,
//! same philosophy as the trend gate's exclusion of elapsed times.

use spfe_obs::metrics::{FailureKind, MetricsSnapshot};

/// One counter comparison from [`compare_snapshots`], flagged or not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeDelta {
    /// Counter name (`sessions_opened`, `failure:io`, `bytes_in`, …).
    pub metric: String,
    /// Value in the earlier snapshot.
    pub baseline: u64,
    /// Value in the later snapshot.
    pub current: u64,
    /// Whether this comparison violated a gate rule.
    pub flagged: bool,
}

/// Outcome of a health check or a snapshot comparison.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServeReport {
    /// Every comparison performed (empty for a plain health check).
    pub deltas: Vec<ServeDelta>,
    /// Human-readable rule violations; empty means the gate passes.
    pub violations: Vec<String>,
}

impl ServeReport {
    /// Whether the gate passes (no violations).
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Absolute health rules over one snapshot: every failure counter zero,
/// nonzero traffic, and the registry invariants intact. A snapshot with
/// zero opened sessions fails the traffic rule — a health gate that ran
/// before any session is not evidence of a working service.
pub fn check_health(snap: &MetricsSnapshot) -> ServeReport {
    let mut report = ServeReport::default();
    for kind in FailureKind::ALL {
        let n = snap.failure(kind);
        if n > 0 {
            report
                .violations
                .push(format!("{} session(s) failed with `{}`", n, kind.name()));
        }
    }
    if snap.sessions_opened == 0 {
        report
            .violations
            .push("no sessions served — nothing to attest".into());
    }
    if snap.bytes_total() == 0 {
        report
            .violations
            .push("no payload bytes transferred — sessions carried no traffic".into());
    }
    let settled = snap.sessions_completed + snap.sessions_failed() + snap.sessions_active;
    if snap.sessions_opened != settled {
        report.violations.push(format!(
            "registry invariant broken: opened={} but completed+failed+active={}",
            snap.sessions_opened, settled
        ));
    }
    for d in &snap.drivers {
        if d.sessions != d.completed + d.failed {
            report.violations.push(format!(
                "driver {}: {} session(s) but completed+failed={}",
                d.driver,
                d.sessions,
                d.completed + d.failed
            ));
        }
    }
    report
}

/// The monotonic counters of a snapshot, in a stable report order.
fn counters(snap: &MetricsSnapshot) -> Vec<(String, u64)> {
    let mut out = vec![
        ("sessions_opened".to_owned(), snap.sessions_opened),
        ("sessions_completed".to_owned(), snap.sessions_completed),
        ("stats_probes".to_owned(), snap.stats_probes),
        ("bytes_in".to_owned(), snap.bytes_in),
        ("bytes_out".to_owned(), snap.bytes_out),
    ];
    for kind in FailureKind::ALL {
        out.push((format!("failure:{}", kind.name()), snap.failure(kind)));
    }
    for d in &snap.drivers {
        let key = format!("driver:{}", d.driver);
        out.push((format!("{key}:sessions"), d.sessions));
        out.push((format!("{key}:failed"), d.failed));
        out.push((format!("{key}:bytes"), d.bytes_in + d.bytes_out));
    }
    out
}

/// Compares a later snapshot against an earlier one of the same server
/// run. Flags any monotonic counter that went backwards (the scrapes
/// cannot be from one run) and any failure counter that *grew* (failures
/// happened inside the window, attributed by kind and driver).
///
/// # Errors
///
/// When the later snapshot's uptime is below the baseline's — scrapes
/// from different processes compare nothing meaningful.
pub fn compare_snapshots(
    baseline: &MetricsSnapshot,
    current: &MetricsSnapshot,
) -> Result<ServeReport, String> {
    if current.uptime_micros < baseline.uptime_micros {
        return Err(format!(
            "current snapshot is younger than the baseline ({} µs < {} µs) — \
             not two scrapes of one server run",
            current.uptime_micros, baseline.uptime_micros
        ));
    }
    let mut report = ServeReport::default();
    let cur: Vec<(String, u64)> = counters(current);
    for (metric, base_value) in counters(baseline) {
        let cur_value = cur
            .iter()
            .find(|(m, _)| *m == metric)
            .map_or(0, |&(_, v)| v);
        let shrank = cur_value < base_value;
        let failure_grew = (metric.starts_with("failure:") || metric.ends_with(":failed"))
            && cur_value > base_value;
        if shrank {
            report.violations.push(format!(
                "{metric} went backwards ({base_value} → {cur_value}) — \
                 snapshots are not from the same server run"
            ));
        }
        if failure_grew {
            report.violations.push(format!(
                "{metric} grew {base_value} → {cur_value} inside the window"
            ));
        }
        report.deltas.push(ServeDelta {
            metric,
            baseline: base_value,
            current: cur_value,
            flagged: shrank || failure_grew,
        });
    }
    // Drivers only present in the later snapshot are new work, not drift;
    // record them so the report stays complete.
    for (metric, cur_value) in cur {
        if !report.deltas.iter().any(|d| d.metric == metric) {
            report.deltas.push(ServeDelta {
                metric,
                baseline: 0,
                current: cur_value,
                flagged: false,
            });
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spfe_obs::metrics::{Metrics, SessionUsage};

    fn usage(bytes_in: u64, bytes_out: u64) -> SessionUsage {
        SessionUsage {
            bytes_in,
            bytes_out,
            half_rounds: 2,
            wall_micros: 100,
        }
    }

    fn serving_registry() -> Metrics {
        let m = Metrics::new();
        m.session_opened();
        m.session_closed("xor2", Ok(()), usage(64, 32));
        m
    }

    #[test]
    fn clean_traffic_passes_the_health_gate() {
        let report = check_health(&serving_registry().snapshot());
        assert!(report.ok(), "{report:?}");
    }

    #[test]
    fn each_failure_kind_fails_health_with_its_name() {
        let m = serving_registry();
        m.session_opened();
        m.session_closed(
            "hom_pir",
            Err(FailureKind::CodecReject),
            SessionUsage::default(),
        );
        let report = check_health(&m.snapshot());
        assert!(!report.ok());
        assert!(
            report.violations.iter().any(|v| v.contains("codec-reject")),
            "{report:?}"
        );
    }

    #[test]
    fn an_idle_server_is_not_healthy() {
        let report = check_health(&Metrics::new().snapshot());
        assert!(!report.ok(), "zero sessions must not attest health");
    }

    #[test]
    fn unchanged_snapshots_show_no_drift() {
        let snap = serving_registry().snapshot();
        let report = compare_snapshots(&snap, &snap).unwrap();
        assert!(report.ok(), "{report:?}");
        assert!(report.deltas.iter().all(|d| !d.flagged));
    }

    #[test]
    fn failure_growth_inside_the_window_flags_the_kind() {
        let m = serving_registry();
        let before = m.snapshot();
        m.session_opened();
        m.session_closed(
            "xor2",
            Err(FailureKind::TransferTimeout),
            SessionUsage::default(),
        );
        let report = compare_snapshots(&before, &m.snapshot()).unwrap();
        assert!(!report.ok());
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("failure:transfer-timeout")),
            "{report:?}"
        );
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("driver:xor2:failed")),
            "{report:?}"
        );
    }

    #[test]
    fn session_growth_inside_the_window_is_not_drift() {
        let m = serving_registry();
        let before = m.snapshot();
        m.session_opened();
        m.session_closed("hom_pir", Ok(()), usage(128, 0));
        let report = compare_snapshots(&before, &m.snapshot()).unwrap();
        assert!(report.ok(), "{report:?}");
        let opened = report
            .deltas
            .iter()
            .find(|d| d.metric == "sessions_opened")
            .unwrap();
        assert_eq!((opened.baseline, opened.current), (1, 2));
    }

    #[test]
    fn a_backwards_counter_flags_mismatched_runs() {
        let m = serving_registry();
        let grown = m.snapshot();
        let fresh = serving_registry();
        fresh.session_opened();
        fresh.session_closed("xor2", Ok(()), usage(1, 0));
        // Pretend the fresh registry's extra session existed first, then
        // "compare" against the original single-session snapshot: the
        // opened counter appears to go backwards.
        let mut older = fresh.snapshot();
        older.uptime_micros = grown.uptime_micros;
        let report = compare_snapshots(&older, &grown).unwrap();
        assert!(!report.ok());
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("went backwards")),
            "{report:?}"
        );
    }

    #[test]
    fn younger_current_snapshot_is_rejected() {
        let snap = serving_registry().snapshot();
        let mut younger = snap.clone();
        younger.uptime_micros = snap.uptime_micros.saturating_sub(1_000_000);
        let mut older = snap;
        older.uptime_micros += 1_000_000;
        assert!(compare_snapshots(&older, &younger).is_err());
    }
}
