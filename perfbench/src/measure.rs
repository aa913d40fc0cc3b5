//! Order statistics and the process readings (`/proc`) the benchmark
//! takes from outside the program: CPU time, peak RSS, thread count.

use std::time::Duration;

/// Median of `xs` (mean of the middle pair for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `xs`; 0 when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Milliseconds in `d`, with all its digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Linux reports `/proc/<pid>/stat` CPU times in USER_HZ ticks, which
/// the kernel fixes at 100 per second for user space.
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU time of process `pid` ("self" for this process),
/// in milliseconds. Includes every thread the process ever ran.
pub fn cpu_ms(pid: &str) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may contain spaces; fields restart after its ')'.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line (1-based),
    // i.e. 11 and 12 after the pid and the command name.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_S * 1e3)
}

/// One `kB` field of `/proc/<pid>/status` (e.g. `VmHWM`), in MiB.
pub fn status_mb(pid: &str, field: &str) -> Option<f64> {
    status_field(pid, field).map(|kb| kb / 1024.0)
}

/// The `Threads` count in `/proc/<pid>/status`.
pub fn threads(pid: &str) -> Option<f64> {
    status_field(pid, "Threads")
}

fn status_field(pid: &str, field: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status.lines().find_map(|line| {
        let (key, value) = line.split_once(':')?;
        if key != field {
            return None;
        }
        value.split_whitespace().next()?.parse().ok()
    })
}

/// A 64-bit mixer (splitmix64 finalizer): derives independent per-session
/// seeds from the workload seed.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b)
        .wrapping_add(0x6A09_E667_F3BC_C909);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(median(&xs[..4]), 2.5);
        assert_eq!(percentile(&xs, 50.0), 3.0);
        assert_eq!(percentile(&xs, 99.0), 5.0);
        assert_eq!(percentile(&xs, 1.0), 1.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn proc_readings_exist_for_self() {
        assert!(cpu_ms("self").is_some());
        assert!(status_mb("self", "VmHWM").unwrap() > 0.0);
        assert!(threads("self").unwrap() >= 1.0);
    }
}
