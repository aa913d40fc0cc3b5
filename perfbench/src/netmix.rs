//! The networked layer: an `spfe-server` child process on loopback and
//! the closed-loop clients that drive all 13 harness drivers against it
//! through `spfe_net::run_driver`.

use crate::measure::{self, mix};
use crate::recorder;
use crate::Session;
use spfe::harness::{self, Driver};
use spfe_obs::metrics::parse_snapshot;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Per-session socket deadline: generous, so only a hung peer trips it.
const DEADLINE: Duration = Duration::from_secs(30);

/// Sessions of each driver in one round of a client's mix.
pub const SESSIONS_PER_DRIVER: usize = 1;

/// A running `spfe-server` child; killed if dropped without
/// [`ServerProc::shutdown`].
pub struct ServerProc {
    child: Option<Child>,
    stdout: Option<BufReader<ChildStdout>>,
    /// The `host:port` it listens on.
    pub addr: String,
    /// Its process id, as `/proc` names it.
    pub pid: String,
    /// When it was spawned (its trace journal starts right after).
    pub spawned: Instant,
}

impl ServerProc {
    /// Spawns `bin` on an ephemeral loopback port and waits until it
    /// prints its address; with `trace`, the server writes its journal
    /// there at shutdown.
    pub fn spawn(bin: &Path, trace: Option<&Path>) -> Result<ServerProc, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["--addr", "127.0.0.1", "--port", "0"]);
        if let Some(path) = trace {
            cmd.arg("--trace").arg(path);
        }
        let spawned = Instant::now();
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let pid = child.id().to_string();
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut server = ServerProc {
            child: Some(child),
            stdout: None,
            addr: String::new(),
            pid,
            spawned,
        };
        let mut line = String::new();
        stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading the server address: {e}"))?;
        server.addr = line
            .trim()
            .strip_prefix("listening on ")
            .ok_or_else(|| format!("unexpected server greeting {line:?}"))?
            .to_owned();
        server.stdout = Some(stdout);
        Ok(server)
    }

    /// Peak resident set size so far, in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        measure::status_mb(&self.pid, "VmHWM")
    }

    /// CPU time so far, in milliseconds.
    pub fn cpu_ms(&self) -> Option<f64> {
        measure::cpu_ms(&self.pid)
    }

    /// Asks the server to quit and waits for it to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut child = self.child.take().expect("shutdown runs once");
        if let Some(mut stdin) = child.stdin.take() {
            // A server that already exited has closed the pipe; the exit
            // status below reports it.
            let _ = stdin.write_all(b"quit\n");
        }
        // Drain its final counter lines so it never blocks on a full pipe.
        if let Some(mut stdout) = self.stdout.take() {
            let _ = stdout.read_to_string(&mut String::new());
        }
        let status = child
            .wait()
            .map_err(|e| format!("waiting for the server: {e}"))?;
        if !status.success() {
            return Err(format!("spfe-server exited with {status}"));
        }
        Ok(())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Runs one session of `d` over TCP and checks its digest.
pub fn session(addr: &str, d: &Driver, parent: u64) -> Session {
    let span = recorder::span(&format!("session:{}", d.name), parent);
    let start = Instant::now();
    let run = {
        let _call = recorder::span("spfe_net::run_driver", span.id());
        spfe_net::run_driver(addr, d.name, Some(DEADLINE))
    };
    let ms = measure::ms(start.elapsed());
    match run {
        Ok(run) => {
            let report = run.transcript.report();
            Session {
                ms,
                completed: true,
                correct: run.digest == d.expect,
                up: report.client_to_server,
                down: report.server_to_client,
                half_rounds: u64::from(report.half_rounds),
                messages: report.messages,
                driver: d.name,
            }
        }
        Err(_) => Session::failed(ms, d.name),
    }
}

/// When a client stops: after a number of whole rounds, or at the first
/// round boundary past a deadline.
#[derive(Clone, Copy)]
pub enum Budget {
    /// Exactly this many rounds.
    Rounds(u64),
    /// Whole rounds until this instant has passed.
    Until(Instant),
}

impl Budget {
    /// Whether a client that has run `rounds` rounds stops now.
    pub fn spent(self, rounds: u64) -> bool {
        match self {
            Budget::Rounds(n) => rounds >= n,
            Budget::Until(t) => rounds > 0 && Instant::now() >= t,
        }
    }
}

/// The closed loop: `clients` threads, each running whole rounds of
/// every driver ([`SESSIONS_PER_DRIVER`] sessions each) in an order
/// shuffled from `seed`, client and round, until `budget` is spent.
/// Stopping only at round boundaries keeps the driver mix, and so every
/// per-session count and byte figure, exactly the same in every run.
pub fn run_mix(addr: &str, seed: u64, clients: usize, budget: Budget) -> Vec<Session> {
    let drivers = harness::drivers();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients as u64)
            .map(|c| {
                let drivers = &drivers;
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut round = 0;
                    while !budget.spent(round) {
                        let span = recorder::span("round", 0);
                        for i in round_order(seed, c, round, drivers.len()) {
                            out.push(session(addr, &drivers[i], span.id()));
                        }
                        round += 1;
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// The driver indices of one round, each [`SESSIONS_PER_DRIVER`] times,
/// in a Fisher–Yates order drawn from `(seed, client, round)`.
fn round_order(seed: u64, client: u64, round: u64, drivers: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..drivers * SESSIONS_PER_DRIVER)
        .map(|i| i % drivers)
        .collect();
    let mut state = mix(mix(seed, client), round);
    for i in (1..order.len()).rev() {
        state = mix(state, i as u64);
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
    order
}

/// Scrapes the server until no session is in flight, then checks that
/// its completed and failed counters equal the client's own counts.
pub fn reconcile(addr: &str, completed: u64, failed: u64) -> Result<(), String> {
    let give_up = Instant::now() + Duration::from_secs(20);
    loop {
        let snap = {
            let _call = recorder::span("spfe_net::fetch_stats", 0);
            spfe_net::fetch_stats(addr, false, Some(DEADLINE))
        }
        .map_err(|e| format!("scrape failed: {e}"))
        .and_then(|json| parse_snapshot(&json))?;
        if snap.sessions_active == 0 {
            if snap.sessions_completed != completed || snap.sessions_failed() != failed {
                return Err(format!(
                    "server counted completed={} failed={}, client counted completed={completed} failed={failed}",
                    snap.sessions_completed,
                    snap.sessions_failed()
                ));
            }
            return Ok(());
        }
        if Instant::now() > give_up {
            return Err(format!(
                "server still reports {} active sessions",
                snap.sessions_active
            ));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Samples the thread count of process `pid` every few milliseconds
/// while `f` runs; returns `f`'s result and the peak seen.
pub fn with_thread_peak<T>(pid: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut peak = 0.0f64;
            while !stop.load(Ordering::Relaxed) {
                peak = peak.max(measure::threads(pid).unwrap_or(0.0));
                std::thread::sleep(Duration::from_millis(2));
            }
            peak
        });
        let out = f();
        stop.store(true, Ordering::Relaxed);
        (out, sampler.join().expect("sampler thread panicked"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_hold_every_driver_and_follow_the_seed() {
        let a = round_order(7, 0, 3, 13);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        let expect: Vec<usize> = (0..13)
            .flat_map(|i| std::iter::repeat_n(i, SESSIONS_PER_DRIVER))
            .collect();
        assert_eq!(sorted, expect);
        assert_eq!(a, round_order(7, 0, 3, 13));
        assert_ne!(a, round_order(8, 0, 3, 13));
    }
}
