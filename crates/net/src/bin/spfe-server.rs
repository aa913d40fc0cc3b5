//! The SPFE session server binary.
//!
//! ```text
//! spfe-server [--addr HOST] [--port PORT] [--read-deadline-ms MS]
//!             [--metrics-json PATH] [--trace PATH]
//! ```
//!
//! Binds `HOST:PORT` (default `127.0.0.1:0` — an ephemeral port), prints
//! a single `listening on <addr>` line to stdout (the CI smoke stage
//! parses it), then serves sessions until stdin reaches EOF or a line
//! reading `quit` arrives, at which point it shuts down gracefully and
//! prints the session counters (with a per-kind failure breakdown when
//! anything failed). Shutdown first waits, for at most one read deadline,
//! until no session is in flight, so the final counters, snapshot and
//! trace include every session served. With `--metrics-json PATH` the final
//! `spfe-metrics/v2` snapshot is also written to `PATH` — the artifact
//! CI uploads. Set `SPFE_LOG=1` for per-session JSONL logs on stderr;
//! a live snapshot is always scrapeable via `spfe-client stats`.
//!
//! `--trace PATH` turns the server's trace journal on for the process
//! lifetime and writes it as a Perfetto JSON timeline at shutdown: one
//! span per served session tagged `(session, driver)` plus a
//! Lamport-stamped instant per wire send/receive (DESIGN.md §17). Merge
//! it with a client capture via `spfe-tables net-trace`.

use spfe_net::{Server, ServerConfig};
use spfe_obs::metrics::FailureKind;
use std::io::BufRead;
use std::time::{Duration, Instant};

/// The default `--read-deadline-ms`; also bounds the shutdown wait when
/// the read deadline is off, so a stalled client cannot hold it forever.
const DEFAULT_DEADLINE_MS: u64 = 30_000;

fn usage() -> ! {
    eprintln!(
        "usage: spfe-server [--addr HOST] [--port PORT] [--read-deadline-ms MS] \
         [--metrics-json PATH] [--trace PATH]"
    );
    std::process::exit(2);
}

fn main() {
    let mut host = "127.0.0.1".to_owned();
    let mut port = 0u16;
    let mut deadline_ms = DEFAULT_DEADLINE_MS;
    let mut metrics_json: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| args.get(i + 1).cloned().unwrap_or_else(|| usage());
        match args[i].as_str() {
            "--addr" => {
                host = value(i);
                i += 2;
            }
            "--port" => {
                port = value(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--read-deadline-ms" => {
                deadline_ms = value(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--metrics-json" => {
                metrics_json = Some(value(i));
                i += 2;
            }
            "--trace" => {
                trace_path = Some(value(i));
                i += 2;
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    if trace_path.is_some() {
        spfe_obs::trace::set_tracing(true);
    }
    let config = ServerConfig {
        read_deadline: (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms)),
        inject_panic_driver: None,
    };
    let mut server = match Server::bind(&format!("{host}:{port}"), config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("spfe-server: bind failed: {e}");
            std::process::exit(1);
        }
    };
    println!("listening on {}", server.local_addr());
    // Serve until the controller closes stdin or says quit. This keeps
    // shutdown portable (no signal handling) and scriptable from CI.
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        match line {
            Ok(l) if l.trim() == "quit" => break,
            Ok(_) => {}
            Err(_) => break,
        }
    }
    server.shutdown();
    // `shutdown` joins only the accept loop: let the in-flight session
    // threads settle before the final snapshot is taken.
    let grace = Duration::from_millis(if deadline_ms > 0 {
        deadline_ms
    } else {
        DEFAULT_DEADLINE_MS
    });
    let start = Instant::now();
    let metrics = server.metrics();
    while metrics.sessions_active() > 0 && start.elapsed() < grace {
        std::thread::sleep(Duration::from_millis(5));
    }
    let snapshot = server.snapshot();
    println!(
        "sessions opened={} completed={} failed={}",
        snapshot.sessions_opened,
        snapshot.sessions_completed,
        snapshot.sessions_failed()
    );
    if snapshot.sessions_failed() > 0 {
        let breakdown: Vec<String> = FailureKind::ALL
            .iter()
            .filter(|k| snapshot.failure(**k) > 0)
            .map(|k| format!("{}={}", k.name(), snapshot.failure(*k)))
            .collect();
        println!("failures {}", breakdown.join(" "));
    }
    if let Some(path) = metrics_json {
        if let Err(e) = std::fs::write(&path, snapshot.to_json()) {
            eprintln!("spfe-server: writing {path} failed: {e}");
            std::process::exit(1);
        }
    }
    if let Some(path) = trace_path {
        // A session flushes its journal before it counts as settled, so
        // every session the wait above saw settle is in the sink.
        let trace = spfe_obs::trace::take();
        if let Err(e) = std::fs::write(&path, spfe_obs::export::perfetto_json(&trace)) {
            eprintln!("spfe-server: writing {path} failed: {e}");
            std::process::exit(1);
        }
    }
}
