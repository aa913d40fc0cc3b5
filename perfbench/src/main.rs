//! The SPFE benchmark: end-to-end and per-layer metrics for three
//! workloads, measured from outside the program by timing calls into its
//! public functions. See `README.md` in this directory.
//!
//! ```text
//! perfbench --workload net-mix|stats-toy|stats-deploy --seed N --seconds S
//!           --trace 0|1 --server-bin PATH --out DIR [--commit ID]
//! ```
//!
//! Prints a run record line, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`.

mod layers;
mod measure;
mod netmix;
mod recorder;
mod statsq;

use netmix::{Budget, ServerProc};
use spfe::harness;
use spfe_obs::{Op, OpsSnapshot};
use statsq::{Keys, Profile, Query};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The measured loop runs in this many equal segments. The run sets up
/// (for the median `setup_s`) before the first, between any two and after
/// the last, so the set-up samples spread over the whole run instead of
/// all falling in one phase of the host's speed, which drifts over
/// seconds.
const SEGMENTS: u32 = 5;

/// In-memory runs per driver for `core.inmem_ms.*`.
const INMEM_RUNS: usize = 9;

/// Rounds each client runs in the TCP probe of the stats workloads.
const PROBE_ROUNDS: u64 = 4;

/// One measured session, from the client's side.
#[derive(Debug, Clone)]
pub struct Session {
    /// Wall time of the public call, in ms.
    pub ms: f64,
    /// The call returned (the server side of it completed).
    pub completed: bool,
    /// It returned the right answer.
    pub correct: bool,
    /// Client → server payload bytes.
    pub up: u64,
    /// Server → client payload bytes.
    pub down: u64,
    /// Half-rounds.
    pub half_rounds: u64,
    /// Protocol messages.
    pub messages: u64,
    /// Harness driver name.
    pub driver: &'static str,
}

impl Session {
    /// A session whose call returned an error.
    pub fn failed(ms: f64, driver: &'static str) -> Session {
        Session {
            ms,
            completed: false,
            correct: false,
            up: 0,
            down: 0,
            half_rounds: 0,
            messages: 0,
            driver,
        }
    }
}

/// Named metrics in output order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Appends `name = value unit`.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_owned(), value, unit));
    }

    fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    NetMix,
    Stats(Profile),
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "net-mix" => Some(Workload::NetMix),
            "stats-toy" => Some(Workload::Stats(Profile::Toy)),
            "stats-deploy" => Some(Workload::Stats(Profile::Deploy)),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::NetMix => "net-mix",
            Workload::Stats(Profile::Toy) => "stats-toy",
            Workload::Stats(Profile::Deploy) => "stats-deploy",
        }
    }

    /// The key profile its sessions run at.
    fn profile(self) -> Profile {
        match self {
            Workload::NetMix => Profile::Toy,
            Workload::Stats(p) => p,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    server_bin: PathBuf,
    out: PathBuf,
    commit: String,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload net-mix|stats-toy|stats-deploy --seed N --seconds S \
         --trace 0|1 --server-bin PATH --out DIR [--commit ID]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .cloned()
    };
    let need = |flag: &str| get(flag).unwrap_or_else(|| usage());
    Args {
        workload: Workload::parse(&need("--workload")).unwrap_or_else(|| usage()),
        seed: need("--seed").parse().unwrap_or_else(|_| usage()),
        seconds: need("--seconds")
            .parse()
            .ok()
            .filter(|&s| s > 0)
            .unwrap_or_else(|| usage()),
        trace: match need("--trace").as_str() {
            "0" => false,
            "1" => true,
            _ => usage(),
        },
        server_bin: PathBuf::from(need("--server-bin")),
        out: PathBuf::from(need("--out")),
        commit: get("--commit").unwrap_or_else(|| "unknown".to_owned()),
    }
}

/// What a run ends with: the verdict line's fields.
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Metrics,
    /// Extra run-record fields, as JSON members.
    record: Vec<String>,
}

fn main() {
    let args = parse_args();
    let outcome = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let mut record = vec![
        format!("\"workload\": \"{}\"", args.workload.name()),
        format!("\"seed\": {}", args.seed),
        format!("\"seconds\": {}", args.seconds),
        format!("\"trace\": {}", args.trace),
        format!("\"profile\": \"{}\"", args.workload.profile().name()),
        format!("\"nproc\": {}", nproc()),
        format!("\"par_threads\": {}", spfe_math::par::threads()),
        "\"transport\": \"loopback-tcp\"".to_owned(),
        format!("\"commit\": \"{}\"", args.commit),
    ];
    record.extend(outcome.record);
    println!("{{\"run_record\": {{{}}}}}", record.join(", "));
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        outcome.metrics.to_json()
    );
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Client threads of the networked loop: two, but never more than cores.
fn clients() -> usize {
    nproc().min(2)
}

/// A set-up system, ready for measured sessions.
enum System {
    Net {
        server: ServerProc,
        /// Sessions the warm-up round completed on `server`.
        warm: u64,
    },
    Stats(Query),
}

impl System {
    /// Sets up `workload`: the server process and the client fixture,
    /// warmed by one session of every driver, or the query's keys and
    /// database. Returns the system and the seconds it took.
    /// With `journal`, the server writes its trace journal there.
    fn setup(w: Workload, args: &Args, journal: Option<&Path>) -> Result<(System, f64), String> {
        let t = Instant::now();
        let system = match w {
            Workload::NetMix => {
                harness::fx();
                let server = ServerProc::spawn(&args.server_bin, journal)?;
                let warm = netmix::run_mix(&server.addr, args.seed, 1, Budget::Rounds(1));
                if let Some(bad) = warm.iter().find(|s| !s.correct) {
                    return Err(format!("warm-up session of {} failed", bad.driver));
                }
                System::Net {
                    server,
                    warm: warm.len() as u64,
                }
            }
            Workload::Stats(p) => System::Stats(Query::setup(p, args.seed)),
        };
        Ok((system, t.elapsed().as_secs_f64()))
    }
}

/// The result of one closed-loop measurement.
struct Loop {
    sessions: Vec<Session>,
    wall: Duration,
    /// Benchmark-process CPU ms over the loop.
    client_cpu_ms: f64,
    /// Server-process CPU ms over the loop (0 without a server).
    server_cpu_ms: f64,
    /// Peak server thread count, when sampled.
    server_threads: f64,
    /// Op-counter deltas over the loop.
    ops: Vec<(Op, u64)>,
    spans: Vec<spfe_obs::SpanStat>,
}

impl Loop {
    /// One loop made of consecutive segments: their sessions, and the
    /// sums of their times and counts.
    fn join(parts: Vec<Loop>) -> Loop {
        let mut all = Loop {
            sessions: Vec::new(),
            wall: Duration::ZERO,
            client_cpu_ms: 0.0,
            server_cpu_ms: 0.0,
            server_threads: 0.0,
            ops: Op::ALL.iter().map(|&op| (op, 0)).collect(),
            spans: Vec::new(),
        };
        for part in parts {
            all.sessions.extend(part.sessions);
            all.wall += part.wall;
            all.client_cpu_ms += part.client_cpu_ms;
            all.server_cpu_ms += part.server_cpu_ms;
            all.server_threads = all.server_threads.max(part.server_threads);
            for (total, (_, n)) in all.ops.iter_mut().zip(part.ops) {
                total.1 += n;
            }
            all.spans.extend(part.spans);
        }
        all
    }

    /// Sessions that errored or answered wrong.
    fn failed(&self) -> usize {
        self.sessions.iter().filter(|s| !s.correct).count()
    }

    /// Whether every session that returned an answer answered right.
    fn answers_right(&self) -> bool {
        self.sessions.iter().all(|s| !s.completed || s.correct)
    }

    fn p50(&self) -> f64 {
        measure::median(&self.latencies())
    }

    fn latencies(&self) -> Vec<f64> {
        self.sessions.iter().map(|s| s.ms).collect()
    }

    fn per_session(&self, total: f64) -> f64 {
        total / self.sessions.len().max(1) as f64
    }

    fn sum(&self, f: impl Fn(&Session) -> u64) -> f64 {
        self.sessions.iter().map(f).sum::<u64>() as f64
    }

    /// The server's completed and failed counts the loop should produce.
    fn counts(&self) -> (u64, u64) {
        let completed = self.sessions.iter().filter(|s| s.completed).count() as u64;
        (completed, self.sessions.len() as u64 - completed)
    }
}

/// Runs the closed loop on `system` until `budget` is spent (a stats
/// round is one session), reading CPU time, op counters and the
/// program's phase spans around it.
fn measure_loop(system: &System, seed: u64, budget: Budget, sample_threads: bool) -> Loop {
    spfe_obs::reset();
    let ops0 = spfe_obs::ops_snapshot();
    let cpu0 = measure::cpu_ms("self").unwrap_or(0.0);
    let start = Instant::now();
    let (sessions, server_cpu_ms, server_threads) = match system {
        System::Net { server, .. } => {
            let scpu0 = server.cpu_ms().unwrap_or(0.0);
            let run = || netmix::run_mix(&server.addr, seed, clients(), budget);
            let (sessions, peak) = if sample_threads {
                netmix::with_thread_peak(&server.pid, run)
            } else {
                (run(), 0.0)
            };
            (sessions, server.cpu_ms().unwrap_or(0.0) - scpu0, peak)
        }
        System::Stats(q) => {
            let mut sessions = Vec::new();
            while !budget.spent(sessions.len() as u64) {
                sessions.push(q.session(sessions.len() as u64, 0));
            }
            (sessions, 0.0, 0.0)
        }
    };
    let wall = start.elapsed();
    Loop {
        sessions,
        wall,
        client_cpu_ms: measure::cpu_ms("self").unwrap_or(0.0) - cpu0,
        server_cpu_ms,
        server_threads,
        ops: delta(&ops0, &spfe_obs::ops_snapshot()),
        spans: spfe_obs::spans_snapshot(),
    }
}

fn delta(before: &OpsSnapshot, after: &OpsSnapshot) -> Vec<(Op, u64)> {
    Op::ALL
        .iter()
        .map(|&op| (op, after.get(op).saturating_sub(before.get(op))))
        .collect()
}

/// Peak RSS of the benchmark process plus the server's, in MiB.
fn peak_rss_mb(system: &System) -> f64 {
    let own = measure::status_mb("self", "VmHWM").unwrap_or(0.0);
    match system {
        System::Net { server, .. } => own + server.peak_rss_mb().unwrap_or(0.0),
        System::Stats(_) => own,
    }
}

/// Checks the server's scrape against the client's counts (after the
/// warm-up and `loops`), then shuts the server down.
fn settle(system: System, loops: &[&Loop]) -> Result<(), String> {
    if let System::Net { server, warm } = system {
        let (mut completed, mut failed) = (warm, 0);
        for l in loops {
            let (c, f) = l.counts();
            completed += c;
            failed += f;
        }
        let checked = netmix::reconcile(&server.addr, completed, failed);
        server.shutdown()?;
        checked?;
    }
    Ok(())
}

fn untraced(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let (system, first) = System::setup(w, args, None)?;
    let mut setup_times = vec![first];
    if let System::Stats(q) = &system {
        if !q.session(u64::MAX, 0).correct {
            return Err("warm-up query returned a wrong answer".to_owned());
        }
    }
    let segment = Duration::from_secs(args.seconds) / SEGMENTS;
    let mut parts = Vec::new();
    let mut settled = true;
    for _ in 0..SEGMENTS {
        let budget = Budget::Until(Instant::now() + segment);
        parts.push(measure_loop(&system, args.seed, budget, false));
        // A set-up of its own, torn down at once; the loop keeps `system`.
        let (extra, secs) = System::setup(w, args, None)?;
        setup_times.push(secs);
        settled &= report(settle(extra, &[]));
    }
    let l = Loop::join(parts);
    let rss = peak_rss_mb(&system);
    let mut m = Metrics::default();
    let n = l.sessions.len();
    let ok = n - l.failed();
    m.push("sessions_per_s", ok as f64 / l.wall.as_secs_f64(), "1/s");
    m.push("session_p50_ms", l.p50(), "ms");
    m.push(
        "session_p99_ms",
        measure::percentile(&l.latencies(), 99.0),
        "ms",
    );
    m.push(
        "cpu_ms_per_session",
        l.per_session(l.client_cpu_ms + l.server_cpu_ms),
        "ms",
    );
    m.push(
        "bytes_per_session",
        l.per_session(l.sum(|s| s.up + s.down)),
        "B",
    );
    m.push("ok_ratio", ok as f64 / n as f64, "ratio");
    m.push("peak_rss_mb", rss, "MiB");
    m.push("setup_s", measure::median(&setup_times), "s");
    settled &= report(settle(system, &[&l]));
    Ok(Outcome {
        correct: settled && l.answers_right(),
        attempted: n,
        failed: l.failed(),
        metrics: m,
        record: vec![
            format!("\"sessions\": {n}"),
            format!("\"wall_s\": {}", l.wall.as_secs_f64()),
            format!("\"clients\": {}", loop_clients(w)),
            format!("\"setups\": {}", setup_times.len()),
        ],
    })
}

fn loop_clients(w: Workload) -> usize {
    match w {
        Workload::NetMix => clients(),
        Workload::Stats(_) => 1,
    }
}

/// Per-session op counts, phase times and transport figures of loop `l`.
fn layer_counts(m: &mut Metrics, l: &Loop) {
    let per = |op: Op| {
        let n = l.ops.iter().find(|&&(o, _)| o == op).map_or(0, |&(_, n)| n);
        l.per_session(n as f64)
    };
    m.push("math.modexp", per(Op::Modexp), "count");
    m.push("math.pool_runs", per(Op::PoolRuns), "count");
    m.push("math.pool_steals", per(Op::PoolSteals), "count");
    for (name, op) in [
        ("crypto.paillier_encrypt", Op::PaillierEncrypt),
        ("crypto.paillier_decrypt", Op::PaillierDecrypt),
        ("crypto.hom_add", Op::HomAdd),
        ("crypto.hom_scalar_mul", Op::HomScalarMul),
        ("crypto.elgamal_encrypt", Op::ElGamalEncrypt),
        ("crypto.gm_encrypt", Op::GmEncrypt),
        ("ot.ot2_transfers", Op::Ot2Transfer),
        ("ot.otn_transfers", Op::OtnTransfer),
        ("pir.words_scanned", Op::PirWordsScanned),
    ] {
        m.push(name, per(op), "count");
    }
    // Top-level protocol phases (`<protocol>/<phase>`) on the client's
    // threads; nested sub-protocol phases are inside these already.
    let phase_ms = |phases: &[&str]| {
        let ns: u64 = l
            .spans
            .iter()
            .filter(|s| {
                let parts: Vec<&str> = s.path.split('/').collect();
                parts.len() == 2 && phases.contains(&parts[1])
            })
            .map(|s| s.ns)
            .sum();
        l.per_session(ns as f64 / 1e6)
    };
    m.push("core.query_gen_ms", phase_ms(&["query-gen"]), "ms");
    m.push(
        "core.server_eval_ms",
        phase_ms(&["server-eval", "server-scan"]),
        "ms",
    );
    m.push("core.reconstruct_ms", phase_ms(&["reconstruct"]), "ms");
    m.push("transport.bytes_up", l.per_session(l.sum(|s| s.up)), "B");
    m.push(
        "transport.bytes_down",
        l.per_session(l.sum(|s| s.down)),
        "B",
    );
    m.push(
        "transport.half_rounds",
        l.per_session(l.sum(|s| s.half_rounds)),
        "count",
    );
    m.push(
        "transport.frames_per_session",
        l.per_session(l.sum(|s| s.messages)),
        "count",
    );
}

/// `net.*`: per-driver TCP overhead over the in-memory median, and the
/// CPU and threads of the networked loop `l`.
fn net_metrics(m: &mut Metrics, l: &Loop, inmem: &[(&'static str, f64)]) {
    for (driver, inmem_p50) in inmem {
        let tcp: Vec<f64> = l
            .sessions
            .iter()
            .filter(|s| s.driver == *driver)
            .map(|s| s.ms)
            .collect();
        m.push(
            &format!("net.overhead_ms.{driver}"),
            measure::median(&tcp) - inmem_p50,
            "ms",
        );
    }
    m.push(
        "net.server_cpu_ms_per_session",
        l.per_session(l.server_cpu_ms),
        "ms",
    );
    m.push(
        "net.client_cpu_ms_per_session",
        l.per_session(l.client_cpu_ms),
        "ms",
    );
    m.push("net.server_threads_peak", l.server_threads, "count");
}

/// Prints a failed check; true when `r` is Ok.
fn report(r: Result<(), String>) -> bool {
    if let Err(e) = &r {
        eprintln!("perfbench: {e}");
    }
    r.is_ok()
}

fn traced(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let mut correct = true;
    let mut m = Metrics::default();

    // The run length is split between an untraced loop (A) and a traced
    // one (B), so a traced run measures as long as an untraced one.
    let half = Duration::from_secs(args.seconds) / 2;

    // A: the workload untraced — the per-session counts, and the
    // baseline for the trace overhead.
    let (system, _) = System::setup(w, args, None)?;
    if let System::Stats(q) = &system {
        correct &= q.session(u64::MAX, 0).correct;
    }
    let a = measure_loop(
        &system,
        args.seed,
        Budget::Until(Instant::now() + half),
        true,
    );
    correct &= a.answers_right();
    layer_counts(&mut m, &a);
    correct &= report(settle(system, &[&a]));

    // Probes, with the benchmark's spans on and the program's journal off.
    recorder::set_on(true);
    layers::math(&mut m);
    let own = Keys::generate(w.profile());
    for p in [Profile::Toy, Profile::Deploy] {
        if p == w.profile() {
            layers::crypto(&mut m, p, &own);
        } else {
            layers::crypto(&mut m, p, &Keys::generate(p));
        }
    }
    let (inmem, inmem_ok) = layers::inmem(&mut m, INMEM_RUNS);
    correct &= inmem_ok;
    match w {
        Workload::NetMix => net_metrics(&mut m, &a, &inmem),
        Workload::Stats(_) => {
            // The stats workloads have no network of their own: measure
            // the networked layer on a short run of the driver mix.
            let probe = net_probe(args)?;
            correct &= probe.failed() == 0;
            net_metrics(&mut m, &probe, &inmem);
        }
    }
    let par_query = match w {
        Workload::Stats(p) => Query::with_keys(p, own, args.seed),
        Workload::NetMix => Query::setup(Profile::Toy, args.seed),
    };
    correct &= layers::par_speedup(&mut m, &par_query);
    drop(par_query);

    // B: the workload again with the benchmark's spans and the program's
    // journals (this process's and the server's) on.
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("creating {}: {e}", args.out.display()))?;
    let server_journal = args
        .out
        .join(format!("server-journal-{}.json", std::process::id()));
    let (system, _) = System::setup(w, args, Some(&server_journal))?;
    let server_offset_us = match &system {
        System::Net { server, .. } => Some(micros_since_epoch(server.spawned)),
        System::Stats(_) => None,
    };
    let client_offset_us = micros_since_epoch(Instant::now());
    spfe_obs::trace::set_tracing(true);
    let b = measure_loop(
        &system,
        args.seed,
        Budget::Until(Instant::now() + half),
        false,
    );
    spfe_obs::trace::set_tracing(false);
    correct &= b.answers_right();
    correct &= report(settle(system, &[&b]));
    m.push(
        "obs.trace_overhead_pct",
        (b.p50() / a.p50() - 1.0) * 100.0,
        "%",
    );

    let mut journals = vec![recorder::Journal {
        pid: 2,
        name: "spfe client (benchmark process)",
        offset_us: client_offset_us,
        json: spfe_obs::export::perfetto_json(&spfe_obs::trace::take()),
    }];
    if let Some(offset_us) = server_offset_us {
        let json = std::fs::read_to_string(&server_journal)
            .map_err(|e| format!("reading the server journal: {e}"))?;
        let _ = std::fs::remove_file(&server_journal);
        journals.push(recorder::Journal {
            pid: 3,
            name: "spfe-server",
            offset_us,
            json,
        });
    }
    let spans = recorder::recorded();
    let trace_path = args
        .out
        .join(format!("trace-{}-seed{}.json", w.name(), args.seed));
    recorder::write_perfetto(&trace_path, &journals)
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
    eprintln!("perfbench: wrote {}", trace_path.display());

    let failed = a.failed() + b.failed();
    Ok(Outcome {
        correct,
        attempted: a.sessions.len() + b.sessions.len(),
        failed,
        metrics: m,
        record: vec![
            format!("\"sessions\": {}", a.sessions.len()),
            format!("\"traced_sessions\": {}", b.sessions.len()),
            format!("\"clients\": {}", loop_clients(w)),
            format!("\"benchmark_spans\": {spans}"),
            format!("\"perfetto\": \"{}\"", trace_path.display()),
        ],
    })
}

/// Where `t` sits on the benchmark's trace clock, in microseconds.
fn micros_since_epoch(t: Instant) -> f64 {
    t.saturating_duration_since(recorder::epoch()).as_secs_f64() * 1e6
}

/// A short run of the driver mix against a fresh server, for the
/// networked-layer metrics of workloads without a network of their own.
fn net_probe(args: &Args) -> Result<Loop, String> {
    let (system, _) = System::setup(Workload::NetMix, args, None)?;
    let probe = measure_loop(&system, args.seed, Budget::Rounds(PROBE_ROUNDS), true);
    settle(system, &[&probe])?;
    Ok(probe)
}
