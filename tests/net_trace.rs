//! Distributed session tracing (DESIGN.md §17).
//!
//! Three layers of the causal-clock design are held here:
//!
//! * [`pump`] stamps every logical delivery exactly once — under the two
//!   audit mask seeds the retried deliveries reuse their stamps, so the
//!   Lamport sequence is identical to the honest run's.
//! * [`run_core`] absorbs `TraceCtx` frames transparently (nothing
//!   metered) and merges the carried stamp into its own clock, so every
//!   receive stamp lands strictly after the matching send.
//! * A genuine loopback-TCP run — two drivers, at `SPFE_THREADS` 1 and 4
//!   — yields client and server journals that `spfe_bench::nettrace`
//!   merges into one causally consistent timeline: the cross-process
//!   gate the CI smoke stage also runs over the real binaries.

mod common;
use common::*;

use spfe::transport::{pump, FaultAction, FaultPlan, FaultyChannel, Frame, FrameKind, Wire};
use spfe_bench::nettrace;
use spfe_net::{run_core, run_driver, Server, ServerConfig};
use spfe_obs::trace::{self, EventKind, Trace};
use std::io::{Read, Write};
use std::sync::Mutex;

/// The trace journal is process-global; every test here captures it and
/// therefore serializes on this lock.
static LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` with the journal on and returns what it recorded.
fn captured(f: impl FnOnce()) -> Trace {
    trace::reset();
    trace::set_tracing(true);
    f();
    trace::set_tracing(false);
    trace::take()
}

/// `(send, label, bytes, half_round, lamport)` of one journalled wire
/// event.
type WireEvent = (bool, &'static str, u64, u32, u32);

/// Every wire event in the trace, in journal order.
fn net_events(trace: &Trace) -> Vec<WireEvent> {
    let mut out = Vec::new();
    for t in &trace.threads {
        for e in &t.events {
            let send = match e.kind {
                EventKind::NetSend => true,
                EventKind::NetRecv => false,
                _ => continue,
            };
            let (half_round, lamport) = spfe_obs::unpack_net_stamp(e.b);
            out.push((send, e.label, e.a, half_round, lamport));
        }
    }
    out
}

fn pump_core(d: &Driver, plan: FaultPlan) -> (u64, Vec<WireEvent>) {
    let mut digest = 0;
    let trace = captured(|| {
        let mut ch = FaultyChannel::new(d.servers, plan, 0);
        let (mut client, mut servers) = (d.cores)(0).both();
        digest = pump(&mut ch, client.as_mut(), &mut servers).expect("pump run");
    });
    (digest, net_events(&trace))
}

/// Satellite: pump's Lamport stamps are issued once per *logical*
/// delivery, so under the masked audit fault seeds (retried deliveries)
/// the stamp sequence is byte-identical to the honest run's, and every
/// receive lands strictly after its send.
#[test]
fn pump_stamps_survive_masked_fault_seeds() {
    let _g = LOCK.lock().unwrap();
    let _ = fx();
    for d in drivers() {
        let name = d.name;
        let (digest, honest) = pump_core(&d, FaultPlan::honest());
        assert!(!honest.is_empty(), "[{name}] journal captured the run");
        // pump emits send/recv pairs synchronously: check pairwise order.
        assert_eq!(honest.len() % 2, 0);
        for pair in honest.chunks(2) {
            let (send, recv) = (pair[0], pair[1]);
            assert!(send.0 && !recv.0, "[{name}] events alternate send/recv");
            assert_eq!(send.1, recv.1, "[{name}] pair shares its label");
            assert_eq!(send.3, recv.3, "[{name}] pair shares its half-round");
            assert!(
                recv.4 > send.4,
                "[{name}] receive stamp {} is after send stamp {}",
                recv.4,
                send.4
            );
        }
        for seed in [11u64, 77] {
            let (d2, faulty) = pump_core(&d, FaultPlan::with_rate(seed, FaultAction::Drop, 300));
            assert_eq!(d2, digest, "[{name} seed {seed}] digest");
            assert_eq!(
                faulty, honest,
                "[{name} seed {seed}] masked retries moved a Lamport stamp"
            );
        }
    }
}

/// An in-memory peer answering reads from a scripted byte queue.
struct Script {
    replies: std::collections::VecDeque<u8>,
    written: Vec<u8>,
}

impl Script {
    fn replying(frames: &[Frame]) -> Script {
        let mut replies = std::collections::VecDeque::new();
        for f in frames {
            replies.extend(f.to_bytes());
        }
        Script {
            replies,
            written: Vec::new(),
        }
    }
}

impl Read for Script {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.replies.len());
        for b in buf.iter_mut().take(n) {
            *b = self.replies.pop_front().unwrap();
        }
        Ok(n)
    }
}

impl Write for Script {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.written.extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Satellite: the client's socket channel ([`run_core`] over a stream)
/// merges the peer's carried stamp (receive stamp strictly above both
/// clocks), absorbs the `TraceCtx` frame without metering it, and keeps
/// its own stamps monotone.
#[test]
fn socket_channel_merges_carried_stamps_and_meters_nothing_extra() {
    let _g = LOCK.lock().unwrap();
    let hello_ack = Frame::control(FrameKind::Hello, false, 9, "xor2", Vec::new());
    // Both xor2 answers come back; the first rides behind a TraceCtx
    // carrying stamp 9.
    let answer = vec![1u8, 2, 3].to_bytes();
    let script = Script::replying(&[
        hello_ack,
        Frame::trace_ctx(false, 9, 2, 9),
        Frame::msg(false, 9, 2, 0, "pir2-answer", answer.clone()),
        Frame::msg(false, 9, 2, 1, "pir2-answer", answer.clone()),
    ]);
    let mut outcome = None;
    let trace = captured(|| {
        let mut client = (driver("xor2").unwrap().cores)(0).client();
        outcome = Some(run_core(script, "xor2", client.as_mut(), 2, 9).unwrap());
    });
    // Identical answers XOR to the zero item.
    let (digest, transcript) = outcome.unwrap();
    assert_eq!(digest, 0);
    // TraceCtx is never metered: two queries up, two answers down.
    let report = transcript.report();
    assert_eq!(report.messages, 4);
    assert_eq!(report.server_to_client, 2 * answer.len() as u64);
    let events = net_events(&trace);
    // send q0 (tick 1), send q1 (tick 2), recv a0 (observe 9 → 10),
    // recv a1 (observe → 11), send bye (tick 12).
    assert_eq!(
        events
            .iter()
            .map(|&(send, label, _, _, lamport)| (send, label, lamport))
            .collect::<Vec<_>>(),
        vec![
            (true, "pir2-query", 1),
            (true, "pir2-query", 2),
            (false, "pir2-answer", 10),
            (false, "pir2-answer", 11),
            (true, "net-bye", 12)
        ]
    );
    // The client journalled its session slice around the wire events.
    let opens = trace.threads.iter().flat_map(|t| &t.events).filter(|e| {
        matches!(
            e.kind,
            EventKind::NetSessionOpen | EventKind::NetSessionClose
        )
    });
    assert_eq!(opens.count(), 2, "balanced open/close");
}

/// Splits an in-process capture into the client and server halves: both
/// parties share one journal here, but each thread belongs to exactly
/// one party, and within a session the client speaks first (its first
/// wire event is a send) while the server listens first.
fn split_parties(trace: &Trace) -> (Trace, Trace) {
    let (mut client, mut server) = (Trace::default(), Trace::default());
    client.cap = trace.cap;
    server.cap = trace.cap;
    for t in &trace.threads {
        let first = t.events.iter().find_map(|e| match e.kind {
            EventKind::NetSend => Some(true),
            EventKind::NetRecv => Some(false),
            _ => None,
        });
        match first {
            Some(true) => client.threads.push(t.clone()),
            Some(false) => server.threads.push(t.clone()),
            None => {}
        }
    }
    (client, server)
}

/// The acceptance gate, in-process: sessions of two drivers over real
/// loopback TCP at `SPFE_THREADS` 1 and 4; the captured client and
/// server journals must merge into one causally consistent timeline
/// with both process tracks and per-pair flow arrows.
#[test]
fn tcp_journals_merge_into_a_causally_consistent_timeline() {
    let _g = LOCK.lock().unwrap();
    let _ = fx();
    for threads in [1usize, 4] {
        spfe::math::par::set_threads(Some(threads));
        let mut server =
            Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind loopback");
        let addr = server.local_addr().to_string();
        let trace = captured(|| {
            // The client lives on its own thread so its journal flushes
            // on thread exit, exactly like a separate client process.
            let addr = addr.clone();
            std::thread::spawn(move || {
                for name in ["weighted_sum", "xor2"] {
                    let run = run_driver(&addr, name, Some(std::time::Duration::from_secs(30)))
                        .expect("tcp run");
                    let d = drivers().into_iter().find(|d| d.name == name).unwrap();
                    assert_eq!(run.digest, d.expect, "[{name}] digest over tcp");
                }
            })
            .join()
            .expect("client thread");
            // The server journals a session completely before settling it.
            let start = std::time::Instant::now();
            while server.snapshot().sessions_active > 0 || server.sessions_opened() < 2 {
                assert!(start.elapsed().as_secs() < 10, "sessions never settled");
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            server.shutdown();
        });
        let (client_half, server_half) = split_parties(&trace);
        let client = nettrace::parse_party(&spfe_obs::export::perfetto_json(&client_half))
            .expect("client journal parses");
        let srv = nettrace::parse_party(&spfe_obs::export::perfetto_json(&server_half))
            .expect("server journal parses");
        assert_eq!(client.sessions.len(), 2, "one session per driver");
        let (timeline, report) = nettrace::merge("e2e", &client, &srv);
        assert_eq!(
            report.violations,
            Vec::<String>::new(),
            "[t{threads}] causal gate"
        );
        assert_eq!(report.sessions, 2);
        assert!(report.flows > 0);
        // Both parties journalled every session under its driver.
        for s in &client.sessions {
            assert_eq!(srv.session(s.session).unwrap().driver, s.driver);
        }
        // The merged artifact: ≥ 2 process tracks and flow arrows.
        let doc = spfe_obs::json::parse(&timeline).expect("merged timeline is JSON");
        let events = doc
            .get("traceEvents")
            .and_then(spfe_obs::json::Json::as_arr)
            .unwrap();
        let ph = |p: &str| {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(spfe_obs::json::Json::as_str) == Some(p))
                .count()
        };
        assert!(ph("M") >= 2, "process-name metadata tracks");
        assert_eq!(ph("s"), report.flows, "flow starts");
        assert_eq!(ph("f"), report.flows, "flow finishes");
        assert_eq!(ph("X"), report.flows, "synthesized on-wire slices");
    }
    spfe::math::par::set_threads(None);
}
