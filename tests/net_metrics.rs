//! The metrics-conformance contract (DESIGN.md §16): the server's
//! operational telemetry is not a rough gauge but an *exact* mirror of
//! the client-side metered transcripts — per-driver session counts, byte
//! totals in both directions, and half-round structure all match to the
//! unit. On top of that, the scrape endpoint must serve well-formed
//! `spfe-metrics/v1` JSON (roundtripping through `spfe-obs::json`) and
//! Prometheus text exposition over the same TCP listener, failures must
//! land in the right [`FailureKind`] bucket, and a panicking session
//! thread must be contained, counted, and survivable.

mod common;
use common::*;

use spfe::transport::frame::{read_frame, write_frame};
use spfe::transport::{Frame, FrameKind};
use spfe_bench::serve;
use spfe_net::{fetch_stats, next_session_id, run_driver, Server, ServerConfig};
use spfe_obs::metrics::{parse_snapshot, FailureKind, MetricsSnapshot};
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

const DEADLINE: Duration = Duration::from_secs(30);

/// Session threads settle their accounting asynchronously after the
/// client returns; poll until the expected number of sessions closed.
fn wait_settled(server: &Server, opened: u64) -> MetricsSnapshot {
    let start = Instant::now();
    loop {
        let snap = server.snapshot();
        if snap.sessions_opened >= opened && snap.sessions_active == 0 {
            return snap;
        }
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "sessions never settled: {snap:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The tentpole contract: after sessions of every driver, the server's
/// per-driver rows equal the client transcripts exactly — sessions,
/// bytes in/out, half-rounds — and the JSON scraped over the wire parses
/// back to the same counters.
#[test]
fn server_metrics_match_client_transcripts_exactly() {
    let _ = fx();
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();
    let table = drivers();

    // Two sessions of hom_pir (aggregates must add up) and one of every
    // other driver.
    let mut reports = Vec::new();
    for d in &table {
        let runs = if d.name == "hom_pir" { 2 } else { 1 };
        for _ in 0..runs {
            let run = run_driver(&addr, d.name, Some(DEADLINE)).expect("driver over TCP");
            assert_eq!(run.digest, d.expect, "[{}] digest", d.name);
            reports.push((d.name, run.transcript.report()));
        }
    }
    let sessions = reports.len() as u64;

    let snap = wait_settled(&server, sessions);
    assert_eq!(snap.sessions_opened, sessions);
    assert_eq!(snap.sessions_completed, sessions);
    assert_eq!(snap.sessions_failed(), 0);

    for d in &table {
        let mine: Vec<_> = reports.iter().filter(|(n, _)| *n == d.name).collect();
        let row = snap
            .driver(d.name, "compute")
            .unwrap_or_else(|| panic!("{}/compute row", d.name));
        assert_eq!(row.sessions, mine.len() as u64, "[{}]", d.name);
        assert_eq!(row.completed, mine.len() as u64, "[{}]", d.name);
        assert_eq!(
            row.bytes_in,
            mine.iter().map(|(_, r)| r.client_to_server).sum::<u64>(),
            "[{}] server-metered client->server bytes must equal the client transcripts",
            d.name
        );
        assert_eq!(
            row.bytes_out,
            mine.iter().map(|(_, r)| r.server_to_client).sum::<u64>(),
            "[{}]",
            d.name
        );
        assert_eq!(
            row.half_rounds,
            mine.iter()
                .map(|(_, r)| u64::from(r.half_rounds))
                .sum::<u64>(),
            "[{}] the server's own half-round count must equal the transcripts",
            d.name
        );
    }

    // Global byte totals are the sum of the per-driver rows — scrape
    // traffic never inflates them.
    assert_eq!(
        snap.bytes_in,
        snap.drivers.iter().map(|r| r.bytes_in).sum::<u64>()
    );
    assert_eq!(
        snap.bytes_out,
        snap.drivers.iter().map(|r| r.bytes_out).sum::<u64>()
    );

    // The same snapshot over the wire: scraped JSON parses back with
    // identical session/byte counters and passes the health gate.
    let wire = fetch_stats(&addr, false, Some(DEADLINE)).expect("stats scrape");
    let parsed = parse_snapshot(&wire).expect("scraped snapshot parses");
    assert_eq!(parsed.sessions_opened, snap.sessions_opened);
    assert_eq!(parsed.sessions_completed, snap.sessions_completed);
    assert_eq!(
        (parsed.bytes_in, parsed.bytes_out),
        (snap.bytes_in, snap.bytes_out)
    );
    assert_eq!(parsed.drivers, snap.drivers);
    assert!(
        serve::check_health(&parsed).ok(),
        "healthy after clean runs"
    );

    // Scrapes are probes, not sessions.
    let after = server.snapshot();
    assert_eq!(after.sessions_opened, sessions);
    assert!(after.stats_probes >= 1);
}

/// The same listener answers Prometheus text exposition, well-formed:
/// counter TYPE lines, cumulative histogram with an `+Inf` bucket whose
/// count equals `_count`, and label values drawn from the driver rows.
#[test]
fn prometheus_exposition_over_the_wire_is_wellformed() {
    let _ = fx();
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();
    run_driver(&addr, "xor2", Some(DEADLINE)).expect("xor2 run");
    wait_settled(&server, 1);

    let prom = fetch_stats(&addr, true, Some(DEADLINE)).expect("prom scrape");
    assert!(prom.ends_with('\n'), "exposition must end with a newline");
    for needle in [
        "# TYPE spfe_sessions_opened_total counter",
        "spfe_sessions_opened_total 1",
        "# TYPE spfe_session_wall_micros histogram",
        "spfe_session_wall_micros_bucket{",
        "le=\"+Inf\"",
        "spfe_bytes_total{direction=\"in\"}",
        "mode=\"compute\"",
    ] {
        assert!(prom.contains(needle), "missing `{needle}` in:\n{prom}");
    }
    // Every failure kind is exported, zero or not, so dashboards can
    // query a stable series set.
    for kind in FailureKind::ALL {
        let series = format!("spfe_sessions_failed_total{{kind=\"{}\"}}", kind.name());
        assert!(prom.contains(&series), "missing series `{series}`");
    }
}

/// Failures land in their taxonomy bucket: a garbage first frame is a
/// codec reject; a client that connects and stalls mid-handshake is a
/// handshake timeout. Each failed session still counts as opened, so the
/// `opened == completed + failed + active` invariant holds throughout.
#[test]
fn failure_kinds_are_counted_in_the_right_bucket() {
    let _ = fx();
    let config = ServerConfig {
        read_deadline: Some(Duration::from_millis(200)),
        inject_panic_driver: None,
    };
    let server = Server::bind("127.0.0.1:0", config).expect("bind");
    let addr_sock = server.local_addr();
    let addr = addr_sock.to_string();

    // Codec reject: a first frame that cannot be a header.
    {
        let mut garbage = TcpStream::connect(addr_sock).expect("connect");
        garbage
            .write_all(b"XXXXGARBAGEXXXXGARBAGEXXXXGARBAGE")
            .unwrap();
        let _ = garbage.flush();
    }
    // Handshake timeout: two header bytes, then silence past the deadline.
    let staller = TcpStream::connect(addr_sock).expect("connect");
    (&staller).write_all(&[0x53, 0x50]).unwrap();

    // A clean session in between: failures must not disturb it.
    run_driver(&addr, "xor2", Some(DEADLINE)).expect("clean session");

    let start = Instant::now();
    let snap = loop {
        let snap = server.snapshot();
        if snap.sessions_failed() >= 2 {
            break snap;
        }
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "failures never counted: {snap:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    drop(staller);

    assert_eq!(server.failures(FailureKind::CodecReject), 1);
    assert_eq!(server.failures(FailureKind::HandshakeTimeout), 1);
    assert_eq!(snap.sessions_completed, 1);
    assert_eq!(
        snap.sessions_opened,
        snap.sessions_completed + snap.sessions_failed() + snap.sessions_active,
        "opened must equal completed + failed + active: {snap:?}"
    );
}

/// A panicking session thread (fault-injected) is contained by the
/// unwind boundary: counted as [`FailureKind::Panic`], the accept loop
/// keeps serving, and later sessions of other drivers complete.
#[test]
fn session_panic_is_contained_counted_and_survivable() {
    let _ = fx();
    let config = ServerConfig {
        read_deadline: Some(Duration::from_secs(30)),
        inject_panic_driver: Some("xor2".to_owned()),
    };
    let server = Server::bind("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr().to_string();
    let table = drivers();

    run_driver(&addr, "xor2", Some(Duration::from_secs(5)))
        .expect_err("session against a panicking thread must fail client-side");

    let start = Instant::now();
    while server.failures(FailureKind::Panic) == 0 {
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "panic never counted: {:?}",
            server.snapshot()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.failures(FailureKind::Panic), 1);

    // The multiplexer survived: an untainted driver still serves.
    let run = run_driver(&addr, "hom_pir", Some(DEADLINE)).expect("post-panic session");
    let d = table.iter().find(|d| d.name == "hom_pir").unwrap();
    assert_eq!(run.digest, d.expect);
    let snap = wait_settled(&server, 2);
    assert_eq!(snap.sessions_completed, 1);
    assert_eq!(snap.sessions_failed(), 1);
    let row = snap
        .driver("xor2", "compute")
        .expect("panicked row is folded");
    assert_eq!((row.sessions, row.failed), (1, 1));
}

/// Half-rounds are the server's own count, never the client's stamps: a
/// raw client that stamps its xor2 queries and its Bye with `u32::MAX`
/// completes without a panic, each reply is stamped 2 (the end of the
/// one exchange), and the xor2 row gains exactly 2 half-rounds.
#[test]
fn client_stamps_cannot_inflate_server_half_rounds() {
    let _ = fx();
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_read_timeout(Some(DEADLINE)).unwrap();
    let session = next_session_id();
    let hello = Frame::control(FrameKind::Hello, true, session, "xor2", Vec::new());
    write_frame(&mut stream, &hello, 0, "net-hello").unwrap();
    let ack = read_frame(&mut stream, 0, "net-hello").unwrap();
    assert_eq!(ack.kind, FrameKind::Hello);
    let (label, queries) = opening(&driver("xor2").unwrap());
    for (index, payload) in queries {
        let query = Frame::msg(true, session, u32::MAX, index, label, payload);
        write_frame(&mut stream, &query, index, label).unwrap();
        let reply = read_frame(&mut stream, 0, "net-msg").unwrap();
        assert_eq!((reply.kind, reply.half_round), (FrameKind::Msg, 2));
    }
    let bye = Frame {
        half_round: u32::MAX,
        ..Frame::control(FrameKind::Bye, true, session, "", Vec::new())
    };
    write_frame(&mut stream, &bye, 0, "net-bye").unwrap();
    drop(stream);

    let snap = wait_settled(&server, 1);
    assert_eq!((snap.sessions_completed, snap.sessions_failed()), (1, 0));
    let row = snap.driver("xor2", "compute").expect("xor2 row");
    assert_eq!(row.half_rounds, 2, "the server counts its own exchanges");
}
