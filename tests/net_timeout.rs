//! Deadline and fault behaviour of the networked service (DESIGN.md §15):
//! a stalling peer surfaces as a typed [`ProtocolError::Timeout`] within
//! the configured deadline (not a hang), a session costs one deadline in
//! total rather than one per message, and a session killed mid-protocol
//! leaves the server's other sessions fully functional.

mod common;
use common::*;

use spfe::transport::frame::{read_frame, write_frame};
use spfe::transport::{Frame, FrameKind, ProtocolError, SessionCore};
use spfe_net::{next_session_id, run_core, run_driver, Server, ServerConfig};
use spfe_obs::metrics::FailureKind;
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

const DEADLINE: Duration = Duration::from_millis(300);
/// Generous wall-clock bound: one deadline plus scheduling slack — the
/// point is "bounded by the deadline", not "takes forever".
const BOUND: Duration = Duration::from_secs(5);

fn connect_with_deadline(addr: SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(DEADLINE)).unwrap();
    s.set_write_timeout(Some(DEADLINE)).unwrap();
    s
}

/// A peer that acknowledges the Hello and then swallows everything,
/// replying to nothing.
fn mute_after_handshake() -> (SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let hello = read_frame(&mut stream, 0, "t").unwrap();
        let ack = Frame::control(
            FrameKind::Hello,
            false,
            hello.session,
            &hello.label,
            Vec::new(),
        );
        write_frame(&mut stream, &ack, 0, "t").unwrap();
        let mut sink = [0u8; 1024];
        while let Ok(n) = stream.read(&mut sink) {
            if n == 0 {
                break;
            }
        }
    });
    (addr, peer)
}

/// A server that accepts and then never answers: the Hello handshake
/// itself must time out, typed and bounded.
#[test]
fn stalling_server_times_out_the_handshake() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let hold = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        // Hold the connection open, answering nothing.
        std::thread::sleep(Duration::from_secs(6));
        drop(stream);
    });
    let mut client = (driver("xor2").unwrap().cores)(0).client();
    let start = Instant::now();
    let err = run_core(
        connect_with_deadline(addr),
        "xor2",
        client.as_mut(),
        2,
        next_session_id(),
    )
    .expect_err("handshake against a mute server must fail");
    assert!(
        matches!(
            err,
            ProtocolError::Timeout {
                label: "net-hello",
                ..
            }
        ),
        "expected a typed handshake timeout, got {err:?}"
    );
    assert!(
        start.elapsed() < BOUND,
        "timeout took {:?}, deadline is {DEADLINE:?}",
        start.elapsed()
    );
    drop(hold); // detach; the holder thread exits on its own clock
}

/// A server that completes the handshake and then goes mute: the
/// session's first reply times out, typed, after one deadline — the
/// client sent both xor2 queries, so a stalled server costs one deadline
/// per session, not one per message.
#[test]
fn stalling_server_times_out_one_deadline_total() {
    let (addr, peer) = mute_after_handshake();
    let mut client = (driver("xor2").unwrap().cores)(0).client();
    let start = Instant::now();
    let err = run_core(
        connect_with_deadline(addr),
        "xor2",
        client.as_mut(),
        2,
        next_session_id(),
    )
    .expect_err("a session against a mute peer must fail");
    assert!(
        matches!(
            err,
            ProtocolError::Timeout {
                label: "net-msg",
                ..
            }
        ),
        "expected a typed transfer timeout, got {err:?}"
    );
    assert!(
        start.elapsed() < BOUND,
        "the stalled session took {:?}; it must cost one deadline",
        start.elapsed()
    );
    drop(peer);
}

/// A full driver run over a stalling peer: the session must abort with a
/// typed timeout within the bound — never hang.
#[test]
fn driver_over_stalling_peer_aborts_bounded() {
    let (addr, peer) = mute_after_handshake();
    let start = Instant::now();
    let err = run_driver(&addr.to_string(), "weighted_sum", Some(DEADLINE))
        .expect_err("driver over a mute peer must abort");
    assert!(
        matches!(err, ProtocolError::Timeout { .. }),
        "expected a bounded typed abort, got {err:?}"
    );
    assert!(
        start.elapsed() < BOUND,
        "driver abort took {:?}; must cost ~one deadline",
        start.elapsed()
    );
    drop(peer);
}

/// Killing one session mid-protocol must not disturb the multiplexer:
/// other concurrent sessions — and sessions opened afterwards — still
/// complete with correct digests.
#[test]
fn killed_session_leaves_other_sessions_serving() {
    let _ = fx();
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr_sock = server.local_addr();
    let addr = addr_sock.to_string();

    // Session A: handshake and one live exchange (the first xor2 query
    // and its answer), then die mid-protocol.
    {
        let mut victim = connect_with_deadline(addr_sock);
        let session = next_session_id();
        let hello = Frame::control(FrameKind::Hello, true, session, "xor2", Vec::new());
        write_frame(&mut victim, &hello, 0, "net-hello").unwrap();
        let ack = read_frame(&mut victim, 0, "net-hello").unwrap();
        assert_eq!(ack.kind, FrameKind::Hello);
        let (_, queries) = (driver("xor2").unwrap().cores)(0).client().start().unwrap();
        let q = &queries[0];
        let frame = Frame::msg(true, session, 1, q.server, q.label, q.payload.clone());
        write_frame(&mut victim, &frame, q.server, q.label).unwrap();
        let answer = read_frame(&mut victim, 0, "pir2-answer").unwrap();
        assert_eq!(
            (answer.kind, answer.label.as_str()),
            (FrameKind::Msg, "pir2-answer")
        );
        // No Bye: the connection just dies mid-session.
    }

    // Session B: feed the server a garbage frame so its session thread
    // errors out (not merely EOF).
    {
        use std::io::Write;
        let mut garbage = TcpStream::connect(addr_sock).expect("garbage connect");
        garbage
            .write_all(b"XXXXGARBAGEXXXXGARBAGEXXXXGARBAGE")
            .unwrap();
        let _ = garbage.flush();
    }

    // Sessions C…: full driver runs, concurrently, all correct.
    let table = drivers();
    let handles: Vec<_> = ["xor2", "poly_it", "hom_pir"]
        .iter()
        .map(|name| {
            let addr = addr.clone();
            let name = (*name).to_owned();
            std::thread::spawn(move || {
                let run = run_driver(&addr, &name, Some(Duration::from_secs(30)))
                    .expect("post-kill session");
                (name, run.digest)
            })
        })
        .collect();
    for h in handles {
        let (name, digest) = h.join().expect("session thread");
        let d = table.iter().find(|d| d.name == name).unwrap();
        assert_eq!(
            digest, d.expect,
            "[{name}] session after a killed session must still be correct"
        );
    }

    // The failure taxonomy pins down *which* disruption was counted:
    // the victim's silent disconnect is a clean EOF (completed), the
    // garbage frame is exactly one codec reject — not a generic "failed"
    // blur. Session threads settle asynchronously; poll until they do.
    let start = Instant::now();
    let snap = loop {
        let snap = server.snapshot();
        if snap.sessions_opened >= 5 && snap.sessions_active == 0 {
            break snap;
        }
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "sessions never settled: {snap:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(snap.sessions_opened, 5);
    assert_eq!(
        snap.sessions_completed, 4,
        "victim EOF + three driver runs all complete: {snap:?}"
    );
    assert_eq!(snap.sessions_failed(), 1);
    assert_eq!(
        server.failures(FailureKind::CodecReject),
        1,
        "the garbage frame must be counted as a codec reject, not io/protocol"
    );
}
