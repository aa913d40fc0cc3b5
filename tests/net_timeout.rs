//! Deadline and fault behaviour of the networked service (DESIGN.md §15):
//! a stalling peer surfaces as a typed [`ProtocolError::Timeout`] within
//! the configured deadline (not a hang), a session costs one deadline in
//! total rather than one per message, a server that replies out of turn
//! ends the session with a typed error, and a session killed
//! mid-protocol leaves the server's other sessions fully functional.

mod common;
use common::*;

use spfe::transport::frame::{read_frame, write_frame};
use spfe::transport::{Frame, FrameKind, ProtocolError, Wire};
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

/// A peer that acknowledges the Hello, reads the client's `queries`
/// query frames, writes `replies` (in the client's session), and then
/// drains the line until the client hangs up.
fn scripted_peer(queries: usize, replies: Vec<Frame>) -> (SocketAddr, std::thread::JoinHandle<()>) {
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
        for _ in 0..queries {
            read_frame(&mut stream, 0, "t").unwrap();
        }
        for frame in replies {
            let frame = Frame {
                session: hello.session,
                ..frame
            };
            write_frame(&mut stream, &frame, 0, "t").unwrap();
        }
        let mut sink = [0u8; 1024];
        while let Ok(n) = stream.read(&mut sink) {
            if n == 0 {
                break;
            }
        }
    });
    (addr, peer)
}

/// A server that replies out of turn — under a foreign label, twice to
/// one query, from a server the exchange did not address, or with an
/// Error frame — ends the xor2 session with a typed `InvalidMessage`
/// right away: no panic, no hang until the deadline.
#[test]
fn hostile_replies_fail_typed_and_bounded() {
    let answer = |server, label| Frame::msg(false, 0, 2, server, label, vec![7u8; 4].to_bytes());
    let error = Frame::control(FrameKind::Error, false, 0, "xor2", b"refused".to_vec());
    let cases = [
        ("foreign label", 2, vec![answer(0, "no-such-label")]),
        (
            "twice to one query",
            2,
            vec![answer(0, "pir2-answer"), answer(0, "pir2-answer")],
        ),
        ("unknown server", 2, vec![answer(7, "pir2-answer")]),
        // Three servers on the line, but xor2 addresses only 0 and 1.
        ("server not addressed", 3, vec![answer(2, "pir2-answer")]),
        ("error frame", 2, vec![error]),
    ];
    for (case, num_servers, replies) in cases {
        let (addr, peer) = scripted_peer(2, replies);
        let mut client = (driver("xor2").unwrap().cores)(0).client();
        let start = Instant::now();
        let err = run_core(
            connect_with_deadline(addr),
            "xor2",
            client.as_mut(),
            num_servers,
            next_session_id(),
        )
        .expect_err(case);
        assert!(
            matches!(err, ProtocolError::InvalidMessage { .. }),
            "[{case}] expected a typed InvalidMessage, got {err:?}"
        );
        assert!(
            start.elapsed() < DEADLINE,
            "[{case}] took {:?}: a hostile reply must fail at once",
            start.elapsed()
        );
        peer.join().expect("scripted peer");
    }
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
        let (label, queries) = opening(&driver("xor2").unwrap());
        let (server, payload) = queries[0].clone();
        let frame = Frame::msg(true, session, 1, server, label, payload);
        write_frame(&mut victim, &frame, server, label).unwrap();
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
