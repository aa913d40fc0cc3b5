//! Length-prefixed session framing for networked transports.
//!
//! Everything above this module is sans-io: protocol messages are `Wire`
//! byte strings that the protocol cores ([`crate::session`]) produce and
//! consume. This module defines how those byte strings travel over a real
//! stream — a fixed 30-byte header (magic, version, kind, direction,
//! session id, half-round, server index, label length, payload length)
//! followed by the label and the payload, both length-prefixed by the
//! header. The payload bytes are exactly the [`crate::Wire`] encoding the
//! in-memory [`crate::Transcript`] meters, so a socket run and an
//! in-memory run of the same protocol transfer byte-identical message
//! bodies.
//!
//! Decoding is defensive: magic, version, kind, direction, and both
//! length fields are validated *before* any allocation, so a malicious or
//! corrupted peer can neither panic the process nor make it allocate an
//! unbounded buffer. Every rejection is a typed
//! [`ProtocolError::Codec`] with a distinct context string.

use crate::error::ProtocolError;
use crate::wire::WireError;
use std::io::{self, Read, Write};

/// The 4-byte frame magic.
pub const MAGIC: [u8; 4] = *b"SPFE";

/// Protocol version carried in every frame.
pub const VERSION: u16 = 1;

/// Fixed header size in bytes: magic(4) + version(2) + kind(1) + dir(1) +
/// session(8) + half_round(4) + server(4) + label_len(2) + payload_len(4).
pub const HEADER_LEN: usize = 30;

/// Upper bound on the label field (protocol labels are short identifiers).
pub const MAX_LABEL_LEN: usize = 64;

/// Upper bound on a frame payload (far above any message in the
/// workspace; a length field past this is rejected before allocation).
pub const MAX_PAYLOAD_LEN: usize = 1 << 26;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Session open: label = driver name, empty payload.
    Hello = 0,
    /// A protocol message; payload is the `Wire` encoding.
    Msg = 1,
    /// Graceful session close.
    Bye = 2,
    /// The peer aborted the session; payload is a display string.
    Error = 3,
    /// A metrics scrape: the request payload is `[format]` (0 = JSON,
    /// 1 = Prometheus text), the reply payload is the rendered
    /// `spfe-metrics/v2` snapshot. Served on the same listener as
    /// sessions so operators need no second port.
    Stats = 4,
    /// A causal-context carrier for distributed session tracing: the
    /// `server` header field carries the sender's Lamport stamp
    /// ([`crate::Lamport`]) and `half_round` its half-round counter, for
    /// the next session frame on the stream. Label and payload are empty
    /// (the 30-byte header has no reserved space). Only emitted while the
    /// sender's trace journal is on; receivers absorb it transparently on
    /// every read path, and it is never metered — transcripts, metrics,
    /// and view fingerprints are byte-identical with tracing on or off.
    TraceCtx = 5,
}

impl FrameKind {
    fn from_u8(v: u8) -> Option<FrameKind> {
        match v {
            0 => Some(FrameKind::Hello),
            1 => Some(FrameKind::Msg),
            2 => Some(FrameKind::Bye),
            3 => Some(FrameKind::Error),
            4 => Some(FrameKind::Stats),
            5 => Some(FrameKind::TraceCtx),
            _ => None,
        }
    }
}

/// One framed message on a stream transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the frame carries.
    pub kind: FrameKind,
    /// Direction of travel (`true` = client → server).
    pub client_to_server: bool,
    /// Session identifier (chosen by the client at Hello).
    pub session: u64,
    /// The sender's half-round counter when the frame was emitted
    /// (informational; the authoritative accounting is each side's own
    /// metered transcript).
    pub half_round: u32,
    /// Logical server index the frame addresses or originates from.
    pub server: u32,
    /// Protocol label (or driver name in a Hello frame).
    pub label: String,
    /// Message body (the `Wire` encoding of the protocol message).
    pub payload: Vec<u8>,
}

fn codec(context: &'static str) -> ProtocolError {
    ProtocolError::Codec(WireError { context })
}

impl Frame {
    /// Builds a `Msg` frame.
    pub fn msg(
        client_to_server: bool,
        session: u64,
        half_round: u32,
        server: usize,
        label: &str,
        payload: Vec<u8>,
    ) -> Frame {
        Frame {
            kind: FrameKind::Msg,
            client_to_server,
            session,
            half_round,
            server: server as u32,
            label: label.to_owned(),
            payload,
        }
    }

    /// Builds a session-control frame (`Hello`, `Bye`, `Error` or `Stats`)
    /// at half-round 0, server 0.
    pub fn control(
        kind: FrameKind,
        client_to_server: bool,
        session: u64,
        label: &str,
        payload: Vec<u8>,
    ) -> Frame {
        Frame {
            kind,
            ..Frame::msg(client_to_server, session, 0, 0, label, payload)
        }
    }

    /// Builds a `TraceCtx` frame carrying `lamport` (and the sender's
    /// half-round counter) for the next session frame on the stream.
    pub fn trace_ctx(client_to_server: bool, session: u64, half_round: u32, lamport: u32) -> Frame {
        Frame {
            kind: FrameKind::TraceCtx,
            client_to_server,
            session,
            half_round,
            server: lamport,
            label: String::new(),
            payload: Vec::new(),
        }
    }

    /// Appends the wire encoding of this frame to `out`.
    ///
    /// # Panics
    ///
    /// Panics if the label or payload exceed the frame bounds (sender-side
    /// bug: every label in the workspace is far below [`MAX_LABEL_LEN`]).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        assert!(self.label.len() <= MAX_LABEL_LEN, "frame label too long");
        assert!(
            self.payload.len() <= MAX_PAYLOAD_LEN,
            "frame payload too long"
        );
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.push(self.kind as u8);
        out.push(u8::from(!self.client_to_server));
        out.extend_from_slice(&self.session.to_le_bytes());
        out.extend_from_slice(&self.half_round.to_le_bytes());
        out.extend_from_slice(&self.server.to_le_bytes());
        out.extend_from_slice(&(self.label.len() as u16).to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        out.extend_from_slice(self.label.as_bytes());
        out.extend_from_slice(&self.payload);
    }

    /// The full encoding as a fresh buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.label.len() + self.payload.len());
        self.encode_into(&mut out);
        out
    }

    /// Decodes one frame from the front of `buf`, returning it and the
    /// number of bytes consumed.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Codec`] on truncation, bad magic, an unsupported
    /// version, an unknown kind or direction, an over-bound length field,
    /// or a non-UTF-8 label — never a panic, never an allocation larger
    /// than the validated lengths.
    pub fn decode(buf: &[u8]) -> Result<(Frame, usize), ProtocolError> {
        if buf.len() < HEADER_LEN {
            return Err(codec("frame: truncated header"));
        }
        let (label_len, payload_len) =
            Self::validate_header(buf[..HEADER_LEN].try_into().unwrap())?;
        let total = HEADER_LEN + label_len + payload_len;
        if buf.len() < total {
            return Err(codec("frame: truncated body"));
        }
        let label = std::str::from_utf8(&buf[HEADER_LEN..HEADER_LEN + label_len])
            .map_err(|_| codec("frame: label is not utf-8"))?
            .to_owned();
        let payload = buf[HEADER_LEN + label_len..total].to_vec();
        let frame = Self::from_parts(buf[..HEADER_LEN].try_into().unwrap(), label, payload);
        Ok((frame, total))
    }

    /// Validates a raw header and returns `(label_len, payload_len)`.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Codec`] with a field-specific context.
    pub fn validate_header(h: &[u8; HEADER_LEN]) -> Result<(usize, usize), ProtocolError> {
        if h[0..4] != MAGIC {
            return Err(codec("frame: bad magic"));
        }
        if u16::from_le_bytes([h[4], h[5]]) != VERSION {
            return Err(codec("frame: unsupported version"));
        }
        if FrameKind::from_u8(h[6]).is_none() {
            return Err(codec("frame: unknown kind"));
        }
        if h[7] > 1 {
            return Err(codec("frame: unknown direction"));
        }
        let label_len = u16::from_le_bytes([h[24], h[25]]) as usize;
        if label_len > MAX_LABEL_LEN {
            return Err(codec("frame: label exceeds bound"));
        }
        let payload_len = u32::from_le_bytes([h[26], h[27], h[28], h[29]]) as usize;
        if payload_len > MAX_PAYLOAD_LEN {
            return Err(codec("frame: payload exceeds bound"));
        }
        Ok((label_len, payload_len))
    }

    fn from_parts(h: &[u8; HEADER_LEN], label: String, payload: Vec<u8>) -> Frame {
        Frame {
            kind: FrameKind::from_u8(h[6]).expect("validated"),
            client_to_server: h[7] == 0,
            session: u64::from_le_bytes(h[8..16].try_into().unwrap()),
            half_round: u32::from_le_bytes(h[16..20].try_into().unwrap()),
            server: u32::from_le_bytes(h[20..24].try_into().unwrap()),
            label,
            payload,
        }
    }
}

/// Maps a stream I/O failure to the typed transport error vocabulary:
/// deadline expiries become [`ProtocolError::Timeout`], connection
/// teardown becomes [`ProtocolError::ServerCrashed`].
pub fn io_to_protocol(e: &io::Error, server: usize, label: &'static str) -> ProtocolError {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => {
            ProtocolError::Timeout { server, label }
        }
        _ => ProtocolError::ServerCrashed { server },
    }
}

/// Writes one frame to `w` and flushes.
///
/// # Errors
///
/// I/O failures mapped by [`io_to_protocol`] (attributed to `server` /
/// `label` for diagnostics).
pub fn write_frame<W: Write>(
    w: &mut W,
    frame: &Frame,
    server: usize,
    label: &'static str,
) -> Result<(), ProtocolError> {
    let bytes = frame.to_bytes();
    w.write_all(&bytes)
        .and_then(|()| w.flush())
        .map_err(|e| io_to_protocol(&e, server, label))
}

/// Reads exactly `buf.len()` bytes. Returns `Ok(false)` if the stream was
/// already at EOF (no bytes read) and `eof_ok` is set; EOF *mid*-buffer is
/// always a [`ProtocolError::ServerCrashed`].
fn read_full<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    eof_ok: bool,
    server: usize,
    label: &'static str,
) -> Result<bool, ProtocolError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 && eof_ok {
                    return Ok(false);
                }
                return Err(ProtocolError::ServerCrashed { server });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(io_to_protocol(&e, server, label)),
        }
    }
    Ok(true)
}

/// Reads one full frame from `r`.
///
/// # Errors
///
/// [`ProtocolError::Codec`] for malformed frames, [`ProtocolError::Timeout`]
/// when a read deadline expires, [`ProtocolError::ServerCrashed`] when the
/// stream ends mid-frame or is reset.
pub fn read_frame<R: Read>(
    r: &mut R,
    server: usize,
    label: &'static str,
) -> Result<Frame, ProtocolError> {
    read_frame_or_eof(r, false, server, label)?.ok_or(ProtocolError::ServerCrashed { server })
}

/// Like [`read_frame`], but `Ok(None)` when the stream is cleanly at EOF
/// *between* frames (the peer closed the session without a Bye).
///
/// # Errors
///
/// As for [`read_frame`].
pub fn read_frame_or_eof<R: Read>(
    r: &mut R,
    eof_ok: bool,
    server: usize,
    label: &'static str,
) -> Result<Option<Frame>, ProtocolError> {
    let mut header = [0u8; HEADER_LEN];
    if !read_full(r, &mut header, eof_ok, server, label)? {
        return Ok(None);
    }
    let (label_len, payload_len) = Frame::validate_header(&header)?;
    let mut body = vec![0u8; label_len + payload_len];
    read_full(r, &mut body, false, server, label)?;
    let text = std::str::from_utf8(&body[..label_len])
        .map_err(|_| codec("frame: label is not utf-8"))?
        .to_owned();
    let payload = body[label_len..].to_vec();
    Ok(Some(Frame::from_parts(&header, text, payload)))
}

/// Like [`read_frame`], but transparently absorbs any
/// [`FrameKind::TraceCtx`] frames in front of the next session frame,
/// returning the frame together with the carried Lamport stamp (if the
/// peer is tracing). This is the read primitive every session loop uses,
/// so a tracing peer interoperates with a non-tracing one.
///
/// # Errors
///
/// As for [`read_frame`].
pub fn read_frame_traced<R: Read>(
    r: &mut R,
    server: usize,
    label: &'static str,
) -> Result<(Frame, Option<u32>), ProtocolError> {
    match read_frame_or_eof_traced(r, false, server, label)? {
        Some(got) => Ok(got),
        None => Err(ProtocolError::ServerCrashed { server }),
    }
}

/// Like [`read_frame_or_eof`], but absorbs [`FrameKind::TraceCtx`] frames
/// as [`read_frame_traced`] does. A clean EOF between frames (including
/// directly after a trace context, which a crashing peer can leave
/// behind) yields `Ok(None)` when `eof_ok` is set.
///
/// # Errors
///
/// As for [`read_frame_or_eof`].
pub fn read_frame_or_eof_traced<R: Read>(
    r: &mut R,
    eof_ok: bool,
    server: usize,
    label: &'static str,
) -> Result<Option<(Frame, Option<u32>)>, ProtocolError> {
    let mut carried: Option<u32> = None;
    loop {
        match read_frame_or_eof(r, eof_ok, server, label)? {
            Some(f) if f.kind == FrameKind::TraceCtx => carried = Some(f.server),
            Some(f) => return Ok(Some((f, carried))),
            None => return Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Frame {
        Frame::msg(true, 0xDEAD_BEEF, 3, 1, "pir2-query", vec![1, 2, 3, 4])
    }

    #[test]
    fn roundtrip() {
        let f = sample();
        let bytes = f.to_bytes();
        assert_eq!(bytes.len(), HEADER_LEN + 10 + 4);
        let (got, used) = Frame::decode(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(got, f);
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            Frame::decode(&bytes),
            Err(ProtocolError::Codec(WireError {
                context: "frame: bad magic"
            }))
        ));
        let mut bytes = sample().to_bytes();
        bytes[4] = 9;
        assert!(matches!(
            Frame::decode(&bytes),
            Err(ProtocolError::Codec(WireError {
                context: "frame: unsupported version"
            }))
        ));
    }

    #[test]
    fn rejects_oversized_lengths_without_allocating() {
        let mut bytes = sample().to_bytes();
        bytes[26..30].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Frame::decode(&bytes),
            Err(ProtocolError::Codec(WireError {
                context: "frame: payload exceeds bound"
            }))
        ));
        let mut bytes = sample().to_bytes();
        bytes[24..26].copy_from_slice(&u16::MAX.to_le_bytes());
        assert!(matches!(
            Frame::decode(&bytes),
            Err(ProtocolError::Codec(WireError {
                context: "frame: label exceeds bound"
            }))
        ));
    }

    #[test]
    fn truncation_is_typed() {
        let bytes = sample().to_bytes();
        for cut in [0, 1, HEADER_LEN - 1, HEADER_LEN, bytes.len() - 1] {
            assert!(
                matches!(Frame::decode(&bytes[..cut]), Err(ProtocolError::Codec(_))),
                "cut={cut}"
            );
        }
    }

    #[test]
    fn stream_roundtrip_and_eof() {
        let f = sample();
        let mut buf = Vec::new();
        write_frame(&mut buf, &f, 0, "t").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let got = read_frame(&mut cursor, 0, "t").unwrap();
        assert_eq!(got, f);
        assert!(read_frame_or_eof(&mut cursor, true, 0, "t")
            .unwrap()
            .is_none());
        assert!(matches!(
            read_frame(&mut cursor, 7, "t"),
            Err(ProtocolError::ServerCrashed { server: 7 })
        ));
    }

    #[test]
    fn trace_ctx_roundtrips_and_is_header_only() {
        let f = Frame::trace_ctx(true, 77, 3, 41);
        let bytes = f.to_bytes();
        assert_eq!(bytes.len(), HEADER_LEN, "no label, no payload");
        let (got, used) = Frame::decode(&bytes).unwrap();
        assert_eq!(used, HEADER_LEN);
        assert_eq!(got, f);
        assert_eq!(
            (got.kind, got.server, got.half_round),
            (FrameKind::TraceCtx, 41, 3)
        );
    }

    #[test]
    fn traced_reader_absorbs_trace_ctx_frames() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::trace_ctx(true, 9, 1, 5), 0, "t").unwrap();
        let msg = sample();
        write_frame(&mut buf, &msg, 0, "t").unwrap();
        // A bare frame with no context in front carries no stamp.
        write_frame(&mut buf, &msg, 0, "t").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let (got, stamp) = read_frame_traced(&mut cursor, 0, "t").unwrap();
        assert_eq!(got, msg);
        assert_eq!(stamp, Some(5));
        let (got, stamp) = read_frame_traced(&mut cursor, 0, "t").unwrap();
        assert_eq!(got, msg);
        assert_eq!(stamp, None);
        // EOF directly after a trailing context is still a clean EOF.
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::trace_ctx(true, 9, 2, 6), 0, "t").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert!(read_frame_or_eof_traced(&mut cursor, true, 0, "t")
            .unwrap()
            .is_none());
    }

    #[test]
    fn io_error_mapping() {
        let te = io::Error::new(io::ErrorKind::TimedOut, "t");
        assert!(matches!(
            io_to_protocol(&te, 2, "lbl"),
            ProtocolError::Timeout {
                server: 2,
                label: "lbl"
            }
        ));
        let re = io::Error::new(io::ErrorKind::ConnectionReset, "r");
        assert!(matches!(
            io_to_protocol(&re, 1, "lbl"),
            ProtocolError::ServerCrashed { server: 1 }
        ));
    }
}
