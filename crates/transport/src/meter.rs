//! Communication transcripts: byte and round accounting.
//!
//! The paper's primary performance measure is communication complexity,
//! counted in bits, with rounds as a secondary measure ("a round consists of
//! a message from the client to each server followed by a reply from each
//! server", §1.2; some protocols cost 1.5 or 2.5 rounds because the server
//! speaks first). [`Transcript`] simulates the wire: every logical send
//! serializes the message, records its size and direction, and hands the
//! receiver a *re-decoded* copy — so tests exercise the codec and the meter
//! reports exact on-the-wire sizes.

use crate::wire::{Wire, WireError};

/// Direction of a message relative to the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Client → server `i`.
    ClientToServer(usize),
    /// Server `i` → client.
    ServerToClient(usize),
}

impl Direction {
    /// The server on the non-client end of the message.
    pub fn server(self) -> usize {
        match self {
            Direction::ClientToServer(s) | Direction::ServerToClient(s) => s,
        }
    }
}

/// A record of one message on the simulated wire.
#[derive(Debug, Clone)]
pub struct MessageRecord {
    /// Direction of travel.
    pub direction: Direction,
    /// Protocol-level label (e.g. `"spir-query"`).
    pub label: &'static str,
    /// Serialized size in bytes.
    pub bytes: usize,
    /// The round (in half-round units) during which it was sent.
    pub half_round: u32,
}

/// Aggregate communication statistics for a protocol execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommReport {
    /// Total client → server bytes.
    pub client_to_server: u64,
    /// Total server → client bytes.
    pub server_to_client: u64,
    /// Number of messages.
    pub messages: u64,
    /// Rounds in half-round units (2 units = 1 full round, so `3` = 1.5
    /// rounds, matching the paper's "2.5 rounds" accounting).
    pub half_rounds: u32,
}

impl CommReport {
    /// Total bytes in both directions.
    pub fn total_bytes(&self) -> u64 {
        self.client_to_server + self.server_to_client
    }

    /// Rounds as a fraction (e.g. `1.5`).
    pub fn rounds(&self) -> f64 {
        self.half_rounds as f64 / 2.0
    }
}

/// A metered, codec-exercising channel between a client and `k` servers.
///
/// # Examples
///
/// ```
/// use spfe_transport::Transcript;
/// let mut t = Transcript::new(1);
/// t.begin_round();
/// let received: u64 = t.client_to_server(0, "query", &42u64).unwrap();
/// assert_eq!(received, 42);
/// let reply: Vec<u8> = t.server_to_client(0, "answer", &vec![1u8, 2, 3]).unwrap();
/// assert_eq!(reply.len(), 3);
/// let report = t.report();
/// assert_eq!(report.half_rounds, 2);
/// assert_eq!(report.messages, 2);
/// ```
#[derive(Debug, Clone)]
pub struct Transcript {
    num_servers: usize,
    records: Vec<MessageRecord>,
    half_rounds: u32,
    /// Tracks which direction the current half-round serves.
    phase: Phase,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Idle,
    ClientSpeaking,
    ServerSpeaking,
}

impl Transcript {
    /// Creates a transcript for a client and `num_servers` servers.
    ///
    /// # Panics
    ///
    /// Panics if `num_servers == 0`.
    pub fn new(num_servers: usize) -> Self {
        assert!(num_servers > 0);
        Transcript {
            num_servers,
            records: Vec::new(),
            half_rounds: 0,
            phase: Phase::Idle,
        }
    }

    /// Number of servers on this channel.
    pub fn num_servers(&self) -> usize {
        self.num_servers
    }

    /// Explicitly starts a new client-initiated round. Usually unnecessary:
    /// sends auto-advance the round structure.
    pub fn begin_round(&mut self) {
        self.phase = Phase::Idle;
    }

    fn advance(&mut self, dir: Direction) -> u32 {
        let speaking = match dir {
            Direction::ClientToServer(_) => Phase::ClientSpeaking,
            Direction::ServerToClient(_) => Phase::ServerSpeaking,
        };
        if self.phase != speaking {
            self.half_rounds += 1;
            self.phase = speaking;
        }
        self.half_rounds
    }

    /// Sends a message from the client to server `server`, returning the
    /// value as decoded by the receiving side.
    ///
    /// # Errors
    ///
    /// Fails if the message does not survive an encode/decode roundtrip
    /// (which would indicate a codec bug — surfaced rather than masked).
    ///
    /// # Panics
    ///
    /// Panics if `server >= num_servers`.
    pub fn client_to_server<T: Wire>(
        &mut self,
        server: usize,
        label: &'static str,
        msg: &T,
    ) -> Result<T, WireError> {
        assert!(server < self.num_servers, "server index out of range");
        self.transfer(Direction::ClientToServer(server), label, msg)
    }

    /// Sends a message from server `server` to the client.
    ///
    /// # Errors
    ///
    /// Fails if the message does not survive an encode/decode roundtrip.
    ///
    /// # Panics
    ///
    /// Panics if `server >= num_servers`.
    pub fn server_to_client<T: Wire>(
        &mut self,
        server: usize,
        label: &'static str,
        msg: &T,
    ) -> Result<T, WireError> {
        assert!(server < self.num_servers, "server index out of range");
        self.transfer(Direction::ServerToClient(server), label, msg)
    }

    fn transfer<T: Wire>(
        &mut self,
        dir: Direction,
        label: &'static str,
        msg: &T,
    ) -> Result<T, WireError> {
        let bytes = msg.to_bytes();
        let half_round = self.advance(dir);
        self.records.push(MessageRecord {
            direction: dir,
            label,
            bytes: bytes.len(),
            half_round,
        });
        trace_wire(dir, label, bytes.len());
        T::from_bytes(&bytes)
    }

    /// Records a raw delivery of `bytes` bytes without exercising the
    /// codec — the byte-level entry point [`crate::Channel`] builds on.
    /// Advances the half-round structure exactly like a typed send.
    pub fn record_raw(&mut self, dir: Direction, label: &'static str, bytes: usize) {
        let half_round = self.advance(dir);
        self.records.push(MessageRecord {
            direction: dir,
            label,
            bytes,
            half_round,
        });
        trace_wire(dir, label, bytes);
    }

    /// Swaps the two most recent records if they share a half-round — the
    /// metering-level effect of a reorder-within-round transport fault.
    pub fn swap_last_two_in_round(&mut self) {
        let n = self.records.len();
        if n >= 2 && self.records[n - 1].half_round == self.records[n - 2].half_round {
            self.records.swap(n - 1, n - 2);
        }
    }

    /// All message records so far.
    pub fn records(&self) -> &[MessageRecord] {
        &self.records
    }

    /// Aggregate statistics.
    pub fn report(&self) -> CommReport {
        let mut rep = CommReport {
            half_rounds: self.half_rounds,
            messages: self.records.len() as u64,
            ..CommReport::default()
        };
        for r in &self.records {
            match r.direction {
                Direction::ClientToServer(_) => rep.client_to_server += r.bytes as u64,
                Direction::ServerToClient(_) => rep.server_to_client += r.bytes as u64,
            }
        }
        rep
    }

    /// Bytes sent with a given label (for per-phase cost attribution).
    pub fn bytes_for_label(&self, label: &str) -> u64 {
        self.records
            .iter()
            .filter(|r| r.label == label)
            .map(|r| r.bytes as u64)
            .sum()
    }

    /// Per-label × per-direction byte and message breakdown, in first-use
    /// order — the attribution table the cost reports embed.
    pub fn report_by_label(&self) -> Vec<spfe_obs::LabelStat> {
        let mut out: Vec<spfe_obs::LabelStat> = Vec::new();
        for r in &self.records {
            let stat = match out.iter_mut().find(|s| s.label == r.label) {
                Some(s) => s,
                None => {
                    out.push(spfe_obs::LabelStat {
                        label: r.label.to_owned(),
                        ..spfe_obs::LabelStat::default()
                    });
                    out.last_mut().unwrap()
                }
            };
            match r.direction {
                Direction::ClientToServer(_) => {
                    stat.up_bytes += r.bytes as u64;
                    stat.up_msgs += 1;
                }
                Direction::ServerToClient(_) => {
                    stat.down_bytes += r.bytes as u64;
                    stat.down_msgs += 1;
                }
            }
        }
        out
    }

    /// Full communication stats (totals + per-label attribution) in the
    /// shape [`spfe_obs::CostReport`] embeds.
    pub fn comm_stat(&self) -> spfe_obs::CommStat {
        let rep = self.report();
        spfe_obs::CommStat {
            up_bytes: rep.client_to_server,
            down_bytes: rep.server_to_client,
            messages: rep.messages,
            half_rounds: rep.half_rounds,
            labels: self.report_by_label(),
        }
    }

    /// The per-party shape views of this transcript: the client (who
    /// observes every message) followed by each server (who observes only
    /// the messages on its own wire), in the form the leakage-audit layer
    /// fingerprints ([`spfe_obs::audit`]). `sent` is relative to the
    /// observing party. Op vectors are left empty — op counters are
    /// process-global, so their windowing belongs to the caller.
    ///
    /// Each call also marks the sealed view boundaries in the event
    /// journal (no-op unless tracing is on).
    pub fn party_views(&self) -> Vec<spfe_obs::audit::PartyView> {
        use spfe_obs::audit::{Party, PartyView, ViewEvent};
        let mut views = Vec::with_capacity(self.num_servers + 1);
        views.push(PartyView::new(Party::Client));
        for s in 0..self.num_servers {
            views.push(PartyView::new(Party::Server(s)));
        }
        for r in &self.records {
            let (client_sent, server) = match r.direction {
                Direction::ClientToServer(s) => (true, s),
                Direction::ServerToClient(s) => (false, s),
            };
            let event = |sent: bool| ViewEvent {
                half_round: r.half_round,
                sent,
                label: r.label.to_owned(),
                bytes: r.bytes as u64,
            };
            views[0].events.push(event(client_sent));
            views[server + 1].events.push(event(!client_sent));
        }
        for v in &views {
            match v.party {
                Party::Client => spfe_obs::view_event(true, 0, v.events.len() as u64),
                Party::Server(i) => spfe_obs::view_event(false, i, v.events.len() as u64),
            }
        }
        views
    }

    /// Clears all records and round state so the transcript can be reused
    /// for another execution (the server count is kept).
    pub fn reset(&mut self) {
        self.records.clear();
        self.half_rounds = 0;
        self.phase = Phase::Idle;
    }
}

/// Server-side session accounting over raw [`crate::Frame`]s.
///
/// A serving peer cannot reuse [`Transcript`] — transcript labels are
/// `&'static str` protocol identifiers, while frames carry runtime
/// strings — but the operational metrics registry (`spfe-obs::metrics`)
/// only needs the totals a transcript would report: logical payload bytes
/// and message counts per direction plus the half-round structure.
/// `FlowMeter` recovers those from the frames themselves.
///
/// The serving side observes the frames it receives (all client →
/// server) and the replies it originates, each once by its direction
/// flag. Half-rounds come from the sender's stamps: the client stamps
/// every frame with its own metered transcript counter and the Bye frame
/// with the final value, so for a cleanly closed session the maximum
/// stamp observed equals the client-side half-round total.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowMeter {
    /// Payload bytes of client → server messages.
    pub bytes_in: u64,
    /// Payload bytes of server → client messages.
    pub bytes_out: u64,
    /// Client → server `Msg` frames observed.
    pub frames_in: u64,
    /// Server → client `Msg` frames observed.
    pub frames_out: u64,
    half_round_max: u32,
}

impl FlowMeter {
    /// A fresh meter.
    pub fn new() -> FlowMeter {
        FlowMeter::default()
    }

    /// Meters one `Msg` frame by its direction flag.
    pub fn observe_msg(&mut self, frame: &crate::Frame) {
        if frame.client_to_server {
            self.bytes_in += frame.payload.len() as u64;
            self.frames_in += 1;
        } else {
            self.bytes_out += frame.payload.len() as u64;
            self.frames_out += 1;
        }
        self.half_round_max = self.half_round_max.max(frame.half_round);
    }

    /// Folds a Bye frame's final half-round stamp (Bye carries no metered
    /// payload).
    pub fn observe_bye(&mut self, frame: &crate::Frame) {
        self.half_round_max = self.half_round_max.max(frame.half_round);
    }

    /// The highest half-round stamp observed — the client's half-round
    /// total when the session closed with a stamped Bye.
    pub fn half_rounds(&self) -> u32 {
        self.half_round_max
    }
}

/// Mirrors a metered delivery into the event journal (no-op unless
/// tracing is on).
fn trace_wire(dir: Direction, label: &'static str, bytes: usize) {
    spfe_obs::wire_event(
        matches!(dir, Direction::ClientToServer(_)),
        dir.server(),
        label,
        bytes as u64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_accounting_full_round() {
        let mut t = Transcript::new(2);
        t.client_to_server(0, "q", &1u64).unwrap();
        t.client_to_server(1, "q", &2u64).unwrap();
        t.server_to_client(0, "a", &3u64).unwrap();
        t.server_to_client(1, "a", &4u64).unwrap();
        let rep = t.report();
        assert_eq!(rep.half_rounds, 2);
        assert!((rep.rounds() - 1.0).abs() < f64::EPSILON);
        assert_eq!(rep.messages, 4);
        assert_eq!(rep.client_to_server, 16);
        assert_eq!(rep.server_to_client, 16);
    }

    #[test]
    fn server_first_gives_half_round() {
        // §3.3.2 second variant: "a message from the server followed by a
        // standard round" = 1.5 rounds.
        let mut t = Transcript::new(1);
        t.server_to_client(0, "keys", &vec![0u8; 10]).unwrap();
        t.client_to_server(0, "query", &1u64).unwrap();
        t.server_to_client(0, "answer", &2u64).unwrap();
        assert_eq!(t.report().half_rounds, 3);
        assert!((t.report().rounds() - 1.5).abs() < f64::EPSILON);
    }

    #[test]
    fn report_by_label_splits_directions() {
        let mut t = Transcript::new(1);
        t.client_to_server(0, "q", &vec![0u8; 5]).unwrap();
        t.client_to_server(0, "q", &vec![0u8; 7]).unwrap();
        t.server_to_client(0, "a", &vec![0u8; 11]).unwrap();
        let labels = t.report_by_label();
        assert_eq!(labels.len(), 2);
        assert_eq!(labels[0].label, "q");
        // Each Vec<u8> carries an 8-byte length prefix on the wire.
        assert_eq!(labels[0].up_bytes, 5 + 8 + 7 + 8);
        assert_eq!(labels[0].up_msgs, 2);
        assert_eq!(labels[0].down_msgs, 0);
        assert_eq!(labels[1].label, "a");
        assert_eq!(labels[1].down_bytes, 11 + 8);
        assert_eq!(labels[1].down_msgs, 1);
        let comm = t.comm_stat();
        assert_eq!(comm.up_bytes, labels[0].up_bytes);
        assert_eq!(comm.down_bytes, labels[1].down_bytes);
        assert_eq!(comm.messages, 3);
        assert_eq!(comm.labels, labels);
    }

    #[test]
    fn reset_allows_reuse() {
        let mut t = Transcript::new(2);
        t.client_to_server(1, "q", &1u64).unwrap();
        t.server_to_client(1, "a", &2u64).unwrap();
        assert_eq!(t.report().messages, 2);
        t.reset();
        assert_eq!(t.report(), CommReport::default());
        assert!(t.records().is_empty());
        assert_eq!(t.num_servers(), 2, "server count survives reset");
        t.client_to_server(0, "q", &3u64).unwrap();
        assert_eq!(t.report().half_rounds, 1);
    }

    #[test]
    fn consecutive_same_direction_is_one_half_round() {
        let mut t = Transcript::new(3);
        for s in 0..3 {
            t.client_to_server(s, "q", &(s as u64)).unwrap();
        }
        assert_eq!(t.report().half_rounds, 1);
    }

    #[test]
    fn two_round_protocol() {
        let mut t = Transcript::new(1);
        for _ in 0..2 {
            t.client_to_server(0, "q", &1u64).unwrap();
            t.server_to_client(0, "a", &1u64).unwrap();
        }
        assert_eq!(t.report().half_rounds, 4);
        assert!((t.report().rounds() - 2.0).abs() < f64::EPSILON);
    }

    #[test]
    fn label_attribution() {
        let mut t = Transcript::new(1);
        t.client_to_server(0, "spir", &vec![0u8; 100]).unwrap();
        t.client_to_server(0, "mpc", &vec![0u8; 50]).unwrap();
        assert_eq!(t.bytes_for_label("spir"), 108); // 8-byte length prefix
        assert_eq!(t.bytes_for_label("mpc"), 58);
        assert_eq!(t.bytes_for_label("nope"), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_server_index_panics() {
        let mut t = Transcript::new(1);
        let _ = t.client_to_server(1, "q", &1u64);
    }

    #[test]
    fn begin_round_and_rounds_semantics() {
        // Auto-advance: a direction flip opens a new half-round; repeats
        // in the same direction do not.
        let mut t = Transcript::new(2);
        t.client_to_server(0, "q", &1u64).unwrap();
        t.client_to_server(1, "q", &2u64).unwrap();
        assert_eq!(t.report().half_rounds, 1, "same direction, one half-round");
        t.server_to_client(0, "a", &3u64).unwrap();
        assert_eq!(t.report().half_rounds, 2);
        assert!((t.report().rounds() - 1.0).abs() < f64::EPSILON);
        // begin_round resets the phase, so the *next* send opens a fresh
        // half-round even in the direction that was already speaking.
        t.begin_round();
        t.server_to_client(1, "a2", &4u64).unwrap();
        assert_eq!(
            t.report().half_rounds,
            3,
            "begin_round forces a new half-round"
        );
        assert!(
            (t.report().rounds() - 1.5).abs() < f64::EPSILON,
            "fractional"
        );
        // A redundant begin_round before a natural flip changes nothing.
        t.begin_round();
        t.client_to_server(0, "q2", &5u64).unwrap();
        assert_eq!(t.report().half_rounds, 4);
        // Records carry the half-round they were sent in (1-based).
        let rounds: Vec<u32> = t.records().iter().map(|r| r.half_round).collect();
        assert_eq!(rounds, vec![1, 1, 2, 3, 4]);
    }

    #[test]
    fn party_views_split_the_wire_per_party() {
        let mut t = Transcript::new(2);
        t.client_to_server(0, "q", &1u64).unwrap();
        t.client_to_server(1, "q", &2u64).unwrap();
        t.server_to_client(0, "a", &vec![1u8, 2, 3]).unwrap();
        let views = t.party_views();
        assert_eq!(views.len(), 3, "client + 2 servers");
        let client = &views[0];
        assert_eq!(client.party, spfe_obs::audit::Party::Client);
        assert_eq!(client.events.len(), 3, "client observes every message");
        assert!(client.events[0].sent && client.events[1].sent);
        assert!(!client.events[2].sent, "the answer was received");
        let s0 = &views[1];
        assert_eq!(s0.party, spfe_obs::audit::Party::Server(0));
        assert_eq!(s0.events.len(), 2, "server 0 sees only its own wire");
        assert!(!s0.events[0].sent, "the query arrived at server 0");
        assert!(s0.events[1].sent, "the answer left server 0");
        assert_eq!(s0.events[1].bytes, 3 + 8, "Vec<u8> length prefix included");
        assert_eq!(s0.events[1].half_round, 2);
        let s1 = &views[2];
        assert_eq!(s1.events.len(), 1, "server 1 never answered");
        // Same wire shape ⇒ same fingerprint; different wires differ.
        assert_eq!(t.party_views()[1].fingerprint(), s0.fingerprint());
        assert_ne!(s0.fingerprint(), s1.fingerprint());
        assert_ne!(client.fingerprint(), s0.fingerprint());
    }

    #[test]
    fn decoded_value_matches_sent() {
        let mut t = Transcript::new(1);
        let v = vec![(1u64, vec![2u8, 3]), (4u64, vec![])];
        let got = t.client_to_server(0, "q", &v).unwrap();
        assert_eq!(got, v);
    }

    #[test]
    fn flow_meter_splits_directions_and_tracks_stamps() {
        use crate::frame::{Frame, FrameKind};
        let mut flow = FlowMeter::new();
        flow.observe_msg(&Frame::msg(true, 7, 1, 0, "q", vec![0; 10]));
        flow.observe_msg(&Frame::msg(true, 7, 1, 1, "q", vec![0; 4]));
        flow.observe_msg(&Frame::msg(false, 7, 2, 0, "a", vec![0; 3]));
        assert_eq!((flow.bytes_in, flow.bytes_out), (14, 3));
        assert_eq!((flow.frames_in, flow.frames_out), (2, 1));
        assert_eq!(flow.half_rounds(), 2, "max stamp so far");
        // The Bye stamp carries the client's final half-round total and
        // meters no bytes.
        flow.observe_bye(&Frame {
            kind: FrameKind::Bye,
            client_to_server: true,
            session: 7,
            half_round: 4,
            server: 0,
            label: String::new(),
            payload: Vec::new(),
        });
        assert_eq!(flow.half_rounds(), 4);
        assert_eq!((flow.bytes_in, flow.frames_in), (14, 2));
    }
}
