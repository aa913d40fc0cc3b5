//! The benchmark's own span recorder and the one Perfetto file a traced
//! run writes.
//!
//! Spans sit at the benchmark's side of each layer boundary: a `session`
//! span around every measured session and a child span around each call
//! into a public function of the program. They are kept in memory and
//! written once, at exit, together with the program's own trace journals
//! (this process's and the server's), each on its own Perfetto process
//! track.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

struct Rec {
    id: u64,
    parent: u64,
    name: String,
    tid: u64,
    start_ns: u64,
    end_ns: u64,
}

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Rec>> = Mutex::new(Vec::new());

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
}

/// The instant every timestamp in the Perfetto file counts from.
pub fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn tid() -> u64 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Turns span recording on or off.
pub fn set_on(on: bool) {
    let _ = epoch();
    ON.store(on, Ordering::Relaxed);
}

/// An open span; recorded when dropped. Id 0 means recording is off.
pub struct Span {
    id: u64,
    parent: u64,
    name: String,
    start_ns: u64,
}

impl Span {
    /// The id children name as their parent.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Opens a span `name` under `parent` (0 for a root).
pub fn span(name: &str, parent: u64) -> Span {
    if !ON.load(Ordering::Relaxed) {
        return Span {
            id: 0,
            parent,
            name: String::new(),
            start_ns: 0,
        };
    }
    Span {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent,
        name: name.to_owned(),
        start_ns: now_ns(),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let rec = Rec {
            id: self.id,
            parent: self.parent,
            name: std::mem::take(&mut self.name),
            tid: tid(),
            start_ns: self.start_ns,
            end_ns: now_ns(),
        };
        if let Ok(mut spans) = SPANS.lock() {
            spans.push(rec);
        }
    }
}

/// Number of spans recorded so far.
pub fn recorded() -> usize {
    SPANS.lock().map_or(0, |s| s.len())
}

/// One program journal to merge: its `perfetto_json` text, the process
/// track to put it on, and where its own epoch sits on ours.
pub struct Journal {
    /// Perfetto process id of the track.
    pub pid: u32,
    /// Track name shown in the viewer.
    pub name: &'static str,
    /// Microseconds from our epoch to the journal's epoch.
    pub offset_us: f64,
    /// The journal as `spfe_obs::export::perfetto_json` renders it.
    pub json: String,
}

/// Writes the benchmark spans (process track 1) and every journal into
/// one Chrome `trace_event` JSON file at `path`.
pub fn write_perfetto(path: &std::path::Path, journals: &[Journal]) -> std::io::Result<()> {
    let mut events: Vec<String> = vec![meta(1, "perfbench")];
    let spans = std::mem::take(&mut *SPANS.lock().unwrap_or_else(|e| e.into_inner()));
    for s in &spans {
        events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{}}}}}",
            escape(&s.name),
            s.start_ns as f64 / 1e3,
            s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
            s.tid,
            s.id,
            s.parent
        ));
    }
    for j in journals {
        events.push(meta(j.pid, j.name));
        events.extend(
            j.json
                .lines()
                .map(|l| l.trim_end_matches(','))
                .filter(|l| l.starts_with("{\"name\""))
                .filter_map(|l| retarget(l, j.pid, j.offset_us)),
        );
    }
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(&events.join(",\n"));
    out.push_str("\n]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

fn meta(pid: u32, name: &str) -> String {
    format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":\"{name}\"}}}}"
    )
}

/// Moves one journal event onto process track `pid` and our time base.
fn retarget(event: &str, pid: u32, offset_us: f64) -> Option<String> {
    let (head, tail) = event.split_once("\"ts\":")?;
    let end = tail.find(',')?;
    let ts: f64 = tail[..end].parse().ok()?;
    let rest = tail[end..].replacen("\"pid\":1", &format!("\"pid\":{pid}"), 1);
    Some(format!("{head}\"ts\":{:.3}{rest}", ts + offset_us))
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::retarget;

    #[test]
    fn retarget_shifts_time_and_track() {
        let e = "{\"name\":\"a\",\"cat\":\"span\",\"ph\":\"B\",\"ts\":1.500,\"pid\":1,\"tid\":3}";
        assert_eq!(
            retarget(e, 7, 10.0).unwrap(),
            "{\"name\":\"a\",\"cat\":\"span\",\"ph\":\"B\",\"ts\":11.500,\"pid\":7,\"tid\":3}"
        );
    }
}
