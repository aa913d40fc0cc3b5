//! Trace exporters: Perfetto/Chrome `trace_event` JSON and flamegraph
//! folded stacks.
//!
//! Both consume a captured [`Trace`] (see [`crate::trace::take`]):
//!
//! * [`perfetto_json`] emits the Chrome `trace_event` JSON object format —
//!   load the file in <https://ui.perfetto.dev> or `chrome://tracing` to
//!   scrub through span nesting, wire messages, fault injections and
//!   retries on a per-thread timeline.
//! * [`folded`] emits flamegraph folded-stack lines (`frame;frame weight`),
//!   one per span path, weighted by wall-time *self* nanoseconds, by a
//!   chosen op counter's span-attributed deltas, or (under `obs-alloc`)
//!   by span-attributed heap allocations/bytes — pipe through
//!   `flamegraph.pl` or paste into a flamegraph viewer.
//!
//! A trace truncated by the journal cap can contain spans whose close was
//! never recorded; both exporters repair such spans by closing them at the
//! thread's last observed timestamp, so the artifacts always load.

use crate::counter::Op;
use crate::json::escape;
use crate::trace::{EventKind, ThreadTrace, Trace};
use std::collections::BTreeMap;

/// What weights the folded-stack output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FoldWeight {
    /// Wall-clock self nanoseconds per span path.
    WallNs,
    /// Span-attributed deltas of one op counter.
    Op(Op),
    /// Span-attributed heap allocation counts (requires a trace captured
    /// under `obs-alloc`, see [`crate::mem`]).
    Allocs,
    /// Span-attributed heap allocated bytes (requires `obs-alloc`).
    AllocBytes,
}

/// Renders `trace` as a Chrome `trace_event` JSON object (the format
/// Perfetto and `chrome://tracing` load directly).
pub fn perfetto_json(trace: &Trace) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"displayTimeUnit\":\"ms\",\"otherData\":{{\"schema\":\"spfe-trace/v1\",\"cap\":{},\"dropped\":{}}},\"traceEvents\":[",
        trace.cap,
        trace.total_dropped()
    ));
    let mut first = true;
    let mut emit = |out: &mut String, ev: String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('\n');
        out.push_str(&ev);
    };
    for t in &trace.threads {
        let tid = t.thread;
        let mut open: Vec<&str> = Vec::new();
        let mut open_sessions: Vec<&str> = Vec::new();
        let mut last_ns = 0u64;
        for e in &t.events {
            last_ns = last_ns.max(e.t_ns);
            let ts = micros(e.t_ns);
            match e.kind {
                EventKind::SpanOpen => {
                    open.push(e.label);
                    emit(&mut out, format!(
                        "{{\"name\":\"{}\",\"cat\":\"span\",\"ph\":\"B\",\"ts\":{ts},\"pid\":1,\"tid\":{tid}}}",
                        escape(e.label)
                    ));
                }
                EventKind::SpanClose => {
                    // An unmatched close (recorder guards against these,
                    // but be safe on hand-built traces) is skipped.
                    if open.pop().is_some() {
                        emit(&mut out, format!(
                            "{{\"name\":\"{}\",\"cat\":\"span\",\"ph\":\"E\",\"ts\":{ts},\"pid\":1,\"tid\":{tid}}}",
                            escape(e.label)
                        ));
                    }
                }
                EventKind::OpDelta => emit(&mut out, format!(
                    "{{\"name\":\"{}\",\"cat\":\"op\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":1,\"tid\":{tid},\"args\":{{\"delta\":{}}}}}",
                    escape(e.label), e.a
                )),
                EventKind::MemDelta => emit(&mut out, format!(
                    "{{\"name\":\"{}\",\"cat\":\"mem\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":1,\"tid\":{tid},\"args\":{{\"delta\":{}}}}}",
                    escape(e.label), e.a
                )),
                EventKind::WireUp | EventKind::WireDown => {
                    let dir = if e.kind == EventKind::WireUp { "up" } else { "down" };
                    emit(&mut out, format!(
                        "{{\"name\":\"{}\",\"cat\":\"wire\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":1,\"tid\":{tid},\"args\":{{\"dir\":\"{dir}\",\"bytes\":{},\"server\":{}}}}}",
                        escape(e.label), e.a, e.b
                    ));
                }
                EventKind::Fault => emit(&mut out, format!(
                    "{{\"name\":\"fault:{}\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":1,\"tid\":{tid},\"args\":{{\"server\":{}}}}}",
                    escape(e.label), e.b
                )),
                EventKind::Retry => emit(&mut out, format!(
                    "{{\"name\":\"retry:{}\",\"cat\":\"retry\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":1,\"tid\":{tid},\"args\":{{\"attempt\":{},\"server\":{}}}}}",
                    escape(e.label), e.a, e.b
                )),
                EventKind::ViewSeal => emit(&mut out, format!(
                    "{{\"name\":\"view:{}\",\"cat\":\"view\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":1,\"tid\":{tid},\"args\":{{\"events\":{},\"server\":{}}}}}",
                    escape(e.label), e.a, e.b
                )),
                EventKind::NetSessionOpen => {
                    open_sessions.push(e.label);
                    emit(&mut out, format!(
                        "{{\"name\":\"session:{}\",\"cat\":\"session\",\"ph\":\"B\",\"ts\":{ts},\"pid\":1,\"tid\":{tid},\"args\":{{\"session\":{}}}}}",
                        escape(e.label), e.a
                    ));
                }
                EventKind::NetSessionClose => {
                    if open_sessions.pop().is_some() {
                        emit(&mut out, format!(
                            "{{\"name\":\"session:{}\",\"cat\":\"session\",\"ph\":\"E\",\"ts\":{ts},\"pid\":1,\"tid\":{tid}}}",
                            escape(e.label)
                        ));
                    }
                }
                EventKind::NetSend | EventKind::NetRecv => {
                    let dir = if e.kind == EventKind::NetSend { "send" } else { "recv" };
                    let (half_round, lamport) = crate::trace::unpack_net_stamp(e.b);
                    emit(&mut out, format!(
                        "{{\"name\":\"{}\",\"cat\":\"net\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":1,\"tid\":{tid},\"args\":{{\"dir\":\"{dir}\",\"bytes\":{},\"half_round\":{half_round},\"lamport\":{lamport}}}}}",
                        escape(e.label), e.a
                    ));
                }
            }
        }
        // Repair: close cap-truncated spans (and session slices) at the
        // last seen timestamp.
        while let Some(name) = open.pop() {
            let ts = micros(last_ns);
            emit(&mut out, format!(
                "{{\"name\":\"{}\",\"cat\":\"span\",\"ph\":\"E\",\"ts\":{ts},\"pid\":1,\"tid\":{tid}}}",
                escape(name)
            ));
        }
        while let Some(name) = open_sessions.pop() {
            let ts = micros(last_ns);
            emit(&mut out, format!(
                "{{\"name\":\"session:{}\",\"cat\":\"session\",\"ph\":\"E\",\"ts\":{ts},\"pid\":1,\"tid\":{tid}}}",
                escape(name)
            ));
        }
    }
    out.push_str("\n]}\n");
    out
}

fn micros(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1_000.0)
}

/// Escapes a span label for use as one folded-stack frame: `\`, `;` (the
/// frame separator) and `/` (the span-path separator) get a backslash.
pub fn escape_frame(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    for c in label.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            ';' => out.push_str("\\;"),
            '/' => out.push_str("\\/"),
            c => out.push(c),
        }
    }
    out
}

/// Renders `trace` as flamegraph folded-stack lines, one `frames weight`
/// line per distinct span stack (sorted), frames `;`-joined. Zero-weight
/// stacks are omitted; the output ends with a newline unless empty.
pub fn folded(trace: &Trace, weight: FoldWeight) -> String {
    let mut weights: BTreeMap<String, u64> = BTreeMap::new();
    for t in &trace.threads {
        fold_thread(t, weight, &mut weights);
    }
    let mut out = String::new();
    for (stack, w) in &weights {
        if *w > 0 {
            out.push_str(&format!("{stack} {w}\n"));
        }
    }
    out
}

struct Frame<'a> {
    label: &'a str,
    open_ns: u64,
    /// Wall time already attributed to children (for self-time).
    child_ns: u64,
}

fn fold_thread(t: &ThreadTrace, weight: FoldWeight, weights: &mut BTreeMap<String, u64>) {
    let mut stack: Vec<Frame<'_>> = Vec::new();
    let mut last_ns = 0u64;
    let key = |stack: &[Frame<'_>]| {
        stack
            .iter()
            .map(|f| escape_frame(f.label))
            .collect::<Vec<_>>()
            .join(";")
    };
    let close = |stack: &mut Vec<Frame<'_>>, t_ns: u64, weights: &mut BTreeMap<String, u64>| {
        let path = key(stack);
        let Some(frame) = stack.pop() else {
            return;
        };
        if weight == FoldWeight::WallNs {
            let total = t_ns.saturating_sub(frame.open_ns);
            let self_ns = total.saturating_sub(frame.child_ns);
            if let Some(parent) = stack.last_mut() {
                parent.child_ns = parent.child_ns.saturating_add(total);
            }
            *weights.entry(path).or_insert(0) += self_ns;
        }
    };
    for e in &t.events {
        last_ns = last_ns.max(e.t_ns);
        match e.kind {
            EventKind::SpanOpen => stack.push(Frame {
                label: e.label,
                open_ns: e.t_ns,
                child_ns: 0,
            }),
            EventKind::SpanClose => close(&mut stack, e.t_ns, weights),
            EventKind::OpDelta => {
                if let FoldWeight::Op(op) = weight {
                    if e.label == op.name() && !stack.is_empty() {
                        *weights.entry(key(&stack)).or_insert(0) += e.a;
                    }
                }
            }
            EventKind::MemDelta => {
                let wanted = match weight {
                    FoldWeight::Allocs => crate::mem::ALLOCS_LABEL,
                    FoldWeight::AllocBytes => crate::mem::ALLOC_BYTES_LABEL,
                    _ => continue,
                };
                if e.label == wanted && !stack.is_empty() {
                    *weights.entry(key(&stack)).or_insert(0) += e.a;
                }
            }
            _ => {}
        }
    }
    // Repair: close cap-truncated spans at the last seen timestamp.
    while !stack.is_empty() {
        close(&mut stack, last_ns, weights);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};
    use crate::trace::Event;

    fn ev(kind: EventKind, t_ns: u64, label: &'static str, a: u64, b: u64) -> Event {
        Event {
            kind,
            t_ns,
            label,
            a,
            b,
        }
    }

    /// outer [0, 1000] containing inner [200, 700], with op deltas and a
    /// wire message inside inner.
    fn sample_trace() -> Trace {
        Trace {
            threads: vec![ThreadTrace {
                thread: 0,
                events: vec![
                    ev(EventKind::SpanOpen, 0, "outer", 0, 0),
                    ev(EventKind::SpanOpen, 200, "inner", 0, 0),
                    ev(EventKind::WireUp, 300, "q", 64, 0),
                    ev(EventKind::WireDown, 400, "a", 32, 0),
                    ev(EventKind::OpDelta, 700, "modexp", 9, 0),
                    ev(EventKind::MemDelta, 700, "allocs", 3, 0),
                    ev(EventKind::MemDelta, 700, "alloc_bytes", 2048, 0),
                    ev(EventKind::SpanClose, 700, "inner", 0, 0),
                    ev(EventKind::Fault, 800, "drop", 0, 1),
                    ev(EventKind::Retry, 850, "q", 1, 1),
                    ev(EventKind::OpDelta, 1000, "modexp", 4, 0),
                    ev(EventKind::MemDelta, 1000, "alloc_bytes", 1024, 0),
                    ev(EventKind::SpanClose, 1000, "outer", 0, 0),
                ],
                dropped: 0,
            }],
            cap: 1024,
        }
    }

    #[test]
    fn perfetto_output_is_valid_json_with_matched_spans() {
        let doc = parse(&perfetto_json(&sample_trace())).unwrap();
        assert_eq!(
            doc.get("displayTimeUnit").and_then(Json::as_str),
            Some("ms")
        );
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let phase = |p: &str| {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(Json::as_str) == Some(p))
                .count()
        };
        assert_eq!(phase("B"), 2);
        assert_eq!(phase("E"), 2);
        assert_eq!(phase("i"), 9, "2 wire + 2 op + 3 mem + fault + retry");
        let mem = events
            .iter()
            .find(|e| e.get("cat").and_then(Json::as_str) == Some("mem"))
            .unwrap();
        assert_eq!(mem.get("name").and_then(Json::as_str), Some("allocs"));
        assert_eq!(
            mem.get("args").unwrap().get("delta").and_then(Json::as_u64),
            Some(3)
        );
        let wire = events
            .iter()
            .find(|e| e.get("cat").and_then(Json::as_str) == Some("wire"))
            .unwrap();
        let args = wire.get("args").unwrap();
        assert_eq!(args.get("bytes").and_then(Json::as_u64), Some(64));
        assert_eq!(args.get("dir").and_then(Json::as_str), Some("up"));
        let fault = events
            .iter()
            .find(|e| e.get("cat").and_then(Json::as_str) == Some("fault"))
            .unwrap();
        assert_eq!(fault.get("name").and_then(Json::as_str), Some("fault:drop"));
    }

    #[test]
    fn perfetto_repairs_unclosed_spans() {
        let trace = Trace {
            threads: vec![ThreadTrace {
                thread: 3,
                events: vec![
                    ev(EventKind::SpanOpen, 10, "truncated", 0, 0),
                    ev(EventKind::WireUp, 500, "q", 8, 0),
                ],
                dropped: 7,
            }],
            cap: 2,
        };
        let doc = parse(&perfetto_json(&trace)).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let ends: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("E"))
            .collect();
        assert_eq!(ends.len(), 1, "synthesized close");
        assert_eq!(
            ends[0].get("ts").and_then(Json::as_f64),
            Some(0.5),
            "closed at the last seen timestamp (500 ns = 0.5 µs)"
        );
        assert_eq!(
            doc.get("otherData")
                .unwrap()
                .get("dropped")
                .and_then(Json::as_u64),
            Some(7)
        );
    }

    #[test]
    fn net_events_export_session_slices_and_stamped_instants() {
        let stamp =
            |half_round: u32, lamport: u32| (u64::from(half_round) << 32) | u64::from(lamport);
        let trace = Trace {
            threads: vec![ThreadTrace {
                thread: 0,
                events: vec![
                    ev(EventKind::NetSessionOpen, 0, "xor2", 42, 1),
                    ev(EventKind::NetSend, 100, "q", 64, stamp(1, 1)),
                    ev(EventKind::NetRecv, 300, "a", 32, stamp(2, 3)),
                    ev(EventKind::NetSessionClose, 400, "xor2", 42, 1),
                    // A second session whose close was lost to the cap.
                    ev(EventKind::NetSessionOpen, 500, "hom_pir", 43, 0),
                ],
                dropped: 0,
            }],
            cap: 16,
        };
        let doc = parse(&perfetto_json(&trace)).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let sessions: Vec<_> = events
            .iter()
            .filter(|e| e.get("cat").and_then(Json::as_str) == Some("session"))
            .collect();
        assert_eq!(sessions.len(), 4, "2 opens + 1 close + 1 repaired close");
        let open = sessions
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("session:xor2"))
            .unwrap();
        let args = open.get("args").unwrap();
        assert_eq!(args.get("session").and_then(Json::as_u64), Some(42));
        let send = events
            .iter()
            .find(|e| e.get("cat").and_then(Json::as_str) == Some("net"))
            .unwrap();
        let args = send.get("args").unwrap();
        assert_eq!(args.get("dir").and_then(Json::as_str), Some("send"));
        assert_eq!(args.get("bytes").and_then(Json::as_u64), Some(64));
        assert_eq!(args.get("half_round").and_then(Json::as_u64), Some(1));
        assert_eq!(args.get("lamport").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn folded_wall_weights_are_self_time() {
        let out = folded(&sample_trace(), FoldWeight::WallNs);
        let lines: Vec<&str> = out.lines().collect();
        // outer self = 1000 − inner's 500; inner self = 500.
        assert_eq!(lines, vec!["outer 500", "outer;inner 500"]);
    }

    #[test]
    fn folded_op_weights_use_span_attributed_deltas() {
        let out = folded(&sample_trace(), FoldWeight::Op(Op::Modexp));
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines, vec!["outer 4", "outer;inner 9"]);
        // An op nobody counted folds to nothing.
        assert_eq!(folded(&sample_trace(), FoldWeight::Op(Op::GmEncrypt)), "");
    }

    #[test]
    fn folded_alloc_weights_use_mem_deltas() {
        let out = folded(&sample_trace(), FoldWeight::AllocBytes);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines, vec!["outer 1024", "outer;inner 2048"]);
        let out = folded(&sample_trace(), FoldWeight::Allocs);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines, vec!["outer;inner 3"], "only inner counted allocs");
    }

    #[test]
    fn folded_escapes_separator_characters_in_labels() {
        let trace = Trace {
            threads: vec![ThreadTrace {
                thread: 0,
                events: vec![
                    ev(EventKind::SpanOpen, 0, "a/b", 0, 0),
                    ev(EventKind::SpanOpen, 10, "c;d", 0, 0),
                    ev(EventKind::SpanClose, 40, "c;d", 0, 0),
                    ev(EventKind::SpanClose, 100, "a/b", 0, 0),
                ],
                dropped: 0,
            }],
            cap: 16,
        };
        let out = folded(&trace, FoldWeight::WallNs);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines, vec!["a\\/b 70", "a\\/b;c\\;d 30"]);
        assert_eq!(escape_frame("x\\y/z;w"), "x\\\\y\\/z\\;w");
    }

    #[test]
    fn folded_repairs_unclosed_spans_and_merges_threads() {
        let trace = Trace {
            threads: vec![
                ThreadTrace {
                    thread: 0,
                    events: vec![
                        ev(EventKind::SpanOpen, 0, "p", 0, 0),
                        ev(EventKind::SpanClose, 100, "p", 0, 0),
                    ],
                    dropped: 0,
                },
                ThreadTrace {
                    thread: 1,
                    events: vec![
                        ev(EventKind::SpanOpen, 0, "p", 0, 0),
                        ev(EventKind::WireUp, 60, "q", 1, 0),
                    ],
                    dropped: 0,
                },
            ],
            cap: 16,
        };
        let out = folded(&trace, FoldWeight::WallNs);
        assert_eq!(out, "p 160\n", "100 closed + 60 repaired, merged");
    }

    #[test]
    fn empty_trace_exports_cleanly() {
        let trace = Trace::default();
        assert!(parse(&perfetto_json(&trace)).is_ok());
        assert_eq!(folded(&trace, FoldWeight::WallNs), "");
    }
}
