//! The unified cost report: spans + op counters + communication + heap.
//!
//! One [`CostReport`] describes one measured protocol execution; a suite
//! of them renders to the `spfe-cost-report/v3` JSON schema (what
//! `spfe-tables --json` writes to `BENCH_costs.json`) or to Markdown for
//! humans. v2 added per-span latency quantiles; v3 added the heap axis
//! (span-attributed `allocs`/`alloc_bytes`/`peak_live_bytes` plus a
//! report-level [`MemStat`], populated when built with `obs-alloc` and
//! zero otherwise). `v1`/`v2` files are still readable via
//! [`crate::suite::parse_suite`].

use crate::counter::{Op, OpsSnapshot};
use crate::json::escape;
use crate::mem::MemStat;
use crate::span::SpanStat;

/// Per-label × per-direction communication attribution.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LabelStat {
    /// The transcript message label (e.g. `"pir-query"`).
    pub label: String,
    /// Client→server bytes under this label.
    pub up_bytes: u64,
    /// Client→server messages under this label.
    pub up_msgs: u64,
    /// Server→client bytes under this label.
    pub down_bytes: u64,
    /// Server→client messages under this label.
    pub down_msgs: u64,
}

/// Communication totals for one execution.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CommStat {
    /// Total client→server bytes.
    pub up_bytes: u64,
    /// Total server→client bytes.
    pub down_bytes: u64,
    /// Total messages metered.
    pub messages: u64,
    /// Direction flips (2 half-rounds = 1 round).
    pub half_rounds: u32,
    /// Per-label breakdown, in first-use order.
    pub labels: Vec<LabelStat>,
}

/// One op counter in a report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpStat {
    /// Which operation.
    pub op: Op,
    /// How many.
    pub count: u64,
}

/// Spans + ops + communication for one measured protocol execution.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CostReport {
    /// Experiment id (e.g. `"e1"`).
    pub experiment: String,
    /// Protocol variant within the experiment (e.g. `"select1-gm"`).
    pub protocol: String,
    /// End-to-end wall-clock nanoseconds.
    pub elapsed_ns: u64,
    /// Span aggregates, sorted by path.
    pub spans: Vec<SpanStat>,
    /// Nonzero op counters, in [`Op`] order.
    pub ops: Vec<OpStat>,
    /// Communication totals and per-label attribution.
    pub comm: CommStat,
    /// Process-wide heap counters over the measurement window (zeros
    /// unless built with `obs-alloc`, see [`crate::mem`]).
    pub mem: MemStat,
}

impl CostReport {
    /// Assembles a report from the global instrumentation state captured
    /// over a measurement window (the caller resets before and snapshots
    /// after) plus the communication stats from the transcript.
    pub fn assemble(
        experiment: &str,
        protocol: &str,
        elapsed_ns: u64,
        spans: Vec<SpanStat>,
        ops: &OpsSnapshot,
        comm: CommStat,
        mem: MemStat,
    ) -> CostReport {
        CostReport {
            experiment: experiment.to_owned(),
            protocol: protocol.to_owned(),
            elapsed_ns,
            spans,
            ops: ops
                .nonzero()
                .map(|(op, count)| OpStat { op, count })
                .collect(),
            comm,
            mem,
        }
    }

    /// The count recorded for `op` (0 when absent).
    pub fn op_count(&self, op: Op) -> u64 {
        self.ops.iter().find(|s| s.op == op).map_or(0, |s| s.count)
    }

    /// Renders this report as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"experiment\":\"{}\",\"protocol\":\"{}\",\"elapsed_ns\":{},",
            escape(&self.experiment),
            escape(&self.protocol),
            self.elapsed_ns
        ));
        out.push_str("\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"path\":\"{}\",\"calls\":{},\"ns\":{},\"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{},\"allocs\":{},\"alloc_bytes\":{},\"peak_live_bytes\":{}}}",
                escape(&s.path),
                s.calls,
                s.ns,
                s.p50_ns,
                s.p95_ns,
                s.p99_ns,
                s.allocs,
                s.alloc_bytes,
                s.peak_live_bytes
            ));
        }
        out.push_str("],\"ops\":[");
        for (i, s) in self.ops.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"count\":{},\"deterministic\":{}}}",
                s.op.name(),
                s.count,
                s.op.deterministic()
            ));
        }
        out.push_str(&format!(
            "],\"comm\":{{\"up_bytes\":{},\"down_bytes\":{},\"messages\":{},\"half_rounds\":{},\"labels\":[",
            self.comm.up_bytes, self.comm.down_bytes, self.comm.messages, self.comm.half_rounds
        ));
        for (i, l) in self.comm.labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"label\":\"{}\",\"up_bytes\":{},\"up_msgs\":{},\"down_bytes\":{},\"down_msgs\":{}}}",
                escape(&l.label),
                l.up_bytes,
                l.up_msgs,
                l.down_bytes,
                l.down_msgs
            ));
        }
        out.push_str("]},");
        out.push_str(&format!(
            "\"mem\":{{\"allocs\":{},\"alloc_bytes\":{},\"free_bytes\":{},\"reallocs\":{},\"live_bytes\":{},\"peak_live_bytes\":{}}}}}",
            self.mem.allocs,
            self.mem.alloc_bytes,
            self.mem.free_bytes,
            self.mem.reallocs,
            self.mem.live_bytes,
            self.mem.peak_live_bytes
        ));
        out
    }

    /// Renders this report as a Markdown section.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "### {} · {}\n\nwall time: {:.3} ms · comm: {} B up / {} B down · rounds: {}\n",
            self.experiment,
            self.protocol,
            self.elapsed_ns as f64 / 1e6,
            self.comm.up_bytes,
            self.comm.down_bytes,
            self.comm.half_rounds.div_ceil(2),
        ));
        if self.mem.allocs > 0 {
            out.push_str(&format!(
                "heap: {} allocs / {} B · peak live: {} B\n",
                self.mem.allocs, self.mem.alloc_bytes, self.mem.peak_live_bytes
            ));
        }
        let with_heap = self.spans.iter().any(|s| s.alloc_bytes > 0);
        if !self.spans.is_empty() {
            if with_heap {
                out.push_str(
                    "\n| span | calls | total ms | allocs | alloc B | peak live B |\n|---|---:|---:|---:|---:|---:|\n",
                );
            } else {
                out.push_str("\n| span | calls | total ms |\n|---|---:|---:|\n");
            }
            for s in &self.spans {
                if with_heap {
                    out.push_str(&format!(
                        "| `{}` | {} | {:.3} | {} | {} | {} |\n",
                        s.path,
                        s.calls,
                        s.ns as f64 / 1e6,
                        s.allocs,
                        s.alloc_bytes,
                        s.peak_live_bytes
                    ));
                } else {
                    out.push_str(&format!(
                        "| `{}` | {} | {:.3} |\n",
                        s.path,
                        s.calls,
                        s.ns as f64 / 1e6
                    ));
                }
            }
        }
        if !self.ops.is_empty() {
            out.push_str("\n| op | count |\n|---|---:|\n");
            for s in &self.ops {
                out.push_str(&format!("| `{}` | {} |\n", s.op.name(), s.count));
            }
        }
        if !self.comm.labels.is_empty() {
            out.push_str(
                "\n| label | up bytes | up msgs | down bytes | down msgs |\n|---|---:|---:|---:|---:|\n",
            );
            for l in &self.comm.labels {
                out.push_str(&format!(
                    "| `{}` | {} | {} | {} | {} |\n",
                    l.label, l.up_bytes, l.up_msgs, l.down_bytes, l.down_msgs
                ));
            }
        }
        out
    }
}

/// Schema identifier emitted at the top of every cost-report suite.
pub const SCHEMA: &str = "spfe-cost-report/v3";

/// Renders a suite of reports as the `spfe-cost-report/v3` document
/// (pretty enough to diff, strict enough to parse).
pub fn suite_json(threads: usize, reports: &[CostReport]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"threads\": {threads},\n  \"reports\": [\n"
    ));
    for (i, r) in reports.iter().enumerate() {
        out.push_str("    ");
        out.push_str(&r.to_json());
        out.push_str(if i + 1 < reports.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    fn sample() -> CostReport {
        CostReport {
            experiment: "e1".into(),
            protocol: "select1-gm".into(),
            elapsed_ns: 1_234_567,
            spans: vec![
                SpanStat {
                    path: "select1".into(),
                    calls: 1,
                    ns: 1_000_000,
                    p50_ns: 1_048_575,
                    p95_ns: 1_048_575,
                    p99_ns: 1_048_575,
                    allocs: 10,
                    alloc_bytes: 2_048,
                    peak_live_bytes: 4_096,
                },
                SpanStat {
                    path: "select1/server-scan".into(),
                    calls: 2,
                    ns: 800_000,
                    p50_ns: 524_287,
                    p95_ns: 524_287,
                    p99_ns: 524_287,
                    allocs: 6,
                    alloc_bytes: 1_024,
                    peak_live_bytes: 4_000,
                },
            ],
            ops: vec![
                OpStat {
                    op: Op::Modexp,
                    count: 42,
                },
                OpStat {
                    op: Op::PoolSteals,
                    count: 3,
                },
            ],
            comm: CommStat {
                up_bytes: 100,
                down_bytes: 200,
                messages: 4,
                half_rounds: 2,
                labels: vec![LabelStat {
                    label: "pir-query".into(),
                    up_bytes: 100,
                    up_msgs: 2,
                    down_bytes: 0,
                    down_msgs: 0,
                }],
            },
            mem: MemStat {
                allocs: 16,
                alloc_bytes: 3_072,
                free_bytes: 2_000,
                reallocs: 2,
                live_bytes: 1_072,
                peak_live_bytes: 4_096,
            },
        }
    }

    #[test]
    fn json_parses_and_has_all_fields() {
        let doc = parse(&sample().to_json()).unwrap();
        assert_eq!(doc.get("experiment").and_then(Json::as_str), Some("e1"));
        assert_eq!(
            doc.get("protocol").and_then(Json::as_str),
            Some("select1-gm")
        );
        assert_eq!(
            doc.get("elapsed_ns").and_then(Json::as_u64),
            Some(1_234_567)
        );
        let spans = doc.get("spans").and_then(Json::as_arr).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            spans[1].get("path").and_then(Json::as_str),
            Some("select1/server-scan")
        );
        assert_eq!(
            spans[0].get("p50_ns").and_then(Json::as_u64),
            Some(1_048_575)
        );
        assert_eq!(spans[1].get("p99_ns").and_then(Json::as_u64), Some(524_287));
        assert_eq!(spans[0].get("allocs").and_then(Json::as_u64), Some(10));
        assert_eq!(
            spans[0].get("alloc_bytes").and_then(Json::as_u64),
            Some(2_048)
        );
        assert_eq!(
            spans[1].get("peak_live_bytes").and_then(Json::as_u64),
            Some(4_000)
        );
        let mem = doc.get("mem").unwrap();
        assert_eq!(mem.get("allocs").and_then(Json::as_u64), Some(16));
        assert_eq!(mem.get("reallocs").and_then(Json::as_u64), Some(2));
        assert_eq!(
            mem.get("peak_live_bytes").and_then(Json::as_u64),
            Some(4_096)
        );
        let ops = doc.get("ops").and_then(Json::as_arr).unwrap();
        assert_eq!(ops[0].get("name").and_then(Json::as_str), Some("modexp"));
        assert_eq!(ops[0].get("deterministic"), Some(&Json::Bool(true)));
        assert_eq!(ops[1].get("deterministic"), Some(&Json::Bool(false)));
        let comm = doc.get("comm").unwrap();
        assert_eq!(comm.get("half_rounds").and_then(Json::as_u64), Some(2));
        let labels = comm.get("labels").and_then(Json::as_arr).unwrap();
        assert_eq!(
            labels[0].get("label").and_then(Json::as_str),
            Some("pir-query")
        );
    }

    #[test]
    fn suite_json_wraps_with_schema() {
        let doc = parse(&suite_json(4, &[sample(), sample()])).unwrap();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
        assert_eq!(doc.get("threads").and_then(Json::as_u64), Some(4));
        assert_eq!(doc.get("reports").and_then(Json::as_arr).unwrap().len(), 2);
    }

    #[test]
    fn empty_suite_parses() {
        let doc = parse(&suite_json(1, &[])).unwrap();
        assert_eq!(doc.get("reports").and_then(Json::as_arr).unwrap().len(), 0);
    }

    #[test]
    fn markdown_mentions_everything() {
        let md = sample().to_markdown();
        assert!(md.contains("e1"));
        assert!(md.contains("select1/server-scan"));
        assert!(md.contains("modexp"));
        assert!(md.contains("pir-query"));
        assert!(md.contains("rounds: 1"));
        assert!(md.contains("peak live: 4096 B"), "{md}");
        assert!(md.contains("| allocs |"), "heap span columns: {md}");
    }

    #[test]
    fn markdown_omits_heap_columns_when_zero() {
        let mut r = sample();
        r.mem = MemStat::default();
        for s in &mut r.spans {
            s.allocs = 0;
            s.alloc_bytes = 0;
            s.peak_live_bytes = 0;
        }
        let md = r.to_markdown();
        assert!(!md.contains("heap:"), "{md}");
        assert!(!md.contains("| allocs |"), "{md}");
    }

    #[test]
    fn op_count_lookup() {
        let r = sample();
        assert_eq!(r.op_count(Op::Modexp), 42);
        assert_eq!(r.op_count(Op::GmEncrypt), 0);
    }

    #[test]
    fn assemble_keeps_nonzero_ops_only() {
        let snap = OpsSnapshot::default();
        let r = CostReport::assemble(
            "e",
            "p",
            1,
            Vec::new(),
            &snap,
            CommStat::default(),
            MemStat::default(),
        );
        assert!(r.ops.is_empty());
        assert_eq!(r.experiment, "e");
    }
}
