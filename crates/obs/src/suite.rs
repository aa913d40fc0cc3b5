//! The reader for persisted `spfe-cost-report/v3` suites.
//!
//! [`parse_suite`] is strict about every field the schema defines —
//! spans with their latency quantiles and heap axis, each report's `mem`
//! object — and returns the reports as in-memory [`CostReport`]s, so the
//! `spfe-tables validate` and `trend` subcommands share one parser. A
//! document carrying any other schema tag is rejected.

use crate::counter::Op;
use crate::json::{parse, Json};
use crate::mem::MemStat;
use crate::report::{CommStat, CostReport, LabelStat, OpStat, SCHEMA};
use crate::span::SpanStat;

/// A parsed cost-report suite.
#[derive(Debug, Clone, PartialEq)]
pub struct Suite {
    /// The `threads` header field.
    pub threads: u64,
    /// Every report, in file order.
    pub reports: Vec<CostReport>,
}

impl Suite {
    /// The report for `(experiment, protocol)`, if present.
    pub fn find(&self, experiment: &str, protocol: &str) -> Option<&CostReport> {
        self.reports
            .iter()
            .find(|r| r.experiment == experiment && r.protocol == protocol)
    }
}

fn field_u64(obj: &Json, key: &str, ctx: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{ctx}: missing or non-integer `{key}`"))
}

fn field_str<'a>(obj: &'a Json, key: &str, ctx: &str) -> Result<&'a str, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{ctx}: missing `{key}`"))
}

/// Parses a suite document.
///
/// # Errors
///
/// A human-readable message on malformed JSON, an unknown schema tag, or
/// any missing/mistyped field.
pub fn parse_suite(src: &str) -> Result<Suite, String> {
    let doc = parse(src)?;
    let schema = field_str(&doc, "schema", "suite")?;
    if schema != SCHEMA {
        return Err(format!("unknown schema `{schema}` (expected `{SCHEMA}`)"));
    }
    let threads = field_u64(&doc, "threads", "suite")?;
    if threads == 0 {
        return Err("`threads` must be >= 1".into());
    }
    let raw = doc
        .get("reports")
        .and_then(Json::as_arr)
        .ok_or("missing `reports` array")?;
    let mut reports = Vec::with_capacity(raw.len());
    for (i, r) in raw.iter().enumerate() {
        reports.push(parse_report(r, i)?);
    }
    Ok(Suite { threads, reports })
}

fn parse_report(r: &Json, i: usize) -> Result<CostReport, String> {
    let ctx = format!("report {i}");
    let experiment = field_str(r, "experiment", &ctx)?.to_owned();
    let protocol = field_str(r, "protocol", &ctx)?.to_owned();
    let elapsed_ns = field_u64(r, "elapsed_ns", &ctx)?;

    let mut spans = Vec::new();
    for s in r
        .get("spans")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{ctx}: missing `spans`"))?
    {
        let path = field_str(s, "path", &ctx)?.to_owned();
        let sctx = format!("{ctx} span `{path}`");
        let calls = field_u64(s, "calls", &sctx)?;
        let ns = field_u64(s, "ns", &sctx)?;
        spans.push(SpanStat {
            path,
            calls,
            ns,
            p50_ns: field_u64(s, "p50_ns", &sctx)?,
            p95_ns: field_u64(s, "p95_ns", &sctx)?,
            p99_ns: field_u64(s, "p99_ns", &sctx)?,
            allocs: field_u64(s, "allocs", &sctx)?,
            alloc_bytes: field_u64(s, "alloc_bytes", &sctx)?,
            peak_live_bytes: field_u64(s, "peak_live_bytes", &sctx)?,
        });
    }

    let mut ops = Vec::new();
    for o in r
        .get("ops")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{ctx}: missing `ops`"))?
    {
        let name = field_str(o, "name", &ctx)?;
        let op = Op::from_name(name).ok_or_else(|| format!("{ctx}: unknown op name `{name}`"))?;
        let count = field_u64(o, "count", &format!("{ctx} op `{name}`"))?;
        if o.get("deterministic").is_none() {
            return Err(format!("{ctx}: op `{name}` missing `deterministic`"));
        }
        ops.push(OpStat { op, count });
    }

    let comm = r
        .get("comm")
        .ok_or_else(|| format!("{ctx}: missing `comm`"))?;
    let cctx = format!("{ctx} comm");
    let mut labels = Vec::new();
    for l in comm
        .get("labels")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{cctx}: missing `labels`"))?
    {
        let label = field_str(l, "label", &cctx)?.to_owned();
        let lctx = format!("{cctx} label `{label}`");
        labels.push(LabelStat {
            label,
            up_bytes: field_u64(l, "up_bytes", &lctx)?,
            up_msgs: field_u64(l, "up_msgs", &lctx)?,
            down_bytes: field_u64(l, "down_bytes", &lctx)?,
            down_msgs: field_u64(l, "down_msgs", &lctx)?,
        });
    }
    let half_rounds = field_u64(comm, "half_rounds", &cctx)?;
    let comm = CommStat {
        up_bytes: field_u64(comm, "up_bytes", &cctx)?,
        down_bytes: field_u64(comm, "down_bytes", &cctx)?,
        messages: field_u64(comm, "messages", &cctx)?,
        half_rounds: u32::try_from(half_rounds)
            .map_err(|_| format!("{cctx}: `half_rounds` out of range"))?,
        labels,
    };

    let m = r
        .get("mem")
        .ok_or_else(|| format!("{ctx}: missing `mem`"))?;
    let mctx = format!("{ctx} mem");
    let mem = MemStat {
        allocs: field_u64(m, "allocs", &mctx)?,
        alloc_bytes: field_u64(m, "alloc_bytes", &mctx)?,
        free_bytes: field_u64(m, "free_bytes", &mctx)?,
        reallocs: field_u64(m, "reallocs", &mctx)?,
        live_bytes: field_u64(m, "live_bytes", &mctx)?,
        peak_live_bytes: field_u64(m, "peak_live_bytes", &mctx)?,
    };

    Ok(CostReport {
        experiment,
        protocol,
        elapsed_ns,
        spans,
        ops,
        comm,
        mem,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::suite_json;

    fn sample_report() -> CostReport {
        CostReport {
            experiment: "e1".into(),
            protocol: "spir".into(),
            elapsed_ns: 5_000,
            spans: vec![SpanStat {
                path: "spir/server-scan".into(),
                calls: 2,
                ns: 4_000,
                p50_ns: 2_047,
                p95_ns: 2_047,
                p99_ns: 2_047,
                allocs: 12,
                alloc_bytes: 1_536,
                peak_live_bytes: 9_000,
            }],
            ops: vec![OpStat {
                op: Op::Modexp,
                count: 17,
            }],
            comm: CommStat {
                up_bytes: 64,
                down_bytes: 32,
                messages: 2,
                half_rounds: 2,
                labels: vec![LabelStat {
                    label: "spir-query".into(),
                    up_bytes: 64,
                    up_msgs: 1,
                    down_bytes: 0,
                    down_msgs: 0,
                }],
            },
            mem: MemStat {
                allocs: 20,
                alloc_bytes: 2_560,
                free_bytes: 2_048,
                reallocs: 1,
                live_bytes: 512,
                peak_live_bytes: 9_500,
            },
        }
    }

    #[test]
    fn v3_roundtrips_through_suite_json() {
        let reports = vec![sample_report()];
        let suite = parse_suite(&suite_json(4, &reports)).unwrap();
        assert_eq!(suite.threads, 4);
        assert_eq!(suite.reports, reports);
        assert!(suite.find("e1", "spir").is_some());
        assert!(suite.find("e1", "nope").is_none());
    }

    /// A hand-written v3 document with one report.
    const V3_DOC: &str = r#"{
      "schema": "spfe-cost-report/v3",
      "threads": 1,
      "reports": [
        {"experiment":"e1","protocol":"p","elapsed_ns":9,
         "spans":[{"path":"s","calls":1,"ns":7,"p50_ns":7,"p95_ns":7,"p99_ns":7,
                   "allocs":1,"alloc_bytes":8,"peak_live_bytes":8}],
         "ops":[{"name":"modexp","count":3,"deterministic":true}],
         "comm":{"up_bytes":1,"down_bytes":2,"messages":1,"half_rounds":1,
                 "labels":[{"label":"q","up_bytes":1,"up_msgs":1,"down_bytes":0,"down_msgs":0}]},
         "mem":{"allocs":1,"alloc_bytes":8,"free_bytes":8,"reallocs":0,"live_bytes":0,
                "peak_live_bytes":8}}
      ]
    }"#;

    #[test]
    fn v3_requires_heap_fields_and_mem() {
        assert_eq!(parse_suite(V3_DOC).unwrap().reports[0].mem.allocs, 1);
        let err = parse_suite(&V3_DOC.replace("\"allocs\":1,\"alloc_bytes\":8,\"peak", "\"peak"))
            .unwrap_err();
        assert!(err.contains("allocs"), "{err}");
        let no_mem = V3_DOC.find(",\n         \"mem\"").unwrap();
        let doc = format!("{}}}\n      ]\n    }}", &V3_DOC[..no_mem]);
        let err = parse_suite(&doc).unwrap_err();
        assert!(err.contains("missing `mem`"), "{err}");
    }

    #[test]
    fn unknown_schema_and_ops_rejected() {
        for tag in ["/v1", "/v2", "/v9"] {
            let err = parse_suite(&V3_DOC.replace("/v3", tag)).unwrap_err();
            assert!(err.contains("unknown schema"), "{err}");
        }
        let err = parse_suite(&V3_DOC.replace("modexp", "frobnicate")).unwrap_err();
        assert!(err.contains("unknown op name"), "{err}");
    }

    #[test]
    fn missing_fields_name_their_context() {
        let err = parse_suite(&V3_DOC.replace("\"threads\": 1,", "")).unwrap_err();
        assert!(err.contains("threads"), "{err}");
        let err = parse_suite(&V3_DOC.replace("\"calls\":1,", "")).unwrap_err();
        assert!(err.contains("calls"), "{err}");
        let err = parse_suite(&V3_DOC.replace("\"p50_ns\":7,", "")).unwrap_err();
        assert!(err.contains("p50_ns"), "{err}");
    }
}
