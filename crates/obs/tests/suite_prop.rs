//! Property tests for the suite reader (`suite.rs`): randomly generated
//! reports round-trip through the `spfe-cost-report/v3` schema — the
//! only one — with field-level equality, and a directory mixing in the
//! retired v1/v2 tags parses the v3 file and rejects the others.
//!
//! Documents are rendered by the production [`suite_json`].

use proptest::prelude::*;
use spfe_obs::{
    parse_suite, suite_json, CommStat, CostReport, LabelStat, MemStat, Op, OpStat, SpanStat,
};

type SpanTuple = (String, (u64, u64), (u64, u64, u64), (u64, u64, u64));
type LabelTuple = (String, u64, u64, u64, u64);

fn build_report(
    ids: (String, String, u64),
    spans: Vec<SpanTuple>,
    ops: Vec<(proptest::sample::Index, u64)>,
    comm: ((u64, u64, u64, u32), Vec<LabelTuple>),
    mem: (u64, u64, u64, (u64, u64, u64)),
) -> CostReport {
    let (experiment, protocol, elapsed_ns) = ids;
    let ((up_bytes, down_bytes, messages, half_rounds), labels) = comm;
    let (allocs, alloc_bytes, free_bytes, (reallocs, live_bytes, peak_live_bytes)) = mem;
    CostReport {
        experiment,
        protocol,
        elapsed_ns,
        spans: spans
            .into_iter()
            .map(
                |(path, (calls, ns), (p50_ns, p95_ns, p99_ns), (allocs, alloc_bytes, peak))| {
                    SpanStat {
                        path,
                        calls,
                        ns,
                        p50_ns,
                        p95_ns,
                        p99_ns,
                        allocs,
                        alloc_bytes,
                        peak_live_bytes: peak,
                    }
                },
            )
            .collect(),
        ops: ops
            .into_iter()
            .map(|(which, count)| OpStat {
                op: Op::ALL[which.index(Op::ALL.len())],
                count,
            })
            .collect(),
        comm: CommStat {
            up_bytes,
            down_bytes,
            messages,
            half_rounds,
            labels: labels
                .into_iter()
                .map(
                    |(label, up_bytes, up_msgs, down_bytes, down_msgs)| LabelStat {
                        label,
                        up_bytes,
                        up_msgs,
                        down_bytes,
                        down_msgs,
                    },
                )
                .collect(),
        },
        mem: MemStat {
            allocs,
            alloc_bytes,
            free_bytes,
            reallocs,
            live_bytes,
            peak_live_bytes,
        },
    }
}

fn span_strategy() -> impl Strategy<Value = SpanTuple> {
    (
        "[a-z/]{1,12}",
        (0u64..(1u64 << 62), 0u64..(1u64 << 62)),
        (0u64..(1u64 << 62), 0u64..(1u64 << 62), 0u64..(1u64 << 62)),
        (0u64..(1u64 << 62), 0u64..(1u64 << 62), 0u64..(1u64 << 62)),
    )
}

fn label_strategy() -> impl Strategy<Value = LabelTuple> {
    (
        "[a-z-]{1,10}",
        0u64..1_000_000,
        0u64..100,
        0u64..1_000_000,
        0u64..100,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_reports_roundtrip_under_every_schema_version(
        threads in 1u64..17,
        ids in ("[a-z0-9]{1,8}", "[a-z0-9]{1,10}", 0u64..(1u64 << 62)),
        spans in proptest::collection::vec(span_strategy(), 0..4),
        ops in proptest::collection::vec((any::<proptest::sample::Index>(), 0u64..(1u64 << 62)), 0..4),
        comm in ((0u64..(1u64 << 62), 0u64..(1u64 << 62), 0u64..1_000_000, 0u32..1_000), proptest::collection::vec(label_strategy(), 0..3)),
        mem in (0u64..(1u64 << 62), 0u64..(1u64 << 62), 0u64..(1u64 << 62), (0u64..(1u64 << 62), 0u64..(1u64 << 62), 0u64..(1u64 << 62))),
    ) {
        let reports = vec![build_report(ids, spans, ops, comm, mem)];

        // The production renderer must round-trip field-exactly.
        let v3 = parse_suite(&suite_json(threads as usize, &reports)).unwrap();
        prop_assert_eq!(v3.threads, threads);
        prop_assert_eq!(&v3.reports, &reports);
    }

    #[test]
    fn mixed_version_directories_parse_consistently(
        threads in 1u64..5,
        ids in ("[a-z0-9]{1,6}", "[a-z0-9]{1,6}", 0u64..(1u64 << 62)),
        spans in proptest::collection::vec(span_strategy(), 1..3),
        ops in proptest::collection::vec((any::<proptest::sample::Index>(), 1u64..1_000_000), 1..3),
    ) {
        // The same measurements under the current and two retired
        // schema tags: only the v3 file parses; the others are rejected
        // as unknown schemas, never half-read.
        let reports = vec![build_report(
            ids,
            spans,
            ops,
            ((64, 32, 2, 2), Vec::new()),
            (10, 1024, 512, (1, 512, 2048)),
        )];
        let v3 = suite_json(threads as usize, &reports);
        let parsed = parse_suite(&v3).unwrap();
        prop_assert_eq!(parsed.threads, threads);
        prop_assert_eq!(&parsed.reports, &reports);
        for tag in ["spfe-cost-report/v1", "spfe-cost-report/v2"] {
            let err = parse_suite(&v3.replace("spfe-cost-report/v3", tag)).unwrap_err();
            prop_assert!(err.contains("unknown schema"), "{}", err);
        }
    }
}
