//! Property-based tests for the temporal aggregate subsystem (DESIGN.md
//! §4b): for arbitrary workloads and arbitrary key × time rectangles, every
//! [`AggregateKind`] answered through the wheel/summary path equals a naive
//! fold over a full scan — bit for bit, including queries that straddle the
//! memory/chunk boundary and workloads with late (Δt side-store) tuples.

use proptest::prelude::*;
use waterwheel::agg::PartialAgg;
use waterwheel::core::{
    mix64, AggregateKind, Expr, KeyInterval, Query, QueryId, ServerId, SubQueryTarget,
    TimeInterval, Tuple,
};
use waterwheel::net::{Transport, COORDINATOR, META_SERVER};
use waterwheel::prelude::{SystemConfig, Waterwheel};
use waterwheel::server::SystemMetrics;

/// The measure under test. Deliberately not the default (payload length —
/// zero for `Tuple::bare`), so a path that forgets the registered measure
/// shows up as a wrong SUM/MIN/MAX/AVG rather than a silent all-zeros match.
fn measure(t: &Tuple) -> u64 {
    t.key.wrapping_mul(31).wrapping_add(t.ts) % 10_000
}

/// The oracle: fold every matching tuple of the full stream.
fn naive(tuples: &[Tuple], keys: &KeyInterval, times: &TimeInterval) -> PartialAgg {
    let mut agg = PartialAgg::empty();
    for t in tuples {
        if keys.contains(t.key) && times.contains(t.ts) {
            agg.insert(measure(t));
        }
    }
    agg
}

/// The oracle under a filter: fold the matching tuples `keep` passes.
fn naive_where(
    tuples: &[Tuple],
    keys: &KeyInterval,
    times: &TimeInterval,
    keep: impl Fn(&Tuple) -> bool,
) -> PartialAgg {
    let kept: Vec<Tuple> = tuples.iter().filter(|t| keep(t)).cloned().collect();
    naive(&kept, keys, times)
}

/// Keys spread across the whole u64 domain (so queries can cover whole key
/// slices) with sub-second *and* multi-second timestamps (so the time plan
/// produces both covered seconds and fringes). Insertion order is random in
/// time, which exercises the Δt side store: tuples arriving more than 5 s
/// (the default `late_visibility`) behind the watermark are diverted.
fn tuples_strategy(max: usize) -> impl Strategy<Value = Vec<Tuple>> {
    prop::collection::vec((0u64..16, 0u64..1_000, 0u64..60_000), 0..max).prop_map(|triples| {
        triples
            .into_iter()
            .map(|(slice, low, ts)| Tuple::bare(slice << 60 | low, ts))
            .collect()
    })
}

/// Rectangles built from key-slice corners plus jitter: most cover whole
/// slices and whole seconds (the summary path), the jitter adds partial-
/// slice and sub-second fringes (the scan path), and degenerate pairs
/// collapse to pure-fringe queries.
fn rect_strategy() -> impl Strategy<Value = (KeyInterval, TimeInterval)> {
    (
        (0u64..16, 0u64..16, 0u64..2_000),
        (0u64..60_000, 0u64..60_000),
    )
        .prop_map(|((s0, s1, jit), (t0, t1))| {
            let (lo_s, hi_s) = (s0.min(s1), s0.max(s1));
            let keys = KeyInterval::new(lo_s << 60, (hi_s << 60) + jit);
            (keys, TimeInterval::new(t0.min(t1), t0.max(t1)))
        })
}

fn expected_value(kind: AggregateKind, want: &PartialAgg) -> Option<f64> {
    match kind {
        AggregateKind::Count => Some(want.count as f64),
        AggregateKind::Sum => Some(want.sum as f64),
        AggregateKind::Min => want.min().map(|v| v as f64),
        AggregateKind::Max => want.max().map(|v| v as f64),
        AggregateKind::Avg => want.avg(),
    }
}

fn system(root: &std::path::Path) -> Waterwheel {
    let _ = std::fs::remove_dir_all(root);
    let mut cfg = SystemConfig::default();
    cfg.chunk_size_bytes = 8 * 1024;
    cfg.indexing_servers = 2;
    cfg.query_servers = 2;
    let ww = Waterwheel::builder(root).config(cfg).build().unwrap();
    ww.register_measure(measure);
    ww
}

proptest! {
    // Full-system cases are heavy; few cases, each covering many rects ×
    // all five kinds.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn aggregate_matches_full_scan_oracle(
        tuples in tuples_strategy(500),
        rects in prop::collection::vec(rect_strategy(), 1..4),
        flush_at in 0usize..500,
    ) {
        let root = std::env::temp_dir().join(format!(
            "ww-agg-prop-{}-{}",
            std::process::id(),
            suffix(&tuples, flush_at),
        ));
        let ww = system(&root);
        for (i, t) in tuples.iter().enumerate() {
            ww.insert(t.clone()).unwrap();
            if i == flush_at {
                // Half the stream ends up in summarized chunks, the rest in
                // live wheels — straddling rects combine both paths.
                ww.drain().unwrap();
                ww.flush_all().unwrap();
            }
        }
        ww.drain().unwrap();
        for (keys, times) in &rects {
            let want = naive(&tuples, keys, times);
            for kind in AggregateKind::ALL {
                let got = ww.aggregate(&Query::range(*keys, *times).aggregate(kind)).unwrap();
                prop_assert_eq!(got.agg, want);
                prop_assert_eq!(got.value(), expected_value(kind, &want));
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn aggregate_matches_oracle_with_fallback_forced(
        tuples in tuples_strategy(300),
        (keys, times) in rect_strategy(),
    ) {
        // A predicate forces every source to fold a filtered scan of its
        // share: the answer equals the filtered oracle, with no cell merged.
        let root = std::env::temp_dir().join(format!(
            "ww-agg-fb-{}-{}",
            std::process::id(),
            suffix(&tuples, 0),
        ));
        let ww = system(&root);
        for t in &tuples {
            ww.insert(t.clone()).unwrap();
        }
        ww.drain().unwrap();
        ww.flush_all().unwrap();
        let pred = (Expr::ts() % 3).lt(2);
        let got = ww
            .aggregate(&Query::with_predicate(keys, times, pred.clone()).aggregate(AggregateKind::Sum))
            .unwrap();
        prop_assert_eq!(got.agg, naive_where(&tuples, &keys, &times, |t| pred.accepts(t)));
        prop_assert_eq!(got.cells_merged, 0);
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// A fully-covered aggregate (whole key domain × whole seconds) over fully
/// flushed data is answered from chunk summaries alone: zero leaf pages
/// read (ISSUE 1 acceptance criterion).
#[test]
fn covered_aggregate_reads_no_leaf_pages() {
    let root = std::env::temp_dir().join(format!("ww-agg-zeroleaf-{}", std::process::id()));
    let ww = system(&root);
    for i in 0..2_000u64 {
        ww.insert(Tuple::bare(i << 48, i * 29 % 60_000)).unwrap();
    }
    ww.drain().unwrap();
    ww.flush_all().unwrap();

    let q = Query::range(KeyInterval::full(), TimeInterval::new(0, 59_999))
        .aggregate(AggregateKind::Count);
    let got = ww.aggregate(&q).unwrap();
    assert_eq!(got.agg.count, 2_000);
    assert_eq!(
        got.scanned_tuples, 0,
        "covered aggregate fell back to scans"
    );
    assert!(got.cells_merged > 0);

    let m = SystemMetrics::collect(&ww);
    assert_eq!(
        m.get("query.leaf_reads"),
        0,
        "summary-covered aggregate opened leaf pages:\n{m}"
    );
    assert_eq!(m.get("coordinator.agg_queries"), 1);
    assert_eq!(m.get("coordinator.agg_fallback_subqueries"), 0);
    assert!(m.get("indexing.summary_bytes_flushed") > 0);
    let _ = std::fs::remove_dir_all(&root);
}

/// Late tuples (older than Δt behind the watermark) go through the side
/// store; aggregates must still see them once drained.
#[test]
fn late_tuples_are_aggregated() {
    let root = std::env::temp_dir().join(format!("ww-agg-late-{}", std::process::id()));
    let ww = system(&root);
    let mut all = Vec::new();
    for i in 0..400u64 {
        let t = Tuple::bare(i << 48, 50_000 + i * 20);
        all.push(t.clone());
        ww.insert(t).unwrap();
    }
    ww.drain().unwrap();
    ww.flush_all().unwrap();
    // Stragglers 50 s behind the watermark: diverted to side stores.
    for i in 0..50u64 {
        let t = Tuple::bare(i << 48, 1_000 + i * 10);
        all.push(t.clone());
        ww.insert(t).unwrap();
    }
    ww.drain().unwrap();
    let keys = KeyInterval::full();
    let times = TimeInterval::new(0, 99_999);
    let got = ww
        .aggregate(&Query::range(keys, times).aggregate(AggregateKind::Avg))
        .unwrap();
    assert_eq!(got.agg, naive(&all, &keys, &times));
    assert_eq!(got.agg.count, 450);
}

/// One pump batch that straddles a second boundary and a key-slice
/// boundary: the wheel folds a batch as one partial aggregate per
/// `(second, slice)`, so neighbours across either boundary must stay apart.
#[test]
fn one_batch_across_a_second_and_a_slice_boundary_stays_exact() {
    let root = std::env::temp_dir().join(format!("ww-agg-boundary-{}", std::process::id()));
    let ww = system(&root);
    // Slices 0 and 1 of the 16 (both on the first indexing server), the
    // last 40 ms of second 7 and the first 40 ms of second 8.
    let mut all = Vec::new();
    for i in 0..80u64 {
        let key = (1u64 << 60) - 40 + i;
        for ts in [7_960 + i, 8_039 - i] {
            all.push(Tuple::bare(key, ts));
        }
    }
    for t in &all {
        ww.insert(t.clone()).unwrap();
    }
    // One drain: each server pumps its share as a single batch.
    ww.drain().unwrap();
    let slices = [
        KeyInterval::new(0, (1 << 60) - 1),
        KeyInterval::new(1 << 60, (2 << 60) - 1),
        KeyInterval::new(0, (2 << 60) - 1),
    ];
    let seconds = [
        TimeInterval::new(7_000, 7_999),
        TimeInterval::new(8_000, 8_999),
        TimeInterval::new(7_000, 8_999),
    ];
    let check = |ww: &Waterwheel| {
        for keys in &slices {
            for times in &seconds {
                let want = naive(&all, keys, times);
                assert!(want.count > 0);
                for kind in AggregateKind::ALL {
                    let got = ww
                        .aggregate(&Query::range(*keys, *times).aggregate(kind))
                        .unwrap();
                    assert_eq!(got.agg, want, "{keys:?} x {times:?}");
                    assert_eq!(got.scanned_tuples, 0, "whole cells need no scan");
                }
            }
        }
    };
    check(&ww); // from the live wheel
    ww.flush_all().unwrap();
    check(&ww); // from the chunk summary
    let _ = std::fs::remove_dir_all(&root);
}

/// Keys below 2²⁰, as Network's are: no 4-bit key slice is ever whole, so
/// no wheel cell applies and every aggregate rides on the leaf directory
/// and leaf scans. Timestamps arrive out of order, so some tuples go to the
/// side store.
fn narrow_tuples_strategy(max: usize) -> impl Strategy<Value = Vec<Tuple>> {
    prop::collection::vec((0u64..1 << 20, 0u64..60_000), 0..max).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(key, ts)| Tuple::bare(key, ts))
            .collect()
    })
}

/// Narrow-key rectangles, from a point to the whole key range, over
/// windows from sub-second to all time.
fn narrow_rect_strategy() -> impl Strategy<Value = (KeyInterval, TimeInterval)> {
    ((0u64..1 << 20, 0u64..1 << 20), (0u64..70_000, 0u64..70_000)).prop_map(
        |((k0, k1), (t0, t1))| {
            (
                KeyInterval::new(k0.min(k1), k0.max(k1)),
                TimeInterval::new(t0.min(t1), t0.max(t1)),
            )
        },
    )
}

/// A system whose chunks hold a few hundred tuples in leaves of about 64,
/// so rectangles wholly contain some leaves and cut others.
fn narrow_system(root: &std::path::Path, chunk_size_bytes: usize) -> Waterwheel {
    let _ = std::fs::remove_dir_all(root);
    let mut cfg = SystemConfig::default();
    cfg.chunk_size_bytes = chunk_size_bytes;
    cfg.indexing_servers = 2;
    cfg.query_servers = 2;
    cfg.skew_check_interval = 64;
    let ww = Waterwheel::builder(root).config(cfg).build().unwrap();
    ww.register_measure(measure);
    ww
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn aggregate_matches_oracle_on_narrow_keys(
        tuples in narrow_tuples_strategy(1_500),
        rects in prop::collection::vec(narrow_rect_strategy(), 1..4),
        flush_at in 0usize..1_500,
    ) {
        let root = std::env::temp_dir().join(format!(
            "ww-agg-narrow-{}-{}",
            std::process::id(),
            suffix(&tuples, flush_at),
        ));
        let ww = narrow_system(&root, 4 * 1024);
        for (i, t) in tuples.iter().enumerate() {
            ww.insert(t.clone()).unwrap();
            if i == flush_at {
                ww.drain().unwrap();
                ww.flush_all().unwrap();
            }
        }
        ww.drain().unwrap();
        let mut rects = rects;
        rects.push((KeyInterval::new(0, (1 << 20) - 1), TimeInterval::full()));
        for (keys, times) in &rects {
            let want = naive(&tuples, keys, times);
            for kind in AggregateKind::ALL {
                let got = ww.aggregate(&Query::range(*keys, *times).aggregate(kind)).unwrap();
                prop_assert_eq!(got.agg, want);
                prop_assert_eq!(got.value(), expected_value(kind, &want));
                prop_assert_eq!(got.cells_merged, 0);
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// Narrow-key data flushed into chunks of some fifty leaves each, then
/// aggregated over a rectangle whose window holds every chunk whole: the
/// rectangle's two key edges cut at most two leaves per chunk, every other
/// leaf inside it merges its directory entry, and only the cut leaves are
/// read and folded.
#[test]
fn an_aggregate_reads_only_the_leaves_it_cuts() {
    let root = std::env::temp_dir().join(format!("ww-agg-cuts-{}", std::process::id()));
    let ww = narrow_system(&root, 64 * 1024);
    let mut all = Vec::new();
    for i in 0..20_000u64 {
        let t = Tuple::bare(waterwheel::core::mix64(i) % (1 << 20), 1_000 + i * 2);
        all.push(t.clone());
        ww.insert(t).unwrap();
    }
    ww.drain().unwrap();
    ww.flush_all().unwrap();
    let chunks = ww.metadata().chunk_count() as u64;
    assert!(chunks >= 4, "{chunks} chunks");

    let keys = KeyInterval::new(1 << 18, 3 << 18);
    let times = TimeInterval::new(0, 59_999);
    let got = ww
        .aggregate(&Query::range(keys, times).aggregate(AggregateKind::Sum))
        .unwrap();
    let want = naive(&all, &keys, &times);
    assert_eq!(got.agg, want);
    assert_eq!(got.cells_merged, 0, "no slice is whole");
    let m = SystemMetrics::collect(&ww);
    assert!(
        m.get("query.leaf_reads") <= 2 * chunks,
        "{} leaf reads over {chunks} chunks:\n{m}",
        m.get("query.leaf_reads")
    );
    assert!(m.get("coordinator.agg_leaves_merged") > 0, "{m}");
    assert!(
        got.scanned_tuples * 10 < want.count,
        "scanned {} of {}",
        got.scanned_tuples,
        want.count
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// One aggregate over chunks and fresh data costs one metadata call (its
/// chunks and memory regions in one snapshot), one aggregate subquery per
/// decomposed target, and nothing else: no summary read, no range
/// subquery, no summary-extent call.
#[test]
fn an_aggregate_costs_one_rpc_per_target() {
    let root = std::env::temp_dir().join(format!("ww-agg-budget-{}", std::process::id()));
    let ww = system(&root);
    for i in 0..1_200u64 {
        ww.insert(Tuple::bare(i << 52, i * 37 % 50_000)).unwrap();
        if i == 800 {
            ww.drain().unwrap();
            ww.flush_all().unwrap();
        }
    }
    ww.drain().unwrap();
    let q = Query::range(
        KeyInterval::new(5, u64::MAX - 5),
        TimeInterval::new(999, 48_001),
    );
    let targets = ww.coordinator().decompose(&q, QueryId(u64::MAX)).unwrap();
    let in_memory = targets
        .iter()
        .filter(|sq| matches!(sq.target, SubQueryTarget::InMemory(_)))
        .count() as u64;
    let on_chunks = targets.len() as u64 - in_memory;
    assert!(in_memory > 0 && on_chunks > 0, "{in_memory} + {on_chunks}");

    let sent = |ww: &Waterwheel| {
        let mut by_dst = std::collections::BTreeMap::new();
        for ((src, dst), totals) in ww.transport().stats().per_link() {
            if src == COORDINATOR {
                by_dst.insert(dst, totals.sent);
            }
        }
        by_dst
    };
    let kinds = |ww: &Waterwheel| {
        let m = SystemMetrics::collect(ww);
        [
            "mem_subquery",
            "chunk_subquery",
            "mem_aggregate",
            "chunk_aggregate",
            "meta",
        ]
        .map(|kind| {
            let name = format!("rpc.latency.{kind}.count");
            m.rows()
                .iter()
                .filter(|r| r.name == name)
                .map(|r| r.value)
                .sum::<u64>()
        })
    };
    let (sent_before, kinds_before) = (sent(&ww), kinds(&ww));
    let got = ww
        .aggregate(&q.clone().aggregate(AggregateKind::Count))
        .unwrap();
    let (sent_after, kinds_after) = (sent(&ww), kinds(&ww));

    let mut all = Vec::new();
    for i in 0..1_200u64 {
        all.push(Tuple::bare(i << 52, i * 37 % 50_000));
    }
    assert_eq!(got.agg, naive(&all, &q.keys, &q.times));
    let delta: Vec<(ServerId, u64)> = sent_after
        .iter()
        .map(|(dst, n)| (*dst, n - sent_before.get(dst).copied().unwrap_or(0)))
        .filter(|(_, n)| *n > 0)
        .collect();
    let to = |pick: &dyn Fn(ServerId) -> bool| -> u64 {
        delta
            .iter()
            .filter(|(dst, _)| pick(*dst))
            .map(|(_, n)| n)
            .sum()
    };
    let indexing: Vec<ServerId> = ww.indexing_servers().iter().map(|s| s.id()).collect();
    let query: Vec<ServerId> = ww.query_servers().iter().map(|s| s.id()).collect();
    assert_eq!(to(&|dst| dst == META_SERVER), 1, "{delta:?}");
    assert_eq!(to(&|dst| indexing.contains(&dst)), in_memory, "{delta:?}");
    assert_eq!(to(&|dst| query.contains(&dst)), on_chunks, "{delta:?}");
    assert_eq!(
        delta.iter().map(|(_, n)| n).sum::<u64>(),
        1 + in_memory + on_chunks
    );
    let by_kind: Vec<u64> = (0..5).map(|k| kinds_after[k] - kinds_before[k]).collect();
    assert_eq!(
        by_kind,
        [0, 0, in_memory, on_chunks, 1],
        "range subqueries, aggregates, meta"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// Every query plans from one metadata call — its chunks, their measure
/// bounds and the memory regions, read in one snapshot: a range query, an
/// aggregate, and a measure-range query over several chunks, whose chunk
/// pruning asks for no summary extent of its own.
#[test]
fn every_query_makes_one_metadata_call() {
    let root = std::env::temp_dir().join(format!("ww-meta-budget-{}", std::process::id()));
    let ww = system(&root);
    let all: Vec<Tuple> = (0..2_400u64)
        .map(|i| Tuple::bare(i << 52, i * 37 % 50_000))
        .collect();
    for t in &all {
        ww.insert(t.clone()).unwrap();
    }
    ww.drain().unwrap();
    let q = Query::range(KeyInterval::full(), TimeInterval::new(1_000, 45_000));
    let chunks = ww.metadata().chunks_overlapping(&q.region()).len();
    assert!(chunks >= 3, "only {chunks} chunks");
    let meta_calls = || -> u64 {
        let links = ww.transport().stats().per_link();
        let link = links.iter().find(|(l, _)| *l == (COORDINATOR, META_SERVER));
        link.map_or(0, |(_, t)| t.sent)
    };
    let measured = q.clone().and_measure_between(2_000, 7_000);
    let matching = |q: &Query| {
        all.iter()
            .filter(|t| q.matches(t))
            .filter(|t| {
                q.measure_range
                    .is_none_or(|(lo, hi)| (lo..=hi).contains(&measure(t)))
            })
            .count()
    };

    let before = meta_calls();
    assert_eq!(ww.query(&q).unwrap().tuples.len(), matching(&q));
    assert_eq!(meta_calls() - before, 1, "a range query");

    let before = meta_calls();
    let got = ww
        .aggregate(&q.clone().aggregate(AggregateKind::Count))
        .unwrap();
    assert_eq!(got.agg, naive(&all, &q.keys, &q.times));
    assert_eq!(meta_calls() - before, 1, "an aggregate");

    let before = meta_calls();
    assert_eq!(
        ww.query(&measured).unwrap().tuples.len(),
        matching(&measured)
    );
    assert_eq!(
        meta_calls() - before,
        1,
        "a measure-range query over {chunks} chunks"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// A predicated aggregate and an attribute-equality aggregate each send
/// one aggregate subquery per target, and every source answers
/// with a share: no range subquery runs and no tuple crosses to the
/// coordinator. Neither merges a wheel or summary cell.
#[test]
fn a_filtered_aggregate_costs_one_rpc_per_target_and_moves_no_tuples() {
    let root = std::env::temp_dir().join(format!("ww-agg-filtered-{}", std::process::id()));
    let ww = system(&root);
    let all: Vec<Tuple> = (0..1_200u64)
        .map(|i| Tuple::bare(i << 52, i * 37 % 50_000))
        .collect();
    for (i, t) in all.iter().enumerate() {
        ww.insert(t.clone()).unwrap();
        if i == 800 {
            ww.drain().unwrap();
            ww.flush_all().unwrap();
        }
    }
    ww.drain().unwrap();
    let (keys, times) = (
        KeyInterval::new(5, u64::MAX - 5),
        TimeInterval::new(999, 48_001),
    );
    let targets = ww
        .coordinator()
        .decompose(&Query::range(keys, times), QueryId(u64::MAX))
        .unwrap();
    let in_memory = targets
        .iter()
        .filter(|sq| matches!(sq.target, SubQueryTarget::InMemory(_)))
        .count() as u64;
    assert!(in_memory > 0 && targets.len() as u64 > in_memory);

    let rpcs = |ww: &Waterwheel| {
        let m = SystemMetrics::collect(ww);
        [
            "mem_subquery",
            "chunk_subquery",
            "mem_aggregate",
            "chunk_aggregate",
        ]
        .map(|kind| {
            let name = format!("rpc.latency.{kind}.count");
            let rows = m.rows().iter().filter(|r| r.name == name);
            rows.map(|r| r.value).sum::<u64>()
        })
    };
    // Each filter, as a predicate and as the answer it must equal: every
    // other key, and an attribute equality on the top four key bits
    // (i / 256 for the keys above).
    let filters = [
        ((Expr::key() >> 52) % 2).equals(0),
        (Expr::key() >> 60).equals(2),
    ];
    for keep in filters {
        let q = Query::with_predicate(keys, times, keep.clone());
        let before = rpcs(&ww);
        let got = ww
            .aggregate(&q.clone().aggregate(AggregateKind::Sum))
            .unwrap();
        let after = rpcs(&ww);
        let want = naive_where(&all, &keys, &times, |t| keep.accepts(t));
        assert_eq!(got.agg, want, "{q:?}");
        assert_eq!(got.cells_merged, 0, "{q:?}");
        let on_chunks = targets.len() as u64 - in_memory;
        let sent: Vec<u64> = (0..4).map(|k| after[k] - before[k]).collect();
        assert_eq!(
            sent,
            [0, 0, in_memory, on_chunks],
            "{q:?}: range subqueries, then aggregates"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Cheap deterministic suffix so concurrent proptest cases get distinct
/// roots without pulling in a clock (keeps runs reproducible).
fn suffix(tuples: &[Tuple], salt: usize) -> u64 {
    let h = tuples.iter().take(16).fold(salt as u64, |h, t| {
        mix64(h ^ t.key.wrapping_mul(31).wrapping_add(t.ts))
    });
    h ^ tuples.len() as u64
}
