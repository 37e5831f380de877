//! Compressed ↔ raw columnar chunk equivalence oracle and MIN/MAX pruning
//! proof.
//!
//! Two systems differing only in `chunk_compression` ingest the identical
//! stream and must answer every range query exactly like the full-scan
//! oracle, and every predicate query and aggregate byte-identically: payload
//! compression changes bytes on disk, never answers. A separate test
//! shows the persisted measure bounds actually skip whole chunks (and
//! leaves) for a disjoint `measure_range` — without changing the answer
//! relative to the full-scan oracle filtered by the measure.

use std::sync::atomic::Ordering;
use waterwheel::agg::PartialAgg;
use waterwheel::core::AggregateKind;
use waterwheel::prelude::*;
use waterwheel::server::SystemMetrics;
use waterwheel::workloads::{oracle, QueryGen, TDriveConfig, TDriveGen, TemporalShape};

fn fresh_root(name: &str) -> std::path::PathBuf {
    let root = std::env::temp_dir().join(format!("ww-colv2-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

fn system(name: &str, compression: bool) -> Waterwheel {
    let mut cfg = SystemConfig::default();
    cfg.chunk_size_bytes = 32 * 1024;
    cfg.indexing_servers = 2;
    cfg.query_servers = 2;
    // Frequent skew checks so the template actually splits into many
    // leaves at these small test scales — per-leaf bounds need >1 leaf.
    cfg.skew_check_interval = 64;
    cfg.chunk_compression = compression;
    let ww = Waterwheel::builder(fresh_root(name))
        .config(cfg)
        .build()
        .unwrap();
    ww.register_measure(measure);
    ww
}

/// Measure under test: the key itself, so chunks flushed from disjoint key
/// batches also carry disjoint MIN/MAX measure bounds.
fn measure(t: &Tuple) -> u64 {
    t.key
}

fn normalized(mut tuples: Vec<Tuple>) -> Vec<Tuple> {
    tuples.sort_by(|a, b| (a.key, a.ts, &a.payload).cmp(&(b.key, b.ts, &b.payload)));
    tuples
}

/// The compressed and the uncompressed system answer the default T-Drive
/// stream identically — range queries against the full-scan oracle,
/// predicate queries, measure-range queries, and all aggregate kinds.
#[test]
fn compressed_and_raw_v2_answer_byte_identically() {
    let systems = [system("v2", true), system("v2-raw", false)];
    let mut fleet = TDriveGen::new(TDriveConfig {
        taxis: 200,
        seed: 9,
        ..TDriveConfig::default()
    });
    let mut all: Vec<Tuple> = Vec::new();
    // First half flushed to chunks, second half left in memory, so queries
    // cross the chunk/memory boundary in one answer.
    for i in 0..8_000 {
        let t = fleet.next().unwrap();
        all.push(t.clone());
        for ww in &systems {
            ww.insert(t.clone()).unwrap();
        }
        if i == 4_999 {
            for ww in &systems {
                ww.drain().unwrap();
                ww.flush_all().unwrap();
            }
        }
    }
    for ww in &systems {
        ww.drain().unwrap();
        assert!(ww.metadata().chunk_count() > 0, "nothing reached chunks");
    }

    let now = fleet.now_ms();
    let mut qg = QueryGen::new(KeyInterval::full(), 41);
    for selectivity in [0.01, 0.1, 0.5] {
        for shape in TemporalShape::paper_set() {
            let q = qg.query(selectivity, shape, 0, now);
            let want = oracle(&all, &q.keys, &q.times);
            for ww in &systems {
                let got = normalized(ww.query(&q).unwrap().tuples);
                assert_eq!(got, want, "sel={selectivity} shape={}", shape.label());
            }
        }
    }

    // Predicate + measure-range queries and aggregates: compare the
    // systems against each other (the compressed answer is the reference).
    let probes = [
        Query::range(KeyInterval::full(), TimeInterval::new(0, now)),
        Query::with_predicate(
            KeyInterval::full(),
            TimeInterval::new(0, now),
            (Expr::ts() % 3).equals(0),
        ),
        Query::range(KeyInterval::full(), TimeInterval::new(0, now))
            .and_measure_between(u64::MAX / 4, u64::MAX / 2),
    ];
    for q in &probes {
        let want = normalized(systems[0].query(q).unwrap().tuples);
        for ww in &systems[1..] {
            assert_eq!(normalized(ww.query(q).unwrap().tuples), want);
        }
        for kind in AggregateKind::ALL {
            let want = systems[0].aggregate(&q.clone().aggregate(kind)).unwrap();
            for ww in &systems[1..] {
                let got = ww.aggregate(&q.clone().aggregate(kind)).unwrap();
                assert_eq!(got.agg, want.agg, "kind={kind:?}");
                assert_eq!(got.value(), want.value(), "kind={kind:?}");
            }
        }
    }

    // The query battery above revisits the same chunks many times, so each
    // system must have served repeat scans from decoded cached leaves.
    for ww in &systems {
        let mut hits = 0u64;
        let mut misses = 0u64;
        let mut selected = 0u64;
        for qs in ww.query_servers() {
            hits += qs.stats().column_decode_hits.load(Ordering::Relaxed);
            misses += qs.stats().column_decode_misses.load(Ordering::Relaxed);
            selected += qs.stats().scan_selected_rows.load(Ordering::Relaxed);
        }
        assert!(hits > 0, "repeat scans never hit the decoded cache");
        assert!(misses > 0, "first touch of each leaf must count a decode");
        assert!(selected > 0, "columnar scans materialized no rows");
    }
}

/// Persisted MIN/MAX measure bounds skip whole chunks (and leaves) for a
/// disjoint measure range, and pruning never changes the answer: it is the
/// full-scan oracle's, filtered by the measure.
#[test]
fn measure_bounds_prune_whole_chunks_without_changing_answers() {
    let pruned = system("prune-on", true);
    // Three disjoint key batches, each flushed into its own chunk(s), so
    // the chunks carry disjoint measure bounds (measure == key).
    let mut all = Vec::new();
    for (batch, base) in [0u64, 100_000, 200_000].into_iter().enumerate() {
        for i in 0..800 {
            let t = Tuple::new(
                base + i % 1_000,
                1_000 + (batch as u64) * 800 + i,
                vec![7; 16],
            );
            all.push(t.clone());
            pruned.insert(t).unwrap();
        }
        pruned.drain().unwrap();
        pruned.flush_all().unwrap();
    }
    assert!(
        pruned.metadata().chunk_count() >= 3,
        "need one chunk per batch for the pruning claim"
    );

    // Only the middle batch intersects [100_000, 100_999].
    let q = Query::range(KeyInterval::full(), TimeInterval::full())
        .and_measure_between(100_000, 100_999);
    let got = normalized(pruned.query(&q).unwrap().tuples);
    let mut want = oracle(&all, &q.keys, &q.times);
    want.retain(|t| (100_000..=100_999).contains(&measure(t)));
    assert_eq!(got, want, "pruned answer diverged from the oracle");
    assert_eq!(
        want.len(),
        800,
        "the probe selects exactly the middle batch"
    );

    let chunks_skipped = SystemMetrics::collect(&pruned).get("coordinator.measure_pruned_chunks");
    assert!(
        chunks_skipped >= 1,
        "expected at least one whole chunk skipped by measure bounds"
    );

    // Aggregates over a measure range take the tuple-scan fallback and
    // still fold exactly the oracle's tuples.
    let mut folded = PartialAgg::default();
    for t in &want {
        folded.insert(measure(t));
    }
    for kind in AggregateKind::ALL {
        let got = pruned.aggregate(&q.clone().aggregate(kind)).unwrap();
        assert_eq!(got.agg, folded, "kind={kind:?}");
    }
}

/// Within a single chunk, per-leaf bounds prune leaves the chunk-level
/// bounds cannot (the chunk straddles the range, some leaves do not).
#[test]
fn leaf_bounds_prune_within_a_chunk() {
    let ww = system("leaf-prune", true);
    // Keys spread over the full u64 domain so the template tree's leaves
    // each receive a distinct key slice — and, with measure == key,
    // distinct measure bounds. (Clustered keys would all land in one
    // template leaf and give the per-leaf bounds nothing to separate.)
    let stride = u64::MAX / 3_000;
    let mut all = Vec::new();
    for i in 0..3_000u64 {
        let t = Tuple::new(i * stride, 1_000 + i, vec![3; 8]);
        all.push(t.clone());
        ww.insert(t).unwrap();
    }
    ww.drain().unwrap();
    ww.flush_all().unwrap();

    // A narrow measure slice: intersects few leaves of whichever chunk
    // holds it, so the per-leaf bounds must fire even when chunk bounds
    // overlap the range.
    let (mlo, mhi) = (1_000 * stride, 1_010 * stride);
    let q = Query::range(KeyInterval::full(), TimeInterval::full()).and_measure_between(mlo, mhi);
    let got = normalized(ww.query(&q).unwrap().tuples);
    let want: Vec<Tuple> = normalized(
        all.iter()
            .filter(|t| (mlo..=mhi).contains(&t.key))
            .cloned()
            .collect(),
    );
    assert_eq!(got, want);
    assert!(!want.is_empty(), "probe range must select something");

    let leaves_skipped = SystemMetrics::collect(&ww).get("query.measure_pruned_leaves");
    assert!(
        leaves_skipped >= 1,
        "expected at least one leaf skipped by its persisted bounds"
    );
}
