//! Ablation: hierarchical aggregate wheel (DESIGN.md §4b).
//!
//! Aggregate queries answered from chunk wheel summaries vs the same
//! queries with summaries disabled (forced tuple scan), across temporal
//! selectivities. The summary path merges O(log T) pre-folded cells per
//! covered second-run and opens no leaf pages; the scan path re-reads and
//! re-folds every qualifying tuple, so it degrades with range width.

use std::time::{Duration, Instant};
use waterwheel_bench::*;
use waterwheel_cluster::LatencyModel;
use waterwheel_core::{AggregateKind, Expr, KeyInterval, Query, SystemConfig, TimeInterval, Tuple};
use waterwheel_server::Waterwheel;

/// Total event-time span of the stream in milliseconds (10 min).
const SPAN_MS: u64 = 600_000;

fn main() {
    let n = scaled(200_000) as u64;
    let root = std::env::temp_dir().join(format!("ww-agg-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut cfg = SystemConfig::default();
    cfg.indexing_servers = 2;
    cfg.query_servers = 4;
    cfg.chunk_size_bytes = 256 << 10;
    let ww = Waterwheel::builder(&root)
        .config(cfg)
        .dfs_latency(LatencyModel {
            open: Duration::from_millis(2),
            bandwidth: Some(200 << 20),
            local_factor: 0.25,
        })
        .volatile_metadata()
        .build()
        .unwrap();
    ww.register_measure(|t| t.payload.len() as u64);

    for i in 0..n {
        ww.insert(Tuple::new(
            i.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            i * SPAN_MS / n,
            vec![0u8; 8],
        ))
        .unwrap();
    }
    ww.drain().unwrap();
    ww.flush_all().unwrap();
    println!(
        "{} tuples over {} s across {} chunks (summaries in every chunk)",
        n,
        SPAN_MS / 1_000,
        ww.metadata().chunk_count()
    );

    let mut rows = Vec::new();
    for selectivity in [0.01f64, 0.05, 0.1] {
        // Second-aligned windows of the requested width, rotated across the
        // span so repetitions don't hit one cache-resident region.
        let width = ((SPAN_MS as f64 * selectivity) as u64 / 1_000).max(1) * 1_000;
        let reps = scaled(20) as u64;
        let mut with_summaries = Vec::new();
        let mut scan_forced = Vec::new();
        for forced in [false, true] {
            for rep in 0..reps {
                for qs in ww.query_servers() {
                    qs.cache().clear();
                }
                let lo = (rep * 7_919_000) % (SPAN_MS - width);
                let lo = lo / 1_000 * 1_000;
                let window = TimeInterval::new(lo, lo + width - 1);
                // Forced: the same SUM under a predicate every tuple passes,
                // so every source folds a scan of its share.
                let q = match forced {
                    false => Query::range(KeyInterval::full(), window),
                    true => {
                        Query::with_predicate(KeyInterval::full(), window, Expr::ts().le(SPAN_MS))
                    }
                }
                .aggregate(AggregateKind::Sum);
                let t0 = Instant::now();
                let a = ww.aggregate(&q).unwrap();
                let elapsed = t0.elapsed();
                std::hint::black_box(a);
                if forced {
                    scan_forced.push(elapsed);
                } else {
                    with_summaries.push(elapsed);
                }
            }
        }
        let (s, f) = (mean(&with_summaries), mean(&scan_forced));
        rows.push(vec![
            format!("{:.0}%", selectivity * 100.0),
            fmt_dur(s),
            fmt_dur(f),
            format!("{:.1}×", f.as_secs_f64() / s.as_secs_f64().max(1e-9)),
        ]);
    }
    print_table(
        "Ablation: aggregate wheel summaries vs forced tuple scan (SUM, full key domain)",
        &["time selectivity", "summaries", "tuple scan", "speedup"],
        &rows,
    );
    let coordinator = ww.coordinator();
    let stats = coordinator.stats();
    println!(
        "cells merged: {}, fallback subqueries (scan-forced runs): {}",
        stats
            .agg_cells_merged
            .load(std::sync::atomic::Ordering::Relaxed),
        stats
            .agg_fallback_subqueries
            .load(std::sync::atomic::Ordering::Relaxed),
    );
    println!(
        "(expected shape: summaries win at every width — both paths pay one\n\
         DFS open per overlapping chunk, but the summary path never reads or\n\
         folds leaf pages, so its advantage is the per-tuple work saved)"
    );
    let _ = std::fs::remove_dir_all(&root);
}
