//! Ablation benches beyond the paper's figures, for the design choices
//! DESIGN.md calls out:
//!
//! * per-leaf temporal **bloom filters** (paper §IV-B) on vs off, for
//!   temporally-selective queries over key-wide ranges — the case the
//!   filters exist for. Both sides are built from the component (template
//!   tree → sealed chunks → one query server): a deployment always writes
//!   the filters;
//! * the query servers' **LRU cache** (paper §IV-B) on vs (effectively)
//!   off, for repeated queries over the same chunks.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};
use waterwheel_bench::*;
use waterwheel_cluster::{Cluster, LatencyModel};
use waterwheel_core::{
    ChunkId, KeyInterval, NodeId, Query, QueryId, ServerId, SubQuery, SubQueryId, SubQueryTarget,
    SystemConfig, TimeInterval, Tuple,
};
use waterwheel_index::{IndexConfig, TemplateBTree, TupleIndex};
use waterwheel_server::{QueryServer, Waterwheel};
use waterwheel_storage::{write_chunk_opts, ChunkWriteOptions, SimDfs, VERSION_V2};
use waterwheel_workloads::{key_hull, QueryGen};

const CHUNK_SIZE_BYTES: usize = 256 << 10;

fn fresh_root(name: &str) -> std::path::PathBuf {
    let root = std::env::temp_dir().join(format!("ww-abl-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

fn dfs_latency() -> LatencyModel {
    LatencyModel {
        open: Duration::from_millis(2),
        bandwidth: Some(200 << 20),
        local_factor: 0.25,
    }
}

fn build(name: &str, cache_bytes: usize) -> Waterwheel {
    let mut cfg = SystemConfig::default();
    cfg.indexing_servers = 2;
    cfg.query_servers = 4;
    cfg.chunk_size_bytes = CHUNK_SIZE_BYTES;
    cfg.cache_capacity_bytes = cache_bytes;
    Waterwheel::builder(fresh_root(name))
        .config(cfg)
        .dfs_latency(dfs_latency())
        .volatile_metadata()
        .build()
        .unwrap()
}

/// The stream sealed into chunks the way an indexing server does it — one
/// template tree, flushed at the chunk-size threshold, written in the
/// deployed chunk format — under `index_cfg`, plus a query server to scan
/// them with.
fn build_chunks(
    name: &str,
    index_cfg: IndexConfig,
    tuples: &[Tuple],
) -> (QueryServer, Vec<ChunkId>) {
    let dfs = SimDfs::new(fresh_root(name), Cluster::new(4), 3, dfs_latency()).unwrap();
    let opts = ChunkWriteOptions {
        format_version: VERSION_V2,
        compression: true,
        measure: None,
    };
    let tree = TemplateBTree::new(KeyInterval::full(), index_cfg);
    let mut chunks = Vec::new();
    let mut seal = |tree: &TemplateBTree| {
        if let Some(sealed) = tree.seal() {
            let id = ChunkId(chunks.len() as u64);
            dfs.write_chunk(id, &write_chunk_opts(&sealed, None, &opts))
                .unwrap();
            chunks.push(id);
        }
    };
    for t in tuples {
        tree.insert(t.clone());
        if tree.byte_size() >= CHUNK_SIZE_BYTES {
            seal(&tree);
        }
    }
    seal(&tree);
    let qs = QueryServer::new(ServerId(1_000), NodeId(0), dfs, 64 << 20);
    (qs, chunks)
}

fn main() {
    let n = scaled(150_000);
    let tuples = network_tuples(n, 13);
    let hull = key_hull(&tuples).unwrap();
    let start_ts = tuples.first().unwrap().ts;
    let end_ts = tuples.last().unwrap().ts;

    // --- bloom ablation --------------------------------------------------
    let mut rows = Vec::new();
    for (label, index_cfg) in [
        ("bloom ON", IndexConfig::default()),
        ("bloom OFF", IndexConfig::default().without_bloom()),
    ] {
        let (qs, chunks) = build_chunks(label, index_cfg, &tuples);
        // Key-wide, time-narrow queries: exactly where the filters help.
        let mut rng = waterwheel_workloads::Rng::new(3);
        let mut samples = Vec::new();
        for round in 0..scaled(40) {
            let lo = rng.range_inclusive(start_ts, end_ts.saturating_sub(2_000));
            // Cold cache each round so pruning (not caching) is measured.
            qs.cache().clear();
            let t0 = Instant::now();
            for (index, &chunk) in chunks.iter().enumerate() {
                let sq = SubQuery {
                    id: SubQueryId {
                        query: QueryId(round as u64),
                        index: index as u32,
                    },
                    keys: hull,
                    times: TimeInterval::new(lo, lo + 2_000),
                    predicate: None,
                    measure_range: None,
                    target: SubQueryTarget::Chunk(chunk),
                    offset: None,
                };
                let _ = qs.execute(&sq, chunk).unwrap();
            }
            samples.push(t0.elapsed());
        }
        rows.push(vec![
            label.to_string(),
            fmt_dur(mean(&samples)),
            qs.stats().leaves_pruned.load(Ordering::Relaxed).to_string(),
            qs.stats().leaf_reads.load(Ordering::Relaxed).to_string(),
        ]);
    }
    print_table(
        "Ablation: temporal bloom filters (key-wide, 2s-window queries)",
        &["config", "avg latency", "leaves pruned", "leaf reads"],
        &rows,
    );

    // --- cache ablation ----------------------------------------------------
    let mut rows = Vec::new();
    for (label, cache_bytes) in [("cache 64MB", 64usize << 20), ("cache 64KB", 64 << 10)] {
        let ww = build(&format!("cache-{cache_bytes}"), cache_bytes);
        for t in &tuples {
            ww.insert(t.clone()).unwrap();
        }
        ww.drain().unwrap();
        ww.flush_all().unwrap();
        let mut qg = QueryGen::new(hull, 14);
        // A small working set of repeated key ranges → cacheable.
        let queries: Vec<Query> = (0..8)
            .map(|_| Query::range(qg.key_range(0.05), TimeInterval::new(start_ts, end_ts)))
            .collect();
        let mut samples = Vec::new();
        for round in 0..scaled(20) {
            let q = &queries[round % queries.len()];
            let t0 = Instant::now();
            let _ = ww.query(q).unwrap();
            samples.push(t0.elapsed());
        }
        let hit_ratio: f64 = {
            let (h, m): (u64, u64) = ww
                .query_servers()
                .iter()
                .map(|s| {
                    (
                        s.stats().leaf_cache_hits.load(Ordering::Relaxed),
                        s.stats().leaf_reads.load(Ordering::Relaxed),
                    )
                })
                .fold((0, 0), |(ah, am), (h, m)| (ah + h, am + m));
            h as f64 / (h + m).max(1) as f64
        };
        rows.push(vec![
            label.to_string(),
            fmt_dur(mean(&samples)),
            format!("{:.0}%", hit_ratio * 100.0),
        ]);
    }
    print_table(
        "Ablation: query-server LRU cache (repeated 5%-selectivity queries)",
        &["config", "avg latency", "leaf hit ratio"],
        &rows,
    );
}
