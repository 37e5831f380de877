//! The system under test: building an embedded [`Waterwheel`] for a
//! workload and reading the few facts the harness needs from it. Only the
//! public API is used; no crate outside this directory is instrumented.

use crate::inputs;
use crate::spec::Deployment;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use waterwheel_core::{Region, Result, SystemConfig, Tuple};
use waterwheel_server::{IndexingServer, Waterwheel};

/// The configuration every workload runs under: repository defaults
/// (2 indexing servers, 4 query servers, 2 dispatchers, 1 MiB v2 chunks,
/// zero simulated DFS latency) with `durability_fsync` off, so no number
/// depends on this host's disk flush time, and the workload's cache size.
pub fn config(d: &Deployment) -> SystemConfig {
    let mut cfg = SystemConfig::default();
    cfg.durability_fsync = false;
    cfg.cache_capacity_bytes = d.cache_bytes;
    cfg
}

/// Builds the system under `root` (wiped first) with `cfg`.
pub fn build_with(root: &Path, d: &Deployment, cfg: SystemConfig) -> Result<Waterwheel> {
    let _ = std::fs::remove_dir_all(root);
    let mut b = Waterwheel::builder(root).config(cfg).volatile_metadata();
    if d.tcp_durable {
        b = b.tcp_loopback().durable_queue();
    }
    let ww = b.build()?;
    ww.register_measure(inputs::measure);
    Ok(ww)
}

/// Builds the system under `root` for deployment `d`.
pub fn build(root: &Path, d: &Deployment) -> Result<Waterwheel> {
    build_with(root, d, config(d))
}

/// Tuples that have reached an in-memory tree or side store: Σ
/// `IndexingStats.{ingested, side_stored}`. Monotone, so it doubles as the
/// visibility clock.
pub fn visible(servers: &[Arc<IndexingServer>]) -> u64 {
    servers
        .iter()
        .map(|s| {
            s.stats().ingested.load(Ordering::Relaxed)
                + s.stats().side_stored.load(Ordering::Relaxed)
        })
        .sum()
}

/// Bytes of every registered chunk on the DFS, one replica.
pub fn stored_bytes(ww: &Waterwheel) -> Result<u64> {
    let mut total = 0;
    for (id, _) in ww.metadata().chunks_overlapping(&Region::full()) {
        total += ww.dfs().chunk_len(id)?;
    }
    Ok(total)
}

/// The set-up every workload shares after [`build`]: ingest the stream's
/// first `warm` tuples and run one adaptive-partitioning round so the key
/// split reflects the stream (the Network keys all fall in the lowest 2⁻³²
/// of the key domain; without the round one indexing server would take
/// every tuple). No background thread is left running.
pub fn warm_and_balance(ww: &Waterwheel, warm: &[Tuple]) -> Result<()> {
    for t in warm {
        ww.insert(t.clone())?;
    }
    ww.drain()?;
    ww.rebalance()?;
    Ok(())
}

/// Resets the kernel's resident-set high-water mark for this process to
/// its current resident set, so [`peak_rss_mb`] reads the peak since now.
/// Best effort: where `/proc/self/clear_refs` cannot be written, later
/// readings are peaks since the process started.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process (`VmHWM`), in MiB, since the
/// last [`reset_peak_rss`].
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
