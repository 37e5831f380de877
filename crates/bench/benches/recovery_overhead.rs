//! Durability overhead: what the WAL costs on ingest, and what replay
//! costs on recovery (paper §V's fault-tolerance contract, priced).
//!
//! Two measurements:
//!
//! 1. **Ingest throughput, fsync on vs off** — the same tuple stream is
//!    driven through a durable-queue system twice: once with
//!    `durability_fsync = true` (every acked batch is fdatasync'd — the
//!    power-loss-safe contract) and once with `false` (page-cache only —
//!    survives kill -9 but not power loss). The gap is the price of the
//!    stricter contract.
//! 2. **Recovery time vs log size** — queue WALs of increasing length are
//!    reopened cold, timing the full replay (checksum verification +
//!    decode + offset rebuild) and reporting tuples/s of replay.
//!
//! Knobs:
//! * `WW_RECOVERY_BENCH_N` — ingest tuple count override
//!   (default `scaled(120_000)`).
//!
//! Emits `BENCH_durability.json` at the workspace root for tooling.

use waterwheel_bench::*;
use waterwheel_core::{SystemConfig, Tuple};
use waterwheel_mq::MessageQueue;
use waterwheel_server::{SystemMetrics, Waterwheel};
use waterwheel_wal::FsyncPolicy;

struct IngestRun {
    secs: f64,
    rate: f64,
    wal_bytes: u64,
    wal_fsyncs: u64,
}

/// Insert + drain through a durable-queue system with the given fsync
/// policy; the WAL sits on every acked batch's path.
fn ingest_run(name: &str, fsync: bool, tuples: &[Tuple]) -> IngestRun {
    let root = std::env::temp_dir().join(format!("ww-rec-bench-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut cfg = SystemConfig::default();
    cfg.indexing_servers = 2;
    cfg.query_servers = 2;
    cfg.chunk_size_bytes = 4 << 20;
    cfg.durability_fsync = fsync;
    let ww = Waterwheel::builder(&root)
        .config(cfg)
        .durable_queue()
        .build()
        .unwrap();
    let (_, elapsed) = time(|| {
        for t in tuples {
            ww.insert(t.clone()).unwrap();
        }
        ww.drain().unwrap();
    });
    let m = SystemMetrics::collect(&ww);
    // Summed over the durable surfaces: queue journal, chunk seals, metadata log.
    let wal = |field: &str| -> u64 {
        ["queue", "chunks", "meta"]
            .iter()
            .map(|surface| m.get(&format!("wal.{surface}.{field}")))
            .sum()
    };
    IngestRun {
        secs: elapsed.as_secs_f64(),
        rate: throughput(tuples.len(), elapsed),
        wal_bytes: wal("bytes"),
        wal_fsyncs: wal("fsyncs"),
    }
}

struct RecoveryRun {
    tuples: usize,
    log_bytes: u64,
    secs: f64,
    replay_rate: f64,
}

fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Writes a queue WAL of `n` tuples, drops it, and times the cold reopen
/// (full replay with checksum verification).
fn recovery_run(n: usize, tuples: &[Tuple]) -> RecoveryRun {
    let root = std::env::temp_dir().join(format!("ww-rec-replay-{n}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    {
        let mq = MessageQueue::durable_with(&root, FsyncPolicy::Never, 8 << 20).unwrap();
        mq.create_topic("t", 1).unwrap();
        for (seq, batch) in tuples[..n].chunks(512).enumerate() {
            mq.append_batch_from("t", 0, 1, seq as u64, batch.to_vec())
                .unwrap();
        }
        mq.sync().unwrap();
    }
    let log_bytes = dir_bytes(&root);
    let (replayed, elapsed) = time(|| {
        let mq = MessageQueue::durable_with(&root, FsyncPolicy::Never, 8 << 20).unwrap();
        mq.create_topic("t", 1).unwrap();
        mq.wal_stats()
            .replayed
            .load(std::sync::atomic::Ordering::Relaxed)
    });
    assert_eq!(replayed as usize, n, "replay lost records");
    RecoveryRun {
        tuples: n,
        log_bytes,
        secs: elapsed.as_secs_f64(),
        replay_rate: throughput(n, elapsed),
    }
}

fn main() {
    let n: usize = std::env::var("WW_RECOVERY_BENCH_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| scaled(120_000));
    let tuples = network_tuples(n, 7);

    let off = ingest_run("fsync-off", false, &tuples);
    let on = ingest_run("fsync-on", true, &tuples);
    let overhead = off.rate / on.rate.max(1e-9);
    let row = |label: &str, r: &IngestRun| {
        vec![
            label.to_string(),
            fmt_rate(r.rate),
            format!("{:.2}s", r.secs),
            format!("{:.1} MiB", r.wal_bytes as f64 / (1 << 20) as f64),
            r.wal_fsyncs.to_string(),
        ]
    };
    print_table(
        &format!("Durable ingest — fsync policy ({n} tuples)"),
        &["policy", "rate", "wall", "wal bytes", "fsyncs"],
        &[row("fsync off", &off), row("fsync on", &on)],
    );
    println!("fsync-off speedup over fsync-on: {overhead:.2}x");

    let sizes = [n / 6, n / 2, n];
    let recoveries: Vec<RecoveryRun> = sizes
        .iter()
        .map(|&s| recovery_run(s.max(1_024), &tuples))
        .collect();
    print_table(
        "Recovery replay — time vs log size",
        &["tuples", "log size", "replay wall", "replay rate"],
        &recoveries
            .iter()
            .map(|r| {
                vec![
                    r.tuples.to_string(),
                    format!("{:.1} MiB", r.log_bytes as f64 / (1 << 20) as f64),
                    format!("{:.3}s", r.secs),
                    fmt_rate(r.replay_rate),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let recovery_json: Vec<String> = recoveries
        .iter()
        .map(|r| {
            format!(
                "    {{ \"tuples\": {}, \"log_bytes\": {}, \"secs\": {:.4}, \"rate\": {:.1} }}",
                r.tuples, r.log_bytes, r.secs, r.replay_rate
            )
        })
        .collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"recovery_overhead\",\n",
            "  \"tuples\": {n},\n",
            "  \"fsync_off\": {{ \"rate\": {off_rate:.1}, \"secs\": {off_secs:.4}, \"wal_bytes\": {off_bytes}, \"fsyncs\": {off_fsyncs} }},\n",
            "  \"fsync_on\": {{ \"rate\": {on_rate:.1}, \"secs\": {on_secs:.4}, \"wal_bytes\": {on_bytes}, \"fsyncs\": {on_fsyncs} }},\n",
            "  \"fsync_off_speedup\": {overhead:.3},\n",
            "  \"recovery\": [\n{recovery}\n  ]\n",
            "}}\n"
        ),
        n = n,
        off_rate = off.rate,
        off_secs = off.secs,
        off_bytes = off.wal_bytes,
        off_fsyncs = off.wal_fsyncs,
        on_rate = on.rate,
        on_secs = on.secs,
        on_bytes = on.wal_bytes,
        on_fsyncs = on.wal_fsyncs,
        overhead = overhead,
        recovery = recovery_json.join(",\n"),
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_durability.json");
    std::fs::write(out, json).unwrap();
    println!("wrote {out}");
}
