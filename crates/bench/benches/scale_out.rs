//! Fig. 17 scale-out: ingest and query throughput of real multi-process
//! clusters at 1, 2, 4, and 8 indexing × query processes over TCP.
//!
//! Each size launches a fresh cluster from this very binary (the harness
//! re-executes itself as every role process), drives batched ingest from
//! one client lane per indexing process, forces a full flush inside the
//! timed window, then checks exactness (every tuple queryable, COUNT
//! agrees) before timing a query phase.
//!
//! Only measured wall-clock rates are printed and emitted. A 4-process
//! cluster is 10 OS processes: on a host with fewer than 6 hardware
//! threads they time-slice the same cores, so the curve there shows
//! scheduler contention rather than scale-out — it is reported as-is and
//! the scaling check does not run.
//!
//! Knobs:
//! * `WW_SCALE_BENCH_N` — tuples per size (default `scaled(4_000)`).
//! * `WW_BENCH_REQUIRE_WIN=1` — on a host with at least 6 hardware
//!   threads, exit non-zero unless measured ingest scaling from 2 → 4
//!   processes reaches 1.6×; otherwise print `not gated: <n> cores`.
//!
//! Emits `BENCH_scale.json` at the workspace root for tooling.

use waterwheel_bench::*;
use waterwheel_core::{AggregateKind, KeyInterval, Query, TimeInterval, Tuple};
use waterwheel_node::ClusterSpec;

const BATCH: usize = 200;
const QUERY_ROUNDS: usize = 12;

struct SizeResult {
    processes: usize,
    ingest_rate: f64,
    query_qps: f64,
}

fn bench_size(processes: usize, tuples: &[Tuple]) -> SizeResult {
    let root =
        std::env::temp_dir().join(format!("ww-bench-scale-{processes}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut spec = ClusterSpec::new(&root);
    spec.system.indexing_servers = processes;
    spec.indexing_processes = processes;
    spec.system.query_servers = processes;
    spec.query_processes = processes;
    spec.system.dispatchers = 2;
    spec.system.chunk_size_bytes = 64 * 1024;
    let exe = std::env::current_exe().unwrap();
    let cluster = spec.launch(exe).expect("cluster launch");
    let client = cluster.client();

    // Timed ingest: one client lane per indexing process, each with its
    // own identity (batch dedup is per client-dispatcher link), plus one
    // full flush so the window covers absorption into sealed chunks.
    let n = tuples.len();
    let (_, ingest_dur) = time(|| {
        std::thread::scope(|scope| {
            for (lane, slice) in tuples.chunks(n.div_ceil(processes)).enumerate() {
                let lane_client = cluster.ingest_client(lane as u32);
                scope.spawn(move || {
                    for batch in slice.chunks(BATCH) {
                        lane_client.insert_batch(batch.to_vec()).expect("ingest");
                    }
                });
            }
        });
        client.flush().expect("flush");
    });
    let ingest_rate = throughput(n, ingest_dur);

    // Exactness before anything is timed further: the cluster must hold
    // every tuple exactly once.
    let full = client
        .query(&Query::range(KeyInterval::full(), TimeInterval::full()))
        .expect("full query");
    assert_eq!(
        full.tuples.len(),
        n,
        "{processes}-process cluster lost tuples"
    );
    let count = client
        .aggregate(
            &Query::range(KeyInterval::full(), TimeInterval::full())
                .aggregate(AggregateKind::Count),
        )
        .expect("count");
    assert_eq!(count.agg.count as usize, n, "COUNT diverged");

    // Timed query phase: rotating windows (full scan, key halves, a key
    // quarter) against the sealed chunks.
    let windows = [
        KeyInterval::full(),
        KeyInterval::new(0, u64::MAX / 2),
        KeyInterval::new(u64::MAX / 2, u64::MAX),
        KeyInterval::new(u64::MAX / 4, u64::MAX / 2),
    ];
    let (_, query_dur) = time(|| {
        for i in 0..QUERY_ROUNDS {
            let keys = windows[i % windows.len()];
            client
                .query(&Query::range(keys, TimeInterval::full()))
                .expect("query");
        }
    });
    let query_qps = throughput(QUERY_ROUNDS, query_dur);

    cluster.shutdown().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&root);
    SizeResult {
        processes,
        ingest_rate,
        query_qps,
    }
}

fn main() {
    waterwheel_node::maybe_run_child();
    let n = std::env::var("WW_SCALE_BENCH_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| scaled(4_000));
    let tuples = network_tuples(n, 0x5ca1e);
    let host_cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    println!("scale-out: {n} tuples per size, {host_cores} hardware threads");

    let sizes = [1usize, 2, 4, 8];
    let results: Vec<SizeResult> = sizes.iter().map(|&p| bench_size(p, &tuples)).collect();

    let at = |p: usize| results.iter().find(|r| r.processes == p).unwrap();
    let scaling_2_to_4 = at(4).ingest_rate / at(2).ingest_rate;

    print_table(
        "Fig. 17 scale-out (measured ingest + query over TCP)",
        &["processes", "ingest", "query/s"],
        &results
            .iter()
            .map(|r| {
                vec![
                    r.processes.to_string(),
                    fmt_rate(r.ingest_rate),
                    format!("{:.1}", r.query_qps),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("measured ingest scaling 2\u{2192}4: {scaling_2_to_4:.2}x");

    let size_rows = results
        .iter()
        .map(|r| {
            format!(
                "    {{ \"processes\": {}, \"ingest_measured\": {:.1}, \"query_qps\": {:.2} }}",
                r.processes, r.ingest_rate, r.query_qps
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"scale_out\",\n",
            "  \"tuples_per_size\": {n},\n",
            "  \"host_cores\": {cores},\n",
            "  \"sizes\": [\n{rows}\n  ],\n",
            "  \"ingest_scaling_2_to_4\": {scaling:.3}\n",
            "}}\n"
        ),
        n = n,
        cores = host_cores,
        rows = size_rows,
        scaling = scaling_2_to_4,
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json");
    std::fs::write(out, json).unwrap();
    println!("wrote {out}");

    if std::env::var("WW_BENCH_REQUIRE_WIN").as_deref() == Ok("1") {
        if host_cores < 6 {
            println!("not gated: {host_cores} cores");
        } else if scaling_2_to_4 < 1.6 {
            eprintln!(
                "FAIL: measured ingest scaling 2\u{2192}4 is {scaling_2_to_4:.2}x, \
                 below the required 1.6x"
            );
            std::process::exit(1);
        } else {
            println!("require-win gate passed");
        }
    }
}
