//! Figure 17 — ingest scalability as the cluster grows 16 → 128 nodes
//! (paper §VI-D2).
//!
//! The paper measures near-linear growth on EC2 because (a) indexing
//! servers never synchronize with each other and (b) adaptive partitioning
//! keeps them evenly loaded. This harness reports what this host measures:
//! the end-to-end ingest rate with an increasing number of real
//! indexing-server threads (expected ≈flat beyond the core count). It
//! projects nothing to paper scale; `scale_out` is the multi-process
//! series.

use std::time::Instant;
use waterwheel_bench::*;
use waterwheel_core::{SystemConfig, Tuple};
use waterwheel_server::Waterwheel;

/// Measured end-to-end ingest rate with `servers` indexing servers.
fn measured_rate(tuples: &[Tuple], servers: usize) -> f64 {
    let root = std::env::temp_dir().join(format!("ww-fig17-{servers}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut cfg = SystemConfig::default();
    cfg.indexing_servers = servers;
    cfg.dispatchers = 2;
    cfg.chunk_size_bytes = 8 << 20; // avoid flush noise in the scaling curve
    let ww = Waterwheel::builder(&root)
        .config(cfg)
        .volatile_metadata()
        .build()
        .unwrap();
    ww.start_pumps();
    let t0 = Instant::now();
    for t in tuples {
        ww.insert(t.clone()).unwrap();
    }
    // Wait until the pumps catch up so the measurement covers indexing.
    while ww.total_visible() < tuples.len() {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let rate = throughput(tuples.len(), t0.elapsed());
    ww.stop_pumps();
    let _ = std::fs::remove_dir_all(&root);
    rate
}

fn main() {
    let n = scaled(200_000);
    let tuples = network_tuples(n, 17);

    let mut rows = Vec::new();
    let mut single_server_rate = 0.0;
    for &servers in &[1usize, 2, 4, 8] {
        let rate = measured_rate(&tuples, servers);
        if servers == 1 {
            single_server_rate = rate;
        }
        rows.push(vec![
            servers.to_string(),
            fmt_rate(rate),
            format!("{:.2}x", rate / single_server_rate.max(1.0)),
        ]);
    }
    print_table(
        &format!(
            "Figure 17 (measured, this host, {} core(s)): ingest vs indexing servers",
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        ),
        &["indexing servers", "ingest rate", "vs 1 server"],
        &rows,
    );
}
