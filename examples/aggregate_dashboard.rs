//! A fleet-activity dashboard on the temporal aggregate subsystem
//! (DESIGN.md §4b): taxis stream GPS fixes, and per-minute fleet counts are
//! answered from hierarchical wheel summaries instead of re-scanning
//! tuples — zero B+ tree leaf pages read for the whole dashboard.
//!
//! ```sh
//! cargo run --release --example aggregate_dashboard
//! ```

use waterwheel::prelude::*;
use waterwheel::server::SystemMetrics;
use waterwheel::workloads::{TDriveConfig, TDriveGen};

const MINUTE_MS: u64 = 60_000;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let root = std::env::temp_dir().join("waterwheel-aggregate-dashboard");
    let _ = std::fs::remove_dir_all(&root);
    let ww = Waterwheel::builder(&root).build()?;

    // Measure each fix by its payload size — SUM then reports ingest volume
    // in bytes, COUNT reports fixes. Installed before ingest so wheel cells
    // and chunk summaries fold the right value.
    ww.register_measure(|t| t.payload.len() as u64);

    // A 1,000-taxi fleet reporting once a second for five minutes.
    let mut fleet = TDriveGen::new(TDriveConfig::default());
    let epoch = fleet.now_ms();
    println!("ingesting 5 min of fleet reports (300k fixes) …");
    for _ in 0..300_000 {
        ww.insert(fleet.next().expect("infinite stream"))?;
    }
    ww.drain()?;
    // Seal the stream into chunks; each chunk carries a wheel summary.
    ww.flush_all()?;

    // The dashboard: per-minute fleet activity across the whole key domain.
    // Every window is minute-aligned, so the planner covers it entirely with
    // wheel slots — no tuple is re-read.
    println!("\n minute   fixes    bytes ingested");
    for m in 0..5u64 {
        let window = TimeInterval::new(epoch + m * MINUTE_MS, epoch + (m + 1) * MINUTE_MS - 1);
        let q = Query::range(KeyInterval::full(), window);
        let fixes = ww.aggregate(&q.clone().aggregate(AggregateKind::Count))?;
        let bytes = ww.aggregate(&q.aggregate(AggregateKind::Sum))?;
        println!(
            "   t+{m}m  {:>6}  {:>9.0} B   {}",
            fixes.value().unwrap_or(0.0),
            bytes.value().unwrap_or(0.0),
            "▇".repeat((fixes.agg.count / 5_000) as usize),
        );
    }

    let m = SystemMetrics::collect(&ww);
    println!("\n{m}");
    println!(
        "\ndashboard answered {} aggregate queries by merging {} summary \
         cells; {} leaf pages were read",
        m.get("coordinator.agg_queries"),
        m.get("coordinator.agg_cells_merged"),
        m.get("query.leaf_reads")
    );
    Ok(())
}
