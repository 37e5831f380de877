//! A fleet-activity dashboard on the temporal aggregate subsystem
//! (DESIGN.md §4b): taxis stream GPS fixes, and per-minute fleet counts are
//! answered from hierarchical wheel summaries instead of re-scanning
//! tuples — zero B+ tree leaf pages read for the whole dashboard. The
//! example checks both claims and exits non-zero if either fails.
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

    // A 1,000-taxi fleet reporting once a second for five minutes. The
    // generator stamps each round's last report with the next second, so
    // the fleet's first whole second starts with round 0's last report:
    // skip the reports stamped before it.
    let cfg = TDriveConfig::default();
    let mut fleet = TDriveGen::new(cfg);
    fleet.by_ref().take(cfg.taxis - 1).for_each(drop);
    let epoch = fleet.now_ms() + cfg.report_interval_ms;
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
    let mut total_fixes = 0;
    for m in 0..5u64 {
        let window = TimeInterval::new(epoch + m * MINUTE_MS, epoch + (m + 1) * MINUTE_MS - 1);
        let q = Query::range(KeyInterval::full(), window);
        let fixes = ww.aggregate(&q.clone().aggregate(AggregateKind::Count))?;
        let bytes = ww.aggregate(&q.aggregate(AggregateKind::Sum))?;
        total_fixes += fixes.agg.count;
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
    if total_fixes != 300_000 || m.get("query.leaf_reads") != 0 {
        return Err(format!(
            "the five minutes hold {total_fixes} fixes (want 300000) and \
             {} leaf pages were read (want 0)",
            m.get("query.leaf_reads")
        )
        .into());
    }
    Ok(())
}
