//! The paper's motivating scenario (Figure 1): a telecom backbone collects
//! packet samples at high rate; analysts ask for "all packets from within
//! 10.68.73.* in the last 5 minutes" to pinpoint attacks and failures.
//! The example checks that a COUNT aggregate over the hottest /16 agrees
//! with the range query over it, and exits non-zero otherwise.
//!
//! ```sh
//! cargo run --release --example network_monitor
//! ```

use waterwheel::prelude::*;
use waterwheel::workloads::{NetworkConfig, NetworkGen};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let root = std::env::temp_dir().join("waterwheel-network-monitor");
    let _ = std::fs::remove_dir_all(&root);

    let mut cfg = SystemConfig::default();
    cfg.chunk_size_bytes = 256 * 1024; // flush often so history hits chunks
    let ww = Waterwheel::builder(&root).config(cfg).build()?;

    // Synthetic access-log stream keyed by source IPv4 (see the workloads
    // crate for the heavy-tailed subnet model).
    let mut stream = NetworkGen::new(NetworkConfig::default());
    let start = stream.now_ms();
    println!("ingesting 200k packet samples …");
    for _ in 0..200_000 {
        let tuple = stream.next().expect("infinite stream");
        ww.insert(tuple)?;
    }
    ww.drain()?;
    let now = stream.now_ms();

    // "Retrieve all packets from within 10.68.73.* in the last 5 minutes."
    // CIDR blocks map directly onto key intervals.
    let block = NetworkGen::cidr_to_key_range(0x0A44_4900, 24);
    let last_5_min = TimeInterval::new(now.saturating_sub(300_000), now);
    let result = ww.query(&Query::range(block, last_5_min))?;
    println!(
        "10.68.73.0/24, last 5 min  → {:>6} packets, {} subqueries",
        result.tuples.len(),
        result.subqueries
    );

    // Hunt the busiest /16 of the window instead.
    let full = ww.query(&Query::range(
        NetworkGen::cidr_to_key_range(0, 0),
        last_5_min,
    ))?;
    let mut per_subnet = std::collections::HashMap::<u64, usize>::new();
    for t in &full.tuples {
        *per_subnet.entry(t.key >> 16).or_default() += 1;
    }
    let (&hot, &count) = per_subnet
        .iter()
        .max_by_key(|(_, &c)| c)
        .expect("non-empty window");
    let a = (hot >> 8) & 0xFF;
    let b = hot & 0xFF;
    println!("hottest subnet in window   → {a}.{b}.0.0/16 with {count} packets");

    // Drill into that subnet over the whole retained history.
    let subnet = NetworkGen::cidr_to_key_range((hot as u32) << 16, 16);
    let history = TimeInterval::new(start, now);
    let result = ww.query(&Query::range(subnet, history))?;
    println!(
        "{a}.{b}.0.0/16, full history → {:>6} packets across memory + {} chunks",
        result.tuples.len(),
        ww.metadata().chunk_count()
    );

    // The same count as an aggregate: each chunk answers from its leaf
    // directory plus the few leaves the /16's edges cut, and no tuple
    // leaves the servers. It must agree with the range query exactly.
    let counted = ww.aggregate(&Query::range(subnet, history).aggregate(AggregateKind::Count))?;
    println!(
        "COUNT over the same /16     → {:>6} packets, {} tuples folded one by one",
        counted.agg.count, counted.scanned_tuples
    );
    if counted.agg.count != result.tuples.len() as u64 {
        return Err(format!(
            "COUNT aggregate {} disagrees with the range query's {} tuples",
            counted.agg.count,
            result.tuples.len()
        )
        .into());
    }

    // A predicate query: packets from that subnet whose destination IP is
    // in a suspicious block (payload bytes 4..8 hold the destination).
    let result = ww.query(&Query::with_predicate(
        subnet,
        history,
        (Expr::payload(7, 1) & 0xF0).equals(0xF0),
    ))?;
    println!(
        "…destined to 0xF?.* block  → {:>6} packets",
        result.tuples.len()
    );

    println!("\n--- system metrics ---");
    println!("{}", waterwheel::server::SystemMetrics::collect(&ww));
    Ok(())
}
