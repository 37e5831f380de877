//! The quickstart workload, but over four real OS processes: this binary
//! re-executes itself as the meta, indexing, query, and dispatcher roles
//! (loopback TCP between them), then drives the same sensor stream
//! through the dispatcher gateway and coordinator.
//!
//! ```sh
//! cargo run --release --example multi_process
//! ```

use waterwheel::node::{ClusterSpec, Role};
use waterwheel::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // When the launcher re-executes this example with WW_NODE_ROLE set,
    // become that cluster role instead of running the demo (never
    // returns for children).
    waterwheel::node::maybe_run_child();

    let root = std::env::temp_dir().join("waterwheel-multi-process");
    let _ = std::fs::remove_dir_all(&root);

    // Four processes — meta, indexing, query, dispatcher — sharing only
    // the root directory and each other's loopback addresses.
    let cluster = ClusterSpec::new(&root).launch(std::env::current_exe()?)?;
    println!(
        "cluster up: gateway {}  meta {}  indexing {}  query {}",
        cluster.addr(Role::Dispatcher).unwrap(),
        cluster.addr(Role::Meta).unwrap(),
        cluster.addr(Role::Indexing).unwrap(),
        cluster.addr(Role::Query).unwrap(),
    );
    let client = cluster.client();

    // Ingest a minute of sensor readings: 100 sensors reporting once per
    // second. Key = sensor id, timestamp in milliseconds.
    let start_ms: Timestamp = 1_000_000;
    for second in 0..60u64 {
        for sensor in 0..100u64 {
            let reading = format!("sensor-{sensor}-reading-{second}");
            client.insert(Tuple::new(sensor, start_ms + second * 1_000, reading))?;
        }
    }
    // Seal the stream into chunks on the shared root (the multi-process
    // durability verb — queued tuples are pumped and flushed remotely).
    client.flush()?;

    // "Readings from sensors 10..=19 during the 10th to 20th second."
    let result = client.query(&Query::range(
        KeyInterval::new(10, 19),
        TimeInterval::new(start_ms + 10_000, start_ms + 20_000),
    ))?;
    println!(
        "sensors 10..=19, seconds 10..=20  →  {} readings ({} subqueries)",
        result.tuples.len(),
        result.subqueries
    );
    assert_eq!(result.tuples.len(), 10 * 11);

    // Aggregates cross the process boundary too: total payload bytes and
    // reading count over the whole minute.
    let count = client.aggregate(
        &Query::range(KeyInterval::full(), TimeInterval::full()).aggregate(AggregateKind::Count),
    )?;
    println!(
        "COUNT over everything               →  {} readings",
        count.agg.count
    );
    assert_eq!(count.agg.count, 6_000);

    cluster.shutdown()?;
    println!("cluster shut down cleanly");
    let _ = std::fs::remove_dir_all(&root);
    Ok(())
}
