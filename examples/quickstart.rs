//! Quickstart: insert a small stream, query it by key range + time range.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use waterwheel::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let root = std::env::temp_dir().join("waterwheel-quickstart");
    let _ = std::fs::remove_dir_all(&root);

    // An embedded Waterwheel deployment: dispatchers, indexing servers,
    // query servers and the coordinator, all in-process.
    let ww = Waterwheel::builder(&root).build()?;

    // Ingest a minute of sensor readings: 100 sensors reporting once per
    // second. Key = sensor id, timestamp in milliseconds.
    let start_ms: Timestamp = 1_000_000;
    for second in 0..60u64 {
        for sensor in 0..100u64 {
            let reading = format!("sensor-{sensor}-reading-{second}");
            ww.insert(Tuple::new(sensor, start_ms + second * 1_000, reading))?;
        }
    }

    // Make the queued tuples visible (examples that run continuously would
    // call `ww.start_pumps()` once instead).
    ww.drain()?;

    // "Readings from sensors 10..=19 during the 10th to 20th second."
    let query = Query::range(
        KeyInterval::new(10, 19),
        TimeInterval::new(start_ms + 10_000, start_ms + 20_000),
    );
    let result = ww.query(&query)?;
    println!(
        "sensors 10..=19, seconds 10..=20  →  {} readings ({} subqueries)",
        result.tuples.len(),
        result.subqueries
    );
    assert_eq!(result.tuples.len(), 10 * 11);

    // Add a user-defined predicate f_q on top of the ranges.
    let query = Query::with_predicate(
        KeyInterval::new(10, 19),
        TimeInterval::new(start_ms + 10_000, start_ms + 20_000),
        (Expr::key() % 2).equals(0),
    );
    let result = ww.query(&query)?;
    println!(
        "…and with an even-sensor predicate  →  {} readings",
        result.tuples.len()
    );
    assert_eq!(result.tuples.len(), 5 * 11);

    // Data is chunked to the (simulated) distributed file system once the
    // in-memory trees hit the chunk-size threshold; force it and observe
    // the same query still answers from chunks.
    ww.flush_all()?;
    let result = ww.query(&Query::range(
        KeyInterval::new(10, 19),
        TimeInterval::new(start_ms + 10_000, start_ms + 20_000),
    ))?;
    println!(
        "after flushing to chunks            →  {} readings from {} chunks on disk",
        result.tuples.len(),
        ww.metadata().chunk_count()
    );
    assert_eq!(result.tuples.len(), 10 * 11);
    Ok(())
}
