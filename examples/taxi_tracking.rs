//! T-Drive-style trajectory queries (paper §VI): taxis stream GPS fixes,
//! keys are z-ordered positions, and a query asks which taxis appeared in a
//! geographic rectangle during a time window.
//!
//! ```sh
//! cargo run --release --example taxi_tracking
//! ```

use std::collections::HashSet;
use waterwheel::prelude::*;
use waterwheel::workloads::{TDriveConfig, TDriveGen};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let root = std::env::temp_dir().join("waterwheel-taxi-tracking");
    let _ = std::fs::remove_dir_all(&root);
    let ww = Waterwheel::builder(&root).build()?;

    // A 2,000-taxi fleet reporting once a second.
    let mut fleet = TDriveGen::new(TDriveConfig {
        taxis: 2_000,
        ..TDriveConfig::default()
    });
    println!("ingesting 100 s of fleet reports (200k fixes) …");
    for _ in 0..200_000 {
        ww.insert(fleet.next().expect("infinite stream"))?;
    }
    ww.drain()?;
    let now = fleet.now_ms();

    // "Which taxis were inside this rectangle in the last minute?" The
    // rectangle becomes a handful of z-code intervals (paper §VI); one
    // range query per interval, exactly like the paper's query converter.
    let (lat0, lat1) = (39.95, 40.05);
    let (lon0, lon1) = (116.30, 116.45);
    let key_ranges = TDriveGen::georect_to_key_ranges(lat0, lat1, lon0, lon1, 16);
    let window = TimeInterval::new(now.saturating_sub(60_000), now);
    println!(
        "rectangle → {} z-code interval(s); querying each …",
        key_ranges.len()
    );

    let mut taxis = HashSet::new();
    let mut fixes = 0usize;
    for range in &key_ranges {
        let result = ww.query(&Query::range(*range, window))?;
        for t in &result.tuples {
            // Z-ranges over-cover; verify the exact rectangle on payload.
            let lat_q = u32::from_le_bytes(t.payload[4..8].try_into().unwrap());
            let lon_q = u32::from_le_bytes(t.payload[8..12].try_into().unwrap());
            let inside = {
                use waterwheel::core::zorder::quantize;
                use waterwheel::workloads::tdrive::{LAT_MAX, LAT_MIN, LON_MAX, LON_MIN};
                lat_q >= quantize(lat0, LAT_MIN, LAT_MAX)
                    && lat_q <= quantize(lat1, LAT_MIN, LAT_MAX)
                    && lon_q >= quantize(lon0, LON_MIN, LON_MAX)
                    && lon_q <= quantize(lon1, LON_MIN, LON_MAX)
            };
            if inside {
                fixes += 1;
                taxis.insert(u32::from_le_bytes(t.payload[0..4].try_into().unwrap()));
            }
        }
    }
    println!(
        "central Beijing rectangle, last 60 s → {} fixes from {} distinct taxis",
        fixes,
        taxis.len()
    );

    // Follow one taxi through history: its fixes cluster in z-space, so a
    // small set of point-ish queries finds them; here we simply filter with
    // a predicate over the full key domain and a historic window.
    let target = *taxis.iter().next().expect("some taxi seen");
    let result = ww.query(&Query::with_predicate(
        KeyInterval::full(),
        TimeInterval::new(now.saturating_sub(100_000), now),
        Expr::payload(0, 4).equals(u64::from(target)),
    ))?;
    println!(
        "taxi #{target} trajectory over the last 100 s → {} fixes",
        result.tuples.len()
    );
    Ok(())
}
