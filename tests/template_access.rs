//! A cold chunk subquery reads its template in one DFS access.
//!
//! A chunk sealed at the default configuration from the T-Drive stream
//! (2 000 taxis reporting once a second, as the `query-cold` benchmark
//! streams it) holds about 400 leaves. With each leaf's bloom filter sized
//! per tuple its index block outgrew the reader's 64 KiB prefetch and
//! every template load took a second ranged read; sized for the
//! mini-ranges a leaf can hold, it fits the prefetch.

use std::sync::atomic::Ordering;
use waterwheel::prelude::*;
use waterwheel::storage::chunk::INDEX_PREFETCH;
use waterwheel::storage::ChunkReader;
use waterwheel::workloads::{TDriveConfig, TDriveGen};

#[test]
fn a_default_tdrive_chunk_loads_its_template_in_one_access() {
    let root = std::env::temp_dir().join(format!("ww-template-access-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let ww = Waterwheel::builder(&root)
        .config(SystemConfig::default())
        .build()
        .unwrap();
    let fleet = TDriveGen::new(TDriveConfig {
        taxis: 2_000,
        seed: 87,
        ..TDriveConfig::default()
    });
    // Enough for at least one threshold flush per indexing server; the
    // tail stays in memory, so every chunk is a full one.
    for t in fleet.take(70_000) {
        ww.insert(t).unwrap();
    }
    ww.drain().unwrap();
    let chunks = ww.metadata().chunks_overlapping(&Region::full());
    assert!(chunks.len() >= 2, "{} chunks", chunks.len());
    let opens = || ww.dfs().stats().opens.load(Ordering::Relaxed);
    for (id, _) in chunks {
        let file = ww.dfs().open(id, None).unwrap();
        let before = opens();
        let index = ChunkReader::new(file).load_index().unwrap();
        let accesses = opens() - before;
        assert!(
            index.leaves.len() > 200,
            "{id:?}: {} leaves",
            index.leaves.len()
        );
        assert!(
            index.template_len <= INDEX_PREFETCH as u64,
            "{id:?}: a {} B template",
            index.template_len
        );
        assert_eq!(accesses, 1, "{id:?}: {accesses} accesses");
    }
    drop(ww);
    let _ = std::fs::remove_dir_all(&root);
}
