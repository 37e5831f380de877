//! A chunk written before the leaf directory recorded the measure SUM
//! (every measured entry carries flag 1: MIN and MAX only) still reads.
//!
//! The fixture is the compressed image `v2_bytes_are_pinned` pinned before
//! the directory entry changed (14 336 B, FNV-1a `0x8a44_ce8f_dfef_e2ce`):
//! a tree of 700 seeded tuples, measured by payload length, with its
//! aggregate summary.

use waterwheel_agg::WheelSummary;
use waterwheel_core::codec::fnv1a;
use waterwheel_core::{KeyInterval, Region, TimeInterval, Tuple};
use waterwheel_index::{IndexConfig, SealedTree, TemplateBTree, TupleIndex};
use waterwheel_storage::ChunkReader;

/// The fixture's bytes.
const FLAG1_CHUNK: &[u8] = include_bytes!("fixtures/v2_measure_flag1.chunk");

/// The tree the fixture was written from (the chunk unit tests'
/// `seeded_tree(23, 700)`).
fn seeded_tree() -> SealedTree {
    let cfg = IndexConfig {
        leaf_capacity: 16,
        fanout: 4,
        skew_check_interval: 64,
        ..IndexConfig::default()
    };
    let tree = TemplateBTree::new(KeyInterval::full(), cfg);
    let mut x = 23u64;
    let mut next = || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        x >> 33
    };
    for _ in 0..700 {
        let (key, ts, len) = (next() % 2_000, 1_000 + next() % 50_000, next() % 24);
        tree.insert(Tuple::new(key, ts, vec![(key % 7) as u8; len as usize]));
    }
    tree.seal().expect("non-empty tree")
}

#[test]
fn a_flag1_chunk_parses_and_scans_to_its_tuples() {
    assert_eq!(FLAG1_CHUNK.len(), 14_336);
    assert_eq!(fnv1a(FLAG1_CHUNK), 0x8a44_ce8f_dfef_e2ce);
    let sealed = seeded_tree();
    let reader = ChunkReader::new(FLAG1_CHUNK);
    let index = reader.load_index().unwrap();
    assert_eq!(index.count, 700);
    assert_eq!(index.region, sealed.region);
    assert_eq!(index.separators, sealed.separators);

    // Every measured leaf has its bounds and no sum, so it never stands in
    // for its page.
    let everything = Region::new(KeyInterval::full(), TimeInterval::full());
    for (i, leaf) in sealed.leaves.iter().enumerate() {
        let meta = &index.leaves[i];
        let lengths = leaf.entries.iter().map(|t| t.payload.len() as u64);
        let bounds = lengths.clone().min().zip(lengths.max());
        assert_eq!(meta.measure_range, bounds, "leaf {i}");
        assert_eq!(meta.measure_sum, None, "leaf {i}");
        assert_eq!(index.leaf_landmark_inside(i, &everything), None);
    }

    let pages = reader
        .read_leaves(&index, 0, index.leaves.len() - 1)
        .unwrap();
    assert_eq!(
        pages.into_iter().flatten().collect::<Vec<_>>(),
        sealed.clone().into_tuples()
    );
    let summary = WheelSummary::build(
        sealed
            .leaves
            .iter()
            .flat_map(|l| l.entries.iter())
            .map(|t| (t.key, t.ts, t.payload.len() as u64)),
        4,
        usize::MAX,
    );
    assert_eq!(reader.read_summary().unwrap(), Some(summary));
}
