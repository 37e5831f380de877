//! The leaf bloom filters a chunk index probes out of its word arena
//! answer exactly as the filters the tree sealed, and never prune a leaf
//! that holds a tuple of the window.
//!
//! Each case seals a tree of random leaves — narrow, wide and late time
//! spans, 1 to capacity tuples a leaf, several mini-range widths — writes
//! it as a chunk twice, once with the filters sized for the mini-ranges a
//! leaf can hold (what a seal writes) and once sized per tuple (what the
//! writer wrote before), and parses both back. Same deterministic-generator
//! idiom as `chunk_fuzz.rs`: proptest hands each case a seed.

use proptest::prelude::*;
use waterwheel_core::{KeyInterval, TimeInterval, Timestamp, Tuple};
use waterwheel_index::{
    BloomConfig, IndexConfig, SealedTree, TemplateBTree, TimeBloom, TupleIndex,
};
use waterwheel_storage::{write_chunk, ChunkIndex, ChunkReader};

/// Deterministic per-case generator (SplitMix64).
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        waterwheel_core::mix64(self.0)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

const CAPACITY: u64 = 32;
const BITS_PER_ENTRY: usize = 10;

/// A sealed tree over `2..=6` key bands, each a leaf of `1..=CAPACITY`
/// tuples whose timestamps follow one of four shapes.
fn random_leaves(g: &mut Gen, mini_range_ms: u64) -> SealedTree {
    let cfg = IndexConfig {
        leaf_capacity: CAPACITY as usize,
        fanout: 4,
        skew_check_interval: usize::MAX,
        bloom: Some(BloomConfig {
            mini_range_ms,
            bits_per_entry: BITS_PER_ENTRY,
        }),
        ..IndexConfig::default()
    };
    let bands = 2 + g.below(5);
    let separators = (1..bands).map(|b| b * 1_000).collect();
    let tree = TemplateBTree::with_separators(KeyInterval::full(), cfg, separators);
    for band in 0..bands {
        let base = 1_000_000 + g.below(1 << 40);
        let tuples = 1 + g.below(CAPACITY);
        let shape = g.below(4);
        for _ in 0..tuples {
            let ts = match shape {
                // Narrow: a few mini-ranges.
                0 => base + g.below(3 * mini_range_ms),
                // Wide: far more mini-ranges than tuples.
                1 => base + g.below(10_000 * mini_range_ms),
                // Late: a narrow run plus stragglers far behind it.
                2 if g.below(4) == 0 => base - g.below(base),
                2 => base + g.below(2 * mini_range_ms),
                // At the top of the time domain.
                _ => u64::MAX - g.below(5 * mini_range_ms),
            };
            tree.insert(Tuple::bare(band * 1_000 + g.below(1_000), ts));
        }
    }
    tree.seal().expect("non-empty tree")
}

/// The same tree with every filter sized per tuple, as the writer sized
/// them before it counted mini-ranges.
fn sized_per_tuple(sealed: &SealedTree, mini_range_ms: u64) -> SealedTree {
    let mut parent = sealed.clone();
    for leaf in &mut parent.leaves {
        leaf.bloom = leaf.bloom.as_ref().map(|_| {
            let mut f = TimeBloom::new(mini_range_ms, leaf.entries.len(), BITS_PER_ENTRY);
            for t in &leaf.entries {
                f.insert(t.ts);
            }
            f
        });
    }
    parent
}

/// Windows to probe a leaf with timestamps `ts` with, each flagged with
/// whether it holds one of them: one around each tuple (the leaf must not
/// be pruned), plus random ones anywhere near its span.
fn windows(g: &mut Gen, ts: &[Timestamp], mini_range_ms: u64) -> Vec<(TimeInterval, bool)> {
    let mut out = Vec::new();
    for &t in ts {
        let lo = t.saturating_sub(g.below(4 * mini_range_ms));
        let hi = t.saturating_add(g.below(4 * mini_range_ms));
        out.push((TimeInterval::new(lo, hi), true));
    }
    let (min, max) = (ts.iter().min().unwrap(), ts.iter().max().unwrap());
    for _ in 0..16 {
        let lo = min
            .saturating_sub(50 * mini_range_ms)
            .saturating_add(g.below(max - min + 100 * mini_range_ms));
        let hi = lo.saturating_add(g.below(20 * mini_range_ms));
        let holds = ts.iter().any(|t| (lo..=hi).contains(t));
        out.push((TimeInterval::new(lo, hi), holds));
    }
    out
}

/// The parsed index answers every window exactly as the sealed filters
/// do, and prunes no leaf holding a tuple of the window.
fn probes_agree(
    g: &mut Gen,
    sealed: &SealedTree,
    index: &ChunkIndex,
    mini_range_ms: u64,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(index.leaves.len(), sealed.leaves.len());
    for (i, leaf) in sealed.leaves.iter().enumerate() {
        let filter = leaf.bloom.as_ref().unwrap();
        let (shape, words) = index.leaf_bloom(i).unwrap();
        prop_assert_eq!(shape, filter.shape());
        prop_assert_eq!(words, filter.words());
        let ts: Vec<Timestamp> = leaf.entries.iter().map(|t| t.ts).collect();
        for (window, holds) in windows(g, &ts, mini_range_ms) {
            let sealed_says = filter.may_overlap(&window);
            prop_assert_eq!(shape.may_overlap(words, &window), sealed_says);
            if holds {
                prop_assert!(sealed_says, "leaf {} pruned for {:?}", i, window);
                prop_assert!(!index.leaf_prunable(i, &window));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn arena_probes_match_the_sealed_filters(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        let mini_range_ms = [1, 250, 1_000, 60_000][g.below(4) as usize];
        let sealed = random_leaves(&mut g, mini_range_ms);
        let parent = sized_per_tuple(&sealed, mini_range_ms);
        for (leaf, old) in sealed.leaves.iter().zip(&parent.leaves) {
            let (new, old) = (leaf.bloom.as_ref().unwrap(), old.bloom.as_ref().unwrap());
            let span = leaf.time_range.unwrap();
            let buckets = span.hi() / mini_range_ms - span.lo() / mini_range_ms + 1;
            let entries = buckets.min(leaf.entries.len() as u64);
            prop_assert_eq!(new.shape().num_bits, (entries * BITS_PER_ENTRY as u64).max(64));
            prop_assert!(new.shape().num_bits <= old.shape().num_bits);
        }
        let bytes = write_chunk(&sealed);
        let old_bytes = write_chunk(&parent);
        prop_assert!(bytes.len() <= old_bytes.len());
        for (tree, image) in [(&sealed, &bytes), (&parent, &old_bytes)] {
            let index = ChunkReader::new(image.as_slice()).load_index().unwrap();
            probes_agree(&mut g, tree, &index, mini_range_ms)?;
        }
    }
}
