//! Property-based tests: for arbitrary tuple batches and arbitrary range
//! queries, every index structure and the full system agree with a naive
//! full-scan oracle.

use proptest::prelude::*;
use waterwheel::baselines::{BulkLoadingBTree, ConcurrentBTree};
use waterwheel::core::{mix64, KeyInterval, Query, TimeInterval, Tuple};
use waterwheel::index::{IndexConfig, TemplateBTree, TupleIndex};
use waterwheel::prelude::{SystemConfig, Waterwheel};
use waterwheel::workloads::oracle;

fn tuples_strategy(max: usize) -> impl Strategy<Value = Vec<Tuple>> {
    prop::collection::vec((0u64..1_000, 0u64..1_000), 0..max)
        .prop_map(|pairs| pairs.into_iter().map(|(k, t)| Tuple::bare(k, t)).collect())
}

fn interval_strategy() -> impl Strategy<Value = (KeyInterval, TimeInterval)> {
    ((0u64..1_000, 0u64..1_000), (0u64..1_000, 0u64..1_000)).prop_map(|((k0, k1), (t0, t1))| {
        (
            KeyInterval::new(k0.min(k1), k0.max(k1)),
            TimeInterval::new(t0.min(t1), t0.max(t1)),
        )
    })
}

/// Streams dense enough in `(key, ts)` to repeat pairs; the payload is the
/// arrival index, so twins are distinguishable and their order checkable.
fn twin_stream_strategy(max: usize) -> impl Strategy<Value = Vec<Tuple>> {
    prop::collection::vec((0u64..40, 0u64..6), 0..max).prop_map(|pairs| {
        pairs
            .into_iter()
            .enumerate()
            .map(|(i, (k, t))| Tuple::new(k, t, (i as u32).to_le_bytes().to_vec()))
            .collect()
    })
}

/// Cuts `tuples` into consecutive batches at `cuts` (any order, repeats
/// and out-of-range points allowed — they give empty or clamped batches).
fn batches(tuples: &[Tuple], cuts: &[usize]) -> Vec<Vec<Tuple>> {
    let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (tuples.len() + 1)).collect();
    cuts.push(tuples.len());
    cuts.sort_unstable();
    let mut start = 0;
    cuts.into_iter()
        .map(|end| {
            let batch = tuples[start..end].to_vec();
            start = end;
            batch
        })
        .collect()
}

/// Seals both trees and checks the seals agree entry for entry (blooms are
/// a function of the entries, so they are covered by them).
fn assert_seal_alike(a: &TemplateBTree, b: &TemplateBTree) -> Result<(), TestCaseError> {
    let (a, b) = match (a.seal(), b.seal()) {
        (Some(a), Some(b)) => (a, b),
        (a, b) => {
            prop_assert!(a.is_none() && b.is_none(), "only one tree was empty");
            return Ok(());
        }
    };
    a.check_invariants().map_err(TestCaseError::fail)?;
    b.check_invariants().map_err(TestCaseError::fail)?;
    prop_assert_eq!(&a.separators, &b.separators);
    prop_assert_eq!(a.region, b.region);
    prop_assert_eq!(a.count, b.count);
    prop_assert_eq!(a.leaves.len(), b.leaves.len());
    for (x, y) in a.leaves.iter().zip(&b.leaves) {
        prop_assert_eq!(&x.entries, &y.entries);
        prop_assert_eq!(x.time_range, y.time_range);
    }
    Ok(())
}

fn normalized(mut v: Vec<Tuple>) -> Vec<Tuple> {
    v.sort_by(|a, b| (a.key, a.ts, &a.payload).cmp(&(b.key, b.ts, &b.payload)));
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn template_tree_matches_oracle(
        tuples in tuples_strategy(400),
        (keys, times) in interval_strategy(),
    ) {
        let cfg = IndexConfig {
            leaf_capacity: 8,
            fanout: 4,
            skew_check_interval: 64,
            ..IndexConfig::default()
        };
        let tree = TemplateBTree::new(KeyInterval::full(), cfg);
        for t in &tuples {
            tree.insert(t.clone());
        }
        let got = normalized(tree.query(&keys, &times, None));
        let want = oracle(&tuples, &keys, &times);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn template_tree_matches_oracle_after_seal_and_refill(
        first in tuples_strategy(200),
        second in tuples_strategy(200),
        (keys, times) in interval_strategy(),
    ) {
        let cfg = IndexConfig {
            leaf_capacity: 8,
            fanout: 4,
            skew_check_interval: 32,
            ..IndexConfig::default()
        };
        let tree = TemplateBTree::new(KeyInterval::full(), cfg);
        for t in &first {
            tree.insert(t.clone());
        }
        let _ = tree.seal(); // template retained, leaves cleared
        for t in &second {
            tree.insert(t.clone());
        }
        let got = normalized(tree.query(&keys, &times, None));
        let want = oracle(&second, &keys, &times);
        prop_assert_eq!(got, want);
    }

    /// `insert_batch` over any split of a stream ≡ one-at-a-time `insert`:
    /// the sealed trees agree entry for entry (twins in arrival order),
    /// through automatic skew checks that fall inside batches, a forced
    /// template update, and a seal-and-refill on the retained template.
    #[test]
    fn insert_batch_over_any_split_seals_like_one_at_a_time(
        first in twin_stream_strategy(300),
        second in twin_stream_strategy(300),
        third in twin_stream_strategy(300),
        cuts in prop::collection::vec(0usize..300, 0..12),
    ) {
        let cfg = IndexConfig {
            leaf_capacity: 8,
            fanout: 4,
            skew_check_interval: 32,
            ..IndexConfig::default()
        };
        let single = TemplateBTree::new(KeyInterval::full(), cfg);
        let batched = TemplateBTree::new(KeyInterval::full(), cfg);
        let feed = |stream: &[Tuple]| {
            for t in stream {
                single.insert(t.clone());
            }
            for batch in batches(stream, &cuts) {
                batched.insert_batch(batch);
            }
        };
        feed(&first);
        single.update_template();
        batched.update_template();
        feed(&second);
        assert_seal_alike(&single, &batched)?;
        feed(&third);
        prop_assert_eq!(single.stats().template_updates, batched.stats().template_updates);
        assert_seal_alike(&single, &batched)?;
    }

    /// Queries see appended tuples before any merge has run: four seeded
    /// leaves, far fewer tuples than would trigger a template update, so
    /// every leaf is a sorted run (if it got past the tail bound) followed
    /// by an unmerged tail.
    #[test]
    fn template_tree_with_unmerged_tails_matches_oracle(
        tuples in tuples_strategy(400),
        cuts in prop::collection::vec(0usize..400, 0..8),
        (keys, times) in interval_strategy(),
    ) {
        let tree = TemplateBTree::with_separators(
            KeyInterval::full(),
            IndexConfig::default(),
            vec![250, 500, 750],
        );
        for batch in batches(&tuples, &cuts) {
            tree.insert_batch(batch);
        }
        prop_assert_eq!(tree.stats().template_updates, 0);
        prop_assert_eq!(tree.len(), tuples.len());
        let got = normalized(tree.query(&keys, &times, None));
        let want = oracle(&tuples, &keys, &times);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn concurrent_tree_matches_oracle(
        tuples in tuples_strategy(400),
        (keys, times) in interval_strategy(),
    ) {
        let tree = ConcurrentBTree::new(4, 4);
        for t in &tuples {
            tree.insert(t.clone());
        }
        let got = normalized(tree.query(&keys, &times, None));
        let want = oracle(&tuples, &keys, &times);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn bulk_tree_matches_oracle_after_build(
        tuples in tuples_strategy(400),
        (keys, times) in interval_strategy(),
    ) {
        let tree = BulkLoadingBTree::new(8);
        for t in &tuples {
            tree.insert(t.clone());
        }
        tree.build();
        let got = normalized(tree.query(&keys, &times, None));
        let want = oracle(&tuples, &keys, &times);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn chunk_roundtrip_matches_oracle(
        tuples in tuples_strategy(300),
        (keys, times) in interval_strategy(),
    ) {
        use waterwheel::storage::{write_chunk, ChunkReader};
        let cfg = IndexConfig {
            leaf_capacity: 8,
            fanout: 4,
            skew_check_interval: 32,
            ..IndexConfig::default()
        };
        let tree = TemplateBTree::new(KeyInterval::full(), cfg);
        for t in &tuples {
            tree.insert(t.clone());
        }
        let Some(sealed) = tree.seal() else {
            // Empty batch: nothing to check.
            return Ok(());
        };
        let bytes = write_chunk(&sealed);
        let reader = ChunkReader::new(bytes.as_slice());
        let index = reader.load_index().unwrap();
        let (lo, hi) = index.leaf_range(&keys);
        let mut got = Vec::new();
        if lo < index.leaves.len() {
            let hi = hi.min(index.leaves.len() - 1);
            for page in reader.read_leaves(&index, lo, hi).unwrap() {
                got.extend(
                    page.into_iter()
                        .filter(|t| keys.contains(t.key) && times.contains(t.ts)),
                );
            }
        }
        let want = oracle(&tuples, &keys, &times);
        prop_assert_eq!(normalized(got), want);
    }
}

proptest! {
    // The full system is heavier; fewer cases, bigger coverage each.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn full_system_matches_oracle(
        tuples in tuples_strategy(600),
        queries in prop::collection::vec(interval_strategy(), 1..6),
        flush_at in 0usize..600,
    ) {
        let root = std::env::temp_dir().join(format!(
            "ww-prop-{}-{}",
            std::process::id(),
            rand_suffix(&tuples, flush_at),
        ));
        let _ = std::fs::remove_dir_all(&root);
        let mut cfg = SystemConfig::default();
        cfg.chunk_size_bytes = 8 * 1024;
        cfg.indexing_servers = 2;
        cfg.query_servers = 2;
        let ww = Waterwheel::builder(&root).config(cfg).build().unwrap();
        for (i, t) in tuples.iter().enumerate() {
            ww.insert(t.clone()).unwrap();
            if i == flush_at {
                ww.drain().unwrap();
                ww.flush_all().unwrap();
            }
        }
        ww.drain().unwrap();
        for (keys, times) in &queries {
            let got = normalized(ww.query(&Query::range(*keys, *times)).unwrap().tuples);
            let want = oracle(&tuples, keys, times);
            prop_assert_eq!(got, want);
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// Batch writers, one sealer and one reader on one tree: every seal is
/// internally consistent (`SealedTree::count` equals its leaves — the
/// counters move under the same tree-level lock as the appends) and the
/// seals together hold every tuple written exactly once.
#[test]
fn concurrent_batch_writers_sealer_and_reader_lose_nothing() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    const WRITERS: u64 = 3;
    const BATCHES: u64 = 60;
    const BATCH: u64 = 97;
    let cfg = IndexConfig {
        leaf_capacity: 8,
        fanout: 4,
        skew_check_interval: 64,
        ..IndexConfig::default()
    };
    let tree = TemplateBTree::new(KeyInterval::full(), cfg);
    let writers_left = AtomicUsize::new(WRITERS as usize);
    let start = Barrier::new(WRITERS as usize + 2);
    let sealed: usize = std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let (tree, writers_left, start) = (&tree, &writers_left, &start);
            scope.spawn(move || {
                start.wait();
                for b in 0..BATCHES {
                    let batch = (0..BATCH)
                        .map(|i| {
                            let n = (w * BATCHES + b) * BATCH + i;
                            Tuple::bare(n.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 50, n % 13)
                        })
                        .collect();
                    tree.insert_batch(batch);
                }
                writers_left.fetch_sub(1, Ordering::SeqCst);
            });
        }
        let reader = scope.spawn(|| {
            start.wait();
            let keys = KeyInterval::new(1_000, 9_000);
            while writers_left.load(Ordering::SeqCst) > 0 {
                let hits = tree.query(&keys, &TimeInterval::new(0, 6), None);
                assert!(hits.iter().all(|t| keys.contains(t.key) && t.ts <= 6));
            }
        });
        let sealer = scope.spawn(|| {
            start.wait();
            let mut total = 0;
            loop {
                // Read before sealing: a writer that finished before this
                // load has all its tuples in the tree the seal drains.
                let done = writers_left.load(Ordering::SeqCst) == 0;
                if let Some(s) = tree.seal() {
                    s.check_invariants().expect("a consistent seal");
                    total += s.count;
                }
                if done {
                    return total;
                }
            }
        });
        reader.join().expect("reader");
        sealer.join().expect("sealer")
    });
    assert_eq!(sealed as u64, WRITERS * BATCHES * BATCH);
    assert!(tree.is_empty());
}

/// Cheap deterministic suffix so concurrent proptest cases get distinct
/// roots without pulling in a clock (keeps runs reproducible).
fn rand_suffix(tuples: &[Tuple], salt: usize) -> u64 {
    let h = tuples.iter().take(16).fold(salt as u64, |h, t| {
        mix64(h ^ t.key.wrapping_mul(31).wrapping_add(t.ts))
    });
    h ^ tuples.len() as u64
}
