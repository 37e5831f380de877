//! Baseline: a traditional concurrent B+ tree with node splits
//! (paper §VI-A).
//!
//! The paper compares the template tree against "a traditional concurrent
//! B+ tree implemented with exactly the same data structures … the only
//! difference is that it may split nodes during insertions and follows a
//! widely adopted concurrency protocol [Bayer & Schkolnick 1977]". This
//! module implements that baseline: pessimistic latch crabbing, where an
//! insert write-latches the path from the root and releases ancestors as
//! soon as the current node is *safe* (non-full), so cascading splits always
//! hold every latch they need.
//!
//! Split time is accounted separately in [`IndexStats`] — it is the
//! dominant term of Figure 7(b)'s breakdown for this tree.

use parking_lot::lock_api::ArcRwLockWriteGuard;
use parking_lot::{Mutex, RawRwLock, RwLock};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use waterwheel_core::{Key, KeyInterval, TimeInterval, Tuple};
use waterwheel_index::{IndexStats, StatsSnapshot, TupleIndex};

type NodeRef = Arc<RwLock<Node>>;
type WriteGuard = ArcRwLockWriteGuard<RawRwLock, Node>;

enum Node {
    Inner {
        /// Separator keys; child `i` holds keys `< keys[i]`, child `i+1`
        /// keys `≥ keys[i]`.
        keys: Vec<Key>,
        children: Vec<NodeRef>,
    },
    Leaf {
        /// Entries sorted by `(key, ts)`.
        entries: Vec<Tuple>,
        /// Right sibling, for range scans.
        next: Option<NodeRef>,
    },
}

impl Node {
    fn is_full(&self, fanout: usize, leaf_capacity: usize) -> bool {
        match self {
            Node::Inner { children, .. } => children.len() >= fanout,
            Node::Leaf { entries, .. } => entries.len() >= leaf_capacity,
        }
    }
}

/// A traditional concurrent B+ tree with latch-crabbing inserts.
pub struct ConcurrentBTree {
    root: Mutex<NodeRef>,
    fanout: usize,
    leaf_capacity: usize,
    count: AtomicUsize,
    stats: Arc<IndexStats>,
}

impl ConcurrentBTree {
    /// Creates an empty tree. `fanout` bounds inner-node children,
    /// `leaf_capacity` bounds entries per leaf; both must be ≥ 2.
    pub fn new(fanout: usize, leaf_capacity: usize) -> Self {
        assert!(fanout >= 2 && leaf_capacity >= 2);
        Self {
            root: Mutex::new(Arc::new(RwLock::new(Node::Leaf {
                entries: Vec::new(),
                next: None,
            }))),
            fanout,
            leaf_capacity,
            count: AtomicUsize::new(0),
            stats: Arc::new(IndexStats::default()),
        }
    }

    /// Splits the full node behind `guard`, returning the separator key and
    /// the new right sibling. The caller must hold the parent latch (or the
    /// root lock) — guaranteed by the crabbing protocol.
    fn split(&self, guard: &mut WriteGuard) -> (Key, NodeRef) {
        let t0 = Instant::now();
        let (sep, right) = match &mut **guard {
            Node::Leaf { entries, next } => {
                let mid = entries.len() / 2;
                let right_entries = entries.split_off(mid);
                let sep = right_entries[0].key;
                let right = Arc::new(RwLock::new(Node::Leaf {
                    entries: right_entries,
                    next: next.take(),
                }));
                *next = Some(Arc::clone(&right));
                (sep, right)
            }
            Node::Inner { keys, children } => {
                let mid = children.len() / 2;
                // keys[mid - 1] moves up as the separator.
                let right_children = children.split_off(mid);
                let mut right_keys = keys.split_off(mid - 1);
                let sep = right_keys.remove(0);
                debug_assert_eq!(right_keys.len() + 1, right_children.len());
                let right = Arc::new(RwLock::new(Node::Inner {
                    keys: right_keys,
                    children: right_children,
                }));
                (sep, right)
            }
        };
        self.stats.add(&self.stats.split_ns, t0.elapsed());
        self.stats.splits.fetch_add(1, Ordering::Relaxed);
        (sep, right)
    }

    /// Descends with write latches, releasing ancestors at safe nodes, and
    /// inserts the tuple, splitting on the way back as needed.
    fn insert_crabbing(&self, tuple: Tuple) {
        // The root pointer lock is the topmost "latch": held until the root
        // is known safe so a root split can swap the pointer.
        let mut root_ptr = Some(self.root.lock());
        let root = Arc::clone(root_ptr.as_ref().unwrap());
        let mut path: Vec<(WriteGuard, usize)> = Vec::new();
        let mut current = root.write_arc();

        if !current.is_full(self.fanout, self.leaf_capacity) {
            root_ptr = None; // root safe: release the pointer lock
        }

        // Descend to the leaf.
        #[allow(clippy::while_let_loop)]
        loop {
            let slot = match &*current {
                Node::Inner { keys, .. } => keys.partition_point(|&s| s <= tuple.key),
                Node::Leaf { .. } => break,
            };
            let child = match &*current {
                Node::Inner { children, .. } => Arc::clone(&children[slot]),
                Node::Leaf { .. } => unreachable!(),
            };
            let child_guard = child.write_arc();
            if child_guard.is_full(self.fanout, self.leaf_capacity) {
                // Unsafe child: its split may propagate here, keep the latch.
                path.push((current, slot));
            } else {
                // Safe child: no split can propagate past it — release every
                // ancestor latch (and the root-pointer lock).
                path.clear();
                drop(current);
                root_ptr = None;
            }
            current = child_guard;
        }

        // Insert into the leaf.
        if let Node::Leaf { entries, .. } = &mut *current {
            let pos = entries.partition_point(|e| (e.key, e.ts) <= (tuple.key, tuple.ts));
            entries.insert(pos, tuple);
        }

        // Split upwards while nodes overflow.
        let mut over = if current.is_full(self.fanout, self.leaf_capacity) {
            Some(current)
        } else {
            None
        };
        while let Some(mut full) = over.take() {
            // Full beyond capacity means it has exceeded the bound by one —
            // split when strictly over capacity.
            let must_split = match &*full {
                Node::Leaf { entries, .. } => entries.len() > self.leaf_capacity,
                Node::Inner { children, .. } => children.len() > self.fanout,
            };
            if !must_split {
                break;
            }
            let (sep, right) = self.split(&mut full);
            drop(full);
            match path.pop() {
                Some((mut parent, slot)) => {
                    if let Node::Inner { keys, children } = &mut *parent {
                        keys.insert(slot, sep);
                        children.insert(slot + 1, right);
                    }
                    over = Some(parent);
                }
                None => {
                    // Root split: the root-pointer lock is still held
                    // (crabbing guarantees it, since the root was unsafe).
                    let mut rp = root_ptr.take().expect("root lock held for root split");
                    let old_root = Arc::clone(&rp);
                    *rp = Arc::new(RwLock::new(Node::Inner {
                        keys: vec![sep],
                        children: vec![old_root, right],
                    }));
                    break;
                }
            }
        }
    }
}

impl TupleIndex for ConcurrentBTree {
    fn insert(&self, tuple: Tuple) {
        let t0 = Instant::now();
        self.insert_crabbing(tuple);
        self.count.fetch_add(1, Ordering::AcqRel);
        let elapsed = t0.elapsed();
        // insert_ns records the *whole* path; Figure 7(b)'s "pure insert"
        // is insert − split.
        self.stats.add(&self.stats.insert_ns, elapsed);
    }

    fn query(
        &self,
        keys: &KeyInterval,
        times: &TimeInterval,
        predicate: Option<&(dyn Fn(&Tuple) -> bool + Sync)>,
    ) -> Vec<Tuple> {
        // Read-latch crabbing down to the first qualifying leaf.
        let root = Arc::clone(&*self.root.lock());
        let mut node = root.read_arc();
        #[allow(clippy::while_let_loop)]
        loop {
            let child = match &*node {
                Node::Inner {
                    keys: seps,
                    children,
                } => {
                    // Strict comparison: a run of duplicate keys may have
                    // been split across leaves, with the separator equal to
                    // the key itself; descend to the *leftmost* leaf that
                    // can hold `keys.lo()` and rely on the chain scan.
                    let slot = seps.partition_point(|&s| s < keys.lo());
                    Arc::clone(&children[slot])
                }
                Node::Leaf { .. } => break,
            };
            node = child.read_arc();
        }
        // Scan the leaf chain.
        let mut out = Vec::new();
        loop {
            let next = match &*node {
                Node::Leaf { entries, next } => {
                    self.stats.leaves_scanned.fetch_add(1, Ordering::Relaxed);
                    let start = entries.partition_point(|e| e.key < keys.lo());
                    let mut done = false;
                    for e in &entries[start..] {
                        if e.key > keys.hi() {
                            done = true;
                            break;
                        }
                        if times.contains(e.ts) && predicate.is_none_or(|p| p(e)) {
                            out.push(e.clone());
                        }
                    }
                    // Also stop if this leaf's max key already exceeds hi.
                    if done || entries.last().is_some_and(|e| e.key > keys.hi()) {
                        None
                    } else {
                        next.clone()
                    }
                }
                Node::Inner { .. } => unreachable!("leaf chain contains inner node"),
            };
            match next {
                Some(n) => node = n.read_arc(),
                None => break,
            }
        }
        out
    }

    fn len(&self) -> usize {
        self.count.load(Ordering::Acquire)
    }

    fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    fn name(&self) -> &'static str {
        "concurrent"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waterwheel_index::traits::query_sorted;

    fn tree() -> ConcurrentBTree {
        ConcurrentBTree::new(4, 4)
    }

    #[test]
    fn insert_and_point_query() {
        let t = tree();
        for i in 0..200u64 {
            t.insert(Tuple::bare(i, i));
        }
        assert_eq!(t.len(), 200);
        for i in (0..200u64).step_by(17) {
            let hits = t.query(&KeyInterval::point(i), &TimeInterval::full(), None);
            assert_eq!(hits.len(), 1, "key {i}");
            assert_eq!(hits[0].key, i);
        }
    }

    #[test]
    fn range_query_spans_leaf_chain() {
        let t = tree();
        for i in (0..500u64).rev() {
            t.insert(Tuple::bare(i, i));
        }
        let hits = query_sorted(&t, &KeyInterval::new(100, 300), &TimeInterval::full());
        assert_eq!(hits.len(), 201);
        assert_eq!(hits[0].key, 100);
        assert_eq!(hits[200].key, 300);
    }

    #[test]
    fn splits_are_counted() {
        let t = tree();
        for i in 0..100u64 {
            t.insert(Tuple::bare(i, i));
        }
        let s = t.stats();
        assert!(s.splits > 0, "no splits in 100 inserts with capacity 4");
        assert!(s.split > std::time::Duration::ZERO);
    }

    #[test]
    fn duplicate_keys_survive_splits() {
        let t = tree();
        for i in 0..64u64 {
            t.insert(Tuple::bare(7, i));
        }
        let hits = t.query(&KeyInterval::point(7), &TimeInterval::full(), None);
        assert_eq!(hits.len(), 64);
    }

    #[test]
    fn time_filter_applies() {
        let t = tree();
        for i in 0..100u64 {
            t.insert(Tuple::bare(i, i * 2));
        }
        let hits = t.query(&KeyInterval::full(), &TimeInterval::new(0, 50), None);
        assert_eq!(hits.len(), 26);
    }

    #[test]
    fn concurrent_inserts_do_not_lose_tuples() {
        use std::thread;
        let t = Arc::new(ConcurrentBTree::new(8, 16));
        let handles: Vec<_> = (0..4)
            .map(|w| {
                let t = Arc::clone(&t);
                thread::spawn(move || {
                    for i in 0..1_000u64 {
                        t.insert(Tuple::bare(w * 100_000 + i * 7, i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.len(), 4_000);
        let hits = t.query(&KeyInterval::full(), &TimeInterval::full(), None);
        assert_eq!(hits.len(), 4_000);
        // Keys are globally sorted across the leaf chain.
        assert!(hits.windows(2).all(|w| w[0].key <= w[1].key));
    }

    #[test]
    fn reverse_and_random_order_agree_with_btreemap() {
        let t = tree();
        let mut expected = std::collections::BTreeMap::new();
        let mut x: u64 = 0x12345;
        for i in 0..400u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = x % 1000;
            t.insert(Tuple::bare(key, i));
            expected.entry(key).or_insert_with(Vec::new).push(i);
        }
        for key in [0u64, 500, 999, 123] {
            let hits = t.query(&KeyInterval::point(key), &TimeInterval::full(), None);
            let want = expected.get(&key).map_or(0, Vec::len);
            assert_eq!(hits.len(), want, "key {key}");
        }
    }
}
