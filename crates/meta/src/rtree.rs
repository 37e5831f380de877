//! An R-tree over key–time rectangles (paper §IV-A).
//!
//! "To efficiently reason about the data regions covered by a given user
//! query, the coordinator maintains a copy of the metadata of the data
//! regions and employs an R-tree to manage the data." Chunk regions are
//! append-mostly, so the tree is optimized for insert + overlap search;
//! removal (retention GC) is supported but not prioritized.
//!
//! The implementation is a classic Guttman R-tree with quadratic split.
//! Rectangle "area" uses [`Region::log_area`] — a monotone proxy that cannot
//! overflow on full-domain rectangles.

use waterwheel_core::Region;

/// Node capacity (`M`); splits produce nodes with ≥ `M/2` entries.
const MAX_ENTRIES: usize = 8;
const MIN_ENTRIES: usize = MAX_ENTRIES / 2;

enum Node<T> {
    Leaf(Vec<(Region, T)>),
    Inner(Vec<(Region, Box<Node<T>>)>),
}

impl<T> Node<T> {
    fn len(&self) -> usize {
        match self {
            Node::Leaf(v) => v.len(),
            Node::Inner(v) => v.len(),
        }
    }

    fn mbr(&self) -> Option<Region> {
        match self {
            Node::Leaf(v) => v.iter().map(|(r, _)| *r).reduce(|a, b| a.hull(&b)),
            Node::Inner(v) => v.iter().map(|(r, _)| *r).reduce(|a, b| a.hull(&b)),
        }
    }
}

/// How much `mbr` must grow to absorb `add`.
fn enlargement(mbr: &Region, add: &Region) -> f64 {
    mbr.hull(add).log_area() - mbr.log_area()
}

/// Quadratic-split seed selection: the pair wasting the most area together.
fn pick_seeds(regions: &[Region]) -> (usize, usize) {
    let mut best = (0, 1);
    let mut worst_waste = f64::NEG_INFINITY;
    for i in 0..regions.len() {
        for j in (i + 1)..regions.len() {
            let waste = regions[i].hull(&regions[j]).log_area()
                - regions[i].log_area().min(regions[j].log_area());
            if waste > worst_waste {
                worst_waste = waste;
                best = (i, j);
            }
        }
    }
    best
}

/// A split of entries into two sibling groups.
type SplitGroups<E> = (Vec<(Region, E)>, Vec<(Region, E)>);

/// Distributes `items` into two groups by the quadratic algorithm.
fn quadratic_split<E>(mut items: Vec<(Region, E)>) -> SplitGroups<E> {
    debug_assert!(items.len() >= 2);
    let regions: Vec<Region> = items.iter().map(|(r, _)| *r).collect();
    let (si, sj) = pick_seeds(&regions);
    // Remove the higher index first so the lower stays valid.
    let (hi, lo) = (si.max(sj), si.min(sj));
    let seed_b = items.remove(hi);
    let seed_a = items.remove(lo);
    let mut group_a = vec![seed_a];
    let mut group_b = vec![seed_b];
    let mut mbr_a = group_a[0].0;
    let mut mbr_b = group_b[0].0;
    while let Some(item) = items.pop() {
        // Force-assign when one group must take everything left to reach m.
        let remaining = items.len() + 1;
        if group_a.len() + remaining <= MIN_ENTRIES {
            mbr_a = mbr_a.hull(&item.0);
            group_a.push(item);
            continue;
        }
        if group_b.len() + remaining <= MIN_ENTRIES {
            mbr_b = mbr_b.hull(&item.0);
            group_b.push(item);
            continue;
        }
        let grow_a = enlargement(&mbr_a, &item.0);
        let grow_b = enlargement(&mbr_b, &item.0);
        if grow_a <= grow_b {
            mbr_a = mbr_a.hull(&item.0);
            group_a.push(item);
        } else {
            mbr_b = mbr_b.hull(&item.0);
            group_b.push(item);
        }
    }
    (group_a, group_b)
}

/// An R-tree mapping rectangles to values.
pub struct RTree<T> {
    root: Node<T>,
    len: usize,
}

impl<T> Default for RTree<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> RTree<T> {
    /// Creates an empty tree.
    pub fn new() -> Self {
        Self {
            root: Node::Leaf(Vec::new()),
            len: 0,
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts a rectangle/value pair. Duplicate rectangles are allowed.
    pub fn insert(&mut self, region: Region, value: T) {
        self.len += 1;
        if let Some((r1, n1, r2, n2)) = Self::insert_rec(&mut self.root, region, value) {
            // Root split: grow the tree by one level.
            let old_root = std::mem::replace(&mut self.root, Node::Inner(Vec::new()));
            drop(old_root); // contents were moved into n1/n2 by the split
            self.root = Node::Inner(vec![(r1, n1), (r2, n2)]);
        }
    }

    /// Recursive insert; returns the two halves when `node` split.
    #[allow(clippy::type_complexity)]
    fn insert_rec(
        node: &mut Node<T>,
        region: Region,
        value: T,
    ) -> Option<(Region, Box<Node<T>>, Region, Box<Node<T>>)> {
        match node {
            Node::Leaf(entries) => {
                entries.push((region, value));
                if entries.len() <= MAX_ENTRIES {
                    return None;
                }
                let items = std::mem::take(entries);
                let (a, b) = quadratic_split(items);
                let (ra, rb) = (
                    a.iter().map(|(r, _)| *r).reduce(|x, y| x.hull(&y)).unwrap(),
                    b.iter().map(|(r, _)| *r).reduce(|x, y| x.hull(&y)).unwrap(),
                );
                Some((ra, Box::new(Node::Leaf(a)), rb, Box::new(Node::Leaf(b))))
            }
            Node::Inner(entries) => {
                // Choose the child needing least enlargement (ties: smaller).
                let mut best = 0;
                let mut best_grow = f64::INFINITY;
                let mut best_area = f64::INFINITY;
                for (i, (mbr, _)) in entries.iter().enumerate() {
                    let grow = enlargement(mbr, &region);
                    let area = mbr.log_area();
                    if grow < best_grow || (grow == best_grow && area < best_area) {
                        best = i;
                        best_grow = grow;
                        best_area = area;
                    }
                }
                let (mbr, child) = &mut entries[best];
                *mbr = mbr.hull(&region);
                if let Some((r1, n1, r2, n2)) = Self::insert_rec(child, region, value) {
                    // Replace the split child with its two halves.
                    entries.swap_remove(best);
                    entries.push((r1, n1));
                    entries.push((r2, n2));
                    if entries.len() > MAX_ENTRIES {
                        let items = std::mem::take(entries);
                        let (a, b) = quadratic_split(items);
                        let (ra, rb) = (
                            a.iter().map(|(r, _)| *r).reduce(|x, y| x.hull(&y)).unwrap(),
                            b.iter().map(|(r, _)| *r).reduce(|x, y| x.hull(&y)).unwrap(),
                        );
                        return Some((ra, Box::new(Node::Inner(a)), rb, Box::new(Node::Inner(b))));
                    }
                }
                None
            }
        }
    }

    /// Collects all values whose rectangles overlap `query`.
    pub fn search(&self, query: &Region) -> Vec<&T> {
        let mut out = Vec::new();
        self.search_with(query, &mut |_r, v| out.push(v));
        out
    }

    fn search_with<'t>(&'t self, query: &Region, visit: &mut impl FnMut(Region, &'t T)) {
        fn rec<'t, T>(node: &'t Node<T>, query: &Region, visit: &mut impl FnMut(Region, &'t T)) {
            match node {
                Node::Leaf(entries) => {
                    for (r, v) in entries {
                        if r.overlaps(query) {
                            visit(*r, v);
                        }
                    }
                }
                Node::Inner(entries) => {
                    for (mbr, child) in entries {
                        if mbr.overlaps(query) {
                            rec(child, query, visit);
                        }
                    }
                }
            }
        }
        rec(&self.root, query, visit);
    }

    /// Removes the first entry with an exactly matching rectangle for which
    /// `pred` holds; returns its value. Underflowing nodes are tolerated
    /// (search stays correct); empty subtrees are pruned.
    pub fn remove(&mut self, region: &Region, pred: impl Fn(&T) -> bool) -> Option<T> {
        fn rec<T>(node: &mut Node<T>, region: &Region, pred: &impl Fn(&T) -> bool) -> Option<T> {
            match node {
                Node::Leaf(entries) => {
                    let pos = entries.iter().position(|(r, v)| r == region && pred(v))?;
                    Some(entries.remove(pos).1)
                }
                Node::Inner(entries) => {
                    for i in 0..entries.len() {
                        if entries[i].0.covers(region) || entries[i].0.overlaps(region) {
                            if let Some(v) = rec(&mut entries[i].1, region, pred) {
                                if entries[i].1.len() == 0 {
                                    entries.remove(i);
                                } else if let Some(mbr) = entries[i].1.mbr() {
                                    entries[i].0 = mbr;
                                }
                                return Some(v);
                            }
                        }
                    }
                    None
                }
            }
        }
        let removed = rec(&mut self.root, region, &pred);
        if removed.is_some() {
            self.len -= 1;
        }
        removed
    }

    /// Visits every stored entry (diagnostics, persistence snapshots).
    pub fn for_each(&self, mut visit: impl FnMut(Region, &T)) {
        self.search_with(&Region::full(), &mut |r, v| visit(r, v));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waterwheel_core::{KeyInterval, TimeInterval};

    fn region(k0: u64, k1: u64, t0: u64, t1: u64) -> Region {
        Region::new(KeyInterval::new(k0, k1), TimeInterval::new(t0, t1))
    }

    /// Deterministic pseudo-random regions for oracle comparison.
    fn random_regions(n: usize, seed: u64) -> Vec<Region> {
        let mut x = seed;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        (0..n)
            .map(|_| {
                let k0 = next() % 10_000;
                let k1 = k0 + next() % 500;
                let t0 = next() % 10_000;
                let t1 = t0 + next() % 500;
                region(k0, k1, t0, t1)
            })
            .collect()
    }

    #[test]
    fn search_matches_linear_scan_oracle() {
        let regions = random_regions(500, 42);
        let mut tree = RTree::new();
        for (i, r) in regions.iter().enumerate() {
            tree.insert(*r, i);
        }
        assert_eq!(tree.len(), 500);
        for q in random_regions(50, 777) {
            let mut got: Vec<usize> = tree.search(&q).into_iter().copied().collect();
            got.sort_unstable();
            let mut want: Vec<usize> = regions
                .iter()
                .enumerate()
                .filter(|(_, r)| r.overlaps(&q))
                .map(|(i, _)| i)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "query {q:?}");
        }
    }

    #[test]
    fn empty_tree_returns_nothing() {
        let tree: RTree<u32> = RTree::new();
        assert!(tree.search(&Region::full()).is_empty());
        assert!(tree.is_empty());
    }

    #[test]
    fn full_domain_query_finds_everything() {
        let mut tree = RTree::new();
        for i in 0..100u64 {
            tree.insert(region(i * 10, i * 10 + 5, 0, 10), i);
        }
        assert_eq!(tree.search(&Region::full()).len(), 100);
    }

    #[test]
    fn disjoint_query_finds_nothing() {
        let mut tree = RTree::new();
        for i in 0..50u64 {
            tree.insert(region(i, i + 1, 0, 100), i);
        }
        assert!(tree.search(&region(1_000, 2_000, 0, 100)).is_empty());
        assert!(tree.search(&region(0, 100, 500, 600)).is_empty());
    }

    #[test]
    fn duplicate_rectangles_coexist() {
        let mut tree = RTree::new();
        let r = region(0, 10, 0, 10);
        tree.insert(r, "a");
        tree.insert(r, "b");
        let mut hits: Vec<&str> = tree.search(&r).into_iter().copied().collect();
        hits.sort_unstable();
        assert_eq!(hits, vec!["a", "b"]);
    }

    #[test]
    fn remove_deletes_exactly_one_matching_entry() {
        let regions = random_regions(200, 7);
        let mut tree = RTree::new();
        for (i, r) in regions.iter().enumerate() {
            tree.insert(*r, i);
        }
        let victim = regions[100];
        let removed = tree.remove(&victim, |&v| v == 100);
        assert_eq!(removed, Some(100));
        assert_eq!(tree.len(), 199);
        // Oracle check after removal.
        for q in random_regions(20, 99) {
            let mut got: Vec<usize> = tree.search(&q).into_iter().copied().collect();
            got.sort_unstable();
            let mut want: Vec<usize> = regions
                .iter()
                .enumerate()
                .filter(|(i, r)| *i != 100 && r.overlaps(&q))
                .map(|(i, _)| i)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want);
        }
        // Removing again fails.
        assert_eq!(tree.remove(&victim, |&v| v == 100), None);
    }

    #[test]
    fn for_each_visits_every_entry() {
        let mut tree = RTree::new();
        for i in 0..64u64 {
            tree.insert(region(i, i, i, i), i);
        }
        let mut seen = Vec::new();
        tree.for_each(|_, &v| seen.push(v));
        seen.sort_unstable();
        assert_eq!(seen, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn overlapping_regions_from_repartitioning_are_all_found() {
        // Paper §III-D: after a key repartition, chunk regions may overlap;
        // queries over the overlap must see both.
        let mut tree = RTree::new();
        tree.insert(region(0, 180, 0, 100), "chunk-a");
        tree.insert(region(150, 300, 50, 160), "chunk-b");
        let hits = tree.search(&region(160, 170, 60, 90));
        assert_eq!(hits.len(), 2);
    }
}
