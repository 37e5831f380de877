//! The immutable output of flushing an in-memory tree (paper §III-A).
//!
//! When an indexing server's in-memory B+ tree reaches the chunk-size
//! threshold it is *sealed*: leaves are detached in key order together with
//! the template's leaf boundaries and the per-leaf temporal bloom filters.
//! The storage crate serializes a [`SealedTree`] into the on-disk chunk
//! format; the tree itself keeps its template and continues with empty
//! leaves.

use crate::bloom::TimeBloom;
use waterwheel_core::{Key, KeyInterval, Region, TimeInterval, Tuple};

/// One leaf of a sealed tree: its tuples sorted by `(key, ts)` plus the
/// pruning metadata a chunk query needs before touching the tuples.
#[derive(Clone, Debug)]
pub struct SealedLeaf {
    /// Tuples sorted by `(key, ts)`.
    pub entries: Vec<Tuple>,
    /// Temporal bloom filter over the leaf's mini-ranges, if enabled.
    pub bloom: Option<TimeBloom>,
    /// Minimum/maximum timestamp among `entries` (valid iff non-empty).
    pub time_range: Option<TimeInterval>,
}

impl SealedLeaf {
    /// Serialized tuple-byte footprint of this leaf.
    pub fn byte_size(&self) -> usize {
        self.entries.iter().map(Tuple::encoded_len).sum()
    }
}

/// A sealed in-memory tree, ready for chunk serialization.
#[derive(Clone, Debug)]
pub struct SealedTree {
    /// Leaves in key order.
    pub leaves: Vec<SealedLeaf>,
    /// Separator keys between adjacent leaves (`leaves.len() − 1` entries):
    /// leaf `i` holds keys `< separators[i]`, leaf `i+1` keys `≥`.
    pub separators: Vec<Key>,
    /// The key–time rectangle covered by the sealed data. The key interval
    /// is the indexing server's *assigned* interval; the time interval is
    /// the exact min/max of the sealed tuples.
    pub region: Region,
    /// Total tuple count.
    pub count: usize,
}

impl SealedTree {
    /// All tuples across all leaves, in key order (consumes the seal).
    pub fn into_tuples(self) -> Vec<Tuple> {
        let mut out = Vec::with_capacity(self.count);
        for leaf in self.leaves {
            out.extend(leaf.entries);
        }
        out
    }

    /// The tuples inside `keys × times` that pass `predicate`, in key
    /// order: a scan of the leaves the keys route to, less those whose time
    /// bounds miss `times`.
    pub fn query(
        &self,
        keys: &KeyInterval,
        times: &TimeInterval,
        predicate: Option<&(dyn Fn(&Tuple) -> bool + Sync)>,
    ) -> Vec<Tuple> {
        let leaf_of = |key: Key| self.separators.partition_point(|&s| s <= key);
        self.leaves[leaf_of(keys.lo())..=leaf_of(keys.hi())]
            .iter()
            .filter(|leaf| leaf.time_range.is_some_and(|r| r.overlaps(times)))
            .flat_map(|leaf| &leaf.entries)
            .filter(|t| keys.contains(t.key) && times.contains(t.ts))
            .filter(|t| predicate.is_none_or(|p| p(t)))
            .cloned()
            .collect()
    }

    /// Total serialized tuple bytes.
    pub fn byte_size(&self) -> usize {
        self.leaves.iter().map(SealedLeaf::byte_size).sum()
    }

    /// Checks the structural invariants a seal must satisfy; used by tests
    /// and debug assertions in the storage layer.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.separators.len() + 1 != self.leaves.len() {
            return Err(format!(
                "{} separators for {} leaves",
                self.separators.len(),
                self.leaves.len()
            ));
        }
        if !self.separators.windows(2).all(|w| w[0] < w[1]) {
            return Err("separators not strictly increasing".into());
        }
        let mut total = 0;
        for (i, leaf) in self.leaves.iter().enumerate() {
            total += leaf.entries.len();
            if !leaf
                .entries
                .windows(2)
                .all(|w| (w[0].key, w[0].ts) <= (w[1].key, w[1].ts))
            {
                return Err(format!("leaf {i} not sorted"));
            }
            for t in &leaf.entries {
                if i > 0 && t.key < self.separators[i - 1] {
                    return Err(format!("leaf {i} contains key below its separator"));
                }
                if i < self.separators.len() && t.key >= self.separators[i] {
                    return Err(format!("leaf {i} contains key above its separator"));
                }
                if !self.region.contains_tuple(t) {
                    return Err(format!("tuple outside sealed region in leaf {i}"));
                }
            }
        }
        if total != self.count {
            return Err(format!("count {} != sum of leaves {}", self.count, total));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(entries: Vec<Tuple>) -> SealedLeaf {
        let time_range = entries
            .iter()
            .map(|t| t.ts)
            .fold(None::<TimeInterval>, |acc, ts| {
                Some(match acc {
                    None => TimeInterval::point(ts),
                    Some(mut i) => {
                        i.extend_to(ts);
                        i
                    }
                })
            });
        SealedLeaf {
            entries,
            bloom: None,
            time_range,
        }
    }

    fn valid_seal() -> SealedTree {
        SealedTree {
            leaves: vec![
                leaf(vec![Tuple::bare(1, 10), Tuple::bare(4, 12)]),
                leaf(vec![Tuple::bare(5, 11), Tuple::bare(9, 15)]),
            ],
            separators: vec![5],
            region: Region::new(KeyInterval::new(0, 10), TimeInterval::new(10, 15)),
            count: 4,
        }
    }

    #[test]
    fn query_answers_the_rectangle_across_leaves() {
        let s = valid_seal();
        let keys = |hits: Vec<Tuple>| hits.iter().map(|t| (t.key, t.ts)).collect::<Vec<_>>();
        let all = TimeInterval::full();
        assert_eq!(
            keys(s.query(&KeyInterval::new(4, 5), &all, None)),
            [(4, 12), (5, 11)]
        );
        assert_eq!(
            keys(s.query(&KeyInterval::full(), &TimeInterval::new(11, 12), None)),
            [(4, 12), (5, 11)]
        );
        let even = |t: &Tuple| t.key.is_multiple_of(2);
        assert_eq!(
            keys(s.query(&KeyInterval::full(), &all, Some(&even))),
            [(4, 12)]
        );
        assert!(s.query(&KeyInterval::new(6, 8), &all, None).is_empty());
    }

    #[test]
    fn valid_seal_passes_invariants() {
        valid_seal().check_invariants().unwrap();
    }

    #[test]
    fn invariants_catch_misrouted_keys() {
        let mut s = valid_seal();
        s.leaves[0].entries.push(Tuple::bare(7, 10)); // 7 ≥ separator 5
        s.count += 1;
        assert!(s.check_invariants().is_err());
    }

    #[test]
    fn invariants_catch_bad_count() {
        let mut s = valid_seal();
        s.count = 99;
        assert!(s.check_invariants().is_err());
    }

    #[test]
    fn invariants_catch_unsorted_leaf() {
        let mut s = valid_seal();
        s.leaves[1].entries.reverse();
        assert!(s.check_invariants().is_err());
    }

    #[test]
    fn into_tuples_preserves_key_order() {
        let tuples = valid_seal().into_tuples();
        let keys: Vec<_> = tuples.iter().map(|t| t.key).collect();
        assert_eq!(keys, vec![1, 4, 5, 9]);
    }

    #[test]
    fn byte_size_sums_leaves() {
        let s = valid_seal();
        assert_eq!(s.byte_size(), 4 * Tuple::bare(0, 0).encoded_len());
    }
}
