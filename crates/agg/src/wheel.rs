//! The live hierarchical aggregate wheel maintained per in-memory region.

use crate::partial::PartialAgg;
use crate::plan::{plan_slots, slice_of};
use std::collections::BTreeMap;
use waterwheel_core::TimeInterval;

/// A wheel ring granularity, finest to coarsest.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Granularity {
    /// 1-second buckets.
    Second,
    /// 1-minute buckets.
    Minute,
    /// 1-hour buckets.
    Hour,
    /// 1-day buckets.
    Day,
}

impl Granularity {
    /// All granularities, finest first (ring array order).
    pub const ALL: [Granularity; 4] = [
        Granularity::Second,
        Granularity::Minute,
        Granularity::Hour,
        Granularity::Day,
    ];

    /// Bucket width in milliseconds.
    pub fn span_ms(self) -> u64 {
        match self {
            Granularity::Second => 1_000,
            Granularity::Minute => 60_000,
            Granularity::Hour => 3_600_000,
            Granularity::Day => 86_400_000,
        }
    }

    /// Ring index, 0 = finest.
    pub fn index(self) -> usize {
        match self {
            Granularity::Second => 0,
            Granularity::Minute => 1,
            Granularity::Hour => 2,
            Granularity::Day => 3,
        }
    }

    /// The next finer granularity, `None` for [`Granularity::Second`].
    pub fn finer(self) -> Option<Granularity> {
        match self {
            Granularity::Second => None,
            Granularity::Minute => Some(Granularity::Second),
            Granularity::Hour => Some(Granularity::Minute),
            Granularity::Day => Some(Granularity::Hour),
        }
    }
}

/// One ring: partial aggregates keyed by `(time bucket, key slice)`.
/// Bucket-major order makes one slot's slice range a contiguous map range.
pub type Ring = BTreeMap<(u64, u16), PartialAgg>;

/// The result of folding wheel cells over a covered rectangle.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FoldOutcome {
    /// Merged aggregate over every cell the wheel could answer.
    pub agg: PartialAgg,
    /// Number of non-empty cells merged.
    pub cells_merged: u64,
    /// Sub-intervals of the covered time range the wheel could *not*
    /// answer (rings dropped by the summary cap); the caller must tuple-scan
    /// these. Coalesced and disjoint. Always empty for a live wheel.
    pub residues: Vec<TimeInterval>,
}

impl FoldOutcome {
    fn merge_cell(&mut self, cell: &PartialAgg) {
        self.agg.merge(cell);
        self.cells_merged += 1;
    }
}

/// A live hierarchical aggregate wheel: one ring per granularity, every
/// ring always present (capping only happens when sealing a summary).
///
/// Inserts update all four rings; a query fold touches the covered
/// interval's slot decomposition, so wide ranges hit the coarse rings and
/// stay cheap.
#[derive(Debug)]
pub struct AggWheel {
    pub(crate) slice_bits: u8,
    pub(crate) rings: [Ring; 4],
    pub(crate) hull: Option<TimeInterval>,
}

impl AggWheel {
    /// Creates an empty wheel slicing keys by their top `slice_bits` bits
    /// (clamped to 1..=16).
    pub fn new(slice_bits: u8) -> Self {
        Self {
            slice_bits: slice_bits.clamp(1, 16),
            rings: Default::default(),
            hull: None,
        }
    }

    /// Key-slice width exponent this wheel was built with.
    pub fn slice_bits(&self) -> u8 {
        self.slice_bits
    }

    /// The raw time extent of inserted data, `None` when empty.
    pub fn hull(&self) -> Option<TimeInterval> {
        self.hull
    }

    /// Cells currently held by the ring at `gran`.
    pub fn ring_len(&self, gran: Granularity) -> usize {
        self.rings[gran.index()].len()
    }

    /// Whether any tuple has been folded in.
    pub fn is_empty(&self) -> bool {
        self.hull.is_none()
    }

    /// Folds one measured tuple into every ring.
    pub fn insert(&mut self, key: u64, ts: u64, value: u64) {
        self.insert_batch([(key, ts, value)]);
    }

    /// Folds measured `(key, ts, value)` tuples into every ring. The batch
    /// is first merged per distinct `(second, slice)`, so each ring is
    /// touched once per cell instead of once per tuple; merging is exact,
    /// so the rings end up the same either way.
    pub fn insert_batch(&mut self, tuples: impl IntoIterator<Item = (u64, u64, u64)>) {
        let mut cells: BTreeMap<(u64, u16), PartialAgg> = BTreeMap::new();
        for (key, ts, value) in tuples {
            cells
                .entry((ts / 1_000, slice_of(key, self.slice_bits)))
                .or_default()
                .insert(value);
            match &mut self.hull {
                None => self.hull = Some(TimeInterval::point(ts)),
                Some(hull) => hull.extend_to(ts),
            }
        }
        for ((second, slice), agg) in cells {
            for gran in Granularity::ALL {
                let bucket = second / (gran.span_ms() / 1_000);
                self.rings[gran.index()]
                    .entry((bucket, slice))
                    .or_default()
                    .merge(&agg);
            }
        }
    }

    /// Merges every cell inside `slices × covered`. `covered` must be
    /// second-aligned (see `plan::plan_time`). A live wheel has every ring,
    /// so the outcome never carries residues.
    pub fn fold(&self, slices: (u16, u16), covered: &TimeInterval) -> FoldOutcome {
        let mut out = FoldOutcome::default();
        let Some(covered) = clip_to_hull(covered, self.hull) else {
            return out;
        };
        for (gran, bucket) in plan_slots(&covered) {
            let ring = &self.rings[gran.index()];
            for (_, cell) in ring.range((bucket, slices.0)..=(bucket, slices.1)) {
                out.merge_cell(cell);
            }
        }
        out
    }
}

/// Clips a covered interval to the (second-expanded) hull of the data.
///
/// Outside the hull there is provably no data, so skipping it keeps the
/// slot decomposition proportional to the *data* span rather than the
/// query span — a `[0, u64::MAX]` dashboard query stays O(data seconds).
pub(crate) fn clip_to_hull(
    covered: &TimeInterval,
    hull: Option<TimeInterval>,
) -> Option<TimeInterval> {
    let hull = hull?;
    let lo = hull.lo() / 1_000 * 1_000;
    let hi = ((hull.hi() as u128 / 1_000 + 1) * 1_000 - 1).min(u64::MAX as u128) as u64;
    covered.intersect(&TimeInterval::new(lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_order_is_fine_to_coarse() {
        for w in Granularity::ALL.windows(2) {
            assert!(w[0].span_ms() < w[1].span_ms());
            assert_eq!(w[1].finer(), Some(w[0]));
        }
        assert_eq!(Granularity::Second.finer(), None);
    }

    #[test]
    fn insert_populates_every_ring() {
        let mut w = AggWheel::new(4);
        w.insert(0, 5_500, 10);
        w.insert(0, 6_500, 20);
        assert_eq!(w.ring_len(Granularity::Second), 2);
        assert_eq!(w.ring_len(Granularity::Minute), 1);
        assert_eq!(w.ring_len(Granularity::Day), 1);
        assert_eq!(w.hull(), Some(TimeInterval::new(5_500, 6_500)));
    }

    #[test]
    fn insert_batch_over_any_split_builds_the_same_rings() {
        // Tuples on both sides of second, minute and slice boundaries.
        let tuples: Vec<(u64, u64, u64)> = (0..600u64)
            .map(|i| ((i % 5) << 60 | i, 58_000 + i * 7, i * 31 % 97))
            .collect();
        let mut one_by_one = AggWheel::new(4);
        for &(key, ts, value) in &tuples {
            one_by_one.insert(key, ts, value);
        }
        for batch in [1, 7, 256, 600] {
            let mut batched = AggWheel::new(4);
            for chunk in tuples.chunks(batch) {
                batched.insert_batch(chunk.iter().copied());
            }
            assert_eq!(batched.rings, one_by_one.rings, "batches of {batch}");
            assert_eq!(batched.hull, one_by_one.hull);
        }
    }

    #[test]
    fn fold_matches_naive_over_random_data() {
        // Deterministic LCG workload; compare the wheel fold against a
        // naive filter over the raw inserts for many covered ranges.
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        let mut step = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut w = AggWheel::new(4);
        let mut raw = Vec::new();
        for _ in 0..3_000 {
            let key = step();
            let ts = step() % 200_000; // ~3 minutes of data
            let v = step() % 1_000;
            w.insert(key, ts, v);
            raw.push((key, ts, v));
        }
        for (lo_s, hi_s) in [(0u64, 199), (3, 17), (60, 119), (0, 0), (150, 199)] {
            let covered = TimeInterval::new(lo_s * 1_000, (hi_s + 1) * 1_000 - 1);
            let got = w.fold((0, 15), &covered);
            assert!(got.residues.is_empty());
            let mut want = PartialAgg::empty();
            for (_, ts, v) in raw.iter().filter(|(_, ts, _)| covered.contains(*ts)) {
                let _ = ts;
                want.insert(*v);
            }
            assert_eq!(got.agg, want, "seconds [{lo_s}, {hi_s}]");
        }
    }

    #[test]
    fn fold_restricts_key_slices() {
        let mut w = AggWheel::new(1); // two slices: [0, 2^63), [2^63, MAX]
        w.insert(0, 1_000, 5);
        w.insert(u64::MAX, 1_000, 7);
        let lo = w.fold((0, 0), &TimeInterval::new(1_000, 1_999));
        assert_eq!(lo.agg.sum, 5);
        let hi = w.fold((1, 1), &TimeInterval::new(1_000, 1_999));
        assert_eq!(hi.agg.sum, 7);
        let both = w.fold((0, 1), &TimeInterval::new(1_000, 1_999));
        assert_eq!(both.agg.sum, 12);
        assert_eq!(both.cells_merged, 2);
    }

    #[test]
    fn wide_query_clips_to_data_hull() {
        let mut w = AggWheel::new(4);
        w.insert(42, 5_000, 1);
        // Covering the whole u64 time domain must not enumerate it.
        let out = w.fold((0, 15), &TimeInterval::full());
        assert_eq!(out.agg.count, 1);
    }
}
