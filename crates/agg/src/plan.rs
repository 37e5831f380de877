//! Query-range planning: splitting an arbitrary `⟨K_q, T_q⟩` rectangle into
//! a wheel-coverable interior plus scannable fringes, and decomposing a
//! covered time interval into the minimal run of wheel slots.

use crate::wheel::Granularity;
use waterwheel_core::{KeyInterval, Region, TimeInterval};

/// The wheel-coverable part of a rectangle: whole key slices × whole
/// seconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interior {
    /// Inclusive range of fully-covered slice ids.
    pub slices: (u16, u16),
    /// The exact key interval of those slices.
    pub keys: KeyInterval,
    /// The second-aligned covered time interval.
    pub covered: TimeInterval,
}

/// A rectangle split against the wheel by [`split`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Split {
    /// Whole slices × whole seconds, `None` when the rectangle holds none.
    pub interior: Option<Interior>,
    /// At most four rectangles the wheel cannot answer: key fringes over
    /// the full time range, then time fringes over the covered keys.
    pub fringes: Vec<Region>,
}

/// Splits `keys × times` into the wheel interior and its fringes. The
/// pieces are pairwise disjoint and their union is exactly the rectangle,
/// so wheel cells over the interior plus tuple folds over the fringes
/// aggregate every tuple of the rectangle exactly once.
pub fn split(keys: &KeyInterval, times: &TimeInterval, slice_bits: u8) -> Split {
    let kp = plan_keys(keys, slice_bits);
    let tp = plan_time(times);
    let mut fringes: Vec<Region> = kp
        .fringes
        .iter()
        .map(|kf| Region::new(*kf, *times))
        .collect();
    let interior = kp.slices.and_then(|slices| {
        let covered_keys = slices_to_keys(slices.0, slices.1, slice_bits);
        fringes.extend(tp.fringes.iter().map(|tf| Region::new(covered_keys, *tf)));
        tp.covered.map(|covered| Interior {
            slices,
            keys: covered_keys,
            covered,
        })
    });
    Split { interior, fringes }
}

/// How a query time interval splits against second-aligned wheel buckets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimePlan {
    /// The largest second-aligned sub-interval (closed, `lo % 1000 == 0`,
    /// `(hi + 1) % 1000 == 0`); `None` when the query spans no whole second.
    pub covered: Option<TimeInterval>,
    /// At most two sub-second edges that must be answered by tuple scan.
    pub fringes: Vec<TimeInterval>,
}

/// How a query key interval splits against the wheel's key slices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeyPlan {
    /// Inclusive range of fully-covered slice ids; `None` when the query
    /// covers no whole slice.
    pub slices: Option<(u16, u16)>,
    /// At most two partial-slice edges that must be answered by tuple scan.
    pub fringes: Vec<KeyInterval>,
}

const MS_PER_SECOND: u128 = 1_000;

/// Splits `times` into the wheel-covered interior and sub-second fringes.
///
/// The three parts are pairwise disjoint and their union is exactly
/// `times`, which is what makes combining summary cells with fringe scans
/// exact rather than approximate.
pub fn plan_time(times: &TimeInterval) -> TimePlan {
    let lo = times.lo() as u128;
    let end = times.hi() as u128 + 1; // exclusive; u128 so MAX cannot overflow
    let lo_aligned = lo.div_ceil(MS_PER_SECOND) * MS_PER_SECOND;
    let end_aligned = end / MS_PER_SECOND * MS_PER_SECOND;
    if lo_aligned >= end_aligned {
        return TimePlan {
            covered: None,
            fringes: vec![*times],
        };
    }
    let mut fringes = Vec::new();
    if lo < lo_aligned {
        fringes.push(TimeInterval::new(times.lo(), (lo_aligned - 1) as u64));
    }
    if end_aligned < end {
        fringes.push(TimeInterval::new(end_aligned as u64, times.hi()));
    }
    TimePlan {
        covered: Some(TimeInterval::new(
            lo_aligned as u64,
            (end_aligned - 1) as u64,
        )),
        fringes,
    }
}

/// Width of one key slice for the given `slice_bits` (1..=16).
fn slice_span(slice_bits: u8) -> u128 {
    debug_assert!((1..=16).contains(&slice_bits));
    1u128 << (64 - slice_bits as u32)
}

/// The slice id a key falls in: its top `slice_bits` bits.
pub fn slice_of(key: u64, slice_bits: u8) -> u16 {
    (key >> (64 - slice_bits as u32)) as u16
}

/// The exact key interval covered by the inclusive slice range.
pub fn slices_to_keys(lo_slice: u16, hi_slice: u16, slice_bits: u8) -> KeyInterval {
    let span = slice_span(slice_bits);
    let lo = lo_slice as u128 * span;
    let hi = (hi_slice as u128 + 1) * span - 1;
    KeyInterval::new(lo as u64, hi as u64)
}

/// Splits `keys` into fully-covered slices and partial-slice fringes, the
/// key-domain analogue of [`plan_time`].
pub fn plan_keys(keys: &KeyInterval, slice_bits: u8) -> KeyPlan {
    let span = slice_span(slice_bits);
    let lo = keys.lo() as u128;
    let end = keys.hi() as u128 + 1;
    let lo_aligned = lo.div_ceil(span) * span;
    let end_aligned = end / span * span;
    if lo_aligned >= end_aligned {
        return KeyPlan {
            slices: None,
            fringes: vec![*keys],
        };
    }
    let mut fringes = Vec::new();
    if lo < lo_aligned {
        fringes.push(KeyInterval::new(keys.lo(), (lo_aligned - 1) as u64));
    }
    if end_aligned < end {
        fringes.push(KeyInterval::new(end_aligned as u64, keys.hi()));
    }
    KeyPlan {
        slices: Some(((lo_aligned / span) as u16, (end_aligned / span - 1) as u16)),
        fringes,
    }
}

/// Decomposes a second-aligned closed interval into the minimal run of
/// wheel slots, greedily taking the coarsest granularity that is aligned at
/// the current position and fits in the remainder — the calendar-style
/// O(fringe · granularities + interior / coarsest-span) decomposition.
pub fn plan_slots(covered: &TimeInterval) -> Vec<(Granularity, u64)> {
    let mut pos = covered.lo() as u128;
    let end = covered.hi() as u128 + 1;
    debug_assert!(pos.is_multiple_of(MS_PER_SECOND) && end.is_multiple_of(MS_PER_SECOND));
    let mut slots = Vec::new();
    while pos < end {
        let mut chosen = Granularity::Second;
        for g in [Granularity::Day, Granularity::Hour, Granularity::Minute] {
            let span = g.span_ms() as u128;
            if pos.is_multiple_of(span) && pos + span <= end {
                chosen = g;
                break;
            }
        }
        slots.push((chosen, (pos / chosen.span_ms() as u128) as u64));
        pos += chosen.span_ms() as u128;
    }
    slots
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slot_union(slots: &[(Granularity, u64)]) -> Vec<(u128, u128)> {
        slots
            .iter()
            .map(|(g, b)| {
                let span = g.span_ms() as u128;
                (*b as u128 * span, (*b as u128 + 1) * span)
            })
            .collect()
    }

    #[test]
    fn time_plan_partitions_the_interval() {
        for (lo, hi) in [
            (0u64, 999),
            (0, 1_000),
            (337, 12_741),
            (1_000, 59_999),
            (999, 1_000),
            (5_000, 5_000),
            (0, u64::MAX),
            (u64::MAX - 3, u64::MAX),
        ] {
            let times = TimeInterval::new(lo, hi);
            let plan = plan_time(&times);
            // Total width is preserved and pieces stay inside the query.
            let mut width: u128 = 0;
            for f in &plan.fringes {
                assert!(times.covers(&TimeInterval::new(f.lo(), f.hi())));
                width += f.hi() as u128 - f.lo() as u128 + 1;
            }
            if let Some(cov) = plan.covered {
                assert_eq!(cov.lo() % 1_000, 0);
                assert_eq!((cov.hi() as u128 + 1) % 1_000, 0);
                width += cov.hi() as u128 - cov.lo() as u128 + 1;
            }
            assert_eq!(width, hi as u128 - lo as u128 + 1, "[{lo}, {hi}]");
        }
    }

    #[test]
    fn sub_second_query_is_all_fringe() {
        let plan = plan_time(&TimeInterval::new(1_200, 1_700));
        assert_eq!(plan.covered, None);
        assert_eq!(plan.fringes, vec![TimeInterval::new(1_200, 1_700)]);
    }

    #[test]
    fn key_plan_full_domain_covers_every_slice() {
        let plan = plan_keys(&KeyInterval::full(), 4);
        assert_eq!(plan.slices, Some((0, 15)));
        assert!(plan.fringes.is_empty());
        assert_eq!(slices_to_keys(0, 15, 4), KeyInterval::new(0, u64::MAX));
    }

    #[test]
    fn key_plan_narrow_range_is_all_fringe() {
        let plan = plan_keys(&KeyInterval::new(100, 10_000), 4);
        assert_eq!(plan.slices, None);
        assert_eq!(plan.fringes, vec![KeyInterval::new(100, 10_000)]);
    }

    #[test]
    fn key_plan_half_domain() {
        let half = 1u64 << 63;
        let plan = plan_keys(&KeyInterval::new(half, u64::MAX), 4);
        assert_eq!(plan.slices, Some((8, 15)));
        assert!(plan.fringes.is_empty());
        assert_eq!(slices_to_keys(8, 15, 4).lo(), half);
    }

    #[test]
    fn slice_of_matches_slice_intervals() {
        for bits in [1u8, 4, 8, 16] {
            for key in [0u64, 1, u64::MAX / 3, u64::MAX - 1, u64::MAX] {
                let s = slice_of(key, bits);
                let iv = slices_to_keys(s, s, bits);
                assert!(iv.contains(key), "bits {bits} key {key}");
            }
        }
    }

    #[test]
    fn slots_tile_the_covered_interval_exactly() {
        for (lo, hi) in [
            (0u64, 999),
            (0, 86_400_000 - 1),
            (59_000, 3_721_999),
            (86_395_000, 90_005_999),
            (1_000, 1_999),
        ] {
            let slots = plan_slots(&TimeInterval::new(lo, hi));
            let ivs = slot_union(&slots);
            // Contiguous, in order, exactly covering [lo, hi + 1).
            assert_eq!(ivs.first().unwrap().0, lo as u128);
            assert_eq!(ivs.last().unwrap().1, hi as u128 + 1);
            for w in ivs.windows(2) {
                assert_eq!(w[0].1, w[1].0);
            }
        }
    }

    /// Every piece of a split stays inside the rectangle, no two pieces
    /// overlap, and their areas add up to the rectangle's.
    #[test]
    fn split_partitions_the_rectangle() {
        let area = |r: &Region| {
            (r.keys.hi() as u128 - r.keys.lo() as u128 + 1)
                * (r.times.hi() as u128 - r.times.lo() as u128 + 1)
        };
        let slice = 1u64 << 60;
        for (keys, times) in [
            (KeyInterval::full(), TimeInterval::new(0, 59_999)),
            (
                KeyInterval::new(100, 1 << 20),
                TimeInterval::new(337, 12_741),
            ),
            (
                KeyInterval::new(slice - 5, 3 * slice + 7),
                TimeInterval::new(999, 5_000),
            ),
            (
                KeyInterval::new(slice, 2 * slice - 1),
                TimeInterval::new(1_200, 1_700),
            ),
            (
                KeyInterval::new(7, u64::MAX),
                TimeInterval::new(0, u64::MAX),
            ),
        ] {
            let rect = Region::new(keys, times);
            let split = split(&keys, &times, 4);
            let mut pieces = split.fringes.clone();
            if let Some(i) = split.interior {
                assert_eq!(i.keys, slices_to_keys(i.slices.0, i.slices.1, 4));
                pieces.push(Region::new(i.keys, i.covered));
            }
            assert!(split.fringes.len() <= 4);
            for (a, p) in pieces.iter().enumerate() {
                assert_eq!(p.intersect(&rect), Some(*p), "{p:?} leaves {rect:?}");
                for q in &pieces[a + 1..] {
                    assert_eq!(p.intersect(q), None, "{p:?} overlaps {q:?}");
                }
            }
            assert_eq!(
                pieces.iter().map(area).sum::<u128>(),
                area(&rect),
                "{rect:?}"
            );
        }
        // Narrow keys never fill a slice: the whole rectangle is one fringe.
        let narrow = split(
            &KeyInterval::new(0, 1 << 20),
            &TimeInterval::new(0, 9_999),
            4,
        );
        assert_eq!(narrow.interior, None);
        assert_eq!(
            narrow.fringes,
            vec![Region::new(
                KeyInterval::new(0, 1 << 20),
                TimeInterval::new(0, 9_999)
            )]
        );
    }

    #[test]
    fn interior_uses_coarse_slots() {
        // One full day plus a minute each side: the interior must collapse
        // into a single day slot, not 86 400 second slots.
        let day = Granularity::Day.span_ms();
        let min = Granularity::Minute.span_ms();
        let slots = plan_slots(&TimeInterval::new(day - min, 2 * day + min - 1));
        assert!(slots.contains(&(Granularity::Day, 1)));
        assert_eq!(
            slots.iter().filter(|(g, _)| *g == Granularity::Day).count(),
            1
        );
        assert!(slots.len() <= 3);
    }
}
