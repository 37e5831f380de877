//! The mergeable partial aggregate stored in every wheel cell.

use waterwheel_core::codec::{Decoder, Encoder, Wire};
use waterwheel_core::Result;

/// A mergeable partial aggregate over a set of measured tuples.
///
/// One `PartialAgg` answers COUNT, SUM, MIN, MAX and AVG (kept as
/// sum + count, the classic decomposable form) at once, so the wheel does
/// not need per-kind cells. Merging is associative and commutative, which
/// is what lets the combiner stitch together cells from different
/// granularities, chunks, and in-memory wheels in any order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PartialAgg {
    /// Number of tuples folded in.
    pub count: u64,
    /// Sum of measures; u128 so u64 measures cannot overflow in practice.
    pub sum: u128,
    /// Minimum measure (`u64::MAX` when empty).
    pub min: u64,
    /// Maximum measure (`0` when empty).
    pub max: u64,
}

impl Default for PartialAgg {
    fn default() -> Self {
        Self::empty()
    }
}

impl PartialAgg {
    /// The identity element: aggregates nothing.
    pub const fn empty() -> Self {
        Self {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Whether any tuple has been folded in.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Folds one measured value in.
    pub fn insert(&mut self, value: u64) {
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Merges another partial aggregate in.
    pub fn merge(&mut self, other: &PartialAgg) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Minimum measure, `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (!self.is_empty()).then_some(self.min)
    }

    /// Maximum measure, `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (!self.is_empty()).then_some(self.max)
    }

    /// Mean measure, `None` when empty. Computed from the exact sum and
    /// count, so two paths that agree on those agree on the average bit for
    /// bit.
    pub fn avg(&self) -> Option<f64> {
        (!self.is_empty()).then(|| self.sum as f64 / self.count as f64)
    }

    /// Serialized size in bytes (five u64 words: count, sum lo/hi, min, max).
    pub const ENCODED_LEN: usize = 40;
}

/// Fixed layout: count, sum (low word, high word), min, max.
impl Wire for PartialAgg {
    const MIN_LEN: usize = Self::ENCODED_LEN;

    fn encode(&self, out: &mut impl Encoder) {
        out.put_u64(self.count);
        out.put_u64(self.sum as u64);
        out.put_u64((self.sum >> 64) as u64);
        out.put_u64(self.min);
        out.put_u64(self.max);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let count = dec.get_u64()?;
        let sum_lo = dec.get_u64()?;
        let sum_hi = dec.get_u64()?;
        let min = dec.get_u64()?;
        let max = dec.get_u64()?;
        Ok(Self {
            count,
            sum: (sum_hi as u128) << 64 | sum_lo as u128,
            min,
            max,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_tracks_all_kinds() {
        let mut a = PartialAgg::empty();
        for v in [5u64, 1, 9, 3] {
            a.insert(v);
        }
        assert_eq!(a.count, 4);
        assert_eq!(a.sum, 18);
        assert_eq!(a.min(), Some(1));
        assert_eq!(a.max(), Some(9));
        assert_eq!(a.avg(), Some(4.5));
    }

    #[test]
    fn empty_is_merge_identity() {
        let mut a = PartialAgg::empty();
        a.insert(7);
        let before = a;
        a.merge(&PartialAgg::empty());
        assert_eq!(a, before);

        let mut e = PartialAgg::empty();
        e.merge(&before);
        assert_eq!(e, before);
        assert_eq!(PartialAgg::empty().min(), None);
        assert_eq!(PartialAgg::empty().avg(), None);
    }

    #[test]
    fn merge_equals_bulk_insert() {
        let vals = [3u64, 99, 0, 42, 17, 8];
        let mut whole = PartialAgg::empty();
        for v in vals {
            whole.insert(v);
        }
        let (mut left, mut right) = (PartialAgg::empty(), PartialAgg::empty());
        for v in &vals[..3] {
            left.insert(*v);
        }
        for v in &vals[3..] {
            right.insert(*v);
        }
        left.merge(&right);
        assert_eq!(left, whole);
    }

    #[test]
    fn codec_roundtrip() {
        let mut a = PartialAgg::empty();
        a.insert(u64::MAX);
        a.insert(u64::MAX);
        a.insert(3);
        let mut buf = Vec::new();
        a.encode(&mut buf);
        assert_eq!(buf.len(), PartialAgg::ENCODED_LEN);
        let mut dec = Decoder::new(&buf, "test");
        assert_eq!(PartialAgg::decode(&mut dec).unwrap(), a);
    }
}
