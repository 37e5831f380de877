//! Per-leaf bloom filters over time mini-ranges (paper §IV-B).
//!
//! Waterwheel indexes tuples on keys only, so a key-qualifying leaf may
//! contain no tuple inside the query's *time* range. To skip such leaves the
//! paper partitions the time domain into mini-ranges and attaches to every
//! leaf a bloom filter of the mini-ranges covered by its tuples. Before a
//! leaf is scanned, the subquery probes the filter for each mini-range
//! overlapping its time constraint; if all probes miss, the leaf provably
//! contains no qualifying tuple and is skipped.
//!
//! A filter is a [`BloomShape`] — its geometry — over a slice of words. A
//! sealing tree builds [`TimeBloom`]s, which own their words; a chunk
//! reader decodes every leaf's words into one arena and keeps only the
//! shapes ([`BloomShape::decode_into`]). Both probe through
//! [`BloomShape::may_overlap`].

use waterwheel_core::codec::{Decoder, Encoder};
use waterwheel_core::{Result, TimeInterval, Timestamp, WwError};

/// Upper bound on how many mini-range buckets a single membership query will
/// probe. A query spanning more buckets than this is answered conservatively
/// with "maybe present" — correctness is preserved (bloom filters may only
/// produce false *positives*) and very wide temporal queries would scan the
/// leaf anyway.
const MAX_PROBES: usize = 256;

/// Mixes a bucket id with a hash-function index into a bit position.
#[inline]
fn bucket_hash(bucket: u64, i: u32) -> u64 {
    // SplitMix64 finalizer over (bucket, i): cheap, well-distributed.
    waterwheel_core::mix64(bucket.wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// A filter's geometry: everything a probe needs besides the words.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BloomShape {
    /// Width of one time mini-range in milliseconds (never zero).
    pub mini_range_ms: u64,
    /// Bits in the filter (never zero); positions are taken modulo this.
    pub num_bits: u64,
    /// Hash functions per mini-range.
    pub hashes: u32,
    /// Insertions recorded; a filter with none answers every probe "no".
    pub entries: u64,
}

impl BloomShape {
    /// How many `u64` words hold the filter's bits.
    pub fn words(&self) -> usize {
        self.num_bits.div_ceil(64) as usize
    }

    /// The mini-range bucket a timestamp belongs to.
    #[inline]
    pub fn bucket_of(&self, ts: Timestamp) -> u64 {
        ts / self.mini_range_ms
    }

    /// The bit position `bucket`'s `i`-th hash selects.
    #[inline]
    fn bit(&self, bucket: u64, i: u32) -> usize {
        (bucket_hash(bucket, i) % self.num_bits) as usize
    }

    /// Whether a filter of this shape over `words` (exactly
    /// [`words`](Self::words) of them) *may* hold a tuple inside `times`.
    ///
    /// `false` is definite (the leaf can be skipped); `true` may be a false
    /// positive. Empty filters always answer `false`; queries spanning more
    /// than `MAX_PROBES` buckets conservatively answer `true`.
    pub fn may_overlap(&self, words: &[u64], times: &TimeInterval) -> bool {
        debug_assert_eq!(words.len(), self.words());
        if self.entries == 0 {
            return false;
        }
        let first = self.bucket_of(times.lo());
        let last = self.bucket_of(times.hi());
        if last - first >= MAX_PROBES as u64 {
            return true;
        }
        (first..=last).any(|b| {
            (0..self.hashes).all(|i| {
                let bit = self.bit(b, i);
                words[bit / 64] & (1u64 << (bit % 64)) != 0
            })
        })
    }

    /// Reads a filter written by [`TimeBloom::encode`], appending its words
    /// to `arena` and returning its shape; the words are the `words()`
    /// last ones in `arena`.
    ///
    /// The word count is an on-disk value: it must agree with the bit
    /// count, and the words must be there before one is read, so a forged
    /// count is a typed error and never sizes an allocation.
    pub fn decode_into(dec: &mut Decoder<'_>, arena: &mut Vec<u64>) -> Result<Self> {
        let mini_range_ms = dec.get_u64()?;
        if mini_range_ms == 0 {
            return Err(WwError::corrupt("bloom", "zero mini-range width"));
        }
        let num_bits = dec.get_u64()?;
        if num_bits == 0 {
            return Err(WwError::corrupt("bloom", "zero bit count"));
        }
        let hashes = dec.get_u32()?;
        let words = dec.get_u32()? as usize;
        if words as u64 != num_bits.div_ceil(64) {
            return Err(WwError::corrupt("bloom", "bit/word count mismatch"));
        }
        let entries = dec.get_u64()?;
        let bytes = dec.get_raw(words * 8)?;
        arena.extend(
            bytes
                .chunks_exact(8)
                .map(|w| u64::from_le_bytes(w.try_into().expect("8 bytes"))),
        );
        Ok(Self {
            mini_range_ms,
            num_bits,
            hashes,
            entries,
        })
    }
}

/// A bloom filter recording which time mini-ranges a leaf's tuples cover.
#[derive(Clone, Debug)]
pub struct TimeBloom {
    shape: BloomShape,
    bits: Vec<u64>,
}

impl TimeBloom {
    /// Creates a filter sized for `expected_entries` mini-range insertions at
    /// `bits_per_entry` bits each.
    pub fn new(mini_range_ms: u64, expected_entries: usize, bits_per_entry: usize) -> Self {
        assert!(mini_range_ms > 0, "mini-range width must be positive");
        let num_bits = (expected_entries.max(1) * bits_per_entry.max(1)).max(64) as u64;
        // Optimal hash count k = ln(2) * bits_per_entry, clamped to [1, 16].
        let hashes = ((bits_per_entry as f64 * std::f64::consts::LN_2).round() as u32).clamp(1, 16);
        Self {
            shape: BloomShape {
                mini_range_ms,
                num_bits,
                hashes,
                entries: 0,
            },
            bits: vec![0; num_bits.div_ceil(64) as usize],
        }
    }

    /// Creates a filter for a leaf of `tuples` tuples whose timestamps lie
    /// in `span`: sized for the distinct mini-ranges such a leaf can cover,
    /// which is the smaller of the buckets `span` touches and its tuple
    /// count.
    pub fn for_leaf(
        mini_range_ms: u64,
        span: &TimeInterval,
        tuples: usize,
        bits_per_entry: usize,
    ) -> Self {
        assert!(mini_range_ms > 0, "mini-range width must be positive");
        let buckets = (span.hi() / mini_range_ms - span.lo() / mini_range_ms).saturating_add(1);
        Self::new(
            mini_range_ms,
            buckets.min(tuples as u64) as usize,
            bits_per_entry,
        )
    }

    /// The filter's geometry.
    pub fn shape(&self) -> BloomShape {
        self.shape
    }

    /// The filter's bit words.
    pub fn words(&self) -> &[u64] {
        &self.bits
    }

    /// The mini-range bucket a timestamp belongs to.
    #[inline]
    pub fn bucket_of(&self, ts: Timestamp) -> u64 {
        self.shape.bucket_of(ts)
    }

    /// Records that the leaf contains a tuple with timestamp `ts`.
    pub fn insert(&mut self, ts: Timestamp) {
        let bucket = self.bucket_of(ts);
        for i in 0..self.shape.hashes {
            let bit = self.shape.bit(bucket, i);
            self.bits[bit / 64] |= 1u64 << (bit % 64);
        }
        self.shape.entries += 1;
    }

    /// Whether the leaf *may* contain a tuple inside `times`
    /// ([`BloomShape::may_overlap`] over this filter's words).
    pub fn may_overlap(&self, times: &TimeInterval) -> bool {
        self.shape.may_overlap(&self.bits, times)
    }

    /// Number of insertions so far.
    pub fn entries(&self) -> u64 {
        self.shape.entries
    }

    /// Clears all recorded mini-ranges (used when a template's leaves are
    /// recycled after a flush).
    pub fn clear(&mut self) {
        self.bits.fill(0);
        self.shape.entries = 0;
    }

    /// Appends the filter to `out` (chunk serialization).
    pub fn encode(&self, out: &mut impl Encoder) {
        out.put_u64(self.shape.mini_range_ms);
        out.put_u64(self.shape.num_bits);
        out.put_u32(self.shape.hashes);
        out.put_u32(self.bits.len() as u32);
        out.put_u64(self.shape.entries);
        for w in &self.bits {
            out.put_u64(*w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filter() -> TimeBloom {
        TimeBloom::new(1_000, 128, 10)
    }

    #[test]
    fn no_false_negatives() {
        let mut f = filter();
        for ts in (0..100_000).step_by(1_700) {
            f.insert(ts);
        }
        for ts in (0..100_000).step_by(1_700) {
            assert!(
                f.may_overlap(&TimeInterval::point(ts)),
                "false negative at ts={ts}"
            );
        }
    }

    #[test]
    fn empty_filter_rejects_everything() {
        let f = filter();
        assert!(!f.may_overlap(&TimeInterval::full()));
    }

    #[test]
    fn distant_ranges_are_usually_rejected() {
        let mut f = filter();
        // Populate buckets 0..10.
        for ts in (0..10_000).step_by(500) {
            f.insert(ts);
        }
        // Probe 50 far-away buckets; a 10-bits/entry filter should reject
        // the overwhelming majority.
        let rejected = (100..150)
            .filter(|b| !f.may_overlap(&TimeInterval::point(b * 1_000 + 1)))
            .count();
        assert!(rejected > 40, "only {rejected}/50 rejected");
    }

    #[test]
    fn wide_queries_answer_conservatively() {
        let mut f = filter();
        f.insert(5);
        // Range spanning more than MAX_PROBES buckets must answer true even
        // if most buckets are empty.
        assert!(f.may_overlap(&TimeInterval::new(0, 10_000_000)));
    }

    #[test]
    fn clear_resets_to_empty() {
        let mut f = filter();
        f.insert(1234);
        assert!(f.may_overlap(&TimeInterval::point(1234)));
        f.clear();
        assert_eq!(f.entries(), 0);
        assert!(!f.may_overlap(&TimeInterval::full()));
    }

    #[test]
    fn encode_decode_roundtrip_preserves_answers() {
        let mut f = filter();
        for ts in [0u64, 999, 1_000, 65_432, 1_000_000] {
            f.insert(ts);
        }
        let mut buf = Vec::new();
        f.encode(&mut buf);
        assert_eq!(buf.len(), 32 + 8 * f.words().len());
        // Decoded behind another filter's words, as a chunk's arena holds
        // every leaf's.
        let mut arena = vec![u64::MAX; 3];
        let shape = BloomShape::decode_into(&mut Decoder::new(&buf, "test"), &mut arena).unwrap();
        assert_eq!(shape, f.shape());
        assert_eq!(&arena[3..], f.words());
        for ts in [0u64, 999, 1_000, 65_432, 1_000_000] {
            assert!(shape.may_overlap(&arena[3..], &TimeInterval::point(ts)));
        }
        assert_eq!(shape.entries, f.entries());
    }

    #[test]
    fn decode_rejects_corrupt_header() {
        let decode =
            |buf: &[u8]| BloomShape::decode_into(&mut Decoder::new(buf, "test"), &mut Vec::new());
        let mut buf = Vec::new();
        filter().encode(&mut buf);
        buf[0] = 0; // zero the mini-range width
        for b in &mut buf[1..8] {
            *b = 0;
        }
        assert!(decode(&buf).is_err());

        // A zero bit count with a zero word count agrees with itself, but
        // no bit position can be taken modulo it.
        let mut buf = Vec::new();
        filter().encode(&mut buf);
        buf[8..16].copy_from_slice(&0u64.to_le_bytes());
        buf[20..24].copy_from_slice(&0u32.to_le_bytes());
        assert!(decode(&buf).is_err());

        // A forged word count that agrees with a forged bit count passes
        // the geometry check; it must run out of bytes as a typed error,
        // not size a 32 GiB allocation first.
        let mut buf = Vec::new();
        filter().encode(&mut buf);
        buf[8..16].copy_from_slice(&(u64::from(u32::MAX) * 64).to_le_bytes());
        buf[20..24].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decode(&buf).unwrap_err();
        assert!(matches!(err, WwError::Corrupt { .. }), "{err:?}");
    }

    #[test]
    fn bucket_mapping_is_floor_division() {
        let f = filter();
        assert_eq!(f.bucket_of(0), 0);
        assert_eq!(f.bucket_of(999), 0);
        assert_eq!(f.bucket_of(1_000), 1);
    }

    #[test]
    fn a_leaf_filter_is_sized_for_the_mini_ranges_it_can_hold() {
        let bits = |f: &TimeBloom| f.shape().num_bits;
        // 70 tuples inside 14 one-second buckets: 14 entries, not 70.
        let narrow = TimeBloom::for_leaf(1_000, &TimeInterval::new(5_000, 18_999), 70, 10);
        assert_eq!(bits(&narrow), 140);
        // 70 tuples over 100 seconds: the tuple count bounds the entries.
        let wide = TimeBloom::for_leaf(1_000, &TimeInterval::new(0, 99_999), 70, 10);
        assert_eq!(bits(&wide), 700);
        // Never more than the per-tuple sizing, never under one word.
        let point = TimeBloom::for_leaf(1_000, &TimeInterval::point(u64::MAX), 9, 10);
        assert_eq!(bits(&point), 64);
        let full = TimeBloom::for_leaf(1, &TimeInterval::full(), 70, 10);
        assert_eq!(bits(&full), bits(&TimeBloom::new(1, 70, 10)));
    }
}
