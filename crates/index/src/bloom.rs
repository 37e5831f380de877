//! Per-leaf bloom filters over time mini-ranges (paper §IV-B).
//!
//! Waterwheel indexes tuples on keys only, so a key-qualifying leaf may
//! contain no tuple inside the query's *time* range. To skip such leaves the
//! paper partitions the time domain into mini-ranges and attaches to every
//! leaf a bloom filter of the mini-ranges covered by its tuples. Before a
//! leaf is scanned, the subquery probes the filter for each mini-range
//! overlapping its time constraint; if all probes miss, the leaf provably
//! contains no qualifying tuple and is skipped.

use waterwheel_core::codec::{Decoder, Encoder};
use waterwheel_core::{Result, TimeInterval, Timestamp, WwError};

/// Upper bound on how many mini-range buckets a single membership query will
/// probe. A query spanning more buckets than this is answered conservatively
/// with "maybe present" — correctness is preserved (bloom filters may only
/// produce false *positives*) and very wide temporal queries would scan the
/// leaf anyway.
const MAX_PROBES: usize = 256;

/// A bloom filter recording which time mini-ranges a leaf's tuples cover.
#[derive(Clone, Debug)]
pub struct TimeBloom {
    bits: Vec<u64>,
    num_bits: u64,
    hashes: u32,
    mini_range_ms: u64,
    entries: u64,
}

/// Mixes a bucket id with a hash-function index into a bit position.
#[inline]
fn bucket_hash(bucket: u64, i: u32) -> u64 {
    // SplitMix64 finalizer over (bucket, i): cheap, well-distributed.
    let mut z = bucket.wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
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
            bits: vec![0; num_bits.div_ceil(64) as usize],
            num_bits,
            hashes,
            mini_range_ms,
            entries: 0,
        }
    }

    /// The mini-range bucket a timestamp belongs to.
    #[inline]
    pub fn bucket_of(&self, ts: Timestamp) -> u64 {
        ts / self.mini_range_ms
    }

    #[inline]
    fn set_bit(&mut self, pos: u64) {
        let idx = (pos % self.num_bits) as usize;
        self.bits[idx / 64] |= 1u64 << (idx % 64);
    }

    #[inline]
    fn get_bit(&self, pos: u64) -> bool {
        let idx = (pos % self.num_bits) as usize;
        self.bits[idx / 64] & (1u64 << (idx % 64)) != 0
    }

    /// Records that the leaf contains a tuple with timestamp `ts`.
    pub fn insert(&mut self, ts: Timestamp) {
        let bucket = self.bucket_of(ts);
        for i in 0..self.hashes {
            self.set_bit(bucket_hash(bucket, i));
        }
        self.entries += 1;
    }

    /// Whether a single mini-range bucket may be present.
    fn maybe_bucket(&self, bucket: u64) -> bool {
        (0..self.hashes).all(|i| self.get_bit(bucket_hash(bucket, i)))
    }

    /// Whether the leaf *may* contain a tuple inside `times`.
    ///
    /// `false` is definite (the leaf can be skipped); `true` may be a false
    /// positive. Empty filters always answer `false`; queries spanning more
    /// than [`MAX_PROBES`] buckets conservatively answer `true`.
    pub fn may_overlap(&self, times: &TimeInterval) -> bool {
        if self.entries == 0 {
            return false;
        }
        let first = self.bucket_of(times.lo());
        let last = self.bucket_of(times.hi());
        if last - first >= MAX_PROBES as u64 {
            return true;
        }
        (first..=last).any(|b| self.maybe_bucket(b))
    }

    /// Number of insertions so far.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Clears all recorded mini-ranges (used when a template's leaves are
    /// recycled after a flush).
    pub fn clear(&mut self) {
        self.bits.fill(0);
        self.entries = 0;
    }

    /// Serialized size in bytes (for cache accounting).
    pub fn encoded_len(&self) -> usize {
        8 + 8 + 4 + 4 + 8 + self.bits.len() * 8
    }

    /// Appends the filter to `out` (chunk serialization).
    pub fn encode(&self, out: &mut impl Encoder) {
        out.put_u64(self.mini_range_ms);
        out.put_u64(self.num_bits);
        out.put_u32(self.hashes);
        out.put_u32(self.bits.len() as u32);
        out.put_u64(self.entries);
        for w in &self.bits {
            out.put_u64(*w);
        }
    }

    /// Reads a filter written by [`encode`](Self::encode).
    pub fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let mini_range_ms = dec.get_u64()?;
        if mini_range_ms == 0 {
            return Err(WwError::corrupt("bloom", "zero mini-range width"));
        }
        let num_bits = dec.get_u64()?;
        let hashes = dec.get_u32()?;
        let words = dec.get_u32()? as usize;
        if words as u64 != num_bits.div_ceil(64) {
            return Err(WwError::corrupt("bloom", "bit/word count mismatch"));
        }
        let entries = dec.get_u64()?;
        // `words` only agrees with another on-disk field so far; size the
        // allocation by the bytes that are actually there.
        let mut bits = Vec::with_capacity(words.min(dec.remaining() / 8));
        for _ in 0..words {
            bits.push(dec.get_u64()?);
        }
        Ok(Self {
            bits,
            num_bits,
            hashes,
            mini_range_ms,
            entries,
        })
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
        assert_eq!(buf.len(), f.encoded_len());
        let g = TimeBloom::decode(&mut Decoder::new(&buf, "test")).unwrap();
        for ts in [0u64, 999, 1_000, 65_432, 1_000_000] {
            assert!(g.may_overlap(&TimeInterval::point(ts)));
        }
        assert_eq!(g.entries(), f.entries());
    }

    #[test]
    fn decode_rejects_corrupt_header() {
        let mut buf = Vec::new();
        filter().encode(&mut buf);
        buf[0] = 0; // zero the mini-range width
        for b in &mut buf[1..8] {
            *b = 0;
        }
        assert!(TimeBloom::decode(&mut Decoder::new(&buf, "test")).is_err());

        // A forged word count that agrees with a forged bit count passes
        // the geometry check; it must run out of bytes as a typed error,
        // not size a 32 GiB allocation first.
        let mut buf = Vec::new();
        filter().encode(&mut buf);
        buf[8..16].copy_from_slice(&(u64::from(u32::MAX) * 64).to_le_bytes());
        buf[20..24].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = TimeBloom::decode(&mut Decoder::new(&buf, "test")).unwrap_err();
        assert!(matches!(err, WwError::Corrupt { .. }), "{err:?}");
    }

    #[test]
    fn bucket_mapping_is_floor_division() {
        let f = filter();
        assert_eq!(f.bucket_of(0), 0);
        assert_eq!(f.bucket_of(999), 0);
        assert_eq!(f.bucket_of(1_000), 1);
    }
}
