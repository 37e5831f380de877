//! Secondary indexes on non-key, non-temporal attributes (paper §VIII).
//!
//! The paper's closing future-work item: "we will add secondary index
//! structure by bitmap and bloom filters, to enable index retrieval on
//! non-key and non-temporal attributes." This module implements that
//! design, per chunk:
//!
//! * a **bloom filter** over the attribute values present anywhere in the
//!   chunk — lets the query coordinator prune whole chunks whose data
//!   regions overlap the query rectangle but cannot contain the wanted
//!   attribute value;
//! * a **bitmap per hot attribute value** (plus the bloom for the long
//!   tail) over the chunk's *leaf indices* — lets the query server fetch
//!   only the leaves that contain the value.
//!
//! Attributes are extracted from tuples by a user-registered expression
//! (`waterwheel_core::Expr`); values are `u64` (hash or project wider
//! attributes down). The structures are built at seal time from the sealed
//! leaves and serialized into the metadata the coordinator already holds,
//! so the read path needs no extra file access.

use crate::bitmap::Bitmap;
use std::collections::HashMap;
use waterwheel_core::codec::{Decoder, Encoder, Wire};
use waterwheel_core::{Result, WwError};

/// Identifier of a registered attribute.
pub type AttrId = u16;

/// Per-value bitmaps are materialized only for values occurring at least
/// this many times in a chunk; rarer values rely on the bloom + leaf scan.
const HOT_VALUE_MIN_COUNT: usize = 8;
/// Cap on materialized bitmaps per chunk attribute (hottest values win).
const MAX_HOT_VALUES: usize = 256;

/// Bloom filter over raw `u64` attribute values.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ValueBloom {
    bits: Vec<u64>,
    num_bits: u64,
    hashes: u32,
    entries: u64,
}

#[inline]
fn value_hash(value: u64, i: u32) -> u64 {
    let mut z = value ^ (i as u64).wrapping_mul(0xA076_1D64_78BD_642F);
    z = (z ^ (z >> 32)).wrapping_mul(0xE703_7ED1_A0B4_28DB);
    z = (z ^ (z >> 29)).wrapping_mul(0x8EBC_6AF0_9C88_C6E3);
    z ^ (z >> 32)
}

impl ValueBloom {
    /// Creates a filter sized for `expected` distinct values at
    /// `bits_per_entry` bits each.
    pub fn new(expected: usize, bits_per_entry: usize) -> Self {
        let num_bits = (expected.max(1) * bits_per_entry.max(1)).max(64) as u64;
        let hashes = ((bits_per_entry as f64 * std::f64::consts::LN_2).round() as u32).clamp(1, 16);
        Self {
            bits: vec![0; num_bits.div_ceil(64) as usize],
            num_bits,
            hashes,
            entries: 0,
        }
    }

    /// Records a value.
    pub fn insert(&mut self, value: u64) {
        for i in 0..self.hashes {
            let pos = value_hash(value, i) % self.num_bits;
            self.bits[(pos / 64) as usize] |= 1 << (pos % 64);
        }
        self.entries += 1;
    }

    /// Whether the value *may* be present (`false` is definite).
    pub fn maybe_contains(&self, value: u64) -> bool {
        if self.entries == 0 {
            return false;
        }
        (0..self.hashes).all(|i| {
            let pos = value_hash(value, i) % self.num_bits;
            self.bits[(pos / 64) as usize] & (1 << (pos % 64)) != 0
        })
    }

    /// Serialized/heap size estimate.
    pub fn approx_size(&self) -> usize {
        self.bits.len() * 8 + 24
    }
}

/// `num_bits | hashes | entries | words` (a `u32` count, then the words),
/// whose geometry must agree.
impl Wire for ValueBloom {
    const MIN_LEN: usize = 24;

    fn encode(&self, out: &mut impl Encoder) {
        out.put_u64(self.num_bits);
        out.put_u32(self.hashes);
        out.put_u64(self.entries);
        self.bits.encode(out);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let bloom = Self {
            num_bits: dec.get_u64()?,
            hashes: dec.get_u32()?,
            entries: dec.get_u64()?,
            bits: Wire::decode(dec)?,
        };
        let words = bloom.num_bits.div_ceil(64);
        if bloom.bits.len() as u64 != words || !(1..=16).contains(&bloom.hashes) {
            return Err(WwError::corrupt("value bloom", "bad geometry"));
        }
        Ok(bloom)
    }
}

/// The per-chunk secondary index for one attribute.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChunkAttrIndex {
    /// Bloom over every attribute value in the chunk.
    pub bloom: ValueBloom,
    /// For hot values: which leaf indices contain them.
    pub hot_values: HashMap<u64, Bitmap>,
}

impl ChunkAttrIndex {
    /// Builds the index from the sealed leaves: `leaves[i]` is the list of
    /// attribute values present in leaf `i`.
    pub fn build(leaf_values: &[Vec<u64>], bits_per_entry: usize) -> Self {
        let mut counts: HashMap<u64, usize> = HashMap::new();
        for values in leaf_values {
            for &v in values {
                *counts.entry(v).or_insert(0) += 1;
            }
        }
        let mut bloom = ValueBloom::new(counts.len(), bits_per_entry);
        for &v in counts.keys() {
            bloom.insert(v);
        }
        // Hottest values get leaf bitmaps.
        let mut hot: Vec<(u64, usize)> = counts
            .into_iter()
            .filter(|&(_, c)| c >= HOT_VALUE_MIN_COUNT)
            .collect();
        hot.sort_unstable_by_key(|&(v, c)| (std::cmp::Reverse(c), v));
        hot.truncate(MAX_HOT_VALUES);
        let mut hot_values: HashMap<u64, Bitmap> =
            hot.into_iter().map(|(v, _)| (v, Bitmap::new())).collect();
        for (leaf, values) in leaf_values.iter().enumerate() {
            for v in values {
                if let Some(bm) = hot_values.get_mut(v) {
                    bm.insert(leaf as u32);
                }
            }
        }
        Self { bloom, hot_values }
    }

    /// The pruning verdict for an attribute-equality query against this
    /// chunk.
    pub fn probe(&self, value: u64) -> AttrProbe {
        if !self.bloom.maybe_contains(value) {
            return AttrProbe::Absent;
        }
        match self.hot_values.get(&value) {
            Some(bm) => AttrProbe::Leaves(bm.clone()),
            None => AttrProbe::Unknown,
        }
    }

    /// Heap size estimate for metadata accounting.
    pub fn approx_size(&self) -> usize {
        self.bloom.approx_size()
            + self
                .hot_values
                .values()
                .map(|b| b.approx_size() + 16)
                .sum::<usize>()
    }
}

/// The bloom, then the hot values as a `(value, leaves)` sequence in value
/// order.
impl Wire for ChunkAttrIndex {
    const MIN_LEN: usize = ValueBloom::MIN_LEN + 4;

    fn encode(&self, out: &mut impl Encoder) {
        self.bloom.encode(out);
        out.put_u32(self.hot_values.len() as u32);
        let mut entries: Vec<(&u64, &Bitmap)> = self.hot_values.iter().collect();
        entries.sort_by_key(|(v, _)| **v);
        for (v, bm) in entries {
            v.encode(out);
            bm.encode(out);
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let bloom = ValueBloom::decode(dec)?;
        let hot_values = Vec::<(u64, Bitmap)>::decode(dec)?.into_iter().collect();
        Ok(Self { bloom, hot_values })
    }
}

waterwheel_core::wire_enum! {
    /// Result of probing a chunk's attribute index.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum AttrProbe as "attr-probe" {
        /// The chunk provably contains no tuple with this value: skip it.
        0 => Absent,
        /// The value may be present, restricted to these leaf indices.
        1 => Leaves(Bitmap),
        /// The value may be present anywhere (cold value): scan normally.
        2 => Unknown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_index() -> ChunkAttrIndex {
        // 4 leaves; value 7 hot in leaves 0 & 2; value 9 hot in leaf 3;
        // value 100 appears once (cold).
        let leaves = vec![
            vec![7u64; 10],
            vec![1, 2, 3],
            vec![7u64; 10],
            [vec![9u64; 12], vec![100]].concat(),
        ];
        ChunkAttrIndex::build(&leaves, 10)
    }

    #[test]
    fn absent_values_are_pruned() {
        let idx = sample_index();
        assert_eq!(idx.probe(42_424_242), AttrProbe::Absent);
    }

    #[test]
    fn hot_values_get_leaf_bitmaps() {
        let idx = sample_index();
        match idx.probe(7) {
            AttrProbe::Leaves(bm) => assert_eq!(bm.to_vec(), vec![0, 2]),
            other => panic!("expected leaves, got {other:?}"),
        }
        match idx.probe(9) {
            AttrProbe::Leaves(bm) => assert_eq!(bm.to_vec(), vec![3]),
            other => panic!("expected leaves, got {other:?}"),
        }
    }

    #[test]
    fn cold_values_fall_back_to_unknown() {
        let idx = sample_index();
        assert_eq!(idx.probe(100), AttrProbe::Unknown);
        assert_eq!(idx.probe(1), AttrProbe::Unknown);
    }

    #[test]
    fn bloom_has_no_false_negatives() {
        let leaves: Vec<Vec<u64>> = (0..16).map(|i| vec![i * 1_000 + 1]).collect();
        let idx = ChunkAttrIndex::build(&leaves, 10);
        for i in 0..16u64 {
            assert_ne!(idx.probe(i * 1_000 + 1), AttrProbe::Absent);
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let idx = sample_index();
        let mut buf = Vec::new();
        idx.encode(&mut buf);
        let got = ChunkAttrIndex::decode(&mut Decoder::new(&buf, "test")).unwrap();
        assert_eq!(got.hot_values.len(), idx.hot_values.len());
        assert_eq!(got.probe(7), idx.probe(7));
        assert_eq!(got.probe(42_424_242), AttrProbe::Absent);
        assert_eq!(got.probe(100), AttrProbe::Unknown);
    }

    #[test]
    fn value_bloom_decode_survives_a_forged_word_count() {
        // Word and bit counts forged to agree with each other: decoding
        // must run out of bytes as a typed error, not size a 32 GiB
        // allocation from the count first.
        let mut buf = Vec::new();
        ValueBloom::new(16, 10).encode(&mut buf);
        buf[0..8].copy_from_slice(&(u64::from(u32::MAX) * 64).to_le_bytes());
        buf[20..24].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = ValueBloom::decode(&mut Decoder::new(&buf, "test")).unwrap_err();
        assert!(matches!(err, WwError::Corrupt { .. }), "{err:?}");
    }

    #[test]
    fn value_bloom_empty_rejects_all() {
        let b = ValueBloom::new(16, 10);
        assert!(!b.maybe_contains(0));
        assert!(!b.maybe_contains(123));
    }

    #[test]
    fn value_bloom_distant_values_usually_rejected() {
        let mut b = ValueBloom::new(64, 10);
        for v in 0..64u64 {
            b.insert(v);
        }
        let rejected = (1_000..1_200u64).filter(|&v| !b.maybe_contains(v)).count();
        assert!(rejected > 180, "only {rejected}/200 rejected");
    }
}
