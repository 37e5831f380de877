//! Compressed bitmaps for secondary indexing (paper §VIII).
//!
//! The paper's future work proposes "secondary index structure by bitmap
//! and bloom filters, to enable index retrieval on non-key and non-temporal
//! attributes". This module provides the bitmap half: a roaring-style
//! two-level bitmap over `u32` row/leaf ids, with per-64Ki-chunk containers
//! that switch between a sorted array (sparse) and a packed bitset (dense).
//!
//! Used by the secondary attribute index to record, per attribute value,
//! which leaves of a chunk contain tuples with that value.

use waterwheel_core::codec::{Decoder, Encoder, Wire};
use waterwheel_core::{Result, WwError};

/// Container density threshold: ≤ this many entries stays an array.
const ARRAY_MAX: usize = 4_096;
/// Values per container.
const SPAN: u32 = 1 << 16;

#[derive(Clone, Debug, PartialEq, Eq)]
enum Container {
    /// Sorted, deduplicated low-16-bit values.
    Array(Vec<u16>),
    /// 65 536-bit bitset.
    Bits(Box<[u64; 1024]>),
}

impl Container {
    fn new() -> Self {
        Container::Array(Vec::new())
    }

    fn len(&self) -> usize {
        match self {
            Container::Array(v) => v.len(),
            Container::Bits(b) => b.iter().map(|w| w.count_ones() as usize).sum(),
        }
    }

    fn insert(&mut self, low: u16) -> bool {
        match self {
            Container::Array(v) => match v.binary_search(&low) {
                Ok(_) => false,
                Err(pos) => {
                    v.insert(pos, low);
                    if v.len() > ARRAY_MAX {
                        self.densify();
                    }
                    true
                }
            },
            Container::Bits(b) => {
                let (w, bit) = (low as usize / 64, low as usize % 64);
                let had = b[w] & (1 << bit) != 0;
                b[w] |= 1 << bit;
                !had
            }
        }
    }

    fn densify(&mut self) {
        if let Container::Array(v) = self {
            let mut bits = Box::new([0u64; 1024]);
            for &low in v.iter() {
                bits[low as usize / 64] |= 1 << (low % 64);
            }
            *self = Container::Bits(bits);
        }
    }

    fn contains(&self, low: u16) -> bool {
        match self {
            Container::Array(v) => v.binary_search(&low).is_ok(),
            Container::Bits(b) => b[low as usize / 64] & (1 << (low % 64)) != 0,
        }
    }

    fn for_each(&self, base: u32, visit: &mut impl FnMut(u32)) {
        match self {
            Container::Array(v) => {
                for &low in v {
                    visit(base + low as u32);
                }
            }
            Container::Bits(b) => {
                for (w, &word) in b.iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        let bit = bits.trailing_zeros();
                        visit(base + (w as u32) * 64 + bit);
                        bits &= bits - 1;
                    }
                }
            }
        }
    }

    fn union_in_place(&mut self, other: &Container) {
        // Simple and correct: visit other's values and insert.
        let mut incoming = Vec::new();
        other.for_each(0, &mut |v| incoming.push(v as u16));
        for low in incoming {
            self.insert(low);
        }
    }

    fn intersect(&self, other: &Container) -> Container {
        let mut out = Container::new();
        self.for_each(0, &mut |v| {
            if other.contains(v as u16) {
                out.insert(v as u16);
            }
        });
        out
    }
}

/// A compressed bitmap over `u32` ids.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Bitmap {
    /// `(high16, container)` pairs sorted by `high16`.
    containers: Vec<(u16, Container)>,
}

impl Bitmap {
    /// An empty bitmap.
    pub fn new() -> Self {
        Self::default()
    }

    /// A bitmap holding the given ids.
    pub fn from_ids(ids: impl IntoIterator<Item = u32>) -> Self {
        let mut b = Self::new();
        for id in ids {
            b.insert(id);
        }
        b
    }

    fn container_mut(&mut self, high: u16) -> &mut Container {
        match self.containers.binary_search_by_key(&high, |(h, _)| *h) {
            Ok(i) => &mut self.containers[i].1,
            Err(i) => {
                self.containers.insert(i, (high, Container::new()));
                &mut self.containers[i].1
            }
        }
    }

    fn container(&self, high: u16) -> Option<&Container> {
        self.containers
            .binary_search_by_key(&high, |(h, _)| *h)
            .ok()
            .map(|i| &self.containers[i].1)
    }

    /// Inserts an id; returns whether it was newly added.
    pub fn insert(&mut self, id: u32) -> bool {
        self.container_mut((id / SPAN) as u16)
            .insert((id % SPAN) as u16)
    }

    /// Whether the bitmap contains `id`.
    pub fn contains(&self, id: u32) -> bool {
        self.container((id / SPAN) as u16)
            .is_some_and(|c| c.contains((id % SPAN) as u16))
    }

    /// Number of ids stored.
    pub fn len(&self) -> usize {
        self.containers.iter().map(|(_, c)| c.len()).sum()
    }

    /// Whether no ids are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All ids in ascending order.
    pub fn to_vec(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.len());
        for (high, c) in &self.containers {
            c.for_each((*high as u32) * SPAN, &mut |v| out.push(v));
        }
        out
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &Bitmap) {
        for (high, c) in &other.containers {
            self.container_mut(*high).union_in_place(c);
        }
    }

    /// Intersection.
    pub fn intersect(&self, other: &Bitmap) -> Bitmap {
        let mut out = Bitmap::new();
        for (high, c) in &self.containers {
            if let Some(oc) = other.container(*high) {
                let both = c.intersect(oc);
                if both.len() > 0 {
                    out.containers.push((*high, both));
                }
            }
        }
        out
    }

    /// Serialized size estimate in bytes (cache/metadata accounting).
    pub fn approx_size(&self) -> usize {
        self.containers
            .iter()
            .map(|(_, c)| match c {
                Container::Array(v) => 8 + v.len() * 2,
                Container::Bits(_) => 8 + 8_192,
            })
            .sum()
    }
}

/// `kind: u32`, then for an array (kind 0) its `u32` length and sorted
/// `u16` values, for a bitset (kind 1) its 1 024 words.
impl Wire for Container {
    const MIN_LEN: usize = 8;

    fn encode(&self, out: &mut impl Encoder) {
        match self {
            Container::Array(v) => {
                out.put_u32(0);
                out.put_u32(v.len() as u32);
                for &low in v {
                    out.put_u16(low);
                }
            }
            Container::Bits(b) => {
                out.put_u32(1);
                for &w in b.iter() {
                    out.put_u64(w);
                }
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        match dec.get_u32()? {
            0 => {
                let len = dec.get_u32()? as usize;
                if len > ARRAY_MAX + 1 {
                    return Err(WwError::corrupt("bitmap", "oversized array container"));
                }
                let mut v: Vec<u16> = Vec::with_capacity(len);
                for _ in 0..len {
                    let low = dec.get_u16()?;
                    if v.last().is_some_and(|&p| low <= p) {
                        return Err(WwError::corrupt("bitmap", "array values out of order"));
                    }
                    v.push(low);
                }
                Ok(Container::Array(v))
            }
            1 => {
                let mut bits = Box::new([0u64; 1024]);
                for w in bits.iter_mut() {
                    *w = dec.get_u64()?;
                }
                Ok(Container::Bits(bits))
            }
            other => Err(WwError::corrupt(
                "bitmap",
                format!("unknown container kind {other}"),
            )),
        }
    }
}

/// The containers as `(high: u32, container)` pairs, highs strictly
/// increasing.
impl Wire for Bitmap {
    const MIN_LEN: usize = 4;

    fn encode(&self, out: &mut impl Encoder) {
        out.put_u32(self.containers.len() as u32);
        for (high, c) in &self.containers {
            out.put_u32(*high as u32);
            c.encode(out);
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let raw = Vec::<(u32, Container)>::decode(dec)?;
        let mut containers: Vec<(u16, Container)> = Vec::with_capacity(raw.len());
        for (high, c) in raw {
            let high = u16::try_from(high)
                .map_err(|_| WwError::corrupt("bitmap", "container high bits overflow"))?;
            if containers.last().is_some_and(|&(l, _)| high <= l) {
                return Err(WwError::corrupt("bitmap", "containers out of order"));
            }
            containers.push((high, c));
        }
        Ok(Self { containers })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_roundtrip() {
        let mut b = Bitmap::new();
        assert!(b.insert(5));
        assert!(!b.insert(5));
        assert!(b.insert(1_000_000));
        assert!(b.contains(5));
        assert!(b.contains(1_000_000));
        assert!(!b.contains(6));
        assert_eq!(b.len(), 2);
        assert_eq!(b.to_vec(), vec![5, 1_000_000]);
    }

    #[test]
    fn dense_container_promotion() {
        let mut b = Bitmap::new();
        for i in 0..(ARRAY_MAX as u32 + 100) {
            b.insert(i * 2); // same container until 2*(4096+100) < 65536
        }
        assert_eq!(b.len(), ARRAY_MAX + 100);
        for i in 0..(ARRAY_MAX as u32 + 100) {
            assert!(b.contains(i * 2));
            assert!(!b.contains(i * 2 + 1));
        }
        // Order preserved through promotion.
        let v = b.to_vec();
        assert!(v.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn union_and_intersection() {
        let a = Bitmap::from_ids([1u32, 2, 3, 100_000]);
        let b = Bitmap::from_ids([3u32, 4, 100_000, 200_000]);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.to_vec(), vec![1, 2, 3, 4, 100_000, 200_000]);
        let i = a.intersect(&b);
        assert_eq!(i.to_vec(), vec![3, 100_000]);
        // Intersection with disjoint set is empty.
        assert!(a.intersect(&Bitmap::from_ids([9u32])).is_empty());
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut b = Bitmap::from_ids([0u32, 7, 65_535, 65_536, 1_000_000]);
        // Include a dense container.
        for i in 0..(ARRAY_MAX as u32 + 10) {
            b.insert(3 * SPAN + i);
        }
        let mut buf = Vec::new();
        b.encode(&mut buf);
        let got = Bitmap::decode(&mut Decoder::new(&buf, "test")).unwrap();
        assert_eq!(got, b);
        assert_eq!(got.to_vec(), b.to_vec());
    }

    #[test]
    fn decode_rejects_corruption() {
        let mut b = Bitmap::from_ids([1u32, 2, 3]);
        let mut buf = Vec::new();
        b.encode(&mut buf);
        // Swap the order of two array values.
        let n = buf.len();
        buf.swap(n - 1, n - 3);
        buf.swap(n - 2, n - 4);
        assert!(Bitmap::decode(&mut Decoder::new(&buf, "test")).is_err());
        // Truncation is detected too.
        let mut buf2 = Vec::new();
        b.insert(9);
        b.encode(&mut buf2);
        buf2.truncate(buf2.len() - 1);
        assert!(Bitmap::decode(&mut Decoder::new(&buf2, "test")).is_err());
    }

    #[test]
    fn large_random_set_matches_btreeset() {
        use std::collections::BTreeSet;
        let mut x = 0x1234_5678_9ABC_DEF0u64;
        let mut b = Bitmap::new();
        let mut set = BTreeSet::new();
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let id = (x % 500_000) as u32;
            b.insert(id);
            set.insert(id);
        }
        assert_eq!(b.len(), set.len());
        assert_eq!(b.to_vec(), set.iter().copied().collect::<Vec<_>>());
    }
}
