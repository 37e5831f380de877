//! Block compression for sealed chunk pages: a small hand-rolled LZ77
//! codec plus a Blosc-style byte shuffle for fixed-stride records.
//!
//! The v2 chunk format stores each leaf's payload bytes as one block and
//! compresses it with [`compress`]. Payloads from sensor-style streams are
//! fixed-width little-endian records whose high bytes are mostly constant;
//! [`shuffle`] transposes the block into byte planes so those constant
//! planes become long runs the LZ pass collapses via distance-1 matches.
//!
//! The decode side follows the same discipline as `wire.rs`: corrupt input
//! must yield a typed [`WwError::Corrupt`], never a panic, and allocation
//! is bounded by the caller-supplied output cap — a forged header cannot
//! make us reserve gigabytes up front.
//!
//! Encoded block layout (all integers LEB128 varints):
//!
//! ```text
//! [raw_len] then repeated segments:
//!   [lit_len][lit_len literal bytes]
//!   if output not yet complete:
//!     [match_len - MIN_MATCH][distance >= 1]
//! ```
//!
//! Matches may overlap their own output (distance 1 encodes a byte run).

use crate::codec::{Decoder, Encoder};
use crate::error::{Result, WwError};

/// Shortest back-reference worth emitting; shorter matches cost more to
/// encode than the literals they replace.
const MIN_MATCH: usize = 4;

/// Hash-table size for the greedy matcher (entries, power of two).
const HASH_BITS: u32 = 14;

/// Initial capacity granted to a decode before any byte is verified; the
/// vector grows organically past this if the stream really is that large.
const DECODE_PREALLOC_CAP: usize = 64 * 1024;

fn hash4(word: u32) -> usize {
    (word.wrapping_mul(0x9e37_79b1) >> (32 - HASH_BITS)) as usize
}

fn read4(input: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(input[at..at + 4].try_into().unwrap())
}

fn read8(input: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(input[at..at + 8].try_into().unwrap())
}

/// The matcher's hash table, kept per thread: a leaf payload block is a
/// few KiB, so allocating and clearing 64 KiB per call would cost more
/// than the matching. Entries hold `base + 1 + position`; one at or below
/// the current call's `base` is from an earlier call, or cleared, and
/// reads as empty.
struct MatchTable {
    slots: Vec<u32>,
    base: u32,
}

impl MatchTable {
    /// Starts a call over `len` input bytes, clearing the table on first
    /// use and when this call's entries would no longer fit in a `u32`.
    fn begin(&mut self, len: usize) {
        if self.slots.is_empty() || u64::from(self.base) + len as u64 >= u64::from(u32::MAX) {
            self.slots.clear();
            self.slots.resize(1 << HASH_BITS, 0);
            self.base = 0;
        }
    }

    /// The previous position stored under `h`, and stores `i` there.
    fn swap(&mut self, h: usize, i: usize) -> Option<usize> {
        let old = std::mem::replace(&mut self.slots[h], self.base + 1 + i as u32);
        old.checked_sub(self.base + 1).map(|p| p as usize)
    }

    fn set(&mut self, h: usize, i: usize) {
        self.slots[h] = self.base + 1 + i as u32;
    }

    /// Ends a call over `len` bytes: later calls see none of its entries.
    fn end(&mut self, len: usize) {
        self.base += len as u32 + 1;
    }
}

thread_local! {
    static MATCH_TABLE: std::cell::RefCell<MatchTable> =
        const { std::cell::RefCell::new(MatchTable { slots: Vec::new(), base: 0 }) };
}

/// Compresses `input` into the block layout above. Always succeeds; in the
/// worst case the output is `input` plus a few bytes of framing.
///
/// # Panics
///
/// If `input` is 4 GiB or longer (match positions are 32-bit); chunk
/// blocks are one leaf's column, a few KiB.
pub fn compress(input: &[u8]) -> Vec<u8> {
    assert!(
        input.len() < u32::MAX as usize,
        "lz block of {} bytes",
        input.len()
    );
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    out.put_uvarint(input.len() as u64);
    if input.is_empty() {
        out.put_uvarint(0); // one empty literal segment
        return out;
    }
    MATCH_TABLE.with_borrow_mut(|table| {
        table.begin(input.len());
        compress_into(input, table, &mut out);
        table.end(input.len());
    });
    out
}

fn compress_into(input: &[u8], table: &mut MatchTable, out: &mut Vec<u8>) {
    let mut lit_start = 0usize;
    let mut i = 0usize;
    while i + MIN_MATCH <= input.len() {
        let word = read4(input, i);
        let cand = table.swap(hash4(word), i);
        match cand {
            Some(cand) if read4(input, cand) == word => {
                // Extend the match as far as it goes, eight bytes a step.
                let mut len = MIN_MATCH;
                while i + len + 8 <= input.len() {
                    let diff = read8(input, cand + len) ^ read8(input, i + len);
                    if diff != 0 {
                        len += diff.trailing_zeros() as usize / 8;
                        break;
                    }
                    len += 8;
                }
                // The tail, or nothing if a word above found the mismatch.
                while i + len < input.len() && input[cand + len] == input[i + len] {
                    len += 1;
                }
                let lits = &input[lit_start..i];
                out.put_uvarint(lits.len() as u64);
                out.extend_from_slice(lits);
                out.put_uvarint((len - MIN_MATCH) as u64);
                out.put_uvarint((i - cand) as u64);
                // Seed the table sparsely inside the match so later data can
                // still find back-references into it.
                let end = i + len;
                while i < end.min(input.len().saturating_sub(MIN_MATCH)) {
                    table.set(hash4(read4(input, i)), i);
                    i += 2;
                }
                i = end;
                lit_start = end;
            }
            _ => i += 1,
        }
    }
    let lits = &input[lit_start..];
    out.put_uvarint(lits.len() as u64);
    out.extend_from_slice(lits);
}

/// Decompresses a block written by [`compress`].
///
/// `max_out` bounds both allocation and output length: a block whose header
/// claims more than `max_out` bytes is rejected as corrupt before any
/// allocation happens.
pub fn decompress(input: &[u8], max_out: usize) -> Result<Vec<u8>> {
    let mut dec = Decoder::new(input, "lz block");
    let raw_len = dec.get_uvarint()? as usize;
    if raw_len > max_out {
        return Err(WwError::corrupt(
            "lz block",
            format!("claims {raw_len} bytes, cap {max_out}"),
        ));
    }
    let mut out: Vec<u8> = Vec::with_capacity(raw_len.min(DECODE_PREALLOC_CAP));
    loop {
        let lit_len = dec.get_uvarint()? as usize;
        if lit_len > raw_len - out.len() {
            return Err(WwError::corrupt("lz block", "literal run past raw length"));
        }
        out.extend_from_slice(dec.get_raw(lit_len)?);
        if out.len() == raw_len {
            break;
        }
        let match_len = dec
            .get_uvarint()?
            .checked_add(MIN_MATCH as u64)
            .ok_or_else(|| WwError::corrupt("lz block", "match length overflow"))?
            as usize;
        let dist = dec.get_uvarint()? as usize;
        if dist == 0 || dist > out.len() {
            return Err(WwError::corrupt("lz block", "match distance out of range"));
        }
        if match_len > raw_len - out.len() {
            return Err(WwError::corrupt("lz block", "match run past raw length"));
        }
        // Byte-at-a-time copy: matches may overlap their own output
        // (distance 1 is a run), so a bulk copy_from_slice is incorrect.
        let start = out.len() - dist;
        for j in 0..match_len {
            let b = out[start + j];
            out.push(b);
        }
    }
    if dec.remaining() != 0 {
        return Err(WwError::corrupt("lz block", "trailing bytes after block"));
    }
    Ok(out)
}

/// Transposes a block of `input.len() / stride` fixed-width records into
/// byte planes: all first bytes, then all second bytes, … Callers must pass
/// a block whose length is a multiple of `stride`.
pub fn shuffle(input: &[u8], stride: usize) -> Vec<u8> {
    debug_assert!(stride > 0 && input.len().is_multiple_of(stride));
    let records = input.len() / stride;
    let mut out = vec![0u8; input.len()];
    for (r, rec) in input.chunks_exact(stride).enumerate() {
        for (p, &b) in rec.iter().enumerate() {
            out[p * records + r] = b;
        }
    }
    out
}

/// Inverse of [`shuffle`]. `input.len()` must be a multiple of `stride`.
pub fn unshuffle(input: &[u8], stride: usize) -> Vec<u8> {
    debug_assert!(stride > 0 && input.len().is_multiple_of(stride));
    let records = input.len() / stride;
    let mut out = vec![0u8; input.len()];
    for p in 0..stride {
        let plane = &input[p * records..(p + 1) * records];
        for (r, &b) in plane.iter().enumerate() {
            out[r * stride + p] = b;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let enc = compress(data);
        let dec = decompress(&enc, data.len().max(1)).unwrap();
        assert_eq!(dec, data);
    }

    #[test]
    fn roundtrips_varied_inputs() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"abcabcabcabcabcabc");
        roundtrip(&[0u8; 1000]);
        roundtrip(b"the quick brown fox jumps over the lazy dog");
        // Pseudo-random incompressible data.
        let mut x = 0x1234_5678_9abc_def0u64;
        let noise: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        roundtrip(&noise);
    }

    #[test]
    fn the_reused_match_table_leaves_no_trace() {
        let block: Vec<u8> = (0..3_000u32).map(|i| (i * i / 7) as u8).collect();
        let first = compress(&block);
        // Entries from other blocks must read as empty...
        for seed in 0..50u8 {
            let other: Vec<u8> = block.iter().map(|b| b.wrapping_add(seed)).collect();
            compress(&other);
        }
        assert_eq!(compress(&block), first);
        // ...and so must the stale ones once the offsets wrap around.
        MATCH_TABLE.with_borrow_mut(|t| t.base = u32::MAX - 2_000);
        assert_eq!(compress(&block), first);
        assert!(MATCH_TABLE.with_borrow(|t| t.base) < 4_000);
        assert_eq!(compress(&block), first);
    }

    #[test]
    fn repetitive_input_actually_shrinks() {
        let data = vec![7u8; 10_000];
        let enc = compress(&data);
        assert!(enc.len() < 64, "run of 10k bytes encoded as {}", enc.len());
    }

    #[test]
    fn shuffle_exposes_constant_planes() {
        // 36-byte records whose high bytes are constant, like the T-Drive
        // payload layout: shuffled + compressed must beat plain compressed.
        let mut block = Vec::new();
        for i in 0u32..512 {
            block.extend_from_slice(&i.to_le_bytes());
            block.extend_from_slice(&(1_000_000 + i % 7).to_le_bytes());
            block.extend_from_slice(&[0u8; 4]);
        }
        let plain = compress(&block);
        let shuffled = compress(&shuffle(&block, 12));
        assert!(shuffled.len() < plain.len());
        assert_eq!(unshuffle(&shuffle(&block, 12), 12), block);
    }

    #[test]
    fn corrupt_blocks_error_without_panicking() {
        let enc = compress(b"hello hello hello hello");
        // Truncations.
        for cut in 1..enc.len() {
            let _ = decompress(&enc[..cut], 1024);
        }
        // Single-byte mutations.
        for i in 0..enc.len() {
            let mut bad = enc.clone();
            bad[i] ^= 0x41;
            let _ = decompress(&bad, 1024);
        }
        // A header claiming more than the cap is rejected up front.
        let mut huge = Vec::new();
        huge.put_uvarint(u64::MAX);
        assert!(decompress(&huge, 1024).is_err());
    }
}
