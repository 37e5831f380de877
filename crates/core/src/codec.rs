//! Minimal binary encode/decode helpers shared by the chunk format, the
//! message queue segments, and metadata snapshots.
//!
//! We deliberately hand-roll the codec instead of pulling in serde: the
//! on-disk formats are simple, fixed-layout, and versioned by a magic/version
//! header, and a hand-rolled little-endian codec keeps the persisted layout
//! obvious and auditable.

use crate::error::{Result, WwError};
use crate::interval::{KeyInterval, TimeInterval};
use crate::region::Region;
use crate::tuple::Tuple;
use bytes::Bytes;

/// Append-side helpers over a byte vector.
pub trait Encoder {
    /// Appends a single byte.
    fn put_u8(&mut self, v: u8);
    /// Appends a little-endian `u16`.
    fn put_u16(&mut self, v: u16);
    /// Appends a little-endian `u32`.
    fn put_u32(&mut self, v: u32);
    /// Appends a little-endian `u64`.
    fn put_u64(&mut self, v: u64);
    /// Appends a length-prefixed byte slice.
    fn put_bytes(&mut self, v: &[u8]);
    /// Appends an unsigned LEB128 varint (1..=10 bytes).
    fn put_uvarint(&mut self, v: u64);
    /// Appends a signed integer zigzag-mapped onto an unsigned varint, so
    /// small-magnitude deltas of either sign stay one byte.
    fn put_ivarint(&mut self, v: i64) {
        self.put_uvarint(zigzag(v));
    }
    /// Appends a length-prefixed blob of exactly `len` bytes that `bytes`
    /// produces. A sink that only counts ([`ByteCount`]) never calls
    /// `bytes`, so sizing a frame does not serialize its large parts.
    fn put_sized(&mut self, len: usize, bytes: impl FnOnce() -> Vec<u8>) {
        let blob = bytes();
        debug_assert_eq!(blob.len(), len, "put_sized: announced length is wrong");
        self.put_bytes(&blob);
    }
}

impl Encoder for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }

    fn put_u16(&mut self, v: u16) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.extend_from_slice(v);
    }

    fn put_uvarint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.push((v as u8) | 0x80);
            v >>= 7;
        }
        self.push(v as u8);
    }
}

/// An [`Encoder`] that keeps no bytes, only their count: run any encoder
/// against it to learn the exact encoded length without building the buffer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ByteCount(pub usize);

impl Encoder for ByteCount {
    fn put_u8(&mut self, _: u8) {
        self.0 += 1;
    }

    fn put_u16(&mut self, _: u16) {
        self.0 += 2;
    }

    fn put_u32(&mut self, _: u32) {
        self.0 += 4;
    }

    fn put_u64(&mut self, _: u64) {
        self.0 += 8;
    }

    fn put_bytes(&mut self, v: &[u8]) {
        self.0 += 4 + v.len();
    }

    fn put_uvarint(&mut self, v: u64) {
        // 7 payload bits per byte; zero still takes one.
        self.0 += (64 - (v | 1).leading_zeros() as usize).div_ceil(7);
    }

    fn put_sized(&mut self, len: usize, _: impl FnOnce() -> Vec<u8>) {
        self.0 += 4 + len;
    }
}

/// Maps a signed integer onto an unsigned one so that values near zero (of
/// either sign) get small codes: 0 → 0, -1 → 1, 1 → 2, -2 → 3, …
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// A cursor over an immutable byte slice with bounds-checked reads.
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
    what: &'static str,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder over `buf`; `what` names the artifact for error
    /// messages ("chunk", "snapshot", …).
    pub fn new(buf: &'a [u8], what: &'static str) -> Self {
        Self { buf, pos: 0, what }
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes remaining past the cursor.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Moves the cursor to an absolute offset.
    pub fn seek(&mut self, pos: usize) -> Result<()> {
        if pos > self.buf.len() {
            return Err(WwError::corrupt(self.what, "seek past end"));
        }
        self.pos = pos;
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(WwError::corrupt(
                self.what,
                format!("truncated: wanted {n} bytes at offset {}", self.pos),
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a single byte.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a length-prefixed byte slice (borrowed from the input).
    pub fn get_bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.get_u32()? as usize;
        self.take(len)
    }

    /// Reads `n` raw bytes (borrowed from the input) with no length prefix.
    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }

    /// Reads an unsigned LEB128 varint written by [`Encoder::put_uvarint`].
    pub fn get_uvarint(&mut self) -> Result<u64> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let b = self.get_u8()?;
            if shift == 63 && b > 1 {
                return Err(WwError::corrupt(self.what, "varint overflows u64"));
            }
            v |= ((b & 0x7f) as u64) << shift;
            if b < 0x80 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(WwError::corrupt(self.what, "varint longer than 10 bytes"));
            }
        }
    }

    /// Reads a zigzag-coded signed varint written by [`Encoder::put_ivarint`].
    pub fn get_ivarint(&mut self) -> Result<i64> {
        Ok(unzigzag(self.get_uvarint()?))
    }

    /// Reads `count` unsigned varints, appending them to `out`.
    ///
    /// This is the batched kernel behind the columnar scan path. Delta and
    /// delta-of-delta columns are overwhelmingly single-byte varints, so the
    /// hot loop loads the next 8 encoded bytes as one little-endian word and
    /// tests all 8 continuation bits at once: a clear mask means 8 complete
    /// one-byte varints, emitted in a fixed-width loop the compiler can
    /// unroll and vectorize. A set bit falls back to [`Self::get_uvarint`]
    /// for exactly the values the word test could not rule on, so the
    /// decoded sequence — including every validation error — is identical
    /// to `count` scalar `get_uvarint` calls.
    pub fn get_uvarints(&mut self, count: usize, out: &mut Vec<u64>) -> Result<()> {
        // Each varint costs at least one byte, so `count` is bounded by the
        // remaining input — reject before reserving.
        if count > self.remaining() {
            return Err(WwError::corrupt(
                self.what,
                format!("truncated: wanted {count} varints at offset {}", self.pos),
            ));
        }
        out.reserve(count);
        let mut n = 0usize;
        while n < count {
            let rem = &self.buf[self.pos..];
            if count - n >= 8 && rem.len() >= 8 {
                let word = u64::from_le_bytes(rem[..8].try_into().unwrap());
                let cont = word & 0x8080_8080_8080_8080;
                if cont == 0 {
                    for &b in &rem[..8] {
                        out.push(b as u64);
                    }
                    self.pos += 8;
                    n += 8;
                    continue;
                }
                // Emit the run of one-byte varints before the first
                // continuation bit, then let the scalar path take the
                // multi-byte value that stopped the word test.
                let run = (cont.trailing_zeros() / 8) as usize;
                for &b in &rem[..run] {
                    out.push(b as u64);
                }
                self.pos += run;
                n += run;
            }
            out.push(self.get_uvarint()?);
            n += 1;
        }
        Ok(())
    }
}

/// Encodes a tuple as `key | ts | payload-len | payload`.
pub fn encode_tuple(out: &mut impl Encoder, t: &Tuple) {
    out.put_u64(t.key);
    out.put_u64(t.ts);
    out.put_bytes(&t.payload);
}

/// Decodes one tuple written by [`encode_tuple`].
pub fn decode_tuple(dec: &mut Decoder<'_>) -> Result<Tuple> {
    let key = dec.get_u64()?;
    let ts = dec.get_u64()?;
    let payload = Bytes::copy_from_slice(dec.get_bytes()?);
    Ok(Tuple { key, ts, payload })
}

/// Encodes a region as four `u64` bounds.
pub fn encode_region(out: &mut impl Encoder, r: &Region) {
    out.put_u64(r.keys.lo());
    out.put_u64(r.keys.hi());
    out.put_u64(r.times.lo());
    out.put_u64(r.times.hi());
}

/// Decodes a region written by [`encode_region`], validating bounds order.
pub fn decode_region(dec: &mut Decoder<'_>) -> Result<Region> {
    let k_lo = dec.get_u64()?;
    let k_hi = dec.get_u64()?;
    let t_lo = dec.get_u64()?;
    let t_hi = dec.get_u64()?;
    let keys = KeyInterval::checked(k_lo, k_hi)
        .ok_or_else(|| WwError::corrupt("region", "inverted key interval"))?;
    let times = TimeInterval::checked(t_lo, t_hi)
        .ok_or_else(|| WwError::corrupt("region", "inverted time interval"))?;
    Ok(Region::new(keys, times))
}

/// Computes the 64-bit FNV-1a hash of `data`; used as a cheap integrity
/// checksum on persisted artifacts and as the seed mixer for LADA shuffles.
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut buf = Vec::new();
        buf.put_u32(7);
        buf.put_u64(u64::MAX);
        buf.put_bytes(b"abc");
        let mut dec = Decoder::new(&buf, "test");
        assert_eq!(dec.get_u32().unwrap(), 7);
        assert_eq!(dec.get_u64().unwrap(), u64::MAX);
        assert_eq!(dec.get_bytes().unwrap(), b"abc");
        assert_eq!(dec.remaining(), 0);
    }

    #[test]
    fn byte_count_matches_the_bytes_a_vec_receives() {
        fn write(out: &mut impl Encoder) {
            out.put_u8(1);
            out.put_u16(2);
            out.put_u32(3);
            out.put_u64(4);
            out.put_bytes(b"abcde");
            for v in [0, 1, 127, 128, 16_383, 16_384, u64::MAX >> 1, u64::MAX] {
                out.put_uvarint(v);
            }
            out.put_ivarint(-70_000);
            out.put_sized(3, || vec![7, 8, 9]);
            encode_tuple(out, &Tuple::new(1, 2, vec![0u8; 11]));
        }
        let mut buf = Vec::new();
        write(&mut buf);
        let mut count = ByteCount::default();
        write(&mut count);
        assert_eq!(count.0, buf.len());
    }

    #[test]
    fn truncated_input_is_reported_not_panicked() {
        let buf = vec![1, 2, 3];
        let mut dec = Decoder::new(&buf, "test");
        let err = dec.get_u64().unwrap_err();
        assert!(err.to_string().contains("truncated"));
    }

    #[test]
    fn tuple_roundtrip() {
        let t = Tuple::new(42, 1_000, vec![9u8; 17]);
        let mut buf = Vec::new();
        encode_tuple(&mut buf, &t);
        assert_eq!(buf.len(), t.encoded_len());
        let mut dec = Decoder::new(&buf, "test");
        assert_eq!(decode_tuple(&mut dec).unwrap(), t);
    }

    #[test]
    fn region_roundtrip_and_validation() {
        let r = Region::new(KeyInterval::new(3, 9), TimeInterval::new(10, 20));
        let mut buf = Vec::new();
        encode_region(&mut buf, &r);
        let mut dec = Decoder::new(&buf, "test");
        assert_eq!(decode_region(&mut dec).unwrap(), r);

        // Corrupt the key bounds so lo > hi.
        let mut bad = Vec::new();
        bad.put_u64(9);
        bad.put_u64(3);
        bad.put_u64(0);
        bad.put_u64(0);
        let mut dec = Decoder::new(&bad, "test");
        assert!(decode_region(&mut dec).is_err());
    }

    #[test]
    fn seek_bounds_checked() {
        let buf = vec![0u8; 8];
        let mut dec = Decoder::new(&buf, "test");
        dec.seek(8).unwrap();
        assert!(dec.seek(9).is_err());
    }

    #[test]
    fn varint_roundtrip_edges() {
        let cases = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for v in cases {
            let mut buf = Vec::new();
            buf.put_uvarint(v);
            let mut dec = Decoder::new(&buf, "test");
            assert_eq!(dec.get_uvarint().unwrap(), v);
            assert_eq!(dec.remaining(), 0);
        }
        for v in [0i64, -1, 1, -64, 63, i64::MIN, i64::MAX] {
            let mut buf = Vec::new();
            buf.put_ivarint(v);
            let mut dec = Decoder::new(&buf, "test");
            assert_eq!(dec.get_ivarint().unwrap(), v);
        }
    }

    #[test]
    fn varint_rejects_overlong_and_overflowing_encodings() {
        // 11 continuation bytes: longer than any valid u64 varint.
        let buf = [0x80u8; 11];
        let mut dec = Decoder::new(&buf, "test");
        assert!(dec.get_uvarint().is_err());
        // 10 bytes whose final byte sets bits beyond the 64th.
        let buf = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f];
        let mut dec = Decoder::new(&buf, "test");
        assert!(dec.get_uvarint().is_err());
        // Truncated mid-varint is an error, not a panic.
        let buf = [0x80u8, 0x80];
        let mut dec = Decoder::new(&buf, "test");
        assert!(dec.get_uvarint().is_err());
    }

    #[test]
    fn batched_uvarints_match_scalar_decoding() {
        // A stream mixing long single-byte runs (the word fast path), runs
        // shorter than 8 (the partial-run path), and multi-byte values (the
        // scalar fallback), with every alignment of the word window.
        let mut values: Vec<u64> = Vec::new();
        for i in 0..64u64 {
            values.push(i % 100); // one byte each
        }
        for i in 0..20u64 {
            values.push(1 << (i % 63)); // up to ten bytes
            values.push(i); // realign
        }
        values.extend([0, 127, 128, 16_383, 16_384, u64::MAX, 1, 2, 3]);
        let mut buf = Vec::new();
        for &v in &values {
            buf.put_uvarint(v);
        }
        // Decode the whole stream with every batch split point, comparing
        // against the scalar reference each time.
        for split in 0..=values.len() {
            let mut dec = Decoder::new(&buf, "test");
            let mut got = Vec::new();
            dec.get_uvarints(split, &mut got).unwrap();
            dec.get_uvarints(values.len() - split, &mut got).unwrap();
            assert_eq!(got, values, "split={split}");
            assert_eq!(dec.remaining(), 0);
        }
    }

    #[test]
    fn batched_uvarints_reject_truncation_like_scalar() {
        let mut buf = Vec::new();
        for v in [1u64, 300, 70_000, 5] {
            buf.put_uvarint(v);
        }
        for cut in 0..buf.len() {
            let mut batched = Decoder::new(&buf[..cut], "test");
            let mut out = Vec::new();
            let b = batched.get_uvarints(4, &mut out);
            let mut scalar = Decoder::new(&buf[..cut], "test");
            let s: Result<Vec<u64>> = (0..4).map(|_| scalar.get_uvarint()).collect();
            assert_eq!(b.is_err(), s.is_err(), "cut={cut}");
            if b.is_ok() {
                assert_eq!(out, s.unwrap());
            }
        }
        // More values than remaining bytes is rejected before allocating.
        let mut dec = Decoder::new(&buf, "test");
        assert!(dec.get_uvarints(usize::MAX, &mut Vec::new()).is_err());
    }

    #[test]
    fn zigzag_is_order_preserving_near_zero() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(unzigzag(zigzag(i64::MIN)), i64::MIN);
    }

    #[test]
    fn fnv1a_known_vector() {
        // FNV-1a of empty input is the offset basis.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }
}
