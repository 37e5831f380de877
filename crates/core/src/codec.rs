//! Minimal binary encode/decode helpers shared by the chunk format, the
//! message queue segments, the wire frames and the metadata log.
//!
//! We deliberately hand-roll the codec instead of pulling in serde: the
//! on-disk formats are simple, fixed-layout, and versioned by a magic/version
//! header, and a hand-rolled little-endian codec keeps the persisted layout
//! obvious and auditable.
//!
//! A type that crosses the wire or lands in the metadata log implements
//! [`Wire`]: one layout, used by both. Message enums are declared with
//! [`wire_enum!`](crate::wire_enum), one tagged row per variant, and plain
//! records with [`wire_struct!`](crate::wire_struct), one field per row in
//! encoding order; both generate the [`Wire`] impl from that declaration.

use crate::aggregate::{AggregateKind, AggregateQuery};
use crate::counters::StatRow;
use crate::error::{Result, WwError};
use crate::expr::Expr;
use crate::ids::{ChunkId, NodeId, QueryId, ServerId, SubQueryId};
use crate::interval::{KeyInterval, TimeInterval};
use crate::query::{Query, QueryResult, SubQuery, SubQueryTarget};
use crate::region::Region;
use crate::tuple::Tuple;
use bytes::Bytes;
use std::time::Duration;

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

    /// A [`WwError::Corrupt`] naming this decoder's artifact.
    pub fn corrupt(&self, detail: impl Into<String>) -> WwError {
        WwError::corrupt(self.what, detail)
    }

    /// How many of `count` announced `T`s a collection may reserve room
    /// for: no more than the remaining bytes can hold, since each costs at
    /// least [`Wire::MIN_LEN`]. A count above that fails later anyway; this
    /// is the one clamp behind every decoded [`Wire`] collection.
    pub fn capacity_for<T: Wire>(&self, count: usize) -> usize {
        count.min(self.remaining() / T::MIN_LEN.max(1))
    }

    /// Fails unless every byte was consumed: a record or frame with bytes
    /// after its end is damaged, not padded.
    pub fn finish(&self) -> Result<()> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(self.corrupt(format!("{n} trailing bytes"))),
        }
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

/// A value with one binary layout, shared by the wire frames and the
/// metadata log and snapshots.
pub trait Wire: Sized {
    /// The fewest bytes any value encodes to; bounds what a decoded
    /// collection reserves ([`Decoder::capacity_for`]).
    const MIN_LEN: usize;

    /// Appends the encoding.
    fn encode(&self, out: &mut impl Encoder);

    /// Reads a value written by [`encode`](Self::encode).
    fn decode(dec: &mut Decoder<'_>) -> Result<Self>;
}

macro_rules! wire_ints {
    ($($ty:ty: $put:ident / $get:ident),*) => {$(
        impl Wire for $ty {
            const MIN_LEN: usize = std::mem::size_of::<$ty>();

            fn encode(&self, out: &mut impl Encoder) {
                out.$put(*self);
            }

            fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
                dec.$get()
            }
        }
    )*};
}

wire_ints!(u8: put_u8 / get_u8, u16: put_u16 / get_u16, u32: put_u32 / get_u32, u64: put_u64 / get_u64);

macro_rules! wire_ids {
    ($($id:ident),*) => {$(
        impl Wire for $id {
            const MIN_LEN: usize = std::mem::size_of::<$id>();

            fn encode(&self, out: &mut impl Encoder) {
                self.0.encode(out);
            }

            fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
                Wire::decode(dec).map($id)
            }
        }
    )*};
}

wire_ids!(ChunkId, NodeId, QueryId, ServerId);

macro_rules! wire_intervals {
    ($($ty:ident: $what:literal),*) => {$(
        impl Wire for $ty {
            const MIN_LEN: usize = 16;

            fn encode(&self, out: &mut impl Encoder) {
                out.put_u64(self.lo());
                out.put_u64(self.hi());
            }

            fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
                let (lo, hi) = (dec.get_u64()?, dec.get_u64()?);
                $ty::checked(lo, hi).ok_or_else(|| dec.corrupt(concat!("inverted ", $what)))
            }
        }
    )*};
}

wire_intervals!(KeyInterval: "key interval", TimeInterval: "time interval");

/// Any non-zero byte reads as `true`.
impl Wire for bool {
    const MIN_LEN: usize = 1;

    fn encode(&self, out: &mut impl Encoder) {
        out.put_u8(*self as u8);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(dec.get_u8()? != 0)
    }
}

/// Length-prefixed UTF-8.
impl Wire for String {
    const MIN_LEN: usize = 4;

    fn encode(&self, out: &mut impl Encoder) {
        out.put_bytes(self.as_bytes());
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let raw = dec.get_bytes()?;
        std::str::from_utf8(raw)
            .map(str::to_owned)
            .map_err(|_| dec.corrupt("string is not valid utf-8"))
    }
}

/// A `u8` presence flag (0 or 1), then the value when present.
impl<T: Wire> Wire for Option<T> {
    const MIN_LEN: usize = 1;

    fn encode(&self, out: &mut impl Encoder) {
        match self {
            Some(v) => {
                out.put_u8(1);
                v.encode(out);
            }
            None => out.put_u8(0),
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        match dec.get_u8()? {
            0 => Ok(None),
            1 => T::decode(dec).map(Some),
            other => Err(dec.corrupt(format!("unknown option flag {other}"))),
        }
    }
}

/// A `u32` count, then the elements.
impl<T: Wire> Wire for Vec<T> {
    const MIN_LEN: usize = 4;

    fn encode(&self, out: &mut impl Encoder) {
        out.put_u32(self.len() as u32);
        for v in self {
            v.encode(out);
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let count = dec.get_u32()? as usize;
        let mut out = Vec::with_capacity(dec.capacity_for::<T>(count));
        for _ in 0..count {
            out.push(T::decode(dec)?);
        }
        Ok(out)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_LEN: usize = A::MIN_LEN + B::MIN_LEN;

    fn encode(&self, out: &mut impl Encoder) {
        self.0.encode(out);
        self.1.encode(out);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok((A::decode(dec)?, B::decode(dec)?))
    }
}

/// `key | ts | payload-len | payload`.
impl Wire for Tuple {
    const MIN_LEN: usize = 20;

    fn encode(&self, out: &mut impl Encoder) {
        out.put_u64(self.key);
        out.put_u64(self.ts);
        out.put_bytes(&self.payload);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let key = dec.get_u64()?;
        let ts = dec.get_u64()?;
        let payload = Bytes::copy_from_slice(dec.get_bytes()?);
        Ok(Tuple { key, ts, payload })
    }
}

/// Encodes a tuple as `key | ts | payload-len | payload`.
pub fn encode_tuple(out: &mut impl Encoder, t: &Tuple) {
    t.encode(out);
}

/// Decodes one tuple written by [`encode_tuple`].
pub fn decode_tuple(dec: &mut Decoder<'_>) -> Result<Tuple> {
    Tuple::decode(dec)
}

/// Encodes a region as four `u64` bounds.
pub fn encode_region(out: &mut impl Encoder, r: &Region) {
    r.encode(out);
}

/// Decodes a region written by [`encode_region`], validating bounds order.
pub fn decode_region(dec: &mut Decoder<'_>) -> Result<Region> {
    Region::decode(dec)
}

/// Reads an optional measure range, refusing an inverted one.
pub fn decode_measure_range(dec: &mut Decoder<'_>) -> Result<Option<(u64, u64)>> {
    match Option::<(u64, u64)>::decode(dec)? {
        Some((lo, hi)) if lo > hi => Err(dec.corrupt("inverted measure range")),
        range => Ok(range),
    }
}

crate::wire_struct!(Region {
    keys: KeyInterval,
    times: TimeInterval
});
crate::wire_struct!(SubQueryId {
    query: QueryId,
    index: u32
});
crate::wire_struct!(StatRow { name: String, server: Option<ServerId>, value: u64 });
crate::wire_struct!(QueryResult { query_id: QueryId, subqueries: u32, tuples: Vec<Tuple> });

// A subquery's predicate crosses as an optional `Expr` program, so the
// executor filters and the answer comes back as it left; `None` is the one
// zero byte a predicate-free subquery always took.
crate::wire_struct!(SubQuery {
    id: SubQueryId,
    keys: KeyInterval,
    times: TimeInterval,
    predicate: Option<Expr>,
    measure_range: Option<(u64, u64)> => decode_measure_range,
    target: SubQueryTarget,
    offset: Option<u64>,
});
crate::wire_struct!(AggregateQuery {
    query: Query,
    kind: AggregateKind
});
crate::wire_struct!(Query {
    keys: KeyInterval,
    times: TimeInterval,
    predicate: Option<Expr>,
    measure_range: Option<(u64, u64)> => decode_measure_range,
});

/// Errors cross as a tag and their message. Variants whose message is a
/// `&'static str` cannot carry the sender's text back, so they decode with
/// a fixed "remote" message (and `Corrupt`/`NotFound` fold the sender's
/// `what` into their owned text); the classification, and with it
/// [`WwError::is_retryable`], always survives exactly. `Overloaded`
/// crosses as its number instead.
impl Wire for WwError {
    const MIN_LEN: usize = 1;

    fn encode(&self, out: &mut impl Encoder) {
        let io;
        let (tag, text, detail): (u8, &str, Option<&str>) = match self {
            WwError::Io(e) => {
                io = e.to_string();
                (0, &io, None)
            }
            WwError::Corrupt { what, detail } => (1, what, Some(detail)),
            WwError::NotFound { what, id } => (2, what, Some(id)),
            WwError::InvalidState(msg) => (3, msg, None),
            WwError::Config(msg) => (4, msg, None),
            WwError::Shutdown(who) => (5, who, None),
            WwError::Injected(what) => (6, what, None),
            WwError::Timeout(what) => (7, what, None),
            WwError::Unreachable(what) => (8, what, None),
            WwError::Overloaded { retry_after } => {
                out.put_u8(9);
                out.put_u64(retry_after.as_millis().min(u64::MAX as u128) as u64);
                return;
            }
            WwError::StalePlan => (10, "", None),
        };
        out.put_u8(tag);
        out.put_bytes(text.as_bytes());
        if let Some(detail) = detail {
            out.put_bytes(detail.as_bytes());
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let tag = dec.get_u8()?;
        if tag == 9 {
            let retry_after = Duration::from_millis(dec.get_u64()?);
            return Ok(WwError::Overloaded { retry_after });
        }
        let text = String::decode(dec)?;
        Ok(match tag {
            0 => WwError::Io(std::io::Error::other(text)),
            1 => WwError::Corrupt {
                what: "remote",
                detail: format!("{text}: {}", String::decode(dec)?),
            },
            2 => WwError::NotFound {
                what: "remote",
                id: format!("{text}: {}", String::decode(dec)?),
            },
            3 => WwError::InvalidState(text),
            4 => WwError::Config(text),
            5 => WwError::Shutdown("remote peer"),
            6 => WwError::Injected("remote injected fault"),
            7 => WwError::Timeout("remote rpc timed out"),
            8 => WwError::Unreachable("remote destination unreachable"),
            10 => WwError::StalePlan,
            other => return Err(dec.corrupt(format!("unknown error tag {other}"))),
        })
    }
}

/// Implements [`Wire`] for a struct from its fields in encoding order: each
/// field is encoded with its own [`Wire`] impl, back to back, and every
/// field of the struct must be listed. `field: Type => check` decodes that
/// field with `check` instead, a decoder that also refuses bad values (e.g.
/// [`decode_measure_range`]).
#[macro_export]
macro_rules! wire_struct {
    (@field $dec:ident, $ty:ty) => { <$ty as $crate::codec::Wire>::decode($dec)? };
    (@field $dec:ident, $ty:ty, $check:path) => { $check($dec)? };
    ($name:ident { $($field:ident: $ty:ty $(=> $check:path)?),* $(,)? }) => {
        impl $crate::codec::Wire for $name {
            const MIN_LEN: usize = 0 $(+ <$ty as $crate::codec::Wire>::MIN_LEN)*;

            fn encode(&self, out: &mut impl $crate::codec::Encoder) {
                $($crate::codec::Wire::encode(&self.$field, out);)*
            }

            fn decode(dec: &mut $crate::codec::Decoder<'_>) -> $crate::Result<Self> {
                Ok($name {
                    $($field: $crate::wire_struct!(@field dec, $ty $(, $check)?),)*
                })
            }
        }
    };
}

/// Declares a tagged enum: one row per variant, `tag => Variant`, with a
/// unit, one-field tuple or named-field body; attributes and docs are kept.
/// The table is the layout: a `u8` tag, then each field's [`Wire`] encoding
/// in declaration order. It generates [`Wire`] (an unknown tag decodes to
/// [`WwError::Corrupt`] "unknown {label} tag N"), `TAGS` (every declared
/// tag, in row order) and `tag()`. A retired tag is left out, never reused.
///
/// `enum Name as "label", fn name(&self) -> Type { tag, expr => Variant … }`
/// also attaches a per-row value, returned by the generated private `name`.
#[macro_export]
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident as $label:literal, fn $info:ident(&self) -> $info_ty:ty {
            $(
                $(#[$vmeta:meta])*
                $tag:literal, $row:expr => $variant:ident
                $({ $($(#[$fmeta:meta])* $field:ident: $fty:ty),* $(,)? })?
                $(($(#[$tmeta:meta])* $tty:ty))?
            ),* $(,)?
        }
    ) => {
        $crate::wire_enum! {
            $(#[$meta])*
            $vis enum $name as $label {
                $(
                    $(#[$vmeta])*
                    $tag => $variant
                    $({ $($(#[$fmeta])* $field: $fty),* })?
                    $(($(#[$tmeta])* $tty))?
                ),*
            }
        }

        impl $name {
            fn $info(&self) -> $info_ty {
                match self {
                    $($name::$variant { .. } => $row,)*
                }
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident as $label:literal {
            $(
                $(#[$vmeta:meta])*
                $tag:literal => $variant:ident
                $({ $($(#[$fmeta:meta])* $field:ident: $fty:ty),* $(,)? })?
                $(($(#[$tmeta:meta])* $tty:ty))?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $(
                $(#[$vmeta])*
                $variant
                $({ $($(#[$fmeta])* $field: $fty),* })?
                $(($(#[$tmeta])* $tty))?,
            )*
        }

        #[allow(dead_code)]
        impl $name {
            /// Every tag the table declares, in row order.
            pub const TAGS: &'static [u8] = &[$($tag),*];

            /// This value's tag.
            pub fn tag(&self) -> u8 {
                match self {
                    $($name::$variant { .. } => $tag,)*
                }
            }
        }

        impl $crate::codec::Wire for $name {
            const MIN_LEN: usize = 1;

            fn encode(&self, out: &mut impl $crate::codec::Encoder) {
                match self {
                    $(
                        $name::$variant
                        $({ $($field),* })?
                        $(($crate::__wire_pick!($tty, v)))? => {
                            out.put_u8($tag);
                            $($($crate::codec::Wire::encode($field, out);)*)?
                            $($crate::codec::Wire::encode($crate::__wire_pick!($tty, v), out);)?
                        }
                    )*
                }
            }

            fn decode(dec: &mut $crate::codec::Decoder<'_>) -> $crate::Result<Self> {
                Ok(match dec.get_u8()? {
                    $(
                        $tag => $name::$variant
                        $({ $($field: $crate::codec::Wire::decode(dec)?),* })?
                        $((<$tty as $crate::codec::Wire>::decode(dec)?))?,
                    )*
                    other => {
                        return Err(dec.corrupt(format!(concat!("unknown ", $label, " tag {}"), other)))
                    }
                })
            }
        }
    };
}

/// `wire_enum!`'s binding for a tuple variant's one field: expands to its
/// second argument, so the field's type can drive the repetition.
#[doc(hidden)]
#[macro_export]
macro_rules! __wire_pick {
    ($ty:ty, $($out:tt)*) => {
        $($out)*
    };
}

const XXH_P1: u64 = 0x9E37_79B1_85EB_CA87;
const XXH_P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const XXH_P3: u64 = 0x1656_67B1_9E37_79F9;
const XXH_P4: u64 = 0x85EB_CA77_C2B2_AE63;
const XXH_P5: u64 = 0x27D4_EB2F_1656_67C5;

fn xxh_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(XXH_P2))
        .rotate_left(31)
        .wrapping_mul(XXH_P1)
}

fn xxh_merge(acc: u64, lane: u64) -> u64 {
    (acc ^ xxh_round(0, lane))
        .wrapping_mul(XXH_P1)
        .wrapping_add(XXH_P4)
}

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("8 bytes"))
}

/// The one integrity checksum of everything the system writes to disk
/// (chunk index blocks and footers, aggregate summaries, DFS seals, WAL
/// frames, trim sidecars, meta snapshots): XXH64 with seed 0, as its public
/// specification defines it. Each round folds 32 bytes into four
/// independent u64 lanes, so it runs at memory speed.
pub fn checksum(data: &[u8]) -> u64 {
    let mut stripes = data.chunks_exact(32);
    let mut h = if data.len() >= 32 {
        let mut v = [
            XXH_P1.wrapping_add(XXH_P2),
            XXH_P2,
            0,
            XXH_P1.wrapping_neg(),
        ];
        for stripe in &mut stripes {
            for (i, acc) in v.iter_mut().enumerate() {
                *acc = xxh_round(*acc, le_u64(&stripe[i * 8..]));
            }
        }
        let h = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        v.into_iter().fold(h, xxh_merge)
    } else {
        XXH_P5
    };
    h = h.wrapping_add(data.len() as u64);
    let mut tail = stripes.remainder();
    while tail.len() >= 8 {
        h = (h ^ xxh_round(0, le_u64(tail)))
            .rotate_left(27)
            .wrapping_mul(XXH_P1)
            .wrapping_add(XXH_P4);
        tail = &tail[8..];
    }
    if tail.len() >= 4 {
        let word = u32::from_le_bytes(tail[..4].try_into().expect("4 bytes")) as u64;
        h = (h ^ word.wrapping_mul(XXH_P1))
            .rotate_left(23)
            .wrapping_mul(XXH_P2)
            .wrapping_add(XXH_P3);
        tail = &tail[4..];
    }
    for &b in tail {
        h = (h ^ (b as u64).wrapping_mul(XXH_P5))
            .rotate_left(11)
            .wrapping_mul(XXH_P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(XXH_P2);
    h ^= h >> 29;
    h = h.wrapping_mul(XXH_P3);
    h ^ (h >> 32)
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
    fn a_query_round_trips_and_an_inverted_measure_range_is_refused() {
        let q = Query::with_predicate(
            KeyInterval::new(3, 9),
            TimeInterval::new(10, 20),
            (crate::Expr::payload(7, 1) & 0xF0).equals(0xF0),
        );
        let decode = |q: &Query| {
            let mut buf = Vec::new();
            q.encode(&mut buf);
            Query::decode(&mut Decoder::new(&buf, "test"))
        };
        let back = decode(&q.clone().and_measure_between(3, 9)).unwrap();
        assert_eq!(back.predicate, q.predicate);
        assert_eq!(back.measure_range, Some((3, 9)));
        let err = decode(&q.and_measure_between(9, 3)).unwrap_err();
        assert!(err.to_string().contains("inverted measure range"), "{err}");
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
    fn checksum_matches_the_published_xxh64_vectors() {
        assert_eq!(checksum(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(checksum(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(checksum(b"abc"), 0x44BC_2CF5_AD77_0999);
        assert_eq!(
            checksum(b"Nobody inspects the spammish repetition"),
            0xFBCE_A83C_8A37_8BF1
        );
    }

    #[test]
    fn checksum_ignores_alignment_and_sees_every_bit() {
        let bytes: Vec<u8> = (0..1_024u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        #[repr(align(8))]
        struct Aligned([u8; 272]);
        // Every length across the stripe, word and byte tails, at every
        // start offset within a word: the sum is that of an aligned copy.
        for len in 0..=257 {
            let mut aligned = Aligned([0; 272]);
            aligned.0[..len].copy_from_slice(&bytes[..len]);
            let want = checksum(&aligned.0[..len]);
            for start in 0..8 {
                let mut shifted = Aligned([0; 272]);
                shifted.0[start..start + len].copy_from_slice(&bytes[..len]);
                assert_eq!(
                    checksum(&shifted.0[start..start + len]),
                    want,
                    "len={len} start={start}"
                );
            }
        }
        let sum = checksum(&bytes);
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(checksum(&flipped), sum, "bit {bit}");
        }
    }
}
