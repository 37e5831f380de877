//! Columnar leaf images for chunk format v2, and the vectorized scan
//! kernels over them.
//!
//! A sealed leaf holds tuples sorted by `(key, ts)`. Rather than as
//! full-width rows (8-byte key, 8-byte timestamp, 4-byte length prefix per
//! tuple, the retired v1 layout), this module stores the leaf as columns:
//!
//! ```text
//! [count u32]
//! timestamp column:  [ts0 uvarint] [count-1 × zigzag delta-of-delta]
//! key column:        [mode u8]
//!   mode 0 (delta):  [key0 uvarint] [count-1 × uvarint deltas]
//!   mode 1 (dict):   [dict_len uvarint] [dict0 uvarint]
//!                    [dict_len-1 × uvarint deltas] [count × uvarint index]
//! payload column:    [count × uvarint length] [mode u8] [block u32-prefixed]
//!   mode 0: raw concatenated payloads
//!   mode 1: LZ-compressed concatenation
//!   mode 2: byte-shuffled (stride = common payload length) then LZ
//! ```
//!
//! Keys are non-decreasing within a leaf, so delta mode needs no zigzag;
//! dictionary mode wins on key-repetitive leaves (few devices, many
//! readings). The payload encoder tries every permitted mode and keeps the
//! smallest. Decoding is defensive throughout: corrupt images produce a
//! typed [`WwError::Corrupt`] and never panic or over-allocate — initial
//! capacities are capped by what the image's byte length could plausibly
//! hold (every row costs at least one byte per column).
//!
//! # Scan path
//!
//! The read side comes in two layers:
//!
//! * **Vectorized kernels** — [`scan_leaf_with`], [`DecodedLeaf`], and the
//!   batched `Decoder::get_uvarints` underneath decode columns in 8-wide
//!   word-at-a-time chunks, reconstruct keys by wrapping prefix sum, and
//!   filter with a selection vector (16-wide interval masks; dictionary
//!   leaves evaluate the key predicate once per dictionary entry via two
//!   binary searches, never per row). Only selected rows materialize
//!   `Tuple`s: the payload block is decompressed into a reused buffer,
//!   the survivors' bytes are gathered out of it (unshuffled plane by
//!   plane for a shuffled block) into one allocation sized to them, and
//!   every payload is a zero-copy [`Bytes`] slice of that allocation.
//!   Buffers come from a caller-owned [`ScanScratch`] so pipelined workers
//!   reuse them across leaves.
//! * **Scalar reference** — [`decode_leaf_scalar`] / [`scan_leaf_scalar`]
//!   keep the original row-at-a-time implementation. They are the oracle
//!   the vectorized kernels are property-tested against (in-module and
//!   in `tests/columnar_kernels.rs`); no deployment selects them.
//!
//! Both layers implement late materialization: the payload block —
//! including its decompression — is touched only when at least one row
//! survives the key/time intervals. When one does, both decompress and
//! length-check the whole block, so they accept and reject the same
//! images; only the scalar reference unshuffles all of it.

use bytes::Bytes;
use std::sync::Arc;
use waterwheel_core::codec::{unzigzag, zigzag, Decoder, Encoder};
use waterwheel_core::compress;
use waterwheel_core::{KeyInterval, Result, TimeInterval, Tuple, WwError};

const PAYLOAD_RAW: u8 = 0;
const PAYLOAD_LZ: u8 = 1;
const PAYLOAD_SHUFFLE_LZ: u8 = 2;

const KEYS_DELTA: u8 = 0;
const KEYS_DICT: u8 = 1;

/// Upper bound on a single leaf's decompressed payload block; a corrupt
/// length header past this is rejected before allocation. Generous: leaves
/// are sealed at a few hundred tuples.
const MAX_PAYLOAD_BLOCK: usize = 256 << 20;

fn uvarint_len(v: u64) -> usize {
    ((64 - (v | 1).leading_zeros()) as usize).div_ceil(7)
}

/// Encodes a sealed leaf's tuples (sorted by `(key, ts)`) into a columnar
/// image. An empty slice encodes to an empty image.
///
/// Every column is sized exactly before a byte is written, so the output
/// vector is allocated once at its final length — no speculative
/// over-allocation, no growth reallocations.
pub fn encode_leaf(entries: &[Tuple], compression: bool) -> Vec<u8> {
    if entries.is_empty() {
        return Vec::new();
    }

    // Timestamp column size: first value, then zigzag delta-of-delta.
    // Deltas use wrapping arithmetic so arbitrary u64 timestamps (and the
    // non-monotonic timestamps a key-sorted leaf produces) round-trip.
    let mut ts_size = uvarint_len(entries[0].ts);
    {
        let mut prev_ts = entries[0].ts;
        let mut prev_delta: i64 = 0;
        for t in &entries[1..] {
            let delta = t.ts.wrapping_sub(prev_ts) as i64;
            ts_size += uvarint_len(zigzag(delta.wrapping_sub(prev_delta)));
            prev_ts = t.ts;
            prev_delta = delta;
        }
    }

    // Key column: size both encodings, keep the smaller.
    let mut delta_size = uvarint_len(entries[0].key);
    for w in entries.windows(2) {
        delta_size += uvarint_len(w[1].key - w[0].key);
    }
    let mut dict: Vec<u64> = Vec::new();
    for t in entries {
        if dict.last() != Some(&t.key) {
            dict.push(t.key);
        }
    }
    let mut dict_size = uvarint_len(dict.len() as u64) + uvarint_len(dict[0]);
    for w in dict.windows(2) {
        dict_size += uvarint_len(w[1] - w[0]);
    }
    let mut idx = 0usize;
    for t in entries {
        if dict[idx] != t.key {
            idx += 1;
        }
        dict_size += uvarint_len(idx as u64);
    }
    let key_size = delta_size.min(dict_size);

    // Payload column: length prefixes, then the concatenated block in
    // whichever mode encodes smallest.
    let mut lens_size = 0usize;
    let mut block_len = 0usize;
    let mut uniform_len = Some(entries[0].payload.len());
    for t in entries {
        lens_size += uvarint_len(t.payload.len() as u64);
        block_len += t.payload.len();
        if uniform_len != Some(t.payload.len()) {
            uniform_len = None;
        }
    }
    let mut block = Vec::with_capacity(block_len);
    for t in entries {
        block.extend_from_slice(&t.payload);
    }
    let mut best: Option<(u8, Vec<u8>)> = None;
    if compression && !block.is_empty() {
        let lz = compress::compress(&block);
        if lz.len() < block.len() {
            best = Some((PAYLOAD_LZ, lz));
        }
        if let Some(stride) = uniform_len.filter(|&l| l > 0) {
            let shuf = compress::compress(&compress::shuffle(&block, stride));
            if shuf.len() < best.as_ref().map_or(block.len(), |(_, b)| b.len()) {
                best = Some((PAYLOAD_SHUFFLE_LZ, shuf));
            }
        }
    }
    let (mode, body) = best.unwrap_or((PAYLOAD_RAW, block));

    let total = 4 + ts_size + 1 + key_size + lens_size + 1 + 4 + body.len();
    let mut out = Vec::with_capacity(total);
    out.put_u32(entries.len() as u32);

    out.put_uvarint(entries[0].ts);
    let mut prev_ts = entries[0].ts;
    let mut prev_delta: i64 = 0;
    for t in &entries[1..] {
        let delta = t.ts.wrapping_sub(prev_ts) as i64;
        out.put_ivarint(delta.wrapping_sub(prev_delta));
        prev_ts = t.ts;
        prev_delta = delta;
    }

    if dict_size < delta_size {
        out.put_u8(KEYS_DICT);
        out.put_uvarint(dict.len() as u64);
        out.put_uvarint(dict[0]);
        for w in dict.windows(2) {
            out.put_uvarint(w[1] - w[0]);
        }
        let mut idx = 0usize;
        for t in entries {
            if dict[idx] != t.key {
                idx += 1;
            }
            out.put_uvarint(idx as u64);
        }
    } else {
        out.put_u8(KEYS_DELTA);
        out.put_uvarint(entries[0].key);
        for w in entries.windows(2) {
            out.put_uvarint(w[1].key - w[0].key);
        }
    }

    for t in entries {
        out.put_uvarint(t.payload.len() as u64);
    }
    out.put_u8(mode);
    out.put_bytes(&body);
    debug_assert_eq!(out.len(), total, "encode_leaf sizing out of step");
    out
}

// ---------------------------------------------------------------------------
// Scalar reference path (the PR 8 implementation, retained as the oracle).
// ---------------------------------------------------------------------------

/// The key and timestamp columns of a leaf image, decoded; payloads stay
/// encoded until [`DecodedColumns::materialize`] touches them.
struct DecodedColumns<'a> {
    keys: Vec<u64>,
    timestamps: Vec<u64>,
    dec: Decoder<'a>, // positioned at the payload-length column
}

fn decode_columns<'a>(bytes: &'a [u8], expected: u32) -> Result<DecodedColumns<'a>> {
    let corrupt = |msg: &'static str| WwError::corrupt("chunk leaf", msg);
    let mut dec = Decoder::new(bytes, "chunk leaf");
    let count = dec.get_u32()? as usize;
    if count != expected as usize {
        return Err(corrupt("leaf row count disagrees with directory"));
    }
    if count == 0 {
        // An empty leaf encodes as an empty image; callers handle that
        // before reaching here, so a non-empty image claiming zero rows
        // is corrupt.
        return Err(corrupt("non-empty image claims zero rows"));
    }
    // Every row costs at least one byte in each of the three columns, so a
    // count beyond the image length is corrupt — reject before allocating.
    if count > bytes.len() {
        return Err(corrupt("leaf row count exceeds image size"));
    }

    let mut timestamps = Vec::with_capacity(count);
    let first_ts = dec.get_uvarint()?;
    timestamps.push(first_ts);
    let mut prev_ts = first_ts;
    let mut prev_delta: i64 = 0;
    for _ in 1..count {
        let delta = prev_delta.wrapping_add(dec.get_ivarint()?);
        prev_ts = prev_ts.wrapping_add(delta as u64);
        prev_delta = delta;
        timestamps.push(prev_ts);
    }

    let mut keys = Vec::with_capacity(count);
    match dec.get_u8()? {
        KEYS_DELTA => {
            let mut key = dec.get_uvarint()?;
            keys.push(key);
            for _ in 1..count {
                key = key
                    .checked_add(dec.get_uvarint()?)
                    .ok_or_else(|| corrupt("key delta overflows"))?;
                keys.push(key);
            }
        }
        KEYS_DICT => {
            let dict_len = dec.get_uvarint()? as usize;
            if dict_len == 0 || dict_len > count {
                return Err(corrupt("dictionary size out of range"));
            }
            let mut dict = Vec::with_capacity(dict_len);
            let mut v = dec.get_uvarint()?;
            dict.push(v);
            for _ in 1..dict_len {
                v = v
                    .checked_add(dec.get_uvarint()?)
                    .ok_or_else(|| corrupt("dictionary delta overflows"))?;
                dict.push(v);
            }
            for _ in 0..count {
                let idx = dec.get_uvarint()? as usize;
                let key = *dict
                    .get(idx)
                    .ok_or_else(|| corrupt("dictionary index out of range"))?;
                keys.push(key);
            }
        }
        _ => return Err(corrupt("unknown key column mode")),
    }

    Ok(DecodedColumns {
        keys,
        timestamps,
        dec,
    })
}

impl<'a> DecodedColumns<'a> {
    /// Decodes the payload column and materializes the selected rows (given
    /// as sorted indices) into tuples. Skipped entirely when `selected` is
    /// empty — late materialization means an all-pruned leaf never pays for
    /// payload decompression.
    fn materialize(mut self, selected: &[usize]) -> Result<Vec<Tuple>> {
        if selected.is_empty() {
            return Ok(Vec::new());
        }
        let corrupt = |msg: &'static str| WwError::corrupt("chunk leaf", msg);
        let count = self.keys.len();
        let mut lens = Vec::with_capacity(count);
        let mut total: u64 = 0;
        for _ in 0..count {
            let len = self.dec.get_uvarint()?;
            total = total
                .checked_add(len)
                .ok_or_else(|| corrupt("payload lengths overflow"))?;
            lens.push(len as usize);
        }
        if total > MAX_PAYLOAD_BLOCK as u64 {
            return Err(corrupt("payload block implausibly large"));
        }
        let total = total as usize;
        let mode = self.dec.get_u8()?;
        let body = self.dec.get_bytes()?;
        if self.dec.remaining() != 0 {
            return Err(corrupt("trailing bytes after payload block"));
        }
        let block: Vec<u8> = match mode {
            PAYLOAD_RAW => body.to_vec(),
            PAYLOAD_LZ => compress::decompress(body, total)?,
            PAYLOAD_SHUFFLE_LZ => {
                let stride = lens.first().copied().unwrap_or(0);
                if stride == 0 || lens.iter().any(|&l| l != stride) {
                    return Err(corrupt("shuffled payload block with mixed lengths"));
                }
                let shuffled = compress::decompress(body, total)?;
                if shuffled.len() != total {
                    return Err(corrupt("shuffled payload block has wrong length"));
                }
                compress::unshuffle(&shuffled, stride)
            }
            _ => return Err(corrupt("unknown payload column mode")),
        };
        if block.len() != total {
            return Err(corrupt("payload block has wrong length"));
        }
        // Prefix-sum offsets once, then slice out only the selected rows.
        let mut offsets = Vec::with_capacity(count + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for &l in &lens {
            acc += l;
            offsets.push(acc);
        }
        let mut out = Vec::with_capacity(selected.len());
        for &i in selected {
            out.push(Tuple::new(
                self.keys[i],
                self.timestamps[i],
                block[offsets[i]..offsets[i + 1]].to_vec(),
            ));
        }
        Ok(out)
    }
}

/// Scalar reference: decodes every row of a leaf image one value at a time.
/// Retained as the oracle the vectorized kernels are property-tested
/// against; production decoding goes through [`decode_leaf`].
pub fn decode_leaf_scalar(bytes: &[u8], expected: u32) -> Result<Vec<Tuple>> {
    if expected == 0 && bytes.is_empty() {
        return Ok(Vec::new());
    }
    let cols = decode_columns(bytes, expected)?;
    let all: Vec<usize> = (0..cols.keys.len()).collect();
    cols.materialize(&all)
}

/// Scalar reference for [`scan_leaf`]: row-at-a-time column decode and
/// filtering, exactly the PR 8 implementation.
pub fn scan_leaf_scalar(
    bytes: &[u8],
    expected: u32,
    keys: &KeyInterval,
    times: &TimeInterval,
) -> Result<Vec<Tuple>> {
    if expected == 0 && bytes.is_empty() {
        return Ok(Vec::new());
    }
    let cols = decode_columns(bytes, expected)?;
    // Keys are sorted within a leaf: binary-search the qualifying key span,
    // then filter that span by timestamp.
    let start = cols.keys.partition_point(|&k| k < keys.lo());
    let end = cols.keys.partition_point(|&k| k <= keys.hi());
    let selected: Vec<usize> = (start..end)
        .filter(|&i| times.contains(cols.timestamps[i]))
        .collect();
    cols.materialize(&selected)
}

// ---------------------------------------------------------------------------
// Vectorized path: batched kernels, selection vectors, scratch reuse.
// ---------------------------------------------------------------------------

/// Reusable decode/select buffers for the columnar scan path.
///
/// One scratch per worker: the pipelined leaf readers and filter workers in
/// the query server hold a `ScanScratch` across leaves, so column decoding,
/// selection, payload offsets and payload decompression reuse the same
/// allocations instead of growing fresh vectors per leaf.
#[derive(Debug, Default)]
pub struct ScanScratch {
    timestamps: Vec<u64>,
    keys: Vec<u64>,
    dict_values: Vec<u64>,
    dict_indexes: Vec<u32>,
    varints: Vec<u64>,
    selection: Vec<u32>,
    payload: PayloadScratch,
}

/// The payload column's share of a [`ScanScratch`].
#[derive(Debug, Default)]
struct PayloadScratch {
    lens: Vec<u64>,
    offsets: Vec<usize>,
    /// The leaf's decompressed payload block; survivors are gathered out
    /// of it. Dropped after a leaf that grew it past [`MAX_KEPT_BLOCK`].
    block: Vec<u8>,
}

/// Most decompressed-block capacity a scratch keeps between leaves: one
/// outsized leaf must not leave every worker holding its block.
const MAX_KEPT_BLOCK: usize = 1 << 20;

impl ScanScratch {
    /// A scratch with empty buffers; they grow to leaf size on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Key column of a [`DecodedLeaf`], or a borrowed view of scratch buffers.
#[derive(Debug)]
enum KeyColumn {
    /// Fully materialized keys (delta mode, or the dictionary fallback for
    /// images whose dictionary violates the encoder's ordering invariants).
    Dense(Vec<u64>),
    /// Strictly increasing dictionary + non-decreasing per-row indexes
    /// (encoder invariants, re-verified at decode). Interval selection runs
    /// two binary searches over `values`, so the key predicate is evaluated
    /// once per dictionary entry — never per row.
    Dict { values: Vec<u64>, indexes: Vec<u32> },
}

/// Borrowed view of a decoded key column, shared by the cached
/// ([`DecodedLeaf`]) and scratch-resident ([`scan_leaf_with`]) scan paths.
#[derive(Clone, Copy)]
enum KeysRef<'a> {
    Dense(&'a [u64]),
    Dict {
        values: &'a [u64],
        indexes: &'a [u32],
    },
}

impl KeysRef<'_> {
    fn at(&self, i: usize) -> u64 {
        match self {
            KeysRef::Dense(keys) => keys[i],
            // Indexes were bounds-checked against the dictionary at decode.
            KeysRef::Dict { values, indexes } => values[indexes[i] as usize],
        }
    }

    /// The contiguous row span whose keys fall inside `keys` — identical to
    /// `partition_point` over the materialized key array, but for
    /// dictionary leaves the interval is resolved against the (much
    /// smaller) dictionary first and then mapped to rows through the sorted
    /// index column.
    fn span(&self, keys: &KeyInterval) -> (usize, usize) {
        match self {
            KeysRef::Dense(k) => (
                k.partition_point(|&v| v < keys.lo()),
                k.partition_point(|&v| v <= keys.hi()),
            ),
            KeysRef::Dict { values, indexes } => {
                let dlo = values.partition_point(|&v| v < keys.lo()) as u32;
                let dhi = values.partition_point(|&v| v <= keys.hi()) as u32;
                (
                    indexes.partition_point(|&j| j < dlo),
                    indexes.partition_point(|&j| j < dhi),
                )
            }
        }
    }
}

/// Where a vectorized column decode left its results: timestamps in
/// `scratch.timestamps`, keys in `scratch.keys` (dense) or
/// `scratch.dict_values` + `scratch.dict_indexes`, and the still-encoded
/// payload tail at `bytes[payload_tail..]`.
struct ColumnLayout {
    count: usize,
    dict: bool,
    payload_tail: usize,
}

/// Decodes the key and timestamp columns with the batched kernels. Produces
/// exactly the columns (and exactly the errors) of [`decode_columns`]; the
/// proptest oracle in `tests/` holds the two paths to that contract.
fn decode_columns_vectorized(
    bytes: &[u8],
    expected: u32,
    s: &mut ScanScratch,
) -> Result<ColumnLayout> {
    let corrupt = |msg: &'static str| WwError::corrupt("chunk leaf", msg);
    let mut dec = Decoder::new(bytes, "chunk leaf");
    let count = dec.get_u32()? as usize;
    if count != expected as usize {
        return Err(corrupt("leaf row count disagrees with directory"));
    }
    if count == 0 {
        return Err(corrupt("non-empty image claims zero rows"));
    }
    if count > bytes.len() {
        return Err(corrupt("leaf row count exceeds image size"));
    }

    // Timestamps: batched varint parse, then a serial delta-of-delta
    // reconstruction (cheap next to the parse itself).
    let first_ts = dec.get_uvarint()?;
    s.varints.clear();
    dec.get_uvarints(count - 1, &mut s.varints)?;
    s.timestamps.clear();
    s.timestamps.reserve(count);
    s.timestamps.push(first_ts);
    let mut prev_ts = first_ts;
    let mut prev_delta: i64 = 0;
    for &u in &s.varints {
        let delta = prev_delta.wrapping_add(unzigzag(u));
        prev_ts = prev_ts.wrapping_add(delta as u64);
        prev_delta = delta;
        s.timestamps.push(prev_ts);
    }

    let mut dict = false;
    match dec.get_u8()? {
        KEYS_DELTA => {
            let first = dec.get_uvarint()?;
            s.varints.clear();
            dec.get_uvarints(count - 1, &mut s.varints)?;
            s.keys.clear();
            s.keys.reserve(count);
            s.keys.push(first);
            // Wrapping prefix sum plus a wrap check: the deltas are
            // unsigned, so the running key only moves up and any
            // wrap-around is exactly the overflow the scalar path's
            // checked_add chain rejects.
            let mut key = first;
            let mut wrapped = false;
            for &d in &s.varints {
                let next = key.wrapping_add(d);
                wrapped |= next < key;
                key = next;
                s.keys.push(next);
            }
            if wrapped {
                return Err(corrupt("key delta overflows"));
            }
        }
        KEYS_DICT => {
            let dict_len = dec.get_uvarint()? as usize;
            if dict_len == 0 || dict_len > count {
                return Err(corrupt("dictionary size out of range"));
            }
            let first = dec.get_uvarint()?;
            s.varints.clear();
            dec.get_uvarints(dict_len - 1, &mut s.varints)?;
            s.dict_values.clear();
            s.dict_values.reserve(dict_len);
            s.dict_values.push(first);
            let mut v = first;
            let mut wrapped = false;
            for &d in &s.varints {
                let next = v.wrapping_add(d);
                wrapped |= next < v;
                v = next;
                s.dict_values.push(next);
            }
            if wrapped {
                return Err(corrupt("dictionary delta overflows"));
            }
            s.varints.clear();
            dec.get_uvarints(count, &mut s.varints)?;
            s.dict_indexes.clear();
            s.dict_indexes.reserve(count);
            let mut out_of_range = false;
            for &u in &s.varints {
                out_of_range |= u >= dict_len as u64;
                s.dict_indexes.push(u as u32);
            }
            if out_of_range {
                return Err(corrupt("dictionary index out of range"));
            }
            // The encoder writes a strictly increasing dictionary and
            // non-decreasing indexes; the binary-search span relies on
            // both. A decodable image violating either (hand-crafted, never
            // produced by us) falls back to dense keys so selection matches
            // the scalar reference on every input.
            let values_sorted = s.dict_values.windows(2).all(|w| w[0] < w[1]);
            let indexes_sorted = s.dict_indexes.windows(2).all(|w| w[0] <= w[1]);
            if values_sorted && indexes_sorted {
                dict = true;
            } else {
                s.keys.clear();
                s.keys.reserve(count);
                for &i in &s.dict_indexes {
                    s.keys.push(s.dict_values[i as usize]);
                }
            }
        }
        _ => return Err(corrupt("unknown key column mode")),
    }
    Ok(ColumnLayout {
        count,
        dict,
        payload_tail: dec.position(),
    })
}

/// Fills `selection` with the (u32) indices of rows inside `keys` ×
/// `times`. The key interval resolves to a contiguous span via binary
/// search; the span is then time-filtered in 16-wide mask chunks — the
/// interval test vectorizes, and survivors compact out one set bit at a
/// time.
fn select_rows(
    keys_col: KeysRef<'_>,
    timestamps: &[u64],
    keys: &KeyInterval,
    times: &TimeInterval,
    selection: &mut Vec<u32>,
) {
    selection.clear();
    let (start, end) = keys_col.span(keys);
    for (c, chunk) in timestamps[start..end].chunks(16).enumerate() {
        let mut mask = 0u32;
        for (j, &t) in chunk.iter().enumerate() {
            mask |= (times.contains(t) as u32) << j;
        }
        let base = (start + c * 16) as u32;
        while mask != 0 {
            selection.push(base + mask.trailing_zeros());
            mask &= mask - 1;
        }
    }
}

/// Decodes the payload tail (`[count lens][mode][block]`) and materializes
/// the selected rows.
///
/// The whole column is validated as the scalar reference validates it:
/// every length, and the whole block decompressed (into the scratch's
/// reused buffer) and length-checked. Only the survivors' bytes are then
/// gathered — unshuffled plane by plane for a shuffled block, one copy per
/// row (or one for a contiguous run) otherwise — into a single allocation
/// sized to them, which becomes the shared [`Bytes`] every survivor's
/// payload slices. N survivors cost one payload allocation, not N, and a
/// retained tuple pins only the survivors' bytes, not the leaf's block.
fn materialize_rows(
    payload: &[u8],
    count: usize,
    keys_col: KeysRef<'_>,
    timestamps: &[u64],
    selection: &[u32],
    scratch: &mut PayloadScratch,
) -> Result<Vec<Tuple>> {
    if selection.is_empty() {
        return Ok(Vec::new());
    }
    let rows = gather_rows(payload, count, keys_col, timestamps, selection, scratch);
    if scratch.block.capacity() > MAX_KEPT_BLOCK {
        scratch.block = Vec::new();
    }
    rows
}

/// [`materialize_rows`] for a non-empty selection; leaves the decompressed
/// block in `scratch.block` for the caller to keep or drop.
fn gather_rows(
    payload: &[u8],
    count: usize,
    keys_col: KeysRef<'_>,
    timestamps: &[u64],
    selection: &[u32],
    scratch: &mut PayloadScratch,
) -> Result<Vec<Tuple>> {
    let corrupt = |msg: &'static str| WwError::corrupt("chunk leaf", msg);
    let PayloadScratch {
        lens,
        offsets,
        block,
    } = scratch;
    let mut dec = Decoder::new(payload, "chunk leaf");
    lens.clear();
    dec.get_uvarints(count, lens)?;
    let mut total: u64 = 0;
    for &l in lens.iter() {
        total = total
            .checked_add(l)
            .ok_or_else(|| corrupt("payload lengths overflow"))?;
    }
    if total > MAX_PAYLOAD_BLOCK as u64 {
        return Err(corrupt("payload block implausibly large"));
    }
    let total = total as usize;
    let mode = dec.get_u8()?;
    let body = dec.get_bytes()?;
    if dec.remaining() != 0 {
        return Err(corrupt("trailing bytes after payload block"));
    }
    let (src, stride): (&[u8], Option<usize>) = match mode {
        PAYLOAD_RAW => {
            if body.len() != total {
                return Err(corrupt("payload block has wrong length"));
            }
            (body, None)
        }
        PAYLOAD_LZ => {
            compress::decompress_into(body, total, block)?;
            if block.len() != total {
                return Err(corrupt("payload block has wrong length"));
            }
            (block, None)
        }
        PAYLOAD_SHUFFLE_LZ => {
            let stride = lens.first().map(|&l| l as usize).unwrap_or(0);
            if stride == 0 || lens.iter().any(|&l| l as usize != stride) {
                return Err(corrupt("shuffled payload block with mixed lengths"));
            }
            compress::decompress_into(body, total, block)?;
            if block.len() != total {
                return Err(corrupt("shuffled payload block has wrong length"));
            }
            (block, Some(stride))
        }
        _ => return Err(corrupt("unknown payload column mode")),
    };
    offsets.clear();
    offsets.reserve(count + 1);
    offsets.push(0);
    let mut acc = 0usize;
    for &l in lens.iter() {
        acc += l as usize;
        offsets.push(acc);
    }
    // Selections are strictly increasing, so first and last bound a run.
    let (first, last) = (
        selection[0] as usize,
        selection[selection.len() - 1] as usize,
    );
    let contiguous = last - first + 1 == selection.len();
    let gathered: Arc<[u8]> = match stride {
        None if contiguous => Arc::from(&src[offsets[first]..offsets[last + 1]]),
        None => {
            let size = selection
                .iter()
                .map(|&i| offsets[i as usize + 1] - offsets[i as usize])
                .sum();
            let mut gathered = zeroed(size);
            let dst = Arc::make_mut(&mut gathered);
            let mut at = 0;
            for &i in selection {
                let row = &src[offsets[i as usize]..offsets[i as usize + 1]];
                dst[at..at + row.len()].copy_from_slice(row);
                at += row.len();
            }
            gathered
        }
        Some(stride) => {
            let mut gathered = zeroed(selection.len() * stride);
            let dst = Arc::make_mut(&mut gathered);
            for (p, plane) in src.chunks_exact(count).enumerate() {
                for (rec, &i) in dst.chunks_exact_mut(stride).zip(selection) {
                    rec[p] = plane[i as usize];
                }
            }
            gathered
        }
    };
    let gathered = Bytes::from_arc(gathered);
    let mut out = Vec::with_capacity(selection.len());
    let mut at = 0;
    for &i in selection {
        let i = i as usize;
        let len = offsets[i + 1] - offsets[i];
        out.push(Tuple {
            key: keys_col.at(i),
            ts: timestamps[i],
            payload: gathered.slice(at..at + len),
        });
        at += len;
    }
    Ok(out)
}

/// A zero-filled shared buffer of `len` bytes in one allocation: the
/// iterator's exact length lets `Arc` allocate once and write in place,
/// and the fresh `Arc` is unique, so `Arc::make_mut` hands it out without
/// cloning.
fn zeroed(len: usize) -> Arc<[u8]> {
    std::iter::repeat_n(0u8, len).collect()
}

/// A leaf image with its key and timestamp columns held decoded; the
/// payload column tail stays encoded (and compressed) for late
/// materialization. This is what the decoded-column cache tier stores:
/// repeated scans of a hot leaf skip the varint decode entirely and pay
/// only selection + materialization.
#[derive(Debug)]
pub struct DecodedLeaf {
    timestamps: Vec<u64>,
    keys: KeyColumn,
    /// Encoded payload tail: `[count × uvarint len][mode][block]`.
    payload: Vec<u8>,
}

impl DecodedLeaf {
    /// Decodes the key and timestamp columns of a leaf image into the
    /// cache-resident form. `vectorized` picks the batched kernels or the
    /// scalar reference; both produce identical columns. Column vectors are
    /// allocated at exactly their final length, so
    /// [`Self::resident_bytes`] reflects true residency.
    pub fn decode(
        bytes: &[u8],
        expected: u32,
        vectorized: bool,
        scratch: &mut ScanScratch,
    ) -> Result<Self> {
        if vectorized {
            let layout = decode_columns_vectorized(bytes, expected, scratch)?;
            let keys = if layout.dict {
                KeyColumn::Dict {
                    values: scratch.dict_values.clone(),
                    indexes: scratch.dict_indexes.clone(),
                }
            } else {
                KeyColumn::Dense(scratch.keys.clone())
            };
            Ok(Self {
                timestamps: scratch.timestamps.clone(),
                keys,
                payload: bytes[layout.payload_tail..].to_vec(),
            })
        } else {
            let cols = decode_columns(bytes, expected)?;
            let tail = cols.dec.position();
            Ok(Self {
                timestamps: cols.timestamps,
                keys: KeyColumn::Dense(cols.keys),
                payload: bytes[tail..].to_vec(),
            })
        }
    }

    /// Number of rows in the leaf.
    pub fn rows(&self) -> usize {
        self.timestamps.len()
    }

    /// Actual bytes this entry holds resident — decoded columns at their
    /// allocated width plus the still-encoded payload tail. This is what
    /// the block cache charges against its budget.
    pub fn resident_bytes(&self) -> usize {
        let keys = match &self.keys {
            KeyColumn::Dense(k) => k.capacity() * 8,
            KeyColumn::Dict { values, indexes } => values.capacity() * 8 + indexes.capacity() * 4,
        };
        std::mem::size_of::<Self>()
            + self.timestamps.capacity() * 8
            + keys
            + self.payload.capacity()
    }

    fn keys_ref(&self) -> KeysRef<'_> {
        match &self.keys {
            KeyColumn::Dense(k) => KeysRef::Dense(k),
            KeyColumn::Dict { values, indexes } => KeysRef::Dict { values, indexes },
        }
    }

    /// Scans the decoded columns: selection-vector filtering over `keys` ×
    /// `times`, then late materialization of the survivors. Answers are
    /// byte-identical to [`scan_leaf`] over the original image.
    pub fn scan(
        &self,
        keys: &KeyInterval,
        times: &TimeInterval,
        scratch: &mut ScanScratch,
    ) -> Result<Vec<Tuple>> {
        let keys_col = self.keys_ref();
        select_rows(
            keys_col,
            &self.timestamps,
            keys,
            times,
            &mut scratch.selection,
        );
        materialize_rows(
            &self.payload,
            self.timestamps.len(),
            keys_col,
            &self.timestamps,
            &scratch.selection,
            &mut scratch.payload,
        )
    }
}

/// Decodes every row of a leaf image written by [`encode_leaf`].
/// `expected` is the row count from the chunk's leaf directory and must
/// match the image's own header.
pub fn decode_leaf(bytes: &[u8], expected: u32) -> Result<Vec<Tuple>> {
    decode_leaf_with(bytes, expected, &mut ScanScratch::new())
}

/// [`decode_leaf`] with caller-owned scratch, for readers that decode many
/// leaves back to back.
pub fn decode_leaf_with(
    bytes: &[u8],
    expected: u32,
    scratch: &mut ScanScratch,
) -> Result<Vec<Tuple>> {
    if expected == 0 && bytes.is_empty() {
        return Ok(Vec::new());
    }
    let layout = decode_columns_vectorized(bytes, expected, scratch)?;
    let ScanScratch {
        timestamps,
        keys,
        dict_values,
        dict_indexes,
        selection,
        payload,
        ..
    } = scratch;
    let keys_col = if layout.dict {
        KeysRef::Dict {
            values: dict_values,
            indexes: dict_indexes,
        }
    } else {
        KeysRef::Dense(keys)
    };
    selection.clear();
    selection.extend(0..layout.count as u32);
    materialize_rows(
        &bytes[layout.payload_tail..],
        layout.count,
        keys_col,
        timestamps,
        selection,
        payload,
    )
}

/// Decodes a leaf image and materializes only the rows inside `keys` ×
/// `times`. Rows are filtered on the decoded key/timestamp columns; the
/// payload block is only decompressed if at least one row survives.
pub fn scan_leaf(
    bytes: &[u8],
    expected: u32,
    keys: &KeyInterval,
    times: &TimeInterval,
) -> Result<Vec<Tuple>> {
    scan_leaf_with(bytes, expected, keys, times, true, &mut ScanScratch::new())
}

/// [`scan_leaf`] with explicit kernel choice and caller-owned scratch: the
/// query server's filter workers pass their per-worker scratch so decode
/// buffers survive across leaves. `vectorized = false` routes through the
/// scalar reference path.
pub fn scan_leaf_with(
    bytes: &[u8],
    expected: u32,
    keys: &KeyInterval,
    times: &TimeInterval,
    vectorized: bool,
    scratch: &mut ScanScratch,
) -> Result<Vec<Tuple>> {
    if expected == 0 && bytes.is_empty() {
        return Ok(Vec::new());
    }
    if !vectorized {
        return scan_leaf_scalar(bytes, expected, keys, times);
    }
    let layout = decode_columns_vectorized(bytes, expected, scratch)?;
    let ScanScratch {
        timestamps,
        keys: dense,
        dict_values,
        dict_indexes,
        selection,
        payload,
        ..
    } = scratch;
    let keys_col = if layout.dict {
        KeysRef::Dict {
            values: dict_values,
            indexes: dict_indexes,
        }
    } else {
        KeysRef::Dense(dense)
    };
    select_rows(keys_col, timestamps, keys, times, selection);
    materialize_rows(
        &bytes[layout.payload_tail..],
        layout.count,
        keys_col,
        timestamps,
        selection,
        payload,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(entries: &[(u64, u64, usize)]) -> Vec<Tuple> {
        let mut v: Vec<Tuple> = entries
            .iter()
            .map(|&(k, ts, n)| Tuple::new(k, ts, vec![(k ^ ts) as u8; n]))
            .collect();
        v.sort_by_key(|t| (t.key, t.ts));
        v
    }

    #[test]
    fn roundtrips_all_shapes() {
        let cases = vec![
            leaf(&[]),
            leaf(&[(5, 100, 0)]),
            leaf(&[(1, 10, 4), (2, 20, 4), (3, 30, 4)]),
            // Repeated keys → dictionary mode territory.
            leaf(
                &(0..200)
                    .map(|i| (i % 3, 1000 + i * 7, 16))
                    .collect::<Vec<_>>(),
            ),
            // Wild timestamps out of order relative to keys.
            leaf(&[(1, u64::MAX, 2), (2, 0, 3), (3, 1 << 60, 1)]),
            // Mixed payload lengths defeat the shuffle mode.
            leaf(
                &(0..50)
                    .map(|i| (i, i * 2, (i % 7) as usize))
                    .collect::<Vec<_>>(),
            ),
        ];
        for entries in cases {
            for compression in [false, true] {
                let img = encode_leaf(&entries, compression);
                let back = decode_leaf(&img, entries.len() as u32).unwrap();
                assert_eq!(back, entries);
                let scalar = decode_leaf_scalar(&img, entries.len() as u32).unwrap();
                assert_eq!(scalar, entries);
            }
        }
    }

    #[test]
    fn scan_matches_post_hoc_filter() {
        let entries = leaf(
            &(0..300)
                .map(|i| (i / 2, 1000 + i * 3, 12))
                .collect::<Vec<_>>(),
        );
        let img = encode_leaf(&entries, true);
        let keys = KeyInterval::new(20, 90);
        let times = TimeInterval::new(1100, 1600);
        let got = scan_leaf(&img, entries.len() as u32, &keys, &times).unwrap();
        let want: Vec<Tuple> = entries
            .iter()
            .filter(|t| keys.contains(t.key) && times.contains(t.ts))
            .cloned()
            .collect();
        assert_eq!(got, want);
        // An empty scan window yields nothing (and skips materialization).
        let got = scan_leaf(
            &img,
            entries.len() as u32,
            &KeyInterval::new(5000, 6000),
            &times,
        )
        .unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn vectorized_and_scalar_paths_agree_and_share_scratch() {
        // Dictionary-shaped and delta-shaped leaves scanned back to back
        // through one scratch; every (kernel, cached, interval) combination
        // must produce identical tuples.
        let shapes = [
            leaf(&(0..300).map(|i| (i % 5, 1000 + i, 16)).collect::<Vec<_>>()),
            leaf(&(0..300).map(|i| (i * 3, 1000 + i, 8)).collect::<Vec<_>>()),
            leaf(
                &(0..17)
                    .map(|i| (i, i * 7, (i % 5) as usize))
                    .collect::<Vec<_>>(),
            ),
        ];
        let mut scratch = ScanScratch::new();
        for entries in &shapes {
            for compression in [false, true] {
                let img = encode_leaf(entries, compression);
                let n = entries.len() as u32;
                let windows = [
                    (KeyInterval::full(), TimeInterval::full()),
                    (KeyInterval::new(2, 200), TimeInterval::new(1003, 1200)),
                    (KeyInterval::new(0, 3), TimeInterval::full()),
                    (KeyInterval::new(900, 901), TimeInterval::full()),
                ];
                for (ki, ti) in &windows {
                    let reference = scan_leaf_scalar(&img, n, ki, ti).unwrap();
                    let vec = scan_leaf_with(&img, n, ki, ti, true, &mut scratch).unwrap();
                    assert_eq!(vec, reference);
                    let decoded = DecodedLeaf::decode(&img, n, true, &mut scratch).unwrap();
                    assert_eq!(decoded.scan(ki, ti, &mut scratch).unwrap(), reference);
                    let decoded_scalar = DecodedLeaf::decode(&img, n, false, &mut scratch).unwrap();
                    assert_eq!(
                        decoded_scalar.scan(ki, ti, &mut scratch).unwrap(),
                        reference
                    );
                }
            }
        }
    }

    #[test]
    fn materialized_payloads_share_one_block() {
        let entries = leaf(&(0..64).map(|i| (i, 100 + i, 8)).collect::<Vec<_>>());
        let img = encode_leaf(&entries, false);
        let got = scan_leaf(
            &img,
            entries.len() as u32,
            &KeyInterval::full(),
            &TimeInterval::full(),
        )
        .unwrap();
        // Zero-copy materialization: consecutive payloads are slices of the
        // same decompressed block, at adjacent addresses.
        let base = got[0].payload.as_ptr();
        for (i, t) in got.iter().enumerate() {
            assert_eq!(t.payload.as_ptr(), unsafe { base.add(i * 8) });
        }
    }

    #[test]
    fn a_scratch_keeps_a_bounded_block_between_leaves() {
        let mut scratch = ScanScratch::new();
        let (keys, times) = (KeyInterval::full(), TimeInterval::full());
        let small = leaf(&(0..64).map(|i| (i, 100 + i, 16)).collect::<Vec<_>>());
        let img = encode_leaf(&small, true);
        scan_leaf_with(&img, 64, &keys, &times, true, &mut scratch).unwrap();
        assert!(scratch.payload.block.capacity() >= 64 * 16);
        // 600 rows of 2 KiB: a 1.2 MiB block, dropped once the scan is done.
        let big = leaf(&(0..600).map(|i| (i, 100 + i, 2048)).collect::<Vec<_>>());
        let img = encode_leaf(&big, true);
        let got = scan_leaf_with(&img, 600, &keys, &times, true, &mut scratch).unwrap();
        assert_eq!(got, big);
        assert_eq!(scratch.payload.block.capacity(), 0);
    }

    #[test]
    fn decoded_leaf_reports_honest_residency() {
        let entries = leaf(&(0..256).map(|i| (i % 7, 1000 + i, 32)).collect::<Vec<_>>());
        let img = encode_leaf(&entries, true);
        let mut scratch = ScanScratch::new();
        let decoded = DecodedLeaf::decode(&img, entries.len() as u32, true, &mut scratch).unwrap();
        assert_eq!(decoded.rows(), entries.len());
        // Residency covers at least the decoded timestamp column plus the
        // encoded payload tail — far more than size_of::<DecodedLeaf>().
        assert!(decoded.resident_bytes() >= entries.len() * 8);
        // And it is finite/sane: no more than full-width columns plus tail.
        assert!(decoded.resident_bytes() <= entries.len() * 24 + img.len() + 256);
    }

    #[test]
    fn fixed_stride_payloads_compress_well() {
        // Sensor-shaped payloads: fixed 36-byte records with constant high
        // bytes. The columnar image should be well under half the row size.
        let entries: Vec<Tuple> = (0..256u64)
            .map(|i| {
                let mut p = Vec::new();
                p.extend_from_slice(&(i as u32 % 100).to_le_bytes());
                p.extend_from_slice(&(2_000_000u32 + i as u32).to_le_bytes());
                p.extend_from_slice(&(4_000_000u32 + (i as u32) * 3).to_le_bytes());
                p.extend_from_slice(&[0u8; 24]);
                Tuple::new(i << 32, 1_700_000_000_000 + i * 1000, p)
            })
            .collect();
        let row_size: usize = entries.iter().map(|t| t.encoded_len()).sum();
        let img = encode_leaf(&entries, true);
        assert!(
            img.len() * 2 < row_size,
            "columnar {} vs row {row_size}",
            img.len()
        );
    }

    #[test]
    fn corrupt_images_error_not_panic() {
        let entries = leaf(&(0..64).map(|i| (i, 100 + i, 8)).collect::<Vec<_>>());
        let img = encode_leaf(&entries, true);
        let n = entries.len() as u32;
        let mut scratch = ScanScratch::new();
        for cut in 0..img.len() {
            let _ = decode_leaf(&img[..cut], n);
            let _ = decode_leaf_scalar(&img[..cut], n);
        }
        for i in 0..img.len() {
            for flip in [0x01u8, 0x80, 0xff] {
                let mut bad = img.clone();
                bad[i] ^= flip;
                let _ = decode_leaf(&bad, n);
                let _ = scan_leaf(&bad, n, &KeyInterval::full(), &TimeInterval::full());
                if let Ok(decoded) = DecodedLeaf::decode(&bad, n, true, &mut scratch) {
                    let _ = decoded.scan(&KeyInterval::full(), &TimeInterval::full(), &mut scratch);
                }
            }
        }
        // Wrong directory count is detected.
        assert!(decode_leaf(&img, n + 1).is_err());
    }
}
