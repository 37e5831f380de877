//! The immutable chunk format (paper §III-A) and its selective reader.
//!
//! A chunk is the flushed image of one in-memory template B+ tree. Its
//! layout is split so that the cheap-to-cache metadata (the "template": key
//! separators, per-leaf directory, temporal bloom filters) can be loaded
//! without touching tuple data, and each leaf page can then be fetched
//! individually — a subquery selective on the key domain reads only the leaf
//! pages overlapping its key range (§VI-B).
//!
//! There is one on-disk layout, header version [`VERSION_V2`]: leaf pages
//! are columnar images ([`waterwheel_index::columnar`]: delta-of-delta
//! varint timestamps, delta/dictionary keys, optionally compressed payload
//! blocks), the leaf directory carries each leaf's *landmark* aggregate —
//! the count, MIN, MAX and SUM of the measure over all its tuples — and the
//! file always ends in a CRC-bearing footer with chunk-level measure bounds
//! and the length of the aggregate summary in front of it. Any other header
//! version — the retired row-page v1 included — is refused by name. The
//! index block is checked on every parse against the header's checksum,
//! whose kernel a header flag bit names: [`codec::checksum`] for chunks
//! written now, FNV-1a for chunks written before it.

use std::sync::Arc;
use waterwheel_agg::{PartialAgg, WheelSummary};
use waterwheel_core::codec::{self, Decoder, Encoder};
use waterwheel_core::{Key, KeyInterval, Region, Result, TimeInterval, Tuple, WwError};
use waterwheel_index::{columnar, BloomShape, SealedTree};

/// `"WWCHUNK1"` interpreted as a little-endian u64.
const MAGIC: u64 = u64::from_le_bytes(*b"WWCHUNK1");
/// Columnar leaf pages, measure bounds, mandatory CRC footer: the only
/// format version written or read.
pub const VERSION_V2: u32 = 2;
/// Header flag bit: payload blocks may be compressed.
const FLAG_COMPRESSED: u32 = 1;
/// Header flag bit: the index checksum is [`codec::checksum`]; without it,
/// the FNV-1a of chunks written before that kernel.
const FLAG_XXH64_INDEX: u32 = 2;
/// Fixed byte length of the header that precedes the index block.
pub const HEADER_LEN: usize = 8 + 4 + 4 + 8 + 4 + 8 + 8 + 32;
/// Offset of the header's index-block length. The index checksum does not
/// cover it, so it is checked against the file length before use.
const INDEX_LEN_AT: usize = 8 + 4 + 4 + 8 + 4;
/// `"WWCHKFT2"` interpreted as a little-endian u64: the footer magic,
/// distinct from both the chunk and summary magics.
pub const FOOTER_MAGIC: u64 = u64::from_le_bytes(*b"WWCHKFT2");
/// Fixed byte length of the mandatory footer:
/// `[measure_flag u8][min u64][max u64][summary_len u64][crc u64][magic u64]`
/// where `crc` is the FNV-1a hash of the preceding 25 footer bytes.
pub const V2_FOOTER_LEN: usize = 1 + 8 + 8 + 8 + 8 + 8;

/// Per-leaf directory entry: everything a query needs to decide whether to
/// fetch the leaf page, and where to find it.
#[derive(Clone, Debug)]
pub struct LeafMeta {
    /// Number of tuples in the leaf.
    pub count: u32,
    /// Absolute byte offset of the leaf page within the chunk file.
    pub offset: u64,
    /// Byte length of the leaf page.
    pub len: u64,
    /// Min/max timestamp of the leaf's tuples (`None` for an empty leaf).
    pub time_range: Option<TimeInterval>,
    /// Temporal bloom filter (paper §IV-B), when enabled at seal time
    /// ([`ChunkIndex::leaf_bloom`]).
    pub bloom: Option<LeafBloom>,
    /// MIN/MAX of the registered measure over the leaf's tuples (`None`
    /// for chunks written without a measure and for empty leaves). Lets
    /// executors skip leaves that cannot satisfy a `measure_range` filter.
    pub measure_range: Option<(u64, u64)>,
    /// SUM of the measure over the leaf's tuples: with `count` and
    /// `measure_range`, the leaf's landmark aggregate. `None` wherever
    /// `measure_range` is, and in directories written before the sum was
    /// recorded (measure flag 1).
    pub measure_sum: Option<u128>,
}

/// Where a leaf's bloom filter lives in its [`ChunkIndex`]: the filter's
/// shape, and the first of its words in the index's word arena.
#[derive(Clone, Copy, Debug)]
pub struct LeafBloom {
    /// The filter's geometry.
    pub shape: BloomShape,
    /// Index of the filter's first word in the arena.
    pub first_word: usize,
}

/// The parsed header + index block of a chunk — the persisted template.
///
/// This is the "template" caching unit of the paper's LRU cache: once
/// loaded, all leaf routing decisions are local. Every leaf's bloom words
/// sit in one arena, so a parse allocates the same handful of buffers
/// whatever the leaf count.
#[derive(Clone, Debug)]
pub struct ChunkIndex {
    /// The key–time rectangle covered by the chunk.
    pub region: Region,
    /// Total tuple count.
    pub count: u64,
    /// Key separators between adjacent leaves (strictly increasing).
    pub separators: Vec<Key>,
    /// Per-leaf directory, in key order.
    pub leaves: Vec<LeafMeta>,
    /// Total chunk file size in bytes.
    pub file_len: u64,
    /// Byte length of the header and index block: what a template load
    /// reads and checks.
    pub template_len: u64,
    /// Every leaf's bloom words, back to back in key order.
    bloom_words: Box<[u64]>,
}

impl ChunkIndex {
    /// The inclusive range of leaf indices whose key ranges may intersect
    /// `keys`.
    pub fn leaf_range(&self, keys: &KeyInterval) -> (usize, usize) {
        let lo = self.separators.partition_point(|&s| s <= keys.lo());
        let hi = self.separators.partition_point(|&s| s <= keys.hi());
        (lo, hi)
    }

    /// Whether leaf `i` can be skipped for a query with time constraint
    /// `times`: either its min/max bounds miss, or its bloom filter proves
    /// no mini-range overlaps.
    pub fn leaf_prunable(&self, i: usize, times: &TimeInterval) -> bool {
        let meta = &self.leaves[i];
        match meta.time_range {
            None => return true, // empty leaf
            Some(tr) if !tr.overlaps(times) => return true,
            _ => {}
        }
        self.leaf_bloom(i)
            .is_some_and(|(shape, words)| !shape.may_overlap(words, times))
    }

    /// Leaf `i`'s bloom filter: its shape over its words.
    pub fn leaf_bloom(&self, i: usize) -> Option<(BloomShape, &[u64])> {
        let LeafBloom { shape, first_word } = self.leaves[i].bloom?;
        Some((
            shape,
            &self.bloom_words[first_word..first_word + shape.words()],
        ))
    }

    /// The keys leaf `i` can hold: bounded by its separators and by the
    /// chunk's key hull. `None` when those bounds cross.
    pub fn leaf_keys(&self, i: usize) -> Option<KeyInterval> {
        let hull = self.region.keys;
        let lo = match i.checked_sub(1) {
            Some(prev) => self.separators[prev].max(hull.lo()),
            None => hull.lo(),
        };
        let hi = match self.separators.get(i) {
            Some(&next) => next.checked_sub(1)?.min(hull.hi()),
            None => hull.hi(),
        };
        KeyInterval::checked(lo, hi)
    }

    /// Leaf `i`'s landmark aggregate, when every tuple the leaf can hold
    /// lies inside `rect` and its directory entry carries the sum: the
    /// leaf's share of an aggregate over `rect`, without reading its page.
    pub fn leaf_landmark_inside(&self, i: usize, rect: &Region) -> Option<PartialAgg> {
        let meta = &self.leaves[i];
        let inside = rect.keys.covers(&self.leaf_keys(i)?) && rect.times.covers(&meta.time_range?);
        let (min, max) = meta.measure_range?;
        inside.then_some(PartialAgg {
            count: meta.count as u64,
            sum: meta.measure_sum?,
            min,
            max,
        })
    }

    /// Approximate heap size for cache accounting: the separators, the
    /// leaf directory and the bloom word arena.
    pub fn approx_size(&self) -> usize {
        self.separators.len() * 8
            + self.leaves.len() * std::mem::size_of::<LeafMeta>()
            + self.bloom_words.len() * 8
    }
}

/// Writer knobs for [`write_chunk_opts`]; the default writes uncompressed
/// payloads and no measure bounds.
pub struct ChunkWriteOptions<'a> {
    /// On-disk format: must be [`VERSION_V2`], the only one written.
    pub format_version: u32,
    /// Compress payload blocks.
    pub compression: bool,
    /// Measure used to compute the per-leaf landmark aggregates and the
    /// per-chunk MIN/MAX bounds (`None` writes neither).
    pub measure: Option<&'a (dyn Fn(&Tuple) -> u64 + Sync)>,
}

impl Default for ChunkWriteOptions<'_> {
    fn default() -> Self {
        Self {
            format_version: VERSION_V2,
            compression: false,
            measure: None,
        }
    }
}

/// Serializes a sealed tree with the default options and no aggregate
/// summary.
pub fn write_chunk(sealed: &SealedTree) -> Vec<u8> {
    write_chunk_opts(sealed, None, &ChunkWriteOptions::default())
}

/// Serializes a sealed tree, optionally appending a sealed aggregate
/// [`WheelSummary`] after the leaf pages.
///
/// Leaves are stored as columnar images, the directory records each leaf's
/// count, MIN, MAX and SUM of the measure, and the file ends in a
/// CRC-bearing footer carrying the chunk-level bounds and the summary
/// length (zero when no summary was written).
pub fn write_chunk_opts(
    sealed: &SealedTree,
    summary: Option<&WheelSummary>,
    opts: &ChunkWriteOptions<'_>,
) -> Vec<u8> {
    debug_assert_eq!(sealed.check_invariants(), Ok(()));
    assert_eq!(
        opts.format_version, VERSION_V2,
        "chunk format version {} is not written (v1 is retired)",
        opts.format_version
    );
    // Leaf pages first (into a scratch buffer) so the directory can record
    // final offsets once the index-block length is known.
    let pages: Vec<Vec<u8>> = sealed
        .leaves
        .iter()
        .map(|leaf| columnar::encode_leaf(&leaf.entries, opts.compression))
        .collect();

    let landmark = |leaf: &waterwheel_index::SealedLeaf| -> Option<(u64, u64, u128)> {
        let measure = opts.measure?;
        let mut it = leaf.entries.iter().map(measure);
        let first = it.next()?;
        Some(it.fold((first, first, first as u128), |(lo, hi, sum), m| {
            (lo.min(m), hi.max(m), sum + m as u128)
        }))
    };

    // Index block, with offsets provisionally relative to the data section.
    let mut index = Vec::new();
    index.put_u32(sealed.separators.len() as u32);
    for s in &sealed.separators {
        index.put_u64(*s);
    }
    index.put_u32(sealed.leaves.len() as u32);
    let mut rel_offset = 0u64;
    let mut chunk_bounds: Option<(u64, u64)> = None;
    for (leaf, page) in sealed.leaves.iter().zip(&pages) {
        index.put_u32(leaf.entries.len() as u32);
        index.put_u64(rel_offset);
        index.put_u64(page.len() as u64);
        match leaf.time_range {
            Some(tr) => {
                index.put_u32(1);
                index.put_u64(tr.lo());
                index.put_u64(tr.hi());
            }
            None => index.put_u32(0),
        }
        match &leaf.bloom {
            Some(b) => {
                index.put_u32(1);
                b.encode(&mut index);
            }
            None => index.put_u32(0),
        }
        match landmark(leaf) {
            Some((lo, hi, sum)) => {
                index.put_u32(MEASURE_LANDMARK);
                index.put_uvarint(lo);
                index.put_uvarint(hi);
                index.put_uvarint(sum as u64);
                index.put_uvarint((sum >> 64) as u64);
                chunk_bounds = Some(match chunk_bounds {
                    Some((clo, chi)) => (clo.min(lo), chi.max(hi)),
                    None => (lo, hi),
                });
            }
            None => index.put_u32(MEASURE_NONE),
        }
        rel_offset += page.len() as u64;
    }

    let data_start = HEADER_LEN as u64 + index.len() as u64;
    let mut out = Vec::with_capacity(data_start as usize + rel_offset as usize);
    out.put_u64(MAGIC);
    out.put_u32(VERSION_V2);
    out.put_u32(FLAG_XXH64_INDEX | if opts.compression { FLAG_COMPRESSED } else { 0 });
    out.put_u64(sealed.count as u64);
    out.put_u32(sealed.leaves.len() as u32);
    out.put_u64(index.len() as u64);
    out.put_u64(codec::checksum(&index));
    codec::encode_region(&mut out, &sealed.region);
    debug_assert_eq!(out.len(), HEADER_LEN);
    out.extend_from_slice(&index);
    for page in &pages {
        out.extend_from_slice(page);
    }
    let summary_len = match summary {
        Some(summary) => {
            let encoded = summary.encode();
            out.extend_from_slice(&encoded);
            encoded.len() as u64
        }
        None => 0,
    };
    let mut footer = Vec::with_capacity(V2_FOOTER_LEN);
    let (flag, lo, hi) = match chunk_bounds {
        Some((lo, hi)) => (1, lo, hi),
        None => (0, 0, 0),
    };
    footer.put_u8(flag);
    footer.put_u64(lo);
    footer.put_u64(hi);
    footer.put_u64(summary_len);
    let crc = codec::fnv1a(&footer);
    footer.put_u64(crc);
    footer.put_u64(FOOTER_MAGIC);
    debug_assert_eq!(footer.len(), V2_FOOTER_LEN);
    out.extend_from_slice(&footer);
    out
}

/// Reads the magic and the format version off the front of a chunk,
/// refusing anything but [`VERSION_V2`] by its number.
fn check_header(dec: &mut Decoder<'_>) -> Result<()> {
    if dec.get_u64()? != MAGIC {
        return Err(WwError::corrupt("chunk", "bad magic"));
    }
    match dec.get_u32()? {
        VERSION_V2 => Ok(()),
        version => Err(WwError::corrupt(
            "chunk",
            format!("unsupported chunk format version {version}"),
        )),
    }
}

/// End offset of the index block for the header's index length. That
/// length is outside the index checksum, so the sum is checked and must
/// stay within the file.
fn index_end(index_len: u64, file_len: u64) -> Result<u64> {
    index_len
        .checked_add(HEADER_LEN as u64)
        .filter(|&end| end <= file_len)
        .ok_or_else(|| WwError::corrupt("chunk", "index block beyond file end"))
}

/// Parses the header + index block. `prefix` must contain at least the
/// first `HEADER_LEN + index_len` bytes of the chunk; `file_len` is the
/// total chunk size (for sanity checks).
pub fn parse_index(prefix: &[u8], file_len: u64) -> Result<ChunkIndex> {
    let mut dec = Decoder::new(prefix, "chunk");
    check_header(&mut dec)?;
    let flags = dec.get_u32()?;
    let count = dec.get_u64()?;
    let leaf_count = dec.get_u32()? as usize;
    let data_start = index_end(dec.get_u64()?, file_len)?;
    let checksum = dec.get_u64()?;
    let region = codec::decode_region(&mut dec)?;
    let index_bytes = prefix
        .get(HEADER_LEN..data_start as usize)
        .ok_or_else(|| WwError::corrupt("chunk", "index block truncated"))?;
    let sum = if flags & FLAG_XXH64_INDEX != 0 {
        codec::checksum
    } else {
        codec::fnv1a
    };
    if sum(index_bytes) != checksum {
        return Err(WwError::corrupt("chunk", "index checksum mismatch"));
    }
    let mut dec = Decoder::new(index_bytes, "chunk");
    // Counts are on-disk values checked only against each other: size each
    // allocation by the bytes that are actually there.
    let sep_count = dec.get_u32()? as usize;
    let mut separators = Vec::with_capacity(sep_count.min(dec.remaining() / 8));
    for _ in 0..sep_count {
        separators.push(dec.get_u64()?);
    }
    if !separators.windows(2).all(|w| w[0] < w[1]) {
        return Err(WwError::corrupt("chunk", "separators not increasing"));
    }
    let dir_leaves = dec.get_u32()? as usize;
    if dir_leaves != leaf_count || sep_count + 1 != leaf_count {
        return Err(WwError::corrupt("chunk", "leaf/separator count mismatch"));
    }
    // Leaf extents come from potentially corrupt bytes: all arithmetic is
    // checked (a forged `offset`/`len` near u64::MAX must not wrap past the
    // `file_len` bound), and pages must be non-overlapping and in file
    // order so `read_leaves`' coalesced-slice arithmetic cannot underflow.
    let mut leaves = Vec::with_capacity(leaf_count.min(dec.remaining() / MIN_LEAF_ENTRY_LEN));
    // The index block bounds the bloom words, so an arena reserved for all
    // of its bytes never grows; it is trimmed to the words at the end.
    let mut bloom_words = Vec::with_capacity(dec.remaining() / 8);
    let mut prev_end = data_start;
    for _ in 0..leaf_count {
        let entry_count = dec.get_u32()?;
        let offset = data_start
            .checked_add(dec.get_u64()?)
            .ok_or_else(|| WwError::corrupt("chunk", "leaf page offset overflows"))?;
        let len = dec.get_u64()?;
        let end = offset
            .checked_add(len)
            .ok_or_else(|| WwError::corrupt("chunk", "leaf page extent overflows"))?;
        if end > file_len {
            return Err(WwError::corrupt("chunk", "leaf page beyond file end"));
        }
        if offset < prev_end {
            return Err(WwError::corrupt("chunk", "leaf pages overlap or regress"));
        }
        prev_end = end;
        let time_range = if dec.get_u32()? == 1 {
            let lo = dec.get_u64()?;
            let hi = dec.get_u64()?;
            Some(
                TimeInterval::checked(lo, hi)
                    .ok_or_else(|| WwError::corrupt("chunk", "inverted leaf time range"))?,
            )
        } else {
            None
        };
        let bloom = if dec.get_u32()? == 1 {
            let first_word = bloom_words.len();
            let shape = BloomShape::decode_into(&mut dec, &mut bloom_words)?;
            Some(LeafBloom { shape, first_word })
        } else {
            None
        };
        let (measure_range, measure_sum) = match dec.get_u32()? {
            MEASURE_NONE => (None, None),
            MEASURE_BOUNDS => (Some((dec.get_u64()?, dec.get_u64()?)), None),
            MEASURE_LANDMARK => {
                let bounds = (dec.get_uvarint()?, dec.get_uvarint()?);
                let sum = dec.get_uvarint()? as u128 | (dec.get_uvarint()? as u128) << 64;
                (Some(bounds), Some(sum))
            }
            _ => return Err(WwError::corrupt("chunk", "bad leaf measure flag")),
        };
        if let Some((lo, hi)) = measure_range {
            if lo > hi {
                return Err(WwError::corrupt("chunk", "inverted leaf measure range"));
            }
            let n = entry_count as u128;
            if measure_sum.is_some_and(|sum| !(n * lo as u128..=n * hi as u128).contains(&sum)) {
                return Err(WwError::corrupt(
                    "chunk",
                    "leaf measure sum outside count × [min, max]",
                ));
            }
        }
        leaves.push(LeafMeta {
            count: entry_count,
            offset,
            len,
            time_range,
            bloom,
            measure_range,
            measure_sum,
        });
    }
    Ok(ChunkIndex {
        region,
        count,
        separators,
        leaves,
        file_len,
        template_len: data_start,
        bloom_words: bloom_words.into_boxed_slice(),
    })
}

/// Smallest possible leaf directory entry: 4-byte entry count, 8-byte
/// offset, 8-byte length, and the 4-byte time-range and bloom flags.
const MIN_LEAF_ENTRY_LEN: usize = 28;

/// Leaf measure flag: no measure recorded.
const MEASURE_NONE: u32 = 0;
/// Leaf measure flag: MIN and MAX as two fixed u64s. Still read (chunks
/// written before the SUM was recorded); no longer written.
const MEASURE_BOUNDS: u32 = 1;
/// Leaf measure flag: the landmark aggregate — MIN, MAX, then the SUM's
/// low and high 64 bits, all four as uvarints.
const MEASURE_LANDMARK: u32 = 2;

/// How many leading bytes to fetch when first touching a chunk. Large
/// enough to cover the header and typical index blocks in one access;
/// the reader falls back to a second ranged read for oversized indexes.
pub const INDEX_PREFETCH: usize = 64 * 1024;

/// How many trailing bytes to fetch when reading a chunk's aggregate
/// summary: covers the footer plus typical summary bodies in one access.
pub const SUMMARY_PREFETCH: usize = 64 * 1024;

/// Abstraction over ranged chunk reads, implemented by the simulated DFS.
///
/// Each call models one file access (and is charged the per-open latency by
/// the DFS layer underneath).
pub trait RangedRead {
    /// Reads `len` bytes at `offset`; short reads are errors.
    fn read_range(&self, offset: u64, len: u64) -> Result<Vec<u8>>;
    /// Total file length.
    fn len(&self) -> Result<u64>;
    /// Whether the file is empty.
    fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }
}

/// A chunk reader that performs selective leaf-page reads over any
/// [`RangedRead`] source, merging adjacent page fetches into single
/// accesses.
pub struct ChunkReader<R> {
    source: R,
}

impl<R: RangedRead> ChunkReader<R> {
    /// Wraps a ranged-read source.
    pub fn new(source: R) -> Self {
        Self { source }
    }

    /// Loads the chunk's index block (one access for typical chunks, two
    /// when the index outgrows [`INDEX_PREFETCH`]).
    pub fn load_index(&self) -> Result<Arc<ChunkIndex>> {
        let file_len = self.source.len()?;
        let first = self
            .source
            .read_range(0, (INDEX_PREFETCH as u64).min(file_len))?;
        if first.len() < HEADER_LEN {
            return Err(WwError::corrupt("chunk", "file shorter than header"));
        }
        // Peek at the index length to decide whether a second read is
        // needed; `parse_index` checks the rest of the header.
        let mut peek = Decoder::new(&first[INDEX_LEN_AT..], "chunk");
        let need = index_end(peek.get_u64()?, file_len)?;
        let prefix = if first.len() as u64 >= need {
            first
        } else {
            let mut full = first;
            let more = self
                .source
                .read_range(full.len() as u64, need - full.len() as u64)?;
            full.extend_from_slice(&more);
            full
        };
        Ok(Arc::new(parse_index(&prefix, file_len)?))
    }

    /// Reads the chunk's sealed aggregate summary, if one was written.
    ///
    /// Costs one ranged access for typical chunks: one tail fetch covers
    /// the footer and the summary body; leaf pages are never touched.
    /// Chunks written without a summary return `Ok(None)`; a footer that
    /// fails validation is `Corrupt`. The footer's magic and CRC prove the
    /// file, so the header is checked only when the tail fetch already
    /// holds it (small files) or to name the version of a file whose
    /// footer failed.
    pub fn read_summary(&self) -> Result<Option<WheelSummary>> {
        let file_len = self.source.len()?;
        let tail_len = (SUMMARY_PREFETCH as u64).min(file_len);
        let tail = self.source.read_range(file_len - tail_len, tail_len)?;
        if tail_len == file_len {
            check_header(&mut Decoder::new(&tail, "chunk"))?;
        }
        let footer = self.footer_in(file_len, &tail)?;
        if footer.summary_len == 0 {
            return Ok(None);
        }
        let body = self.summary_body(file_len, &tail, footer.summary_len)?;
        WheelSummary::decode(&body).map(Some)
    }

    /// Reads the footer: chunk-level MIN/MAX measure bounds and summary
    /// length, after checking the header's format version.
    pub fn read_footer(&self) -> Result<ChunkFooter> {
        let file_len = self.source.len()?;
        if file_len < HEADER_LEN as u64 {
            return Err(WwError::corrupt("chunk", "file shorter than header"));
        }
        check_header(&mut Decoder::new(&self.source.read_range(0, 12)?, "chunk"))?;
        let tail_len = (V2_FOOTER_LEN as u64).min(file_len);
        let tail = self.source.read_range(file_len - tail_len, tail_len)?;
        parse_footer(file_len, &tail)
    }

    /// Fetches the `summary_len` bytes that precede the footer, reusing the
    /// tail fetch when it covers them.
    fn summary_body(&self, file_len: u64, tail: &[u8], summary_len: u64) -> Result<Vec<u8>> {
        let total = summary_len
            .checked_add(V2_FOOTER_LEN as u64)
            .ok_or_else(|| WwError::corrupt("chunk", "summary length overflows"))?;
        if total <= tail.len() as u64 {
            Ok(tail[tail.len() - total as usize..tail.len() - V2_FOOTER_LEN].to_vec())
        } else {
            self.source.read_range(file_len - total, summary_len)
        }
    }

    /// Parses the footer at the end of a summary read's `tail`. When it
    /// fails, a header of another format version (a retired v1 chunk has no
    /// footer at all) is named as the reason instead.
    fn footer_in(&self, file_len: u64, tail: &[u8]) -> Result<ChunkFooter> {
        parse_footer(file_len, tail).map_err(|err| {
            self.source
                .read_range(0, 12)
                .ok()
                .and_then(|head| check_header(&mut Decoder::new(&head, "chunk")).err())
                .unwrap_or(err)
        })
    }

    /// Reads and decodes the leaf pages `lo..=hi` (inclusive), coalescing
    /// them into a single ranged access. Returns one tuple vector per leaf.
    pub fn read_leaves(&self, index: &ChunkIndex, lo: usize, hi: usize) -> Result<Vec<Vec<Tuple>>> {
        let (bytes, start) = self.fetch_page_run(index, lo, hi)?;
        let mut out = Vec::with_capacity(hi - lo + 1);
        // One scratch across the whole run: pages decoded back to back
        // reuse the same column buffers.
        let mut scratch = columnar::ScanScratch::new();
        for meta in &index.leaves[lo..=hi] {
            let page = page_slice(&bytes, start, meta)?;
            out.push(columnar::decode_leaf_with(page, meta.count, &mut scratch)?);
        }
        Ok(out)
    }

    /// Reads the raw (still-encoded) leaf pages `lo..=hi` in one coalesced
    /// access. Used by the query path, which caches the compact encoded
    /// images and late-materializes rows per subquery.
    pub fn read_leaf_pages(
        &self,
        index: &ChunkIndex,
        lo: usize,
        hi: usize,
    ) -> Result<Vec<Vec<u8>>> {
        let (bytes, start) = self.fetch_page_run(index, lo, hi)?;
        let mut out = Vec::with_capacity(hi - lo + 1);
        for meta in &index.leaves[lo..=hi] {
            out.push(page_slice(&bytes, start, meta)?.to_vec());
        }
        Ok(out)
    }

    fn fetch_page_run(&self, index: &ChunkIndex, lo: usize, hi: usize) -> Result<(Vec<u8>, u64)> {
        assert!(lo <= hi && hi < index.leaves.len());
        let start = index.leaves[lo].offset;
        // parse_index enforced in-order, non-overlapping, in-bounds pages,
        // but keep the arithmetic checked so a logic slip surfaces as a
        // typed error rather than a wrap.
        let end = index.leaves[hi]
            .offset
            .checked_add(index.leaves[hi].len)
            .ok_or_else(|| WwError::corrupt("chunk", "leaf page extent overflows"))?;
        let span = end
            .checked_sub(start)
            .ok_or_else(|| WwError::corrupt("chunk", "leaf pages regress"))?;
        let bytes = self.source.read_range(start, span)?;
        Ok((bytes, start))
    }
}

/// Validates the footer at the end of `tail`.
fn parse_footer(file_len: u64, tail: &[u8]) -> Result<ChunkFooter> {
    if file_len < (HEADER_LEN + V2_FOOTER_LEN) as u64 || tail.len() < V2_FOOTER_LEN {
        return Err(WwError::corrupt("chunk", "chunk shorter than footer"));
    }
    let footer = &tail[tail.len() - V2_FOOTER_LEN..];
    let mut dec = Decoder::new(footer, "chunk footer");
    let measure_flag = dec.get_u8()?;
    let lo = dec.get_u64()?;
    let hi = dec.get_u64()?;
    let summary_len = dec.get_u64()?;
    let crc = dec.get_u64()?;
    let magic = dec.get_u64()?;
    if magic != FOOTER_MAGIC {
        return Err(WwError::corrupt("chunk", "bad footer magic"));
    }
    if crc != codec::fnv1a(&footer[..V2_FOOTER_LEN - 16]) {
        return Err(WwError::corrupt("chunk", "footer checksum mismatch"));
    }
    let measure_range = match measure_flag {
        0 => None,
        1 if lo <= hi => Some((lo, hi)),
        _ => return Err(WwError::corrupt("chunk", "bad footer measure bounds")),
    };
    if summary_len
        .checked_add((HEADER_LEN + V2_FOOTER_LEN) as u64)
        .is_none_or(|total| total > file_len)
    {
        return Err(WwError::corrupt("chunk", "footer summary length invalid"));
    }
    Ok(ChunkFooter {
        measure_range,
        summary_len,
    })
}

/// Slices one leaf page out of a coalesced fetch starting at `start`.
fn page_slice<'a>(bytes: &'a [u8], start: u64, meta: &LeafMeta) -> Result<&'a [u8]> {
    let corrupt = || WwError::corrupt("chunk", "leaf page outside fetched range");
    let page_start = usize::try_from(meta.offset.checked_sub(start).ok_or_else(corrupt)?)
        .map_err(|_| corrupt())?;
    let page_end = page_start
        .checked_add(usize::try_from(meta.len).map_err(|_| corrupt())?)
        .ok_or_else(corrupt)?;
    bytes.get(page_start..page_end).ok_or_else(corrupt)
}

/// The chunk footer: chunk-level MIN/MAX measure bounds plus the length of
/// the trailing aggregate summary (zero when none was written).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkFooter {
    /// MIN/MAX of the registered measure over every tuple in the chunk;
    /// `None` when the chunk was written without a measure (or is empty).
    pub measure_range: Option<(u64, u64)>,
    /// Encoded byte length of the aggregate summary preceding the footer.
    pub summary_len: u64,
}

/// In-memory [`RangedRead`] over a byte buffer (tests and cached chunks).
impl RangedRead for &[u8] {
    fn read_range(&self, offset: u64, len: u64) -> Result<Vec<u8>> {
        usize::try_from(offset)
            .ok()
            .zip(usize::try_from(len).ok())
            .and_then(|(start, len)| self.get(start..start.checked_add(len)?))
            .map(<[u8]>::to_vec)
            .ok_or_else(|| WwError::corrupt("chunk", "read past end"))
    }

    fn len(&self) -> Result<u64> {
        Ok(<[u8]>::len(self) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waterwheel_core::Tuple;
    use waterwheel_index::{IndexConfig, TemplateBTree, TupleIndex};

    fn small_leaves() -> IndexConfig {
        IndexConfig {
            leaf_capacity: 16,
            fanout: 4,
            skew_check_interval: 64,
            ..IndexConfig::default()
        }
    }

    fn sealed_tree(n: u64) -> SealedTree {
        let tree = TemplateBTree::new(KeyInterval::full(), small_leaves());
        for i in 0..n {
            tree.insert(Tuple::new(i * 3, 1_000 + i, vec![(i % 251) as u8; 8]));
        }
        tree.seal().expect("non-empty tree")
    }

    /// A sealed tree from a seeded stream: colliding keys, out-of-order
    /// timestamps, payloads of varying length.
    fn seeded_tree(seed: u64, n: u64) -> SealedTree {
        let tree = TemplateBTree::new(KeyInterval::full(), small_leaves());
        let mut x = seed;
        let mut next = || {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            x >> 33
        };
        for _ in 0..n {
            let (key, ts, len) = (next() % 2_000, 1_000 + next() % 50_000, next() % 24);
            tree.insert(Tuple::new(key, ts, vec![(key % 7) as u8; len as usize]));
        }
        tree.seal().expect("non-empty tree")
    }

    /// The aggregate summary of a sealed tree, measured by payload length.
    fn summary_of(sealed: &SealedTree) -> WheelSummary {
        WheelSummary::build(
            sealed
                .leaves
                .iter()
                .flat_map(|l| l.entries.iter())
                .map(|t| (t.key, t.ts, t.payload.len() as u64)),
            4,
            usize::MAX,
        )
    }

    fn v2_opts() -> ChunkWriteOptions<'static> {
        ChunkWriteOptions {
            format_version: VERSION_V2,
            compression: true,
            measure: Some(&|t: &Tuple| t.payload.len() as u64),
        }
    }

    #[test]
    fn chunk_roundtrip_preserves_everything() {
        let sealed = sealed_tree(500);
        let expected: Vec<Tuple> = sealed.clone().into_tuples();
        let bytes = write_chunk(&sealed);
        let reader = ChunkReader::new(bytes.as_slice());
        let index = reader.load_index().unwrap();
        assert_eq!(index.count, 500);
        assert_eq!(index.region, sealed.region);
        assert_eq!(index.leaves.len(), sealed.leaves.len());
        let pages = reader
            .read_leaves(&index, 0, index.leaves.len() - 1)
            .unwrap();
        let got: Vec<Tuple> = pages.into_iter().flatten().collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn selective_leaf_reads_equal_full_reads() {
        let sealed = sealed_tree(400);
        let bytes = write_chunk(&sealed);
        let reader = ChunkReader::new(bytes.as_slice());
        let index = reader.load_index().unwrap();
        let keys = KeyInterval::new(100, 500);
        let (lo, hi) = index.leaf_range(&keys);
        assert!(hi < index.leaves.len());
        let selective: Vec<Tuple> = reader
            .read_leaves(&index, lo, hi)
            .unwrap()
            .into_iter()
            .flatten()
            .filter(|t| keys.contains(t.key))
            .collect();
        let full: Vec<Tuple> = reader
            .read_leaves(&index, 0, index.leaves.len() - 1)
            .unwrap()
            .into_iter()
            .flatten()
            .filter(|t| keys.contains(t.key))
            .collect();
        assert_eq!(selective, full);
        assert!(!selective.is_empty());
    }

    #[test]
    fn leaf_range_prunes_outside_keys() {
        let sealed = sealed_tree(400);
        let bytes = write_chunk(&sealed);
        let reader = ChunkReader::new(bytes.as_slice());
        let index = reader.load_index().unwrap();
        // A narrow key range should touch a strict subset of leaves.
        let (lo, hi) = index.leaf_range(&KeyInterval::new(0, 30));
        assert!(hi - lo + 1 < index.leaves.len());
    }

    #[test]
    fn temporal_pruning_via_bounds_and_bloom() {
        let sealed = sealed_tree(400);
        let bytes = write_chunk(&sealed);
        let reader = ChunkReader::new(bytes.as_slice());
        let index = reader.load_index().unwrap();
        // All tuples have ts ≥ 1000: every leaf prunable for times [0, 10].
        let early = TimeInterval::new(0, 10);
        for i in 0..index.leaves.len() {
            assert!(index.leaf_prunable(i, &early), "leaf {i} not pruned");
        }
        // And none prunable for the full range.
        let all = TimeInterval::full();
        assert!((0..index.leaves.len()).any(|i| !index.leaf_prunable(i, &all)));
    }

    #[test]
    fn corrupt_magic_and_checksum_detected() {
        let sealed = sealed_tree(50);
        let mut bytes = write_chunk(&sealed);
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        assert!(ChunkReader::new(bad_magic.as_slice()).load_index().is_err());
        // Flip a byte inside the index block.
        bytes[HEADER_LEN + 3] ^= 0xFF;
        let err = ChunkReader::new(bytes.as_slice()).load_index().unwrap_err();
        assert!(err.to_string().contains("checksum"));
    }

    #[test]
    fn truncated_file_detected() {
        let sealed = sealed_tree(50);
        let bytes = write_chunk(&sealed);
        let truncated = &bytes[..HEADER_LEN - 4];
        assert!(ChunkReader::new(truncated).load_index().is_err());
    }

    #[test]
    fn oversized_index_blocks_need_two_reads() {
        // Enough leaves that the index block exceeds INDEX_PREFETCH.
        let cfg = IndexConfig {
            leaf_capacity: 2,
            fanout: 4,
            skew_check_interval: 100,
            ..IndexConfig::default()
        };
        let tree = TemplateBTree::new(KeyInterval::full(), cfg);
        for i in 0..6_000u64 {
            tree.insert(Tuple::bare(i * 7, 1_000 + i));
        }
        let sealed = tree.seal().unwrap();
        let bytes = write_chunk(&sealed);
        let reader = ChunkReader::new(bytes.as_slice());
        let index = reader.load_index().unwrap();
        assert_eq!(index.count, 6_000);
        assert!(HEADER_LEN + 24 + index.approx_size() > INDEX_PREFETCH);
    }

    #[test]
    fn summary_footer_roundtrips_and_leaves_index_untouched() {
        let sealed = sealed_tree(500);
        let summary = summary_of(&sealed);
        assert!(!summary.is_empty());
        let plain = write_chunk(&sealed);
        let with = write_chunk_opts(&sealed, Some(&summary), &ChunkWriteOptions::default());
        // The summary sits between the leaf pages and the footer: everything
        // in front of it is byte-identical.
        let data_len = plain.len() - V2_FOOTER_LEN;
        assert_eq!(&with[..data_len], &plain[..data_len]);

        let reader = ChunkReader::new(with.as_slice());
        let index = reader.load_index().unwrap();
        assert_eq!(index.count, 500);
        let got = reader.read_summary().unwrap().expect("summary present");
        assert_eq!(got, summary);
        // Leaf pages still decode correctly in front of the summary.
        let pages = reader
            .read_leaves(&index, 0, index.leaves.len() - 1)
            .unwrap();
        assert_eq!(pages.iter().map(Vec::len).sum::<usize>(), 500);
    }

    #[test]
    fn chunks_without_summary_report_none() {
        let sealed = sealed_tree(50);
        let bytes = write_chunk(&sealed);
        let reader = ChunkReader::new(bytes.as_slice());
        assert!(reader.read_summary().unwrap().is_none());
    }

    #[test]
    fn corrupt_summary_is_an_error_not_a_wrong_answer() {
        let sealed = sealed_tree(50);
        let summary = summary_of(&sealed);
        let mut bytes = write_chunk_opts(&sealed, Some(&summary), &ChunkWriteOptions::default());
        // Flip a byte inside the summary body (just before the footer).
        let i = bytes.len() - V2_FOOTER_LEN - 9;
        bytes[i] ^= 0xFF;
        assert!(ChunkReader::new(bytes.as_slice()).read_summary().is_err());
    }

    #[test]
    fn v2_roundtrips_the_sealed_tree_exactly() {
        let sealed = sealed_tree(500);
        let expected: Vec<Tuple> = sealed.clone().into_tuples();
        for compression in [false, true] {
            let opts = ChunkWriteOptions {
                compression,
                ..v2_opts()
            };
            let bytes = write_chunk_opts(&sealed, None, &opts);
            let reader = ChunkReader::new(bytes.as_slice());
            let index = reader.load_index().unwrap();
            assert_eq!(index.count, 500);
            assert_eq!(index.separators, sealed.separators);
            let pages = reader
                .read_leaves(&index, 0, index.leaves.len() - 1)
                .unwrap();
            assert_eq!(pages.into_iter().flatten().collect::<Vec<_>>(), expected);
        }
    }

    /// The v2 bytes of a fixed seeded tree, with a summary and a measure,
    /// compressed and raw. Re-pinned when the leaf directory's measure
    /// entry became the landmark (flag 2) — the compressed image as it was
    /// before is `tests/fixtures/v2_measure_flag1.chunk` — and when the
    /// index block and the summary came to be summed with XXH64.
    #[test]
    fn v2_bytes_are_pinned() {
        let sealed = seeded_tree(23, 700);
        let summary = summary_of(&sealed);
        assert!(!summary.is_empty());
        for (compression, len, fnv) in [
            (false, 19_324, 0x36b3_ae8f_c68f_1153),
            (true, 13_896, 0x5a06_104d_e9f4_aceb),
        ] {
            let opts = ChunkWriteOptions {
                compression,
                ..v2_opts()
            };
            let bytes = write_chunk_opts(&sealed, Some(&summary), &opts);
            assert_eq!(bytes.len(), len, "compression={compression}");
            assert_eq!(codec::fnv1a(&bytes), fnv, "compression={compression}");
        }
    }

    #[test]
    fn v2_footer_carries_bounds_and_summary_length() {
        let sealed = sealed_tree(300);
        let summary = summary_of(&sealed);
        let bytes = write_chunk_opts(&sealed, Some(&summary), &v2_opts());
        let reader = ChunkReader::new(bytes.as_slice());
        let footer = reader.read_footer().unwrap();
        // Measure is payload length: sealed_tree writes 8-byte payloads.
        assert_eq!(footer.measure_range, Some((8, 8)));
        assert!(footer.summary_len > 0);
        assert_eq!(reader.read_summary().unwrap().unwrap(), summary);
        // Per-leaf bounds landed in the directory too.
        let index = reader.load_index().unwrap();
        assert!(index
            .leaves
            .iter()
            .filter(|l| l.count > 0)
            .all(|l| l.measure_range == Some((8, 8))));
    }

    #[test]
    fn the_directory_holds_each_leafs_landmark_aggregate() {
        let sealed = seeded_tree(5, 400);
        let bytes = write_chunk_opts(&sealed, None, &v2_opts());
        let index = ChunkReader::new(bytes.as_slice()).load_index().unwrap();
        let everything = Region::new(KeyInterval::full(), TimeInterval::full());
        for (i, leaf) in sealed.leaves.iter().enumerate() {
            let mut want = PartialAgg::empty();
            for t in &leaf.entries {
                want.insert(t.payload.len() as u64);
                assert!(index.leaf_keys(i).unwrap().contains(t.key));
            }
            let got = index.leaf_landmark_inside(i, &everything);
            assert_eq!(got, (!leaf.entries.is_empty()).then_some(want), "leaf {i}");
        }
        // A rectangle that cuts a leaf's keys or times merges nothing.
        let i = (0..sealed.leaves.len())
            .find(|&i| sealed.leaves[i].entries.len() > 1)
            .unwrap();
        let (keys, times) = (
            index.leaf_keys(i).unwrap(),
            index.leaves[i].time_range.unwrap(),
        );
        let cut_keys = Region::new(KeyInterval::new(keys.lo() + 1, keys.hi()), times);
        let cut_times = Region::new(keys, TimeInterval::new(times.lo() + 1, times.hi()));
        assert_eq!(index.leaf_landmark_inside(i, &cut_keys), None);
        assert_eq!(index.leaf_landmark_inside(i, &cut_times), None);
        assert!(index
            .leaf_landmark_inside(i, &Region::new(keys, times))
            .is_some());
        // Without a measure there is nothing to merge.
        let bare = write_chunk(&sealed);
        let index = ChunkReader::new(bare.as_slice()).load_index().unwrap();
        assert!(
            (0..index.leaves.len()).all(|i| index.leaf_landmark_inside(i, &everything).is_none())
        );
    }

    #[test]
    fn v2_without_summary_reports_none_not_corrupt() {
        let sealed = sealed_tree(100);
        let bytes = write_chunk_opts(&sealed, None, &v2_opts());
        assert!(ChunkReader::new(bytes.as_slice())
            .read_summary()
            .unwrap()
            .is_none());
    }

    #[test]
    fn v2_corrupt_footer_is_detected() {
        let sealed = sealed_tree(100);
        let bytes = write_chunk_opts(&sealed, None, &v2_opts());
        // Flip a byte inside the footer (the summary_len field): the CRC
        // must catch it.
        let mut bad = bytes.clone();
        let i = bad.len() - V2_FOOTER_LEN + 20;
        bad[i] ^= 0xFF;
        assert!(ChunkReader::new(bad.as_slice()).read_summary().is_err());
        // Truncating the footer is detected too.
        let cut = &bytes[..bytes.len() - 5];
        assert!(ChunkReader::new(cut).read_summary().is_err());
    }

    #[test]
    fn v1_chunks_are_refused_by_name_on_every_read_surface() {
        // The header is outside every checksum: a v2 image with its version
        // word set to 1 is what a retired row-format chunk looks like to
        // each reader until the leaf pages.
        let sealed = sealed_tree(300);
        let mut bytes = write_chunk_opts(&sealed, Some(&summary_of(&sealed)), &v2_opts());
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        let reader = ChunkReader::new(bytes.as_slice());
        let named = |what: &str, err: WwError| {
            assert!(matches!(err, WwError::Corrupt { .. }), "{what}: {err}");
            assert!(
                err.to_string()
                    .contains("unsupported chunk format version 1"),
                "{what}: {err}"
            );
        };
        named("load_index", reader.load_index().unwrap_err());
        named("read_summary", reader.read_summary().unwrap_err());
        named("read_footer", reader.read_footer().unwrap_err());
        // A real v1 file ends in leaf data or a summary trailer, not in a
        // footer: the failed footer check still names the version.
        let mut no_footer = bytes[..bytes.len() - V2_FOOTER_LEN].to_vec();
        no_footer.resize(SUMMARY_PREFETCH + 4_096, 0);
        named(
            "read_summary past the prefetch",
            ChunkReader::new(no_footer.as_slice())
                .read_summary()
                .unwrap_err(),
        );
    }

    #[test]
    fn forged_directory_extents_are_typed_errors() {
        // Rebuild a chunk whose directory claims an overflowing extent:
        // rel_offset near u64::MAX so offset+len wraps. parse_index must
        // reject it rather than let read_leaves wrap.
        let sealed = sealed_tree(50);
        let bytes = write_chunk(&sealed);
        let index_len = u64::from_le_bytes(bytes[28..36].try_into().unwrap()) as usize;
        // First leaf entry sits after sep_count + seps + leaf_count.
        let reader = ChunkReader::new(bytes.as_slice());
        let parsed = reader.load_index().unwrap();
        let entry_off = HEADER_LEN + 4 + parsed.separators.len() * 8 + 4;
        let mut bad = bytes.clone();
        bad[entry_off + 4..entry_off + 12].copy_from_slice(&(u64::MAX - 8).to_le_bytes());
        // Re-stamp the index checksum so only the extent is "corrupt".
        let csum = codec::checksum(&bad[HEADER_LEN..HEADER_LEN + index_len]);
        bad[36..44].copy_from_slice(&csum.to_le_bytes());
        let err = ChunkReader::new(bad.as_slice()).load_index().unwrap_err();
        assert!(matches!(err, WwError::Corrupt { .. }), "got {err}");
    }

    /// Flags word, index length and index checksum of a chunk image.
    const FLAGS_AT: std::ops::Range<usize> = 12..16;
    const CHECKSUM_AT: std::ops::Range<usize> = INDEX_LEN_AT + 8..INDEX_LEN_AT + 16;

    #[test]
    fn a_chunk_summed_with_fnv1a_reads_back_and_its_damage_is_refused() {
        // A chunk written before the XXH64 index checksum: flag bit clear,
        // index block summed with FNV-1a.
        let sealed = sealed_tree(300);
        let current = write_chunk_opts(&sealed, None, &v2_opts());
        let index_len = ChunkReader::new(current.as_slice())
            .load_index()
            .unwrap()
            .template_len as usize
            - HEADER_LEN;
        let mut legacy = current.clone();
        let flags = u32::from_le_bytes(legacy[FLAGS_AT].try_into().unwrap());
        assert_eq!(flags & FLAG_XXH64_INDEX, FLAG_XXH64_INDEX);
        legacy[FLAGS_AT].copy_from_slice(&(flags & !FLAG_XXH64_INDEX).to_le_bytes());
        let fnv = codec::fnv1a(&legacy[HEADER_LEN..HEADER_LEN + index_len]);
        legacy[CHECKSUM_AT].copy_from_slice(&fnv.to_le_bytes());
        let reader = ChunkReader::new(legacy.as_slice());
        let index = reader.load_index().unwrap();
        assert_eq!(index.count, 300);
        let pages = reader
            .read_leaves(&index, 0, index.leaves.len() - 1)
            .unwrap();
        let want: Vec<Tuple> = sealed.clone().into_tuples();
        assert_eq!(pages.into_iter().flatten().collect::<Vec<_>>(), want);
        // One flipped index byte is refused under either kernel.
        for image in [&legacy, &current] {
            let mut bad = image.clone();
            bad[HEADER_LEN + index_len / 2] ^= 0x10;
            let err = ChunkReader::new(bad.as_slice()).load_index().unwrap_err();
            assert!(err.to_string().contains("checksum"), "{err}");
        }
        // The marker bit picks the kernel: flipped, the sum is checked by
        // the other one and fails closed.
        for image in [&legacy, &current] {
            let mut flipped = image.clone();
            flipped[FLAGS_AT.start] ^= FLAG_XXH64_INDEX as u8;
            let err = ChunkReader::new(flipped.as_slice())
                .load_index()
                .unwrap_err();
            assert!(matches!(err, WwError::Corrupt { .. }), "{err}");
        }
    }

    #[test]
    fn slice_reads_past_the_end_are_errors_not_panics() {
        let bytes = b"0123456789".as_slice();
        assert_eq!(bytes.read_range(2, 3).unwrap(), b"234");
        assert_eq!(bytes.read_range(10, 0).unwrap(), b"");
        assert!(bytes.read_range(8, 10).is_err());
        assert!(bytes.read_range(u64::MAX, 2).is_err());
        assert!(bytes.read_range(2, u64::MAX).is_err());
    }

    #[test]
    fn forged_leaf_count_does_not_overallocate() {
        // A directory entry claiming u32::MAX tuples for a small page must
        // fail with a decode error after bounded allocation, not reserve
        // gigabytes. Drive the page decoder directly.
        let sealed = sealed_tree(50);
        let bytes = write_chunk(&sealed);
        let reader = ChunkReader::new(bytes.as_slice());
        let index = reader.load_index().unwrap();
        let meta = &index.leaves[0];
        let page = &bytes[meta.offset as usize..(meta.offset + meta.len) as usize];
        assert!(columnar::decode_leaf(page, u32::MAX).is_err());
    }

    #[test]
    fn empty_leaves_are_handled() {
        // Seal a tree whose template has many leaves but data in few.
        let cfg = IndexConfig {
            leaf_capacity: 4,
            fanout: 4,
            ..IndexConfig::default()
        };
        let tree =
            TemplateBTree::with_separators(KeyInterval::full(), cfg, vec![100, 200, 300, 400]);
        tree.insert(Tuple::bare(150, 1)); // only leaf 1 populated
        let sealed = tree.seal().unwrap();
        let bytes = write_chunk(&sealed);
        let reader = ChunkReader::new(bytes.as_slice());
        let index = reader.load_index().unwrap();
        assert_eq!(index.leaves.len(), 5);
        assert!(index.leaf_prunable(0, &TimeInterval::full()));
        assert!(!index.leaf_prunable(1, &TimeInterval::full()));
        let pages = reader.read_leaves(&index, 0, 4).unwrap();
        assert_eq!(pages.iter().map(Vec::len).sum::<usize>(), 1);
    }
}
