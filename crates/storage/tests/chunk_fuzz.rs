//! Corruption fuzzing for the chunk read path: arbitrary byte flips,
//! splices, and truncations of valid chunk images must never
//! panic or over-allocate — every read either succeeds or fails with a
//! typed [`WwError::Corrupt`]-class error.
//!
//! Same deterministic-generator idiom as `crates/net/tests/
//! reactor_framing.rs`: proptest hands each case a seed, a SplitMix64
//! `Gen` derives the chunk shape, the corruption sites, and the queried
//! intervals from it.

use proptest::prelude::*;
use waterwheel_agg::WheelSummary;
use waterwheel_core::{KeyInterval, Tuple, WwError};
use waterwheel_index::{IndexConfig, SealedTree, TemplateBTree, TupleIndex};
use waterwheel_storage::{ChunkReader, ChunkWriteOptions, VERSION_V2};

/// Deterministic per-case generator (SplitMix64).
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        waterwheel_core::mix64(self.0)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

fn sealed_tree(g: &mut Gen) -> SealedTree {
    let cfg = IndexConfig {
        leaf_capacity: 16,
        fanout: 4,
        skew_check_interval: 64,
        ..IndexConfig::default()
    };
    let tree = TemplateBTree::new(KeyInterval::full(), cfg);
    let n = 50 + g.below(300);
    for _ in 0..n {
        let len = g.below(24) as usize;
        let payload: Vec<u8> = (0..len).map(|_| g.next() as u8).collect();
        tree.insert(Tuple::new(g.below(10_000), g.below(100_000), payload));
    }
    tree.seal().expect("non-empty tree")
}

/// A valid chunk image whose compression, measure bounds, and summary
/// presence all vary with the seed.
fn valid_chunk(g: &mut Gen) -> Vec<u8> {
    let sealed = sealed_tree(g);
    let summary = if g.below(2) == 0 {
        let s = WheelSummary::build(
            sealed
                .leaves
                .iter()
                .flat_map(|l| l.entries.iter())
                .map(|t| (t.key, t.ts, t.payload.len() as u64)),
            4,
            256,
        );
        (!s.is_empty()).then_some(s)
    } else {
        None
    };
    let measure = |t: &Tuple| t.payload.len() as u64;
    waterwheel_storage::write_chunk_opts(
        &sealed,
        summary.as_ref(),
        &ChunkWriteOptions {
            format_version: VERSION_V2,
            compression: g.below(2) == 0,
            measure: (g.below(2) == 0).then_some(&measure as &(dyn Fn(&Tuple) -> u64 + Sync)),
        },
    )
}

/// Applies one of: byte flips, a truncation, a random splice, or a
/// hostile extension — always at seed-chosen sites.
fn corrupt(g: &mut Gen, bytes: &mut Vec<u8>) {
    match g.below(4) {
        0 => {
            // Flip 1..=8 bytes anywhere (header, directory, pages, footer).
            for _ in 0..=g.below(8) {
                let i = g.below(bytes.len() as u64) as usize;
                bytes[i] ^= (1 + g.below(255)) as u8;
            }
        }
        1 => {
            // Truncate to an arbitrary prefix (including zero).
            bytes.truncate(g.below(bytes.len() as u64 + 1) as usize);
        }
        2 => {
            // Splice a run of random bytes over a random window.
            let start = g.below(bytes.len() as u64) as usize;
            let end = (start + 1 + g.below(64) as usize).min(bytes.len());
            for b in &mut bytes[start..end] {
                *b = g.next() as u8;
            }
        }
        _ => {
            // Append garbage: trailing-length heuristics must not walk
            // off into it or allocate from it.
            let extra = 1 + g.below(512);
            for _ in 0..extra {
                bytes.push(g.next() as u8);
            }
        }
    }
}

/// Every error the corrupted read path may legally produce. Anything else
/// (or a panic, or an abort from an oversized allocation) fails the test.
fn is_typed_decode_error(e: &WwError) -> bool {
    matches!(e, WwError::Corrupt { .. })
}

/// Drives the full read surface over a (possibly corrupt) image.
fn exercise(g: &mut Gen, bytes: &[u8]) -> Result<(), TestCaseError> {
    let reader = ChunkReader::new(bytes);
    match reader.load_index() {
        Ok(index) => {
            if !index.leaves.is_empty() {
                let lo = g.below(index.leaves.len() as u64) as usize;
                let hi = lo + g.below((index.leaves.len() - lo) as u64) as usize;
                if let Err(e) = reader.read_leaves(&index, lo, hi) {
                    prop_assert!(is_typed_decode_error(&e), "read_leaves: {e}");
                }
                if let Err(e) = reader.read_leaf_pages(&index, lo, hi) {
                    prop_assert!(is_typed_decode_error(&e), "read_leaf_pages: {e}");
                }
            }
        }
        Err(e) => prop_assert!(is_typed_decode_error(&e), "load_index: {e}"),
    }
    if let Err(e) = reader.read_summary() {
        prop_assert!(is_typed_decode_error(&e), "read_summary: {e}");
    }
    if let Err(e) = reader.read_footer() {
        prop_assert!(is_typed_decode_error(&e), "read_footer: {e}");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Uncorrupted chunks of every shape decode fully — the harness's own
    /// sanity check, so corruption failures below can't hide a broken
    /// generator.
    #[test]
    fn valid_chunks_decode_cleanly(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        let bytes = valid_chunk(&mut g);
        let reader = ChunkReader::new(bytes.as_slice());
        let index = reader.load_index().unwrap();
        let n: usize = reader
            .read_leaves(&index, 0, index.leaves.len() - 1)
            .unwrap()
            .into_iter()
            .map(|p| p.len())
            .sum();
        prop_assert_eq!(n as u64, index.count);
        reader.read_summary().unwrap();
        reader.read_footer().unwrap();
    }

    /// Corrupted chunks never panic and never produce an untyped error.
    #[test]
    fn corrupted_chunks_fail_closed(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        let mut bytes = valid_chunk(&mut g);
        corrupt(&mut g, &mut bytes);
        exercise(&mut g, &bytes)?;
    }

    /// Pure garbage (no valid prefix at all) is rejected just as safely.
    #[test]
    fn random_bytes_fail_closed(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        let len = g.below(4_096) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| g.next() as u8).collect();
        exercise(&mut g, &bytes)?;
    }
}

/// Counts forged with the index checksum recomputed, so nothing but the
/// decoder's own bounds stands between the count and the allocation it
/// sizes: the separator count, and a leaf bloom's word count forged to
/// agree with its bit count. Each must come back `Corrupt` — not abort on a
/// 32 GiB reserve. (The leaf count is clamped the same way, but it has to
/// agree with a separator count whose separators are really there, so it
/// can amplify an allocation, never by itself exhaust memory.) The header's
/// index length is outside the checksum altogether: forged to overflow the
/// header offset, or to run past the file, it must be `Corrupt` too — not
/// an add overflow or a slice past the end.
#[test]
fn forged_counts_with_a_valid_checksum_fail_closed() {
    use waterwheel_core::codec::checksum;
    use waterwheel_storage::chunk::HEADER_LEN;
    const INDEX_LEN_AT: usize = 28;
    const CHECKSUM_AT: usize = 36;
    let put_u32 = |bytes: &mut [u8], at: usize, v: u32| {
        bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
    };
    let get_u32 =
        |bytes: &[u8], at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    let valid = waterwheel_storage::write_chunk(&sealed_tree(&mut Gen(7)));
    let index_len =
        u64::from_le_bytes(valid[INDEX_LEN_AT..INDEX_LEN_AT + 8].try_into().unwrap()) as usize;

    let mut forged_separators = valid.clone();
    put_u32(&mut forged_separators, HEADER_LEN, u32::MAX);

    // The first leaf's directory entry: count, offset, len, the time-range
    // flag and bounds, then the bloom flag and the filter (mini-range
    // width, bit count, hashes, word count, …).
    let separators = get_u32(&valid, HEADER_LEN) as usize;
    let first_leaf_at = HEADER_LEN + 4 + separators * 8 + 4;
    assert_eq!(get_u32(&valid, first_leaf_at + 20), 1, "has a time range");
    let bloom_at = first_leaf_at + 20 + 4 + 16 + 4;
    assert_eq!(get_u32(&valid, bloom_at - 4), 1, "has a bloom");
    let mut forged_bloom = valid.clone();
    forged_bloom[bloom_at + 8..bloom_at + 16]
        .copy_from_slice(&(u64::from(u32::MAX) * 64).to_le_bytes());
    put_u32(&mut forged_bloom, bloom_at + 20, u32::MAX);

    let forged_index_len = |len: u64| {
        let mut bytes = valid.clone();
        bytes[INDEX_LEN_AT..INDEX_LEN_AT + 8].copy_from_slice(&len.to_le_bytes());
        bytes
    };

    for (what, mut bytes) in [
        ("separator count", forged_separators),
        ("bloom word count", forged_bloom),
        ("index length u64::MAX", forged_index_len(u64::MAX)),
        (
            "index length wrapping the header",
            forged_index_len(u64::MAX - HEADER_LEN as u64 + 1),
        ),
        (
            "index length = file length",
            forged_index_len(valid.len() as u64),
        ),
    ] {
        let sum = checksum(&bytes[HEADER_LEN..HEADER_LEN + index_len]);
        bytes[CHECKSUM_AT..CHECKSUM_AT + 8].copy_from_slice(&sum.to_le_bytes());
        let err = ChunkReader::new(bytes.as_slice()).load_index().unwrap_err();
        assert!(is_typed_decode_error(&err), "{what}: {err}");
        assert!(!err.to_string().contains("checksum"), "{what}: {err}");
    }
}

/// A landmark directory entry (measure flag 2) rewritten under a valid
/// index checksum so that its bounds cross or its sum leaves
/// `[count·min, count·max]`: the reader must refuse it as a corrupt leaf
/// measure, because the query path merges that entry in place of the leaf.
#[test]
fn a_forged_leaf_landmark_fails_closed() {
    use waterwheel_core::codec::checksum;
    use waterwheel_storage::chunk::HEADER_LEN;
    const INDEX_LEN_AT: usize = 28;
    const CHECKSUM_AT: usize = 36;
    let get_u32 =
        |bytes: &[u8], at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    let tree = TemplateBTree::new(KeyInterval::full(), IndexConfig::default().without_bloom());
    for i in 0..100u64 {
        tree.insert(Tuple::bare(i * 7, 1_000 + i));
    }
    let one = |_: &Tuple| 1u64;
    let valid = waterwheel_storage::write_chunk_opts(
        &tree.seal().unwrap(),
        None,
        &ChunkWriteOptions {
            format_version: VERSION_V2,
            compression: false,
            measure: Some(&one),
        },
    );
    let index_len =
        u64::from_le_bytes(valid[INDEX_LEN_AT..INDEX_LEN_AT + 8].try_into().unwrap()) as usize;
    // The first leaf's entry: count, offset, len, the time-range flag and
    // bounds, the bloom flag, then the measure flag and its four varints —
    // min 1, max 1, the sum's low word (the count, under 128: one byte),
    // the high word 0.
    let separators = get_u32(&valid, HEADER_LEN) as usize;
    let first_leaf_at = HEADER_LEN + 4 + separators * 8 + 4;
    let count = get_u32(&valid, first_leaf_at);
    assert!((2..127).contains(&count), "{count}");
    let count = count as u8;
    let flag_at = first_leaf_at + 20 + 4 + 16 + 4;
    assert_eq!(get_u32(&valid, flag_at - 4), 0, "no bloom");
    assert_eq!(get_u32(&valid, flag_at), 2, "a landmark entry");
    let (min_at, sum_at) = (flag_at + 4, flag_at + 6);
    assert_eq!(valid[min_at..sum_at + 2], [1, 1, count, 0]);
    for (what, at, value) in [
        ("sum above count × max", sum_at, count + 1),
        ("sum below count × min", sum_at, count - 1),
        ("min above max", min_at, 2),
    ] {
        let mut bytes = valid.clone();
        bytes[at] = value;
        let sum = checksum(&bytes[HEADER_LEN..HEADER_LEN + index_len]);
        bytes[CHECKSUM_AT..CHECKSUM_AT + 8].copy_from_slice(&sum.to_le_bytes());
        let err = ChunkReader::new(bytes.as_slice()).load_index().unwrap_err();
        assert!(is_typed_decode_error(&err), "{what}: {err}");
        assert!(err.to_string().contains("leaf measure"), "{what}: {err}");
    }
}
