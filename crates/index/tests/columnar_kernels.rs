//! Property-based oracle for the vectorized columnar scan kernels.
//!
//! The batched varint/delta kernels, selection-vector filtering, and the
//! [`DecodedLeaf`] cache representation must be observationally identical
//! to the scalar reference (`decode_leaf_scalar` / `scan_leaf_scalar`):
//! byte-identical tuples on valid leaves, and the same accept/reject
//! decision on corrupt or truncated ones.
//!
//! Same deterministic-generator idiom as `crates/storage/tests/
//! chunk_fuzz.rs`: proptest hands each case a seed and a SplitMix64 `Gen`
//! derives the leaf shape, the corruption sites, and the queried
//! intervals from it.

use proptest::prelude::*;
use waterwheel_core::{KeyInterval, TimeInterval, Tuple};
use waterwheel_index::columnar::{
    decode_leaf_scalar, decode_leaf_with, encode_leaf, scan_leaf_scalar, scan_leaf_with,
    DecodedLeaf, ScanScratch,
};
use waterwheel_workloads::{TDriveConfig, TDriveGen};

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

/// A random leaf honouring the encoder's contract (sorted by `(key, ts)`)
/// while steering into every encoding mode: dense vs dictionary keys,
/// smooth vs adversarial timestamps, uniform-stride vs ragged vs empty
/// payloads.
fn random_leaf(g: &mut Gen) -> Vec<Tuple> {
    let n = 1 + g.below(200) as usize;
    // Few distinct keys → dictionary mode; many → delta mode.
    let distinct_cap = if g.below(2) == 0 { 4 } else { 200 };
    let distinct = 1 + g.below(distinct_cap);
    // Timestamps: smooth walks exercise the delta-of-delta fast path,
    // full-range values exercise the wrapping arithmetic.
    let wild_ts = g.below(4) == 0;
    let stride = if g.below(2) == 0 {
        Some(g.below(24) as usize)
    } else {
        None
    };
    let mut key = g.below(1 << 40);
    let mut ts = g.below(1 << 40);
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        if g.below(distinct.max(2)) == 0 {
            key = key.saturating_add(1 + g.below(1 << 20));
        }
        ts = if wild_ts {
            g.next()
        } else {
            ts.wrapping_add(g.below(2_000))
        };
        let len = stride.unwrap_or(g.below(48) as usize);
        let payload: Vec<u8> = (0..len).map(|_| g.next() as u8).collect();
        out.push(Tuple::new(key, ts, payload));
    }
    out.sort_by_key(|t| (t.key, t.ts));
    out
}

/// A seed-chosen query window: sometimes full, sometimes empty, sometimes
/// a tight span around values that actually occur in the leaf.
fn random_window(g: &mut Gen, entries: &[Tuple]) -> (KeyInterval, TimeInterval) {
    let pick_key = |g: &mut Gen| entries[g.below(entries.len() as u64) as usize].key;
    let pick_ts = |g: &mut Gen| entries[g.below(entries.len() as u64) as usize].ts;
    let keys = match g.below(4) {
        0 => KeyInterval::full(),
        1 => {
            let k = pick_key(g);
            KeyInterval::new(k, k)
        }
        _ => {
            let (a, b) = (pick_key(g), pick_key(g));
            KeyInterval::new(a.min(b), a.max(b))
        }
    };
    let times = match g.below(4) {
        0 => TimeInterval::full(),
        1 => {
            let t = pick_ts(g);
            TimeInterval::new(t, t)
        }
        _ => {
            let (a, b) = (pick_ts(g), pick_ts(g));
            TimeInterval::new(a.min(b), a.max(b))
        }
    };
    (keys, times)
}

/// Asserts every decode/scan surface agrees with the scalar reference on
/// one (possibly corrupt) leaf image.
fn assert_paths_agree(
    g: &mut Gen,
    bytes: &[u8],
    expected: u32,
    entries: &[Tuple],
    scratch: &mut ScanScratch,
) -> Result<(), TestCaseError> {
    // Full decode: identical values, identical accept/reject decision.
    let scalar = decode_leaf_scalar(bytes, expected);
    let vectorized = decode_leaf_with(bytes, expected, scratch);
    prop_assert!(
        scalar.is_err() == vectorized.is_err(),
        "decode accept/reject diverged: scalar {scalar:?} vs vectorized {vectorized:?}"
    );
    if let (Ok(s), Ok(v)) = (&scalar, &vectorized) {
        prop_assert!(s == v, "decoded rows diverged: {s:?} vs {v:?}");
    }

    // Windowed scans, including through the DecodedLeaf cache form in both
    // its vectorized and scalar decode flavours.
    for _ in 0..3 {
        let (keys, times) = if entries.is_empty() {
            (KeyInterval::full(), TimeInterval::full())
        } else {
            random_window(g, entries)
        };
        let s = scan_leaf_scalar(bytes, expected, &keys, &times);
        let v = scan_leaf_with(bytes, expected, &keys, &times, true, scratch);
        prop_assert!(
            s.is_err() == v.is_err(),
            "scan accept/reject diverged: {s:?} vs {v:?}"
        );
        if let (Ok(s), Ok(v)) = (&s, &v) {
            prop_assert!(s == v, "scan results diverged: {s:?} vs {v:?}");
        }
        // DecodedLeaf defers payload validation to scan time (late
        // materialization), so its decode decision is compared across its
        // two flavours, and its scan decision against the scalar scan.
        let leaf_v = DecodedLeaf::decode(bytes, expected, true, scratch);
        let leaf_s = DecodedLeaf::decode(bytes, expected, false, scratch);
        prop_assert!(
            leaf_v.is_err() == leaf_s.is_err(),
            "DecodedLeaf decode flavours diverged"
        );
        for leaf in [&leaf_v, &leaf_s].into_iter().flatten() {
            let hits = leaf.scan(&keys, &times, scratch);
            prop_assert!(
                s.is_err() == hits.is_err(),
                "DecodedLeaf scan accept/reject diverged: {s:?} vs {hits:?}"
            );
            if let (Ok(s), Ok(hits)) = (&s, &hits) {
                prop_assert!(s == hits, "DecodedLeaf scan diverged: {s:?} vs {hits:?}");
            }
        }
    }
    Ok(())
}

/// Applies one of: byte flips, a truncation, or a random splice — always
/// at seed-chosen sites — so decode sees adversarial images.
fn corrupt(g: &mut Gen, bytes: &mut Vec<u8>) {
    match g.below(3) {
        0 => {
            for _ in 0..=g.below(8) {
                let i = g.below(bytes.len() as u64) as usize;
                bytes[i] ^= (1 + g.below(255)) as u8;
            }
        }
        1 => {
            bytes.truncate(g.below(bytes.len() as u64 + 1) as usize);
        }
        _ => {
            let start = g.below(bytes.len() as u64) as usize;
            let end = (start + 1 + g.below(32) as usize).min(bytes.len());
            for b in &mut bytes[start..end] {
                *b = g.next() as u8;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Valid leaves of every shape: vectorized ≡ scalar, byte for byte.
    #[test]
    fn kernels_match_scalar_on_random_leaves(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        let entries = random_leaf(&mut g);
        let mut scratch = ScanScratch::new();
        for compression in [false, true] {
            let bytes = encode_leaf(&entries, compression);
            assert_paths_agree(&mut g, &bytes, entries.len() as u32, &entries, &mut scratch)?;
        }
    }

    /// Corrupt and truncated leaves: both paths make the same
    /// accept/reject decision and never panic. (Messages may differ; the
    /// decision may not.)
    #[test]
    fn kernels_match_scalar_on_corrupt_leaves(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        let entries = random_leaf(&mut g);
        let mut bytes = encode_leaf(&entries, g.below(2) == 0);
        corrupt(&mut g, &mut bytes);
        let mut scratch = ScanScratch::new();
        // Lie about the count half the time, too.
        let expected = if g.below(2) == 0 {
            entries.len() as u32
        } else {
            g.below(300) as u32
        };
        assert_paths_agree(&mut g, &bytes, expected, &entries, &mut scratch)?;
    }
}

/// Selection-vector filtering over realistic data: leaves cut from a
/// T-Drive-like stream (z-order keys, near-monotonic timestamps, fixed
/// payload stride) answer windowed scans identically on both paths.
#[test]
fn tdrive_leaves_scan_identically() {
    let gen = TDriveGen::new(TDriveConfig {
        taxis: 64,
        seed: 0xB10C_5CA8,
        ..TDriveConfig::default()
    });
    let mut tuples: Vec<Tuple> = gen.take(4_096).collect();
    tuples.sort_by_key(|t| (t.key, t.ts));
    let mut g = Gen(0xD1C7);
    let mut scratch = ScanScratch::new();
    for (li, leaf) in tuples.chunks(64).enumerate() {
        for compression in [false, true] {
            let bytes = encode_leaf(leaf, compression);
            for _ in 0..4 {
                let (keys, times) = random_window(&mut g, leaf);
                let scalar = scan_leaf_scalar(&bytes, leaf.len() as u32, &keys, &times).unwrap();
                let fast =
                    scan_leaf_with(&bytes, leaf.len() as u32, &keys, &times, true, &mut scratch)
                        .unwrap();
                assert_eq!(scalar, fast, "leaf {li} diverged on {keys:?} {times:?}");
                let decoded =
                    DecodedLeaf::decode(&bytes, leaf.len() as u32, true, &mut scratch).unwrap();
                assert_eq!(
                    scalar,
                    decoded.scan(&keys, &times, &mut scratch).unwrap(),
                    "decoded leaf {li} diverged"
                );
            }
        }
    }
}
