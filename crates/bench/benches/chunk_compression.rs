//! Chunk format v1 (row pages) vs v2 (columnar + compression): bytes per
//! tuple on disk and full-scan materialization rate, over the workloads
//! crate's default T-Drive stream.
//!
//! The v2 claim is a size one: delta-of-delta timestamps, dictionary/delta
//! keys, and (byte-shuffled) LZ payload blocks should cut the sealed-leaf
//! footprint to well under half of the row format without slowing the
//! read-back path beyond the decode cost the smaller reads buy back.
//!
//! A third row, `v2 hot`, measures the decoded-column cache tier: every
//! leaf's ts/key columns pre-decoded (as a query server caches them after
//! first touch), the timed pass running only selection + late payload
//! materialization. That is the steady-state scan rate repeat queries see,
//! and the rate the require-win gate holds against v1.
//!
//! Knobs:
//! * `WW_COLUMNAR_BENCH_N` — tuple count override (default `scaled(200_000)`).
//! * `WW_BENCH_REQUIRE_WIN=1` — exit non-zero unless v2 bytes/tuple is
//!   ≤ 0.6× of v1, the v2 hot scan rate is ≥ 1.0× of v1 (each scan rate the
//!   best of five timed repetitions), and all paths materialize the
//!   identical tuples (the CI smoke gate).
//!
//! Emits `BENCH_columnar.json` at the workspace root for tooling.

use waterwheel_bench::*;
use waterwheel_core::{KeyInterval, TimeInterval, Tuple};
use waterwheel_index::columnar::{DecodedLeaf, ScanScratch};
use waterwheel_index::{IndexConfig, TemplateBTree, TupleIndex};
use waterwheel_storage::{write_chunk_opts, ChunkReader, ChunkWriteOptions};

/// Tuples per sealed tree — roughly one flush interval's worth.
const CHUNK_TUPLES: usize = 16_384;

/// Times `scan` five times and keeps the fastest repetition: at the CI
/// smoke size one scan is a few milliseconds, and a single sample of each
/// side is at the mercy of the scheduler. Returns `(tuples, checksum)` of
/// the kept repetition with its duration.
fn best_of_five(mut scan: impl FnMut() -> (usize, u64)) -> ((usize, u64), std::time::Duration) {
    (0..5)
        .map(|_| time(&mut scan))
        .min_by_key(|&(_, elapsed)| elapsed)
        .expect("five repetitions")
}

struct FormatResult {
    bytes: u64,
    bytes_per_tuple: f64,
    write_secs: f64,
    scan_rate: f64,
}

/// Writes every sealed tree in `sealed` with `opts`, then reads every
/// chunk fully back (all leaf pages materialized to rows) and checksums
/// the tuples so the two formats can be compared for identical content.
fn run(
    sealed: &[waterwheel_index::SealedTree],
    n: usize,
    opts: &ChunkWriteOptions,
) -> (FormatResult, u64, Vec<Vec<u8>>) {
    let (chunks, write_elapsed) = time(|| {
        sealed
            .iter()
            .map(|s| write_chunk_opts(s, None, opts))
            .collect::<Vec<Vec<u8>>>()
    });
    let bytes: u64 = chunks.iter().map(|c| c.len() as u64).sum();

    let ((scanned, checksum), scan_elapsed) = best_of_five(|| {
        let (mut scanned, mut checksum) = (0usize, 0u64);
        for chunk in &chunks {
            let reader = ChunkReader::new(chunk.as_slice());
            let index = reader.load_index().unwrap();
            let pages = reader
                .read_leaves(&index, 0, index.leaves.len() - 1)
                .unwrap();
            for page in pages {
                for t in &page {
                    checksum = checksum
                        .wrapping_mul(0x100_0000_01b3)
                        .wrapping_add(t.key ^ t.ts ^ t.payload.len() as u64);
                }
                scanned += page.len();
            }
        }
        (scanned, checksum)
    });
    assert_eq!(scanned, n, "scan must materialize every written tuple");
    (
        FormatResult {
            bytes,
            bytes_per_tuple: bytes as f64 / n as f64,
            write_secs: write_elapsed.as_secs_f64(),
            scan_rate: throughput(scanned, scan_elapsed),
        },
        checksum,
        chunks,
    )
}

/// Hot-path scan over v2 chunks: pre-decodes every leaf into the
/// [`DecodedLeaf`] form the query servers cache, then times a full scan
/// (selection + payload materialization only, shared scratch).
fn run_hot(chunks: &[Vec<u8>], n: usize) -> (f64, u64) {
    let mut scratch = ScanScratch::new();
    let mut decoded: Vec<DecodedLeaf> = Vec::new();
    for chunk in chunks {
        let reader = ChunkReader::new(chunk.as_slice());
        let index = reader.load_index().unwrap();
        let pages = reader
            .read_leaf_pages(&index, 0, index.leaves.len() - 1)
            .unwrap();
        for (li, page) in pages.iter().enumerate() {
            decoded.push(
                DecodedLeaf::decode(page, index.leaves[li].count, true, &mut scratch).unwrap(),
            );
        }
    }

    let keys = KeyInterval::full();
    let times = TimeInterval::full();
    let ((scanned, checksum), scan_elapsed) = best_of_five(|| {
        let (mut scanned, mut checksum) = (0usize, 0u64);
        for leaf in &decoded {
            let hits = leaf.scan(&keys, &times, &mut scratch).unwrap();
            for t in &hits {
                checksum = checksum
                    .wrapping_mul(0x100_0000_01b3)
                    .wrapping_add(t.key ^ t.ts ^ t.payload.len() as u64);
            }
            scanned += hits.len();
        }
        (scanned, checksum)
    });
    assert_eq!(scanned, n, "hot scan must materialize every written tuple");
    (throughput(scanned, scan_elapsed), checksum)
}

fn main() {
    let n: usize = std::env::var("WW_COLUMNAR_BENCH_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| scaled(200_000));
    let tuples = tdrive_tuples(n, 42);

    // Seal the stream in flush-sized batches, exactly as the indexing
    // servers would before handing trees to the chunk writer.
    let cfg = IndexConfig {
        leaf_capacity: 64,
        fanout: 16,
        skew_check_interval: 64,
        ..IndexConfig::default()
    };
    let sealed: Vec<_> = tuples
        .chunks(CHUNK_TUPLES)
        .map(|batch| {
            let tree = TemplateBTree::new(KeyInterval::full(), cfg);
            for t in batch {
                tree.insert(t.clone());
            }
            tree.seal().expect("non-empty batch")
        })
        .collect();

    let measure = |t: &Tuple| t.payload.len() as u64;
    let (v1, v1_sum, _) = run(
        &sealed,
        n,
        &ChunkWriteOptions {
            format_version: 1,
            compression: false,
            measure: None,
        },
    );
    let (v2, v2_sum, v2_chunks) = run(
        &sealed,
        n,
        &ChunkWriteOptions {
            format_version: 2,
            compression: true,
            measure: Some(&measure),
        },
    );
    assert_eq!(v1_sum, v2_sum, "formats materialized different tuples");
    let (hot_rate, hot_sum) = run_hot(&v2_chunks, n);
    assert_eq!(v1_sum, hot_sum, "hot scan materialized different tuples");

    let ratio = v2.bytes_per_tuple / v1.bytes_per_tuple;
    let hot_ratio = hot_rate / v1.scan_rate;
    let row = |label: &str, r: &FormatResult| {
        vec![
            label.to_string(),
            r.bytes.to_string(),
            format!("{:.2}", r.bytes_per_tuple),
            format!("{:.3}s", r.write_secs),
            fmt_rate(r.scan_rate),
        ]
    };
    print_table(
        &format!(
            "Chunk format v1 vs v2 — T-Drive stream ({n} tuples, {} chunks)",
            sealed.len()
        ),
        &["format", "bytes", "bytes/tuple", "write", "scan rate"],
        &[
            row("v1 rows", &v1),
            row("v2 columnar", &v2),
            vec![
                "v2 hot (decoded cache)".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                fmt_rate(hot_rate),
            ],
        ],
    );
    println!("v2 size ratio: {ratio:.3}x of v1 (gate: <= 0.6)");
    println!("v2 hot scan:   {hot_ratio:.3}x of v1 scan rate (gate: >= 1.0)");

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"chunk_compression\",\n",
            "  \"tuples\": {n},\n",
            "  \"chunks\": {chunks},\n",
            "  \"v1\": {{ \"bytes\": {v1b}, \"bytes_per_tuple\": {v1bpt:.3}, ",
            "\"write_secs\": {v1w:.4}, \"scan_rate\": {v1s:.1} }},\n",
            "  \"v2\": {{ \"bytes\": {v2b}, \"bytes_per_tuple\": {v2bpt:.3}, ",
            "\"write_secs\": {v2w:.4}, \"scan_rate\": {v2s:.1} }},\n",
            "  \"v2_hot\": {{ \"scan_rate\": {hot:.1} }},\n",
            "  \"size_ratio\": {ratio:.4},\n",
            "  \"hot_scan_ratio\": {hot_ratio:.4}\n",
            "}}\n"
        ),
        n = n,
        chunks = sealed.len(),
        v1b = v1.bytes,
        v1bpt = v1.bytes_per_tuple,
        v1w = v1.write_secs,
        v1s = v1.scan_rate,
        v2b = v2.bytes,
        v2bpt = v2.bytes_per_tuple,
        v2w = v2.write_secs,
        v2s = v2.scan_rate,
        hot = hot_rate,
        ratio = ratio,
        hot_ratio = hot_ratio,
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_columnar.json");
    std::fs::write(out, json).unwrap();
    println!("wrote {out}");

    if std::env::var("WW_BENCH_REQUIRE_WIN").as_deref() == Ok("1") {
        if ratio > 0.6 {
            eprintln!(
                "FAIL: v2 bytes/tuple ({:.2}) above 0.6x of v1 ({:.2})",
                v2.bytes_per_tuple, v1.bytes_per_tuple
            );
            std::process::exit(1);
        }
        if hot_ratio < 1.0 {
            eprintln!(
                "FAIL: v2 hot scan rate ({}) below v1 ({})",
                fmt_rate(hot_rate),
                fmt_rate(v1.scan_rate)
            );
            std::process::exit(1);
        }
        println!("require-win gate passed");
    }
}
