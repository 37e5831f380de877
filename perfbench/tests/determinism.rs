//! `--seed` is the only entropy source: the same seed must build the same
//! inputs, another seed other inputs, and a single-client traced run must
//! repeat its count-type layer metrics exactly.

#[path = "support/json.rs"]
mod json;

use json::Json;
use std::process::Command;
use waterwheel_perfbench::e2e;
use waterwheel_perfbench::inputs::Fnv;
use waterwheel_perfbench::spec::{Scale, WORKLOADS};

fn input_hash(workload: usize, seed: u64) -> u64 {
    let spec = &WORKLOADS[workload];
    let scale = Scale {
        seconds: 0.1,
        shrink: 50,
    };
    let inputs = e2e::generate(
        spec,
        scale.of(spec.warm, 2_000) + scale.of(spec.tuples, 10_000),
        scale.of(spec.mix.count, 50),
        seed,
    );
    let mut h = Fnv::default();
    h.tuples(&inputs.data.tuples);
    h.ops(&inputs.ops);
    h.finish()
}

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    for (w, spec) in WORKLOADS.iter().enumerate() {
        let a = input_hash(w, 42);
        assert_eq!(a, input_hash(w, 42), "{}", spec.name);
        assert_ne!(a, input_hash(w, 43), "{}", spec.name);
    }
    // Rounds of one run stream different inputs too.
    assert_ne!(e2e::round_seed(42, 0), e2e::round_seed(42, 1));
    assert_eq!(e2e::round_seed(42, 3), e2e::round_seed(42, 3));
}

fn traced_counts(workload: &str, tag: &str) -> Vec<(String, f64)> {
    let data_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("det-{tag}"));
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "0.3"])
        .args(["--trace", "1", "--quick", "--clients", "1", "--data-dir"])
        .arg(&data_dir)
        .output()
        .expect("perfbench runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_dir_all(&data_dir);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let result = Json::parse(stdout.lines().last().expect("a result line"));
    [
        "server.dispatcher.batches_sent",
        "server.indexing.flushes",
        "server.query_server.leaf_reads_per_query",
        "storage.chunk.bytes_per_tuple",
        "wal.bytes_per_tuple",
    ]
    .iter()
    .map(|name| {
        (
            name.to_string(),
            result.get("metrics").get(name).get("value").number(),
        )
    })
    .collect()
}

#[test]
fn single_client_count_metrics_repeat_exactly() {
    for workload in ["ingest-inproc", "ingest-tcp-durable"] {
        let first = traced_counts(workload, "a");
        let second = traced_counts(workload, "b");
        assert_eq!(first, second, "{workload}");
        // At `--quick` size the read-back may be served from memory alone,
        // so leaf reads can be zero; the other counts cannot.
        assert!(
            first
                .iter()
                .all(|(name, v)| *v > 0.0 || name.ends_with("leaf_reads_per_query")),
            "{first:?}"
        );
    }
}
