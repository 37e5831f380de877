//! `BENCHMARK.json` and the binary must not drift apart: this runs every
//! workload in `--quick` mode, with tracing off and on, and compares the
//! workload names, metric names, units and counts it prints with the ones
//! the JSON file declares.

#[path = "support/json.rs"]
mod json;

use json::Json;
use std::path::PathBuf;
use std::process::Command;
use waterwheel_perfbench::{e2e, spec, trace};

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root"))
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Runs the binary as the driver would and returns the parsed last line.
fn run(workload: &str, trace: bool, data_dir: &std::path::Path) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "11", "--seconds", "0.3"])
        .args(["--trace", if trace { "1" } else { "0" }, "--quick"])
        .arg("--data-dir")
        .arg(data_dir)
        .output()
        .expect("perfbench runs");
    assert!(
        out.status.success(),
        "{workload} trace={trace}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    Json::parse(stdout.lines().last().expect("a result line"))
}

#[test]
fn benchmark_json_is_within_the_contract_limits() {
    let b = benchmark_json();
    assert_eq!(
        b.keys(),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let workloads = b.get("workloads").items();
    let end_to_end = b.get("end_to_end").items();
    let per_layer = b.get("per_layer").items();
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&end_to_end.len()));
    assert!((1..=128).contains(&per_layer.len()));
    let seconds = b.get("run_seconds").number();
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
    let mut names: Vec<&str> = Vec::new();
    for w in workloads {
        assert_eq!(w.keys(), ["name", "why"]);
        assert!(w.get("why").str().len() <= 200 && !w.get("why").str().contains('\n'));
        names.push(w.get("name").str());
    }
    for m in end_to_end {
        assert_eq!(m.keys(), ["name", "unit", "better", "bound"]);
        let bound = m.get("bound").number();
        assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
        names.push(m.get("name").str());
    }
    for m in per_layer {
        assert_eq!(m.keys(), ["name", "unit", "better"]);
        names.push(m.get("name").str());
    }
    for m in end_to_end.iter().chain(per_layer) {
        assert!(matches!(m.get("better").str(), "lower" | "higher"), "{m:?}");
        let unit = m.get("unit").str();
        assert!(
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "{m:?}"
        );
    }
    for (i, name) in names.iter().enumerate() {
        assert!(well_formed(name), "{name}");
        assert!(!names[..i].contains(name), "{name} is used twice");
    }
    let setup = end_to_end
        .iter()
        .find(|m| m.get("name").str() == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!(setup.get("unit").str(), "s");
    assert_eq!(setup.get("better").str(), "lower");
    // The whole suite must fit the driver's cap: 4 + 22 runs per workload,
    // each the timed section plus set-ups, warm passes and closing counts
    // (1 to 12 s by workload, 6 s on average on the reference host), plus
    // two builds of at most 5 minutes.
    let runs = 4.0 + 22.0 * workloads.len() as f64;
    assert!(runs * (seconds + 6.0) + 2.0 * 300.0 < 3_420.0);
}

#[test]
fn declared_names_and_units_equal_the_harness_tables() {
    let b = benchmark_json();
    let declared: Vec<(String, String)> = b
        .get("workloads")
        .items()
        .iter()
        .map(|w| {
            (
                w.get("name").str().to_string(),
                w.get("why").str().to_string(),
            )
        })
        .collect();
    let built: Vec<(String, String)> = spec::WORKLOADS
        .iter()
        .map(|w| (w.name.to_string(), w.why.to_string()))
        .collect();
    assert_eq!(declared, built);
    let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    let listed = |key: &str| -> Vec<(String, String)> {
        b.get(key)
            .items()
            .iter()
            .map(|m| {
                (
                    m.get("name").str().to_string(),
                    m.get("unit").str().to_string(),
                )
            })
            .collect()
    };
    assert_eq!(listed("end_to_end"), table(&e2e::END_TO_END));
    assert_eq!(listed("per_layer"), table(&trace::PER_LAYER));
}

#[test]
fn quick_runs_emit_exactly_the_declared_metrics() {
    let b = benchmark_json();
    let data_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("schema");
    for w in b.get("workloads").items() {
        let workload = w.get("name").str();
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let result = run(workload, trace, &data_dir);
            assert_eq!(result.keys(), ["correct", "attempted", "failed", "metrics"]);
            assert!(result.get("correct").bool(), "{workload} trace={trace}");
            assert!(result.get("attempted").number() >= 1.0);
            assert_eq!(result.get("failed").number(), 0.0);
            assert_eq!(
                result.get("metrics").units(),
                b.get(key).units(),
                "{workload} trace={trace}"
            );
            if !trace {
                for name in result.get("metrics").keys() {
                    let v = result.get("metrics").get(name).get("value").number();
                    assert!(v > 0.0, "{workload}: end-to-end metric {name} is {v}");
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&data_dir);
}
