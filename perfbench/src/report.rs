//! What a run prints: a table for people, then one JSON object — the last
//! line of standard output — for the driver that reads `BENCHMARK.json`.

use std::fmt::Write as _;
use std::process::Command;

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value as measured, with all its digits.
    pub value: f64,
    /// Samples behind the value.
    pub samples: usize,
    /// Anything a reader must know to interpret it (empty when nothing).
    pub note: String,
}

/// Everything one run of one workload produced.
pub struct Outcome {
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Operations attempted (inserts + queries).
    pub attempted: u64,
    /// Operations that failed: refused, errored, answered wrongly, never
    /// became visible, or were left in an over-long backlog.
    pub failed: u64,
    /// Sizes and settings of this run, for the table.
    pub facts: Vec<(String, String)>,
}

impl Outcome {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Failed operations as a share of those attempted.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Host facts printed with every result: a number means nothing without
/// the core count and compiler behind it.
pub fn host() -> Vec<(String, String)> {
    vec![
        (
            "nproc".into(),
            std::thread::available_parallelism()
                .map_or_else(|_| "unknown".into(), |n| n.to_string()),
        ),
        ("rustc".into(), command_line("rustc", &["--version"])),
        (
            "git_sha".into(),
            command_line("git", &["rev-parse", "--short", "HEAD"]),
        ),
    ]
}

/// The table for people.
pub fn table(
    workload: &str,
    seed: u64,
    traced: bool,
    host: &[(String, String)],
    o: &Outcome,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "\n=== {workload} (seed {seed}, {}) ===",
        if traced {
            "per-layer trace"
        } else {
            "end to end, tracing off"
        }
    );
    for (k, v) in host.iter().chain(&o.facts) {
        let _ = writeln!(out, "  {k}: {v}");
    }
    let width = o.metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
    for m in &o.metrics {
        let _ = writeln!(
            out,
            "  {:<width$}  {:>16.4} {:<6} n={}{}{}",
            m.name,
            m.value,
            m.unit,
            m.samples,
            if m.note.is_empty() { "" } else { "  " },
            m.note,
        );
    }
    let _ = writeln!(
        out,
        "  error_rate: {}/{} = {:.6} ({})",
        o.failed,
        o.attempted,
        o.error_rate(),
        if o.correct() {
            "every check passed"
        } else {
            "FAILED"
        }
    );
    out
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number with every digit `f64` carries.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// The driver's result object: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct(),
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_json_has_the_four_keys_and_full_precision() {
        let o = Outcome {
            metrics: vec![Metric {
                name: "setup_s",
                unit: "s",
                value: 0.812_734_561,
                samples: 3,
                note: String::new(),
            }],
            attempted: 10,
            failed: 0,
            facts: vec![],
        };
        assert_eq!(
            result_json(&o),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.812734561, \"unit\": \"s\"}}}"
        );
        assert!(o.correct());
        assert_eq!(json_string("a\"b\n"), "\"a\\\"b\\u000a\"");
        assert_eq!(json_number(f64::NAN), "0.0");
        assert_eq!(json_number(3.0), "3.0");
    }
}
