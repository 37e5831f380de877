//! Command line of the `perfbench` binary.

use crate::spec::{self, Scale, Spec};
use std::path::PathBuf;

/// Parsed arguments.
#[derive(Debug)]
pub struct Args {
    /// Workloads to run, in order (all five unless `--workload` names one).
    pub workloads: Vec<&'static Spec>,
    /// The only entropy source.
    pub seed: u64,
    /// `false`: end-to-end metrics, tracing off. `true`: per-layer trace.
    pub trace: bool,
    /// Timed-section length and size divisor.
    pub scale: Scale,
    /// Overrides every workload's closed-loop client count.
    pub clients: Option<usize>,
    /// Where the traced run writes its spans.
    pub out: Option<PathBuf>,
    /// Scratch directory for chunk files and logs; removed afterwards.
    pub data_dir: PathBuf,
}

/// The usage text.
pub const USAGE: &str = "usage: perfbench --seed <u64> [--workload <name>] [--seconds <n>] \
[--trace [0|1]] [--quick] [--clients <n>] [--out <file>] [--data-dir <dir>]";

fn value<'a>(flag: &str, it: &mut impl Iterator<Item = &'a String>) -> Result<&'a String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{flag}: cannot read {v:?} as a number"))
}

/// Parses `args` (without the program name).
pub fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut quick = false;
    let mut clients = None;
    let mut out = None;
    let mut data_dir = None;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => workload = Some(value(arg, &mut it)?.clone()),
            "--seed" => seed = Some(number::<u64>(arg, value(arg, &mut it)?)?),
            "--seconds" => seconds = Some(number::<f64>(arg, value(arg, &mut it)?)?),
            // Bare `--trace` switches tracing on; the driver passes 0 or 1.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                    trace = false;
                }
                Some("1") => {
                    it.next();
                    trace = true;
                }
                _ => trace = true,
            },
            "--quick" => quick = true,
            "--clients" => clients = Some(number::<usize>(arg, value(arg, &mut it)?)?),
            "--out" => out = Some(PathBuf::from(value(arg, &mut it)?)),
            "--data-dir" => data_dir = Some(PathBuf::from(value(arg, &mut it)?)),
            // `cargo bench` appends this to every harness-less target.
            "--bench" => {}
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workloads = match workload {
        Some(name) => vec![spec::find(&name).ok_or_else(|| {
            let known: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload {name:?}; known: {}", known.join(", "))
        })?],
        None => spec::WORKLOADS.iter().collect(),
    };
    let seconds = seconds.unwrap_or(if quick { 0.5 } else { 15.0 });
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    if clients == Some(0) {
        return Err("--clients must be at least 1".into());
    }
    Ok(Args {
        workloads,
        seed: seed.ok_or("--seed is required: it is the only entropy source")?,
        trace,
        scale: Scale {
            seconds,
            shrink: if quick { 50 } else { 1 },
        },
        clients,
        out,
        data_dir: data_dir.unwrap_or_else(|| PathBuf::from("perfbench/.data")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_form_parses() {
        let a = parse(&args(
            "--workload query-hot --seed 7 --seconds 10 --trace 0",
        ))
        .unwrap();
        assert_eq!(a.workloads.len(), 1);
        assert_eq!(a.workloads[0].name, "query-hot");
        assert_eq!((a.seed, a.trace, a.scale.seconds), (7, false, 10.0));
        let a = parse(&args("--seed 1 --trace 1 --quick")).unwrap();
        assert!(a.trace && a.scale.shrink == 50 && a.workloads.len() == 5);
        assert!(parse(&args("--seed 1 --trace --out x.json")).unwrap().trace);
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse(&args("--workload query-hot")).is_err());
        assert!(parse(&args("--seed 1 --workload nope")).is_err());
        assert!(parse(&args("--seed x")).is_err());
        assert!(parse(&args("--seed 1 --seconds 0")).is_err());
        assert!(parse(&args("--seed 1 --frobnicate")).is_err());
    }
}
