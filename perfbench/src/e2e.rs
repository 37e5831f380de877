//! The end-to-end runs: what a user of the system would see. Tracing is
//! off here; [`crate::trace`] produces the per-layer numbers separately.
//!
//! Every workload has the same skeleton — set-up (generate the inputs,
//! build the system, balance the partitions, load what the workload needs),
//! a saturating stream of inserts, a paced stream of inserts, a stream of
//! checked queries, and a closing count of what is stored — so every
//! end-to-end metric is measured on every workload. What differs is the
//! data, the deployment, and which part is the timed section that repeats
//! until `--seconds` is spent.
//!
//! Visibility lag is only ever taken from a *paced* stream. Under a
//! saturating producer it measures the backlog, which is the difference of
//! two noisy rates; at a fixed sustainable rate it measures the pipeline.

use crate::drive::{self, IngestRun, QueryRun, StreamClock, VisiblePrefix};
use crate::inputs::{self, Dataset, Op};
use crate::report::{Metric, Outcome};
use crate::spec::{Main, Scale, Spec, SETUPS};
use crate::stats;
use crate::sut;
use std::path::Path;
use std::time::Instant;
use waterwheel_core::{Result, Tuple};
use waterwheel_server::Waterwheel;

/// The end-to-end metrics, in the order they print: `(name, unit)`. The
/// same list, with bounds, is in `BENCHMARK.json`; a test compares them.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("ingest_tuples_per_s", "1/s"),
    ("visibility_lag_ms_p50", "ms"),
    ("query_ms_p50", "ms"),
    ("query_ms_p90", "ms"),
    ("queries_per_s", "1/s"),
    ("agg_query_ms_p50", "ms"),
    ("bytes_per_tuple", "B"),
    ("peak_rss_mb", "MiB"),
];

/// Tuples per second the paced probe offers: the rate `mixed-fresh`
/// sustains, well under what either deployment ingests when saturated.
pub const PROBE_PER_S: u64 = 150_000;

/// Tuples one paced probe offers (0.3 s worth).
const PROBE_TUPLES: usize = 45_000;

/// Samples gathered across a run's rounds.
#[derive(Default)]
struct Samples {
    setup_s: Vec<f64>,
    ingest_per_s: Vec<f64>,
    lag_ms: Vec<f64>,
    range_ms: Vec<f64>,
    aggregate_ms: Vec<f64>,
    queries_per_s: Vec<f64>,
    bytes_per_tuple: Vec<f64>,
    /// Peak resident set of each round or set-up (the high-water mark is
    /// reset before each).
    section_rss_mb: Vec<f64>,
    /// Peak resident set of the timed section, where it is not made of
    /// rounds.
    main_rss_mb: Option<f64>,
    attempted: u64,
    failed: u64,
    checked: u64,
    timed_s: f64,
    facts: Vec<(String, String)>,
}

impl Samples {
    /// A producer run that only counts towards attempted/failed.
    fn counted(&mut self, run: &IngestRun) {
        self.attempted += run.attempted;
        self.failed += run.failed;
    }

    /// A saturating or paced producer run whose rate is a sample.
    fn rate(&mut self, run: &IngestRun) {
        self.counted(run);
        self.ingest_per_s
            .push((run.attempted - run.failed) as f64 / run.elapsed.as_secs_f64().max(1e-9));
    }

    /// A paced producer run whose visibility lags are samples.
    fn lags(&mut self, run: &IngestRun) {
        self.lag_ms.extend(run.observations.lags_ms());
    }

    /// A batch of queries whose latencies and rate are samples.
    fn queries(&mut self, run: QueryRun) {
        self.queries_per_s
            .push(run.attempted as f64 / run.elapsed.as_secs_f64().max(1e-9));
        self.range_ms.extend_from_slice(&run.range_ms);
        self.aggregate_ms.extend_from_slice(&run.aggregate_ms);
        self.untimed_queries(run);
    }

    /// A batch of queries that only counts towards attempted/failed.
    fn untimed_queries(&mut self, run: QueryRun) {
        self.attempted += run.attempted;
        self.failed += run.failed;
        self.checked += run.checked;
    }

    /// The closing count: everything sent must be queryable after a final
    /// drain, then everything is sealed so the stored bytes can be read.
    fn close(&mut self, ww: &Waterwheel, expected: usize) -> Result<()> {
        ww.stop_pumps();
        ww.drain()?;
        let visible = ww.total_visible();
        self.failed += visible.abs_diff(expected) as u64;
        ww.flush_all()?;
        self.bytes_per_tuple
            .push(sut::stored_bytes(ww)? as f64 / expected.max(1) as f64);
        Ok(())
    }

    fn fact(&mut self, key: &str, value: impl ToString) {
        self.facts.push((key.to_string(), value.to_string()));
    }

    /// Every raw sample behind the medians and percentiles, as JSON: what
    /// `--out` writes for an end-to-end run.
    fn to_json(&self) -> String {
        let list = |v: &[f64]| {
            let items: Vec<String> = v.iter().map(|x| format!("{x:?}")).collect();
            format!("[{}]", items.join(", "))
        };
        format!(
            "{{\n  \"setup_s\": {},\n  \"ingest_tuples_per_s\": {},\n  \"visibility_lag_ms\": {},\n  \
             \"query_ms\": {},\n  \"agg_query_ms\": {},\n  \"queries_per_s\": {},\n  \
             \"bytes_per_tuple\": {}\n}}\n",
            list(&self.setup_s),
            list(&self.ingest_per_s),
            list(&self.lag_ms),
            list(&self.range_ms),
            list(&self.aggregate_ms),
            list(&self.queries_per_s),
            list(&self.bytes_per_tuple),
        )
    }

    fn outcome(mut self) -> Outcome {
        // Tails are printed with the table but not gated: on this host a
        // ten-second run cannot hold a p99 within any bound the contract
        // allows (see the README). The traced run reports them per layer.
        for (name, samples) in [
            ("visibility_lag_ms", &self.lag_ms),
            ("query_ms", &self.range_ms),
        ] {
            let t = stats::tail(samples, 0.99);
            self.facts.push((
                format!("{name}_p{}", t.percentile * 100.0),
                format!("{:.4} (n={}, not gated)", t.value, t.samples),
            ));
        }
        let values = [
            (stats::median(&self.setup_s), self.setup_s.len()),
            (stats::median(&self.ingest_per_s), self.ingest_per_s.len()),
            (stats::median(&self.lag_ms), self.lag_ms.len()),
            (stats::median(&self.range_ms), self.range_ms.len()),
            (stats::quantile(&self.range_ms, 0.9), self.range_ms.len()),
            (stats::median(&self.queries_per_s), self.queries_per_s.len()),
            (stats::median(&self.aggregate_ms), self.aggregate_ms.len()),
            (
                stats::median(&self.bytes_per_tuple),
                self.bytes_per_tuple.len(),
            ),
            // The larger of a typical round or set-up and the timed
            // section: a maximum over every round would be an extreme
            // value, and as unsteady as one.
            (
                stats::median(&self.section_rss_mb).max(self.main_rss_mb.unwrap_or(0.0)),
                self.section_rss_mb.len() + usize::from(self.main_rss_mb.is_some()),
            ),
        ];
        let metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), (value, samples))| Metric {
                name,
                unit,
                value,
                samples,
                note: String::new(),
            })
            .collect();
        let mut facts = self.facts;
        facts.push(("timed_section_s".into(), format!("{:.3}", self.timed_s)));
        facts.push(("answers_checked".into(), self.checked.to_string()));
        Outcome {
            metrics,
            attempted: self.attempted,
            failed: self.failed,
            facts,
        }
    }
}

/// Inputs of one set-up.
pub struct Inputs {
    /// The stream.
    pub data: Dataset,
    /// The query operations.
    pub ops: Vec<Op>,
}

/// Generates `tuples` tuples and `ops` operations of `spec` from `seed`.
pub fn generate(spec: &Spec, tuples: usize, ops: usize, seed: u64) -> Inputs {
    let data = Dataset::generate(spec.dataset, tuples, spec.events_per_s, seed);
    let mut mix = spec.mix;
    mix.count = ops;
    let ops = inputs::ops(&data, &mix, seed);
    Inputs { data, ops }
}

/// Generates the inputs, builds the system, balances its partitions on
/// the first `warm` tuples and starts the background pumps.
fn set_up(
    spec: &Spec,
    root: &Path,
    tuples: usize,
    warm: usize,
    ops: usize,
    seed: u64,
) -> Result<(Inputs, Waterwheel)> {
    let inputs = generate(spec, tuples, ops, seed);
    let ww = sut::build(root, &spec.deployment)?;
    sut::warm_and_balance(&ww, &inputs.data.tuples[..warm])?;
    ww.start_pumps();
    Ok((inputs, ww))
}

/// The seed of round (or set-up) `i`: every round streams different tuples
/// and asks different queries, so a run's medians average over more inputs
/// than one seed's worth. SplitMix64 finalizer over `seed + i`.
pub fn round_seed(seed: u64, i: usize) -> u64 {
    let mut x = seed
        .wrapping_add(i as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A rate at this scale (`--quick` divides rates by ten, not fifty: the
/// pacing itself is part of what is exercised).
pub fn paced_rate(per_s: u64, scale: &Scale) -> usize {
    (per_s as usize / scale.shrink.min(10)).max(1_000)
}

/// Saturating stream, then paced probe, over `tuples[loaded..]`: the first
/// `saturating` tuples as fast as one thread can insert them, the rest at
/// `probe_rate` tuples per second. Pumps must be running.
pub fn stream_and_probe(
    ww: &Waterwheel,
    tuples: &[Tuple],
    loaded: usize,
    saturating: usize,
    probe_rate: f64,
) -> (IngestRun, IngestRun) {
    let servers = ww.indexing_servers();
    let stream = drive::ingest_closed(
        ww,
        &servers,
        &tuples[loaded..loaded + saturating],
        sut::visible(&servers),
    );
    let clock = StreamClock::default();
    let probe = drive::ingest_open(
        ww,
        &servers,
        &tuples[loaded + saturating..],
        sut::visible(&servers),
        probe_rate,
        &clock,
    );
    (stream, probe)
}

/// The timed section of `mixed-fresh`: this thread offers
/// `tuples[loaded..]` at `rate` tuples per second while one client queries
/// the newest data.
pub fn mixed_main(
    ww: &Waterwheel,
    tuples: &[Tuple],
    loaded: usize,
    ops: &[Op],
    rate: f64,
) -> (IngestRun, QueryRun) {
    let servers = ww.indexing_servers();
    let prefix = VisiblePrefix::new(ww, &servers, &tuples[loaded..]);
    let clock = StreamClock::default();
    let base = sut::visible(&servers);
    std::thread::scope(|scope| {
        let client =
            scope.spawn(|| drive::query_fresh(ww, &servers, tuples, loaded, ops, &prefix, &clock));
        let stream = drive::ingest_open(ww, &servers, &tuples[loaded..], base, rate, &clock);
        (stream, client.join().expect("query client panicked"))
    })
}

/// Runs `spec` end to end under `dir` and returns every end-to-end metric;
/// the raw samples behind them are written to `out` when given.
pub fn run(
    spec: &Spec,
    seed: u64,
    scale: Scale,
    dir: &Path,
    out: Option<&Path>,
) -> Result<Outcome> {
    let mut s = Samples::default();
    let warm = scale.of(spec.warm, 2_000);
    let n = scale.of(spec.tuples, 10_000);
    let n_ops = scale.of(spec.mix.count, 50);
    let probe_rate = paced_rate(PROBE_PER_S, &scale);
    let probe_n = scale.of(PROBE_TUPLES, 2_000);
    s.fact("closed_loop_query_clients", spec.clients);
    s.fact("warm_tuples", warm);
    match spec.main {
        Main::Ingest => {
            s.fact("saturating_tuples_per_round", n);
            s.fact(
                "paced_probe",
                format!("{probe_n} tuples at {probe_rate}/s per round"),
            );
            s.fact("read_back_ops_per_round", n_ops);
            let total = warm + n + probe_n;
            let rounds = scale.rounds(spec.round_s * n as f64 / spec.tuples as f64, SETUPS);
            for round in 0..rounds {
                sut::reset_peak_rss();
                let root = dir.join(format!("round-{round}"));
                let t0 = Instant::now();
                let (inputs, ww) =
                    set_up(spec, &root, total, warm, n_ops, round_seed(seed, round))?;
                s.setup_s.push(t0.elapsed().as_secs_f64());
                let tuples = &inputs.data.tuples;
                let (stream, probe) = stream_and_probe(&ww, tuples, warm, n, probe_rate as f64);
                // Joining the pumps also waits out a seal in progress, whose
                // tuples are in neither memory nor a registered chunk until
                // the chunk write returns; the read-back must not race it.
                ww.stop_pumps();
                let read_back = drive::replay(&ww, tuples, &inputs.ops, spec.clients);
                s.timed_s += (stream.elapsed + probe.elapsed + read_back.elapsed).as_secs_f64();
                s.rate(&stream);
                s.counted(&probe);
                s.lags(&probe);
                s.queries(read_back);
                s.close(&ww, total)?;
                s.section_rss_mb.push(sut::peak_rss_mb());
                drop(ww);
                let _ = std::fs::remove_dir_all(&root);
            }
            s.fact("rounds", rounds);
        }
        Main::Query { warm_pass } => {
            let total = warm + n + probe_n;
            s.fact("tuples_loaded", total);
            s.fact(
                "paced_probe",
                format!("{probe_n} tuples at {probe_rate}/s per set-up"),
            );
            s.fact("ops_per_pass", n_ops);
            // Every set-up is kept and queried: passes rotate over the
            // loaded systems, so a run's medians average over SETUPS
            // datasets instead of hanging on the last one's.
            let mut loaded = Vec::with_capacity(SETUPS);
            for i in 0..SETUPS {
                sut::reset_peak_rss();
                let root = dir.join(format!("setup-{i}"));
                let t0 = Instant::now();
                let (inputs, ww) = set_up(spec, &root, total, warm, n_ops, round_seed(seed, i))?;
                let (stream, probe) =
                    stream_and_probe(&ww, &inputs.data.tuples, warm, n, probe_rate as f64);
                s.rate(&stream);
                s.counted(&probe);
                s.lags(&probe);
                s.close(&ww, total)?;
                s.setup_s.push(t0.elapsed().as_secs_f64());
                s.section_rss_mb.push(sut::peak_rss_mb());
                loaded.push((inputs, ww));
            }
            s.fact("chunks_per_system", loaded[0].1.metadata().chunk_count());
            s.fact("stored_bytes_per_system", sut::stored_bytes(&loaded[0].1)?);
            sut::reset_peak_rss();
            if warm_pass {
                for (inputs, ww) in &loaded {
                    let pass = drive::replay(ww, &inputs.data.tuples, &inputs.ops, spec.clients);
                    s.untimed_queries(pass);
                }
            }
            let passes = scale.rounds(spec.round_s * n_ops as f64 / spec.mix.count as f64, 1);
            for pass_no in 0..passes {
                let (inputs, ww) = &loaded[pass_no % loaded.len()];
                // A warmed cache needs the same operations every pass; a
                // cold one is better served by fresh ones, so the run's
                // medians do not hang on one list's positions.
                let fresh;
                let ops = if warm_pass {
                    &inputs.ops
                } else {
                    let mut mix = spec.mix;
                    mix.count = n_ops;
                    fresh = inputs::ops(&inputs.data, &mix, round_seed(seed, SETUPS + pass_no));
                    &fresh
                };
                let pass = drive::replay(ww, &inputs.data.tuples, ops, spec.clients);
                s.timed_s += pass.elapsed.as_secs_f64();
                s.queries(pass);
            }
            s.main_rss_mb = Some(sut::peak_rss_mb());
            s.fact("passes", passes);
        }
        Main::Mixed { offered_per_s } => {
            let offered = paced_rate(offered_per_s, &scale);
            let streamed = (offered as f64 * scale.seconds) as usize;
            let loaded = warm + n;
            s.fact("tuples_loaded", loaded);
            s.fact("offered_tuples_per_s", offered);
            s.fact("producer", "open loop, 1 thread, 500 us ticks");
            let mut paced = *spec;
            paced.events_per_s = offered as u64;
            let mut kept = None;
            for i in 0..SETUPS {
                drop(kept.take());
                sut::reset_peak_rss();
                let root = dir.join(format!("setup-{i}"));
                let t0 = Instant::now();
                let (inputs, ww) = set_up(
                    &paced,
                    &root,
                    loaded + streamed,
                    warm,
                    n_ops,
                    round_seed(seed, i),
                )?;
                // History for the query windows to look back on, so the
                // timed section is stationary from its first second.
                let servers = ww.indexing_servers();
                let load = drive::ingest_closed(
                    &ww,
                    &servers,
                    &inputs.data.tuples[warm..loaded],
                    sut::visible(&servers),
                );
                s.counted(&load);
                s.setup_s.push(t0.elapsed().as_secs_f64());
                s.section_rss_mb.push(sut::peak_rss_mb());
                kept = Some((inputs, ww));
            }
            let (inputs, ww) = kept.as_ref().expect("SETUPS > 0");
            sut::reset_peak_rss();
            let (stream, queries) =
                mixed_main(ww, &inputs.data.tuples, loaded, &inputs.ops, offered as f64);
            s.timed_s += stream.elapsed.as_secs_f64();
            s.rate(&stream);
            s.lags(&stream);
            // A backlog of more than one second of offered load at the end
            // means the rate was not sustained: those tuples count failed.
            if stream.backlog_end > offered as u64 {
                s.failed += stream.backlog_end;
            }
            s.fact("backlog_tuples_max", stream.backlog_max);
            s.fact("backlog_tuples_end", stream.backlog_end);
            s.fact(
                "loadgen_late_ms_p99",
                format!("{:.3}", stats::tail(&stream.late_ms, 0.99).value),
            );
            s.fact("visibility_gaps", queries.visibility_gaps);
            s.queries(queries);
            s.close(ww, loaded + streamed)?;
            s.main_rss_mb = Some(sut::peak_rss_mb());
        }
    }
    if let Some(path) = out {
        std::fs::write(path, s.to_json())?;
    }
    Ok(s.outcome())
}
