//! Seeded inputs: tuples, query operations, and the reference answers.
//!
//! `--seed` is the only entropy source. The program under test receives
//! nothing but what this module generates, and every answer the harness
//! checks is recomputed here from the generated tuples alone.

use waterwheel_agg::PartialAgg;
use waterwheel_core::aggregate::AggregateQuery;
use waterwheel_core::{AggregateKind, KeyInterval, Query, TimeInterval, Timestamp, Tuple};
use waterwheel_workloads::{oracle, NetworkConfig, NetworkGen, Rng, TDriveConfig, TDriveGen};

/// Which of the paper's two datasets a workload streams.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DatasetKind {
    /// Taxi trajectories: z-ordered GPS keys spread over the whole key
    /// domain, 36-byte tuples.
    TDrive,
    /// Web-access log: IPv4 keys, Zipf-skewed subnets, 50-byte tuples.
    Network,
}

/// A generated stream, in arrival order. Timestamps never decrease (the
/// generators run without disorder), which is what lets [`time_slice`]
/// find a query's candidates by binary search.
pub struct Dataset {
    /// The tuples, in the order they are offered to the system.
    pub tuples: Vec<Tuple>,
    /// Every key of the stream, ascending: key ranges are cut from it.
    sorted_keys: Vec<u64>,
}

impl Dataset {
    /// Generates `n` tuples of `kind` at `events_per_s` tuples per second
    /// of event time.
    pub fn generate(kind: DatasetKind, n: usize, events_per_s: u64, seed: u64) -> Self {
        assert!(n > 0 && events_per_s > 0);
        let tuples: Vec<Tuple> = match kind {
            DatasetKind::TDrive => TDriveGen::new(TDriveConfig {
                // One report per taxi per second, so the fleet size is the
                // event rate.
                taxis: events_per_s as usize,
                seed,
                ..TDriveConfig::default()
            })
            .take(n)
            .collect(),
            DatasetKind::Network => NetworkGen::new(NetworkConfig {
                records_per_sec: events_per_s,
                seed,
                ..NetworkConfig::default()
            })
            .take(n)
            .collect(),
        };
        assert!(
            tuples.windows(2).all(|w| w[0].ts <= w[1].ts),
            "generators must emit non-decreasing timestamps"
        );
        let mut sorted_keys: Vec<u64> = tuples.iter().map(|t| t.key).collect();
        sorted_keys.sort_unstable();
        Self {
            tuples,
            sorted_keys,
        }
    }

    /// Event time of the first tuple.
    pub fn start_ms(&self) -> Timestamp {
        self.tuples[0].ts
    }

    /// Event time of the last tuple.
    pub fn end_ms(&self) -> Timestamp {
        self.tuples[self.tuples.len() - 1].ts
    }
}

/// The measure aggregate queries fold: the first four payload bytes (taxi
/// id / user id), little-endian.
pub fn measure(t: &Tuple) -> u64 {
    let mut b = [0u8; 4];
    let n = t.payload.len().min(4);
    b[..n].copy_from_slice(&t.payload[..n]);
    u64::from(u32::from_le_bytes(b))
}

/// What an operation asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// Return the matching tuples.
    Range,
    /// Fold the measure over the matching tuples.
    Aggregate(AggregateKind),
}

/// The temporal constraint of an operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Window {
    /// A fixed event-time interval (historic queries over loaded data).
    Fixed(TimeInterval),
    /// The most recent `ms` of event time, bound when the operation is
    /// issued (fresh-data queries beside a running stream).
    Recent {
        /// Window length in event-time milliseconds.
        ms: u64,
    },
}

/// One query operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    /// Key constraint.
    pub keys: KeyInterval,
    /// Time constraint.
    pub window: Window,
    /// Range or aggregate.
    pub kind: OpKind,
}

impl Op {
    /// The time interval this operation covers when issued at event time
    /// `now`.
    pub fn times(&self, now: Timestamp) -> TimeInterval {
        match self.window {
            Window::Fixed(t) => t,
            Window::Recent { ms } => TimeInterval::new(now.saturating_sub(ms), now),
        }
    }

    /// The range query over `times`.
    pub fn query(&self, times: TimeInterval) -> Query {
        Query::range(self.keys, times)
    }

    /// The aggregate query over `times` (the op must be an aggregate).
    pub fn aggregate(&self, times: TimeInterval) -> AggregateQuery {
        match self.kind {
            OpKind::Aggregate(kind) => self.query(times).aggregate(kind),
            OpKind::Range => panic!("range op has no aggregate form"),
        }
    }
}

/// The shape of a workload's operation list.
#[derive(Clone, Copy, Debug)]
pub struct OpMix {
    /// Operations to generate.
    pub count: usize,
    /// One operation in this many is an aggregate (0 = none).
    pub aggregate_every: usize,
    /// Key selectivities range queries cycle through.
    pub selectivities: &'static [f64],
    /// Key selectivity of aggregates.
    pub aggregate_selectivity: f64,
    /// Range-query windows, cycled: seconds of event time.
    pub range_windows_s: &'static [u64],
    /// Aggregate window in seconds of event time.
    pub aggregate_window_s: u64,
    /// `true`: windows are [`Window::Recent`]; `false`: fixed windows at
    /// random positions inside the dataset's lifetime.
    pub recent: bool,
}

/// A key interval holding the fraction `selectivity` of the stream's
/// tuples, at a random position in `sorted_keys` (every key of the stream,
/// ascending). Selectivity is a share of the *data*, not of the key
/// domain: the Network keys are Zipf-skewed, and a fixed share of their
/// hull holds anything from no tuple to most of them.
fn key_range(rng: &mut Rng, sorted_keys: &[u64], selectivity: f64) -> KeyInterval {
    let n = sorted_keys.len();
    let span = ((n as f64 * selectivity) as usize).clamp(1, n);
    let lo = rng.range_inclusive(0, (n - span) as u64) as usize;
    KeyInterval::new(sorted_keys[lo], sorted_keys[lo + span - 1])
}

/// Generates the operation list for `data` from `seed`.
pub fn ops(data: &Dataset, mix: &OpMix, seed: u64) -> Vec<Op> {
    let mut rng = Rng::new(seed ^ 0x51_7E_A5_0F);
    let (start, end) = (data.start_ms(), data.end_ms());
    let mut ranges = 0usize;
    let mut aggregates = 0usize;
    (0..mix.count)
        .map(|i| {
            let is_agg =
                mix.aggregate_every > 0 && i % mix.aggregate_every == mix.aggregate_every - 1;
            let (selectivity, window_s, kind) = if is_agg {
                aggregates += 1;
                let kind = if aggregates % 2 == 1 {
                    AggregateKind::Sum
                } else {
                    AggregateKind::Max
                };
                (
                    mix.aggregate_selectivity,
                    mix.aggregate_window_s,
                    OpKind::Aggregate(kind),
                )
            } else {
                ranges += 1;
                (
                    mix.selectivities[ranges % mix.selectivities.len()],
                    mix.range_windows_s[ranges % mix.range_windows_s.len()],
                    OpKind::Range,
                )
            };
            let keys = key_range(&mut rng, &data.sorted_keys, selectivity);
            let ms = window_s * 1_000;
            let window = if mix.recent {
                Window::Recent { ms }
            } else {
                let latest_lo = end.saturating_sub(ms).max(start);
                let lo = rng.range_inclusive(start, latest_lo);
                Window::Fixed(TimeInterval::new(lo, lo + ms))
            };
            Op { keys, window, kind }
        })
        .collect()
}

/// The contiguous run of `tuples` whose timestamps fall in `times`
/// (`tuples` is in non-decreasing timestamp order).
pub fn time_slice<'t>(tuples: &'t [Tuple], times: &TimeInterval) -> &'t [Tuple] {
    let lo = tuples.partition_point(|t| t.ts < times.lo());
    let hi = tuples.partition_point(|t| t.ts <= times.hi());
    &tuples[lo..hi]
}

/// Sort order shared by reference and system answers.
pub fn sort_answer(tuples: &mut [Tuple]) {
    tuples.sort_by(|a, b| (a.key, a.ts, &a.payload).cmp(&(b.key, b.ts, &b.payload)));
}

/// The exact answer to a range query over the first `visible` tuples.
pub fn expected_range(tuples: &[Tuple], keys: &KeyInterval, times: &TimeInterval) -> Vec<Tuple> {
    oracle(time_slice(tuples, times), keys, times)
}

/// The exact fold an aggregate query must return: a direct pass over the
/// generated tuples.
pub fn expected_aggregate(
    tuples: &[Tuple],
    keys: &KeyInterval,
    times: &TimeInterval,
) -> PartialAgg {
    let mut agg = PartialAgg::empty();
    for t in time_slice(tuples, times) {
        if keys.contains(t.key) {
            agg.insert(measure(t));
        }
    }
    agg
}

/// FNV-1a over the generated inputs: the determinism tests compare this
/// across runs and seeds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds a tuple stream in.
    pub fn tuples(&mut self, tuples: &[Tuple]) {
        for t in tuples {
            self.u64(t.key);
            self.u64(t.ts);
            self.u64(t.payload.len() as u64);
            self.bytes(&t.payload);
        }
    }

    /// Folds an operation list in.
    pub fn ops(&mut self, ops: &[Op]) {
        for op in ops {
            self.u64(op.keys.lo());
            self.u64(op.keys.hi());
            match op.window {
                Window::Fixed(t) => {
                    self.u64(0);
                    self.u64(t.lo());
                    self.u64(t.hi());
                }
                Window::Recent { ms } => {
                    self.u64(1);
                    self.u64(ms);
                }
            }
            self.u64(match op.kind {
                OpKind::Range => 0,
                OpKind::Aggregate(AggregateKind::Sum) => 1,
                OpKind::Aggregate(AggregateKind::Max) => 2,
                OpKind::Aggregate(_) => 3,
            });
        }
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: OpMix = OpMix {
        count: 40,
        aggregate_every: 5,
        selectivities: &[0.001, 0.01, 0.1],
        aggregate_selectivity: 0.1,
        range_windows_s: &[20],
        aggregate_window_s: 30,
        recent: false,
    };

    #[test]
    fn time_slice_matches_a_linear_filter() {
        let data = Dataset::generate(DatasetKind::TDrive, 5_000, 100, 7);
        let times = TimeInterval::new(data.start_ms() + 3_000, data.start_ms() + 9_000);
        let slice = time_slice(&data.tuples, &times);
        let linear = data.tuples.iter().filter(|t| times.contains(t.ts)).count();
        assert_eq!(slice.len(), linear);
        assert!(linear > 0);
        let keys = KeyInterval::full();
        assert_eq!(
            expected_range(&data.tuples, &keys, &times),
            oracle(&data.tuples, &keys, &times)
        );
        let agg = expected_aggregate(&data.tuples, &keys, &times);
        assert_eq!(agg.count as usize, linear);
    }

    #[test]
    fn op_mix_honours_counts_and_stays_inside_the_data() {
        let data = Dataset::generate(DatasetKind::Network, 20_000, 200, 3);
        let list = ops(&data, &MIX, 3);
        assert_eq!(list.len(), 40);
        let aggs = list
            .iter()
            .filter(|o| matches!(o.kind, OpKind::Aggregate(_)))
            .count();
        assert_eq!(aggs, 8);
        for op in &list {
            // A key range holds its share of the (skewed) stream's tuples,
            // within the slack duplicate keys at its ends allow.
            let held = data
                .tuples
                .iter()
                .filter(|t| op.keys.contains(t.key))
                .count();
            let want = match op.kind {
                OpKind::Aggregate(_) => 0.1,
                OpKind::Range => 0.001,
            };
            assert!(
                held as f64 >= data.tuples.len() as f64 * want * 0.9,
                "{held}"
            );
            assert!(held as f64 <= data.tuples.len() as f64 * 0.11, "{held}");
            let t = op.times(data.end_ms());
            assert!(t.lo() >= data.start_ms() && t.lo() <= data.end_ms());
        }
    }

    #[test]
    fn recent_windows_bind_at_issue_time() {
        let op = Op {
            keys: KeyInterval::full(),
            window: Window::Recent { ms: 5_000 },
            kind: OpKind::Range,
        };
        assert_eq!(op.times(60_000), TimeInterval::new(55_000, 60_000));
    }
}
