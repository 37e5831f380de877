//! Load drivers: the saturating closed-loop producer, the paced open-loop
//! producer, and the closed-loop query clients. All run inside this one
//! process; at most two of them are runnable at once (the host has two
//! cores).

use crate::inputs::{self, Op, OpKind};
use crate::spec::CHECK_EVERY;
use crate::stats::Schedule;
use crate::sut;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use waterwheel_core::{TimeInterval, Tuple};
use waterwheel_server::{IndexingServer, Waterwheel};

/// The producer records one send in this many, and looks at the
/// visibility clock as often.
const SAMPLE_EVERY: usize = 256;

/// How long a driver waits for sent tuples to become visible before it
/// gives up and counts them failed.
const VISIBLE_LIMIT: Duration = Duration::from_secs(60);

/// What a producer saw: when sampled tuples were sent (or due) and when
/// the visibility clock passed each count. Both lists are in time order.
#[derive(Default)]
pub struct Observations {
    /// `(sequence number, nanoseconds)` of sampled sends.
    sent: Vec<(u64, u64)>,
    /// `(nanoseconds, tuples visible)` every time the producer looked.
    seen: Vec<(u64, u64)>,
}

impl Observations {
    /// Milliseconds from each sampled send until the visibility clock
    /// first read past its sequence number. Samples never seen visible
    /// are left out (the caller has already counted them failed).
    pub fn lags_ms(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.sent.len());
        let mut j = 0;
        for &(seq, at) in &self.sent {
            while j < self.seen.len() && self.seen[j].1 <= seq {
                j += 1;
            }
            let Some(&(seen_at, _)) = self.seen.get(j) else {
                break;
            };
            out.push(seen_at.saturating_sub(at) as f64 / 1e6);
        }
        out
    }
}

/// Outcome of one producer run.
pub struct IngestRun {
    /// First insert to last tuple visible.
    pub elapsed: Duration,
    /// Inserts attempted.
    pub attempted: u64,
    /// Inserts refused, errored, or never seen visible.
    pub failed: u64,
    /// Send and visibility samples.
    pub observations: Observations,
    /// Most tuples queued but not yet visible at any look.
    pub backlog_max: u64,
    /// Tuples queued but not yet visible when the last one was sent.
    pub backlog_end: u64,
    /// Milliseconds each sampled send left after its due time (open loop).
    pub late_ms: Vec<f64>,
}

/// What both producers do once the last tuple is sent: push out the
/// dispatchers' partial batches and watch the visibility clock until it has
/// counted every tuple that was accepted. Returns the backlog (accepted but
/// not yet visible) at the moment sending stopped; tuples still invisible
/// after [`VISIBLE_LIMIT`] are added to `failed`.
fn settle(
    ww: &Waterwheel,
    servers: &[Arc<IndexingServer>],
    base: u64,
    sent: u64,
    t0: Instant,
    failed: &mut u64,
    obs: &mut Observations,
) -> u64 {
    let backlog_end = sent.saturating_sub(sut::visible(servers) - base + *failed);
    if ww.flush_ingest_batches().is_err() {
        *failed += ww.pending_ingest();
    }
    let target = sent.saturating_sub(*failed);
    let deadline = Instant::now() + VISIBLE_LIMIT;
    loop {
        let seen = sut::visible(servers) - base;
        obs.seen.push((t0.elapsed().as_nanos() as u64, seen));
        if seen >= target {
            break;
        }
        if Instant::now() > deadline {
            *failed += target - seen;
            break;
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    backlog_end
}

/// Closed loop, saturating: one thread calls `insert` back to back, then
/// flushes the dispatcher batches and waits for the visibility clock to
/// reach the count sent. `base` is the clock's reading before the run.
pub fn ingest_closed(
    ww: &Waterwheel,
    servers: &[Arc<IndexingServer>],
    tuples: &[Tuple],
    base: u64,
) -> IngestRun {
    let mut obs = Observations::default();
    let mut failed = 0u64;
    let mut backlog_max = 0u64;
    let t0 = Instant::now();
    for (i, t) in tuples.iter().enumerate() {
        if i.is_multiple_of(SAMPLE_EVERY) {
            let seen = sut::visible(servers) - base;
            let now = t0.elapsed().as_nanos() as u64;
            obs.sent.push((i as u64, now));
            obs.seen.push((now, seen));
            backlog_max = backlog_max.max((i as u64).saturating_sub(seen));
        }
        if ww.insert(t.clone()).is_err() {
            failed += 1;
        }
    }
    let backlog_end = settle(
        ww,
        servers,
        base,
        tuples.len() as u64,
        t0,
        &mut failed,
        &mut obs,
    );
    IngestRun {
        elapsed: t0.elapsed(),
        attempted: tuples.len() as u64,
        failed,
        observations: obs,
        backlog_max: backlog_max.max(backlog_end),
        backlog_end,
        late_ms: Vec::new(),
    }
}

/// Shared between the open-loop producer and the query client beside it.
#[derive(Default)]
pub struct StreamClock {
    /// Tuples handed to `insert` so far.
    pub sent: AtomicU64,
    /// Set when the producer has sent its last tuple.
    pub done: AtomicBool,
}

/// Open loop: tuple `i` is due at `start + i / rate` regardless of how
/// the system is doing. The producer wakes every `TICK`, sends everything
/// that has come due, and looks at the visibility clock. Visibility lag is
/// timed from each tuple's due time.
pub fn ingest_open(
    ww: &Waterwheel,
    servers: &[Arc<IndexingServer>],
    tuples: &[Tuple],
    base: u64,
    rate: f64,
    clock: &StreamClock,
) -> IngestRun {
    const TICK: Duration = Duration::from_micros(500);
    let mut obs = Observations::default();
    let mut late_ms = Vec::new();
    let mut failed = 0u64;
    let mut backlog_max = 0u64;
    let total = tuples.len() as u64;
    let t0 = Instant::now();
    let schedule = Schedule::new(t0, rate);
    let since = |at: Instant| at.duration_since(t0).as_nanos() as u64;
    let mut sent = 0u64;
    while sent < total {
        let now = Instant::now();
        let due = schedule.due_count(now).min(total);
        for i in sent..due {
            if (i as usize).is_multiple_of(SAMPLE_EVERY) {
                obs.sent.push((i, since(schedule.due(i))));
                late_ms.push(schedule.lateness(i, Instant::now()).as_secs_f64() * 1e3);
            }
            if ww.insert(tuples[i as usize].clone()).is_err() {
                failed += 1;
            }
        }
        sent = due;
        clock.sent.store(sent, Ordering::Release);
        let seen = sut::visible(servers) - base;
        obs.seen.push((since(Instant::now()), seen));
        backlog_max = backlog_max.max(sent.saturating_sub(seen));
        if sent < total {
            let next = schedule.due(sent).max(now + TICK);
            std::thread::sleep(next.saturating_duration_since(Instant::now()));
        }
    }
    let sending = t0.elapsed();
    clock.done.store(true, Ordering::Release);
    let backlog_end = settle(ww, servers, base, total, t0, &mut failed, &mut obs);
    IngestRun {
        elapsed: sending,
        attempted: total,
        failed,
        observations: obs,
        backlog_max,
        backlog_end,
        late_ms,
    }
}

/// Outcome of a batch of query operations.
#[derive(Default)]
pub struct QueryRun {
    /// Latency of each range query, milliseconds.
    pub range_ms: Vec<f64>,
    /// Latency of each aggregate query, milliseconds.
    pub aggregate_ms: Vec<f64>,
    /// Operations issued.
    pub attempted: u64,
    /// Operations that errored or answered wrongly.
    pub failed: u64,
    /// Answers compared with the reference.
    pub checked: u64,
    /// Tuples returned by range queries.
    pub rows: u64,
    /// Checked fresh-data answers that came back short and were exact
    /// when asked again (see [`query_fresh`]).
    pub visibility_gaps: u64,
    /// Wall time of the batch.
    pub elapsed: Duration,
}

impl QueryRun {
    /// Folds another client's (or pass's) outcome in; wall time is the
    /// longest, since clients run side by side.
    pub fn absorb(&mut self, other: QueryRun) {
        self.range_ms.extend(other.range_ms);
        self.aggregate_ms.extend(other.aggregate_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.checked += other.checked;
        self.rows += other.rows;
        self.visibility_gaps += other.visibility_gaps;
        self.elapsed = self.elapsed.max(other.elapsed);
    }
}

/// How a checked answer compares with the reference.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Byte for byte the reference answer.
    Exact,
    /// Nothing wrong in it, but tuples the reference has are missing.
    Short,
    /// Holds something the reference does not, or the operation errored.
    Wrong,
}

/// Whether sorted `got` is a sub-multiset of sorted `want`.
fn is_subset(got: &[Tuple], want: &[Tuple]) -> bool {
    let mut rest = want.iter();
    got.iter().all(|g| rest.any(|w| w == g))
}

/// Issues `op` over `times` and records its latency in `run`. When
/// `reference` is given the answer is compared with the reference computed
/// over those tuples; otherwise any answer is [`Verdict::Exact`].
fn execute(
    ww: &Waterwheel,
    op: &Op,
    times: TimeInterval,
    reference: Option<&[Tuple]>,
    run: &mut QueryRun,
) -> Verdict {
    let t0 = Instant::now();
    match op.kind {
        OpKind::Range => {
            let answer = ww.query(&op.query(times));
            run.range_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let Ok(mut r) = answer else {
                return Verdict::Wrong;
            };
            run.rows += r.tuples.len() as u64;
            let Some(tuples) = reference else {
                return Verdict::Exact;
            };
            inputs::sort_answer(&mut r.tuples);
            let want = inputs::expected_range(tuples, &op.keys, &times);
            if r.tuples == want {
                Verdict::Exact
            } else if is_subset(&r.tuples, &want) {
                Verdict::Short
            } else {
                Verdict::Wrong
            }
        }
        OpKind::Aggregate(_) => {
            let answer = ww.aggregate(&op.aggregate(times));
            run.aggregate_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let Ok(a) = answer else {
                return Verdict::Wrong;
            };
            let Some(tuples) = reference else {
                return Verdict::Exact;
            };
            let want = inputs::expected_aggregate(tuples, &op.keys, &times);
            if a.agg == want {
                Verdict::Exact
            } else if a.agg.count < want.count && a.agg.sum <= want.sum {
                Verdict::Short
            } else {
                Verdict::Wrong
            }
        }
    }
}

/// Issues `op` over `times`, records its latency, and counts it failed
/// unless it answered — and, when `reference` is given, answered exactly
/// the reference computed over those tuples, byte for byte.
pub fn issue(
    ww: &Waterwheel,
    op: &Op,
    times: TimeInterval,
    reference: Option<&[Tuple]>,
    run: &mut QueryRun,
) {
    run.attempted += 1;
    run.checked += u64::from(reference.is_some());
    if execute(ww, op, times, reference, run) != Verdict::Exact {
        run.failed += 1;
    }
}

/// Closed loop over loaded data: `clients` threads replay `ops` once,
/// client `c` taking operations `c, c + clients, …`; each sends its next
/// operation when the previous one has answered. One operation in
/// [`CHECK_EVERY`] is checked against `tuples`, all of which are visible.
pub fn replay(ww: &Waterwheel, tuples: &[Tuple], ops: &[Op], clients: usize) -> QueryRun {
    let now = tuples[tuples.len() - 1].ts;
    let t0 = Instant::now();
    let mut total = QueryRun::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut run = QueryRun::default();
                    for (i, op) in ops.iter().enumerate().skip(c).step_by(clients) {
                        let reference = i.is_multiple_of(CHECK_EVERY).then_some(tuples);
                        issue(ww, op, op.times(now), reference, &mut run);
                    }
                    run
                })
            })
            .collect();
        for h in handles {
            total.absorb(h.join().expect("query client panicked"));
        }
    });
    total.elapsed = t0.elapsed();
    total
}

/// For the fresh-data client: how much of the stream is certainly
/// visible. Partition `p`'s queue holds its tuples in send order except
/// that the two dispatchers' batches interleave, so a tuple's queue rank
/// differs from its rank in the stream by less than two batches.
pub struct VisiblePrefix {
    /// `ranks[p][k]`: stream position of partition `p`'s `k`-th tuple.
    ranks: Vec<Vec<u32>>,
    /// Visibility-clock reading of each partition before the stream.
    base: Vec<u64>,
    slack: u64,
}

impl VisiblePrefix {
    /// Routes `tuples` with the system's current partition schema.
    pub fn new(ww: &Waterwheel, servers: &[Arc<IndexingServer>], tuples: &[Tuple]) -> Self {
        let schema = ww
            .metadata()
            .partition()
            .expect("a built system has a partition schema");
        let mut ranks = vec![Vec::new(); servers.len()];
        for (i, t) in tuples.iter().enumerate() {
            let owner = schema.route(t.key);
            let p = servers
                .iter()
                .position(|s| s.id() == owner)
                .expect("schema routes to a known indexing server");
            ranks[p].push(i as u32);
        }
        let cfg = ww.config();
        Self {
            ranks,
            base: servers
                .iter()
                .map(|s| sut::visible(std::slice::from_ref(s)))
                .collect(),
            slack: (cfg.dispatchers * cfg.ingest_batch_size) as u64,
        }
    }

    /// A stream position below which every tuple is visible right now.
    pub fn len(&self, servers: &[Arc<IndexingServer>]) -> usize {
        self.ranks
            .iter()
            .zip(servers)
            .zip(&self.base)
            .map(|((ranks, server), base)| {
                let seen = sut::visible(std::slice::from_ref(server)) - base;
                let safe = seen.saturating_sub(self.slack) as usize;
                ranks.get(safe).map_or(usize::MAX, |&r| r as usize)
            })
            .min()
            .unwrap_or(0)
    }
}

/// Closed-loop client beside the open-loop producer: cycles through `ops`
/// until the producer is done. `tuples` is the whole dataset, of which the
/// first `warm` were loaded during set-up and the rest are being streamed.
/// Windows end at the newest tuple sent. A checked operation instead ends
/// just below the newest timestamp that is certainly visible, so its
/// answer has one exact value.
///
/// An indexing server that seals its tree takes the tuples out of memory
/// before the chunk that holds them is registered, so for the length of
/// one chunk write a query can miss tuples that were visible a moment
/// earlier. A checked answer that is short but otherwise right is asked
/// again until the chunk has landed; it counts as a visibility gap, not as
/// a failure, and only its first attempt is timed. An answer that holds
/// anything the reference does not, or that stays short, fails.
pub fn query_fresh(
    ww: &Waterwheel,
    servers: &[Arc<IndexingServer>],
    tuples: &[Tuple],
    warm: usize,
    ops: &[Op],
    prefix: &VisiblePrefix,
    clock: &StreamClock,
) -> QueryRun {
    const RETRIES: usize = 20;
    const RETRY_PAUSE: Duration = Duration::from_millis(25);
    let mut run = QueryRun::default();
    let t0 = Instant::now();
    let mut i = 0usize;
    while !clock.done.load(Ordering::Acquire) {
        let sent = warm + clock.sent.load(Ordering::Acquire) as usize;
        let op = &ops[i % ops.len()];
        let checked = i.is_multiple_of(CHECK_EVERY);
        i += 1;
        if !checked {
            issue(ww, op, op.times(tuples[sent - 1].ts), None, &mut run);
            continue;
        }
        let safe = warm + prefix.len(servers).min(tuples.len() - warm);
        // Strictly below the newest certainly-visible timestamp: later
        // tuples may share that millisecond.
        let Some(now) = safe
            .checked_sub(1)
            .and_then(|last| tuples[last].ts.checked_sub(1))
        else {
            continue;
        };
        let times = op.times(now);
        run.attempted += 1;
        run.checked += 1;
        let mut verdict = execute(ww, op, times, Some(tuples), &mut run);
        if verdict == Verdict::Short {
            run.visibility_gaps += 1;
            let mut untimed = QueryRun::default();
            for _ in 0..RETRIES {
                std::thread::sleep(RETRY_PAUSE);
                verdict = execute(ww, op, times, Some(tuples), &mut untimed);
                if verdict != Verdict::Short {
                    break;
                }
            }
        }
        if verdict != Verdict::Exact {
            run.failed += 1;
        }
    }
    run.elapsed = t0.elapsed();
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lag_is_time_until_the_clock_passes_the_sequence_number() {
        let obs = Observations {
            sent: vec![(0, 100), (256, 1_000_000), (512, 2_000_000)],
            seen: vec![
                (100, 0),
                (500_000, 1),
                (1_000_000, 200),
                (3_000_000, 300),
                (4_500_000, 512),
                (9_000_000, 600),
            ],
        };
        // Tuple 0 is visible once the clock reads ≥ 1; tuple 256 at ≥ 257
        // (first seen at 3.0 ms); tuple 512 at ≥ 513 (9.0 ms).
        assert_eq!(obs.lags_ms(), vec![0.4999, 2.0, 7.0]);
    }

    #[test]
    fn subset_check_respects_multiplicity() {
        let t = |k| Tuple::bare(k, 0);
        assert!(is_subset(&[t(1), t(3)], &[t(1), t(2), t(3)]));
        assert!(is_subset(&[], &[t(1)]));
        assert!(!is_subset(&[t(1), t(1)], &[t(1), t(2)]));
        assert!(!is_subset(&[t(4)], &[t(1), t(2)]));
    }

    #[test]
    fn unseen_samples_are_left_out() {
        let obs = Observations {
            sent: vec![(0, 0), (256, 10)],
            seen: vec![(5, 1), (20, 100)],
        };
        assert_eq!(obs.lags_ms().len(), 1);
    }
}
