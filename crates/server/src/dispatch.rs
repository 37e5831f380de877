//! Subquery dispatch policies, including LADA (paper §IV-C).
//!
//! For a query decomposed into chunk subqueries, the dispatcher must decide
//! which query server executes which subquery. The paper's LADA
//! (locality-aware dispatch algorithm) keeps all unprocessed subqueries in a
//! *pending set* and gives every query server a *preference array* — the
//! order in which it bids for pending subqueries. Preference arrays are
//! built so that:
//!
//! * subqueries whose chunks are **co-located** with a server rank ahead of
//!   the rest (chunk locality);
//! * the ranking uses **deterministic shuffles seeded by the chunk id**, so
//!   different servers prefer different subqueries of the same query (load
//!   spread) while any one server prefers the *same* chunks across queries
//!   (cache locality).
//!
//! Three baselines from §VI-C2 are provided: round-robin and hash dispatch
//! (fixed assignment, no work stealing) and a shared FIFO queue
//! (work-conserving, but locality-blind).

use crate::fanout::{Assist, FanoutPool};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use waterwheel_core::ChunkId;

/// Subquery workers per query server: how many chunk subqueries one server
/// executes concurrently under a dispatch plan — and, × the query servers,
/// the cap of the coordinator's fan-out pool.
pub const WORKERS_PER_SERVER: usize = 4;

/// Which dispatch policy to use (paper §VI-C2 compares all four).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DispatchPolicy {
    /// The paper's locality-aware dispatch algorithm.
    Lada,
    /// Subquery `i` → server `i mod P`; no stealing.
    RoundRobin,
    /// Subquery → server `hash(chunk) mod P`; no stealing, cache-local.
    Hash,
    /// One global FIFO; all servers pull from it. Load-balanced but
    /// locality-blind.
    SharedQueue,
}

impl DispatchPolicy {
    /// Display label for benchmark tables.
    pub fn label(&self) -> &'static str {
        match self {
            DispatchPolicy::Lada => "LADA",
            DispatchPolicy::RoundRobin => "round-robin",
            DispatchPolicy::Hash => "hash",
            DispatchPolicy::SharedQueue => "shared-queue",
        }
    }
}

/// A built dispatch plan: per-server preference arrays over subquery
/// indices, plus whether servers may bid on work outside their own array.
#[derive(Debug)]
pub struct DispatchPlan {
    /// `preferences[s]` lists subquery indices in server `s`'s bid order.
    pub preferences: Vec<Vec<usize>>,
    /// Work-conserving plans let an idle server take any pending subquery
    /// (in its preference order); fixed-assignment plans do not.
    pub work_conserving: bool,
}

impl DispatchPlan {
    /// `n` subqueries with one dedicated slot each — plain concurrent
    /// fan-out of calls that already know where they go.
    pub fn one_each(n: usize) -> Self {
        Self {
            preferences: (0..n).map(|i| vec![i]).collect(),
            work_conserving: false,
        }
    }
}

/// A deterministic permutation of `0..n` seeded by `seed` (SplitMix64-based
/// Fisher–Yates) — the chunk-id-seeded shuffle of §IV-C.
fn seeded_permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut out: Vec<usize> = (0..n).collect();
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    for i in (1..out.len()).rev() {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        out.swap(i, (waterwheel_core::mix64(state) % (i as u64 + 1)) as usize);
    }
    out
}

/// Builds the ordered server array `→S(qᵢ)` for one subquery: the co-located
/// servers, shuffled, followed by the rest, shuffled — both seeded by the
/// chunk id.
fn lada_server_order(colocated: &[usize], others: &[usize], chunk: ChunkId) -> Vec<usize> {
    let mut ordered = Vec::with_capacity(colocated.len() + others.len());
    for &p in &seeded_permutation(colocated.len(), chunk.raw().wrapping_mul(2).wrapping_add(1)) {
        ordered.push(colocated[p]);
    }
    for &p in &seeded_permutation(others.len(), chunk.raw().wrapping_mul(2)) {
        ordered.push(others[p]);
    }
    ordered
}

/// Builds a dispatch plan for `subquery_chunks[i]` = chunk of subquery `i`,
/// across `servers` query servers. `colocated(server, chunk)` answers the
/// chunk-locality test (replica placement).
pub fn build_plan(
    policy: DispatchPolicy,
    subquery_chunks: &[ChunkId],
    servers: usize,
    colocated: impl Fn(usize, ChunkId) -> bool,
) -> DispatchPlan {
    assert!(servers > 0);
    match policy {
        DispatchPolicy::RoundRobin => {
            let mut preferences = vec![Vec::new(); servers];
            for (i, _) in subquery_chunks.iter().enumerate() {
                preferences[i % servers].push(i);
            }
            DispatchPlan {
                preferences,
                work_conserving: false,
            }
        }
        DispatchPolicy::Hash => {
            let mut preferences = vec![Vec::new(); servers];
            for (i, chunk) in subquery_chunks.iter().enumerate() {
                let h = waterwheel_core::mix64(chunk.raw());
                preferences[(h % servers as u64) as usize].push(i);
            }
            DispatchPlan {
                preferences,
                work_conserving: false,
            }
        }
        DispatchPolicy::SharedQueue => {
            let all: Vec<usize> = (0..subquery_chunks.len()).collect();
            DispatchPlan {
                preferences: vec![all; servers],
                work_conserving: true,
            }
        }
        DispatchPolicy::Lada => {
            // rank[s][i] = offset of server s in →S(qᵢ).
            let mut ranked: Vec<Vec<(usize, usize)>> = vec![Vec::new(); servers]; // (rank, subquery)
            for (i, &chunk) in subquery_chunks.iter().enumerate() {
                let (mut co, mut rest) = (Vec::new(), Vec::new());
                for s in 0..servers {
                    if colocated(s, chunk) {
                        co.push(s);
                    } else {
                        rest.push(s);
                    }
                }
                for (rank, &s) in lada_server_order(&co, &rest, chunk).iter().enumerate() {
                    ranked[s].push((rank, i));
                }
            }
            let preferences = ranked
                .into_iter()
                .map(|mut v| {
                    v.sort_unstable();
                    v.into_iter().map(|(_, i)| i).collect()
                })
                .collect();
            DispatchPlan {
                preferences,
                work_conserving: true,
            }
        }
    }
}

/// Outcome of [`execute_plan`]: per-subquery executor assignment plus the
/// telemetry the coordinator surfaces through `SystemMetrics`.
#[derive(Debug)]
pub struct PlanRun {
    /// Per subquery, the id of the executing server (`None` if no server
    /// took it — a non-work-conserving plan whose owner failed, or every
    /// attempt erroring; the coordinator re-dispatches those).
    pub executed_by: Vec<Option<usize>>,
    /// Subqueries queued into the worker pools by this plan — the backlog
    /// the pools start from (worker-pool queue depth at dispatch time).
    pub queue_depth: usize,
}

/// One plan in execution: the pending set, the per-server bid cursors and
/// the outcome, shared by the calling thread and whichever pool threads
/// come to help. `Arc`-owned, so a helper arriving after the caller has
/// returned finds an empty pending set and nothing else.
struct PlanJob<E> {
    plan: DispatchPlan,
    exec: E,
    state: Mutex<PickState>,
    /// Signalled when the last claimed subquery finishes.
    settled: Condvar,
}

struct PickState {
    /// `pending[sq]`: not yet claimed by any worker.
    pending: Vec<bool>,
    pending_left: usize,
    /// Per-server scan offset into its preference array; everything
    /// before the cursor is already taken, so workers of one server
    /// never re-scan a claimed prefix.
    cursors: Vec<usize>,
    /// Claimed subqueries whose `exec` has not returned yet.
    in_flight: usize,
    executed_by: Vec<Option<usize>>,
}

impl<E> PlanJob<E> {
    /// Nothing but counters and flags changes under this lock, and `exec`
    /// runs outside it, so a poisoned lock still guards a valid state.
    fn lock(&self) -> MutexGuard<'_, PickState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Bid as `server`: its first still-pending subquery in preference
    /// order. The cursor is shared by the server's workers; entries before
    /// it are gone, the entry at it may have been taken by another server —
    /// the pending flag decides ownership either way.
    fn claim(&self, server: usize) -> Option<usize> {
        let prefs = &self.plan.preferences[server];
        let mut st = self.lock();
        let mut cursor = st.cursors[server];
        let mut found = None;
        while st.pending_left > 0 && cursor < prefs.len() {
            let sq = prefs[cursor];
            if std::mem::take(&mut st.pending[sq]) {
                st.pending_left -= 1;
                st.in_flight += 1;
                found = Some(sq);
                break;
            }
            cursor += 1;
        }
        st.cursors[server] = cursor;
        found
    }
}

impl<E> Assist for PlanJob<E>
where
    E: Fn(usize, usize) -> bool + Send + Sync,
{
    /// One worker of `server`: bids and executes until the server has
    /// nothing left to claim.
    fn assist(&self, server: usize) {
        while let Some(sq) = self.claim(server) {
            // A panicking `exec` is a failed execution: the subquery stays
            // unrecorded (the coordinator re-dispatches it) and the thread
            // — the caller or a pooled helper — carries on.
            let ok = catch_unwind(AssertUnwindSafe(|| (self.exec)(server, sq))).unwrap_or(false);
            let mut st = self.lock();
            if ok {
                st.executed_by[sq] = Some(server);
            }
            st.in_flight -= 1;
            if st.in_flight == 0 && st.pending_left == 0 {
                self.settled.notify_all();
            }
        }
    }
}

/// Executes a plan: each server runs `exec(server, subquery_index)` for the
/// subqueries it wins, with up to `workers` workers per server (the
/// coordinator passes [`WORKERS_PER_SERVER`]) so one server keeps several
/// subqueries in flight. Workers of one server share a bid cursor over the server's preference
/// array, preserving LADA preference order; work-conserving plans keep
/// their stealing semantics — an idle worker takes any pending subquery in
/// its server's preference order.
///
/// No thread is created here. The calling thread is the plan's first
/// worker; at most `subqueries − 1` helpers are asked of `pool`, in rounds
/// over the servers so that every server with work has one worker before
/// any has a second, and they are woken before the caller starts its own
/// first subquery. The rounds start at slot 0 for a caller that is alone
/// on the pool and one server further on for each caller already at work,
/// so concurrent callers — each its own plan's first worker — sit on
/// different servers instead of all queueing on server 0. The caller works
/// through every server's array in turn — so it can finish the whole plan
/// alone when the pool is busy, still executing each subquery only as a
/// server entitled to it — and returns when the last claimed subquery has
/// finished.
pub fn execute_plan<E>(pool: &FanoutPool, plan: DispatchPlan, workers: usize, exec: E) -> PlanRun
where
    E: Fn(usize, usize) -> bool + Send + Sync + 'static,
{
    let workers = workers.max(1);
    let servers = plan.preferences.len();
    let slots = plan
        .preferences
        .iter()
        .flatten()
        .max()
        .map_or(0, |&max| max + 1);
    let mut pending = vec![false; slots];
    for &sq in plan.preferences.iter().flatten() {
        pending[sq] = true;
    }
    let total = pending.iter().filter(|p| **p).count();
    // How many workers a server can use: work-conserving servers may end
    // up running anything, fixed-assignment servers only their own array.
    let demand = |s: usize| {
        let own = if plan.work_conserving {
            total
        } else {
            plan.preferences[s].len()
        };
        own.min(workers)
    };
    let mut staffed: Vec<usize> = (0..servers).filter(|&s| demand(s) > 0).collect();
    let caller = pool.enter();
    if !staffed.is_empty() {
        let first = caller.ahead() % staffed.len();
        staffed.rotate_left(first);
    }
    // Round r seats one more worker on every server that can use more
    // than r. The very first seat is the caller's; the rest, up to one per
    // remaining subquery, are asked of the pool.
    let helpers: Vec<usize> = (0..workers)
        .flat_map(|round| staffed.iter().copied().filter(move |&s| demand(s) > round))
        .skip(1)
        .take(total.saturating_sub(1))
        .collect();
    let job = Arc::new(PlanJob {
        exec,
        state: Mutex::new(PickState {
            pending,
            pending_left: total,
            cursors: vec![0; servers],
            in_flight: 0,
            executed_by: vec![None; slots],
        }),
        settled: Condvar::new(),
        plan,
    });
    pool.submit(&(Arc::clone(&job) as Arc<dyn Assist>), &helpers);
    for &s in &staffed {
        job.assist(s);
    }
    // The caller has bid as every server, so nothing is pending; what
    // remains is in the hands of helpers.
    let mut st = job.lock();
    while st.in_flight > 0 {
        st = job.settled.wait(st).unwrap_or_else(PoisonError::into_inner);
    }
    PlanRun {
        executed_by: std::mem::take(&mut st.executed_by),
        queue_depth: total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    fn chunks(n: usize) -> Vec<ChunkId> {
        (0..n as u64).map(ChunkId).collect()
    }

    /// 3 replicas out of 4 servers, deterministic by chunk id.
    fn colocated(server: usize, chunk: ChunkId) -> bool {
        !(chunk.raw() as usize + server).is_multiple_of(4)
    }

    #[test]
    fn lada_preference_arrays_are_deterministic() {
        let sq = chunks(20);
        let a = build_plan(DispatchPolicy::Lada, &sq, 4, colocated);
        let b = build_plan(DispatchPolicy::Lada, &sq, 4, colocated);
        assert_eq!(a.preferences, b.preferences);
        assert!(a.work_conserving);
    }

    #[test]
    fn lada_every_server_ranks_every_subquery() {
        let sq = chunks(10);
        let plan = build_plan(DispatchPolicy::Lada, &sq, 3, colocated);
        for prefs in &plan.preferences {
            let mut sorted = prefs.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn lada_colocated_subqueries_rank_before_remote_ones() {
        // Property from the paper: "for any query server, the subqueries
        // whose data chunks are co-located with it rank higher in its
        // preference array than the others."
        let sq = chunks(40);
        let plan = build_plan(DispatchPolicy::Lada, &sq, 4, colocated);
        for (s, prefs) in plan.preferences.iter().enumerate() {
            let first_remote = prefs
                .iter()
                .position(|&i| !colocated(s, sq[i]))
                .unwrap_or(prefs.len());
            for (pos, &i) in prefs.iter().enumerate() {
                if colocated(s, sq[i]) {
                    assert!(
                        pos < first_remote || prefs[..pos].iter().all(|&j| colocated(s, sq[j])),
                        "server {s}: co-located subquery {i} ranked after a remote one"
                    );
                }
            }
            // Stronger: the array is exactly [all co-located…, all remote…].
            let co_count = prefs.iter().filter(|&&i| colocated(s, sq[i])).count();
            assert!(prefs[..co_count].iter().all(|&i| colocated(s, sq[i])));
        }
    }

    #[test]
    fn lada_servers_prefer_different_subqueries() {
        // The shuffles vary per server, spreading the first picks.
        let sq = chunks(30);
        let plan = build_plan(DispatchPolicy::Lada, &sq, 4, |_, _| true);
        let firsts: HashSet<usize> = plan.preferences.iter().map(|p| p[0]).collect();
        assert!(firsts.len() > 1, "all servers would grab the same subquery");
    }

    #[test]
    fn round_robin_assigns_evenly_without_stealing() {
        let sq = chunks(10);
        let plan = build_plan(DispatchPolicy::RoundRobin, &sq, 3, colocated);
        assert!(!plan.work_conserving);
        assert_eq!(plan.preferences[0], vec![0, 3, 6, 9]);
        assert_eq!(plan.preferences[1], vec![1, 4, 7]);
        assert_eq!(plan.preferences[2], vec![2, 5, 8]);
    }

    #[test]
    fn hash_is_stable_per_chunk() {
        let sq = vec![ChunkId(7), ChunkId(7), ChunkId(9)];
        let plan = build_plan(DispatchPolicy::Hash, &sq, 4, colocated);
        // Subqueries 0 and 1 share a chunk → same server.
        let owner_of = |i: usize| {
            plan.preferences
                .iter()
                .position(|p| p.contains(&i))
                .unwrap()
        };
        assert_eq!(owner_of(0), owner_of(1));
    }

    #[test]
    fn execute_plan_runs_each_subquery_exactly_once() {
        for policy in [
            DispatchPolicy::Lada,
            DispatchPolicy::RoundRobin,
            DispatchPolicy::Hash,
            DispatchPolicy::SharedQueue,
        ] {
            for workers in [1, 4] {
                let sq = chunks(25);
                let plan = build_plan(policy, &sq, 4, colocated);
                let pool = FanoutPool::new(4 * workers);
                let count = Arc::new(AtomicUsize::new(0));
                let counted = Arc::clone(&count);
                let run = execute_plan(&pool, plan, workers, move |_s, _i| {
                    counted.fetch_add(1, Ordering::Relaxed);
                    true
                });
                assert_eq!(
                    count.load(Ordering::Relaxed),
                    25,
                    "{policy:?} workers={workers}"
                );
                assert!(
                    run.executed_by.iter().all(Option::is_some),
                    "{policy:?} workers={workers}"
                );
                assert_eq!(run.queue_depth, 25);
            }
        }
    }

    #[test]
    fn worker_pool_overlaps_subqueries_on_one_server() {
        // One server, four subqueries, each sleeping 20 ms. A serial server
        // needs ≥ 80 ms; a 4-worker pool finishes in one sleep's time (plus
        // scheduling slack).
        let sq = chunks(4);
        let plan = build_plan(DispatchPolicy::SharedQueue, &sq, 1, colocated);
        let pool = FanoutPool::new(4);
        let t0 = std::time::Instant::now();
        let run = execute_plan(&pool, plan, 4, |_s, _i| {
            std::thread::sleep(std::time::Duration::from_millis(20));
            true
        });
        let elapsed = t0.elapsed();
        assert!(run.executed_by.iter().all(Option::is_some));
        assert!(
            elapsed < std::time::Duration::from_millis(70),
            "4 workers took {elapsed:?} for 4×20ms subqueries — pool not parallel"
        );
    }

    #[test]
    fn worker_pool_preserves_preference_order_per_server() {
        // With one server and one subquery executing at a time (execution
        // order observable through a log), workers must consume the
        // preference array in order even when there are several of them.
        let sq = chunks(12);
        let plan = build_plan(DispatchPolicy::Lada, &sq, 1, colocated);
        let prefs = plan.preferences[0].clone();
        let order: Arc<Mutex<Vec<usize>>> = Arc::default();
        let log = Arc::clone(&order);
        execute_plan(&FanoutPool::new(3), plan, 3, move |_s, i| {
            log.lock().unwrap().push(i);
            true
        });
        let order = order.lock().unwrap().clone();
        // Each subquery's *start* follows the preference array: the k-th
        // distinct pick must be within the first k + workers entries of
        // the preference array (workers race only inside a small window).
        for (k, picked) in order.iter().enumerate() {
            let pos = prefs.iter().position(|p| p == picked).unwrap();
            assert!(
                pos <= k + 3,
                "pick #{k} was preference-rank {pos}: order not preserved"
            );
        }
    }

    #[test]
    fn work_conserving_plans_let_fast_servers_help() {
        // Server 0 executes instantly; others are slow. Under a
        // work-conserving policy, server 0 ends up doing most of the work.
        let sq = chunks(20);
        let plan = build_plan(DispatchPolicy::SharedQueue, &sq, 4, colocated);
        let run = execute_plan(&FanoutPool::new(4), plan, 1, |s, _i| {
            if s != 0 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            true
        });
        let by_zero = run.executed_by.iter().filter(|b| **b == Some(0)).count();
        assert!(by_zero >= 10, "server 0 only took {by_zero}/20");
    }

    #[test]
    fn failed_executions_leave_subqueries_unrecorded() {
        let sq = chunks(10);
        let plan = build_plan(DispatchPolicy::RoundRobin, &sq, 2, colocated);
        // Server 1 fails everything.
        let run = execute_plan(&FanoutPool::new(4), plan, 2, |s, _i| s == 0);
        let done = run.executed_by.iter().filter(|b| b.is_some()).count();
        assert_eq!(done, 5);
        assert!(run
            .executed_by
            .iter()
            .enumerate()
            .all(|(i, b)| (i % 2 == 0) == b.is_some()));
    }

    #[test]
    fn empty_plan_is_fine() {
        let plan = build_plan(DispatchPolicy::Lada, &[], 3, colocated);
        let pool = FanoutPool::new(6);
        let run = execute_plan(&pool, plan, 2, |_, _| true);
        assert!(run.executed_by.is_empty());
        assert_eq!(run.queue_depth, 0);
        assert_eq!(pool.tickets_issued(), 0);
    }

    #[test]
    fn a_plan_asks_for_at_most_one_helper_per_subquery_beyond_the_first() {
        for policy in [
            DispatchPolicy::Lada,
            DispatchPolicy::RoundRobin,
            DispatchPolicy::Hash,
            DispatchPolicy::SharedQueue,
        ] {
            for n in [1usize, 2, 3, 7, 40] {
                let pool = FanoutPool::new(16);
                let plan = build_plan(policy, &chunks(n), 4, colocated);
                let run = execute_plan(&pool, plan, 4, |_, _| true);
                assert!(run.executed_by.iter().all(Option::is_some));
                let asked = pool.tickets_issued() as usize;
                assert!(
                    asked <= (n - 1).min(15),
                    "{policy:?}: {n} subqueries asked for {asked} helpers"
                );
                assert!(pool.threads_started() as usize <= asked);
                if n == 1 {
                    assert_eq!(
                        asked, 0,
                        "{policy:?}: one subquery runs on the caller alone"
                    );
                }
            }
        }
    }

    #[test]
    fn saturated_pool_still_runs_every_subquery_exactly_once() {
        // 64 callers share a pool of 4: most plans get no helper at all and
        // finish on their caller. Nobody may wait for the pool.
        let pool = Arc::new(FanoutPool::new(4));
        let deadline = Instant::now() + Duration::from_secs(60);
        std::thread::scope(|scope| {
            for caller in 0..64usize {
                let pool = Arc::clone(&pool);
                scope.spawn(move || {
                    let policy = [
                        DispatchPolicy::Lada,
                        DispatchPolicy::RoundRobin,
                        DispatchPolicy::Hash,
                        DispatchPolicy::SharedQueue,
                    ][caller % 4];
                    for round in 0..20 {
                        let n = 1 + (caller + round) % 9;
                        let plan = build_plan(policy, &chunks(n), 2, colocated);
                        let runs: Arc<Vec<AtomicUsize>> =
                            Arc::new((0..n).map(|_| AtomicUsize::new(0)).collect());
                        let seen = Arc::clone(&runs);
                        let run = execute_plan(&pool, plan, 2, move |_s, i| {
                            seen[i].fetch_add(1, Ordering::SeqCst);
                            true
                        });
                        assert!(run.executed_by.iter().all(Option::is_some));
                        assert!(runs.iter().all(|c| c.load(Ordering::SeqCst) == 1));
                        assert!(Instant::now() < deadline, "plans stalled behind the pool");
                    }
                });
            }
        });
        assert!(pool.threads_started() <= 4);
    }

    /// Returns `true` once `n` callers have arrived (a later arrival passes
    /// straight through), `false` if they have not within 20 s.
    fn meet(gate: &(Mutex<usize>, Condvar), n: usize) -> bool {
        let (arrived, changed) = gate;
        let mut arrived = arrived.lock().unwrap();
        *arrived += 1;
        changed.notify_all();
        let (_arrived, wait) = changed
            .wait_timeout_while(arrived, Duration::from_secs(20), |a| *a < n)
            .unwrap();
        !wait.timed_out()
    }

    #[test]
    fn a_panicking_exec_is_a_failed_execution_and_the_pool_survives() {
        // One server, four seats: the caller plus all three pool threads
        // are inside `exec` together, and every one of them panics there.
        let pool = FanoutPool::new(3);
        let plan = build_plan(DispatchPolicy::SharedQueue, &chunks(8), 1, colocated);
        let gate = Arc::new((Mutex::new(0), Condvar::new()));
        let run = execute_plan(&pool, plan, 4, move |_s, i| -> bool {
            meet(&gate, 4);
            panic!("injected: subquery {i} blows up");
        });
        assert_eq!(run.executed_by, vec![None; 8], "left for redispatch");
        assert_eq!(pool.threads_started(), 3);
        // The next plan needs the same three threads (the pool may not
        // start a fourth) to be inside `exec` with the caller again.
        let plan = build_plan(DispatchPolicy::SharedQueue, &chunks(8), 1, colocated);
        let gate = Arc::new((Mutex::new(0), Condvar::new()));
        let run = execute_plan(&pool, plan, 4, move |_s, _i| meet(&gate, 4));
        assert_eq!(run.executed_by, vec![Some(0); 8]);
        assert_eq!(pool.threads_started(), 3);
    }

    #[test]
    fn fixed_plans_run_a_subquery_only_as_its_owner_even_without_helpers() {
        // A pool that may not start a single thread: the caller alone walks
        // every server's array, and still acts as the owning server.
        for policy in [DispatchPolicy::RoundRobin, DispatchPolicy::Hash] {
            let sq = chunks(23);
            let plan = build_plan(policy, &sq, 4, colocated);
            let owner: Vec<usize> = (0..sq.len())
                .map(|i| {
                    plan.preferences
                        .iter()
                        .position(|p| p.contains(&i))
                        .unwrap()
                })
                .collect();
            let pool = FanoutPool::new(0);
            let ran_as: Arc<Mutex<Vec<(usize, usize)>>> = Arc::default();
            let log = Arc::clone(&ran_as);
            let run = execute_plan(&pool, plan, 4, move |s, i| {
                log.lock().unwrap().push((s, i));
                true
            });
            assert_eq!(pool.threads_started(), 0);
            let ran_as = ran_as.lock().unwrap();
            assert_eq!(ran_as.len(), sq.len());
            let distinct: HashSet<usize> = ran_as.iter().map(|&(_, i)| i).collect();
            assert_eq!(distinct.len(), sq.len());
            for &(s, i) in ran_as.iter() {
                assert_eq!(s, owner[i], "{policy:?}: subquery {i} ran as server {s}");
                assert_eq!(run.executed_by[i], Some(owner[i]));
            }
        }
    }
}
