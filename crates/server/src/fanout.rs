//! The coordinator's persistent fan-out pool.
//!
//! A query's subqueries run in parallel, but no thread is created to run
//! them: the coordinator owns one [`FanoutPool`] whose threads are started
//! the first time a plan needs them, park on a condition variable between
//! plans, and are joined when the pool is dropped (coordinator shutdown or
//! restart).
//!
//! The pool never *owns* work — it only lends hands. A caller that wants
//! help [`submit`](FanoutPool::submit)s tickets naming a shared job and a
//! slot of it, then starts on the job itself. A pool thread that picks a
//! ticket up calls [`Assist::assist`], which takes whatever is still
//! unclaimed and returns at once when nothing is. Because the caller can
//! always finish the whole job alone, a saturated pool delays nobody and
//! cannot deadlock; a ticket picked up after its job finished costs one
//! look at the job's state. Jobs are `Arc`-owned, so a late helper touches
//! shared heap state, never a finished caller's stack.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// A job pool threads can help with.
pub trait Assist: Send + Sync {
    /// Runs whatever part of the job is still unclaimed for `slot`, and
    /// returns immediately when there is none. Must not panic: a job
    /// catches the panics of the work it wraps.
    fn assist(&self, slot: usize);
}

struct Ticket {
    job: Arc<dyn Assist>,
    slot: usize,
}

struct PoolState {
    tickets: VecDeque<Ticket>,
    /// Threads blocked on `wake` (a notified thread still counts until it
    /// has re-taken the lock).
    idle: usize,
    threads: Vec<JoinHandle<()>>,
    shutdown: bool,
}

waterwheel_core::counters! {
    /// What a [`FanoutPool`] has done so far (`fanout.*`).
    pub struct FanoutStats {
        /// Threads ever started. Constant in steady state: the query path
        /// creates none once the pool is warm.
        threads_started,
        /// Helper tickets ever submitted.
        tickets_issued,
    }
}

struct Shared {
    state: Mutex<PoolState>,
    wake: Condvar,
    /// Ceiling on `threads.len()`.
    cap: AtomicUsize,
    stats: Arc<FanoutStats>,
    /// Callers currently inside [`FanoutPool::enter`]'s guard.
    callers: AtomicUsize,
}

impl Shared {
    /// Everything done under this lock is queue bookkeeping that cannot
    /// leave the state half-updated, so a poisoned lock is still valid.
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn worker(&self) {
        let mut st = self.lock();
        while !st.shutdown {
            if let Some(ticket) = st.tickets.pop_front() {
                drop(st);
                ticket.job.assist(ticket.slot);
                drop(ticket);
                st = self.lock();
            } else {
                st.idle += 1;
                st = self.wake.wait(st).unwrap_or_else(PoisonError::into_inner);
                st.idle -= 1;
            }
        }
    }
}

/// A lazily grown, persistent set of helper threads (module docs).
pub struct FanoutPool {
    shared: Arc<Shared>,
}

impl FanoutPool {
    /// A pool that will grow to at most `cap` threads; none exist yet.
    pub fn new(cap: usize) -> Self {
        Self {
            shared: Arc::new(Shared {
                state: Mutex::new(PoolState {
                    tickets: VecDeque::new(),
                    idle: 0,
                    threads: Vec::new(),
                    shutdown: false,
                }),
                wake: Condvar::new(),
                cap: AtomicUsize::new(cap),
                stats: Arc::default(),
                callers: AtomicUsize::new(0),
            }),
        }
    }

    /// Moves the thread ceiling (the query-server fleet changed size).
    /// Raising it takes effect at the next [`submit`](Self::submit);
    /// lowering it only stops further growth.
    pub fn set_cap(&self, cap: usize) {
        self.shared.cap.store(cap, Ordering::Relaxed);
    }

    /// The pool's counters.
    pub fn stats(&self) -> &Arc<FanoutStats> {
        &self.shared.stats
    }

    /// Threads this pool has ever started.
    pub fn threads_started(&self) -> u64 {
        self.shared.stats.threads_started.load(Ordering::Relaxed)
    }

    /// Helper tickets ever submitted.
    pub fn tickets_issued(&self) -> u64 {
        self.shared.stats.tickets_issued.load(Ordering::Relaxed)
    }

    /// Registers a caller about to work on a job of its own, until the
    /// returned guard drops. [`Caller::ahead`] tells it how many others are
    /// doing the same right now, so that concurrent callers — who all take
    /// a slot of their own job first — need not all take slot 0.
    pub fn enter(&self) -> Caller<'_> {
        Caller {
            pool: self,
            ahead: self.shared.callers.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Asks for one helper per entry of `slots`, each to call
    /// `job.assist(slot)`. Idle threads are woken now — before the caller
    /// starts (and possibly blocks in) its own share — and threads are
    /// started only while tickets outnumber idle threads and the pool is
    /// under its cap. Tickets no thread is free for wait their turn; the
    /// caller does not wait for them.
    pub fn submit(&self, job: &Arc<dyn Assist>, slots: &[usize]) {
        if slots.is_empty() {
            return;
        }
        let mut st = self.shared.lock();
        if st.shutdown {
            return;
        }
        for &slot in slots {
            st.tickets.push_back(Ticket {
                job: Arc::clone(job),
                slot,
            });
        }
        self.shared
            .stats
            .tickets_issued
            .fetch_add(slots.len() as u64, Ordering::Relaxed);
        let cap = self.shared.cap.load(Ordering::Relaxed);
        let mut unserved = st.tickets.len().saturating_sub(st.idle);
        while unserved > 0 && st.threads.len() < cap {
            let shared = Arc::clone(&self.shared);
            let spawned = std::thread::Builder::new()
                .name("ww-fanout".into())
                .spawn(move || shared.worker());
            // Out of threads is not an error here: the caller runs
            // whatever no helper takes.
            let Ok(handle) = spawned else { break };
            st.threads.push(handle);
            self.shared
                .stats
                .threads_started
                .fetch_add(1, Ordering::Relaxed);
            unserved -= 1;
        }
        for _ in 0..slots.len().min(st.idle) {
            self.shared.wake.notify_one();
        }
    }
}

/// A caller at work on its own job ([`FanoutPool::enter`]).
pub struct Caller<'a> {
    pool: &'a FanoutPool,
    ahead: usize,
}

impl Caller<'_> {
    /// Callers that were already at work when this one entered.
    pub fn ahead(&self) -> usize {
        self.ahead
    }
}

impl Drop for Caller<'_> {
    fn drop(&mut self) {
        self.pool.shared.callers.fetch_sub(1, Ordering::Relaxed);
    }
}

impl FanoutPool {
    /// Joins every thread and discards unserved tickets; from here on
    /// [`submit`](Self::submit) asks nobody and callers run their jobs
    /// alone. Dropping the pool does the same. A deployment tearing itself
    /// down calls this *first*: the pool's threads are the last it
    /// created, and threads are best released in reverse order of creation
    /// — glibc hands a new thread the heap arena of the thread that exited
    /// most recently, so a successor system started in the same process
    /// then gets each kind of thread back onto the arena its predecessor
    /// grew, instead of growing a fresh one per generation.
    pub fn shutdown(&self) {
        let (threads, stale) = {
            let mut st = self.shared.lock();
            st.shutdown = true;
            (
                std::mem::take(&mut st.threads),
                std::mem::take(&mut st.tickets),
            )
        };
        drop(stale);
        self.shared.wake.notify_all();
        for t in threads {
            // A helper only runs `Assist::assist`, which does not panic;
            // nothing useful can be done with a join error at teardown.
            let _ = t.join();
        }
    }
}

impl Drop for FanoutPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::mpsc;
    use std::time::Duration;

    /// Reports every assist call on a channel.
    struct Echo(Mutex<mpsc::Sender<usize>>);

    impl Assist for Echo {
        fn assist(&self, slot: usize) {
            let _ = self.0.lock().unwrap().send(slot);
        }
    }

    fn echo() -> (Arc<dyn Assist>, mpsc::Receiver<usize>) {
        let (tx, rx) = mpsc::channel();
        (Arc::new(Echo(Mutex::new(tx))), rx)
    }

    const DEADLINE: Duration = Duration::from_secs(10);

    #[test]
    fn threads_are_created_on_first_need_and_reused() {
        let pool = FanoutPool::new(4);
        assert_eq!(pool.threads_started(), 0, "no plan yet, no thread yet");
        let (job, rx) = echo();
        pool.submit(&job, &[7, 8]);
        let mut got = vec![
            rx.recv_timeout(DEADLINE).unwrap(),
            rx.recv_timeout(DEADLINE).unwrap(),
        ];
        got.sort_unstable();
        assert_eq!(got, vec![7, 8]);
        let started = pool.threads_started();
        assert!((1..=2).contains(&started), "started {started}");
        // Later tickets are served by the same threads once they are idle.
        for round in 0..50 {
            // Let a helper park first, so the ticket finds it idle.
            while pool.shared.lock().idle == 0 {
                std::thread::yield_now();
            }
            pool.submit(&job, &[round]);
            assert_eq!(rx.recv_timeout(DEADLINE).unwrap(), round);
        }
        assert_eq!(pool.threads_started(), started);
        assert_eq!(pool.tickets_issued(), 52);
    }

    #[test]
    fn growth_stops_at_the_cap_and_queued_tickets_are_still_served() {
        let pool = FanoutPool::new(2);
        let (job, rx) = echo();
        pool.submit(&job, &[0, 1, 2, 3, 4, 5]);
        let mut got: Vec<usize> = (0..6).map(|_| rx.recv_timeout(DEADLINE).unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(pool.threads_started(), 2);
        pool.set_cap(3);
        pool.submit(&job, &[6, 7, 8, 9, 10, 11]);
        for _ in 0..6 {
            rx.recv_timeout(DEADLINE).unwrap();
        }
        assert!(pool.threads_started() <= 3);
    }

    #[test]
    fn a_shut_down_pool_asks_nobody() {
        let pool = FanoutPool::new(2);
        let (job, rx) = echo();
        pool.submit(&job, &[1]);
        assert_eq!(rx.recv_timeout(DEADLINE).unwrap(), 1);
        pool.shutdown();
        assert!(pool.shared.lock().threads.is_empty(), "threads joined");
        pool.submit(&job, &[2, 3]);
        assert!(rx.try_recv().is_err(), "no helper is left to come");
        assert_eq!(Arc::strong_count(&job), 1, "and no ticket is kept");
        assert_eq!(pool.threads_started(), 1);
    }

    #[test]
    fn drop_joins_every_thread_and_discards_unserved_tickets() {
        let (release_tx, release_rx) = mpsc::channel::<()>();
        /// Blocks its helper until released, so tickets pile up behind it.
        struct Block(Mutex<mpsc::Receiver<()>>, Arc<AtomicU64>);
        impl Assist for Block {
            fn assist(&self, _: usize) {
                self.1.fetch_add(1, Ordering::SeqCst);
                let _ = self.0.lock().unwrap().recv();
            }
        }
        let ran = Arc::new(AtomicU64::new(0));
        let job: Arc<dyn Assist> = Arc::new(Block(Mutex::new(release_rx), Arc::clone(&ran)));
        let pool = FanoutPool::new(1);
        pool.submit(&job, &[0, 1, 2]);
        while ran.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        // One helper is inside `assist`; two tickets wait. Dropping the
        // pool must not wait for those two to run.
        drop(release_tx);
        drop(pool);
        assert_eq!(
            Arc::strong_count(&job),
            1,
            "no ticket outlives the pool holding the job"
        );
    }
}
