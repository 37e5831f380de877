//! The readers-writer lock under the template tree's latches (the
//! `parking_lot` shim in `vendor/`): an uncontended acquire is one atomic,
//! and a thread parks only behind a conflicting holder. These checks pin
//! what the fast path must not lose — exclusion, wake-ups, owned guards,
//! no writer preference, and progress for a writer among readers.

use parking_lot::RwLock;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Generous: every wait below is microseconds when the lock is right.
const DEADLINE: Duration = Duration::from_secs(20);

/// A thread whose result is awaited with a deadline: a lost wake-up fails
/// the test instead of hanging it.
struct Timed<T> {
    result: mpsc::Receiver<T>,
    handle: thread::JoinHandle<()>,
}

impl<T: Send + 'static> Timed<T> {
    fn spawn(f: impl FnOnce() -> T + Send + 'static) -> Self {
        let (tx, result) = mpsc::channel();
        let handle = thread::spawn(move || {
            let _ = tx.send(f());
        });
        Self { result, handle }
    }

    fn wait(self, what: &str) -> T {
        match self.result.recv_timeout(DEADLINE) {
            Ok(value) => {
                self.handle.join().expect("the thread sent its result");
                value
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                panic!("{what} did not finish within {DEADLINE:?}")
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(self.handle.join().unwrap_err())
            }
        }
    }
}

/// Spins until `lock` has parked `n` threads in total.
fn await_parks<T>(lock: &RwLock<T>, n: u64) {
    let start = Instant::now();
    while lock.park_count() < n {
        assert!(start.elapsed() < DEADLINE, "no thread parked on the lock");
        thread::yield_now();
    }
}

#[test]
fn writers_exclude_readers_and_each_other() {
    // Readers count 1 each and writers 1 << 32 in `inside`; a writer must
    // find it empty, a reader must find no writer there. The pair is
    // written in two steps so a torn read shows up as a mismatch.
    let lock = Arc::new(RwLock::new((0u64, 0u64)));
    let inside = Arc::new(AtomicU64::new(0));
    const WRITER: u64 = 1 << 32;
    let mut threads = Vec::new();
    for w in 0..2 {
        let (lock, inside) = (Arc::clone(&lock), Arc::clone(&inside));
        threads.push(thread::spawn(move || {
            for i in 0..2_000u64 {
                let mut g = if (i + w) % 2 == 0 {
                    lock.write()
                } else {
                    // The owned guard takes the same path.
                    let g = lock.write_arc();
                    assert_eq!(inside.fetch_add(WRITER, Ordering::SeqCst), 0);
                    inside.fetch_sub(WRITER, Ordering::SeqCst);
                    drop(g);
                    lock.write()
                };
                assert_eq!(inside.fetch_add(WRITER, Ordering::SeqCst), 0);
                g.0 += 1;
                thread::yield_now();
                g.1 += 1;
                inside.fetch_sub(WRITER, Ordering::SeqCst);
            }
        }));
    }
    for r in 0..4 {
        let (lock, inside) = (Arc::clone(&lock), Arc::clone(&inside));
        threads.push(thread::spawn(move || {
            for i in 0..4_000u64 {
                let g = if (i + r) % 2 == 0 {
                    lock.read()
                } else {
                    let g = lock.read_arc();
                    assert!(inside.load(Ordering::SeqCst) < WRITER);
                    let (a, b) = *g;
                    assert_eq!(a, b, "read a half-written pair");
                    drop(g);
                    lock.read()
                };
                assert!(inside.fetch_add(1, Ordering::SeqCst) < WRITER);
                let (a, b) = *g;
                assert_eq!(a, b, "read a half-written pair");
                inside.fetch_sub(1, Ordering::SeqCst);
            }
        }));
    }
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(*lock.read(), (4_000, 4_000));
}

#[test]
fn a_parked_writer_is_woken_when_the_last_reader_leaves() {
    for round in 0..100 {
        let lock = Arc::new(RwLock::new(0u64));
        let r1 = lock.read();
        let r2 = lock.read_arc();
        let writer = {
            let lock = Arc::clone(&lock);
            Timed::spawn(move || *lock.write() += 1)
        };
        await_parks(&lock, 1);
        // No writer preference: readers still get in past a waiting
        // writer, which is what keeps top-down crabbing deadlock-free.
        drop(lock.read());
        drop(r1);
        if round % 2 == 0 {
            thread::yield_now();
        }
        drop(r2);
        writer.wait("a parked writer");
        assert_eq!(*lock.read(), 1);
    }
}

#[test]
fn parked_readers_are_woken_when_the_writer_leaves() {
    for _ in 0..100 {
        let lock = Arc::new(RwLock::new(0u64));
        let mut w = lock.write_arc();
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let lock = Arc::clone(&lock);
                Timed::spawn(move || *lock.read())
            })
            .collect();
        await_parks(&lock, 2);
        *w = 7;
        drop(w);
        for reader in readers {
            assert_eq!(reader.wait("a parked reader"), 7);
        }
    }
}

#[test]
fn owned_guards_release_on_any_thread() {
    let lock = Arc::new(RwLock::new(Vec::<u32>::new()));
    // Taken here, written and released on another thread.
    let mut w = lock.write_arc();
    w.push(1);
    Timed::spawn(move || w.push(2)).wait("an owned write guard moved to a thread");
    // Readers taken here, released elsewhere; a writer then gets in.
    let readers: Vec<_> = (0..3).map(|_| lock.read_arc()).collect();
    Timed::spawn(move || assert!(readers.iter().all(|r| **r == [1, 2])))
        .wait("owned read guards moved to a thread");
    let writer = Arc::clone(&lock);
    Timed::spawn(move || writer.write().push(3)).wait("a writer after the moved guards");
    assert_eq!(*lock.read(), [1, 2, 3]);
}

#[test]
fn a_writer_gets_in_under_continuous_reader_churn() {
    let lock = Arc::new(RwLock::new(0u64));
    let stop = Arc::new(AtomicBool::new(false));
    let churn: Vec<_> = (0..4)
        .map(|_| {
            let (lock, stop) = (Arc::clone(&lock), Arc::clone(&stop));
            thread::spawn(move || {
                let mut reads = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let g = lock.read();
                    for _ in 0..50 {
                        black_box(*g);
                    }
                    drop(g);
                    reads += 1;
                }
                reads
            })
        })
        .collect();
    let writer = Arc::clone(&lock);
    Timed::spawn(move || {
        for _ in 0..100 {
            *writer.write() += 1;
        }
    })
    .wait("100 writes among churning readers");
    stop.store(true, Ordering::Relaxed);
    let reads: u64 = churn.into_iter().map(|t| t.join().unwrap()).sum();
    assert!(reads > 0);
    assert_eq!(*lock.read(), 100);
}

#[test]
fn uncontended_use_never_parks() {
    let lock = Arc::new(RwLock::new(0u64));
    for _ in 0..10_000 {
        *lock.write() += 1;
        drop(lock.read());
        drop(lock.read_arc());
        *lock.write_arc() += 1;
        // Shared readers do not conflict with each other.
        let (a, b) = (lock.read(), lock.read_arc());
        assert_eq!(*a, *b);
    }
    // One thread after another, never overlapping.
    for _ in 0..4 {
        let lock = Arc::clone(&lock);
        thread::spawn(move || *lock.write() += 1).join().unwrap();
    }
    assert_eq!(*lock.read(), 20_004);
    assert_eq!(lock.park_count(), 0);
}
