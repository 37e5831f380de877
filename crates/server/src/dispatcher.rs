//! Dispatchers: tuple routing, ingest batching, and key-frequency sampling
//! (paper §III-A, §III-D, §VI Fig. 15).
//!
//! Dispatchers receive the incoming stream and route each tuple to the
//! indexing server owning its key under the current partition schema. The
//! hop to the indexing server is an RPC on the message plane — the
//! destination's handler appends to that server's partition of the
//! replayable input queue, so delivery inherits the plane's deadlines,
//! retries, and fault injection.
//!
//! **Batching.** Tuples are buffered per *link* — one (dispatcher,
//! destination) pair — and shipped as one [`Request::IngestBatch`]
//! envelope. One envelope, one queue append-batch, one round-trip per
//! *batch* instead of per tuple is where the paper's realtime ingest rate
//! comes from (Fig. 15); not idling on that round trip is what keeps it
//! over a real network. A link has **at most one batch in flight**. An
//! idle link sends its buffer when it reaches `ingest_batch_size`. While a
//! batch is on the wire the buffer keeps filling, and the next batch leaves
//! when the buffer reaches [`COALESCE_FACTOR`] × `ingest_batch_size` — the
//! producer waits for the answer there, if it is not in yet — or when the
//! background linger flusher, which collects answers that are in without
//! waiting, finds a buffer older than [`INGEST_LINGER`]. The flusher sleeps
//! until the earliest such deadline of the links it sweeps, and with none
//! until a dispatch opens a buffer ([`LingerPark`]). A plane that
//! answers before `start` returns (the in-process one) leaves its link idle
//! at once, so there every batch is exactly `ingest_batch_size` tuples and
//! at `1` every tuple is a batch of one. Over TCP a saturating producer no
//! longer waits for a round trip per batch, and its batches are cut at
//! points that depend only on the tuple sequence and the flushes, never on
//! when an answer happened to arrive.
//!
//! Each batch carries a per-link monotonic sequence number; a batch that
//! failed is retried later under its *original* number, never renumbered,
//! so the receiver can drop redeliveries whose first attempt actually
//! landed. To keep those numbers meaningful a link's batches are sent
//! strictly in order — a failed batch blocks younger tuples for that link
//! until it is delivered — and one at a time: the receiver drops
//! `seq <= last` as a redelivery and a TCP server runs requests on several
//! workers, so a second batch in flight on the link could be applied before
//! the first, which would then be dropped as a "redelivery".
//!
//! **Sampling.** "Each dispatcher samples the key frequencies of its input
//! stream in a sliding window of a few seconds" — implemented as
//! per-server counts plus a reservoir sample of keys per window, which the
//! partition balancer periodically collects. Only *acknowledged* tuples
//! are recorded (on the batch ack): a send that never reached its server
//! must not inflate that server's load in the balancer's eyes.

use parking_lot::{Mutex, MutexGuard, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::Thread;
use std::time::{Duration, Instant};
use waterwheel_core::{ChunkId, Counters, Key, Result, ServerId, SystemConfig, Tuple, WwError};
use waterwheel_meta::PartitionSchema;
use waterwheel_net::{PendingCall, Request, Response, RpcClient, RpcStats};

/// Reservoir capacity per sampling window.
const RESERVOIR_CAP: usize = 4_096;

/// Longest a partially filled ingest batch may sit buffered in a dispatcher
/// before the background linger flusher sends it anyway. Bounds the
/// visibility latency batching can add to a trickling stream. Only a link
/// slower than a batch per linger — 640 k tuples/s at the default batch of
/// 128 — has batches cut by it.
pub const INGEST_LINGER: Duration = Duration::from_micros(200);

/// Where the linger flusher sleeps, shared by every dispatcher it sweeps:
/// its thread and the instant it sleeps until.
///
/// A sweep starts by marking the flusher as sleeping with no deadline, then
/// visits each link, then publishes the earliest deadline it found. A
/// dispatch that gives an idle link a deadline reads the mark after
/// releasing the link lock and unparks the flusher only if the flusher
/// would otherwise sleep past it. Either the sweep visited the link after
/// the dispatch (and saw its deadline), or the dispatch reads a mark set
/// at or after this sweep's start — so no deadline is slept through.
///
/// A park ends only at its deadline, at `stop`, or for a poke counted
/// after its sweep started (an earlier one's deadline the sweep saw). A
/// spurious wakeup, or an unpark whose poke was already answered, parks
/// again.
pub struct LingerPark {
    thread: Thread,
    epoch: Instant,
    /// Nanoseconds after `epoch` the flusher sleeps until; `u64::MAX`
    /// while it sweeps or sleeps with no deadline.
    until: AtomicU64,
    /// Pokes so far.
    pokes: AtomicU64,
    /// `pokes` as the current sweep started: the pokes it covers.
    covered: AtomicU64,
}

impl LingerPark {
    /// A parking spot for the calling thread.
    pub fn for_current_thread() -> Self {
        Self {
            thread: std::thread::current(),
            epoch: Instant::now(),
            until: AtomicU64::new(u64::MAX),
            pokes: AtomicU64::new(0),
            covered: AtomicU64::new(0),
        }
    }

    fn nanos(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Marks the flusher as sweeping: any deadline a dispatch sets from now
    /// on unparks it, and the sweep covers every poke so far (each one's
    /// deadline was set before this, so the sweep's visit sees it).
    pub fn sweeping(&self) {
        self.until.store(u64::MAX, Ordering::SeqCst);
        let pokes = self.pokes.load(Ordering::SeqCst);
        self.covered.store(pokes, Ordering::Relaxed);
    }

    /// Publishes `deadline` and parks the calling (flusher) thread until
    /// then, or without one until a poke the last sweep did not cover, or
    /// until `stop` is set (and the thread unparked).
    pub fn park_until(&self, deadline: Option<Instant>, stop: &AtomicBool) {
        let until = deadline.map_or(u64::MAX, |at| self.nanos(at));
        self.until.store(until, Ordering::SeqCst);
        let covered = self.covered.load(Ordering::Relaxed);
        while self.pokes.load(Ordering::SeqCst) == covered && !stop.load(Ordering::SeqCst) {
            match deadline {
                Some(at) => {
                    let wait = at.saturating_duration_since(Instant::now());
                    if wait.is_zero() {
                        return;
                    }
                    std::thread::park_timeout(wait);
                }
                None => std::thread::park(),
            }
        }
    }

    /// Called by a dispatch that set a link's deadline to `at`.
    fn poke(&self, at: Instant) {
        if self.nanos(at) < self.until.load(Ordering::SeqCst) {
            self.pokes.fetch_add(1, Ordering::SeqCst);
            self.thread.unpark();
        }
    }
}

/// How far a link's buffer grows while its batch is in flight, in
/// multiples of `ingest_batch_size`: at this size the next batch leaves,
/// the producer waiting for the in-flight answer first (back-pressure).
pub const COALESCE_FACTOR: usize = 8;

/// The first batch sequence number of a sender constructed now. Receivers
/// remember — durably, in the queue's journal — the highest `seq` per
/// (sender, receiver) link and drop `seq <= last` as a redelivery, so a
/// sender rebuilt under the same id (a restarted dispatcher process, a
/// re-opened embedded store) must number above every earlier incarnation or
/// its fresh batches are acknowledged as duplicates and lost. Wall-clock
/// nanoseconds since the epoch give that without persisting anything on the
/// sender: no sender emits a batch per nanosecond, so one incarnation's
/// numbers stay below the next one's base — given a clock that does not step
/// back across the restart; [`send_batch`] turns the case where it did into
/// an error instead of a silent loss.
pub fn incarnation_seq_base() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64)
}

/// Sends batch `seq` to `dst` and waits; returns how many tuples the
/// receiver took. `resent` says an earlier send of this very batch failed
/// (it may have landed with only the ack lost) and is set when this one
/// fails. The ack is read by the same check as the dispatcher's in-flight
/// batches: a `deduped` answer that neither an earlier failed send nor a
/// retry of this one explains is a typed error (see
/// [`incarnation_seq_base`]).
pub fn send_batch(
    rpc: &RpcClient,
    dst: ServerId,
    seq: u64,
    tuples: Vec<Tuple>,
    resent: &mut bool,
) -> Result<u32> {
    BatchCall::start(rpc, dst, seq, tuples).finish(resent)
}

/// One `IngestBatch` on its way, with what reading its ack needs: the
/// link's `retried` count when it was started.
struct BatchCall {
    call: PendingCall,
    link: Arc<RpcStats>,
    retried: u64,
    src: ServerId,
    dst: ServerId,
    seq: u64,
}

impl BatchCall {
    fn start(rpc: &RpcClient, dst: ServerId, seq: u64, tuples: Vec<Tuple>) -> Self {
        let link = rpc.transport().stats().link(rpc.src(), dst);
        let retried = link.retried.load(Ordering::Relaxed);
        Self {
            call: rpc.start(dst, Request::IngestBatch { seq, tuples }),
            link,
            retried,
            src: rpc.src(),
            dst,
            seq,
        }
    }

    /// The ack, waiting for it if it is not in yet.
    ///
    /// A `deduped` ack means the receiver already holds `seq` or younger
    /// from this sender. Only an earlier delivery of this batch explains
    /// that: an earlier failed send (`resent`) or a retry of this one (the
    /// link's `retried` counter moved since it started). With neither, the
    /// numbering collides with a previous incarnation's — its clock ran
    /// ahead of this sender's [`incarnation_seq_base`] — and the receiver
    /// has just dropped fresh tuples: that is a typed error, never an
    /// acknowledged loss.
    fn finish(self, resent: &mut bool) -> Result<u32> {
        let acked = self.call.wait().and_then(Response::into_ack_batch);
        let redelivered = *resent || self.link.retried.load(Ordering::Relaxed) != self.retried;
        match acked {
            Ok((_, true)) if !redelivered => Err(WwError::InvalidState(format!(
                "{:?} dropped batch {} from {:?} as a redelivery, but it was never sent \
                 before: batch numbering restarted below an earlier incarnation's (did the \
                 clock step back?)",
                self.dst, self.seq, self.src
            ))),
            Ok((n, _)) => Ok(n),
            Err(e) => {
                *resent = true;
                Err(e)
            }
        }
    }
}

/// `dispatcher.*`, one set per dispatcher: tuples and batch envelopes
/// acknowledged, tuples accepted but not yet acknowledged, batches on the
/// wire now, batches that coalesced past `ingest_batch_size`, and linger
/// sweeps over its links.
impl Counters for Dispatcher {
    fn visit(&self, f: &mut dyn FnMut(&str, u64)) {
        f("dispatched", self.dispatched());
        f("batches_sent", self.batches_sent());
        f("pending", self.pending());
        f("in_flight", self.in_flight());
        f("coalesced", self.coalesced());
        f("linger_sweeps", self.linger_sweeps());
    }
}

/// One window of key-frequency statistics.
#[derive(Debug, Default, Clone)]
pub struct SampleWindow {
    /// Tuples routed per indexing server in this window.
    pub per_server: HashMap<ServerId, u64>,
    /// Reservoir sample of routed keys.
    pub keys: Vec<Key>,
    /// Total tuples observed (≥ `keys.len()`).
    pub observed: u64,
}

struct Sampler {
    window: SampleWindow,
    rng_state: u64,
}

impl Sampler {
    /// Records one acknowledged batch routed to `server`: its size once in
    /// `per_server`, each key into the reservoir.
    fn record(&mut self, server: ServerId, tuples: &[Tuple]) {
        if !tuples.is_empty() {
            *self.window.per_server.entry(server).or_insert(0) += tuples.len() as u64;
        }
        for t in tuples {
            self.sample(t.key);
        }
    }

    fn sample(&mut self, key: Key) {
        let w = &mut self.window;
        w.observed += 1;
        if w.keys.len() < RESERVOIR_CAP {
            w.keys.push(key);
        } else {
            // Vitter's algorithm R. The LCG's raw low bits are weak, so
            // finalize with a SplitMix64-style mix, then reduce into
            // [0, observed) with Lemire's widening multiply — unbiased for
            // any bound, unlike `state % observed`.
            self.rng_state = self
                .rng_state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = waterwheel_core::mix64(self.rng_state);
            let j = ((x as u128 * w.observed as u128) >> 64) as u64;
            if (j as usize) < RESERVOIR_CAP {
                w.keys[j as usize] = key;
            }
        }
    }
}

/// One (dispatcher, destination) link.
struct Link {
    /// Tuples accepted for this link and not yet acknowledged: buffered,
    /// in flight, or in a failed batch. Kept beside the mutex — which a
    /// wait for the wire may hold — so `pending()` and every stats scrape
    /// read it without waiting on the wire.
    unacked: AtomicU64,
    state: Mutex<DestState>,
}

impl Link {
    fn lock(&self) -> MutexGuard<'_, DestState> {
        self.state.lock()
    }
}

/// A link's batches. One mutex guards them all, so the link's batches
/// leave in sequence order and one at a time — the invariant the
/// receiver's dedup relies on.
#[derive(Default)]
struct DestState {
    /// Tuples accepted but not yet part of a sent batch.
    buffer: Vec<Tuple>,
    /// When the oldest tuple in `buffer` arrived (linger clock).
    first_buffered_at: Option<Instant>,
    /// The batch sent and not yet acknowledged, under its sequence number:
    /// on the wire while `in_flight` is set, otherwise failed — and
    /// retried under its original number before anything younger leaves.
    pending: Option<(u64, Vec<Tuple>)>,
    /// The call carrying `pending` while it is on the wire.
    in_flight: Option<BatchCall>,
    /// Whether a send of `pending` already failed (see [`BatchCall::finish`]).
    resent: bool,
    /// Next batch sequence number for this destination; starts at the
    /// dispatcher's [`incarnation_seq_base`].
    next_seq: u64,
}

impl DestState {
    /// When the linger flusher must look at this link next: a pending
    /// batch — an answer to collect, or a failed send to retry — one linger
    /// from `now`, a buffer one linger after its oldest tuple arrived.
    fn deadline(&self, now: Instant) -> Option<Instant> {
        if self.pending.is_some() {
            Some(now + INGEST_LINGER)
        } else {
            self.first_buffered_at.map(|t| t + INGEST_LINGER)
        }
    }
}

/// A dispatcher instance.
pub struct Dispatcher {
    id: ServerId,
    rpc: RpcClient,
    schema: RwLock<PartitionSchema>,
    sampler: Mutex<Sampler>,
    batch_size: usize,
    seq_base: u64,
    dests: Mutex<HashMap<ServerId, Arc<Link>>>,
    dispatched: AtomicU64,
    batches_sent: AtomicU64,
    in_flight: AtomicU64,
    coalesced: AtomicU64,
    linger_sweeps: AtomicU64,
    /// The linger flusher sweeping this dispatcher, if one runs.
    linger: RwLock<Option<Arc<LingerPark>>>,
}

impl Dispatcher {
    /// Creates a dispatcher routing tuples under `schema`, sending each to
    /// its indexing server over `rpc`, batching per `cfg`.
    pub fn new(id: ServerId, rpc: RpcClient, schema: PartitionSchema, cfg: &SystemConfig) -> Self {
        Self {
            id,
            rpc,
            schema: RwLock::new(schema),
            sampler: Mutex::new(Sampler {
                window: SampleWindow::default(),
                rng_state: 0x2545F4914F6CDD1D ^ id.raw() as u64,
            }),
            batch_size: cfg.ingest_batch_size.max(1),
            seq_base: incarnation_seq_base(),
            dests: Mutex::new(HashMap::new()),
            dispatched: AtomicU64::new(0),
            batches_sent: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            linger_sweeps: AtomicU64::new(0),
            linger: RwLock::new(None),
        }
    }

    /// This dispatcher's id.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// Total tuples acknowledged by their indexing server since creation.
    pub fn dispatched(&self) -> u64 {
        self.dispatched.load(Ordering::Relaxed)
    }

    /// Batch envelopes acknowledged since creation.
    pub fn batches_sent(&self) -> u64 {
        self.batches_sent.load(Ordering::Relaxed)
    }

    /// Tuples those batches carried — every acknowledged tuple rides one.
    pub fn batch_tuples(&self) -> u64 {
        self.dispatched()
    }

    /// Batches on the wire now (at most one per destination).
    pub fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::Relaxed)
    }

    /// Acknowledged batches larger than `ingest_batch_size`: tuples that
    /// coalesced behind an in-flight batch.
    pub fn coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    /// Times a linger flusher swept this dispatcher's links.
    pub fn linger_sweeps(&self) -> u64 {
        self.linger_sweeps.load(Ordering::Relaxed)
    }

    /// Tells this dispatcher which linger flusher sweeps it, so a dispatch
    /// that gives an idle link a deadline can wake that flusher.
    pub fn attach_linger(&self, park: &Arc<LingerPark>) {
        *self.linger.write() = Some(Arc::clone(park));
    }

    /// Tuples accepted by [`dispatch`](Self::dispatch) but not yet
    /// acknowledged by their indexing server (buffered, in flight, or in a
    /// failed batch awaiting retry). Never waits on the wire.
    pub fn pending(&self) -> u64 {
        let dests = self.dests.lock();
        dests
            .values()
            .map(|l| l.unacked.load(Ordering::Relaxed))
            .sum()
    }

    fn link(&self, dest: ServerId) -> Arc<Link> {
        Arc::clone(self.dests.lock().entry(dest).or_insert_with(|| {
            Arc::new(Link {
                unacked: AtomicU64::new(0),
                state: Mutex::new(DestState {
                    next_seq: self.seq_base,
                    ..DestState::default()
                }),
            })
        }))
    }

    fn links(&self) -> Vec<(ServerId, Arc<Link>)> {
        let dests = self.dests.lock();
        dests.iter().map(|(&id, l)| (id, Arc::clone(l))).collect()
    }

    /// Puts the failed batch — or, with none, the whole buffer as the next
    /// batch — on the wire, and collects its answer on the spot if the
    /// plane answered before `start` returned. The link must be idle.
    fn send_next(&self, dest: ServerId, link: &Link, st: &mut DestState) -> Result<()> {
        if st.pending.is_none() {
            let tuples = std::mem::take(&mut st.buffer);
            st.first_buffered_at = None;
            st.pending = Some((st.next_seq, tuples));
            st.resent = false;
            st.next_seq += 1;
        }
        let (seq, tuples) = st.pending.as_ref().expect("pending set above");
        let call = BatchCall::start(&self.rpc, dest, *seq, tuples.clone());
        let answered = call.call.answered_at_start();
        st.in_flight = Some(call);
        self.in_flight.fetch_add(1, Ordering::Relaxed);
        if answered {
            self.collect(dest, link, st, true)?;
        }
        Ok(())
    }

    /// Collects the link's in-flight answer if it is in — or, with `wait`,
    /// once it is. On failure the batch stays pending under its original
    /// seq: the first attempt may have landed with only the ack lost, and a
    /// renumbered resend would slip past the receiver's dedup.
    fn collect(&self, dest: ServerId, link: &Link, st: &mut DestState, wait: bool) -> Result<()> {
        let Some(call) = st.in_flight.take_if(|c| wait || c.call.is_ready()) else {
            return Ok(());
        };
        let acked = call.finish(&mut st.resent);
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
        acked?;
        let (_, tuples) = st
            .pending
            .take()
            .expect("a call in flight carries `pending`");
        let n = tuples.len() as u64;
        self.batches_sent.fetch_add(1, Ordering::Relaxed);
        if tuples.len() > self.batch_size {
            self.coalesced.fetch_add(1, Ordering::Relaxed);
        }
        self.dispatched.fetch_add(n, Ordering::Relaxed);
        link.unacked.fetch_sub(n, Ordering::Relaxed);
        self.sampler.lock().record(dest, &tuples);
        Ok(())
    }

    /// Sends everything batched for `dest` — the in-flight answer first,
    /// then a failed batch, then the buffer. With `wait` every answer is
    /// waited for; without, this stops at the first one still on the wire.
    /// Leaves state intact on failure so the next flush resumes where this
    /// one stopped.
    fn send_all(&self, dest: ServerId, link: &Link, st: &mut DestState, wait: bool) -> Result<()> {
        loop {
            self.collect(dest, link, st, wait)?;
            if st.in_flight.is_some() || (st.pending.is_none() && st.buffer.is_empty()) {
                return Ok(());
            }
            self.send_next(dest, link, st)?;
        }
    }

    /// Routes one tuple to its indexing server. The tuple is buffered and
    /// the call only touches the plane when its link's batch fills — at
    /// `ingest_batch_size` on an idle link, at the coalescing cap behind an
    /// in-flight batch, whose answer it then waits for. Errors surface on
    /// the call that collects or sends (and stick until
    /// [`flush_batches`](Self::flush_batches) succeeds). Routing to a
    /// server with no address on the plane fails loudly (unreachable),
    /// never silently drops.
    ///
    /// A dispatch that leaves an idle link with something for the linger
    /// flusher to do wakes the flusher if it sleeps past that; the wake
    /// happens after the link lock is released.
    pub fn dispatch(&self, tuple: Tuple) -> Result<()> {
        let server = self.schema.read().route(tuple.key);
        let link = self.link(server);
        let mut st = link.lock();
        let idle = st.first_buffered_at.is_none() && st.pending.is_none();
        st.buffer.push(tuple);
        link.unacked.fetch_add(1, Ordering::Relaxed);
        if st.first_buffered_at.is_none() {
            st.first_buffered_at = Some(Instant::now());
        }
        let sent = (|| {
            if st.in_flight.is_some() && st.buffer.len() >= self.batch_size * COALESCE_FACTOR {
                self.collect(server, &link, &mut st, true)?;
            }
            while st.in_flight.is_none() && st.buffer.len() >= self.batch_size {
                self.send_next(server, &link, &mut st)?;
            }
            Ok(())
        })();
        let deadline = st.deadline(Instant::now()).filter(|_| idle);
        drop(st);
        if let Some(at) = deadline {
            if let Some(park) = &*self.linger.read() {
                park.poke(at);
            }
        }
        sent
    }

    /// Sends every buffered, failed or in-flight batch now, regardless of
    /// age, and waits for their answers. Tests and shutdown paths call
    /// this to make the stream fully visible.
    pub fn flush_batches(&self) -> Result<()> {
        for (id, link) in self.links() {
            self.send_all(id, &link, &mut link.lock(), true)?;
        }
        Ok(())
    }

    /// Collects in-flight answers that are in, then — on an idle link —
    /// sends partial batches older than [`INGEST_LINGER`] (and retries any
    /// failed batch). The background linger flusher calls this so a
    /// trickling stream becomes visible without filling a batch. It never
    /// waits for an answer still on the wire: that would hold the link
    /// against its producer for a round trip.
    ///
    /// Sweeps every link even when one fails, and returns the earliest
    /// deadline left — a buffer's oldest tuple plus the linger, or one
    /// linger from now for a batch still pending — or the first error.
    pub fn flush_lingering(&self) -> Result<Option<Instant>> {
        self.flush_lingering_at(Instant::now())
    }

    /// [`Self::flush_lingering`] as of `now`.
    fn flush_lingering_at(&self, now: Instant) -> Result<Option<Instant>> {
        self.linger_sweeps.fetch_add(1, Ordering::Relaxed);
        let (mut next, mut first_err) = (None::<Instant>, None);
        for (id, link) in self.links() {
            let mut st = link.lock();
            let mut sweep = || {
                self.collect(id, &link, &mut st, false)?;
                let overdue = st.pending.is_some()
                    || st
                        .first_buffered_at
                        .is_some_and(|t| now >= t + INGEST_LINGER);
                if overdue {
                    self.send_all(id, &link, &mut st, false)?;
                }
                Ok(())
            };
            if let Err(e) = sweep() {
                first_err.get_or_insert(e);
            }
            if let Some(at) = st.deadline(now) {
                next = Some(next.map_or(at, |n| n.min(at)));
            }
        }
        first_err.map_or(Ok(next), Err)
    }

    /// Tells one indexing server to seal its in-memory state into chunks
    /// (the dispatcher→indexing control hop of the §V durability boundary);
    /// returns the sealed chunk ids.
    pub fn flush(&self, server: ServerId) -> Result<Vec<ChunkId>> {
        self.rpc.call(server, Request::Flush)?.into_flushed()
    }

    /// Installs a new partition schema (pushed by the balancer). Stale
    /// versions are ignored.
    pub fn update_schema(&self, schema: PartitionSchema) {
        let mut current = self.schema.write();
        if schema.version > current.version {
            *current = schema;
        }
    }

    /// The schema version currently routing tuples.
    pub fn schema_version(&self) -> u64 {
        self.schema.read().version
    }

    /// Takes and resets the current sampling window (balancer collection).
    pub fn take_window(&self) -> SampleWindow {
        let mut sampler = self.sampler.lock();
        std::mem::take(&mut sampler.window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waterwheel_core::KeyInterval;
    use waterwheel_mq::MessageQueue;
    use waterwheel_net::{FaultPlane, InProcTransport, Transport};

    /// Binds an ingest handler per indexing server that appends to its
    /// queue partition — the same wiring the system facade installs
    /// (minus dedup: these rigs inject no response loss).
    fn setup_with(
        servers: u32,
        batch_size: usize,
    ) -> (MessageQueue, Arc<InProcTransport>, Dispatcher) {
        let mq = MessageQueue::new();
        mq.create_topic("ingest", servers as usize).unwrap();
        let transport = Arc::new(InProcTransport::with_registry(None, Arc::default()));
        for partition in 0..servers as usize {
            let mq = mq.clone();
            transport
                .registry()
                .bind(ServerId(partition as u32), move |env| match &env.payload {
                    Request::IngestBatch { tuples, .. } => {
                        mq.append_batch("ingest", partition, tuples.clone())?;
                        Ok(Response::AckBatch {
                            tuples: tuples.len() as u32,
                            deduped: false,
                        })
                    }
                    _ => Ok(Response::Pong),
                });
        }
        let ids: Vec<ServerId> = (0..servers).map(ServerId).collect();
        let schema = PartitionSchema::uniform(&ids);
        let cfg = SystemConfig {
            ingest_batch_size: batch_size,
            ..SystemConfig::default()
        };
        let rpc = RpcClient::new(
            Arc::clone(&transport) as Arc<dyn Transport>,
            ServerId(100),
            &cfg,
        );
        let d = Dispatcher::new(ServerId(100), rpc, schema, &cfg);
        (mq, transport, d)
    }

    /// Batch-of-one rig: every dispatch is one envelope.
    fn setup(servers: u32) -> (MessageQueue, Arc<InProcTransport>, Dispatcher) {
        setup_with(servers, 1)
    }

    #[test]
    fn routes_by_schema() {
        let (mq, _t, d) = setup(2);
        // Uniform 2-way split of u64: low half → server 0.
        d.dispatch(Tuple::bare(0, 1)).unwrap();
        d.dispatch(Tuple::bare(u64::MAX, 2)).unwrap();
        assert_eq!(mq.latest_offset("ingest", 0).unwrap(), 1);
        assert_eq!(mq.latest_offset("ingest", 1).unwrap(), 1);
        assert_eq!(d.dispatched(), 2);
    }

    #[test]
    fn every_dispatch_crosses_the_message_plane() {
        let (_mq, t, d) = setup(2);
        for i in 0..10u64 {
            d.dispatch(Tuple::bare(i, i)).unwrap();
        }
        let totals = t.stats().totals();
        assert_eq!(totals.sent, 10);
        assert!(totals.bytes > 0);
    }

    #[test]
    fn batched_dispatch_coalesces_envelopes() {
        let (mq, t, d) = setup_with(2, 16);
        // All keys in the low half → one destination → full batches only.
        for i in 0..160u64 {
            d.dispatch(Tuple::bare(i, i)).unwrap();
        }
        assert_eq!(mq.latest_offset("ingest", 0).unwrap(), 160);
        assert_eq!(d.dispatched(), 160);
        assert_eq!(d.batches_sent(), 10);
        assert_eq!(d.batch_tuples(), 160);
        assert_eq!(d.pending(), 0);
        let totals = t.stats().totals();
        assert_eq!(totals.sent, 10, "160 tuples must ride 10 envelopes");
    }

    #[test]
    fn partial_batches_wait_until_flushed() {
        let (mq, _t, d) = setup_with(2, 64);
        for i in 0..5u64 {
            d.dispatch(Tuple::bare(i, i)).unwrap();
        }
        // Nothing sent yet: the batch has not filled.
        assert_eq!(d.dispatched(), 0);
        assert_eq!(d.pending(), 5);
        assert_eq!(mq.latest_offset("ingest", 0).unwrap(), 0);
        d.flush_batches().unwrap();
        assert_eq!(d.dispatched(), 5);
        assert_eq!(d.pending(), 0);
        assert_eq!(mq.latest_offset("ingest", 0).unwrap(), 5);
    }

    #[test]
    fn lingering_flush_sends_only_overdue_buffers() {
        let (mq, _t, d) = setup_with(2, 64);
        let before = Instant::now();
        d.dispatch(Tuple::bare(1, 1)).unwrap();
        // A fresh buffer is younger than the linger: swept as of before it
        // arrived, it stays, and its deadline is one linger after it.
        let due = d.flush_lingering_at(before).unwrap();
        assert!(due.is_some_and(|at| at >= before + INGEST_LINGER));
        assert_eq!(mq.latest_offset("ingest", 0).unwrap(), 0);
        std::thread::sleep(INGEST_LINGER * 2);
        assert_eq!(
            d.flush_lingering().unwrap(),
            None,
            "nothing left to wait for"
        );
        assert_eq!(mq.latest_offset("ingest", 0).unwrap(), 1);
        assert_eq!(d.dispatched(), 1);
    }

    /// The linger flusher sends a lone buffered tuple one linger after it
    /// arrived — not before, and not much later — and never sweeps while
    /// nothing is buffered: it sleeps until a dispatch opens a buffer.
    #[test]
    fn the_linger_flusher_wakes_only_for_a_due_tuple() {
        let (mq, _t, d) = setup_with(2, 64);
        let d = Arc::new(d);
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flusher = crate::roles::spawn_linger_flusher(vec![Arc::clone(&d)], &stop);
        let idle = |what: &str| {
            let swept = d.linger_sweeps();
            std::thread::sleep(INGEST_LINGER * 100);
            assert_eq!(d.linger_sweeps(), swept, "the flusher woke {what}");
        };
        while d.linger_sweeps() == 0 {
            std::thread::yield_now();
        }
        idle("before anything was buffered");
        let mut lags = Vec::new();
        for i in 0..20u64 {
            let swept = d.linger_sweeps();
            let sent = Instant::now();
            d.dispatch(Tuple::bare(i, i)).unwrap();
            while mq.latest_offset("ingest", 0).unwrap() == i {
                assert!(
                    sent.elapsed() < Duration::from_secs(10),
                    "tuple {i} never left"
                );
                std::thread::yield_now();
            }
            lags.push(sent.elapsed());
            // One sweep on the wake, one at the deadline; a third if the
            // park until the deadline returns early.
            assert!(
                d.linger_sweeps() - swept <= 3,
                "{}",
                d.linger_sweeps() - swept
            );
        }
        idle("with nothing buffered");
        lags.sort();
        assert!(
            lags[0] >= INGEST_LINGER,
            "sent before its linger: {:?}",
            lags[0]
        );
        assert!(
            lags[lags.len() / 2] < INGEST_LINGER * 10,
            "median lag {:?}",
            lags[lags.len() / 2]
        );
        crate::roles::stop_threads(&stop, [flusher]);
        assert_eq!(d.dispatched(), 20);
    }

    #[test]
    fn batch_sequence_numbers_are_per_destination_and_monotonic() {
        let (_mq, _t, d) = setup_with(2, 4);
        // Spread across both destinations; each numbers its own batches
        // base, base+1, base+2, ...
        for i in 0..32u64 {
            d.dispatch(Tuple::bare(if i % 2 == 0 { 0 } else { u64::MAX }, i))
                .unwrap();
        }
        let dests = d.dests.lock();
        for st in dests.values() {
            assert_eq!(st.lock().next_seq, d.seq_base + 4, "16 tuples / batch of 4");
        }
    }

    /// A receiver whose queue partition holds a marker (from its journal)
    /// above this dispatcher's base — the previous incarnation's clock ran
    /// ahead — drops the fresh batch as a redelivery. The dispatcher must report
    /// that on every flush and keep the tuples, not count them delivered;
    /// a batch the plane really redelivered is still acknowledged quietly.
    #[test]
    fn a_seq_base_below_the_receivers_marker_is_an_error_not_a_silent_drop() {
        let (mq, t, mut d) = setup_with(1, 4);
        d.seq_base = 1_000;
        let (src, ix) = (ServerId(100), ServerId(0));
        let queue = mq.clone();
        t.registry().bind(ix, move |env| match &env.payload {
            Request::IngestBatch { seq, tuples } => {
                let first =
                    queue.append_batch_from("ingest", 0, env.src.raw(), *seq, tuples.clone())?;
                Ok(Response::AckBatch {
                    tuples: tuples.len() as u32,
                    deduped: first.is_none(),
                })
            }
            _ => Ok(Response::Pong),
        });
        mq.append_batch_from("ingest", 0, src.raw(), 5_000, Vec::new())
            .unwrap();
        for i in 0..3u64 {
            d.dispatch(Tuple::bare(i, i)).unwrap();
        }
        let err = d.dispatch(Tuple::bare(3, 3)).unwrap_err();
        assert!(matches!(err, WwError::InvalidState(_)), "{err:?}");
        assert!(d.flush_batches().is_err(), "the collision must stay loud");
        assert_eq!((d.dispatched(), d.pending()), (0, 4));
        assert_eq!(mq.latest_offset("ingest", 0).unwrap(), 0);

        // Same receiver, numbering above the marker, every first ack lost:
        // the RPC layer's retry is answered `deduped` and that is fine.
        d.seq_base = 6_000;
        d.dests.lock().clear();
        let faults = Arc::new(FaultPlane::new(Arc::clone(&t) as Arc<dyn Transport>));
        let plane = Arc::clone(&faults) as Arc<dyn Transport>;
        d.rpc = RpcClient::new(plane, src, &SystemConfig::default());
        faults.set_link_profile(
            src,
            ix,
            waterwheel_net::LinkProfile {
                response_loss: 1.0,
                ..Default::default()
            },
        );
        for i in 0..4u64 {
            let _ = d.dispatch(Tuple::bare(i, i));
        }
        faults.clear_faults();
        d.flush_batches().unwrap();
        assert_eq!((d.dispatched(), d.pending()), (4, 0));
        assert_eq!(mq.latest_offset("ingest", 0).unwrap(), 4, "applied once");
        let drops = mq.dedup_stats().dedup_drops.load(Ordering::Relaxed);
        assert!(drops > 2, "collision drops plus the redelivery");
    }

    #[test]
    fn sampling_window_counts_and_resets() {
        let (_mq, _t, d) = setup(2);
        for i in 0..100u64 {
            d.dispatch(Tuple::bare(i, i)).unwrap(); // all low half
        }
        let w = d.take_window();
        assert_eq!(w.observed, 100);
        assert_eq!(w.per_server.get(&ServerId(0)), Some(&100));
        assert_eq!(w.keys.len(), 100);
        // Window resets.
        let w2 = d.take_window();
        assert_eq!(w2.observed, 0);
    }

    #[test]
    fn reservoir_caps_memory_but_keeps_sampling() {
        let (_mq, _t, d) = setup(2);
        for i in 0..(RESERVOIR_CAP as u64 * 3) {
            d.dispatch(Tuple::bare(i % 1_000, i)).unwrap();
        }
        let w = d.take_window();
        assert_eq!(w.keys.len(), RESERVOIR_CAP);
        assert_eq!(w.observed, RESERVOIR_CAP as u64 * 3);
    }

    #[test]
    fn reservoir_stays_uniform_over_a_skewed_stream() {
        // Feed an ordered (maximally skewed-in-time) stream several times
        // the reservoir size and check every quarter of the stream keeps
        // roughly its fair share of reservoir slots. The old
        // `(state >> 16) % observed` reduction had modulo bias toward low
        // indices (over-evicting early survivors) on top of weak low LCG
        // bits; the mixed widening-multiply draw passes comfortably.
        let mut s = Sampler {
            window: SampleWindow::default(),
            rng_state: 0x2545F4914F6CDD1D,
        };
        let n = RESERVOIR_CAP as u64 * 16;
        for i in 0..n {
            s.sample(i);
        }
        let w = &s.window;
        assert_eq!(w.keys.len(), RESERVOIR_CAP);
        let mut quarters = [0usize; 4];
        for &k in &w.keys {
            quarters[(k * 4 / n) as usize] += 1;
        }
        let expected = RESERVOIR_CAP / 4;
        for (q, &count) in quarters.iter().enumerate() {
            assert!(
                count > expected / 2 && count < expected * 2,
                "quarter {q} holds {count} of {RESERVOIR_CAP} slots (expected ~{expected})"
            );
        }
    }

    #[test]
    fn schema_updates_apply_only_forward() {
        let (_mq, _t, d) = setup(2);
        let ids: Vec<ServerId> = (0..2).map(ServerId).collect();
        let mut newer = PartitionSchema::from_boundaries(&[10], &ids, 5).unwrap();
        d.update_schema(newer.clone());
        assert_eq!(d.schema_version(), 5);
        // A stale schema (lower version) is ignored.
        newer.version = 2;
        d.update_schema(newer);
        assert_eq!(d.schema_version(), 5);
        // Routing follows the new boundaries.
        d.dispatch(Tuple::bare(9, 0)).unwrap();
        d.dispatch(Tuple::bare(10, 0)).unwrap();
        let w = d.take_window();
        assert_eq!(w.per_server.get(&ServerId(0)), Some(&1));
        assert_eq!(w.per_server.get(&ServerId(1)), Some(&1));
    }

    fn unbound_rig(batch_size: usize) -> Dispatcher {
        let transport = Arc::new(InProcTransport::with_registry(None, Arc::default()));
        let schema = PartitionSchema::uniform(&[ServerId(0)]);
        let cfg = SystemConfig {
            ingest_batch_size: batch_size,
            ..SystemConfig::default()
        };
        let rpc = RpcClient::new(transport as Arc<dyn Transport>, ServerId(100), &cfg);
        Dispatcher::new(ServerId(100), rpc, schema, &cfg)
    }

    #[test]
    fn unbound_destination_is_an_error() {
        // A schema routing to a server with no address on the plane must
        // fail loudly, not silently drop.
        let d = unbound_rig(1);
        assert!(d.dispatch(Tuple::bare(1, 1)).is_err());
    }

    #[test]
    fn failed_sends_never_reach_the_sampling_window() {
        // Regression: the sampler used to record *before* the RPC, so
        // tuples that never reached their server still inflated that
        // server's load in the balancer's eyes while `dispatched` stayed
        // put. Only acknowledged tuples may count.
        let d = unbound_rig(1);
        assert!(d.dispatch(Tuple::bare(1, 1)).is_err());
        assert_eq!(d.dispatched(), 0);
        assert_eq!(d.take_window().observed, 0, "unacked tuple was sampled");

        // Batched path: the flush fails, tuples stay pending, window stays
        // empty until an ack actually arrives.
        let d = unbound_rig(4);
        for i in 0..3u64 {
            d.dispatch(Tuple::bare(i, i)).unwrap(); // buffered, no plane hop
        }
        assert!(d.dispatch(Tuple::bare(3, 3)).is_err(), "flush must fail");
        assert!(d.flush_batches().is_err());
        assert_eq!(d.dispatched(), 0);
        assert_eq!(d.pending(), 4, "failed batch is retained, not dropped");
        assert_eq!(d.take_window().observed, 0, "unacked batch was sampled");

        // In flight: delivered, but not acknowledged until its answer is
        // collected — and only then sampled.
        let rig = held::rig(4);
        for i in 0..5u64 {
            rig.d.dispatch(Tuple::bare(i, i)).unwrap();
        }
        assert_eq!(rig.mq.latest_offset("ingest", 0).unwrap(), 4, "delivered");
        assert_eq!(
            rig.d.take_window().observed,
            0,
            "in-flight batch was sampled"
        );
        rig.gate.release(u64::MAX);
        rig.d.flush_batches().unwrap();
        assert_eq!(rig.d.take_window().observed, 5, "sampled on the acks");
    }

    #[test]
    fn full_domain_keys_route_without_panic() {
        let (_mq, _t, d) = setup(3);
        for key in [0u64, 1, u64::MAX / 3, u64::MAX / 2, u64::MAX - 1, u64::MAX] {
            d.dispatch(Tuple::bare(key, 0)).unwrap();
        }
        let _ = KeyInterval::full();
    }

    /// A plane whose answers the test holds: every handler runs at
    /// `start`, but the `Pending` it returns stays unready — and its `wait`
    /// blocks — until [`Gate::release`] covers its ticket (started calls
    /// are numbered from 0). A ticket marked [`Gate::lose`] answers with a
    /// timeout after its handler ran: a lost ack.
    mod held {
        use super::*;
        use std::sync::{Condvar, Mutex as StdMutex, MutexGuard as StdGuard};
        use waterwheel_net::{Pending, PendingAnswer, RpcStatsRegistry};

        #[derive(Default)]
        pub struct Gate {
            st: StdMutex<GateState>,
            cv: Condvar,
        }

        #[derive(Default)]
        struct GateState {
            started: u64,
            released: u64,
            waiting: u64,
            lost: Vec<u64>,
        }

        impl Gate {
            fn lock(&self) -> StdGuard<'_, GateState> {
                self.st.lock().unwrap()
            }

            /// Lets the answers of tickets `< upto` through.
            pub fn release(&self, upto: u64) {
                self.lock().released = upto;
                self.cv.notify_all();
            }

            pub fn lose(&self, ticket: u64) {
                self.lock().lost.push(ticket);
            }

            /// Blocks until some sender is waiting on a held answer.
            pub fn await_waiter(&self) {
                let mut st = self.lock();
                while st.waiting == 0 {
                    st = self.cv.wait(st).unwrap();
                }
            }
        }

        struct Held {
            inner: Arc<InProcTransport>,
            gate: Arc<Gate>,
        }

        impl Transport for Held {
            fn start(&self, env: &waterwheel_net::Envelope) -> Pending {
                let answer = self.inner.send(env);
                let mut st = self.gate.lock();
                st.started += 1;
                Pending::awaiting(HeldAnswer {
                    ticket: st.started - 1,
                    gate: Arc::clone(&self.gate),
                    answer,
                })
            }

            fn stats(&self) -> &Arc<RpcStatsRegistry> {
                self.inner.stats()
            }
        }

        struct HeldAnswer {
            ticket: u64,
            gate: Arc<Gate>,
            answer: Result<Response>,
        }

        impl PendingAnswer for HeldAnswer {
            fn is_ready(&self) -> bool {
                self.gate.lock().released > self.ticket
            }

            fn wait(self: Box<Self>) -> Result<Response> {
                let mut st = self.gate.lock();
                st.waiting += 1;
                self.gate.cv.notify_all();
                while st.released <= self.ticket {
                    st = self.gate.cv.wait(st).unwrap();
                }
                st.waiting -= 1;
                if st.lost.contains(&self.ticket) {
                    return Err(WwError::Timeout("ack held, then lost"));
                }
                self.answer
            }
        }

        pub struct Rig {
            pub mq: MessageQueue,
            pub gate: Arc<Gate>,
            /// `(destination, seq, tuples)` of every delivery, in order.
            pub seen: Arc<Mutex<Vec<(ServerId, u64, usize)>>>,
            pub sent: Arc<InProcTransport>,
            pub d: Dispatcher,
        }

        /// Two destinations (keys below `u64::MAX / 2` go to server 0)
        /// behind exactly-once ingest handlers, no RPC retries.
        pub fn rig(batch_size: usize) -> Rig {
            let mq = MessageQueue::new();
            mq.create_topic("ingest", 2).unwrap();
            let inner = Arc::new(InProcTransport::with_registry(None, Arc::default()));
            let seen = Arc::new(Mutex::new(Vec::new()));
            for partition in 0..2usize {
                let ix = ServerId(partition as u32);
                let (mq, seen) = (mq.clone(), Arc::clone(&seen));
                inner.registry().bind(ix, move |env| match &env.payload {
                    Request::IngestBatch { seq, tuples } => {
                        seen.lock().push((ix, *seq, tuples.len()));
                        let (src, batch) = (env.src.raw(), tuples.clone());
                        let first = mq.append_batch_from("ingest", partition, src, *seq, batch)?;
                        Ok(Response::AckBatch {
                            tuples: tuples.len() as u32,
                            deduped: first.is_none(),
                        })
                    }
                    _ => Ok(Response::Pong),
                });
            }
            let gate = Arc::new(Gate::default());
            let cfg = SystemConfig {
                ingest_batch_size: batch_size,
                rpc_retries: 0,
                ..SystemConfig::default()
            };
            let plane = Held {
                inner: Arc::clone(&inner),
                gate: Arc::clone(&gate),
            };
            let rpc = RpcClient::new(Arc::new(plane), ServerId(100), &cfg);
            let schema = PartitionSchema::uniform(&[ServerId(0), ServerId(1)]);
            Rig {
                mq,
                gate,
                seen,
                sent: inner,
                d: Dispatcher::new(ServerId(100), rpc, schema, &cfg),
            }
        }

        impl Rig {
            pub fn envelopes(&self) -> u64 {
                self.sent.stats().totals().sent
            }

            pub fn scrape(&self) -> HashMap<String, u64> {
                let mut rows = HashMap::new();
                self.d.visit(&mut |name, v| {
                    rows.insert(name.to_owned(), v);
                });
                rows
            }
        }
    }

    #[test]
    fn a_busy_link_sends_nothing_until_the_cap_whenever_its_answer_arrives() {
        let rig = held::rig(4);
        let d = &rig.d;
        let cap = 4 * COALESCE_FACTOR as u64;
        for i in 0..4u64 {
            d.dispatch(Tuple::bare(i, i)).unwrap();
        }
        assert_eq!((rig.envelopes(), d.in_flight()), (1, 1));
        // A second fill while the first batch is on the wire sends nothing.
        for i in 4..8u64 {
            d.dispatch(Tuple::bare(i, i)).unwrap();
        }
        assert_eq!(rig.envelopes(), 1, "a busy link must not send");
        assert_eq!(d.pending(), 8, "in flight plus buffered");
        // The other link is independent: its own first batch goes out.
        for i in 0..4u64 {
            d.dispatch(Tuple::bare(u64::MAX - i, i)).unwrap();
        }
        assert_eq!((rig.envelopes(), d.in_flight(), d.pending()), (2, 2, 12));
        // The answer coming in does not cut the next batch early: it
        // leaves at the cap, so batch boundaries are a function of the
        // tuple sequence, not of when acks arrive.
        rig.gate.release(1);
        for i in 8..4 + cap - 1 {
            d.dispatch(Tuple::bare(i, i)).unwrap();
        }
        assert_eq!(rig.envelopes(), 2);
        d.dispatch(Tuple::bare(99, 99)).unwrap();
        assert_eq!(
            (rig.envelopes(), d.dispatched(), d.batches_sent()),
            (3, 4, 1)
        );
        rig.gate.release(u64::MAX);
        d.flush_batches().unwrap();
        assert_eq!((d.pending(), d.in_flight()), (0, 0));
        assert_eq!((d.dispatched(), d.coalesced()), (4 + cap + 4, 1));
        // Consecutive per link from the dispatcher's base; sent in order.
        let b = d.seq_base;
        let seen = rig.seen.lock().clone();
        let (zero, one) = (ServerId(0), ServerId(1));
        assert_eq!(
            seen,
            vec![(zero, b, 4), (one, b, 4), (zero, b + 1, cap as usize)]
        );
        assert_eq!(rig.mq.latest_offset("ingest", 0).unwrap(), 4 + cap);
    }

    #[test]
    fn the_buffer_grows_to_the_cap_then_blocks_and_a_scrape_never_waits() {
        let rig = held::rig(4);
        let d = &rig.d;
        let cap = (4 * COALESCE_FACTOR) as u64;
        for i in 0..4 + cap - 1 {
            d.dispatch(Tuple::bare(i, i)).unwrap();
        }
        assert_eq!(rig.envelopes(), 1, "below the cap nothing waits or sends");
        let (blocked, scraped) = std::thread::scope(|s| {
            let producer = s.spawn(|| d.dispatch(Tuple::bare(99, 99)));
            // The producer holds the link's mutex while it waits.
            rig.gate.await_waiter();
            let blocked = !producer.is_finished();
            let (tx, rx) = std::sync::mpsc::channel();
            let rig = &rig;
            s.spawn(move || tx.send((rig.scrape(), rig.d.pending())).unwrap());
            let scraped = rx.recv_timeout(Duration::from_secs(10));
            // Released before anything is asserted: a failure must not
            // leave the scope joining a producer that waits forever.
            rig.gate.release(1);
            producer.join().unwrap().unwrap();
            (blocked, scraped)
        });
        assert!(blocked, "the dispatch at the cap must wait for the answer");
        let (rows, pending) = scraped.expect("a stats scrape waited on the wire");
        assert_eq!(pending, 4 + cap);
        assert_eq!((rows["pending"], rows["in_flight"]), (4 + cap, 1));
        assert_eq!(rows["coalesced"], 0);
        // The cap's worth left as the next batch once the answer was in.
        assert_eq!((rig.envelopes(), d.in_flight(), d.pending()), (2, 1, cap));
        rig.gate.release(u64::MAX);
        d.flush_batches().unwrap();
        let seen = rig.seen.lock().clone();
        let b = d.seq_base;
        assert_eq!(
            seen,
            vec![(ServerId(0), b, 4), (ServerId(0), b + 1, cap as usize)]
        );
        assert_eq!((d.coalesced(), d.pending()), (1, 0));
    }

    #[test]
    fn a_failed_in_flight_batch_keeps_its_seq_and_is_reported_by_dispatch_and_flush() {
        let rig = held::rig(4);
        let d = &rig.d;
        let cap = 4 * COALESCE_FACTOR as u64;
        rig.gate.lose(0);
        for i in 0..4 + cap - 1 {
            d.dispatch(Tuple::bare(i, i)).unwrap(); // answer not in: no error
        }
        // The dispatch that reaches the cap collects the lost ack.
        rig.gate.release(1);
        let err = d.dispatch(Tuple::bare(99, 99)).unwrap_err();
        assert!(matches!(err, WwError::Timeout(_)), "{err:?}");
        assert_eq!(
            (d.dispatched(), d.pending(), d.in_flight()),
            (0, 4 + cap, 0)
        );

        // The failed batch goes first, under its seq, and is in flight when
        // its ack is lost again: the flush reports it.
        rig.gate.lose(1);
        d.dispatch(Tuple::bare(100, 100)).unwrap();
        assert_eq!(d.in_flight(), 1);
        rig.gate.release(u64::MAX);
        let err = d.flush_batches().unwrap_err();
        assert!(matches!(err, WwError::Timeout(_)), "{err:?}");
        assert_eq!((d.dispatched(), d.pending()), (0, 5 + cap));
        d.flush_batches().unwrap();
        assert_eq!((d.dispatched(), d.pending()), (5 + cap, 0));

        let b = d.seq_base;
        let zero = ServerId(0);
        let seen = rig.seen.lock().clone();
        let rest = cap as usize + 1;
        assert_eq!(
            seen,
            vec![
                (zero, b, 4),
                (zero, b, 4),
                (zero, b, 4),
                (zero, b + 1, rest)
            ]
        );
        assert_eq!(
            rig.mq.latest_offset("ingest", 0).unwrap(),
            5 + cap,
            "once each"
        );
        assert_eq!(rig.mq.dedup_stats().dedup_drops.load(Ordering::Relaxed), 2);
    }
}
