//! Bounded retention (paper §V, Kafka's retention contract): once an
//! indexing server has registered a flush, its queue partition is trimmed
//! at the offset that flush made durable — in memory always, and in the
//! journal when the metadata holding that offset is durable too.
//!
//! * the queue's records and journal segments stay under a bound set by the
//!   chunk threshold, and a restart replays only the unflushed tail, however
//!   long the history;
//! * every crash point of a trim (register → sidecar temp → sidecar rename →
//!   segment unlinks), rebuilt on disk by hand, answers like the untrimmed
//!   twin, dedup markers included;
//! * volatile metadata never lets a trim touch the journal;
//! * a flush cut anywhere in its metadata exchange, or crashed between its
//!   registration and its trim, answers exactly its tuples before the
//!   crash and recovers to exactly them, and costs at most two metadata
//!   calls; a registration retried after a cut reuses the chunks written.
//!
//! Every assertion is on counts and answers, none on timing.

use std::fs;
use std::path::{Path, PathBuf};
use waterwheel::core::ServerId;
use waterwheel::net::{LinkProfile, Transport, META_SERVER};
use waterwheel::prelude::*;
use waterwheel::server::SystemMetrics;

fn fresh_root(name: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("ww-retention-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    root
}

const CHUNK_BYTES: usize = 16 * 1024;
const SEGMENT_BYTES: usize = 4 * 1024;

/// One indexing server, small chunks and journal segments.
fn cfg() -> SystemConfig {
    let mut cfg = SystemConfig::default();
    cfg.indexing_servers = 1;
    cfg.query_servers = 1;
    cfg.chunk_size_bytes = CHUNK_BYTES;
    cfg.wal_segment_bytes = SEGMENT_BYTES;
    cfg.ingest_batch_size = 32;
    cfg
}

fn tuple(i: u64) -> Tuple {
    Tuple::new(
        i.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        1_000 + i,
        i.to_le_bytes().to_vec(),
    )
}

fn all() -> Query {
    Query::range(KeyInterval::full(), TimeInterval::full())
}

/// Every answer of a full-range query, in a canonical order.
fn answer(ww: &Waterwheel) -> Vec<Tuple> {
    let mut tuples = ww.query(&all()).unwrap().tuples;
    tuples.sort_by(|a, b| (a.key, a.ts, &a.payload[..]).cmp(&(b.key, b.ts, &b.payload[..])));
    tuples
}

/// Sends the buffered batches and pumps the partition empty, a few records
/// at a time so the in-memory tree never overshoots the chunk threshold by
/// more than one small poll.
fn pump_all(ww: &Waterwheel) {
    ww.flush_ingest_batches().unwrap();
    while ww.pump_all(16).unwrap() > 0 {}
}

fn copy_dir(from: &Path, to: &Path) {
    fs::create_dir_all(to).unwrap();
    for entry in fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let target = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            fs::copy(entry.path(), target).unwrap();
        }
    }
}

/// The queue journal's segment files of partition 0, oldest first.
fn segments(queue: &Path) -> Vec<PathBuf> {
    let mut segs: Vec<PathBuf> = fs::read_dir(queue)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            let name = p.file_name().unwrap().to_str().unwrap();
            name.starts_with("ingest.0.") && name.ends_with(".wal")
        })
        .collect();
    segs.sort();
    segs
}

/// Streams `n` tuples through one durable server, checking after every
/// step that the queue holds less than one chunk's worth of records and
/// its journal a bounded number of segments. Returns the unflushed tail
/// left in the queue when the system is dropped.
fn stream_bounded(root: &Path, n: u64) -> u64 {
    let ww = Waterwheel::builder(root)
        .config(cfg())
        .durable_queue()
        .build()
        .unwrap();
    let per_chunk = CHUNK_BYTES.div_ceil(tuple(0).encoded_len()) as u64;
    // The tail spans at most a chunk of journal bytes, plus the segment
    // holding the trim point and the one being written.
    let max_segments = CHUNK_BYTES / SEGMENT_BYTES + 2;
    let mq = ww.message_queue();
    for step in (0..n).step_by(500) {
        for i in step..(step + 500).min(n) {
            ww.insert(tuple(i)).unwrap();
        }
        pump_all(&ww);
        let retained = mq.retained("ingest").unwrap() as u64;
        assert!(
            retained < per_chunk,
            "{retained} records retained after {step}: over a chunk's {per_chunk}"
        );
        let segs = segments(&root.join("queue")).len();
        assert!(
            segs <= max_segments,
            "{segs} journal segments after {step}, over {max_segments}"
        );
        let m = SystemMetrics::collect(&ww);
        assert_eq!(m.get("indexing.queue_retained"), retained);
        assert_eq!(m.get("indexing.queue_lag"), 0);
    }
    assert!(
        ww.metadata().chunk_count() as u64 * per_chunk >= n / 2,
        "the stream must have crossed the chunk threshold many times"
    );
    mq.retained("ingest").unwrap() as u64
}

#[test]
fn the_queue_stays_bounded_and_a_restart_replays_only_the_unflushed_tail() {
    // ≥ 20 × `chunk_size_bytes` of tuples, then ten times that.
    let once = 20 * CHUNK_BYTES as u64 / tuple(0).encoded_len() as u64;
    for history in [once, 10 * once] {
        let root = fresh_root(&format!("bounded-{history}"));
        let tail = stream_bounded(&root, history);
        let ww = Waterwheel::builder(&root)
            .config(cfg())
            .durable_queue()
            .build()
            .unwrap();
        // Open decodes the kept segment from its start but hands back, and
        // counts, only the tail above the trim point.
        let replayed = SystemMetrics::collect(&ww).get("wal.queue.replayed");
        assert_eq!(replayed, tail, "history {history}: replay is not the tail");
        ww.drain().unwrap();
        assert_eq!(ww.query(&all()).unwrap().tuples.len() as u64, history);
    }
}

/// The on-disk states a crash can leave while a trim runs, rebuilt from the
/// real artifacts of one: the journal before the trim, the sidecar it wrote
/// and the segments it unlinked. Each state is reopened as a whole system
/// and must answer exactly like the untrimmed twin (the state a kill right
/// after the chunk registration leaves), with the same dedup markers.
#[test]
fn every_crash_point_of_a_trim_answers_like_the_untrimmed_twin() {
    let (sealed, tail) = (2_000u64, 300u64);
    let mut c = cfg();
    c.chunk_size_bytes = 1 << 30; // only the explicit flush below seals
    c.wal_segment_bytes = 16 * 1024;
    let base = fresh_root("crash-points");
    let (live, untrimmed) = (base.join("live"), base.join("untrimmed-queue"));
    let markers = {
        let ww = Waterwheel::builder(&live)
            .config(c.clone())
            .durable_queue()
            .build()
            .unwrap();
        for i in 0..sealed + tail {
            ww.insert(tuple(i)).unwrap();
        }
        ww.flush_ingest_batches().unwrap();
        ww.sync_queue().unwrap();
        // Pump exactly what the flush seals; the tail stays queue-only.
        assert_eq!(ww.pump_all(sealed as usize).unwrap() as u64, sealed);
        copy_dir(&live.join("queue"), &untrimmed);
        ww.indexing_servers()[0].flush().unwrap();
        assert_eq!(ww.metadata().durable_offset(ServerId(0)), sealed);
        ww.message_queue().recovered_seqs("ingest", 0).unwrap()
    };
    let sidecar = fs::read(live.join("queue/ingest.0.trim")).unwrap();
    let kept = segments(&live.join("queue"));
    let unlinked: Vec<PathBuf> = segments(&untrimmed)
        .into_iter()
        .filter(|s| !kept.iter().any(|k| k.file_name() == s.file_name()))
        .collect();
    assert!(
        unlinked.len() >= 3,
        "the trim must have released several segments: {unlinked:?}"
    );

    // (state name, trim sidecar in place, temp left beside it, segments unlinked)
    let mut states = vec![
        ("registered", false, false, 0),
        ("sidecar-temp-written", false, true, 0),
    ];
    let unlinks: Vec<String> = (0..=unlinked.len())
        .map(|k| format!("unlinked-{k}"))
        .collect();
    for (k, name) in unlinks.iter().enumerate() {
        states.push((name.as_str(), true, false, k));
    }
    let mut twin = None;
    for (name, renamed, temp, k) in states {
        let root = base.join(name);
        copy_dir(&live, &root);
        let queue = root.join("queue");
        fs::remove_dir_all(&queue).unwrap();
        copy_dir(&untrimmed, &queue);
        if temp {
            fs::write(queue.join(".ingest.0.trim.999.0.tmp"), &sidecar).unwrap();
        }
        if renamed {
            fs::write(queue.join("ingest.0.trim"), &sidecar).unwrap();
        }
        for seg in &unlinked[..k] {
            fs::remove_file(queue.join(seg.file_name().unwrap())).unwrap();
        }
        let ww = Waterwheel::builder(&root)
            .config(c.clone())
            .durable_queue()
            .build()
            .unwrap();
        let mq = ww.message_queue();
        assert_eq!(
            mq.recovered_seqs("ingest", 0).unwrap(),
            markers,
            "{name}: dedup markers"
        );
        // Before the rename the old state stands and more replays; after
        // it, replay starts at the trim and the strays below are gone.
        let (trim, strays) = if renamed {
            (sealed, 0)
        } else {
            (0, unlinked.len())
        };
        assert_eq!(mq.trim_point("ingest", 0).unwrap(), trim, "{name}");
        let left = segments(&queue);
        assert!(
            unlinked[..]
                .iter()
                .filter(|s| left.iter().any(|l| l.file_name() == s.file_name()))
                .count()
                == strays,
            "{name}: segments below the kept one left behind"
        );
        assert!(!queue.join(".ingest.0.trim.999.0.tmp").exists(), "{name}");
        ww.drain().unwrap();
        let got = answer(&ww);
        assert_eq!(got.len() as u64, sealed + tail, "{name}");
        match &twin {
            None => twin = Some(got),
            Some(twin) => assert!(&got == twin, "{name} answers unlike the untrimmed twin"),
        }
    }
}

/// Volatile metadata forgets the offsets with the process, so the restart
/// replays the queue from offset 0: trims must free memory only, never a
/// journal byte.
#[test]
fn volatile_metadata_never_trims_the_journal() {
    let root = fresh_root("volatile-meta");
    let n = 5_000u64;
    {
        let ww = Waterwheel::builder(&root)
            .config(cfg())
            .volatile_metadata()
            .durable_queue()
            .build()
            .unwrap();
        for i in 0..n {
            ww.insert(tuple(i)).unwrap();
        }
        pump_all(&ww);
        assert!(ww.metadata().chunk_count() >= 5);
        let mq = ww.message_queue();
        assert!(
            (mq.retained("ingest").unwrap() as u64) < n / 5,
            "in-memory records are trimmed"
        );
        assert!(root.join("queue/ingest.0.00000000.wal").exists());
        assert!(!root.join("queue/ingest.0.trim").exists());
    }
    // The chunk files are orphans now: the metadata that named them died
    // with the process, and a fresh service hands out their ids again.
    fs::remove_dir_all(root.join("chunks")).unwrap();
    let ww = Waterwheel::builder(&root)
        .config(cfg())
        .volatile_metadata()
        .durable_queue()
        .build()
        .unwrap();
    let mq = ww.message_queue();
    assert_eq!(mq.trim_point("ingest", 0).unwrap(), 0);
    assert_eq!(mq.retained("ingest").unwrap() as u64, n);
    ww.drain().unwrap();
    assert_eq!(ww.query(&all()).unwrap().tuples.len() as u64, n);
}

/// What the indexing server `ix` has sent the metadata server so far.
fn meta_calls(ww: &Waterwheel, ix: ServerId) -> u64 {
    let stats = ww.transport().stats().per_link();
    let link = stats.iter().find(|(l, _)| *l == (ix, META_SERVER));
    link.map_or(0, |(_, t)| t.sent)
}

/// One indexing server holding 100 on-time and 20 side-stored tuples, so
/// its next flush writes a main and a side-store chunk.
fn with_side_chunk(name: &str, c: SystemConfig) -> Waterwheel {
    let ww = Waterwheel::builder(fresh_root(name))
        .config(c)
        .build()
        .unwrap();
    for i in 0..100u64 {
        ww.insert(Tuple::new(i, 100_000 + i, i.to_le_bytes().to_vec()))
            .unwrap();
    }
    // A minute behind the high-water mark: far past Δt, so side-stored.
    for i in 100..120u64 {
        ww.insert(Tuple::new(i, 40_000 + i, i.to_le_bytes().to_vec()))
            .unwrap();
    }
    ww.drain().unwrap();
    assert_eq!(SystemMetrics::collect(&ww).get("indexing.side_stored"), 20);
    ww
}

/// The flush sequence, cut at every point. A flush of a main and a
/// side-store chunk talks to the metadata server twice — its block of ids,
/// then its registration — and the link is cut at each message in turn;
/// the last point is a crash right after the registration landed, before
/// the trim. Every point crashes, recovers and drains to exactly the 120
/// tuples ingested, none twice: the flush registers in one step, so a cut
/// lands all of it or none of it.
#[test]
fn every_cut_of_a_flush_recovers_exactly_its_tuples() {
    // (label, messages the link still delivers; `None` = crash after the
    // registration)
    let cuts = [
        ("the id call cut", Some(0)),
        ("the registration cut", Some(1)),
        ("a crash between registration and trim", None),
    ];
    for (i, (label, delivered)) in cuts.into_iter().enumerate() {
        let mut c = cfg();
        c.chunk_size_bytes = 1 << 30;
        c.agg_summaries_enabled = false;
        c.rpc_retries = 0;
        c.rpc_timeout = std::time::Duration::from_millis(100);
        let ww = with_side_chunk(&format!("cut-flush-{i}"), c);
        let server = &ww.indexing_servers()[0];
        let ix = server.id();
        let sent = meta_calls(&ww, ix);
        match delivered {
            Some(k) => {
                let cut = LinkProfile {
                    drop_after: Some(sent + k),
                    ..LinkProfile::default()
                };
                ww.transport().set_link_profile(ix, META_SERVER, cut);
                assert!(server.flush().is_err(), "{label}");
                assert_eq!(meta_calls(&ww, ix), sent + k + 1, "{label}");
                assert_eq!(ww.metadata().chunk_count(), 0, "{label}");
                ww.transport().clear_faults();
            }
            None => {
                // A crashed server registers its flush but leaves the trim
                // to the replacement.
                server.set_failed(true);
                assert_eq!(server.flush().unwrap().len(), 2, "{label}");
                assert_eq!(meta_calls(&ww, ix), sent + 2, "{label}");
                assert_eq!(ww.metadata().chunk_count(), 2, "{label}");
                assert_eq!(ww.metadata().durable_offset(ix), 120, "{label}");
                assert_eq!(ww.message_queue().retained("ingest").unwrap(), 120);
            }
        }
        ww.crash_indexing_server(ix).unwrap();
        ww.recover_indexing_server(ix).unwrap();
        ww.drain().unwrap();
        let got = answer(&ww);
        let mut distinct = got.clone();
        distinct.dedup();
        assert_eq!(distinct.len(), 120, "{label}: tuples lost");
        assert_eq!(got.len(), 120, "{label}: tuples answered twice");
    }
}

/// Where [`every_cut_of_a_flush_answers_its_tuples_once`] cuts a flush.
enum Cut {
    /// The link delivers this many more messages, then drops every one.
    Send(u64),
    /// The registration lands and its answer is lost.
    AnswerLost,
    /// The server crashes right after its registration landed.
    Crash,
}

/// The sibling of [`every_cut_of_a_flush_recovers_exactly_its_tuples`],
/// with the cut dropped messages cannot make — the registration landed,
/// its answer lost — and two more checks. At every cut, before the crash,
/// a query answers all 120 tuples, none twice: the sealing slot serves them
/// until a registration is answered, and a plan that saw the registration
/// reads them from its chunks. After a registration cut, healing the link
/// and flushing again registers the chunks already written: one metadata
/// call, no second id block.
#[test]
fn every_cut_of_a_flush_answers_its_tuples_once() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use waterwheel::core::WwError;
    use waterwheel::net::{MetaRequest, Request};
    let cuts = [
        ("the id call cut", Cut::Send(0)),
        ("the registration cut", Cut::Send(1)),
        ("the registration landed, its answer lost", Cut::AnswerLost),
        ("a crash between registration and trim", Cut::Crash),
    ];
    for (i, (label, cut)) in cuts.into_iter().enumerate() {
        let mut c = cfg();
        c.chunk_size_bytes = 1 << 30;
        c.agg_summaries_enabled = false;
        c.rpc_retries = 0;
        c.rpc_timeout = std::time::Duration::from_millis(100);
        let ww = with_side_chunk(&format!("cut-answer-{i}"), c);
        let server = &ww.indexing_servers()[0];
        let ix = server.id();
        let once = |when: &str| {
            let got = answer(&ww);
            let mut distinct = got.clone();
            distinct.dedup();
            assert_eq!(distinct.len(), 120, "{label}, {when}: tuples lost");
            assert_eq!(got.len(), 120, "{label}, {when}: tuples answered twice");
        };
        let losing = Arc::new(AtomicBool::new(true));
        let sent = meta_calls(&ww, ix);
        match cut {
            Cut::Send(k) => {
                let cut = LinkProfile {
                    drop_after: Some(sent + k),
                    ..LinkProfile::default()
                };
                ww.transport().set_link_profile(ix, META_SERVER, cut);
                assert!(server.flush().is_err(), "{label}");
                assert_eq!(meta_calls(&ww, ix), sent + k + 1, "{label}");
                assert_eq!(ww.metadata().chunk_count(), 0, "{label}");
            }
            Cut::AnswerLost => {
                let serve = ww.registry().get(META_SERVER).unwrap();
                let lose = Arc::clone(&losing);
                ww.registry().bind(META_SERVER, move |env| {
                    let answer = serve(env);
                    let register = matches!(
                        &env.payload,
                        Request::Meta(MetaRequest::RegisterFlush { .. })
                    );
                    if register && lose.load(Ordering::SeqCst) {
                        return Err(WwError::Timeout("answer lost"));
                    }
                    answer
                });
                assert!(server.flush().is_err(), "{label}");
                assert_eq!(meta_calls(&ww, ix), sent + 2, "{label}");
                assert_eq!(ww.metadata().chunk_count(), 2, "{label}");
                assert_eq!(ww.metadata().durable_offset(ix), 120, "{label}");
            }
            Cut::Crash => {
                server.set_failed(true);
                assert_eq!(server.flush().unwrap().len(), 2, "{label}");
                assert_eq!(ww.metadata().chunk_count(), 2, "{label}");
            }
        }
        once("before the crash");
        // The slot's gauge shows a registration that has not been answered.
        let sealing = || SystemMetrics::collect(&ww).get("indexing.sealing_tuples");
        let stuck = if matches!(cut, Cut::Crash) { 0 } else { 120 };
        assert_eq!(sealing(), stuck, "{label}");
        if matches!(cut, Cut::Send(1) | Cut::AnswerLost) {
            ww.transport().clear_faults();
            losing.store(false, Ordering::SeqCst);
            let sent = meta_calls(&ww, ix);
            assert_eq!(server.flush().unwrap().len(), 2, "{label}");
            assert_eq!(meta_calls(&ww, ix), sent + 1, "{label}: a second id block");
            assert_eq!(ww.metadata().chunk_count(), 2, "{label}");
            assert_eq!(ww.metadata().durable_offset(ix), 120, "{label}");
            assert_eq!(sealing(), 0, "{label}");
            once("healed and flushed again");
        }
        ww.transport().clear_faults();
        ww.crash_indexing_server(ix).unwrap();
        ww.recover_indexing_server(ix).unwrap();
        ww.drain().unwrap();
        once("after recovery");
    }
}

/// A flush costs at most two metadata calls — its block of ids and its
/// registration — however many chunks and summaries it carries. Here: a
/// main and a side-store chunk, both with summaries.
#[test]
fn a_flush_makes_at_most_two_metadata_calls() {
    let mut c = cfg();
    c.chunk_size_bytes = 1 << 30;
    c.agg_summaries_enabled = true;
    let ww = with_side_chunk("flush-calls", c);
    let server = &ww.indexing_servers()[0];
    let sent = meta_calls(&ww, server.id());
    assert_eq!(server.flush().unwrap().len(), 2);
    let calls = meta_calls(&ww, server.id()) - sent;
    assert!(calls <= 2, "one flush made {calls} metadata calls");
    let meta = ww.metadata();
    assert_eq!((meta.chunk_count(), meta.summary_count()), (2, 2));
}
