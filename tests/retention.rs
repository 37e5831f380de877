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
//! * a flush cut off between its two chunk registrations loses no tuple.
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

/// A flush with a side-store chunk registers two chunks. The indexing →
/// metadata link is cut at the second `register_chunk`: the main chunk is
/// registered, the side-store chunk never is. Only the last registration
/// of a flush may advance the durable offset, so recovery replays from the
/// previous offset and no tuple is lost; the main chunk's tuples, already
/// registered, replay a second time (the flush is at-least-once across
/// such a cut, never at-most-once).
#[test]
fn a_flush_cut_at_its_second_registration_loses_no_tuple() {
    let mut c = cfg();
    c.chunk_size_bytes = 1 << 30;
    c.agg_summaries_enabled = false;
    c.rpc_retries = 0;
    c.rpc_timeout = std::time::Duration::from_millis(100);
    let ww = Waterwheel::builder(fresh_root("cut-flush"))
        .config(c)
        .build()
        .unwrap();
    let (on_time, late) = (100u64, 20u64);
    for i in 0..on_time {
        ww.insert(Tuple::new(i, 100_000 + i, i.to_le_bytes().to_vec()))
            .unwrap();
    }
    // A minute behind the high-water mark: far past Δt, so side-stored.
    for i in on_time..on_time + late {
        ww.insert(Tuple::new(i, 40_000 + i, i.to_le_bytes().to_vec()))
            .unwrap();
    }
    ww.drain().unwrap();
    let ix = ww.indexing_servers()[0].id();
    assert_eq!(
        SystemMetrics::collect(&ww).get("indexing.side_stored"),
        late
    );
    // The flush sends allocate, register (main), allocate, register (side).
    let link = (ix, META_SERVER);
    let sent = ww
        .transport()
        .stats()
        .per_link()
        .iter()
        .find(|(l, _)| *l == link)
        .map_or(0, |(_, t)| t.sent);
    ww.transport().set_link_profile(
        ix,
        META_SERVER,
        LinkProfile {
            drop_after: Some(sent + 3),
            ..LinkProfile::default()
        },
    );
    assert!(ww.indexing_servers()[0].flush().is_err());
    assert_eq!(ww.metadata().chunk_count(), 1, "only the main chunk landed");
    ww.transport().clear_faults();

    ww.crash_indexing_server(ix).unwrap();
    ww.recover_indexing_server(ix).unwrap();
    ww.drain().unwrap();
    let got = answer(&ww);
    let mut distinct = got.clone();
    distinct.dedup();
    assert_eq!(
        distinct.len() as u64,
        on_time + late,
        "tuples lost across the cut flush"
    );
    assert_eq!(
        got.len() as u64,
        on_time + late + on_time,
        "exactly the registered main chunk replays again"
    );
}
