//! Message-plane fault oracles: with network faults scripted on the
//! system's fault layer (`Waterwheel::transport`), the system must stay
//! *exact* — retries mask loss without duplicating side effects,
//! re-dispatch masks dead links — and the faults must be visible in
//! `SystemMetrics`. Every oracle runs on the in-process plane and over TCP
//! loopback.
//!
//! Every fault draw is a pure function of the link and its message
//! number, so every test here is reproducible.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;
use waterwheel::core::{ServerId, WwError};
use waterwheel::net::{LinkProfile, Request, RpcClient, COORDINATOR, META_SERVER};
use waterwheel::prelude::*;
use waterwheel::server::{send_batch, Dispatcher, SystemMetrics};

/// The planes every oracle runs on: in-process, then TCP loopback.
const PLANES: [bool; 2] = [false, true];

fn fresh_root(name: &str) -> std::path::PathBuf {
    let root = std::env::temp_dir().join(format!("ww-rpc-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

fn build(name: &str, cfg: SystemConfig, tcp: bool) -> Waterwheel {
    let builder = Waterwheel::builder(fresh_root(&format!("{name}-{tcp}"))).config(cfg);
    let builder = if tcp { builder.tcp_loopback() } else { builder };
    builder.build().unwrap()
}

/// Small chunks so queries span both memory and flushed chunks, and a
/// retry budget deep enough that 15 % request loss cannot exhaust it
/// (p_fail = 0.15^7 per call). Batching stays ON (the default) — these
/// oracles must hold with ingest riding batch envelopes.
fn cfg() -> SystemConfig {
    let mut cfg = SystemConfig::default();
    cfg.chunk_size_bytes = 32 * 1024;
    cfg.indexing_servers = 2;
    cfg.query_servers = 3;
    cfg.rpc_retries = 6;
    cfg.ingest_batch_size = 32;
    cfg
}

fn all() -> Query {
    Query::range(KeyInterval::full(), TimeInterval::full())
}

fn spread_key(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn lossy(loss: f64) -> LinkProfile {
    LinkProfile {
        loss,
        ..LinkProfile::default()
    }
}

#[test]
fn twenty_percent_loss_is_masked_by_retries_and_counted() {
    for tcp in PLANES {
        let ww = build("loss", cfg(), tcp);
        // Loss on every link, during ingest AND query. Loss drops requests
        // *before* they reach the destination, so a retried ingest can never
        // duplicate a tuple — the oracle below is exact, not approximate.
        ww.transport().set_default_profile(lossy(0.15));
        for i in 0..2_000u64 {
            ww.insert(Tuple::bare(spread_key(i), 1_000 + i)).unwrap();
        }
        ww.drain().unwrap();
        ww.flush_all().unwrap();
        let got = ww.query(&all()).unwrap().tuples.len();
        assert_eq!(got, 2_000, "loss must be masked, never lose/duplicate");

        let m = SystemMetrics::collect(&ww);
        assert!(
            m.get("rpc.retried") > 0,
            "15% loss must have forced retries"
        );
        assert!(
            m.get("rpc.timed_out") > 0,
            "lost requests count as timeouts"
        );
        // Batching amortizes ingest: every tuple rode a batch envelope, and
        // even with retries the plane saw far fewer envelopes than tuples.
        let (batches, dispatched) = (
            m.get("dispatcher.batches_sent"),
            m.get("dispatcher.dispatched"),
        );
        assert_eq!(dispatched, 2_000);
        assert!(
            batches * 8 <= dispatched,
            "{batches} batches for {dispatched} tuples is under 8× amortization"
        );
        let text = m.to_string();
        assert!(text.contains("rpc.retried"), "metrics must render rpc rows");
    }
}

#[test]
fn aggregates_stay_exact_under_loss() {
    for tcp in PLANES {
        let ww = build("agg-loss", cfg(), tcp);
        ww.register_measure(|t: &Tuple| t.key.wrapping_mul(31).wrapping_add(t.ts) % 10_000);
        ww.transport().set_default_profile(lossy(0.15));
        let mut expected_sum = 0u128;
        for i in 0..1_500u64 {
            let t = Tuple::bare(spread_key(i), 1_000 + i);
            expected_sum += u128::from(t.key.wrapping_mul(31).wrapping_add(t.ts) % 10_000);
            ww.insert(t).unwrap();
        }
        ww.drain().unwrap();
        ww.flush_all().unwrap();
        let aq = all().aggregate(AggregateKind::Sum);
        let ans = ww.aggregate(&aq).unwrap();
        assert_eq!(ans.agg.count, 1_500);
        assert_eq!(ans.agg.sum, expected_sum);
    }
}

/// Property: the ingest batch size is invisible — batches of 1, 7 and 32
/// give the same query answers and the same aggregate answers over the same
/// stream, with 15 % request loss on every link *and* 15 % response loss on
/// the dispatcher → indexing links (acks vanish after the append happened,
/// so retries genuinely redeliver applied batches, batches of one included).
#[test]
fn batch_sizes_agree_under_request_and_response_loss() {
    for tcp in PLANES {
        batch_sizes_agree(tcp);
    }
}

fn batch_sizes_agree(tcp: bool) {
    let measure = |t: &Tuple| t.key.wrapping_mul(31).wrapping_add(t.ts) % 10_000;
    let fed = |batch: usize| {
        let mut c = cfg();
        c.ingest_batch_size = batch;
        // An attempt on a link losing both ways fails 28 % of the time.
        c.rpc_retries = 12;
        let ww = build(&format!("prop-batch-{batch}"), c, tcp);
        ww.register_measure(measure);
        ww.transport().set_default_profile(lossy(0.15));
        for d in ww.dispatchers() {
            for ix in ww.indexing_servers() {
                ww.transport().set_link_profile(
                    d.id(),
                    ix.id(),
                    LinkProfile {
                        response_loss: 0.15,
                        ..lossy(0.15)
                    },
                );
            }
        }
        for i in 0..1_500u64 {
            ww.insert(Tuple::bare(spread_key(i), 1_000 + i)).unwrap();
        }
        ww.drain().unwrap();
        ww.flush_all().unwrap();
        ww
    };
    let systems = [fed(1), fed(7), fed(32)];

    let canon = |ww: &Waterwheel| {
        let mut tuples: Vec<(u64, u64)> = ww
            .query(&all())
            .unwrap()
            .tuples
            .iter()
            .map(|t| (t.key, t.ts))
            .collect();
        tuples.sort_unstable();
        tuples
    };
    let aq = all().aggregate(AggregateKind::Sum);
    let want = canon(&systems[2]);
    assert_eq!(want.len(), 1_500, "tcp={tcp}");
    let want_agg = systems[2].aggregate(&aq).unwrap().agg;
    for ww in &systems {
        assert_eq!(canon(ww), want, "tcp={tcp}");
        let got = ww.aggregate(&aq).unwrap().agg;
        assert_eq!((got.count, got.sum), (want_agg.count, want_agg.sum));
        // Every tuple rode a sequence-numbered batch, and some batch of
        // each size was redelivered and recognised.
        let m = SystemMetrics::collect(ww);
        assert_eq!(m.get("dispatcher.dispatched"), 1_500);
        assert!(m.get("ingest.dedup_drops") > 0, "tcp={tcp}");
    }
    let batches = |ww: &Waterwheel| SystemMetrics::collect(ww).get("dispatcher.batches_sent");
    // In-process every answer is in at once; over TCP younger tuples
    // coalesce behind a batch still on the wire.
    if !tcp {
        assert_eq!(batches(&systems[0]), 1_500, "a batch of one per tuple");
    }
    assert!(batches(&systems[2]) * 8 <= 1_500);
}

/// A client's single-tuple insert addressed to a dispatcher id is a batch
/// of one. With every ack on the client's link lost, the handler runs on
/// the first attempt and the RPC layer's retries redeliver it until the
/// budget runs out; the gateway recognises the sequence number each time.
/// Healed, the client's resend is acknowledged as the redelivery it is, and
/// the tuple is visible exactly once.
#[test]
fn a_single_insert_whose_ack_was_lost_lands_exactly_once() {
    for tcp in PLANES {
        let ww = build("single", cfg(), tcp);
        let src = ServerId(9_000);
        let client = RpcClient::new(Arc::clone(ww.plane()), src, ww.config());
        let dst = ww.dispatchers()[1].id();
        let lost_acks = LinkProfile {
            response_loss: 1.0,
            ..LinkProfile::default()
        };
        ww.transport().set_link_profile(src, dst, lost_acks);
        let tuple = Tuple::bare(spread_key(1), 1_000);
        let mut resent = false;
        let e = send_batch(&client, dst, 1, vec![tuple.clone()], &mut resent).unwrap_err();
        assert!(matches!(e, WwError::Timeout(_)), "tcp={tcp}: {e}");
        let link = client.transport().stats().link(src, dst);
        assert_eq!(
            link.retried.load(Ordering::Relaxed),
            u64::from(cfg().rpc_retries),
            "tcp={tcp}: every lost ack forces a redelivery"
        );
        ww.transport().clear_faults();
        let took = send_batch(&client, dst, 1, vec![tuple.clone()], &mut resent).unwrap();
        assert_eq!(took, 1);
        let m = SystemMetrics::collect(&ww);
        assert_eq!(
            m.get("gateway.dedup_drops"),
            u64::from(cfg().rpc_retries) + 1,
            "tcp={tcp}: every redelivery was recognised"
        );
        ww.drain().unwrap();
        assert_eq!(
            ww.query(&all()).unwrap().tuples,
            vec![tuple],
            "tcp={tcp}: the redelivered insert must land exactly once"
        );
    }
}

/// Exactly-once with the dispatcher running ahead of its acks: from the
/// middle of the stream on, a quarter of the acks on a dispatcher's links
/// are lost. Over TCP such a batch stays in flight — its answer never comes
/// in — while younger tuples coalesce behind it up to the cap; collecting
/// it there times out (in-process, at once), the RPC layer resends it under
/// its sequence number, the indexing server drops the redelivery, and
/// every tuple lands once.
#[test]
fn a_lost_ack_on_a_batch_in_flight_over_tcp_lands_every_tuple_exactly_once() {
    for tcp in PLANES {
        let ww = build("in-flight", cfg(), tcp);
        let id = ServerId(9_100);
        let rpc = RpcClient::new(Arc::clone(ww.plane()), id, ww.config());
        let schema = ww.metadata().partition().unwrap();
        let d = Arc::new(Dispatcher::new(id, rpc, schema, ww.config()));
        ww.registry()
            .counters()
            .register("dispatcher", Some(id), d.clone());
        const N: u64 = 4_000;
        for i in 0..N {
            if i == N / 2 {
                for ix in ww.indexing_servers() {
                    let lost_acks = LinkProfile {
                        response_loss: 0.25,
                        ..LinkProfile::default()
                    };
                    ww.transport().set_link_profile(id, ix.id(), lost_acks);
                }
            }
            d.dispatch(Tuple::bare(spread_key(i), 1_000 + i)).unwrap();
        }
        d.flush_batches().unwrap();
        ww.drain().unwrap();

        let mut got: Vec<(u64, u64)> = ww
            .query(&all())
            .unwrap()
            .tuples
            .iter()
            .map(|t| (t.key, t.ts))
            .collect();
        got.sort_unstable();
        let mut want: Vec<(u64, u64)> = (0..N).map(|i| (spread_key(i), 1_000 + i)).collect();
        want.sort_unstable();
        assert_eq!(got, want, "tcp={tcp}: every tuple exactly once");
        let m = SystemMetrics::collect(&ww);
        assert!(
            m.get("ingest.dedup_drops") >= 1,
            "tcp={tcp}: the resend was a redelivery"
        );
        assert_eq!(m.get("dispatcher.dispatched"), N);
        if tcp {
            assert!(
                m.get("dispatcher.coalesced") >= 1,
                "younger tuples coalesce behind the lost ack"
            );
        }
    }
}

/// The at-least-once hazard: with response loss on the dispatcher →
/// indexing links, batches whose first attempt landed get redelivered by
/// the retrying client. The sequence-number dedup must drop every replay —
/// queue offsets account for each tuple exactly once.
#[test]
fn retried_batches_are_deduped_not_double_appended() {
    for tcp in PLANES {
        let ww = build("batch-dedup", cfg(), tcp);
        // Response loss only on dispatcher→indexing links: acks vanish after
        // the append happened, so retries genuinely redeliver applied batches.
        // (Scoped per link — the profile's draw sequence is deterministic.)
        let ix_ids: Vec<_> = ww.indexing_servers().iter().map(|s| s.id()).collect();
        for d in ww.dispatchers() {
            for &ix in &ix_ids {
                ww.transport().set_link_profile(
                    d.id(),
                    ix,
                    LinkProfile {
                        response_loss: 0.25,
                        ..LinkProfile::default()
                    },
                );
            }
        }
        for i in 0..2_000u64 {
            ww.insert(Tuple::bare(spread_key(i), 1_000 + i)).unwrap();
        }
        ww.drain().unwrap();
        ww.flush_all().unwrap();

        // Queue offsets count every append: exactly one per tuple, despite the
        // redeliveries.
        let mq = ww.message_queue();
        let appended: u64 = (0..ix_ids.len())
            .map(|p| mq.latest_offset("ingest", p).unwrap())
            .sum();
        assert_eq!(appended, 2_000, "retried batches must never double-append");

        let m = SystemMetrics::collect(&ww);
        assert!(
            m.get("rpc.retried") > 0,
            "lost acks must have forced retries"
        );
        assert!(
            m.get("ingest.dedup_drops") > 0,
            "some retried batch must have been recognised as a replay"
        );
        assert_eq!(m.get("dispatcher.dispatched"), 2_000);
        assert_eq!(ww.query(&all()).unwrap().tuples.len(), 2_000);
    }
}

#[test]
fn latency_and_jitter_within_deadline_only_slow_things_down() {
    for tcp in PLANES {
        let ww = build("latency", cfg(), tcp);
        ww.transport().set_default_profile(LinkProfile {
            latency: Duration::from_micros(100),
            jitter: Duration::from_micros(200),
            ..LinkProfile::default()
        });
        // Small N: the transit sleeps are real.
        for i in 0..300u64 {
            ww.insert(Tuple::bare(spread_key(i), 1_000 + i)).unwrap();
        }
        ww.drain().unwrap();
        assert_eq!(ww.query(&all()).unwrap().tuples.len(), 300);
        let m = SystemMetrics::collect(&ww);
        assert_eq!(
            m.get("rpc.timed_out"),
            0,
            "transit within the deadline never times out"
        );
        assert_eq!(m.get("rpc.retried"), 0);
    }
}

#[test]
fn delay_past_the_deadline_times_out_and_is_retried() {
    for tcp in PLANES {
        let ww = build("late", cfg(), tcp);
        for i in 0..2_000u64 {
            ww.insert(Tuple::bare(spread_key(i), 1_000 + i)).unwrap();
        }
        ww.drain().unwrap();
        ww.flush_all().unwrap();
        // Fixed latency beyond the deadline on one coordinator→query-server
        // link: every attempt on it times out (simulated — no real sleep past
        // the deadline), and re-dispatch routes around it. A fixed
        // assignment, so qs0 is always asked: under LADA's work stealing
        // the other servers may finish the plan before anyone bids as qs0.
        ww.coordinator().set_policy(DispatchPolicy::RoundRobin);
        let qs0 = ww.query_servers()[0].id();
        ww.transport().set_link_profile(
            COORDINATOR,
            qs0,
            LinkProfile {
                latency: cfg().rpc_timeout * 10,
                ..LinkProfile::default()
            },
        );
        assert_eq!(ww.query(&all()).unwrap().tuples.len(), 2_000);
        let m = SystemMetrics::collect(&ww);
        assert!(
            m.get("rpc.timed_out") > 0,
            "past-deadline transit must time out"
        );
        assert!(m.get("rpc.retried") > 0);
    }
}

#[test]
fn partitioned_query_server_is_masked_by_redispatch() {
    for tcp in PLANES {
        let ww = build("partition", cfg(), tcp);
        for i in 0..2_000u64 {
            ww.insert(Tuple::bare(spread_key(i), 1_000 + i)).unwrap();
        }
        ww.drain().unwrap();
        ww.flush_all().unwrap();
        let qs0 = ww.query_servers()[0].id();
        ww.transport().partition(COORDINATOR, qs0);
        let got = ww.query(&all()).unwrap().tuples.len();
        assert_eq!(got, 2_000, "redispatch must mask the severed link");
        let m = SystemMetrics::collect(&ww);
        assert!(
            m.get("rpc.unreachable") > 0,
            "severed link attempts are unreachable"
        );
        assert!(
            m.get("coordinator.redispatches") > 0 || m.get("rpc.retried") > 0,
            "the dead link must have forced rerouting"
        );
    }
}

#[test]
fn partitioned_metadata_fails_loudly_then_heals() {
    for tcp in PLANES {
        let ww = build("meta-part", cfg(), tcp);
        for i in 0..1_000u64 {
            ww.insert(Tuple::bare(spread_key(i), 1_000 + i)).unwrap();
        }
        ww.drain().unwrap();
        ww.flush_all().unwrap();
        // The coordinator cannot decompose without the metadata service and
        // there is no replica to fail over to: the query must error, not hang
        // and not return a partial answer.
        ww.transport().partition(COORDINATOR, META_SERVER);
        assert!(
            ww.query(&all()).is_err(),
            "metadata partition must surface as an error"
        );
        ww.transport().heal(COORDINATOR, META_SERVER);
        assert_eq!(ww.query(&all()).unwrap().tuples.len(), 1_000);
    }
}

#[test]
fn a_gateway_flush_that_cannot_read_the_membership_fails_instead_of_acknowledging() {
    for tcp in PLANES {
        let ww = build("flush-meta-part", cfg(), tcp);
        for i in 0..200u64 {
            ww.insert(Tuple::bare(spread_key(i), 1_000 + i)).unwrap();
        }
        ww.drain().unwrap();
        // The gateway reads which servers to flush from the live membership,
        // sending as its first dispatcher. Cut that link: a client's `Flush`
        // must come back as the typed delivery error it is — never `Flushed`
        // for a flush that skipped servers — and seal nothing.
        let client = RpcClient::new(Arc::clone(ww.plane()), ServerId(9_000), ww.config());
        let (first, dst) = (ww.dispatchers()[0].id(), ww.dispatchers()[1].id());
        ww.transport().partition(first, META_SERVER);
        let answer = client.call(dst, Request::Flush);
        assert!(
            matches!(
                answer,
                Err(WwError::Timeout(_)) | Err(WwError::Unreachable(_))
            ),
            "{answer:?}"
        );
        assert!(
            ww.flush_all().is_err(),
            "the embedded call is the same code"
        );
        assert_eq!(ww.metadata().chunk_count(), 0);
        ww.transport().heal(first, META_SERVER);
        let sealed = client.call(dst, Request::Flush).unwrap().into_flushed();
        assert!(
            !sealed.unwrap().is_empty(),
            "healed: the flush names chunks"
        );
        assert_eq!(ww.query(&all()).unwrap().tuples.len(), 200);
    }
}

#[test]
fn link_dying_mid_plan_is_redispatched_deterministically() {
    for tcp in PLANES {
        let mut c = cfg();
        // Small chunks: the plan has many chunk subqueries, so the severed
        // link is guaranteed to be asked for more work after the cut-off.
        c.chunk_size_bytes = 8 * 1024;
        let ww = build("midplan", c, tcp);
        for i in 0..3_000u64 {
            ww.insert(Tuple::bare(spread_key(i), 1_000 + i)).unwrap();
        }
        ww.drain().unwrap();
        ww.flush_all().unwrap();
        // A fixed assignment: under LADA's work stealing qs0 may never be
        // asked for a second subquery, and then no cut is ever crossed.
        // Round-robin hands it every third one, many more than one.
        ww.coordinator().set_policy(DispatchPolicy::RoundRobin);
        // The coordinator→qs0 link dies after 1 more message: at most one
        // chunk subquery lands, then the server "crashes mid-plan".
        // Re-dispatch must finish the plan on the survivors, reproducibly.
        let qs0 = ww.query_servers()[0].id();
        ww.transport().set_link_profile(
            COORDINATOR,
            qs0,
            LinkProfile {
                drop_after: Some(1),
                ..LinkProfile::default()
            },
        );
        let first = ww.query(&all()).unwrap().tuples.len();
        assert_eq!(first, 3_000, "mid-plan crash must be masked");
        // The cut-off is deterministic and the link stays dead: a second
        // identical query routes everything to the survivors and still agrees.
        let second = ww.query(&all()).unwrap().tuples.len();
        assert_eq!(second, first);
        let m = SystemMetrics::collect(&ww);
        assert!(
            m.get("rpc.timed_out") > 0,
            "dropped mid-plan messages time out"
        );
        assert!(
            m.get("coordinator.redispatches") > 0,
            "qs0's subqueries past the cut are re-dispatched"
        );
    }
}

#[test]
fn clearing_faults_restores_the_clean_plane() {
    for tcp in PLANES {
        let ww = build("clear", cfg(), tcp);
        ww.transport().set_default_profile(lossy(0.2));
        ww.transport()
            .partition(COORDINATOR, ww.query_servers()[0].id());
        ww.transport().clear_faults();
        for i in 0..500u64 {
            ww.insert(Tuple::bare(spread_key(i), 1_000 + i)).unwrap();
        }
        ww.drain().unwrap();
        let before = SystemMetrics::collect(&ww);
        assert_eq!(ww.query(&all()).unwrap().tuples.len(), 500);
        let after = SystemMetrics::collect(&ww);
        assert_eq!(
            after.get("rpc.retried"),
            before.get("rpc.retried"),
            "clean plane: no retries"
        );
        assert_eq!(after.get("rpc.timed_out"), before.get("rpc.timed_out"));
    }
}

#[test]
fn membership_epoch_race_is_typed_retryable_and_never_wrong() {
    for tcp in PLANES {
        use std::time::Duration;
        use waterwheel::core::{ServerId, WwError};
        use waterwheel::meta::MemberRole;

        let ww = build("epoch-race", cfg(), tcp);
        for i in 0..1_500u64 {
            ww.insert(Tuple::bare(spread_key(i), 1_000 + i)).unwrap();
        }
        ww.drain().unwrap();
        ww.flush_all().unwrap(); // chunks exist: queries need the query tier

        // Sync the routing table, then advance the membership epoch (one
        // query server leaves and re-joins) *without* telling the
        // coordinator: the next query plans against a superseded view.
        ww.coordinator().refresh_membership().unwrap();
        let planned = ww.coordinator().routing_epoch();
        let qs: Vec<ServerId> = ww.query_servers().iter().map(|q| q.id()).collect();
        let node = ww
            .metadata()
            .membership()
            .query
            .iter()
            .find(|&&(id, _)| id == qs[2])
            .map(|&(_, n)| n)
            .unwrap();
        ww.metadata().leave(qs[2]).unwrap();
        ww.metadata()
            .join(qs[2], MemberRole::Query, node, Duration::from_secs(60))
            .unwrap();
        assert!(ww.metadata().membership_epoch() > planned);

        // Every server of the stale plan is unreachable — the coordinator
        // must answer with the typed *retryable* epoch-race error, never a
        // wrong or falsely-final answer.
        for &q in &qs {
            ww.transport().partition(COORDINATOR, q);
        }
        let err = ww.query(&all()).unwrap_err();
        assert!(
            matches!(err, WwError::Unreachable(_)),
            "expected the typed epoch-race error, got {err}"
        );
        assert!(err.is_retryable(), "epoch race must be retryable: {err}");

        // The caller-side contract: heal, retry against the refreshed view,
        // and the answer is exact.
        for &q in &qs {
            ww.transport().heal(COORDINATOR, q);
        }
        assert_eq!(
            ww.query(&all()).unwrap().tuples.len(),
            1_500,
            "retry after the race must be exact"
        );
    }
}

/// `IndexingServer::flush` seals the tree long before the chunk is written
/// and registered. A second caller arriving in that window (the `Flush` RPC
/// racing the pump's own threshold flush) finds nothing to seal; it must
/// still not return before the first caller's tuples are queryable again,
/// or a client that queries right after its `flush()` misses them. The
/// window is held open deterministically: 40 ms of transit latency on the
/// indexing → metadata link puts the first flush's chunk-id allocation and
/// registration that far behind its seal.
#[test]
fn a_flush_racing_another_never_returns_before_the_sealed_tuples_are_registered() {
    for tcp in PLANES {
        let mut cfg = SystemConfig::default();
        cfg.indexing_servers = 1;
        cfg.chunk_size_bytes = 1 << 30; // no threshold flush: only the two below
        let ww = build("flush-race", cfg, tcp);
        const N: u64 = 1_000;
        for i in 0..N {
            ww.insert(Tuple::bare(spread_key(i), 1_000 + i)).unwrap();
        }
        ww.drain().unwrap();
        let server = ww.indexing_servers().remove(0);
        assert_eq!(server.in_memory() as u64, N);
        ww.transport().set_link_profile(
            server.id(),
            META_SERVER,
            LinkProfile {
                latency: Duration::from_millis(40),
                ..LinkProfile::default()
            },
        );
        std::thread::scope(|s| {
            let first = s.spawn(|| server.flush());
            // The seal is the first thing a flush does; everything after it
            // waits on the slowed link.
            while server.in_memory() > 0 {
                std::thread::yield_now();
            }
            server.flush().unwrap();
            let seen = ww.query(&all()).unwrap().tuples.len() as u64;
            assert_eq!(seen, N, "a finished flush() left sealed tuples invisible");
            assert_eq!(first.join().unwrap().unwrap().len(), 1);
        });
    }
}
