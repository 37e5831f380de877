//! Property tests hardening the wire codec: every `Request`/`Response`
//! variant round-trips byte-exactly, and decoding adversarial input —
//! truncated, bit-flipped, or length-corrupted frames — returns `WwError`
//! without panicking or over-allocating.

use proptest::prelude::*;
use std::time::{Duration, Instant};
use waterwheel_agg::{AggregateAnswer, PartialAgg};
use waterwheel_core::aggregate::{AggregateKind, AggregateQuery};
use waterwheel_core::codec::{Decoder, Wire};
use waterwheel_core::{
    ChunkId, Expr, KeyInterval, NodeId, Query, QueryId, QueryResult, Region, ServerId, StatRow,
    SubQuery, SubQueryId, SubQueryTarget, TimeInterval, Tuple,
};
use waterwheel_meta::{
    ChunkInfo, FlushedChunk, MemberRole, MembershipView, PartitionSchema, SummaryExtent,
};
use waterwheel_net::envelope::{Envelope, MetaRequest, MetaResponse, Request, Response};
use waterwheel_net::wire::{self, Frame};

/// A tiny deterministic generator seeded per property case; the shim's
/// strategies hand us the seed, plain code builds the variants.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        waterwheel_core::mix64(self.0)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn interval_keys(&mut self) -> KeyInterval {
        let a = self.next();
        let b = self.next();
        KeyInterval::new(a.min(b), a.max(b))
    }

    fn interval_times(&mut self) -> TimeInterval {
        let a = self.next();
        let b = self.next();
        TimeInterval::new(a.min(b), a.max(b))
    }

    fn region(&mut self) -> Region {
        Region::new(self.interval_keys(), self.interval_times())
    }

    fn tuple(&mut self) -> Tuple {
        let len = self.below(64) as usize;
        let payload: Vec<u8> = (0..len).map(|_| self.next() as u8).collect();
        Tuple::new(self.next(), self.next(), payload)
    }

    fn tuples(&mut self) -> Vec<Tuple> {
        let n = self.below(8) as usize;
        (0..n).map(|_| self.tuple()).collect()
    }

    fn partial_agg(&mut self) -> PartialAgg {
        let mut agg = PartialAgg::default();
        for _ in 0..self.below(5) {
            agg.insert(self.below(1_000));
        }
        agg
    }

    fn agg_kind(&mut self) -> AggregateKind {
        AggregateKind::ALL[self.below(AggregateKind::ALL.len() as u64) as usize]
    }

    fn subquery(&mut self) -> SubQuery {
        SubQuery {
            id: SubQueryId {
                query: QueryId(self.next()),
                index: self.next() as u32,
            },
            keys: self.interval_keys(),
            times: self.interval_times(),
            predicate: self.predicate(),
            measure_range: self.measure_range(),
            target: if self.below(2) == 0 {
                SubQueryTarget::InMemory(ServerId(self.next() as u32))
            } else {
                SubQueryTarget::Chunk(ChunkId(self.next()))
            },
        }
    }

    fn predicate(&mut self) -> Option<Expr> {
        (self.below(2) == 0).then(|| self.expr(4))
    }

    /// An expression using every op the grammar has, `depth` deep at most.
    fn expr(&mut self, depth: u32) -> Expr {
        if depth == 0 || self.below(4) == 0 {
            return match self.below(4) {
                0 => Expr::key(),
                1 => Expr::ts(),
                2 => Expr::payload(self.below(24) as u32, 1 << self.below(4)),
                _ => Expr::from(if self.below(2) == 0 {
                    self.below(72)
                } else {
                    self.next()
                }),
            };
        }
        let a = self.expr(depth - 1);
        if self.below(9) == 0 {
            return !a;
        }
        let b = self.expr(depth - 1);
        match self.below(8) {
            0 => a & b,
            1 => a >> b,
            2 => a % b,
            3 => a.equals(b),
            4 => a.lt(b),
            5 => a.le(b),
            6 => a.and(b),
            _ => a.or(b),
        }
    }

    fn query(&mut self) -> Query {
        Query {
            keys: self.interval_keys(),
            times: self.interval_times(),
            predicate: self.predicate(),
            measure_range: self.measure_range(),
        }
    }

    fn measure_range(&mut self) -> Option<(u64, u64)> {
        if self.below(2) == 0 {
            None
        } else {
            let a = self.next();
            let b = self.next();
            Some((a.min(b), a.max(b)))
        }
    }

    fn summary_extent(&mut self) -> SummaryExtent {
        SummaryExtent {
            cells: self.next(),
            bytes: self.next(),
            levels: self.next() as u8,
            slice_bits: self.below(16) as u8,
            measure_range: self.measure_range(),
        }
    }

    fn flushed_chunk(&mut self) -> FlushedChunk {
        FlushedChunk {
            id: ChunkId(self.next()),
            info: ChunkInfo {
                region: self.region(),
                count: self.next(),
                bytes: self.next(),
                producer: ServerId(self.next() as u32),
            },
            summary: if self.below(2) == 0 {
                None
            } else {
                Some(self.summary_extent())
            },
        }
    }

    fn meta_request(&mut self) -> MetaRequest {
        match self.below(15) {
            0 => MetaRequest::UpdateMemoryRegion {
                server: ServerId(self.next() as u32),
                region: if self.below(2) == 0 {
                    None
                } else {
                    Some(self.region())
                },
            },
            1 => MetaRequest::AllocateChunkIds { n: self.next() },
            2 => MetaRequest::RegisterFlush {
                producer: ServerId(self.next() as u32),
                chunks: (0..self.below(3)).map(|_| self.flushed_chunk()).collect(),
                durable_offset: self.next(),
                region: if self.below(2) == 0 {
                    None
                } else {
                    Some(self.region())
                },
            },
            3 => MetaRequest::ChunksOverlapping {
                region: self.region(),
            },
            4 => MetaRequest::MemoryRegionsOverlapping {
                region: self.region(),
            },
            5 => MetaRequest::SummaryExtent {
                chunk: ChunkId(self.next()),
            },
            6 => MetaRequest::BeginMigration {
                keys: self.interval_keys(),
                from: ServerId(self.next() as u32),
                to: ServerId(self.next() as u32),
            },
            7 => MetaRequest::CompleteMigration { id: self.next() },
            8 => {
                let servers: Vec<ServerId> = (0..=self.below(6) as u32).map(ServerId).collect();
                MetaRequest::SetPartition {
                    schema: PartitionSchema::uniform(&servers),
                }
            }
            9 => MetaRequest::Partition,
            10 => MetaRequest::DurableOffset {
                server: ServerId(self.next() as u32),
            },
            11 => MetaRequest::Join {
                server: ServerId(self.next() as u32),
                role: self.member_role(),
                node: NodeId(self.next() as u32),
                ttl_ms: self.next(),
            },
            12 => MetaRequest::Heartbeat {
                server: ServerId(self.next() as u32),
                ttl_ms: self.next(),
            },
            13 => MetaRequest::Leave {
                server: ServerId(self.next() as u32),
            },
            _ => MetaRequest::Membership,
        }
    }

    fn member_role(&mut self) -> MemberRole {
        [MemberRole::Indexing, MemberRole::Query][self.below(2) as usize]
    }

    fn membership_view(&mut self) -> MembershipView {
        let members = |gen: &mut Self| -> Vec<(ServerId, NodeId)> {
            (0..gen.below(5))
                .map(|_| (ServerId(gen.next() as u32), NodeId(gen.next() as u32)))
                .collect()
        };
        MembershipView {
            epoch: self.next(),
            indexing: members(self),
            query: members(self),
        }
    }

    fn request(&mut self) -> Request {
        // Arm numbers are the wire tags, drawn from the declared ones; 0, 4,
        // 5, 6, 9, 10, 18 and 19 are retired (see the `retired_*` tests).
        match Request::TAGS[self.below(Request::TAGS.len() as u64) as usize] {
            1 => Request::IngestBatch {
                seq: self.next(),
                tuples: self.tuples(),
            },
            2 => Request::Flush,
            3 => Request::InMemorySubquery {
                sq: self.subquery(),
            },
            7 => Request::Ping,
            8 => Request::Meta(self.meta_request()),
            11 => Request::Shutdown,
            12 => Request::RegisterPeers {
                peers: (0..self.below(4))
                    .map(|i| {
                        (
                            ServerId(self.next() as u32),
                            format!("127.0.0.1:{}", 4_100 + i),
                        )
                    })
                    .collect(),
            },
            13 => Request::Reassign {
                interval: self.interval_keys(),
            },
            14 => Request::MigrateUniform,
            15 => Request::Stats,
            16 => Request::InMemoryAggregate {
                sq: self.subquery(),
            },
            17 => Request::ChunkAggregate {
                sq: self.subquery(),
                chunk: ChunkId(self.next()),
            },
            20 => Request::ChunkSubquery {
                sq: self.subquery(),
                chunk: ChunkId(self.next()),
            },
            21 => Request::ClientQuery {
                query: self.query(),
            },
            _ => Request::ClientAggregate {
                query: AggregateQuery {
                    query: self.query(),
                    kind: self.agg_kind(),
                },
            },
        }
    }

    fn stat_rows(&mut self) -> Vec<StatRow> {
        (0..self.below(6))
            .map(|i| StatRow {
                name: format!("set{i}.field{}", self.below(9)),
                server: (self.below(2) == 0).then(|| ServerId(self.next() as u32)),
                value: self.next(),
            })
            .collect()
    }

    fn meta_response(&mut self) -> MetaResponse {
        match self.below(10) {
            0 => MetaResponse::Ack,
            1 => MetaResponse::Allocated(ChunkId(self.next())),
            2 => MetaResponse::Chunks(
                (0..self.below(6))
                    .map(|_| (ChunkId(self.next()), self.region()))
                    .collect(),
            ),
            3 => MetaResponse::Regions(
                (0..self.below(6))
                    .map(|_| (ServerId(self.next() as u32), self.region()))
                    .collect(),
            ),
            4 => MetaResponse::Extent(if self.below(2) == 0 {
                None
            } else {
                Some(self.summary_extent())
            }),
            5 => MetaResponse::Partition(if self.below(2) == 0 {
                None
            } else {
                let n = 1 + self.below(8);
                Some(PartitionSchema::uniform(
                    &(0..n).map(|i| ServerId(i as u32)).collect::<Vec<_>>(),
                ))
            }),
            6 => MetaResponse::Offset(self.next()),
            7 => MetaResponse::Epoch(self.next()),
            8 => MetaResponse::Migration(self.next()),
            _ => MetaResponse::Membership(self.membership_view()),
        }
    }

    fn response(&mut self) -> Response {
        match self.below(11) {
            0 => Response::Ack,
            1 => Response::AckBatch {
                tuples: self.next() as u32,
                deduped: self.below(2) == 0,
            },
            2 => Response::Pong,
            3 => Response::Tuples(self.tuples()),
            4 => Response::Flushed((0..self.below(6)).map(|_| ChunkId(self.next())).collect()),
            5 => Response::Aggregated {
                agg: self.partial_agg(),
                cells_merged: self.next(),
                leaves_merged: self.next(),
                scanned: self.next(),
            },
            6 => Response::Meta(self.meta_response()),
            7 => Response::Query(QueryResult {
                query_id: QueryId(self.next()),
                tuples: self.tuples(),
                subqueries: self.next() as u32,
            }),
            8 => Response::Aggregate(AggregateAnswer {
                query_id: QueryId(self.next()),
                kind: self.agg_kind(),
                agg: self.partial_agg(),
                cells_merged: self.next(),
                scanned_tuples: self.next(),
            }),
            9 => Response::Migrated {
                epoch: self.next(),
                ranges: self.next() as u32,
            },
            _ => Response::Stats(self.stat_rows()),
        }
    }
}

fn envelope(gen: &mut Gen) -> Envelope {
    Envelope {
        src: ServerId(gen.next() as u32),
        dst: ServerId(gen.next() as u32),
        rpc_id: gen.next(),
        deadline: Instant::now() + Duration::from_millis(gen.below(100_000)),
        payload: gen.request(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_request_variant_round_trips(seed in 0u64..u64::MAX) {
        let mut gen = Gen(seed);
        let env = envelope(&mut gen);
        let corr = gen.next();
        let frame = wire::encode_request(corr, &env);
        let body = wire::read_frame(&mut &frame[..]).unwrap().unwrap();
        let Frame::Request { corr: got_corr, env: got } = wire::decode_frame(&body).unwrap()
        else {
            return Err(TestCaseError::fail("request decoded as a response"));
        };
        prop_assert_eq!(got_corr, corr);
        prop_assert_eq!(got.src, env.src);
        prop_assert_eq!(got.dst, env.dst);
        prop_assert_eq!(got.rpc_id, env.rpc_id);
        // Payloads are plain data, predicates included, so the Debug
        // rendering is a faithful structural comparison.
        prop_assert_eq!(format!("{:?}", got.payload), format!("{:?}", env.payload));
    }

    #[test]
    fn every_response_variant_round_trips(seed in 0u64..u64::MAX) {
        let mut gen = Gen(seed);
        let resp = gen.response();
        let corr = gen.next();
        let frame = wire::encode_response_ok(corr, &resp);
        let body = wire::read_frame(&mut &frame[..]).unwrap().unwrap();
        let Frame::Response { corr: got_corr, result } = wire::decode_frame(&body).unwrap()
        else {
            return Err(TestCaseError::fail("response decoded as a request"));
        };
        prop_assert_eq!(got_corr, corr);
        let got = result.unwrap();
        prop_assert_eq!(format!("{got:?}"), format!("{resp:?}"));
    }

    #[test]
    fn truncated_frames_fail_gracefully(seed in 0u64..u64::MAX) {
        let mut gen = Gen(seed);
        let frame = if gen.below(2) == 0 {
            wire::encode_request(gen.next(), &envelope(&mut gen))
        } else {
            wire::encode_response_ok(gen.next(), &gen.response())
        };
        let body = wire::read_frame(&mut &frame[..]).unwrap().unwrap();
        let cut = gen.below(body.len() as u64) as usize;
        // Any strict prefix is missing bytes some decoder needs: an error,
        // never a panic.
        prop_assert!(wire::decode_frame(&body[..cut]).is_err());
        // Truncating the raw stream (length prefix included) must also
        // surface as an error or clean EOF, never a panic.
        let stream_cut = gen.below(frame.len() as u64) as usize;
        let r = wire::read_frame(&mut &frame[..stream_cut]);
        prop_assert!(
            !matches!(r, Ok(Some(_))),
            "a truncated stream produced a whole frame"
        );
    }

    #[test]
    fn mutated_frames_never_panic(seed in 0u64..u64::MAX) {
        let mut gen = Gen(seed);
        let mut frame = if gen.below(2) == 0 {
            wire::encode_request(gen.next(), &envelope(&mut gen))
        } else {
            wire::encode_response_ok(gen.next(), &gen.response())
        };
        // Flip up to four random bytes anywhere in the frame — including
        // the length prefix and variant tags.
        for _ in 0..=gen.below(4) {
            let at = gen.below(frame.len() as u64) as usize;
            frame[at] ^= gen.next() as u8;
        }
        // Whatever comes out — a decoded frame, a decode error, or a short
        // read — the codec must not panic or reserve absurd buffers (the
        // frame-length cap rejects oversized announcements up front).
        if let Ok(Some(body)) = wire::read_frame(&mut &frame[..]) {
            let _ = wire::decode_frame(&body);
        }
    }

    #[test]
    fn frames_with_trailing_bytes_are_refused(seed in 0u64..u64::MAX) {
        use waterwheel_core::WwError;
        let mut gen = Gen(seed);
        let frames = [
            wire::encode_request(gen.next(), &envelope(&mut gen)),
            wire::encode_response_ok(gen.next(), &gen.response()),
            wire::encode_response_err(gen.next(), &WwError::InvalidState("state".into())),
        ];
        for frame in frames {
            let body = wire::read_frame(&mut &frame[..]).unwrap().unwrap();
            prop_assert!(wire::decode_frame(&body).is_ok());
            // One to eight bytes past the end of the payload.
            let mut long = body.clone();
            long.extend((0..=gen.below(8)).map(|_| gen.next() as u8));
            let got = wire::decode_frame(&long);
            prop_assert!(
                matches!(got, Err(WwError::Corrupt { .. })),
                "{} trailing bytes decoded: {:?}",
                long.len() - body.len(),
                got
            );
        }
    }

    #[test]
    fn error_frames_round_trip_their_taxonomy(seed in 0u64..u64::MAX) {
        use waterwheel_core::WwError;
        let mut gen = Gen(seed);
        let err = match gen.below(9) {
            0 => WwError::Io(std::io::Error::other("io")),
            1 => WwError::corrupt("thing", "detail"),
            2 => WwError::not_found("thing", gen.next()),
            3 => WwError::InvalidState("state".into()),
            4 => WwError::Config("config".into()),
            5 => WwError::Shutdown("who"),
            6 => WwError::Injected("what"),
            7 => WwError::Timeout("late"),
            _ => WwError::Unreachable("cut"),
        };
        let frame = wire::encode_response_err(gen.next(), &err);
        let body = wire::read_frame(&mut &frame[..]).unwrap().unwrap();
        let Frame::Response { result, .. } = wire::decode_frame(&body).unwrap() else {
            return Err(TestCaseError::fail("error frame decoded as a request"));
        };
        let got = result.unwrap_err();
        prop_assert_eq!(std::mem::discriminant(&got), std::mem::discriminant(&err));
        prop_assert_eq!(got.is_retryable(), err.is_retryable());
    }

    /// Arbitrary bytes decode to an expression or a typed `Corrupt`, never
    /// a panic; half the inputs start as a valid program with bytes flipped,
    /// so decode gets past the count. Whatever decodes evaluates without a
    /// panic, overflow checks on: on an empty, a short and a long payload,
    /// at the edges of the key and time domains.
    #[test]
    fn expression_bytes_decode_or_fail_typed_and_evaluate_without_panics(seed in 0u64..u64::MAX) {
        use waterwheel_core::WwError;
        let mut gen = Gen(seed);
        let mut bytes = Vec::new();
        if gen.below(2) == 0 {
            gen.expr(5).encode(&mut bytes);
            for _ in 0..=gen.below(3) {
                let at = gen.below(bytes.len() as u64) as usize;
                bytes[at] ^= gen.next() as u8;
            }
        } else {
            bytes.extend_from_slice(&(gen.below(12) as u32).to_le_bytes());
            bytes.extend((0..gen.below(64)).map(|_| gen.below(16) as u8));
        }
        match Expr::decode(&mut Decoder::new(&bytes, "expression")) {
            Ok(expr) => {
                for payload in [vec![], vec![0xAB; 3], vec![0xFF; 40]] {
                    for (key, ts) in [(0, 0), (u64::MAX, u64::MAX), (gen.next(), gen.next())] {
                        let _ = expr.eval(&Tuple::new(key, ts, payload.clone()));
                    }
                }
            }
            Err(e) => prop_assert!(matches!(e, WwError::Corrupt { .. }), "{e}"),
        }
    }
}

/// The generator covers every declared tag: a verb added to a table
/// without a generator case fails here, so the properties above reach
/// every variant on the wire.
#[test]
fn the_generator_produces_every_declared_tag() {
    use std::collections::BTreeSet;
    let mut seen: [BTreeSet<u8>; 4] = Default::default();
    let mut gen = Gen(7);
    for _ in 0..4_000 {
        seen[0].insert(gen.request().tag());
        seen[1].insert(gen.meta_request().tag());
        seen[2].insert(gen.response().tag());
        seen[3].insert(gen.meta_response().tag());
    }
    let declared = [
        Request::TAGS,
        MetaRequest::TAGS,
        Response::TAGS,
        MetaResponse::TAGS,
    ];
    for (seen, declared) in seen.iter().zip(declared) {
        let declared: BTreeSet<u8> = declared.iter().copied().collect();
        assert_eq!(seen, &declared);
    }
}

/// Not a property, but belongs with the hardening suite: a frame whose
/// announced length is absurd must be rejected before any allocation, and
/// a predicate behind its presence flag crosses whole.
#[test]
fn oversized_announcement_and_predicate_flag() {
    let mut frame = Vec::new();
    frame.extend_from_slice(&(u32::MAX).to_le_bytes());
    frame.extend_from_slice(&[0u8; 32]);
    assert!(wire::read_frame(&mut &frame[..]).is_err());

    let env = Envelope {
        src: ServerId(0),
        dst: ServerId(1),
        rpc_id: 1,
        deadline: Instant::now() + Duration::from_secs(1),
        payload: Request::InMemorySubquery {
            sq: SubQuery {
                id: SubQueryId {
                    query: QueryId(1),
                    index: 0,
                },
                keys: KeyInterval::full(),
                times: TimeInterval::full(),
                predicate: Some(Expr::from(0).lt(Expr::key())),
                measure_range: Some((3, 907)),
                target: SubQueryTarget::InMemory(ServerId(1)),
            },
        },
    };
    let frame = wire::encode_request(1, &env);
    let body = wire::read_frame(&mut &frame[..]).unwrap().unwrap();
    let Frame::Request { env: got, .. } = wire::decode_frame(&body).unwrap() else {
        panic!("expected a request frame");
    };
    match got.payload {
        Request::InMemorySubquery { sq } => {
            assert_eq!(sq.predicate, Some(Expr::from(0).lt(Expr::key())))
        }
        other => panic!("wrong payload: {other:?}"),
    }
}

/// Wire tag 0 was the per-tuple `Ingest` verb. It is retired, not reused:
/// a frame from an old sender that still carries it — a well-formed tuple
/// behind the tag included — is a typed decode error, never a panic and
/// never some other verb.
#[test]
fn retired_request_tag_zero_is_a_typed_error() {
    use waterwheel_core::WwError;
    let env = Envelope {
        src: ServerId(2_000),
        dst: ServerId(0),
        rpc_id: 1,
        deadline: Instant::now() + Duration::from_secs(1),
        payload: Request::Ping,
    };
    let frame = wire::encode_request(1, &env);
    let mut body = wire::read_frame(&mut &frame[..]).unwrap().unwrap();
    // Ping is a bare tag, so the request tag is the body's last byte.
    *body.last_mut().unwrap() = 0;
    let mut old_payload = Vec::new();
    waterwheel_core::codec::encode_tuple(&mut old_payload, &Tuple::new(7, 9, vec![1, 2, 3]));
    for tail in [&[][..], &old_payload[..]] {
        let mut forged = body.clone();
        forged.extend_from_slice(tail);
        let err = wire::decode_frame(&forged).unwrap_err();
        assert!(matches!(err, WwError::Corrupt { .. }), "{err:?}");
        assert!(err.to_string().contains("unknown request tag 0"), "{err}");
    }
}

/// A `Stats` answer whose row count was forged upward (nothing else in the
/// frame is protected by a checksum) must fail on the missing rows without
/// first reserving room for the announced count.
#[test]
fn forged_stats_row_count_is_clamped_to_the_bytes_present() {
    use waterwheel_core::WwError;
    let rows = vec![StatRow {
        name: "query.leaf_reads".into(),
        server: Some(ServerId(1_000)),
        value: 3,
    }];
    let frame = wire::encode_response_ok(1, &Response::Stats(rows));
    let mut body = wire::read_frame(&mut &frame[..]).unwrap().unwrap();
    // version, kind, correlation id, response tag — then the row count.
    let count_at = 1 + 1 + 8 + 1;
    assert_eq!(body[count_at..count_at + 4], 1u32.to_le_bytes());
    body[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    let err = wire::decode_frame(&body).unwrap_err();
    assert!(matches!(err, WwError::Corrupt { .. }), "{err:?}");
}

/// One fixed instance of every `Request`, `MetaRequest`, `Response`,
/// `MetaResponse` and `WwError` variant, encoded as whole frames. The
/// deadline is already past when the frame is written, so the budget field
/// is always 0 and the bytes depend on nothing but the values.
fn pinned_frames() -> [(&'static str, Vec<Vec<u8>>); 5] {
    use waterwheel_core::WwError;
    let region = Region::new(KeyInterval::new(3, 900), TimeInterval::new(40, 7_000));
    let tuples = vec![
        Tuple::new(1, 2, &b"abc"[..]),
        Tuple::bare(u64::MAX, 0),
        Tuple::new(7, 8, vec![5u8; 40]),
    ];
    let sq = SubQuery {
        id: SubQueryId {
            query: QueryId(11),
            index: 2,
        },
        keys: KeyInterval::new(10, 20),
        times: TimeInterval::new(30, 40),
        predicate: None,
        measure_range: Some((5, 500)),
        target: SubQueryTarget::InMemory(ServerId(3)),
    };
    let mut agg = PartialAgg::default();
    for v in [4, 9, 1_000] {
        agg.insert(v);
    }
    let extent = SummaryExtent {
        cells: 8,
        bytes: 320,
        levels: 0b101,
        slice_bits: 4,
        measure_range: Some((12, 8_000)),
    };
    let schema = PartitionSchema::uniform(&[ServerId(0), ServerId(1), ServerId(2)]);
    let view = MembershipView {
        epoch: 4,
        indexing: vec![(ServerId(0), NodeId(0)), (ServerId(1), NodeId(1))],
        query: vec![(ServerId(1_000), NodeId(1))],
    };
    let meta_requests = vec![
        MetaRequest::UpdateMemoryRegion {
            server: ServerId(1),
            region: Some(region),
        },
        MetaRequest::ChunksOverlapping { region },
        MetaRequest::MemoryRegionsOverlapping { region },
        MetaRequest::SummaryExtent { chunk: ChunkId(4) },
        MetaRequest::Partition,
        MetaRequest::DurableOffset {
            server: ServerId(3),
        },
        MetaRequest::Join {
            server: ServerId(1_001),
            role: MemberRole::Query,
            node: NodeId(1),
            ttl_ms: 3_000,
        },
        MetaRequest::Heartbeat {
            server: ServerId(2),
            ttl_ms: 500,
        },
        MetaRequest::Leave {
            server: ServerId(2),
        },
        MetaRequest::Membership,
        MetaRequest::SetPartition {
            schema: schema.clone(),
        },
        MetaRequest::BeginMigration {
            keys: KeyInterval::new(100, 199),
            from: ServerId(0),
            to: ServerId(2),
        },
        MetaRequest::CompleteMigration { id: 5 },
    ];
    let requests = vec![
        Request::IngestBatch {
            seq: 99,
            tuples: tuples.clone(),
        },
        Request::Flush,
        Request::InMemorySubquery { sq: sq.clone() },
        Request::Ping,
        Request::Meta(MetaRequest::Partition),
        Request::Shutdown,
        Request::RegisterPeers {
            peers: vec![
                (ServerId(2), "127.0.0.1:4107".to_string()),
                (ServerId(1_002), "[::1]:4108".to_string()),
            ],
        },
        Request::Reassign {
            interval: KeyInterval::new(100, 199),
        },
        Request::MigrateUniform,
        Request::Stats,
    ];
    let meta_responses = vec![
        MetaResponse::Ack,
        MetaResponse::Allocated(ChunkId(6)),
        MetaResponse::Chunks(vec![(ChunkId(2), region), (ChunkId(3), Region::full())]),
        MetaResponse::Regions(vec![(ServerId(1), region)]),
        MetaResponse::Extent(Some(extent)),
        MetaResponse::Partition(Some(schema)),
        MetaResponse::Offset(123_456),
        MetaResponse::Epoch(7),
        MetaResponse::Migration(3),
        MetaResponse::Membership(view),
    ];
    let responses = vec![
        Response::Ack,
        Response::AckBatch {
            tuples: 12,
            deduped: true,
        },
        Response::Pong,
        Response::Tuples(tuples.clone()),
        Response::Flushed(vec![ChunkId(1), ChunkId(9)]),
        Response::Meta(MetaResponse::Partition(None)),
        Response::Query(QueryResult {
            query_id: QueryId(5),
            tuples,
            subqueries: 4,
        }),
        Response::Aggregate(AggregateAnswer {
            query_id: QueryId(5),
            kind: AggregateKind::Max,
            agg,
            cells_merged: 2,
            scanned_tuples: 9,
        }),
        Response::Migrated {
            epoch: 12,
            ranges: 3,
        },
        Response::Stats(vec![
            StatRow {
                name: "query.leaf_reads".into(),
                server: Some(ServerId(1_000)),
                value: 17,
            },
            StatRow {
                name: "wire.bytes_in".into(),
                server: None,
                value: u64::MAX,
            },
        ]),
    ];
    let errors = vec![
        WwError::Io(std::io::Error::other("disk on fire")),
        WwError::corrupt("chunk", "bad magic"),
        WwError::not_found("chunk", 7),
        WwError::InvalidState("sealed".into()),
        WwError::Config("zero fanout".into()),
        WwError::Shutdown("indexing server"),
        WwError::Injected("crash test"),
        WwError::Timeout("late link"),
        WwError::Unreachable("cut link"),
        WwError::Overloaded {
            retry_after: Duration::from_millis(40),
        },
    ];
    let request = |(i, payload): (usize, Request)| {
        let env = Envelope {
            src: ServerId(2_000),
            dst: ServerId(i as u32),
            rpc_id: 42 + i as u64,
            deadline: Instant::now(),
            payload,
        };
        wire::encode_request(7 + i as u64, &env)
    };
    let ok = |(i, resp): (usize, Response)| wire::encode_response_ok(9 + i as u64, &resp);
    [
        (
            "requests",
            requests.into_iter().enumerate().map(request).collect(),
        ),
        (
            "meta requests",
            meta_requests
                .into_iter()
                .map(Request::Meta)
                .enumerate()
                .map(request)
                .collect(),
        ),
        (
            "responses",
            responses.into_iter().enumerate().map(ok).collect(),
        ),
        (
            "meta responses",
            meta_responses
                .into_iter()
                .map(Response::Meta)
                .enumerate()
                .map(ok)
                .collect(),
        ),
        (
            "errors",
            errors
                .iter()
                .enumerate()
                .map(|(i, e)| wire::encode_response_err(i as u64, e))
                .collect(),
        ),
    ]
}

/// The frame bytes of every variant, pinned: a change to the codec that
/// moves any byte on the wire fails here, whatever the round trips say.
#[test]
fn wire_frames_are_pinned() {
    let got: Vec<(&str, usize, usize, u64)> = pinned_frames()
        .into_iter()
        .map(|(family, frames)| {
            let bytes = frames.concat();
            let fnv = waterwheel_core::codec::fnv1a(&bytes);
            (family, frames.len(), bytes.len(), fnv)
        })
        .collect();
    assert_eq!(
        got,
        [
            ("requests", 10, 633, 0xa28f_e962_9477_b4ef),
            ("meta requests", 13, 770, 0x3452_3e63_6140_7926),
            ("responses", 10, 543, 0x66df_193b_5064_bd2c),
            ("meta responses", 10, 465, 0xcad5_5149_2b55_f79b),
            ("errors", 10, 293, 0x3baa_e0aa_e892_b1a9),
        ]
    );
}

/// The two verbs a flush sends, pinned on a line of their own: the id
/// block, then one registration carrying a main chunk with a summary and a
/// bare side chunk.
#[test]
fn flush_registration_frames_are_pinned() {
    let region = Region::new(KeyInterval::new(3, 900), TimeInterval::new(40, 7_000));
    let info = ChunkInfo {
        region,
        count: 10,
        bytes: 200,
        producer: ServerId(2),
    };
    let requests = [
        MetaRequest::AllocateChunkIds { n: 2 },
        MetaRequest::RegisterFlush {
            producer: ServerId(2),
            chunks: vec![
                FlushedChunk {
                    id: ChunkId(4),
                    info,
                    summary: Some(SummaryExtent {
                        cells: 8,
                        bytes: 320,
                        levels: 0b101,
                        slice_bits: 4,
                        measure_range: Some((12, 8_000)),
                    }),
                },
                FlushedChunk {
                    id: ChunkId(5),
                    info: ChunkInfo {
                        region: Region::full(),
                        count: 3,
                        ..info
                    },
                    summary: None,
                },
            ],
            durable_offset: 77,
            region: Some(region),
        },
    ];
    let frames: Vec<Vec<u8>> = requests
        .into_iter()
        .enumerate()
        .map(|(i, req)| {
            let env = Envelope {
                src: ServerId(2),
                dst: waterwheel_net::META_SERVER,
                rpc_id: 42 + i as u64,
                deadline: Instant::now(),
                payload: Request::Meta(req),
            };
            wire::encode_request(7 + i as u64, &env)
        })
        .collect();
    let bytes = frames.concat();
    let got = (
        frames.len(),
        bytes.len(),
        waterwheel_core::codec::fnv1a(&bytes),
    );
    assert_eq!(got, (2, 294, 0x47dc_6146_7cde_c6b0));
}

/// The aggregate subquery verbs and their one answer, pinned on a line of
/// their own: an in-memory and a chunk aggregate subquery, then a share.
#[test]
fn aggregate_subquery_frames_are_pinned() {
    let sq = SubQuery {
        id: SubQueryId {
            query: QueryId(11),
            index: 2,
        },
        keys: KeyInterval::new(10, 1 << 20),
        times: TimeInterval::new(1_500, 61_999),
        predicate: None,
        measure_range: None,
        target: SubQueryTarget::InMemory(ServerId(1)),
    };
    let mut agg = PartialAgg::default();
    for v in [4, 9, 1_000] {
        agg.insert(v);
    }
    let requests = [
        Request::InMemoryAggregate { sq: sq.clone() },
        Request::ChunkAggregate {
            sq: SubQuery {
                target: SubQueryTarget::Chunk(ChunkId(6)),
                ..sq
            },
            chunk: ChunkId(6),
        },
    ];
    let mut frames: Vec<Vec<u8>> = requests
        .into_iter()
        .enumerate()
        .map(|(i, payload)| {
            let env = Envelope {
                src: waterwheel_net::COORDINATOR,
                dst: ServerId(i as u32),
                rpc_id: 42 + i as u64,
                deadline: Instant::now(),
                payload,
            };
            wire::encode_request(7 + i as u64, &env)
        })
        .collect();
    frames.push(wire::encode_response_ok(
        9,
        &Response::Aggregated {
            agg,
            cells_merged: 3,
            leaves_merged: 40,
            scanned: 512,
        },
    ));
    let bytes = frames.concat();
    let got = (
        frames.len(),
        bytes.len(),
        waterwheel_core::codec::fnv1a(&bytes),
    );
    assert_eq!(got, (3, 271, 0x98eb_fcee_77fd_7a5c));
}

/// The client verbs that carry a whole query, and a subquery with a
/// predicate, pinned on a line of their own: a range query with a
/// predicate and measure range; an aggregate over a predicate; a chunk
/// subquery whose predicate reads the payload.
#[test]
fn client_query_and_predicate_frames_are_pinned() {
    let (keys, times) = (KeyInterval::new(0, 99), TimeInterval::new(5, 6));
    let taxi = Expr::payload(0, 4).equals(0x0403_0201);
    let sq = SubQuery {
        id: SubQueryId {
            query: QueryId(11),
            index: 2,
        },
        keys: KeyInterval::new(10, 20),
        times: TimeInterval::new(30, 40),
        predicate: Some((Expr::payload(7, 1) & 0xF0).equals(0xF0).or(!Expr::ts())),
        measure_range: Some((5, 500)),
        target: SubQueryTarget::Chunk(ChunkId(6)),
    };
    let requests = [
        Request::ClientQuery {
            query: Query::with_predicate(keys, times, (Expr::key() % 2).equals(0))
                .and_measure_between(3, 9),
        },
        Request::ClientAggregate {
            query: Query::with_predicate(KeyInterval::full(), times, taxi)
                .aggregate(AggregateKind::Avg),
        },
        Request::ChunkSubquery {
            sq,
            chunk: ChunkId(6),
        },
    ];
    let frames: Vec<Vec<u8>> = requests
        .into_iter()
        .enumerate()
        .map(|(i, payload)| {
            let env = Envelope {
                src: ServerId(2_000),
                dst: ServerId(i as u32),
                rpc_id: 42 + i as u64,
                deadline: Instant::now(),
                payload,
            };
            wire::encode_request(7 + i as u64, &env)
        })
        .collect();
    let bytes = frames.concat();
    let got = (
        frames.len(),
        bytes.len(),
        waterwheel_core::codec::fnv1a(&bytes),
    );
    assert_eq!(got, (3, 359, 0x3c83_ceac_c566_1411));
}

/// The retired client verbs — request tags 9 (`ClientQuery` over a bare
/// rectangle) and 10 (`ClientAggregate` likewise) — are typed decode
/// errors, never some other verb.
#[test]
fn retired_client_tags_are_typed_errors() {
    use waterwheel_core::WwError;
    let env = Envelope {
        src: ServerId(2_000),
        dst: waterwheel_net::COORDINATOR,
        rpc_id: 1,
        deadline: Instant::now() + Duration::from_secs(1),
        payload: Request::Ping,
    };
    let frame = wire::encode_request(1, &env);
    let body = wire::read_frame(&mut &frame[..]).unwrap().unwrap();
    for tag in [9, 10] {
        let mut forged = body.clone();
        *forged.last_mut().unwrap() = tag;
        let err = wire::decode_frame(&forged).unwrap_err();
        assert!(matches!(err, WwError::Corrupt { .. }), "{err:?}");
        assert!(
            err.to_string()
                .contains(&format!("unknown request tag {tag}")),
            "{err}"
        );
    }
}

/// The retired aggregate verbs — request tags 4 (`AggregateInMemory`) and 6
/// (`ReadSummary`), response tags 5 (`Fold`) and 6 (`Summary`) — are typed
/// decode errors, never some other verb.
#[test]
fn retired_aggregate_tags_are_typed_errors() {
    use waterwheel_core::WwError;
    let env = Envelope {
        src: waterwheel_net::COORDINATOR,
        dst: ServerId(0),
        rpc_id: 1,
        deadline: Instant::now() + Duration::from_secs(1),
        payload: Request::Ping,
    };
    let frame = wire::encode_request(1, &env);
    let request = wire::read_frame(&mut &frame[..]).unwrap().unwrap();
    let frame = wire::encode_response_ok(1, &Response::Pong);
    let response = wire::read_frame(&mut &frame[..]).unwrap().unwrap();
    // Ping and Pong are bare tags: each body ends in its tag.
    for (body, tag, what) in [
        (&request, 4, "request"),
        (&request, 6, "request"),
        (&response, 5, "response"),
        (&response, 6, "response"),
    ] {
        let mut forged = body.clone();
        *forged.last_mut().unwrap() = tag;
        let err = wire::decode_frame(&forged).unwrap_err();
        assert!(matches!(err, WwError::Corrupt { .. }), "{err:?}");
        assert!(
            err.to_string()
                .contains(&format!("unknown {what} tag {tag}")),
            "{err}"
        );
    }
}

/// The verbs whose layouts carried the secondary attribute index are
/// retired, and each tag is a typed decode error, never some other verb,
/// whatever bytes follow it: request tags 5 (`ChunkSubquery` with a leaf
/// filter), 18 and 19 (`ClientQuery` / `ClientAggregate` over a query with
/// an attribute equality), meta request tags 7 (`AttrProbe`) and 19
/// (`RegisterFlush` with attribute indexes), meta response tag 4 (`Probe`).
#[test]
fn retired_attribute_tags_are_typed_errors() {
    use waterwheel_core::WwError;
    let body = |frame: Vec<u8>| wire::read_frame(&mut &frame[..]).unwrap().unwrap();
    let request = |payload| {
        let env = Envelope {
            src: ServerId(2_000),
            dst: waterwheel_net::COORDINATOR,
            rpc_id: 1,
            deadline: Instant::now() + Duration::from_secs(1),
            payload,
        };
        body(wire::encode_request(1, &env))
    };
    // Ping, Partition and Ack are bare tags: each body ends in its tag.
    let ping = request(Request::Ping);
    let partition = request(Request::Meta(MetaRequest::Partition));
    let ack = body(wire::encode_response_ok(
        1,
        &Response::Meta(MetaResponse::Ack),
    ));
    // What an old sender put behind the tag of a chunk subquery: the
    // subquery, the chunk, and an absent leaf filter.
    let mut old = Vec::new();
    Gen(5).subquery().encode(&mut old);
    ChunkId(6).encode(&mut old);
    old.push(0);
    for (body, tag, what) in [
        (&ping, 5, "request"),
        (&ping, 18, "request"),
        (&ping, 19, "request"),
        (&partition, 7, "meta request"),
        (&partition, 19, "meta request"),
        (&ack, 4, "meta response"),
    ] {
        for tail in [&[][..], &old[..]] {
            let mut forged = body.clone();
            *forged.last_mut().unwrap() = tag;
            forged.extend_from_slice(tail);
            let err = wire::decode_frame(&forged).unwrap_err();
            assert!(matches!(err, WwError::Corrupt { .. }), "{err:?}");
            assert!(
                err.to_string()
                    .contains(&format!("unknown {what} tag {tag}")),
                "{err}"
            );
        }
    }
}
