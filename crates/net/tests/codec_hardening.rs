//! Property tests hardening the wire codec: every `Request`/`Response`
//! variant round-trips byte-exactly, and decoding adversarial input —
//! truncated, bit-flipped, or length-corrupted frames — returns `WwError`
//! without panicking or over-allocating.

use proptest::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};
use waterwheel_agg::{AggregateAnswer, FoldOutcome, PartialAgg};
use waterwheel_core::aggregate::AggregateKind;
use waterwheel_core::{
    ChunkId, KeyInterval, QueryId, QueryResult, Region, ServerId, StatRow, SubQuery, SubQueryId,
    SubQueryTarget, TimeInterval, Tuple,
};
use waterwheel_index::secondary::{AttrProbe, ChunkAttrIndex};
use waterwheel_index::Bitmap;
use waterwheel_meta::{ChunkInfo, PartitionSchema, SummaryExtent};
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

    fn bitmap(&mut self) -> Bitmap {
        let mut b = Bitmap::new();
        for _ in 0..self.below(20) {
            b.insert(self.below(512) as u32);
        }
        b
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
            predicate: None,
            measure_range: self.measure_range(),
            target: if self.below(2) == 0 {
                SubQueryTarget::InMemory(ServerId(self.next() as u32))
            } else {
                SubQueryTarget::Chunk(ChunkId(self.next()))
            },
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

    fn meta_request(&mut self) -> MetaRequest {
        match self.below(13) {
            0 => MetaRequest::UpdateMemoryRegion {
                server: ServerId(self.next() as u32),
                region: if self.below(2) == 0 {
                    None
                } else {
                    Some(self.region())
                },
            },
            1 => MetaRequest::AllocateChunkId,
            2 => MetaRequest::RegisterChunk {
                chunk: ChunkId(self.next()),
                info: ChunkInfo {
                    region: self.region(),
                    count: self.next(),
                    bytes: self.next(),
                    producer: ServerId(self.next() as u32),
                },
                durable_offset: self.next(),
            },
            3 => MetaRequest::RegisterSummary {
                chunk: ChunkId(self.next()),
                extent: self.summary_extent(),
            },
            4 => {
                let leaves = self.below(8) as usize;
                let mut leaf_values = Vec::with_capacity(leaves);
                for _ in 0..leaves {
                    let n = self.below(6) as usize;
                    let vals: Vec<u64> = (0..n).map(|_| self.below(100)).collect();
                    leaf_values.push(vals);
                }
                MetaRequest::RegisterAttrIndex {
                    chunk: ChunkId(self.next()),
                    attr: self.next() as u16,
                    index: ChunkAttrIndex::build(&leaf_values, 8),
                }
            }
            5 => MetaRequest::ChunksOverlapping {
                region: self.region(),
            },
            6 => MetaRequest::MemoryRegionsOverlapping {
                region: self.region(),
            },
            7 => MetaRequest::AttrProbe {
                chunk: ChunkId(self.next()),
                attr: self.next() as u16,
                value: self.next(),
            },
            8 => MetaRequest::SummaryExtent {
                chunk: ChunkId(self.next()),
            },
            9 => MetaRequest::BeginMigration {
                keys: self.interval_keys(),
                from: ServerId(self.next() as u32),
                to: ServerId(self.next() as u32),
            },
            10 => MetaRequest::CompleteMigration { id: self.next() },
            11 => {
                let servers: Vec<ServerId> = (0..=self.below(6) as u32).map(ServerId).collect();
                MetaRequest::SetPartition {
                    schema: PartitionSchema::uniform(&servers),
                }
            }
            _ => MetaRequest::Partition,
        }
    }

    fn request(&mut self) -> Request {
        // Arm numbers are the wire tags; 0 is retired (see
        // `retired_request_tag_zero_is_a_typed_error`).
        match 1 + self.below(15) {
            1 => Request::IngestBatch {
                seq: self.next(),
                tuples: self.tuples(),
            },
            2 => Request::Flush,
            3 => Request::InMemorySubquery {
                sq: self.subquery(),
            },
            4 => Request::AggregateInMemory {
                slices: {
                    let a = self.next() as u16;
                    let b = self.next() as u16;
                    (a.min(b), a.max(b))
                },
                covered: self.interval_times(),
            },
            5 => Request::ChunkSubquery {
                sq: self.subquery(),
                chunk: ChunkId(self.next()),
                leaf_filter: if self.below(2) == 0 {
                    None
                } else {
                    Some(self.bitmap())
                },
            },
            6 => Request::ReadSummary {
                chunk: ChunkId(self.next()),
            },
            7 => Request::Ping,
            8 => Request::Meta(self.meta_request()),
            9 => Request::ClientQuery {
                keys: self.interval_keys(),
                times: self.interval_times(),
                attr_eq: if self.below(2) == 0 {
                    None
                } else {
                    Some((self.next() as u16, self.next()))
                },
            },
            10 => Request::ClientAggregate {
                keys: self.interval_keys(),
                times: self.interval_times(),
                kind: self.agg_kind(),
            },
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
            _ => Request::Stats,
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
        match self.below(7) {
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
            4 => MetaResponse::Probe(match self.below(3) {
                0 => AttrProbe::Absent,
                1 => AttrProbe::Leaves(self.bitmap()),
                _ => AttrProbe::Unknown,
            }),
            5 => MetaResponse::Extent(if self.below(2) == 0 {
                None
            } else {
                Some(self.summary_extent())
            }),
            _ => MetaResponse::Partition(if self.below(2) == 0 {
                None
            } else {
                let n = 1 + self.below(8);
                Some(PartitionSchema::uniform(
                    &(0..n).map(|i| ServerId(i as u32)).collect::<Vec<_>>(),
                ))
            }),
        }
    }

    fn response(&mut self) -> Response {
        match self.below(10) {
            0 => Response::Ack,
            1 => Response::AckBatch {
                tuples: self.next() as u32,
                deduped: self.below(2) == 0,
            },
            2 => Response::Pong,
            3 => Response::Tuples(self.tuples()),
            4 => Response::Flushed((0..self.below(6)).map(|_| ChunkId(self.next())).collect()),
            5 => Response::Fold(FoldOutcome {
                agg: self.partial_agg(),
                cells_merged: self.next(),
                residues: (0..self.below(4)).map(|_| self.interval_times()).collect(),
            }),
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
        // Payloads carry no closures (the generator never sets predicates),
        // so the Debug rendering is a faithful structural comparison.
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
}

/// Not a property, but belongs with the hardening suite: a frame whose
/// announced length is absurd must be rejected before any allocation, and
/// predicates survive as presence flags without poisoning the round trip.
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
                predicate: Some(Arc::new(|t: &Tuple| t.key > 0)),
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
        Request::InMemorySubquery { sq } => assert!(sq.predicate.is_none()),
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
