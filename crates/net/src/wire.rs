//! Binary wire codec for the message plane.
//!
//! Every [`Envelope`] and every [`Response`] can be serialized into a
//! length-prefixed frame and reconstructed on the other side of a real
//! socket. The format reuses the hand-rolled little-endian
//! [`Encoder`]/[`Decoder`] style of `waterwheel_core::codec` — simple,
//! fixed-layout, auditable — rather than pulling in a serialization
//! framework.
//!
//! ## Frame layout
//!
//! ```text
//! u32 len                  body length (bytes after this prefix)
//! body:
//!   u8  version            WIRE_VERSION
//!   u8  kind               0 = request, 1 = response-ok, 2 = response-err
//!   u64 corr               transport-level correlation id
//!   kind 0: u32 src | u32 dst | u64 rpc_id | u64 budget_ms | Request
//!   kind 1: Response
//!   kind 2: WwError
//! ```
//!
//! One deliberate lossy spot, documented on the decoder: **deadlines**
//! travel as *remaining-budget milliseconds* (`budget_ms`) — an [`Instant`]
//! is process-local and cannot cross the wire. The receiver re-anchors the
//! budget on its own clock, so transit time is charged against the deadline
//! implicitly. Everything else — a query's filters included, as
//! `waterwheel_core::Expr` programs — crosses as the value it is.
//!
//! ## Hardening
//!
//! Decoding never panics and never over-allocates: the frame length is
//! capped at [`MAX_FRAME_LEN`] before any buffer is reserved, collection
//! counts are clamped to the bytes actually present, and unknown variant
//! tags, malformed component encodings and bytes after the end of the
//! payload surface as [`WwError::Corrupt`].
//!
//! ## Payload layout
//!
//! The payloads are the [`Wire`] encodings of [`Request`], [`Response`] and
//! [`WwError`]; the tagged tables that declare the message enums
//! (`envelope.rs`) are the format.

use crate::envelope::{Envelope, Request, Response};
use std::time::{Duration, Instant};
use waterwheel_core::codec::{ByteCount, Decoder, Encoder, Wire};
use waterwheel_core::{Result, ServerId, WwError};

/// Version byte stamped into every frame; bumped on layout changes.
pub const WIRE_VERSION: u8 = 1;

/// Hard cap on one frame's body length. A peer announcing a longer frame
/// is corrupt (or hostile) and is rejected before any allocation.
pub const MAX_FRAME_LEN: usize = 64 << 20;

const KIND_REQUEST: u8 = 0;
const KIND_RESPONSE_OK: u8 = 1;
const KIND_RESPONSE_ERR: u8 = 2;

/// What decoding one frame body yields.
#[derive(Debug)]
pub enum Frame {
    /// A request frame: the envelope fields plus the transport correlation
    /// id. `deadline` has been re-anchored on the local clock from the
    /// remaining-budget millis carried on the wire.
    Request {
        /// Transport-level correlation id (echoed in the response frame).
        corr: u64,
        /// The reconstructed envelope.
        env: Envelope,
    },
    /// A response frame: the destination's answer or error.
    Response {
        /// Correlation id of the request this answers.
        corr: u64,
        /// The outcome carried back.
        result: Result<Response>,
    },
}

// ---------------------------------------------------------------------------
// Frame entry points
// ---------------------------------------------------------------------------

/// Encodes a full request frame (length prefix included) for `env`.
pub fn encode_request(corr: u64, env: &Envelope) -> Vec<u8> {
    let budget = env.deadline.saturating_duration_since(Instant::now());
    let budget_ms = budget.as_millis().min(u64::MAX as u128) as u64;
    let mut frame = start_frame(request_frame_len(env));
    write_request(&mut frame, corr, env, budget_ms);
    finish_frame(frame)
}

/// Encodes a full success-response frame (length prefix included).
pub fn encode_response_ok(corr: u64, resp: &Response) -> Vec<u8> {
    let mut frame = start_frame(response_ok_frame_len(resp));
    write_response_ok(&mut frame, corr, resp);
    finish_frame(frame)
}

/// Encodes a full error-response frame (length prefix included).
pub fn encode_response_err(corr: u64, err: &WwError) -> Vec<u8> {
    let mut frame = start_frame(4 + 32);
    frame.put_u8(WIRE_VERSION);
    frame.put_u8(KIND_RESPONSE_ERR);
    frame.put_u64(corr);
    err.encode(&mut frame);
    finish_frame(frame)
}

/// Encodes a full response frame for a handler outcome.
pub fn encode_response(corr: u64, result: &Result<Response>) -> Vec<u8> {
    match result {
        Ok(resp) => encode_response_ok(corr, resp),
        Err(err) => encode_response_err(corr, err),
    }
}

/// Exact length of [`encode_request`]'s frame for `env`, without building
/// it: the same encoder runs against a sink that only counts. This is what
/// the in-process transport charges its byte counters with.
pub fn request_frame_len(env: &Envelope) -> usize {
    let mut len = ByteCount(4);
    write_request(&mut len, 0, env, 0);
    len.0
}

/// Exact length of [`encode_response_ok`]'s frame for `resp`, without
/// building it.
pub fn response_ok_frame_len(resp: &Response) -> usize {
    let mut len = ByteCount(4);
    write_response_ok(&mut len, 0, resp);
    len.0
}

fn write_request(out: &mut impl Encoder, corr: u64, env: &Envelope, budget_ms: u64) {
    out.put_u8(WIRE_VERSION);
    out.put_u8(KIND_REQUEST);
    out.put_u64(corr);
    env.src.encode(out);
    env.dst.encode(out);
    out.put_u64(env.rpc_id);
    out.put_u64(budget_ms);
    env.payload.encode(out);
}

fn write_response_ok(out: &mut impl Encoder, corr: u64, resp: &Response) {
    out.put_u8(WIRE_VERSION);
    out.put_u8(KIND_RESPONSE_OK);
    out.put_u64(corr);
    resp.encode(out);
}

/// A frame buffer of `frame_len` bytes' capacity (requests and success
/// responses are sized exactly first, so encoding never reallocates) that
/// starts with room for the length prefix; [`finish_frame`] fills that in
/// once the body is written — the body is encoded in place, never copied
/// behind a prefix afterwards.
fn start_frame(frame_len: usize) -> Vec<u8> {
    let mut frame = Vec::with_capacity(frame_len);
    frame.put_u32(0);
    frame
}

fn finish_frame(mut frame: Vec<u8>) -> Vec<u8> {
    let body_len = frame.len() - 4;
    debug_assert!(body_len <= MAX_FRAME_LEN, "frame exceeds MAX_FRAME_LEN");
    frame[..4].copy_from_slice(&(body_len as u32).to_le_bytes());
    frame
}

/// Reads one frame body off a byte stream. Returns `Ok(None)` on a clean
/// EOF at a frame boundary; an announced length past [`MAX_FRAME_LEN`] is
/// rejected *before* the body buffer is allocated.
pub fn read_frame(r: &mut impl std::io::Read) -> Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(WwError::corrupt("frame", "eof inside the length prefix"));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WwError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME_LEN {
        return Err(WwError::corrupt(
            "frame",
            format!("announced length {len} exceeds the {MAX_FRAME_LEN}-byte cap"),
        ));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body).map_err(WwError::Io)?;
    Ok(Some(body))
}

/// Decodes one frame body produced by the `encode_*` functions: exactly
/// one frame, nothing after it.
pub fn decode_frame(body: &[u8]) -> Result<Frame> {
    let mut dec = Decoder::new(body, "frame");
    let version = dec.get_u8()?;
    if version != WIRE_VERSION {
        return Err(dec.corrupt(format!("unsupported wire version {version}")));
    }
    let kind = dec.get_u8()?;
    let corr = dec.get_u64()?;
    let frame = match kind {
        KIND_REQUEST => {
            let src = ServerId::decode(&mut dec)?;
            let dst = ServerId::decode(&mut dec)?;
            let rpc_id = dec.get_u64()?;
            let budget_ms = dec.get_u64()?;
            let payload = Request::decode(&mut dec)?;
            Frame::Request {
                corr,
                env: Envelope {
                    src,
                    dst,
                    rpc_id,
                    deadline: Instant::now() + Duration::from_millis(budget_ms),
                    payload,
                },
            }
        }
        KIND_RESPONSE_OK => Frame::Response {
            corr,
            result: Ok(Response::decode(&mut dec)?),
        },
        KIND_RESPONSE_ERR => Frame::Response {
            corr,
            result: Err(WwError::decode(&mut dec)?),
        },
        other => return Err(dec.corrupt(format!("unknown frame kind {other}"))),
    };
    dec.finish()?;
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::{MetaRequest, MetaResponse, META_SERVER};
    use waterwheel_agg::{AggregateAnswer, PartialAgg};
    use waterwheel_core::aggregate::AggregateKind;
    use waterwheel_core::{
        ChunkId, Expr, KeyInterval, QueryId, QueryResult, Region, StatRow, SubQuery, SubQueryId,
        SubQueryTarget, TimeInterval, Tuple,
    };
    use waterwheel_meta::{
        ChunkInfo, FlushedChunk, MemberRole, MembershipView, PartitionSchema, SummaryExtent,
    };

    fn env(payload: Request) -> Envelope {
        Envelope {
            src: ServerId(2_000),
            dst: ServerId(0),
            rpc_id: 42,
            deadline: Instant::now() + Duration::from_secs(3),
            payload,
        }
    }

    /// Every round-tripped frame also checks the length-only sizing: the
    /// byte counters of an in-process run rest on it.
    fn roundtrip_request(payload: Request) -> Envelope {
        let sent = env(payload);
        let frame = encode_request(7, &sent);
        assert_eq!(request_frame_len(&sent), frame.len(), "{:?}", sent.payload);
        let body = read_frame(&mut &frame[..]).unwrap().unwrap();
        match decode_frame(&body).unwrap() {
            Frame::Request { corr, env } => {
                assert_eq!(corr, 7);
                env
            }
            other => panic!("expected a request frame, got {other:?}"),
        }
    }

    fn roundtrip_response(resp: Response) -> Response {
        let frame = encode_response_ok(9, &resp);
        assert_eq!(response_ok_frame_len(&resp), frame.len(), "{resp:?}");
        let body = read_frame(&mut &frame[..]).unwrap().unwrap();
        match decode_frame(&body).unwrap() {
            Frame::Response { corr, result } => {
                assert_eq!(corr, 9);
                result.unwrap()
            }
            other => panic!("expected a response frame, got {other:?}"),
        }
    }

    #[test]
    fn request_envelope_fields_round_trip() {
        let decoded = roundtrip_request(Request::Ping);
        assert_eq!(decoded.src, ServerId(2_000));
        assert_eq!(decoded.dst, ServerId(0));
        assert_eq!(decoded.rpc_id, 42);
        // The deadline travelled as remaining budget and re-anchored close
        // to the original 3 s.
        let budget = decoded.deadline.saturating_duration_since(Instant::now());
        assert!(budget > Duration::from_secs(2) && budget <= Duration::from_secs(3));
    }

    #[test]
    fn ingest_batch_round_trips_tuples_exactly() {
        let tuples = vec![
            Tuple::new(1, 2, &b"abc"[..]),
            Tuple::bare(u64::MAX, 0),
            Tuple::new(7, 8, vec![0u8; 300]),
        ];
        let decoded = roundtrip_request(Request::IngestBatch {
            seq: 99,
            tuples: tuples.clone(),
        });
        match decoded.payload {
            Request::IngestBatch { seq, tuples: got } => {
                assert_eq!(seq, 99);
                assert_eq!(got, tuples);
            }
            other => panic!("wrong payload: {other:?}"),
        }
    }

    #[test]
    fn subquery_predicate_crosses_the_wire() {
        let sq = SubQuery {
            id: SubQueryId {
                query: QueryId(3),
                index: 1,
            },
            keys: KeyInterval::new(10, 20),
            times: TimeInterval::new(30, 40),
            predicate: Some((Expr::key() % 2).equals(0)),
            measure_range: Some((1, 1000)),
            target: SubQueryTarget::Chunk(ChunkId(5)),
            offset: None,
        };
        let decoded = roundtrip_request(Request::ChunkSubquery {
            sq,
            chunk: ChunkId(5),
        });
        match decoded.payload {
            Request::ChunkSubquery { sq, chunk } => {
                assert_eq!(chunk, ChunkId(5));
                assert_eq!(sq.keys, KeyInterval::new(10, 20));
                assert_eq!(sq.times, TimeInterval::new(30, 40));
                assert_eq!(sq.target, SubQueryTarget::Chunk(ChunkId(5)));
                assert_eq!(sq.predicate, Some((Expr::key() % 2).equals(0)));
                assert_eq!(sq.measure_range, Some((1, 1000)));
            }
            other => panic!("wrong payload: {other:?}"),
        }
    }

    #[test]
    fn meta_requests_round_trip() {
        let region = Region::new(KeyInterval::new(0, 9), TimeInterval::new(5, 6));
        let reqs = vec![
            MetaRequest::UpdateMemoryRegion {
                server: ServerId(1),
                region: Some(region),
            },
            MetaRequest::UpdateMemoryRegion {
                server: ServerId(1),
                region: None,
            },
            MetaRequest::AllocateChunkIds { n: 2 },
            MetaRequest::RegisterFlush {
                producer: ServerId(2),
                chunks: vec![FlushedChunk {
                    id: ChunkId(4),
                    info: ChunkInfo {
                        region,
                        count: 10,
                        bytes: 200,
                        producer: ServerId(2),
                    },
                    summary: Some(SummaryExtent {
                        cells: 8,
                        bytes: 320,
                        levels: 0b101,
                        slice_bits: 4,
                        measure_range: Some((12, 8_000)),
                    }),
                }],
                durable_offset: 77,
                region: None,
            },
            MetaRequest::Overlaps { region },
            MetaRequest::Partition,
            MetaRequest::DurableOffset {
                server: ServerId(3),
            },
            MetaRequest::Join {
                server: ServerId(2),
                role: MemberRole::Indexing,
                node: waterwheel_core::NodeId(1),
                ttl_ms: 3_000,
            },
            MetaRequest::Join {
                server: ServerId(1_001),
                role: MemberRole::Query,
                node: waterwheel_core::NodeId(0),
                ttl_ms: 500,
            },
            MetaRequest::Heartbeat {
                server: ServerId(2),
                ttl_ms: 3_000,
            },
            MetaRequest::Leave {
                server: ServerId(2),
            },
            MetaRequest::Membership,
            MetaRequest::SetPartition {
                schema: PartitionSchema::uniform(&[ServerId(0), ServerId(1)]),
            },
            MetaRequest::BeginMigration {
                keys: KeyInterval::new(100, 199),
                from: ServerId(0),
                to: ServerId(2),
            },
            MetaRequest::CompleteMigration { id: 5 },
        ];
        for req in reqs {
            let decoded = roundtrip_request(Request::Meta(req.clone()));
            match decoded.payload {
                Request::Meta(got) => assert_eq!(format!("{got:?}"), format!("{req:?}")),
                other => panic!("wrong payload: {other:?}"),
            }
        }
    }

    #[test]
    fn control_requests_round_trip() {
        let reqs = vec![
            Request::RegisterPeers {
                peers: vec![
                    (ServerId(2), "127.0.0.1:4107".to_string()),
                    (ServerId(1_002), "127.0.0.1:4108".to_string()),
                ],
            },
            Request::Reassign {
                interval: KeyInterval::new(100, 199),
            },
            Request::MigrateUniform,
            Request::Shutdown,
            Request::Stats,
        ];
        for req in reqs {
            let decoded = roundtrip_request(req.clone());
            assert_eq!(format!("{:?}", decoded.payload), format!("{req:?}"));
        }
    }

    #[test]
    fn responses_round_trip() {
        let region = Region::new(KeyInterval::new(1, 2), TimeInterval::new(3, 4));
        let mut agg = PartialAgg::default();
        agg.insert(7);
        agg.insert(11);
        let cases = vec![
            Response::Ack,
            Response::AckBatch {
                tuples: 12,
                deduped: true,
            },
            Response::Pong,
            Response::Tuples(vec![Tuple::new(5, 6, &b"x"[..])]),
            Response::Flushed(vec![ChunkId(1), ChunkId(9)]),
            Response::Aggregated {
                agg,
                cells_merged: 3,
                leaves_merged: 4,
                scanned: 5,
            },
            Response::Meta(MetaResponse::Ack),
            Response::Meta(MetaResponse::Allocated(ChunkId(6))),
            Response::Meta(MetaResponse::Overlaps((
                vec![FlushedChunk {
                    id: ChunkId(2),
                    info: ChunkInfo {
                        region,
                        count: 3,
                        bytes: 90,
                        producer: ServerId(1),
                    },
                    summary: None,
                }],
                vec![(ServerId(1), (region, 9))],
            ))),
            Response::Meta(MetaResponse::Overlaps(Default::default())),
            Response::Meta(MetaResponse::Partition(None)),
            Response::Meta(MetaResponse::Offset(123_456)),
            Response::Query(QueryResult {
                query_id: QueryId(5),
                tuples: vec![Tuple::bare(1, 2)],
                subqueries: 4,
            }),
            Response::Aggregate(AggregateAnswer {
                query_id: QueryId(5),
                kind: AggregateKind::Avg,
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
            Response::Stats(Vec::new()),
            Response::Meta(MetaResponse::Epoch(7)),
            Response::Meta(MetaResponse::Migration(3)),
            Response::Meta(MetaResponse::Membership(MembershipView {
                epoch: 4,
                indexing: vec![(ServerId(0), waterwheel_core::NodeId(0))],
                query: vec![(ServerId(1_000), waterwheel_core::NodeId(1))],
            })),
        ];
        for resp in cases {
            let got = roundtrip_response(resp.clone());
            assert_eq!(format!("{got:?}"), format!("{resp:?}"));
        }
    }

    #[test]
    fn partition_schema_rides_meta_response() {
        let schema = PartitionSchema::uniform(&[ServerId(0), ServerId(1), ServerId(2)]);
        let got = roundtrip_response(Response::Meta(MetaResponse::Partition(Some(
            schema.clone(),
        ))));
        match got {
            Response::Meta(MetaResponse::Partition(Some(s))) => assert_eq!(s, schema),
            other => panic!("wrong response: {other:?}"),
        }
    }

    #[test]
    fn errors_preserve_classification() {
        let cases = vec![
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
            WwError::StalePlan,
        ];
        for err in cases {
            let frame = encode_response_err(1, &err);
            let body = read_frame(&mut &frame[..]).unwrap().unwrap();
            let Frame::Response { result, .. } = decode_frame(&body).unwrap() else {
                panic!("expected a response frame");
            };
            let got = result.unwrap_err();
            assert_eq!(
                std::mem::discriminant(&got),
                std::mem::discriminant(&err),
                "taxonomy must survive the wire: {err} → {got}"
            );
            assert_eq!(got.is_retryable(), err.is_retryable());
        }
    }

    #[test]
    fn oversized_frame_is_rejected_before_allocation() {
        let mut frame = Vec::new();
        frame.put_u32((MAX_FRAME_LEN + 1) as u32);
        frame.extend_from_slice(&[0u8; 16]);
        let err = read_frame(&mut &frame[..]).unwrap_err();
        assert!(err.to_string().contains("cap"), "unexpected error: {err}");
    }

    #[test]
    fn clean_eof_yields_none_mid_prefix_eof_errors() {
        assert!(read_frame(&mut &[][..]).unwrap().is_none());
        let err = read_frame(&mut &[1u8, 0][..]).unwrap_err();
        assert!(err.to_string().contains("length prefix"));
    }

    #[test]
    fn truncated_bodies_error_gracefully() {
        let frame = encode_request(
            1,
            &env(Request::IngestBatch {
                seq: 1,
                tuples: vec![Tuple::new(1, 2, vec![3u8; 100])],
            }),
        );
        let body = read_frame(&mut &frame[..]).unwrap().unwrap();
        // Every truncation point must decode to an error, never panic.
        for cut in 0..body.len() {
            assert!(
                decode_frame(&body[..cut]).is_err(),
                "truncation at {cut} decoded successfully"
            );
        }
    }

    #[test]
    fn huge_announced_counts_do_not_overallocate() {
        // A hand-built Tuples response claiming u32::MAX tuples with no
        // actual tuple bytes: decode must fail on truncation, not reserve
        // gigabytes first.
        let mut body = Vec::new();
        body.push(WIRE_VERSION);
        body.push(KIND_RESPONSE_OK);
        body.put_u64(1);
        body.push(3); // Response::Tuples
        body.put_u32(u32::MAX);
        assert!(decode_frame(&body).is_err());
    }

    #[test]
    fn unknown_tags_are_corrupt_not_panic() {
        // Unknown request tag.
        let mut body = Vec::new();
        body.push(WIRE_VERSION);
        body.push(KIND_REQUEST);
        body.put_u64(1);
        body.put_u32(0);
        body.put_u32(1);
        body.put_u64(2);
        body.put_u64(1_000);
        body.push(250);
        assert!(decode_frame(&body).is_err());
        // Unknown frame kind.
        let mut body = Vec::new();
        body.push(WIRE_VERSION);
        body.push(99);
        body.put_u64(1);
        assert!(decode_frame(&body).is_err());
        // Unknown version.
        let mut body = Vec::new();
        body.push(WIRE_VERSION + 1);
        body.push(KIND_REQUEST);
        body.put_u64(1);
        assert!(decode_frame(&body).is_err());
    }

    #[test]
    fn meta_server_request_round_trips_to_the_meta_address() {
        let mut e = env(Request::Meta(MetaRequest::Partition));
        e.dst = META_SERVER;
        let frame = encode_request(3, &e);
        let body = read_frame(&mut &frame[..]).unwrap().unwrap();
        let Frame::Request { env: got, .. } = decode_frame(&body).unwrap() else {
            panic!("expected request");
        };
        assert_eq!(got.dst, META_SERVER);
    }
}
