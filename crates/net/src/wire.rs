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
//! Two deliberate lossy spots, both documented on the decoders:
//!
//! * **Deadlines** travel as *remaining-budget milliseconds* (`budget_ms`)
//!   — an [`Instant`] is process-local and cannot cross the wire. The
//!   receiver re-anchors the budget on its own clock, so transit time is
//!   charged against the deadline implicitly.
//! * **Predicates** are opaque closures and travel as a presence flag
//!   only. A transport shipping a predicate-bearing subquery must
//!   re-apply the predicate to the returned tuples on the sender side
//!   (see `TcpTransport`); results stay exact, pushdown degrades to
//!   client-side filtering.
//!
//! ## Hardening
//!
//! Decoding never panics and never over-allocates: the frame length is
//! capped at [`MAX_FRAME_LEN`] before any buffer is reserved, collection
//! counts are clamped to the bytes actually present, and unknown variant
//! tags or malformed component encodings surface as [`WwError::Corrupt`].

use crate::envelope::{Envelope, MetaRequest, MetaResponse, Request, Response};
use std::sync::Arc;
use std::time::{Duration, Instant};
use waterwheel_agg::{AggregateAnswer, FoldOutcome, PartialAgg, WheelSummary};
use waterwheel_core::aggregate::AggregateKind;
use waterwheel_core::codec::{decode_region, decode_tuple, encode_region, encode_tuple};
use waterwheel_core::codec::{ByteCount, Decoder, Encoder};
use waterwheel_core::{
    ChunkId, KeyInterval, NodeId, QueryId, QueryResult, Result, ServerId, StatRow, SubQuery,
    SubQueryId, SubQueryTarget, TimeInterval, Tuple, WwError,
};
use waterwheel_index::secondary::{AttrProbe, ChunkAttrIndex};
use waterwheel_index::Bitmap;
use waterwheel_meta::{ChunkInfo, MemberRole, MembershipView, PartitionSchema, SummaryExtent};

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
        /// The reconstructed envelope. `payload` predicates decode as
        /// `None` — see the module docs.
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
    encode_error(&mut frame, err);
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
    out.put_u32(env.src.raw());
    out.put_u32(env.dst.raw());
    out.put_u64(env.rpc_id);
    out.put_u64(budget_ms);
    encode_request_payload(out, &env.payload);
}

fn write_response_ok(out: &mut impl Encoder, corr: u64, resp: &Response) {
    out.put_u8(WIRE_VERSION);
    out.put_u8(KIND_RESPONSE_OK);
    out.put_u64(corr);
    encode_response_payload(out, resp);
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

/// Decodes one frame body produced by the `encode_*` functions.
pub fn decode_frame(body: &[u8]) -> Result<Frame> {
    let mut dec = Decoder::new(body, "frame");
    let version = dec.get_u8()?;
    if version != WIRE_VERSION {
        return Err(WwError::corrupt(
            "frame",
            format!("unsupported wire version {version}"),
        ));
    }
    let kind = dec.get_u8()?;
    let corr = dec.get_u64()?;
    match kind {
        KIND_REQUEST => {
            let src = ServerId(dec.get_u32()?);
            let dst = ServerId(dec.get_u32()?);
            let rpc_id = dec.get_u64()?;
            let budget_ms = dec.get_u64()?;
            let payload = decode_request_payload(&mut dec)?;
            Ok(Frame::Request {
                corr,
                env: Envelope {
                    src,
                    dst,
                    rpc_id,
                    deadline: Instant::now() + Duration::from_millis(budget_ms),
                    payload,
                },
            })
        }
        KIND_RESPONSE_OK => Ok(Frame::Response {
            corr,
            result: Ok(decode_response_payload(&mut dec)?),
        }),
        KIND_RESPONSE_ERR => Ok(Frame::Response {
            corr,
            result: Err(decode_error(&mut dec)?),
        }),
        other => Err(WwError::corrupt(
            "frame",
            format!("unknown frame kind {other}"),
        )),
    }
}

// ---------------------------------------------------------------------------
// Small shared helpers
// ---------------------------------------------------------------------------

fn put_string(out: &mut impl Encoder, s: &str) {
    out.put_bytes(s.as_bytes());
}

fn get_string(dec: &mut Decoder<'_>) -> Result<String> {
    let raw = dec.get_bytes()?;
    std::str::from_utf8(raw)
        .map(str::to_owned)
        .map_err(|_| WwError::corrupt("frame", "string is not valid utf-8"))
}

/// Caps a decoded element count so `Vec::with_capacity` cannot be driven
/// past the bytes actually present in the frame. Every element costs at
/// least `min_elem` encoded bytes, so a count above `remaining / min_elem`
/// is guaranteed to fail later anyway — allocate only what can exist.
fn checked_cap(dec: &Decoder<'_>, count: usize, min_elem: usize) -> usize {
    count.min(dec.remaining() / min_elem.max(1) + 1)
}

fn encode_key_interval(out: &mut impl Encoder, i: &KeyInterval) {
    out.put_u64(i.lo());
    out.put_u64(i.hi());
}

fn decode_key_interval(dec: &mut Decoder<'_>) -> Result<KeyInterval> {
    let lo = dec.get_u64()?;
    let hi = dec.get_u64()?;
    KeyInterval::checked(lo, hi).ok_or_else(|| WwError::corrupt("frame", "inverted key interval"))
}

fn encode_time_interval(out: &mut impl Encoder, i: &TimeInterval) {
    out.put_u64(i.lo());
    out.put_u64(i.hi());
}

fn decode_time_interval(dec: &mut Decoder<'_>) -> Result<TimeInterval> {
    let lo = dec.get_u64()?;
    let hi = dec.get_u64()?;
    TimeInterval::checked(lo, hi).ok_or_else(|| WwError::corrupt("frame", "inverted time interval"))
}

fn encode_tuples(out: &mut impl Encoder, tuples: &[Tuple]) {
    out.put_u32(tuples.len() as u32);
    for t in tuples {
        encode_tuple(out, t);
    }
}

fn decode_tuples(dec: &mut Decoder<'_>) -> Result<Vec<Tuple>> {
    let count = dec.get_u32()? as usize;
    let mut tuples = Vec::with_capacity(checked_cap(dec, count, 20));
    for _ in 0..count {
        tuples.push(decode_tuple(dec)?);
    }
    Ok(tuples)
}

// ---------------------------------------------------------------------------
// Subqueries
// ---------------------------------------------------------------------------

fn encode_subquery(out: &mut impl Encoder, sq: &SubQuery) {
    out.put_u64(sq.id.query.raw());
    out.put_u32(sq.id.index);
    encode_key_interval(out, &sq.keys);
    encode_time_interval(out, &sq.times);
    // Opaque closure: presence flag only. The transport re-applies the
    // predicate sender-side (module docs).
    out.put_u8(sq.predicate.is_some() as u8);
    // The structured measure range is plain data and crosses for real:
    // executors prune leaves by persisted MIN/MAX bounds against it.
    match sq.measure_range {
        Some((lo, hi)) => {
            out.put_u8(1);
            out.put_u64(lo);
            out.put_u64(hi);
        }
        None => out.put_u8(0),
    }
    match sq.target {
        SubQueryTarget::InMemory(server) => {
            out.put_u8(0);
            out.put_u32(server.raw());
        }
        SubQueryTarget::Chunk(chunk) => {
            out.put_u8(1);
            out.put_u64(chunk.raw());
        }
    }
}

fn decode_subquery(dec: &mut Decoder<'_>) -> Result<SubQuery> {
    let query = QueryId(dec.get_u64()?);
    let index = dec.get_u32()?;
    let keys = decode_key_interval(dec)?;
    let times = decode_time_interval(dec)?;
    let _had_predicate = dec.get_u8()? != 0;
    let measure_range = match dec.get_u8()? {
        0 => None,
        1 => {
            let lo = dec.get_u64()?;
            let hi = dec.get_u64()?;
            if lo > hi {
                return Err(WwError::corrupt("frame", "inverted measure range"));
            }
            Some((lo, hi))
        }
        other => {
            return Err(WwError::corrupt(
                "frame",
                format!("unknown measure-range flag {other}"),
            ))
        }
    };
    let target = match dec.get_u8()? {
        0 => SubQueryTarget::InMemory(ServerId(dec.get_u32()?)),
        1 => SubQueryTarget::Chunk(ChunkId(dec.get_u64()?)),
        other => {
            return Err(WwError::corrupt(
                "frame",
                format!("unknown subquery target tag {other}"),
            ))
        }
    };
    Ok(SubQuery {
        id: SubQueryId { query, index },
        keys,
        times,
        predicate: None,
        measure_range,
        target,
    })
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

fn encode_request_payload(out: &mut impl Encoder, req: &Request) {
    match req {
        // Tag 0 was the per-tuple `Ingest` verb; it is retired, never reused.
        Request::IngestBatch { seq, tuples } => {
            out.put_u8(1);
            out.put_u64(*seq);
            encode_tuples(out, tuples);
        }
        Request::Flush => out.put_u8(2),
        Request::InMemorySubquery { sq } => {
            out.put_u8(3);
            encode_subquery(out, sq);
        }
        Request::AggregateInMemory { slices, covered } => {
            out.put_u8(4);
            out.put_u16(slices.0);
            out.put_u16(slices.1);
            encode_time_interval(out, covered);
        }
        Request::ChunkSubquery {
            sq,
            chunk,
            leaf_filter,
        } => {
            out.put_u8(5);
            encode_subquery(out, sq);
            out.put_u64(chunk.raw());
            match leaf_filter {
                Some(b) => {
                    out.put_u8(1);
                    b.encode(out);
                }
                None => out.put_u8(0),
            }
        }
        Request::ReadSummary { chunk } => {
            out.put_u8(6);
            out.put_u64(chunk.raw());
        }
        Request::Ping => out.put_u8(7),
        Request::Meta(m) => {
            out.put_u8(8);
            encode_meta_request(out, m);
        }
        Request::ClientQuery {
            keys,
            times,
            attr_eq,
        } => {
            out.put_u8(9);
            encode_key_interval(out, keys);
            encode_time_interval(out, times);
            match attr_eq {
                Some((attr, value)) => {
                    out.put_u8(1);
                    out.put_u16(*attr);
                    out.put_u64(*value);
                }
                None => out.put_u8(0),
            }
        }
        Request::ClientAggregate { keys, times, kind } => {
            out.put_u8(10);
            encode_key_interval(out, keys);
            encode_time_interval(out, times);
            out.put_u8(encode_agg_kind(*kind));
        }
        Request::Shutdown => out.put_u8(11),
        Request::RegisterPeers { peers } => {
            out.put_u8(12);
            out.put_u32(peers.len() as u32);
            for (server, addr) in peers {
                out.put_u32(server.raw());
                put_string(out, addr);
            }
        }
        Request::Reassign { interval } => {
            out.put_u8(13);
            encode_key_interval(out, interval);
        }
        Request::MigrateUniform => out.put_u8(14),
        Request::Stats => out.put_u8(15),
    }
}

fn decode_request_payload(dec: &mut Decoder<'_>) -> Result<Request> {
    Ok(match dec.get_u8()? {
        1 => Request::IngestBatch {
            seq: dec.get_u64()?,
            tuples: decode_tuples(dec)?,
        },
        2 => Request::Flush,
        3 => Request::InMemorySubquery {
            sq: decode_subquery(dec)?,
        },
        4 => Request::AggregateInMemory {
            slices: (dec.get_u16()?, dec.get_u16()?),
            covered: decode_time_interval(dec)?,
        },
        5 => Request::ChunkSubquery {
            sq: decode_subquery(dec)?,
            chunk: ChunkId(dec.get_u64()?),
            leaf_filter: match dec.get_u8()? {
                0 => None,
                1 => Some(Bitmap::decode(dec)?),
                other => {
                    return Err(WwError::corrupt(
                        "frame",
                        format!("unknown leaf-filter tag {other}"),
                    ))
                }
            },
        },
        6 => Request::ReadSummary {
            chunk: ChunkId(dec.get_u64()?),
        },
        7 => Request::Ping,
        8 => Request::Meta(decode_meta_request(dec)?),
        9 => Request::ClientQuery {
            keys: decode_key_interval(dec)?,
            times: decode_time_interval(dec)?,
            attr_eq: match dec.get_u8()? {
                0 => None,
                1 => Some((dec.get_u16()?, dec.get_u64()?)),
                other => {
                    return Err(WwError::corrupt(
                        "frame",
                        format!("unknown attr-eq tag {other}"),
                    ))
                }
            },
        },
        10 => Request::ClientAggregate {
            keys: decode_key_interval(dec)?,
            times: decode_time_interval(dec)?,
            kind: decode_agg_kind(dec.get_u8()?)?,
        },
        11 => Request::Shutdown,
        12 => {
            let count = dec.get_u32()? as usize;
            let mut peers = Vec::with_capacity(checked_cap(dec, count, 8));
            for _ in 0..count {
                let server = ServerId(dec.get_u32()?);
                peers.push((server, get_string(dec)?));
            }
            Request::RegisterPeers { peers }
        }
        13 => Request::Reassign {
            interval: decode_key_interval(dec)?,
        },
        14 => Request::MigrateUniform,
        15 => Request::Stats,
        other => {
            return Err(WwError::corrupt(
                "frame",
                format!("unknown request tag {other}"),
            ))
        }
    })
}

fn encode_meta_request(out: &mut impl Encoder, req: &MetaRequest) {
    match req {
        MetaRequest::UpdateMemoryRegion { server, region } => {
            out.put_u8(0);
            out.put_u32(server.raw());
            match region {
                Some(r) => {
                    out.put_u8(1);
                    encode_region(out, r);
                }
                None => out.put_u8(0),
            }
        }
        MetaRequest::AllocateChunkId => out.put_u8(1),
        MetaRequest::RegisterChunk {
            chunk,
            info,
            durable_offset,
        } => {
            out.put_u8(2);
            out.put_u64(chunk.raw());
            info.encode(out);
            out.put_u64(*durable_offset);
        }
        MetaRequest::RegisterSummary { chunk, extent } => {
            out.put_u8(3);
            out.put_u64(chunk.raw());
            extent.encode(out);
        }
        MetaRequest::RegisterAttrIndex { chunk, attr, index } => {
            out.put_u8(4);
            out.put_u64(chunk.raw());
            out.put_u16(*attr);
            index.encode(out);
        }
        MetaRequest::ChunksOverlapping { region } => {
            out.put_u8(5);
            encode_region(out, region);
        }
        MetaRequest::MemoryRegionsOverlapping { region } => {
            out.put_u8(6);
            encode_region(out, region);
        }
        MetaRequest::AttrProbe { chunk, attr, value } => {
            out.put_u8(7);
            out.put_u64(chunk.raw());
            out.put_u16(*attr);
            out.put_u64(*value);
        }
        MetaRequest::SummaryExtent { chunk } => {
            out.put_u8(8);
            out.put_u64(chunk.raw());
        }
        MetaRequest::Partition => out.put_u8(9),
        MetaRequest::DurableOffset { server } => {
            out.put_u8(10);
            out.put_u32(server.raw());
        }
        MetaRequest::Join {
            server,
            role,
            node,
            ttl_ms,
        } => {
            out.put_u8(11);
            out.put_u32(server.raw());
            out.put_u8(role.as_u8());
            out.put_u32(node.raw());
            out.put_u64(*ttl_ms);
        }
        MetaRequest::Heartbeat { server, ttl_ms } => {
            out.put_u8(12);
            out.put_u32(server.raw());
            out.put_u64(*ttl_ms);
        }
        MetaRequest::Leave { server } => {
            out.put_u8(13);
            out.put_u32(server.raw());
        }
        MetaRequest::Membership => out.put_u8(14),
        MetaRequest::SetPartition { schema } => {
            out.put_u8(15);
            schema.encode(out);
        }
        MetaRequest::BeginMigration { keys, from, to } => {
            out.put_u8(16);
            encode_key_interval(out, keys);
            out.put_u32(from.raw());
            out.put_u32(to.raw());
        }
        MetaRequest::CompleteMigration { id } => {
            out.put_u8(17);
            out.put_u64(*id);
        }
    }
}

fn decode_meta_request(dec: &mut Decoder<'_>) -> Result<MetaRequest> {
    Ok(match dec.get_u8()? {
        0 => MetaRequest::UpdateMemoryRegion {
            server: ServerId(dec.get_u32()?),
            region: match dec.get_u8()? {
                0 => None,
                1 => Some(decode_region(dec)?),
                other => {
                    return Err(WwError::corrupt(
                        "frame",
                        format!("unknown region tag {other}"),
                    ))
                }
            },
        },
        1 => MetaRequest::AllocateChunkId,
        2 => MetaRequest::RegisterChunk {
            chunk: ChunkId(dec.get_u64()?),
            info: ChunkInfo::decode(dec)?,
            durable_offset: dec.get_u64()?,
        },
        3 => MetaRequest::RegisterSummary {
            chunk: ChunkId(dec.get_u64()?),
            extent: SummaryExtent::decode(dec)?,
        },
        4 => MetaRequest::RegisterAttrIndex {
            chunk: ChunkId(dec.get_u64()?),
            attr: dec.get_u16()?,
            index: ChunkAttrIndex::decode(dec)?,
        },
        5 => MetaRequest::ChunksOverlapping {
            region: decode_region(dec)?,
        },
        6 => MetaRequest::MemoryRegionsOverlapping {
            region: decode_region(dec)?,
        },
        7 => MetaRequest::AttrProbe {
            chunk: ChunkId(dec.get_u64()?),
            attr: dec.get_u16()?,
            value: dec.get_u64()?,
        },
        8 => MetaRequest::SummaryExtent {
            chunk: ChunkId(dec.get_u64()?),
        },
        9 => MetaRequest::Partition,
        10 => MetaRequest::DurableOffset {
            server: ServerId(dec.get_u32()?),
        },
        11 => MetaRequest::Join {
            server: ServerId(dec.get_u32()?),
            role: MemberRole::from_u8(dec.get_u8()?)?,
            node: NodeId(dec.get_u32()?),
            ttl_ms: dec.get_u64()?,
        },
        12 => MetaRequest::Heartbeat {
            server: ServerId(dec.get_u32()?),
            ttl_ms: dec.get_u64()?,
        },
        13 => MetaRequest::Leave {
            server: ServerId(dec.get_u32()?),
        },
        14 => MetaRequest::Membership,
        15 => MetaRequest::SetPartition {
            schema: PartitionSchema::decode(dec)?,
        },
        16 => MetaRequest::BeginMigration {
            keys: decode_key_interval(dec)?,
            from: ServerId(dec.get_u32()?),
            to: ServerId(dec.get_u32()?),
        },
        17 => MetaRequest::CompleteMigration { id: dec.get_u64()? },
        other => {
            return Err(WwError::corrupt(
                "frame",
                format!("unknown meta request tag {other}"),
            ))
        }
    })
}

fn encode_agg_kind(kind: AggregateKind) -> u8 {
    match kind {
        AggregateKind::Count => 0,
        AggregateKind::Sum => 1,
        AggregateKind::Min => 2,
        AggregateKind::Max => 3,
        AggregateKind::Avg => 4,
    }
}

fn decode_agg_kind(tag: u8) -> Result<AggregateKind> {
    Ok(match tag {
        0 => AggregateKind::Count,
        1 => AggregateKind::Sum,
        2 => AggregateKind::Min,
        3 => AggregateKind::Max,
        4 => AggregateKind::Avg,
        other => {
            return Err(WwError::corrupt(
                "frame",
                format!("unknown aggregate kind tag {other}"),
            ))
        }
    })
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

fn encode_response_payload(out: &mut impl Encoder, resp: &Response) {
    match resp {
        Response::Ack => out.put_u8(0),
        Response::AckBatch { tuples, deduped } => {
            out.put_u8(1);
            out.put_u32(*tuples);
            out.put_u8(*deduped as u8);
        }
        Response::Pong => out.put_u8(2),
        Response::Tuples(tuples) => {
            out.put_u8(3);
            encode_tuples(out, tuples);
        }
        Response::Flushed(chunks) => {
            out.put_u8(4);
            out.put_u32(chunks.len() as u32);
            for c in chunks {
                out.put_u64(c.raw());
            }
        }
        Response::Fold(fold) => {
            out.put_u8(5);
            fold.agg.encode(out);
            out.put_u64(fold.cells_merged);
            out.put_u32(fold.residues.len() as u32);
            for r in &fold.residues {
                encode_time_interval(out, r);
            }
        }
        Response::Summary(summary) => {
            out.put_u8(6);
            match summary {
                Some(s) => {
                    out.put_u8(1);
                    out.put_sized(s.encoded_len(), || s.encode());
                }
                None => out.put_u8(0),
            }
        }
        Response::Meta(m) => {
            out.put_u8(7);
            encode_meta_response(out, m);
        }
        Response::Query(result) => {
            out.put_u8(8);
            out.put_u64(result.query_id.raw());
            out.put_u32(result.subqueries);
            encode_tuples(out, &result.tuples);
        }
        Response::Aggregate(answer) => {
            out.put_u8(9);
            out.put_u64(answer.query_id.raw());
            out.put_u8(encode_agg_kind(answer.kind));
            answer.agg.encode(out);
            out.put_u64(answer.cells_merged);
            out.put_u64(answer.scanned_tuples);
        }
        Response::Migrated { epoch, ranges } => {
            out.put_u8(10);
            out.put_u64(*epoch);
            out.put_u32(*ranges);
        }
        Response::Stats(rows) => {
            out.put_u8(11);
            out.put_u32(rows.len() as u32);
            for row in rows {
                put_string(out, &row.name);
                match row.server {
                    Some(server) => {
                        out.put_u8(1);
                        out.put_u32(server.raw());
                    }
                    None => out.put_u8(0),
                }
                out.put_u64(row.value);
            }
        }
    }
}

fn decode_response_payload(dec: &mut Decoder<'_>) -> Result<Response> {
    Ok(match dec.get_u8()? {
        0 => Response::Ack,
        1 => Response::AckBatch {
            tuples: dec.get_u32()?,
            deduped: dec.get_u8()? != 0,
        },
        2 => Response::Pong,
        3 => Response::Tuples(decode_tuples(dec)?),
        4 => {
            let count = dec.get_u32()? as usize;
            let mut chunks = Vec::with_capacity(checked_cap(dec, count, 8));
            for _ in 0..count {
                chunks.push(ChunkId(dec.get_u64()?));
            }
            Response::Flushed(chunks)
        }
        5 => {
            let agg = PartialAgg::decode(dec)?;
            let cells_merged = dec.get_u64()?;
            let count = dec.get_u32()? as usize;
            let mut residues = Vec::with_capacity(checked_cap(dec, count, 16));
            for _ in 0..count {
                residues.push(decode_time_interval(dec)?);
            }
            Response::Fold(FoldOutcome {
                agg,
                cells_merged,
                residues,
            })
        }
        6 => Response::Summary(match dec.get_u8()? {
            0 => None,
            1 => Some(Arc::new(WheelSummary::decode(dec.get_bytes()?)?)),
            other => {
                return Err(WwError::corrupt(
                    "frame",
                    format!("unknown summary tag {other}"),
                ))
            }
        }),
        7 => Response::Meta(decode_meta_response(dec)?),
        8 => {
            let query_id = QueryId(dec.get_u64()?);
            let subqueries = dec.get_u32()?;
            let tuples = decode_tuples(dec)?;
            Response::Query(QueryResult {
                query_id,
                tuples,
                subqueries,
            })
        }
        9 => Response::Aggregate(AggregateAnswer {
            query_id: QueryId(dec.get_u64()?),
            kind: decode_agg_kind(dec.get_u8()?)?,
            agg: PartialAgg::decode(dec)?,
            cells_merged: dec.get_u64()?,
            scanned_tuples: dec.get_u64()?,
        }),
        10 => Response::Migrated {
            epoch: dec.get_u64()?,
            ranges: dec.get_u32()?,
        },
        11 => {
            let count = dec.get_u32()? as usize;
            let mut rows = Vec::with_capacity(checked_cap(dec, count, 13));
            for _ in 0..count {
                let name = get_string(dec)?;
                let server = match dec.get_u8()? {
                    0 => None,
                    1 => Some(ServerId(dec.get_u32()?)),
                    other => {
                        return Err(WwError::corrupt(
                            "frame",
                            format!("unknown stat-row server tag {other}"),
                        ))
                    }
                };
                let value = dec.get_u64()?;
                rows.push(StatRow {
                    name,
                    server,
                    value,
                });
            }
            Response::Stats(rows)
        }
        other => {
            return Err(WwError::corrupt(
                "frame",
                format!("unknown response tag {other}"),
            ))
        }
    })
}

fn encode_meta_response(out: &mut impl Encoder, resp: &MetaResponse) {
    match resp {
        MetaResponse::Ack => out.put_u8(0),
        MetaResponse::Allocated(id) => {
            out.put_u8(1);
            out.put_u64(id.raw());
        }
        MetaResponse::Chunks(chunks) => {
            out.put_u8(2);
            out.put_u32(chunks.len() as u32);
            for (id, region) in chunks {
                out.put_u64(id.raw());
                encode_region(out, region);
            }
        }
        MetaResponse::Regions(regions) => {
            out.put_u8(3);
            out.put_u32(regions.len() as u32);
            for (server, region) in regions {
                out.put_u32(server.raw());
                encode_region(out, region);
            }
        }
        MetaResponse::Probe(probe) => {
            out.put_u8(4);
            match probe {
                AttrProbe::Absent => out.put_u8(0),
                AttrProbe::Leaves(bitmap) => {
                    out.put_u8(1);
                    bitmap.encode(out);
                }
                AttrProbe::Unknown => out.put_u8(2),
            }
        }
        MetaResponse::Extent(extent) => {
            out.put_u8(5);
            match extent {
                Some(e) => {
                    out.put_u8(1);
                    e.encode(out);
                }
                None => out.put_u8(0),
            }
        }
        MetaResponse::Partition(schema) => {
            out.put_u8(6);
            match schema {
                Some(s) => {
                    out.put_u8(1);
                    s.encode(out);
                }
                None => out.put_u8(0),
            }
        }
        MetaResponse::Offset(offset) => {
            out.put_u8(7);
            out.put_u64(*offset);
        }
        MetaResponse::Epoch(epoch) => {
            out.put_u8(8);
            out.put_u64(*epoch);
        }
        MetaResponse::Migration(id) => {
            out.put_u8(10);
            out.put_u64(*id);
        }
        MetaResponse::Membership(view) => {
            out.put_u8(9);
            view.encode(out);
        }
    }
}

fn decode_meta_response(dec: &mut Decoder<'_>) -> Result<MetaResponse> {
    Ok(match dec.get_u8()? {
        0 => MetaResponse::Ack,
        1 => MetaResponse::Allocated(ChunkId(dec.get_u64()?)),
        2 => {
            let count = dec.get_u32()? as usize;
            let mut chunks = Vec::with_capacity(checked_cap(dec, count, 40));
            for _ in 0..count {
                chunks.push((ChunkId(dec.get_u64()?), decode_region(dec)?));
            }
            MetaResponse::Chunks(chunks)
        }
        3 => {
            let count = dec.get_u32()? as usize;
            let mut regions = Vec::with_capacity(checked_cap(dec, count, 36));
            for _ in 0..count {
                regions.push((ServerId(dec.get_u32()?), decode_region(dec)?));
            }
            MetaResponse::Regions(regions)
        }
        4 => MetaResponse::Probe(match dec.get_u8()? {
            0 => AttrProbe::Absent,
            1 => AttrProbe::Leaves(Bitmap::decode(dec)?),
            2 => AttrProbe::Unknown,
            other => {
                return Err(WwError::corrupt(
                    "frame",
                    format!("unknown attr-probe tag {other}"),
                ))
            }
        }),
        5 => MetaResponse::Extent(match dec.get_u8()? {
            0 => None,
            1 => Some(SummaryExtent::decode(dec)?),
            other => {
                return Err(WwError::corrupt(
                    "frame",
                    format!("unknown extent tag {other}"),
                ))
            }
        }),
        6 => MetaResponse::Partition(match dec.get_u8()? {
            0 => None,
            1 => Some(PartitionSchema::decode(dec)?),
            other => {
                return Err(WwError::corrupt(
                    "frame",
                    format!("unknown partition tag {other}"),
                ))
            }
        }),
        7 => MetaResponse::Offset(dec.get_u64()?),
        8 => MetaResponse::Epoch(dec.get_u64()?),
        9 => MetaResponse::Membership(MembershipView::decode(dec)?),
        10 => MetaResponse::Migration(dec.get_u64()?),
        other => {
            return Err(WwError::corrupt(
                "frame",
                format!("unknown meta response tag {other}"),
            ))
        }
    })
}

// ---------------------------------------------------------------------------
// Errors over the wire
// ---------------------------------------------------------------------------

fn encode_error(out: &mut impl Encoder, err: &WwError) {
    match err {
        WwError::Io(e) => {
            out.put_u8(0);
            put_string(out, &e.to_string());
        }
        WwError::Corrupt { what, detail } => {
            out.put_u8(1);
            put_string(out, what);
            put_string(out, detail);
        }
        WwError::NotFound { what, id } => {
            out.put_u8(2);
            put_string(out, what);
            put_string(out, id);
        }
        WwError::InvalidState(msg) => {
            out.put_u8(3);
            put_string(out, msg);
        }
        WwError::Config(msg) => {
            out.put_u8(4);
            put_string(out, msg);
        }
        WwError::Shutdown(who) => {
            out.put_u8(5);
            put_string(out, who);
        }
        WwError::Injected(what) => {
            out.put_u8(6);
            put_string(out, what);
        }
        WwError::Timeout(what) => {
            out.put_u8(7);
            put_string(out, what);
        }
        WwError::Unreachable(what) => {
            out.put_u8(8);
            put_string(out, what);
        }
        WwError::Overloaded { retry_after } => {
            out.put_u8(9);
            out.put_u64(retry_after.as_millis().min(u64::MAX as u128) as u64);
        }
    }
}

/// Decodes an error frame into the same taxonomy the sender held.
///
/// Variants carrying `&'static str` messages cannot round-trip an owned
/// string; they decode with a fixed "remote" message and the original text
/// is folded into variants that carry owned strings where possible. The
/// *classification* — including [`WwError::is_retryable`] — is always
/// preserved exactly.
fn decode_error(dec: &mut Decoder<'_>) -> Result<WwError> {
    Ok(match dec.get_u8()? {
        0 => WwError::Io(std::io::Error::other(get_string(dec)?)),
        1 => {
            let what = get_string(dec)?;
            let detail = get_string(dec)?;
            WwError::Corrupt {
                what: "remote",
                detail: format!("{what}: {detail}"),
            }
        }
        2 => {
            let what = get_string(dec)?;
            let id = get_string(dec)?;
            WwError::NotFound {
                what: "remote",
                id: format!("{what}: {id}"),
            }
        }
        3 => WwError::InvalidState(get_string(dec)?),
        4 => WwError::Config(get_string(dec)?),
        5 => {
            let _ = get_string(dec)?;
            WwError::Shutdown("remote peer")
        }
        6 => {
            let _ = get_string(dec)?;
            WwError::Injected("remote injected fault")
        }
        7 => {
            let _ = get_string(dec)?;
            WwError::Timeout("remote rpc timed out")
        }
        8 => {
            let _ = get_string(dec)?;
            WwError::Unreachable("remote destination unreachable")
        }
        9 => WwError::Overloaded {
            retry_after: Duration::from_millis(dec.get_u64()?),
        },
        other => {
            return Err(WwError::corrupt(
                "frame",
                format!("unknown error tag {other}"),
            ))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::META_SERVER;
    use waterwheel_core::Region;

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
    fn subquery_predicate_degrades_to_presence_flag() {
        let sq = SubQuery {
            id: SubQueryId {
                query: QueryId(3),
                index: 1,
            },
            keys: KeyInterval::new(10, 20),
            times: TimeInterval::new(30, 40),
            predicate: Some(Arc::new(|t: &Tuple| t.key.is_multiple_of(2))),
            measure_range: Some((1, 1000)),
            target: SubQueryTarget::Chunk(ChunkId(5)),
        };
        let decoded = roundtrip_request(Request::ChunkSubquery {
            sq,
            chunk: ChunkId(5),
            leaf_filter: None,
        });
        match decoded.payload {
            Request::ChunkSubquery { sq, chunk, .. } => {
                assert_eq!(chunk, ChunkId(5));
                assert_eq!(sq.keys, KeyInterval::new(10, 20));
                assert_eq!(sq.times, TimeInterval::new(30, 40));
                assert_eq!(sq.target, SubQueryTarget::Chunk(ChunkId(5)));
                assert!(
                    sq.predicate.is_none(),
                    "closures cannot cross the wire; the sender re-filters"
                );
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
            MetaRequest::AllocateChunkId,
            MetaRequest::RegisterChunk {
                chunk: ChunkId(4),
                info: ChunkInfo {
                    region,
                    count: 10,
                    bytes: 200,
                    producer: ServerId(2),
                },
                durable_offset: 77,
            },
            MetaRequest::RegisterSummary {
                chunk: ChunkId(4),
                extent: SummaryExtent {
                    cells: 8,
                    bytes: 320,
                    levels: 0b101,
                    slice_bits: 4,
                    measure_range: Some((12, 8_000)),
                },
            },
            MetaRequest::ChunksOverlapping { region },
            MetaRequest::MemoryRegionsOverlapping { region },
            MetaRequest::AttrProbe {
                chunk: ChunkId(4),
                attr: 3,
                value: 42,
            },
            MetaRequest::SummaryExtent { chunk: ChunkId(4) },
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
            Response::Fold(FoldOutcome {
                agg,
                cells_merged: 3,
                residues: vec![TimeInterval::new(0, 10), TimeInterval::new(20, 30)],
            }),
            Response::Summary(None),
            Response::Meta(MetaResponse::Ack),
            Response::Meta(MetaResponse::Allocated(ChunkId(6))),
            Response::Meta(MetaResponse::Chunks(vec![(ChunkId(2), region)])),
            Response::Meta(MetaResponse::Regions(vec![(ServerId(1), region)])),
            Response::Meta(MetaResponse::Probe(AttrProbe::Unknown)),
            Response::Meta(MetaResponse::Probe(AttrProbe::Absent)),
            Response::Meta(MetaResponse::Extent(Some(SummaryExtent {
                cells: 1,
                bytes: 40,
                levels: 1,
                slice_bits: 2,
                measure_range: None,
            }))),
            Response::Meta(MetaResponse::Extent(None)),
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
        let mut e = env(Request::Meta(MetaRequest::AllocateChunkId));
        e.dst = META_SERVER;
        let frame = encode_request(3, &e);
        let body = read_frame(&mut &frame[..]).unwrap().unwrap();
        let Frame::Request { env: got, .. } = decode_frame(&body).unwrap() else {
            panic!("expected request");
        };
        assert_eq!(got.dst, META_SERVER);
    }
}
