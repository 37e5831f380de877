//! Typed request/response envelopes — the message taxonomy of the plane.
//!
//! Every cross-server interaction in the topology is one of the payloads
//! below; a [`Request`] travels inside an [`Envelope`] carrying addressing
//! and a deadline. The taxonomy mirrors the Storm streams of the paper's
//! Figure 3:
//!
//! | Hop | Payloads |
//! |---|---|
//! | dispatcher → indexing server | [`Request::IngestBatch`], [`Request::Flush`] |
//! | coordinator → indexing server | [`Request::InMemorySubquery`], [`Request::InMemoryAggregate`] |
//! | coordinator → query server | [`Request::ChunkSubquery`], [`Request::ChunkAggregate`] |
//! | any server → metadata server | [`Request::Meta`] |
//! | client → gateway, a dispatcher id | [`Request::IngestBatch`], [`Request::Flush`] |
//! | client → gateway, [`COORDINATOR`] | [`Request::ClientQuery`], [`Request::ClientAggregate`] (each a whole query, predicate included), [`Request::MigrateUniform`] |
//! | migration driver → indexing server | [`Request::Flush`], [`Request::Reassign`] |
//! | health probe (any → any) | [`Request::Ping`] |
//! | scrape (any → any bound address) | [`Request::Stats`] |
//!
//! Requests are `Clone` so a retrying client can resend them verbatim.

use std::time::Instant;
use waterwheel_agg::{AggShare, AggregateAnswer, PartialAgg};
use waterwheel_core::aggregate::AggregateQuery;
use waterwheel_core::{
    ChunkId, KeyInterval, NodeId, Query, QueryResult, Region, Result, ServerId, StatRow, SubQuery,
    Tuple, WwError,
};
use waterwheel_meta::{FlushedChunk, MemberRole, MembershipView, PartitionSchema, SummaryExtent};

/// The well-known address of the metadata server (the ZooKeeper-backed
/// component of §II-B) on the message plane.
pub const META_SERVER: ServerId = ServerId(3_000);

/// The well-known address of the query coordinator.
pub const COORDINATOR: ServerId = ServerId(4_000);

/// One message on the wire: addressing, identity, deadline, payload.
#[derive(Clone, Debug)]
pub struct Envelope {
    /// Sender.
    pub src: ServerId,
    /// Destination.
    pub dst: ServerId,
    /// Unique per client; ties retries of one logical call together in
    /// traces and lets a future `TcpTransport` match responses to requests.
    pub rpc_id: u64,
    /// Absolute deadline: the transport fails the attempt with
    /// [`WwError::Timeout`] instead of delivering it late.
    pub deadline: Instant,
    /// The typed request.
    pub payload: Request,
}

waterwheel_core::wire_enum! {
    /// A request payload — every cross-server call in the system. Each
    /// row is `wire tag, (class, kind label) => variant`.
    #[derive(Clone, Debug)]
    pub enum Request as "request", fn verb(&self) -> (RequestClass, &'static str) {
        // Tag 0 was the per-tuple `Ingest` verb; it is retired, never reused.
        /// Route a batch of tuples into the destination indexing server's
        /// partition of the ingestion queue in one envelope (dispatcher →
        /// indexing, §III-A and §VI Fig. 15) — the only ingest verb; a single
        /// insert is a batch of one. `seq` is the sender's per-destination
        /// monotonic batch number: because a retried batch keeps its original
        /// `seq`, the handler can recognise a redelivery whose first attempt
        /// already landed (the ack, not the request, was lost) and acknowledge
        /// it without appending twice.
        1, (RequestClass::Ingest, "ingest_batch") => IngestBatch {
            /// Per-(dispatcher, destination) monotonic batch sequence number.
            seq: u64,
            /// The tuples, in dispatch order.
            tuples: Vec<Tuple>,
        },
        /// Force the destination indexing server to seal its in-memory state
        /// into chunks (control plane, §V durability boundary).
        2, (RequestClass::Ingest, "flush") => Flush,
        /// Execute a subquery against the destination indexing server's
        /// in-memory tree + side store (coordinator → indexing, §IV-A).
        3, (RequestClass::Query, "mem_subquery") => InMemorySubquery {
            /// The fresh-data subquery.
            sq: SubQuery,
        },
        // Tag 4 was `AggregateInMemory` (a live-wheel fold over a slice ×
        // second rectangle); retired by `InMemoryAggregate`, never reused.
        // Tag 5 was `ChunkSubquery` with a secondary-index leaf filter;
        // retired by tag 20, never reused.
        // Tag 6 was `ReadSummary` (a chunk's summary, shipped to the
        // coordinator); retired by `ChunkAggregate`, never reused.
        /// Liveness probe; answered with [`Response::Pong`] by healthy servers
        /// and an error by crashed ones.
        7, (RequestClass::Control, "ping") => Ping,
        /// A metadata-service call (any server → metadata server).
        8, (RequestClass::Metadata, "meta") => Meta(MetaRequest),
        // Tags 9 and 10 were `ClientQuery` / `ClientAggregate` carrying a
        // rectangle and no predicate; retired by tags 18 and 19, never reused.
        /// Ask a node process to exit cleanly (launcher → node). Embedded
        /// transports never send this; the node runtime acknowledges it and
        /// then tears the process down.
        11, (RequestClass::Control, "shutdown") => Shutdown,
        /// Teach the destination node process the socket addresses of servers
        /// that joined after it started (launcher/gateway → node). Existing
        /// entries are overwritten; routing to the listed ids works from the
        /// next RPC on.
        12, (RequestClass::Control, "register_peers") => RegisterPeers {
            /// `(server id, socket address)` pairs, e.g.
            /// `(ServerId(2), "127.0.0.1:4107")`.
            peers: Vec<(ServerId, String)>,
        },
        /// Narrow or widen the destination indexing server's *assigned* key
        /// interval (migration control plane). Out-of-interval tuples already
        /// in memory stay queryable until flush — the §III-D overlap that
        /// keeps answers exact while ownership moves.
        13, (RequestClass::Control, "reassign") => Reassign {
            /// The new assigned interval.
            interval: KeyInterval,
        },
        /// Ask the destination gateway to rebalance key ownership uniformly
        /// across the *current* indexing membership, running the migration
        /// state machine for every range that changes hands (client → gateway
        /// dispatcher node). Answered with [`Response::Migrated`].
        14, (RequestClass::Control, "migrate_uniform") => MigrateUniform,
        /// Read the counters of the process hosting the destination: every
        /// set its roles registered, as `(name, server, value)` rows. Answered
        /// by the [`HandlerRegistry`](crate::HandlerRegistry) itself at any
        /// bound address, not by a role handler.
        15, (RequestClass::Control, "stats") => Stats,
        /// Answer the destination indexing server's share of an aggregate:
        /// its live wheels over the wheel interior of the subquery's
        /// rectangle, its tree and side store folded over the fringes
        /// (coordinator → indexing, DESIGN.md §4b). Answered with
        /// [`Response::Aggregated`].
        16, (RequestClass::Query, "mem_aggregate") => InMemoryAggregate {
            /// The aggregate subquery, carrying the query's unclipped
            /// rectangle.
            sq: SubQuery,
        },
        /// Answer one chunk's share of an aggregate: its summary over the
        /// wheel interior, its leaf directory for every leaf wholly inside
        /// a fringe, a scan of the leaves a fringe cuts (coordinator →
        /// query server, DESIGN.md §4b). Answered with
        /// [`Response::Aggregated`].
        17, (RequestClass::Query, "chunk_aggregate") => ChunkAggregate {
            /// The aggregate subquery, carrying the query's unclipped
            /// rectangle.
            sq: SubQuery,
            /// The chunk to answer for.
            chunk: ChunkId,
        },
        // Tags 18 and 19 were `ClientQuery` / `ClientAggregate` over a
        // `Query` that carried a secondary-attribute equality; retired by
        // tags 21 and 22, never reused.
        /// Execute a subquery against one flushed chunk (coordinator → query
        /// server, §IV-B).
        20, (RequestClass::Query, "chunk_subquery") => ChunkSubquery {
            /// The chunk subquery.
            sq: SubQuery,
            /// The chunk to read.
            chunk: ChunkId,
        },
        /// A whole range query — rectangle, predicate, measure range — from
        /// an external client, addressed to the gateway's [`COORDINATOR`]
        /// address (in a node process or an embedded system alike). It runs
        /// exactly as an embedded `query()` call. Answered with
        /// [`Response::Query`].
        21, (RequestClass::Query, "client_query") => ClientQuery {
            /// The query.
            query: Query,
        },
        /// A whole aggregate query from an external client, addressed to the
        /// gateway's [`COORDINATOR`] address. Answered with
        /// [`Response::Aggregate`].
        22, (RequestClass::Query, "client_aggregate") => ClientAggregate {
            /// The aggregate query.
            query: AggregateQuery,
        },
    }
}

/// What a request is for — the one classification the TCP listener's worker
/// queue follows, both for the band a request waits on and for the share
/// of the queue it may fill before it is shed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestClass {
    /// Liveness, lifecycle, routing and scrapes: must answer precisely when
    /// the system is busiest.
    Control,
    /// Tuple ingestion and flushes.
    Ingest,
    /// Subqueries, aggregate subqueries, client queries.
    Query,
    /// Metadata-server calls — the most retryable traffic.
    Metadata,
}

impl Request {
    /// This request's class.
    pub fn class(&self) -> RequestClass {
        self.verb().0
    }

    /// Stable label for this request's kind, used to key per-RPC latency
    /// histograms.
    pub fn kind(&self) -> &'static str {
        self.verb().1
    }
}

waterwheel_core::wire_enum! {
    /// Calls against the metadata server (§II-B) made by other servers.
    /// Tags 1–4 (one id, one chunk, one summary extent, one attribute index
    /// per call) are retired, never reused: a flush is one
    /// [`MetaRequest::RegisterFlush`]. Tag 7 (a chunk's secondary
    /// attribute index asked for a value) and tag 19 (`RegisterFlush` while
    /// each chunk carried attribute indexes) are retired too.
    #[derive(Clone, Debug)]
    pub enum MetaRequest as "meta request" {
        /// Report an indexing server's current in-memory region (already
        /// widened by Δt), or clear it with `None`.
        0 => UpdateMemoryRegion {
            /// The reporting indexing server.
            server: ServerId,
            /// Its in-memory data region, or `None` when empty/crashed.
            region: Option<Region>,
        },
        /// R-tree lookup: chunks whose regions overlap the query rectangle.
        5 => ChunksOverlapping {
            /// The query rectangle.
            region: Region,
        },
        /// In-memory regions (per indexing server) overlapping the rectangle.
        6 => MemoryRegionsOverlapping {
            /// The query rectangle.
            region: Region,
        },
        /// The summary extent registered for a chunk, if any.
        8 => SummaryExtent {
            /// The chunk.
            chunk: ChunkId,
        },
        /// The current partition schema, if one has been published. Node
        /// processes fetch it at startup so every role agrees on routing.
        9 => Partition,
        /// The durable queue read offset of an indexing server — the replay
        /// point a restarted server resumes consuming from (§V).
        10 => DurableOffset {
            /// The recovering indexing server.
            server: ServerId,
        },
        /// Register (or refresh) the sender as a cluster member under a
        /// heartbeat lease (§II-B dynamic membership). Answered with
        /// [`MetaResponse::Epoch`].
        11 => Join {
            /// The joining server.
            server: ServerId,
            /// Its tier.
            role: MemberRole,
            /// The simulated cluster node hosting it.
            node: NodeId,
            /// Lease duration in milliseconds; the member must heartbeat
            /// before it elapses or it is evicted.
            ttl_ms: u64,
        },
        /// Renew the sender's membership lease. Fails with a non-retryable
        /// [`WwError::NotFound`] when the lease already lapsed — the sender
        /// must re-join.
        12 => Heartbeat {
            /// The renewing server.
            server: ServerId,
            /// The fresh lease duration in milliseconds.
            ttl_ms: u64,
        },
        /// Graceful departure: remove the sender from the member set.
        13 => Leave {
            /// The departing server.
            server: ServerId,
        },
        /// The current epoch-numbered membership view. Answered with
        /// [`MetaResponse::Membership`].
        14 => Membership,
        /// Publish a new partition schema (the migration control plane's
        /// durable cut-over record). The metadata server rejects version
        /// regressions, so a stale publisher cannot roll routing back.
        15 => SetPartition {
            /// The schema to publish.
            schema: PartitionSchema,
        },
        /// Durably record that `keys` is about to move from `from` to `to`
        /// (the migration driver, before anything routes differently). A
        /// repeat of an identical in-flight move is answered with the existing
        /// record's id. Answered with [`MetaResponse::Migration`].
        16 => BeginMigration {
            /// The key range changing owners.
            keys: KeyInterval,
            /// The current owner.
            from: ServerId,
            /// The new owner.
            to: ServerId,
        },
        /// Stamp the cut-over membership epoch on a migration record; repeats
        /// return the recorded epoch. Answered with [`MetaResponse::Epoch`].
        17 => CompleteMigration {
            /// The record's id, from [`MetaResponse::Migration`].
            id: u64,
        },
        /// Durably allocate `n` consecutive chunk ids; answered with the
        /// first as [`MetaResponse::Allocated`].
        18 => AllocateChunkIds {
            /// How many ids.
            n: u64,
        },
        /// Register a flush in one atomic step (§V): its chunks with their
        /// summary extents, the producer's durable queue offset, and its
        /// memory region after the flush.
        20 => RegisterFlush {
            /// The flushing indexing server.
            producer: ServerId,
            /// Every chunk the flush wrote.
            chunks: Vec<FlushedChunk>,
            /// The producer's queue position at the seal.
            durable_offset: u64,
            /// Its in-memory data region after the flush, or `None`.
            region: Option<Region>,
        },
    }
}

waterwheel_core::wire_enum! {
    /// A response payload.
    #[derive(Clone, Debug)]
    pub enum Response as "response" {
        /// The request was applied; nothing to return.
        0 => Ack,
        /// A [`Request::IngestBatch`] landed (or was recognised as an exact
        /// redelivery and skipped).
        1 => AckBatch {
            /// Tuples covered by this ack.
            tuples: u32,
            /// `true` when the handler recognised the batch sequence number as
            /// already applied and dropped the redelivery instead of appending.
            deduped: bool,
        },
        /// Liveness probe answer.
        2 => Pong,
        /// Matching tuples from a subquery.
        3 => Tuples(Vec<Tuple>),
        /// Chunk ids sealed by a [`Request::Flush`].
        4 => Flushed(Vec<ChunkId>),
        // Tags 5 (`Fold`, a live-wheel fold) and 6 (`Summary`, a chunk's
        // summary) answered the retired request tags 4 and 6; never reused.
        /// A metadata-service answer.
        7 => Meta(MetaResponse),
        /// A complete range-query result (answer to [`Request::ClientQuery`]).
        8 => Query(QueryResult),
        /// A complete aggregate answer (answer to [`Request::ClientAggregate`]).
        9 => Aggregate(AggregateAnswer),
        /// A [`Request::MigrateUniform`] finished: the membership epoch after
        /// the final cut-over and how many key ranges changed owners.
        10 => Migrated {
            /// Membership epoch after the last cut-over.
            epoch: u64,
            /// Number of key ranges that moved.
            ranges: u32,
        },
        /// The answering process's counters (answer to [`Request::Stats`]).
        11 => Stats(Vec<StatRow>),
        /// One source's share of an aggregate (answer to
        /// [`Request::InMemoryAggregate`] and [`Request::ChunkAggregate`]).
        12 => Aggregated {
            /// The partial aggregate over the source's tuples in the
            /// rectangle.
            agg: PartialAgg,
            /// Wheel/summary cells merged.
            cells_merged: u64,
            /// Chunk leaves merged from the leaf directory.
            leaves_merged: u64,
            /// Tuples folded one by one.
            scanned: u64,
        },
    }
}

impl From<AggShare> for Response {
    fn from(share: AggShare) -> Self {
        Response::Aggregated {
            agg: share.agg,
            cells_merged: share.cells_merged,
            leaves_merged: share.leaves_merged,
            scanned: share.scanned,
        }
    }
}

waterwheel_core::wire_enum! {
    /// Answers from the metadata server. Tag 4 (`Probe`, the verdict of
    /// the retired tag-7 request) is retired, never reused.
    #[derive(Clone, Debug)]
    pub enum MetaResponse as "meta response" {
        /// The mutation was applied.
        0 => Ack,
        /// The first of a block of freshly allocated chunk ids.
        1 => Allocated(ChunkId),
        /// Overlapping chunks with their regions.
        2 => Chunks(Vec<(ChunkId, Region)>),
        /// Overlapping in-memory regions with their owning servers.
        3 => Regions(Vec<(ServerId, Region)>),
        /// A chunk's summary extent, if registered.
        5 => Extent(Option<SummaryExtent>),
        /// The published partition schema, if any.
        6 => Partition(Option<PartitionSchema>),
        /// A durable queue offset (answer to [`MetaRequest::DurableOffset`]).
        7 => Offset(u64),
        /// The membership epoch after a join/heartbeat/leave mutation or a
        /// migration cut-over.
        8 => Epoch(u64),
        /// The id of the in-flight migration record (answer to
        /// [`MetaRequest::BeginMigration`]).
        10 => Migration(u64),
        /// The epoch-numbered membership view (answer to
        /// [`MetaRequest::Membership`]).
        9 => Membership(MembershipView),
    }
}

/// Declares `Response`'s unwrappers: each takes the one variant its
/// caller expects and refuses any other as a protocol error.
macro_rules! unwrappers {
    ($($(#[$doc:meta])* fn $name:ident -> $ty:ty { $pat:pat => $val:expr })*) => {
        impl Response {
            $(
                $(#[$doc])*
                pub fn $name(self) -> Result<$ty> {
                    match self {
                        $pat => Ok($val),
                        _ => Err(WwError::InvalidState(
                            "rpc response variant does not match the request".into(),
                        )),
                    }
                }
            )*
        }
    };
}

unwrappers! {
    /// Unwraps [`Response::Tuples`].
    fn into_tuples -> Vec<Tuple> { Response::Tuples(t) => t }
    /// Unwraps [`Response::Flushed`].
    fn into_flushed -> Vec<ChunkId> { Response::Flushed(c) => c }
    /// Unwraps [`Response::Aggregated`].
    fn into_share -> AggShare {
        Response::Aggregated { agg, cells_merged, leaves_merged, scanned } => AggShare {
            agg,
            cells_merged,
            leaves_merged,
            scanned,
        }
    }
    /// Unwraps [`Response::Meta`].
    fn into_meta -> MetaResponse { Response::Meta(m) => m }
    /// Unwraps [`Response::Ack`].
    fn into_ack -> () { Response::Ack => () }
    /// Unwraps [`Response::Pong`].
    fn into_pong -> () { Response::Pong => () }
    /// Unwraps [`Response::AckBatch`] into `(tuples, deduped)`.
    fn into_ack_batch -> (u32, bool) {
        Response::AckBatch { tuples, deduped } => (tuples, deduped)
    }
    /// Unwraps [`Response::Query`].
    fn into_query -> QueryResult { Response::Query(r) => r }
    /// Unwraps [`Response::Aggregate`].
    fn into_aggregate -> AggregateAnswer { Response::Aggregate(a) => a }
    /// Unwraps [`Response::Stats`].
    fn into_stats -> Vec<StatRow> { Response::Stats(rows) => rows }
    /// Unwraps [`Response::Migrated`] into `(epoch, ranges)`.
    fn into_migrated -> (u64, u32) {
        Response::Migrated { epoch, ranges } => (epoch, ranges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_frame_lengths_scale_with_payload() {
        // Byte accounting charges real encoded frame lengths (wire.rs),
        // so the sizes the stats see must scale with the data moved and
        // batching must amortize the per-envelope overhead.
        let frame = |req: Request| {
            crate::wire::encode_request(
                0,
                &Envelope {
                    src: ServerId(2_000),
                    dst: ServerId(0),
                    rpc_id: 1,
                    deadline: Instant::now(),
                    payload: req,
                },
            )
            .len()
        };
        let batch_of = |tuples: Vec<Tuple>| frame(Request::IngestBatch { seq: 0, tuples });
        let small = batch_of(vec![Tuple::bare(1, 2)]);
        let big = batch_of(vec![Tuple::new(1, 2, vec![0u8; 1_000])]);
        assert!(big > small + 900);
        let batch = batch_of(vec![Tuple::bare(1, 2); 64]);
        assert!(batch < 64 * small);
        assert!(batch > 64 * Tuple::bare(1, 2).encoded_len());
    }

    #[test]
    fn client_response_unwrappers_enforce_variants() {
        assert!(Response::Pong.into_query().is_err());
        assert!(Response::Pong.into_aggregate().is_err());
        let r = QueryResult {
            query_id: waterwheel_core::QueryId(1),
            tuples: vec![],
            subqueries: 0,
        };
        assert_eq!(Response::Query(r).into_query().unwrap().subqueries, 0);
    }

    #[test]
    fn response_unwrappers_enforce_variants() {
        assert_eq!(Response::Tuples(vec![]).into_tuples().unwrap(), vec![]);
        assert!(Response::Pong.into_tuples().is_err());
        assert!(Response::Ack.into_ack().is_ok());
        assert!(Response::Pong.into_ack().is_err());
        assert_eq!(
            Response::AckBatch {
                tuples: 7,
                deduped: true
            }
            .into_ack_batch()
            .unwrap(),
            (7, true)
        );
        assert!(Response::Ack.into_ack_batch().is_err());
        assert!(Response::Pong.into_share().is_err());
        let share = AggShare {
            scanned: 3,
            ..AggShare::default()
        };
        assert_eq!(Response::from(share).into_share().unwrap(), share);
        assert!(Response::Pong.into_meta().is_err());
        assert!(Response::Pong.into_flushed().is_err());
    }

    #[test]
    fn well_known_addresses_do_not_collide_with_server_ranges() {
        // Indexing 0.., query 1000.., dispatchers 2000.. — meta and the
        // coordinator live above all of them.
        assert!(META_SERVER.raw() >= 3_000);
        assert!(COORDINATOR.raw() > META_SERVER.raw());
    }
}
