//! Metadata access over the message plane.
//!
//! In the paper the metadata store is ZooKeeper — a separate service every
//! server talks to over the network (§II-B). The embedded deployment used
//! to hand each server a direct [`MetadataService`] handle; this module
//! restores the network boundary: [`serve_meta`] binds the service at the
//! well-known [`META_SERVER`] address, and [`MetaClient`] gives each server
//! a typed, retrying stub mirroring the service's API. Metadata traffic
//! thereby shares the plane's deadlines, retries, fault injection, and
//! per-link stats with every other hop.
//!
//! A flush costs two metadata calls, whatever its number of chunks:
//! `allocate_chunk_ids` for its block of ids, then one `register_flush`
//! carrying the chunks, their summary extents, the durable offset and the
//! memory region.
//!
//! Safe to retry: every metadata mutation is idempotent or
//! conflict-checked by the service:
//! * `register_flush` answers an identical repeat of a registered flush
//!   `Ok`, so a lost ack costs nothing, and refuses a conflicting one;
//! * `update_memory_region` is last-writer-wins from a single owner;
//! * `allocate_chunk_ids` may burn ids on a lost *response*, which only
//!   leaves a gap in the sequence;
//! * `set_partition` accepts a repeat of the installed schema;
//! * `begin_migration` answers a repeat of an identical in-flight move
//!   with the record it already wrote;
//! * `complete_migration` returns the epoch it already stamped.

use crate::client::RpcClient;
use crate::envelope::{MetaRequest, MetaResponse, Request, Response, META_SERVER};
use crate::transport::HandlerRegistry;
use std::time::Duration;
use waterwheel_core::{ChunkId, KeyInterval, NodeId, Region, Result, ServerId, WwError};
use waterwheel_meta::{
    FlushedChunk, MemberRole, MembershipView, MetadataService, PartitionSchema, SummaryExtent,
};

/// Binds `meta` at [`META_SERVER`] on `registry` (whichever transport
/// fronts it), translating [`MetaRequest`]s into service calls, and
/// registers the service's counters there.
pub fn serve_meta(registry: &HandlerRegistry, meta: MetadataService) {
    meta.register_counters(registry.counters());
    registry.bind(META_SERVER, move |env| {
        let Request::Meta(req) = &env.payload else {
            return Err(WwError::InvalidState(
                "metadata server received a non-meta request".into(),
            ));
        };
        serve(&meta, req.clone()).map(Response::Meta)
    });
}

/// A typed stub for the metadata server, one per sending server.
#[derive(Clone)]
pub struct MetaClient {
    rpc: RpcClient,
}

impl MetaClient {
    /// A stub sending as the client's source address.
    pub fn new(rpc: RpcClient) -> Self {
        Self { rpc }
    }

    fn call(&self, req: MetaRequest) -> Result<MetaResponse> {
        self.rpc.call(META_SERVER, Request::Meta(req))?.into_meta()
    }
}

fn wrong_variant<T>() -> Result<T> {
    Err(WwError::InvalidState(
        "metadata server answered the wrong variant".into(),
    ))
}

/// Declares the metadata verbs, one row each:
///
/// ```text
/// fn stub(args) -> T = Request { fields } => Answer(service call);
/// ```
///
/// From the rows come the [`MetaClient`] stub methods (build the request
/// from the arguments, send it, take the answer variant's value) and
/// `serve`, the server's dispatch (bind the request's fields, run the
/// service call, wrap its value in the answer variant). `Ack` answers
/// carry `()`.
macro_rules! meta_verbs {
    (
        |$meta:ident| $(
            $(#[$doc:meta])*
            fn $stub:ident($($arg:ident: $ty:ty),*) -> $ret:ty
                = $req:ident $({ $($field:ident $(: $init:expr)?),* })?
                => $answer:ident($call:expr);
        )*
    ) => {
        impl MetaClient {
            $(
                $(#[$doc])*
                pub fn $stub(&self, $($arg: $ty),*) -> Result<$ret> {
                    let req = MetaRequest::$req $({ $($field $(: $init)?),* })?;
                    meta_verbs!(@take $answer, self.call(req)?)
                }
            )*
        }

        /// Runs one metadata request against the service.
        fn serve($meta: &MetadataService, req: MetaRequest) -> Result<MetaResponse> {
            Ok(match req {
                $(MetaRequest::$req $({ $($field),* })? => meta_verbs!(@give $answer, $call),)*
            })
        }
    };
    (@take Ack, $resp:expr) => {
        match $resp {
            MetaResponse::Ack => Ok(()),
            _ => wrong_variant(),
        }
    };
    (@take $answer:ident, $resp:expr) => {
        match $resp {
            MetaResponse::$answer(v) => Ok(v),
            _ => wrong_variant(),
        }
    };
    (@give Ack, $call:expr) => {{
        let () = $call;
        MetaResponse::Ack
    }};
    (@give $answer:ident, $call:expr) => {
        MetaResponse::$answer($call)
    };
}

fn millis(d: Duration) -> u64 {
    d.as_millis().min(u64::MAX as u128) as u64
}

meta_verbs! { |meta|
    /// See [`MetadataService::update_memory_region`].
    fn update_memory_region(server: ServerId, region: Option<Region>) -> ()
        = UpdateMemoryRegion { server, region }
        => Ack(meta.update_memory_region(server, region));
    /// See [`MetadataService::allocate_chunk_ids`].
    fn allocate_chunk_ids(n: u64) -> ChunkId
        = AllocateChunkIds { n }
        => Allocated(meta.allocate_chunk_ids(n)?);
    /// See [`MetadataService::register_flush`].
    fn register_flush(
        producer: ServerId,
        chunks: Vec<FlushedChunk>,
        durable_offset: u64,
        region: Option<Region>
    ) -> ()
        = RegisterFlush { producer, chunks, durable_offset, region }
        => Ack(meta.register_flush(producer, chunks, durable_offset, region)?);
    /// See [`MetadataService::chunks_overlapping`].
    fn chunks_overlapping(region: &Region) -> Vec<(ChunkId, Region)>
        = ChunksOverlapping { region: *region }
        => Chunks(meta.chunks_overlapping(&region));
    /// See [`MetadataService::memory_regions_overlapping`].
    fn memory_regions_overlapping(region: &Region) -> Vec<(ServerId, Region)>
        = MemoryRegionsOverlapping { region: *region }
        => Regions(meta.memory_regions_overlapping(&region));
    /// See [`MetadataService::summary_extent`].
    fn summary_extent(chunk: ChunkId) -> Option<SummaryExtent>
        = SummaryExtent { chunk }
        => Extent(meta.summary_extent(chunk));
    /// See [`MetadataService::partition`].
    fn partition() -> Option<PartitionSchema>
        = Partition
        => Partition(meta.partition());
    /// See [`MetadataService::durable_offset`] — the replay point a
    /// restarted indexing server resumes consuming from (§V).
    fn durable_offset(server: ServerId) -> u64
        = DurableOffset { server }
        => Offset(meta.durable_offset(server));
    /// See [`MetadataService::join`].
    fn join(server: ServerId, role: MemberRole, node: NodeId, ttl: Duration) -> u64
        = Join { server, role, node, ttl_ms: millis(ttl) }
        => Epoch(meta.join(server, role, node, Duration::from_millis(ttl_ms))?);
    /// See [`MetadataService::heartbeat`].
    fn heartbeat(server: ServerId, ttl: Duration) -> u64
        = Heartbeat { server, ttl_ms: millis(ttl) }
        => Epoch(meta.heartbeat(server, Duration::from_millis(ttl_ms))?);
    /// See [`MetadataService::leave`].
    fn leave(server: ServerId) -> u64
        = Leave { server }
        => Epoch(meta.leave(server)?);
    /// See [`MetadataService::membership`].
    fn membership() -> MembershipView
        = Membership
        => Membership(meta.membership());
    /// See [`MetadataService::set_partition`].
    fn set_partition(schema: PartitionSchema) -> ()
        = SetPartition { schema }
        => Ack(meta.set_partition(schema)?);
    /// See [`MetadataService::begin_migration`]; returns the record's id.
    fn begin_migration(keys: KeyInterval, from: ServerId, to: ServerId) -> u64
        = BeginMigration { keys, from, to }
        => Migration(meta.begin_migration(keys, from, to)?.id);
    /// See [`MetadataService::complete_migration`].
    fn complete_migration(id: u64) -> u64
        = CompleteMigration { id }
        => Epoch(meta.complete_migration(id)?);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{FaultPlane, InProcTransport, LinkProfile, Transport};
    use std::sync::Arc;
    use waterwheel_core::SystemConfig;
    use waterwheel_meta::ChunkInfo;

    fn rig() -> (Arc<FaultPlane>, MetaClient, MetadataService) {
        let inproc = InProcTransport::with_registry(None, Arc::default());
        let meta = MetadataService::in_memory();
        serve_meta(inproc.registry(), meta.clone());
        let t = Arc::new(FaultPlane::new(Arc::new(inproc)));
        let cfg = SystemConfig {
            rpc_retries: 30,
            ..SystemConfig::default()
        };
        let rpc = RpcClient::new(Arc::clone(&t) as Arc<dyn Transport>, ServerId(0), &cfg);
        (t, MetaClient::new(rpc), meta)
    }

    fn region(lo: u64, hi: u64) -> Region {
        Region::new(
            waterwheel_core::KeyInterval::new(lo, hi),
            waterwheel_core::TimeInterval::full(),
        )
    }

    fn chunk(id: ChunkId, lo: u64, summary: Option<SummaryExtent>) -> FlushedChunk {
        FlushedChunk {
            id,
            info: ChunkInfo {
                region: region(lo, lo + 100),
                count: 10,
                bytes: 160,
                producer: ServerId(0),
            },
            summary,
        }
    }

    const EXTENT: SummaryExtent = SummaryExtent {
        cells: 4,
        bytes: 64,
        levels: 1,
        slice_bits: 4,
        measure_range: Some((7, 99)),
    };

    #[test]
    fn stub_round_trips_every_call() {
        let (_t, client, meta) = rig();
        let a = client.allocate_chunk_ids(2).unwrap();
        let b = ChunkId(a.raw() + 1);
        let chunks = vec![chunk(a, 0, None), chunk(b, 300, Some(EXTENT))];
        client
            .register_flush(ServerId(0), chunks, 10, Some(region(100, 200)))
            .unwrap();
        assert_eq!(meta.chunk_count(), 2);
        assert_eq!(client.durable_offset(ServerId(0)).unwrap(), 10);
        assert_eq!(
            client
                .memory_regions_overlapping(&region(150, 160))
                .unwrap(),
            vec![(ServerId(0), region(100, 200))]
        );
        client.update_memory_region(ServerId(0), None).unwrap();
        assert!(client
            .memory_regions_overlapping(&region(0, u64::MAX))
            .unwrap()
            .is_empty());

        let overlapping = client.chunks_overlapping(&region(50, 60)).unwrap();
        assert_eq!(overlapping, vec![(a, region(0, 100))]);

        assert!(client.summary_extent(a).unwrap().is_none());
        assert_eq!(client.summary_extent(b).unwrap(), Some(EXTENT));
    }

    #[test]
    fn service_errors_pass_through_untouched() {
        let (t, client, _meta) = rig();
        let flush = |chunk| client.register_flush(ServerId(0), vec![chunk], 0, None);
        flush(chunk(ChunkId(99), 0, None)).unwrap();
        // A conflicting repeat — the same id with other facts — fails in
        // the service, and the error arrives as-is (not wrapped as a
        // delivery failure).
        let e = flush(chunk(ChunkId(99), 5, None)).unwrap_err();
        assert!(!e.is_retryable(), "service answer must not look retryable");
        assert_eq!(t.stats().totals().retried, 0);
    }

    #[test]
    fn a_flush_whose_acks_are_lost_registers_exactly_once() {
        let (t, client, meta) = rig();
        let main = chunk(ChunkId(0), 0, Some(EXTENT));
        let side = chunk(ChunkId(1), 300, Some(EXTENT));
        let flush =
            || client.register_flush(ServerId(0), vec![main.clone(), side.clone()], 77, None);
        // Every response is lost: the handler runs on each of the 31
        // attempts, and all of them must land on the same flush.
        t.set_default_profile(LinkProfile {
            response_loss: 1.0,
            ..LinkProfile::default()
        });
        let err = flush();
        assert!(matches!(err, Err(WwError::Timeout(_))), "{err:?}");
        assert!(t.stats().totals().retried > 0);
        t.clear_faults();
        flush().unwrap();
        assert_eq!(meta.chunk_count(), 2);
        assert_eq!(meta.summary_count(), 2);
        assert_eq!(meta.durable_offset(ServerId(0)), 77);
        assert_eq!(meta.chunk_info(ChunkId(1)), Some(side.info));
    }

    #[test]
    fn membership_calls_round_trip() {
        let (_t, client, meta) = rig();
        let ttl = Duration::from_secs(5);
        let e = client
            .join(ServerId(0), MemberRole::Indexing, NodeId(0), ttl)
            .unwrap();
        assert_eq!(e, 1);
        client
            .join(ServerId(1_000), MemberRole::Query, NodeId(1), ttl)
            .unwrap();
        assert_eq!(client.heartbeat(ServerId(0), ttl).unwrap(), 2);
        let view = client.membership().unwrap();
        assert_eq!(view.epoch, 2);
        assert_eq!(view.indexing_ids(), vec![ServerId(0)]);
        assert_eq!(view.query_ids(), vec![ServerId(1_000)]);
        assert_eq!(client.leave(ServerId(0)).unwrap(), 3);
        // A lapsed (left) member cannot heartbeat; the error is
        // non-retryable so the caller re-joins instead of spinning.
        let err = client.heartbeat(ServerId(0), ttl).unwrap_err();
        assert!(!err.is_retryable());
        assert_eq!(meta.membership_epoch(), 3);
    }

    #[test]
    fn a_retried_begin_migration_leaves_exactly_one_record() {
        let (t, client, meta) = rig();
        let keys = waterwheel_core::KeyInterval::new(100, 199);
        // Every response is lost: the handler runs on each of the 31
        // attempts, and all of them must land on the same record.
        t.set_default_profile(LinkProfile {
            response_loss: 1.0,
            ..LinkProfile::default()
        });
        let err = client.begin_migration(keys, ServerId(0), ServerId(1));
        assert!(matches!(err, Err(WwError::Timeout(_))), "{err:?}");
        assert!(t.stats().totals().retried > 0);
        t.clear_faults();
        let id = client
            .begin_migration(keys, ServerId(0), ServerId(1))
            .unwrap();
        let recs = meta.migrations();
        assert_eq!(recs.len(), 1, "{recs:?}");
        assert_eq!((recs[0].id, recs[0].completed()), (id, false));
        // Completing is repeatable too, and returns the stamped epoch.
        let epoch = client.complete_migration(id).unwrap();
        assert_eq!(client.complete_migration(id).unwrap(), epoch);
        assert_eq!(meta.migrations()[0].cutover_epoch, Some(epoch));
    }

    #[test]
    fn metadata_calls_survive_a_lossy_link() {
        let (t, client, meta) = rig();
        t.set_default_profile(LinkProfile {
            loss: 0.4,
            ..LinkProfile::default()
        });
        for _ in 0..20 {
            let id = client.allocate_chunk_ids(1).unwrap();
            let flushed = chunk(id, id.raw() * 200, None);
            client
                .register_flush(ServerId(0), vec![flushed], id.raw(), None)
                .unwrap();
        }
        assert_eq!(meta.chunk_count(), 20);
        assert!(t.stats().totals().retried > 0);
    }
}
