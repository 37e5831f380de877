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
//! Safe to retry: every metadata mutation is idempotent or
//! conflict-checked by the service (`register_chunk` rejects duplicate
//! ids; `update_memory_region` is last-writer-wins from a single owner;
//! `allocate_chunk_id` may burn an id on a lost *response*, which only
//! leaves a gap in the sequence; `set_partition` accepts a repeat of the
//! installed schema; `begin_migration` answers a repeat of an identical
//! in-flight move with the record it already wrote; `complete_migration`
//! returns the epoch it already stamped).

use crate::client::RpcClient;
use crate::envelope::{MetaRequest, MetaResponse, Request, Response, META_SERVER};
use crate::transport::HandlerRegistry;
use std::time::Duration;
use waterwheel_core::{ChunkId, KeyInterval, NodeId, Region, Result, ServerId, WwError};
use waterwheel_index::secondary::{AttrId, AttrProbe, ChunkAttrIndex};
use waterwheel_meta::{
    ChunkInfo, MemberRole, MembershipView, MetadataService, PartitionSchema, SummaryExtent,
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
        let resp = match req.clone() {
            MetaRequest::UpdateMemoryRegion { server, region } => {
                meta.update_memory_region(server, region);
                MetaResponse::Ack
            }
            MetaRequest::AllocateChunkId => MetaResponse::Allocated(meta.allocate_chunk_id()?),
            MetaRequest::RegisterChunk {
                chunk,
                info,
                durable_offset,
            } => {
                meta.register_chunk(chunk, info, durable_offset)?;
                MetaResponse::Ack
            }
            MetaRequest::RegisterSummary { chunk, extent } => {
                meta.register_summary(chunk, extent)?;
                MetaResponse::Ack
            }
            MetaRequest::RegisterAttrIndex { chunk, attr, index } => {
                meta.register_attr_index(chunk, attr, index)?;
                MetaResponse::Ack
            }
            MetaRequest::ChunksOverlapping { region } => {
                MetaResponse::Chunks(meta.chunks_overlapping(&region))
            }
            MetaRequest::MemoryRegionsOverlapping { region } => {
                MetaResponse::Regions(meta.memory_regions_overlapping(&region))
            }
            MetaRequest::AttrProbe { chunk, attr, value } => {
                MetaResponse::Probe(meta.attr_probe(chunk, attr, value))
            }
            MetaRequest::SummaryExtent { chunk } => {
                MetaResponse::Extent(meta.summary_extent(chunk))
            }
            MetaRequest::Partition => MetaResponse::Partition(meta.partition()),
            MetaRequest::DurableOffset { server } => {
                MetaResponse::Offset(meta.durable_offset(server))
            }
            MetaRequest::Join {
                server,
                role,
                node,
                ttl_ms,
            } => MetaResponse::Epoch(meta.join(
                server,
                role,
                node,
                std::time::Duration::from_millis(ttl_ms),
            )?),
            MetaRequest::Heartbeat { server, ttl_ms } => MetaResponse::Epoch(
                meta.heartbeat(server, std::time::Duration::from_millis(ttl_ms))?,
            ),
            MetaRequest::Leave { server } => MetaResponse::Epoch(meta.leave(server)?),
            MetaRequest::Membership => MetaResponse::Membership(meta.membership()),
            MetaRequest::SetPartition { schema } => {
                meta.set_partition(schema)?;
                MetaResponse::Ack
            }
            MetaRequest::BeginMigration { keys, from, to } => {
                MetaResponse::Migration(meta.begin_migration(keys, from, to)?.id)
            }
            MetaRequest::CompleteMigration { id } => {
                MetaResponse::Epoch(meta.complete_migration(id)?)
            }
        };
        Ok(Response::Meta(resp))
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

    fn expect_ack(&self, req: MetaRequest) -> Result<()> {
        match self.call(req)? {
            MetaResponse::Ack => Ok(()),
            _ => Err(WwError::InvalidState(
                "metadata server answered the wrong variant".into(),
            )),
        }
    }

    /// See [`MetadataService::update_memory_region`].
    pub fn update_memory_region(&self, server: ServerId, region: Option<Region>) -> Result<()> {
        self.expect_ack(MetaRequest::UpdateMemoryRegion { server, region })
    }

    /// See [`MetadataService::allocate_chunk_id`].
    pub fn allocate_chunk_id(&self) -> Result<ChunkId> {
        match self.call(MetaRequest::AllocateChunkId)? {
            MetaResponse::Allocated(id) => Ok(id),
            _ => Err(WwError::InvalidState(
                "metadata server answered the wrong variant".into(),
            )),
        }
    }

    /// See [`MetadataService::register_chunk`].
    pub fn register_chunk(
        &self,
        chunk: ChunkId,
        info: ChunkInfo,
        durable_offset: u64,
    ) -> Result<()> {
        self.expect_ack(MetaRequest::RegisterChunk {
            chunk,
            info,
            durable_offset,
        })
    }

    /// See [`MetadataService::register_summary`].
    pub fn register_summary(&self, chunk: ChunkId, extent: SummaryExtent) -> Result<()> {
        self.expect_ack(MetaRequest::RegisterSummary { chunk, extent })
    }

    /// See [`MetadataService::register_attr_index`].
    pub fn register_attr_index(
        &self,
        chunk: ChunkId,
        attr: AttrId,
        index: ChunkAttrIndex,
    ) -> Result<()> {
        self.expect_ack(MetaRequest::RegisterAttrIndex { chunk, attr, index })
    }

    /// See [`MetadataService::chunks_overlapping`].
    pub fn chunks_overlapping(&self, region: &Region) -> Result<Vec<(ChunkId, Region)>> {
        match self.call(MetaRequest::ChunksOverlapping { region: *region })? {
            MetaResponse::Chunks(v) => Ok(v),
            _ => Err(WwError::InvalidState(
                "metadata server answered the wrong variant".into(),
            )),
        }
    }

    /// See [`MetadataService::memory_regions_overlapping`].
    pub fn memory_regions_overlapping(&self, region: &Region) -> Result<Vec<(ServerId, Region)>> {
        match self.call(MetaRequest::MemoryRegionsOverlapping { region: *region })? {
            MetaResponse::Regions(v) => Ok(v),
            _ => Err(WwError::InvalidState(
                "metadata server answered the wrong variant".into(),
            )),
        }
    }

    /// See [`MetadataService::attr_probe`].
    pub fn attr_probe(&self, chunk: ChunkId, attr: AttrId, value: u64) -> Result<AttrProbe> {
        match self.call(MetaRequest::AttrProbe { chunk, attr, value })? {
            MetaResponse::Probe(p) => Ok(p),
            _ => Err(WwError::InvalidState(
                "metadata server answered the wrong variant".into(),
            )),
        }
    }

    /// See [`MetadataService::summary_extent`].
    pub fn summary_extent(&self, chunk: ChunkId) -> Result<Option<SummaryExtent>> {
        match self.call(MetaRequest::SummaryExtent { chunk })? {
            MetaResponse::Extent(e) => Ok(e),
            _ => Err(WwError::InvalidState(
                "metadata server answered the wrong variant".into(),
            )),
        }
    }

    /// See [`MetadataService::durable_offset`] — the replay point a
    /// restarted indexing server resumes consuming from (§V).
    pub fn durable_offset(&self, server: ServerId) -> Result<u64> {
        match self.call(MetaRequest::DurableOffset { server })? {
            MetaResponse::Offset(o) => Ok(o),
            _ => Err(WwError::InvalidState(
                "metadata server answered the wrong variant".into(),
            )),
        }
    }

    /// See [`MetadataService::partition`].
    pub fn partition(&self) -> Result<Option<PartitionSchema>> {
        match self.call(MetaRequest::Partition)? {
            MetaResponse::Partition(p) => Ok(p),
            _ => Err(WwError::InvalidState(
                "metadata server answered the wrong variant".into(),
            )),
        }
    }

    fn expect_epoch(&self, req: MetaRequest) -> Result<u64> {
        match self.call(req)? {
            MetaResponse::Epoch(e) => Ok(e),
            _ => Err(WwError::InvalidState(
                "metadata server answered the wrong variant".into(),
            )),
        }
    }

    /// See [`MetadataService::join`].
    pub fn join(
        &self,
        server: ServerId,
        role: MemberRole,
        node: NodeId,
        ttl: Duration,
    ) -> Result<u64> {
        self.expect_epoch(MetaRequest::Join {
            server,
            role,
            node,
            ttl_ms: ttl.as_millis().min(u64::MAX as u128) as u64,
        })
    }

    /// See [`MetadataService::heartbeat`].
    pub fn heartbeat(&self, server: ServerId, ttl: Duration) -> Result<u64> {
        self.expect_epoch(MetaRequest::Heartbeat {
            server,
            ttl_ms: ttl.as_millis().min(u64::MAX as u128) as u64,
        })
    }

    /// See [`MetadataService::leave`].
    pub fn leave(&self, server: ServerId) -> Result<u64> {
        self.expect_epoch(MetaRequest::Leave { server })
    }

    /// See [`MetadataService::set_partition`].
    pub fn set_partition(&self, schema: PartitionSchema) -> Result<()> {
        self.expect_ack(MetaRequest::SetPartition { schema })
    }

    /// See [`MetadataService::begin_migration`]; returns the record's id.
    pub fn begin_migration(&self, keys: KeyInterval, from: ServerId, to: ServerId) -> Result<u64> {
        match self.call(MetaRequest::BeginMigration { keys, from, to })? {
            MetaResponse::Migration(id) => Ok(id),
            _ => Err(WwError::InvalidState(
                "metadata server answered the wrong variant".into(),
            )),
        }
    }

    /// See [`MetadataService::complete_migration`].
    pub fn complete_migration(&self, id: u64) -> Result<u64> {
        self.expect_epoch(MetaRequest::CompleteMigration { id })
    }

    /// See [`MetadataService::membership`].
    pub fn membership(&self) -> Result<MembershipView> {
        match self.call(MetaRequest::Membership)? {
            MetaResponse::Membership(v) => Ok(v),
            _ => Err(WwError::InvalidState(
                "metadata server answered the wrong variant".into(),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{FaultPlane, InProcTransport, LinkProfile, Transport};
    use std::sync::Arc;
    use waterwheel_core::SystemConfig;

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

    #[test]
    fn stub_round_trips_every_call() {
        let (_t, client, meta) = rig();
        let id = client.allocate_chunk_id().unwrap();
        let info = ChunkInfo {
            region: region(0, 100),
            count: 10,
            bytes: 160,
            producer: ServerId(0),
        };
        client.register_chunk(id, info, 10).unwrap();
        assert_eq!(meta.chunk_count(), 1);

        client
            .update_memory_region(ServerId(0), Some(region(100, 200)))
            .unwrap();
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
        assert_eq!(overlapping, vec![(id, region(0, 100))]);

        assert!(client.summary_extent(id).unwrap().is_none());
        let extent = SummaryExtent {
            cells: 4,
            bytes: 64,
            levels: 1,
            slice_bits: 4,
            measure_range: Some((7, 99)),
        };
        client.register_summary(id, extent).unwrap();
        assert_eq!(client.summary_extent(id).unwrap(), Some(extent));

        // Probing a chunk with no attr index is Unknown, never Absent.
        assert!(matches!(
            client.attr_probe(id, 1, 42).unwrap(),
            AttrProbe::Unknown
        ));
    }

    #[test]
    fn service_errors_pass_through_untouched() {
        let (t, client, _meta) = rig();
        let info = ChunkInfo {
            region: region(0, 1),
            count: 1,
            bytes: 16,
            producer: ServerId(0),
        };
        // Registering the same id twice fails in the service, and the
        // error arrives as-is (not wrapped as a delivery failure).
        client.register_chunk(ChunkId(99), info, 0).unwrap();
        let e = client.register_chunk(ChunkId(99), info, 0).unwrap_err();
        assert!(!e.is_retryable(), "service answer must not look retryable");
        assert_eq!(t.stats().totals().retried, 0);
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
            let id = client.allocate_chunk_id().unwrap();
            let info = ChunkInfo {
                region: region(id.raw() * 10, id.raw() * 10 + 9),
                count: 1,
                bytes: 16,
                producer: ServerId(0),
            };
            client.register_chunk(id, info, 0).unwrap();
        }
        assert_eq!(meta.chunk_count(), 20);
        assert!(t.stats().totals().retried > 0);
    }
}
