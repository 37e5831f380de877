//! Waterwheel message plane: typed RPC envelopes over a pluggable
//! [`Transport`].
//!
//! The paper deploys Waterwheel on Storm (§II-B): dispatchers, indexing
//! servers, query servers, the coordinator, and ZooKeeper are separate
//! processes exchanging messages over a real network — with latency,
//! loss, partitions, and crashed destinations. This crate is that network
//! for the embedded deployment:
//!
//! * [`envelope`] — the typed message taxonomy. Every cross-server call
//!   is a [`Request`] inside an [`Envelope`] (src, dst, rpc id, deadline);
//!   answers are typed [`Response`]s.
//! * [`transport`] — the [`Transport`] seam (`start` an envelope, get a
//!   [`Pending`] answer); [`InProcTransport`], local delivery with
//!   cluster-liveness awareness and per-link [`RpcStats`]; and
//!   [`FaultPlane`], the layer over either plane that scripts per-link
//!   latency/jitter, loss, partitions, cut-offs and lost acks.
//! * [`client`] — [`RpcClient`], the retrying stub: per-attempt deadlines
//!   from [`SystemConfig::rpc_timeout`](waterwheel_core::SystemConfig),
//!   bounded retry with backoff for delivery failures only; a call may be
//!   started now and waited for later ([`PendingCall`]).
//! * [`meta_client`] — [`MetaClient`] and [`serve_meta`], restoring the
//!   network boundary in front of the metadata service.
//! * [`wire`] — the binary frame codec: every request and response can be
//!   encoded into a length-prefixed, versioned frame and decoded back.
//! * [`reactor`] — the event loop under the TCP layer: a hand-rolled
//!   epoll poller driving nonblocking sockets, with incremental
//!   frame assembly on read and buffered flush on write. One loop thread
//!   per reactor multiplexes every registered socket.
//! * [`tcp`] — [`TcpTransport`] and [`TcpRpcServer`], the same [`Transport`]
//!   seam over real sockets, built on the reactor. One connection per
//!   destination address carries concurrent in-flight RPCs correlated by
//!   id; socket failures map to the same
//!   [`Timeout`](waterwheel_core::WwError::Timeout) /
//!   [`Unreachable`](waterwheel_core::WwError::Unreachable) taxonomy the
//!   fault layer uses, so the retry layer above is untouched. The
//!   listener's worker queue is the one place load is shed: a request
//!   class past its share of the queue gets an
//!   [`Overloaded`](waterwheel_core::WwError::Overloaded) answer.
//!
//! The [`HandlerRegistry`] is the hinge between the two deployments: the
//! embedded system binds its servers once, and either an
//! [`InProcTransport`] delivers to them directly or a [`TcpRpcServer`]
//! serves the identical registry to remote peers.

#![warn(missing_docs)]

// The reactor's epoll bindings are raw Linux syscalls; there is no other
// poller.
#[cfg(not(target_os = "linux"))]
compile_error!("waterwheel-net builds on Linux only (epoll)");

pub mod client;
pub mod envelope;
pub mod meta_client;
pub mod reactor;
pub mod tcp;
pub mod transport;
pub mod wire;

pub use client::{PendingCall, RpcClient};
pub use envelope::{
    Envelope, MetaRequest, MetaResponse, Request, RequestClass, Response, COORDINATOR, META_SERVER,
};
pub use meta_client::{serve_meta, MetaClient};
pub use reactor::{ConnHandle, FrameAssembler, ListenerHandle, Reactor, Sink};
pub use tcp::{
    TcpRpcServer, TcpServerOptions, TcpTransport, WireStats, WireTotals, OVERLOAD_RETRY_AFTER,
};
pub use transport::{
    FaultPlane, Handler, HandlerRegistry, InProcTransport, LatencyHistogram, LinkProfile, Pending,
    PendingAnswer, RpcStats, RpcStatsRegistry, RpcTotals, Transport,
};
