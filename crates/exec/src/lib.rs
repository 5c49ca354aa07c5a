//! Execution engines for EAGr overlays (paper §2.2.2).
//!
//! * [`store`] — pluggable PAO storage: per-PAO locks ([`store::LockedStore`])
//!   or shard slabs ([`store::ShardedStore`]) behind the [`store::PaoStore`]
//!   trait.
//! * [`core`] — [`EngineCore`]: overlay-frozen runtime state (windows, PAO
//!   store, atomic decisions, observation counters) with the write/read
//!   execution flow, generic over the storage backend. Used directly it is
//!   the single-threaded reference engine.
//! * [`parallel`] — the two-pool multi-threaded engine (queueing-model
//!   writes, uni-thread reads), kept as the reference row of the
//!   throughput figures.
//! * [`sharded`] — the shard-owned, batch-ingesting runtime: workers own
//!   disjoint PAO shards and exchange batched cross-shard deltas over
//!   bounded channels, drained in epochs.
//! * [`adaptive`] — the §4.8 runtime decision adaptation.
//! * [`transport`] — the [`transport::ShardTransport`] seam under the
//!   sharded runtime: in-process worker threads (default) or
//!   `eagr-shard-host` OS processes over Unix-domain sockets, each with
//!   the same data plane and state plane.
//! * [`metrics`] — throughput computation.

#![forbid(unsafe_code)]

pub mod adaptive;
pub mod core;
pub mod metrics;
pub mod parallel;
pub mod sharded;
pub mod store;
pub mod transport;

pub use crate::core::{EngineCore, EngineState};
pub use adaptive::AdaptiveEngine;
pub use metrics::throughput;
pub use parallel::{ParallelConfig, ParallelEngine};
pub use sharded::{
    LivePartition, MapSnapshot, MigrationReport, ReadReplies, RebalancePolicy, ShardMsg,
    ShardStats, ShardedConfig, ShardedConfigBuilder, ShardedCore, ShardedEngine, TopoEpochReport,
    TopoSwap,
};
pub use store::{LockedStore, PaoReader, PaoStore, ShardSnapshot, ShardedStore, StoreReader};
pub use transport::{ShardTransport, SlotState, TransportError, TransportKind};
