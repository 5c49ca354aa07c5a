//! `ShardTransport` — the communication seam of the sharded runtime.
//!
//! [`crate::ShardedEngine`] routes every shard-bound message through a
//! `Box<dyn ShardTransport<A>>` instead of concrete channel vectors. Two
//! implementations exist:
//!
//! * **In-process** (the default, [`TransportKind::InProcess`]): a
//!   crossbeam bounded-channel mesh. One worker thread per shard in this
//!   address space, all sharing the coordinator's core; zero
//!   serialization, bounded-channel backpressure.
//! * **Multi-process** ([`TransportKind::Process`], Unix only): each shard
//!   runs in its own `eagr-shard-host` OS process, connected to the
//!   coordinator by a Unix-domain socket speaking the length-prefixed
//!   [`codec`] protocol. Cross-shard deltas hop host → coordinator → host
//!   (a star topology — the coordinator relays, so shard hosts never dial
//!   each other), and the `pending` epoch accounting rides the same FIFO
//!   sockets: a host always emits its forwarded-delta frames *before* the
//!   `Applied` acknowledgement for the message that produced them, so the
//!   coordinator's pending count can never touch zero while deltas are
//!   still in flight. [`ShardedEngine::drain`](crate::ShardedEngine::drain)
//!   therefore keeps its exact epoch-barrier meaning across process
//!   boundaries.
//!
//! The **data plane** (writes, deltas, shard-executed reads, window
//! expiration) flows through [`ShardTransport::send`] in both modes. The
//! **state plane** — relaxed reads, PAO/window state pull and publish for
//! rebuilds and topology epochs, slot moves for fenced migration,
//! observed-counter collection for rebalancing, compaction — is a set of
//! synchronous methods that every transport implements and the engine
//! calls unconditionally. Each takes the coordinator's core, and the one
//! decision that differs between transports lives behind them: in-process
//! the coordinator core *is* the live state (workers share its store), so
//! the methods work on it directly; over sockets it is a stale mirror of
//! the hosts (plan and map are current, PAO/window state is not), so the
//! methods become request/reply exchanges with the hosts.
//!
//! Every method is fallible: a dead peer process surfaces as a
//! [`TransportError`] through the engine's `Result` APIs, never a panic or
//! a wedged drain (the drain loop polls [`ShardTransport::healthy`]).

pub mod codec;
#[cfg(unix)]
pub mod host;
#[cfg(unix)]
pub mod process;

use crate::sharded::{LivePartition, ShardMsg, ShardedCore};
use eagr_agg::{Aggregate, WindowBuffer};
use eagr_graph::NodeId;
use eagr_overlay::OverlayId;
use std::sync::Arc;

/// Which transport a [`crate::ShardedConfig`] launches the shard mesh on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TransportKind {
    /// One worker thread per shard in this process, crossbeam channels
    /// in between — the zero-regression default.
    #[default]
    InProcess,
    /// One `eagr-shard-host` OS process per shard, Unix-domain sockets in
    /// between. Requires the aggregate to provide
    /// [`eagr_agg::Aggregate::wire_hooks`] and a reachable host binary
    /// (see [`process::host_binary_path`]).
    Process,
}

/// Why a transport operation failed. Cloneable so an error observed by a
/// pump thread can be surfaced by every subsequent engine call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransportError {
    /// The peer for `shard` is gone (worker thread stopped, host process
    /// exited, or the socket closed). `detail` carries the first observed
    /// cause when known.
    Closed {
        /// The shard whose peer died, when attributable.
        shard: Option<usize>,
        /// Human-readable cause.
        detail: String,
    },
    /// A socket/spawn-level I/O failure.
    Io(String),
    /// A frame failed to encode or decode.
    Codec(String),
    /// The operation is not supported by this transport (a migration-
    /// protocol message sent over sockets, or launching a process
    /// transport for an aggregate without wire hooks).
    Unsupported(&'static str),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Closed {
                shard: Some(s),
                detail,
            } => {
                write!(f, "shard {s} peer closed: {detail}")
            }
            TransportError::Closed {
                shard: None,
                detail,
            } => {
                write!(f, "shard peer closed: {detail}")
            }
            TransportError::Io(e) => write!(f, "transport i/o: {e}"),
            TransportError::Codec(e) => write!(f, "transport codec: {e}"),
            TransportError::Unsupported(what) => write!(f, "transport unsupported: {what}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        TransportError::Io(e.to_string())
    }
}

impl From<eagr_util::wire::WireError> for TransportError {
    fn from(e: eagr_util::wire::WireError) -> Self {
        TransportError::Codec(e.to_string())
    }
}

/// One slab slot's migratable state: `(overlay slot index, PAO partial,
/// window buffer when the slot is a writer)`.
pub type SlotState<A> = (u32, <A as Aggregate>::Partial, Option<WindowBuffer>);

/// The communication backend of one [`crate::ShardedEngine`].
///
/// Implementations own the shard peers (worker threads or host processes)
/// and the machinery to reach them. The engine's epoch accounting stays on
/// the engine side: the caller increments `pending` before every counted
/// [`send`](Self::send), and the transport guarantees the matching
/// decrement happens only after the message *and every cross-shard delta
/// it transitively produced on its shard* have been applied (workers
/// decrement directly; the socket pump decrements on `Applied` frames,
/// having first re-incremented for each forwarded delta batch).
pub trait ShardTransport<A: Aggregate>: Send + Sync {
    /// Which kind of transport this is (the engine picks its migration
    /// protocol by it: the two-phase concurrent copy needs shared memory).
    fn kind(&self) -> TransportKind;

    /// Number of shard peers.
    fn shards(&self) -> usize;

    /// Deliver one protocol message to `shard`'s inbox. Blocking (bounded
    /// channel backpressure in-process; socket write queueing over the
    /// wire). A dead peer returns [`TransportError::Closed`].
    fn send(&self, shard: usize, msg: ShardMsg<A>) -> Result<(), TransportError>;

    /// Cheap liveness probe, polled inside the engine's drain spin so a
    /// dead peer turns a would-be-infinite barrier into an error.
    fn healthy(&self) -> Result<(), TransportError>;

    /// Best-effort stop signal to every peer without waiting for them
    /// (the engine's `Drop` path). In-process workers exit their loops;
    /// host processes are told to stop and reaped.
    fn stop(&self);

    /// Graceful teardown: stop every peer and wait for it to exit.
    fn shutdown(&self);

    /// OS process ids of the shard peers, one per shard — empty for
    /// transports whose peers are threads in this process. Lets callers
    /// verify (tests) or report (benchmarks) that shards really run as
    /// separate processes.
    fn host_pids(&self) -> Vec<u32> {
        Vec::new()
    }

    // --- state plane ---------------------------------------------------
    //
    // `core` and `map` are the coordinator's current core and node→shard
    // map. In-process they are the live state; over sockets they are a
    // stale mirror of the hosts' PAO/window state.

    /// Evaluate `nodes`' reads on the calling thread (relaxed, like
    /// [`crate::EngineCore::read`]): result `i` answers `nodes[i]`.
    fn read_here(
        &self,
        core: &ShardedCore<A>,
        map: &LivePartition,
        nodes: &[NodeId],
    ) -> Result<Vec<Option<A::Output>>, TransportError>;

    /// Whether the peer owning reader `rid` can evaluate it. An in-process
    /// worker reads foreign slabs directly; a host holds only its own
    /// slots, so a pull tree that may cross shards is left to
    /// [`read_here`](Self::read_here).
    fn peer_serves_read(&self, core: &ShardedCore<A>, rid: OverlayId) -> bool;

    /// Bring `core`'s PAO/window state up to date with the peers, so that
    /// exporting it carries reality. Call on a drained engine.
    fn pull_state(&self, core: &ShardedCore<A>) -> Result<(), TransportError>;

    /// Hand every peer `core`'s plan and state under `map`: the core a
    /// topology epoch just patched, or a freshly seeded one. Peers may still be
    /// settling when this returns; drain before the next fence ends.
    fn publish(
        &self,
        core: &Arc<ShardedCore<A>>,
        map: &Arc<LivePartition>,
    ) -> Result<(), TransportError>;

    /// Fetch the listed slots' full migratable state (PAO + window) from
    /// their owner `shard`.
    fn fetch_slots(
        &self,
        core: &ShardedCore<A>,
        shard: usize,
        slots: &[u32],
    ) -> Result<Vec<SlotState<A>>, TransportError>;

    /// Install migrated slots at their new owner `shard` (relocates each
    /// slot into the shard's slab and installs carried window state).
    fn install_slots(
        &self,
        core: &ShardedCore<A>,
        shard: usize,
        slots: Vec<SlotState<A>>,
    ) -> Result<(), TransportError>;

    /// Tell every peer that the listed `(slot, new shard)` pairs of `map`
    /// moved, so each re-derives the writers whose windows it expires.
    /// Peers may still be settling when this returns; drain afterwards.
    fn map_update(
        &self,
        core: &Arc<ShardedCore<A>>,
        map: &Arc<LivePartition>,
        pairs: &[(u32, u32)],
    ) -> Result<(), TransportError>;

    /// Observed `(push, pull)` counters, summed element-wise over peers.
    fn observed_counts(
        &self,
        core: &ShardedCore<A>,
    ) -> Result<(Vec<u64>, Vec<u64>), TransportError>;

    /// Decay the observed counters by `factor`.
    fn decay_observed(&self, core: &ShardedCore<A>, factor: f64) -> Result<(), TransportError>;

    /// Compact the PAO slabs; returns total slots reclaimed.
    fn compact(&self, core: &ShardedCore<A>) -> Result<u64, TransportError>;

    /// Total orphaned slab slots.
    fn orphaned_slots(&self, core: &ShardedCore<A>) -> Result<u64, TransportError>;
}
