//! The shard-owned, batch-ingesting engine runtime.
//!
//! The two-pool engine of [`crate::parallel`] follows the paper's queueing
//! model literally: every write is subdivided into PAO-granularity
//! micro-tasks over one shared MPMC channel, and every micro-task takes a
//! per-PAO lock. That is faithful to §2.2.2 but leaves throughput on the
//! table: one channel round-trip and one lock acquisition *per PAO update*.
//!
//! [`ShardedEngine`] restructures the write path around partitioning and
//! batching instead:
//!
//! * overlay nodes are partitioned into shards (see
//!   [`eagr_graph::partition`]); one worker thread **owns** each shard and
//!   is the only thread that mutates its PAOs;
//! * writes arrive as [`EventBatch`]es and are routed to the shard owning
//!   the writer node; the worker locks its shard slab once per batch and
//!   applies every op with plain indexed access — no per-PAO locking on the
//!   hot path;
//! * push propagation that crosses a shard boundary is *not* sent op by op:
//!   each worker accumulates per-destination-shard delta outboxes while
//!   processing a batch and flushes them as single messages over bounded
//!   channels (backpressure instead of unbounded queue growth);
//! * [`drain`](ShardedEngine::drain) is an epoch barrier: it returns once
//!   every routed batch and every transitively generated cross-shard delta
//!   batch has been applied, at which point the engine state equals the
//!   single-threaded reference replay of the same stream;
//! * time-window expiration ([`advance_time`](ShardedEngine::advance_time))
//!   travels through the same inboxes as writes: each shard's worker
//!   expires the windows of the writers *it owns* and cascades the
//!   removals through its own slab — the caller thread never mutates
//!   shard-owned PAOs, preserving the single-writer invariant;
//! * the node→shard map can be structure-aware: with
//!   [`PartitionStrategy::EdgeCut`] the engine derives an affinity
//!   partition from the overlay's push topology (or accepts a precomputed
//!   one from the planner via [`ShardedEngine::from_plan`] /
//!   [`ShardedEngine::with_partition`]), and per-shard
//!   [`ShardStats`] counters make the resulting cross-shard delta
//!   reduction measurable.
//!
//! Reads are shard-executed too: [`read_batch`](ShardedEngine::read_batch)
//! routes read requests through the same inboxes, so the owning worker
//! evaluates push-side finalizes and the local portion of pull trees
//! against its own slab (one read lock per batch, plain indexed access),
//! with cross-shard pull fan-out falling through to the foreign slabs' read
//! locks. An epoch gate makes the batch **epoch-consistent**: the batch is
//! stamped at entry, pins the epoch (ingestion submitted concurrently
//! waits), and drains in-flight deltas first, so a read never observes a
//! torn epoch — every answer equals the single-threaded reference replay of
//! the exact stream prefix ingested before the batch. The caller-thread
//! [`read`](ShardedEngine::read) escape hatch remains for relaxed
//! mid-epoch probes (the consistency the paper accepts for the two-pool
//! engine), and reads inside a mixed [`ingest`](ShardedEngine::ingest)
//! batch are shipped to their owning shard fire-and-forget — the caller
//! thread never evaluates shard-owned PAO state on the batch path.
//!
//! The node→shard map itself is **live**: whatever map the engine starts
//! from (planner-derived or index-based), write rates drift away from the
//! rates it was derived under, so [`ShardedEngine::rebalance`] refines the
//! map against the *observed* per-node delta counters and migrates the
//! affected PAO state between slabs with a **two-phase, nearly
//! pause-free** protocol: phase 1 copies departing PAOs out of the old
//! owners' slabs while ingestion keeps flowing (deltas landing on
//! in-flight nodes are buffered in bounded per-worker side-logs), and
//! phase 2 takes the epoch gate exclusively only for the flip — drain,
//! replay the side-logs into the staged copies, republish slot locations
//! and the routing map atomically, release. Epoch-consistent reads
//! serialize with the flip, and relaxed reads resolve through atomically
//! republished slot locations, so answers are identical before, during,
//! and after a migration. Slab compaction piggybacks on the same fence so
//! orphaned slots are reclaimed. A [`RebalancePolicy`] on
//! [`ShardedConfig`] can fire the loop automatically every N ingestion
//! epochs, committing only when the modeled cut improvement clears a
//! threshold; a trigger that fires while a migration is already in flight
//! coalesces into it instead of stacking a second fence.

use crate::core::{EngineCore, EngineState};
use crate::store::{PaoReader, PaoStore, ShardedStore};
use crate::transport::{ShardTransport, SlotState, TransportError, TransportKind};
use crossbeam::channel::{bounded, Receiver, Sender};
use eagr_agg::{Aggregate, DeltaOp, WindowBuffer, WindowSpec};
use eagr_flow::{Decisions, Plan};
use eagr_gen::{Event, EventBatch};
use eagr_graph::{
    edge_cut_partition, hash_shard, refine_partition, EdgeCutConfig, NodeId, Partition,
    PartitionStrategy, Partitioner, RefineConfig, ShardId, DEFAULT_CHUNK_SIZE,
};
use eagr_overlay::{Overlay, OverlayId, PushEdgeView};
use eagr_util::FastSet;
use parking_lot::{Mutex, RwLock, RwLockReadGuard};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// When and how aggressively the engine re-partitions itself from observed
/// load (§4.8: the planning-time partition drifts out of date as write
/// rates move; the observed push counters feed a periodic re-partition).
///
/// The refinement is *incremental*: it keeps the current map and migrates
/// only a bounded set of highest-gain nodes ([`refine_partition`]), and it
/// only commits when the modeled cut improvement clears
/// [`min_cut_gain`](Self::min_cut_gain) — a rebalance that would barely
/// help is skipped before any state moves.
///
/// Migration is two-phase ([`ShardedEngine::rebalance`]): the copy runs
/// concurrently with ingestion, and the epoch gate is held exclusively
/// only for the flip. Deltas that land on in-flight nodes during the copy
/// are buffered in per-worker side-logs bounded by
/// [`side_log_bound`](Self::side_log_bound); each migrated node orphans
/// one PAO slot in its old slab, reclaimed by slab compaction inside the
/// flip fence once [`compact_after_orphans`](Self::compact_after_orphans)
/// slots have accumulated (or on demand via
/// [`ShardedEngine::compact`]).
#[derive(Clone, Copy, Debug)]
pub struct RebalancePolicy {
    /// Trigger a rebalance automatically after every `every_epochs`
    /// ingestion epochs ([`ShardedEngine::ingest`] calls). `0` disables
    /// the automatic trigger; [`ShardedEngine::rebalance`] stays available
    /// manually. A trigger that fires while a migration is already in
    /// flight coalesces into it (see
    /// [`ShardedEngine::coalesced_rebalances`]).
    pub every_epochs: u64,
    /// Required relative cut improvement (fraction of the current observed
    /// cut weight) for a refinement to be committed. Below it the
    /// rebalance is a no-op and no state migrates.
    pub min_cut_gain: f64,
    /// Bound on the fraction of overlay nodes migrated per rebalance
    /// (forwarded to [`RefineConfig::max_move_fraction`]).
    pub max_move_fraction: f64,
    /// Shard-load balance cap, as a multiple of the perfectly balanced
    /// load (forwarded to [`RefineConfig::balance`]).
    pub balance: f64,
    /// Observation-window decay applied after a committed rebalance:
    /// counters are scaled by this factor ([`EngineCore::decay_observed`])
    /// instead of zeroed, so the affinity view keeps a fading memory of
    /// older traffic and slow drift doesn't thrash the rebalancer. `0.0`
    /// recovers the old reset-on-rebalance behavior; `1.0` never forgets.
    pub decay: f64,
    /// Per-worker bound on the migration side-log, in buffered delta ops.
    /// During a phase-1 copy, ops that land on departing nodes are
    /// buffered so phase 2 can replay them into the staged copies; a
    /// worker whose log fills stops buffering, and the flip falls back to
    /// re-copying that worker's departing PAOs under the fence (correct,
    /// just a longer fence for that shard).
    pub side_log_bound: usize,
    /// Auto-compaction trigger: when a committed flip leaves at least this
    /// many orphaned PAO slots ([`ShardedEngine::orphaned_pao_slots`]),
    /// slab compaction runs inside the same fence and reclaims them all.
    /// `0` disables auto-compaction ([`ShardedEngine::compact`] stays
    /// available manually).
    pub compact_after_orphans: u64,
}

impl RebalancePolicy {
    /// Automatic rebalancing after every `epochs` ingestion epochs, with
    /// the default thresholds.
    pub fn every(epochs: u64) -> Self {
        Self {
            every_epochs: epochs,
            ..Self::default()
        }
    }

    /// Manual-only policy (the default): `rebalance()` works, nothing
    /// fires on its own.
    pub fn manual() -> Self {
        Self::default()
    }
}

impl Default for RebalancePolicy {
    fn default() -> Self {
        Self {
            every_epochs: 0,
            min_cut_gain: 0.05,
            max_move_fraction: 0.15,
            balance: 1.1,
            decay: 0.5,
            side_log_bound: 1 << 16,
            compact_after_orphans: 4096,
        }
    }
}

/// What one [`ShardedEngine::rebalance`] (or
/// [`migrate_to`](ShardedEngine::migrate_to)) call did.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MigrationReport {
    /// Nodes whose PAO state was copied to a new owning shard (0 when the
    /// refinement found nothing worth moving, the gain threshold was not
    /// met, or the call coalesced into an in-flight migration).
    pub nodes_copied: usize,
    /// Side-logged delta ops replayed into the staged copies at the flip —
    /// the write traffic that landed on in-flight nodes while the phase-1
    /// copy ran concurrently with ingestion.
    pub deltas_replayed: u64,
    /// Exclusive epoch-gate acquisitions the migration needed: `1` for a
    /// committed flip (compaction piggybacks inside it), `0` otherwise.
    /// The old stop-the-world protocol held the gate for the entire
    /// drain + copy + flip; now only the flip is fenced.
    pub fence_epochs: u64,
    /// Ingestion epochs admitted *during* the concurrent phase-1 copy —
    /// direct evidence the copy did not stall writers.
    pub copy_epochs: u64,
    /// Orphaned PAO slots reclaimed by the compaction pass piggybacked on
    /// the flip fence (0 when below the policy trigger).
    pub slots_reclaimed: u64,
    /// Observed-traffic cut weight of the map before refinement (0 for
    /// [`migrate_to`](ShardedEngine::migrate_to), which skips refinement).
    pub cut_before: f64,
    /// Observed-traffic cut weight of the refined map (equals the final
    /// map only when `committed`).
    pub cut_after: f64,
    /// Whether a flip was installed and state migrated.
    pub committed: bool,
}

impl MigrationReport {
    /// A report for a call that migrated nothing.
    fn skipped(cut_before: f64, cut_after: f64) -> Self {
        Self {
            nodes_copied: 0,
            deltas_replayed: 0,
            fence_epochs: 0,
            copy_epochs: 0,
            slots_reclaimed: 0,
            cut_before,
            cut_after,
            committed: false,
        }
    }
}

/// Configuration of the sharded runtime.
///
/// Prefer [`ShardedConfig::builder`] over struct literals: the builder
/// starts from the defaults, so configs stay source-compatible when new
/// knobs (like [`transport`](Self::transport)) are added.
#[derive(Clone, Copy, Debug)]
pub struct ShardedConfig {
    /// Number of shards = number of owning worker threads (or shard-host
    /// processes under [`TransportKind::Process`]).
    pub shards: usize,
    /// Node→shard assignment strategy.
    pub strategy: PartitionStrategy,
    /// Capacity of each shard's inbox (messages, each carrying a batch).
    /// Senders block when an inbox is full — bounded-channel backpressure.
    /// (The socket transport queues frames instead of blocking; the bound
    /// applies to the in-process mesh.)
    pub channel_capacity: usize,
    /// Live rebalancing policy (default: manual-only).
    pub rebalance: RebalancePolicy,
    /// Which [`ShardTransport`] the engine launches the shard mesh on
    /// (default: [`TransportKind::InProcess`]).
    pub transport: TransportKind,
}

impl ShardedConfig {
    /// `shards` shards with the default chunk-locality strategy.
    pub fn with_shards(shards: usize) -> Self {
        Self {
            shards,
            ..Self::default()
        }
    }

    /// Start a builder pre-populated with the defaults.
    pub fn builder() -> ShardedConfigBuilder {
        ShardedConfigBuilder {
            cfg: Self::default(),
        }
    }
}

/// Builder for [`ShardedConfig`] (see [`ShardedConfig::builder`]): set only
/// the knobs you care about, inherit defaults for the rest.
#[derive(Clone, Copy, Debug)]
pub struct ShardedConfigBuilder {
    cfg: ShardedConfig,
}

impl ShardedConfigBuilder {
    /// Number of shards.
    pub fn shards(mut self, shards: usize) -> Self {
        self.cfg.shards = shards;
        self
    }

    /// Node→shard assignment strategy.
    pub fn strategy(mut self, strategy: PartitionStrategy) -> Self {
        self.cfg.strategy = strategy;
        self
    }

    /// Per-shard inbox capacity.
    pub fn channel_capacity(mut self, capacity: usize) -> Self {
        self.cfg.channel_capacity = capacity;
        self
    }

    /// Live rebalancing policy.
    pub fn rebalance(mut self, policy: RebalancePolicy) -> Self {
        self.cfg.rebalance = policy;
        self
    }

    /// Transport kind (in-process worker threads vs shard-host processes).
    pub fn transport(mut self, transport: TransportKind) -> Self {
        self.cfg.transport = transport;
        self
    }

    /// Finish the builder.
    pub fn build(self) -> ShardedConfig {
        self.cfg
    }
}

impl Default for ShardedConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        Self {
            shards: cores.clamp(2, 16),
            // Overlay construction allocates chunk-mates consecutively, so
            // chunked partitioning co-locates partials with their readers.
            strategy: PartitionStrategy::Chunk {
                chunk_size: DEFAULT_CHUNK_SIZE,
            },
            channel_capacity: 1 << 12,
            rebalance: RebalancePolicy::default(),
            transport: TransportKind::default(),
        }
    }
}

/// The engine's *live* node→shard map: one atomic word per node, so the
/// routing layer, the shard workers, and the rebalancer share a single map
/// that migration can republish entry by entry without locking the hot
/// path.
///
/// Reads are `Relaxed` — every mutation happens with the epoch gate held
/// exclusively and all workers drained, and the gate/channel
/// release–acquire pairs that resume traffic afterwards carry the updated
/// entries to every thread that routes with them.
pub struct LivePartition {
    of: Vec<AtomicU32>,
    shards: usize,
    strategy: PartitionStrategy,
    /// Immutable copy of the map, rebuilt by [`publish`](Self::publish)
    /// after every flip, so batch routing resolves the whole batch against
    /// one `Arc` snapshot instead of one atomic load per event.
    cached: RwLock<Arc<Vec<u32>>>,
    /// Bumped by every [`publish`](Self::publish): lets a routing loop
    /// assert its snapshot stayed current for the whole batch.
    generation: AtomicU64,
}

impl LivePartition {
    fn new(p: &Partition) -> Self {
        Self {
            of: p.of.iter().map(|s| AtomicU32::new(s.0)).collect(),
            shards: p.shards,
            strategy: p.strategy,
            cached: RwLock::named(Arc::new(p.of.iter().map(|s| s.0).collect()), "cached"),
            generation: AtomicU64::new(0),
        }
    }

    /// Shard currently owning node index `idx`. An index beyond the map —
    /// a node added to the topology that the map has not been extended to
    /// cover yet — falls back to the deterministic hash assignment
    /// ([`hash_shard`]), the same fallback [`Partition::shard_of`] uses, so
    /// routing never panics on a fresh node and every router agrees on its
    /// owner.
    #[inline]
    pub fn shard_of(&self, idx: usize) -> ShardId {
        match self.of.get(idx) {
            Some(s) => ShardId(s.load(Ordering::Relaxed)),
            None => hash_shard(idx, self.shards),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.of.len()
    }

    /// Whether the map covers zero nodes.
    pub fn is_empty(&self) -> bool {
        self.of.is_empty()
    }

    /// Reassign node `idx` (rebalancer only: callers must hold the epoch
    /// gate exclusively over a drained engine, and call
    /// [`publish`](Self::publish) before releasing it).
    fn set(&self, idx: usize, dest: ShardId) {
        self.of[idx].store(dest.0, Ordering::Release);
    }

    /// Rebuild the cached snapshot from the live entries and bump the map
    /// generation. Rebalancer only, same locking contract as
    /// [`set`](Self::set).
    fn publish(&self) {
        let snap: Arc<Vec<u32>> =
            Arc::new(self.of.iter().map(|s| s.load(Ordering::Acquire)).collect());
        *self.cached.write() = snap;
        self.generation.fetch_add(1, Ordering::AcqRel);
    }

    /// The current map generation (bumped by every committed flip).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// One `Arc` snapshot of the whole map, pinned to its generation.
    /// Batch routing resolves every event against this instead of issuing
    /// one atomic load per event; under the shared epoch gate the map
    /// cannot change, so the snapshot stays exact for the whole batch
    /// (asserted via [`MapSnapshot::generation`]).
    pub fn load(&self) -> MapSnapshot {
        MapSnapshot {
            of: Arc::clone(&self.cached.read()),
            shards: self.shards,
            generation: self.generation.load(Ordering::Acquire),
        }
    }

    /// Materialize the current map as a plain [`Partition`].
    pub fn snapshot(&self) -> Partition {
        Partition {
            of: (0..self.of.len()).map(|i| self.shard_of(i)).collect(),
            shards: self.shards,
            strategy: self.strategy,
        }
    }

    /// Node count per shard under the current map.
    pub fn shard_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0; self.shards];
        for s in &self.of {
            sizes[s.load(Ordering::Relaxed) as usize] += 1;
        }
        sizes
    }
}

/// An immutable, generation-stamped snapshot of a [`LivePartition`] (see
/// [`LivePartition::load`]).
pub struct MapSnapshot {
    of: Arc<Vec<u32>>,
    shards: usize,
    generation: u64,
}

impl MapSnapshot {
    /// Shard owning node index `idx` under this snapshot, with the same
    /// out-of-range hash fallback as [`LivePartition::shard_of`].
    #[inline]
    pub fn shard_of(&self, idx: usize) -> ShardId {
        match self.of.get(idx) {
            Some(&s) => ShardId(s),
            None => hash_shard(idx, self.shards),
        }
    }

    /// The map generation this snapshot was taken at.
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

/// One shard's answers to a read batch: `(result slot, answer)` pairs.
pub type ReadReplies<A> = Vec<(usize, Option<<A as Aggregate>::Output>)>;

/// One shard's reply to a phase-1 [`ShardMsg::Copy`]: the origin shard
/// plus `(node, destination, staged PAO clone)` for every departing node.
pub type CopyReply<A> = (
    ShardId,
    Vec<(OverlayId, ShardId, <A as Aggregate>::Partial)>,
);

/// One shard's reply to a phase-2 [`ShardMsg::EndCopy`]: the origin
/// shard, its side-log in arrival order, and whether the log overflowed
/// (in which case it is empty and the staged copies from that shard must
/// be re-copied under the fence).
pub type SideLogReply = (ShardId, Vec<(OverlayId, DeltaOp)>, bool);

/// Per-worker migration side-log, active between a [`ShardMsg::Copy`] and
/// the matching [`ShardMsg::EndCopy`]: every delta op the worker applies
/// to a departing node is buffered (bounded) so the flip can replay it
/// into the staged copy.
struct SideLog {
    /// Departing nodes this worker is the current owner of.
    nodes: std::collections::HashSet<u32>,
    /// Buffered `(node, op)` in arrival order.
    log: Vec<(OverlayId, DeltaOp)>,
    /// Capacity bound ([`RebalancePolicy::side_log_bound`]).
    bound: usize,
    /// Set once the bound is hit; the log is discarded and phase 2 falls
    /// back to re-copying this shard's departing PAOs under the fence.
    overflowed: bool,
}

/// Messages flowing into one shard's inbox — the protocol a
/// [`ShardTransport`] carries. The in-process transport moves these
/// values over crossbeam channels untouched; the socket transport maps
/// the data-plane variants onto [`crate::transport::codec`] frames (reply
/// channels become request-id correlation tokens) and rejects the
/// migration-protocol variants, which have no meaning across processes
/// (the engine drives process-mode migration through the transport's
/// state-plane methods instead).
pub enum ShardMsg<A: Aggregate> {
    /// Writes whose *writer node* the shard owns: `(writer, value, ts)` in
    /// submission order.
    Writes(Vec<(OverlayId, i64, u64)>),
    /// Propagated delta ops targeting nodes the shard owns.
    Deltas(Vec<(OverlayId, DeltaOp)>),
    /// Read requests whose *reader node* the shard owns: `(result slot,
    /// data node)`. The worker evaluates them against a read snapshot of
    /// its own slab (push finalizes and the local part of pull trees read
    /// lock-free; cross-shard pull inputs go through the foreign slabs'
    /// read locks) and sends the answers back over `reply`. `None` marks a
    /// fire-and-forget read (a read event inside a mixed ingest batch):
    /// evaluated and dropped, like [`crate::ParallelEngine`]'s read pool.
    Reads {
        /// `(slot in the caller's result vector, data node to read)`.
        targets: Vec<(usize, NodeId)>,
        /// Completion channel for [`ShardedEngine::read_batch`].
        reply: Option<Sender<ReadReplies<A>>>,
    },
    /// Expire time windows up to `ts` for every writer the shard owns and
    /// cascade the removals (the sharded form of
    /// [`EngineCore::advance_time`]).
    Expire(u64),
    /// Migration phase 1 (sent by the rebalancer to each departing node's
    /// *current* owner, with ingestion still flowing): clone the listed
    /// nodes' PAOs out of this shard's slab and reply with the staged
    /// copies, then start side-logging every subsequent op applied to
    /// them. Snapshot and side-log activation happen inside one message
    /// handler on the owning worker, so every op is either in the copy or
    /// in the log — never both, never neither.
    Copy {
        /// `(departing node, destination shard)` for nodes this shard owns.
        moves: Vec<(OverlayId, ShardId)>,
        /// Staged-copy return channel (sized so the send never blocks).
        reply: Sender<CopyReply<A>>,
    },
    /// Migration phase 2 (sent under the exclusive epoch gate over a
    /// drained engine): stop side-logging and reply with the buffered
    /// deltas. Window-expiration ownership moves after the flip, with the
    /// map update ([`ShardTransport::map_update`]).
    EndCopy {
        /// Side-log return channel (sized so the send never blocks).
        reply: Sender<SideLogReply>,
    },
    /// A new map, published by the in-process transport's state plane
    /// (topology epochs, rebuild seeding, map updates after a migration —
    /// sent under the exclusive epoch gate over a drained engine): swap
    /// the worker's routing-map handle and take over the new
    /// window-expiration writer set. The core needs no swap: a topology
    /// epoch patches it in place, and workers borrow it per message.
    /// Travels through the same inbox + `pending` protocol as every other
    /// message, so the topology change drains like an epoch — no worker
    /// restart, no re-plan.
    Topo(Arc<TopoSwap>),
    /// Terminate the worker.
    Stop,
}

/// The payload of a [`ShardMsg::Topo`]: everything a worker holds that a
/// topology epoch replaces. One `Arc` shared by all shards; each worker
/// clones its own writer list out of it.
pub struct TopoSwap {
    partition: Arc<LivePartition>,
    /// Window-expiration ownership under the new map, indexed by shard.
    writers_by_shard: Vec<Vec<OverlayId>>,
}

/// Per-shard runtime counters ([`ShardedEngine::shard_stats`]): how much
/// work stayed local and how much was shipped to peers — the observable the
/// partition strategies compete on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardStats {
    /// The shard.
    pub shard: ShardId,
    /// Overlay nodes the shard owns.
    pub nodes: usize,
    /// Delta ops this shard's worker applied to its own slab (local work,
    /// including ops that arrived from peers).
    pub local_applies: u64,
    /// Delta ops this shard's worker shipped to *other* shards' inboxes.
    pub cross_deltas_out: u64,
    /// Read requests this shard's worker evaluated (both
    /// [`ShardedEngine::read_batch`] requests and fire-and-forget reads
    /// inside mixed ingest batches). Trustworthy per-shard read load for
    /// §4.8-style re-partitioning.
    pub reads_served: u64,
}

/// The sharded core type: an [`EngineCore`] over shard-slab PAO storage.
pub type ShardedCore<A> = EngineCore<A, ShardedStore<<A as Aggregate>::Partial>>;

/// The cell holding an engine's one core, shared by the engine and its
/// in-process workers. Everyone borrows the core through a read guard for
/// one call or one message; only a topology epoch write-locks the cell,
/// and it patches the core in place.
type CoreCell<A> = Arc<RwLock<Arc<ShardedCore<A>>>>;

/// A borrow of the engine's live core ([`ShardedEngine::core`]).
pub type CoreRef<'a, A> = RwLockReadGuard<'a, Arc<ShardedCore<A>>>;

/// What one [`ShardedEngine::apply_topo`] call changed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TopoEpochReport {
    /// Overlay ids appended since the previous topology (live or not).
    pub fresh_nodes: usize,
    /// Nodes retired by this epoch (includes nodes added and removed
    /// within the same mutation run).
    pub retired_nodes: usize,
    /// Push nodes whose PAOs were rebuilt before workers resumed (fresh,
    /// upgraded, and repair-dirtied nodes plus backfilled writers).
    pub rematerialized: usize,
    /// Slab slots orphaned by this epoch: the slots of pre-existing nodes
    /// it retired, handed to the compaction path. Ids born and retired
    /// within the run never get a slab slot.
    pub orphaned_slots: u64,
    /// Orphans reclaimed by the compaction pass piggybacked on this
    /// epoch's fence (0 when below the policy trigger).
    pub slots_reclaimed: u64,
}

/// Shard-owned, batch-ingesting multi-threaded engine.
pub struct ShardedEngine<A: Aggregate> {
    /// The live core, one allocation for the engine's lifetime. Entry
    /// points and workers borrow it through the cell's read lock for one
    /// call or message; a topology epoch
    /// ([`apply_topo`](Self::apply_topo)) write-locks it under the fence
    /// and patches it in place.
    core: CoreCell<A>,
    /// The live node→shard map, replaced by topology epochs.
    partition: RwLock<Arc<LivePartition>>,
    window: WindowSpec,
    policy: RebalancePolicy,
    /// The communication backend: the in-process channel mesh or the
    /// multi-process socket star ([`ShardTransport`]).
    transport: Box<dyn ShardTransport<A>>,
    pending: Arc<AtomicU64>,
    /// Per-shard deltas shipped to peers (indexed by sending shard).
    cross_out: Arc<Vec<AtomicU64>>,
    /// Per-shard delta ops applied locally (indexed by owning shard).
    local: Arc<Vec<AtomicU64>>,
    /// Per-shard read requests served (indexed by owning shard).
    reads: Arc<Vec<AtomicU64>>,
    /// Epoch gate for shard-executed reads *and* the migration flip:
    /// write submission holds it shared; [`read_batch`](Self::read_batch)
    /// holds it exclusively while it drains and reads, and a migration
    /// holds it exclusively *only for phase 2* (drain, side-log replay,
    /// map flip, optional compaction) — the phase-1 copy runs concurrently
    /// with ingestion.
    epoch_gate: RwLock<()>,
    epochs: AtomicU64,
    /// Committed rebalances so far.
    rebalances: AtomicU64,
    /// Nodes migrated across all committed rebalances.
    nodes_migrated: AtomicU64,
    /// Single-flight migration guard: set for the duration of one
    /// `rebalance`/`migrate_to` call; losers coalesce instead of stacking.
    migrating: AtomicBool,
    /// Rebalance calls (manual or auto-trigger) that coalesced into an
    /// in-flight migration instead of running.
    coalesced: AtomicU64,
    /// Orphaned PAO slots reclaimed by compaction across the engine's
    /// lifetime.
    slots_reclaimed: AtomicU64,
    /// Topology epochs applied ([`apply_topo`](Self::apply_topo)).
    topo_epochs: AtomicU64,
}

impl<A: Aggregate> ShardedEngine<A> {
    /// Build the sharded runtime for an overlay + decisions and spawn one
    /// owning worker per shard. [`PartitionStrategy::EdgeCut`] derives the
    /// node→shard map from the overlay's push topology under `decisions`
    /// (uniform rate prior — hand a planner-weighted map to
    /// [`with_partition`](Self::with_partition) for rate-aware cuts); the
    /// index-based strategies go through a plain [`Partitioner`].
    pub fn new(
        agg: A,
        overlay: Arc<Overlay>,
        decisions: &Decisions,
        window: WindowSpec,
        cfg: &ShardedConfig,
    ) -> Self {
        let partition = match cfg.strategy {
            PartitionStrategy::EdgeCut => {
                let view = PushEdgeView::new(&overlay, |n| decisions.is_push(n));
                edge_cut_partition(&view, cfg.shards, &EdgeCutConfig::default())
            }
            strategy => Partitioner::new(cfg.shards, strategy).partition(overlay.node_count()),
        };
        Self::with_partition(agg, overlay, decisions, window, partition, cfg)
    }

    /// Build from a dataflow [`Plan`]. Reuses the partition the plan
    /// carries when it matches `cfg.shards`; otherwise derives a fresh one
    /// from `cfg`.
    pub fn from_plan(plan: &Plan, agg: A, window: WindowSpec, cfg: &ShardedConfig) -> Self {
        let overlay = Arc::new(plan.overlay.clone());
        match &plan.partition {
            Some(p) if p.shards == cfg.shards && p.len() == overlay.node_count() => {
                Self::with_partition(agg, overlay, &plan.decisions, window, p.clone(), cfg)
            }
            Some(_) | None => Self::new(agg, overlay, &plan.decisions, window, cfg),
        }
    }

    /// Build over an explicit node partition (`cfg.shards` and
    /// `cfg.strategy` are ignored — the partition *is* the map).
    ///
    /// # Panics
    /// Panics if the partition does not cover every overlay node, if
    /// `cfg.channel_capacity` is smaller than the shard count (the
    /// migration handoff needs one inbox slot per peer), or if the
    /// configured transport fails to launch (e.g.
    /// [`TransportKind::Process`] for an aggregate without
    /// [`Aggregate::wire_hooks`], or an unreachable host binary) — use
    /// [`try_with_partition`](Self::try_with_partition) to surface launch
    /// failures as a [`TransportError`] instead.
    pub fn with_partition(
        agg: A,
        overlay: Arc<Overlay>,
        decisions: &Decisions,
        window: WindowSpec,
        partition: Partition,
        cfg: &ShardedConfig,
    ) -> Self {
        match Self::try_with_partition(agg, overlay, decisions, window, partition, cfg) {
            Ok(engine) => engine,
            // lint: allow(panic-free, the documented infallible constructor surface; try_with_partition is the Result-returning form)
            Err(e) => panic!("sharded engine transport launch failed: {e}"),
        }
    }

    /// Fallible form of [`with_partition`](Self::with_partition): transport
    /// launch failures (host spawn/connect errors, missing wire hooks)
    /// come back as a [`TransportError`] instead of panicking. The
    /// partition-coverage and channel-capacity preconditions still panic —
    /// those are caller bugs, not runtime conditions.
    pub fn try_with_partition(
        agg: A,
        overlay: Arc<Overlay>,
        decisions: &Decisions,
        window: WindowSpec,
        partition: Partition,
        cfg: &ShardedConfig,
    ) -> Result<Self, TransportError> {
        assert_eq!(
            partition.len(),
            overlay.node_count(),
            "partition must cover every overlay node"
        );
        let channel_capacity = cfg.channel_capacity;
        assert!(
            channel_capacity >= partition.shards.max(1),
            "channel capacity must be at least the shard count"
        );
        let store = ShardedStore::new(&partition, || agg.empty());
        let core = Arc::new(EngineCore::with_store(
            agg, overlay, decisions, window, store,
        ));
        let shards = partition.shards;
        let plain = partition;
        let partition = Arc::new(LivePartition::new(&plain));
        let pending = Arc::new(AtomicU64::new(0));
        let cross_out: Arc<Vec<AtomicU64>> =
            Arc::new((0..shards).map(|_| AtomicU64::new(0)).collect());
        let local: Arc<Vec<AtomicU64>> = Arc::new((0..shards).map(|_| AtomicU64::new(0)).collect());
        let reads: Arc<Vec<AtomicU64>> = Arc::new((0..shards).map(|_| AtomicU64::new(0)).collect());
        let cell: CoreCell<A> = Arc::new(RwLock::named(Arc::clone(&core), "core"));
        let transport: Box<dyn ShardTransport<A>> = match cfg.transport {
            TransportKind::InProcess => Box::new(InProcessTransport::launch(
                Arc::clone(&cell),
                Arc::clone(&partition),
                Arc::clone(&pending),
                Arc::clone(&cross_out),
                Arc::clone(&local),
                Arc::clone(&reads),
                channel_capacity,
                cfg.rebalance.side_log_bound,
            )),
            #[cfg(unix)]
            TransportKind::Process => {
                Box::new(crate::transport::process::ProcessTransport::launch(
                    &core,
                    &plain,
                    window,
                    Arc::clone(&pending),
                    Arc::clone(&cross_out),
                    Arc::clone(&local),
                    Arc::clone(&reads),
                )?)
            }
            #[cfg(not(unix))]
            TransportKind::Process => {
                return Err(TransportError::Unsupported(
                    "process transport requires Unix-domain sockets",
                ))
            }
        };
        drop(core);
        Ok(Self {
            core: cell,
            partition: RwLock::named(partition, "partition"),
            window,
            policy: cfg.rebalance,
            transport,
            pending,
            cross_out,
            local,
            reads,
            epoch_gate: RwLock::named((), "epoch_gate"),
            epochs: AtomicU64::new(0),
            rebalances: AtomicU64::new(0),
            nodes_migrated: AtomicU64::new(0),
            migrating: AtomicBool::new(false),
            coalesced: AtomicU64::new(0),
            slots_reclaimed: AtomicU64::new(0),
            topo_epochs: AtomicU64::new(0),
        })
    }

    /// Borrow the live core (shard-slab storage). The borrow holds the
    /// core cell's read lock: a topology epoch waits for it to drop before
    /// patching the core, so drop it before calling back into the engine.
    pub fn core(&self) -> CoreRef<'_, A> {
        self.core.read()
    }

    /// The live node→shard map shared with the workers — an owned handle,
    /// like [`core`](Self::core).
    fn partition_ref(&self) -> Arc<LivePartition> {
        Arc::clone(&self.partition.read())
    }

    /// A snapshot of the node→shard assignment currently in use (live
    /// rebalancing mutates the map, so this is a copy, not a reference).
    pub fn partition(&self) -> Partition {
        self.partition_ref().snapshot()
    }

    /// The live node→shard map shared with the workers.
    pub fn live_partition(&self) -> Arc<LivePartition> {
        self.partition_ref()
    }

    /// Number of shards (fixed for the engine's lifetime — topology epochs
    /// replace the map, never the shard count).
    pub fn shard_count(&self) -> usize {
        self.transport.shards()
    }

    /// Which transport the engine is running on.
    pub fn transport_kind(&self) -> TransportKind {
        self.transport.kind()
    }

    /// OS process ids of the shard host peers, one per shard — empty on
    /// the in-process transport (workers are threads of this process).
    pub fn host_pids(&self) -> Vec<u32> {
        self.transport.host_pids()
    }

    /// Send one pending-counted message: the counter is incremented
    /// *before* the message becomes visible to the receiver (its decrement
    /// must never race ahead) and rolled back if the transport rejects it.
    fn send_counted(&self, shard: usize, msg: ShardMsg<A>) -> Result<(), TransportError> {
        self.pending.fetch_add(1, Ordering::AcqRel);
        match self.transport.send(shard, msg) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.pending.fetch_sub(1, Ordering::AcqRel);
                Err(e)
            }
        }
    }

    /// Route one batch of events into the shards and return
    /// `(writes, reads)` processed — a write counts even when its node has
    /// no overlay writer (the event is consumed and dropped, exactly like
    /// [`EngineCore::write`]), so counts agree across execution modes.
    /// Writes are grouped per owning shard and enqueued as one message per
    /// shard; read events are shipped to the shard owning their reader as
    /// fire-and-forget requests (evaluated by the owning worker, relaxed
    /// mid-epoch consistency) — the caller thread never evaluates
    /// shard-owned PAO state. Call [`drain`](Self::drain) to close the
    /// epoch. For reads whose answers you need, use
    /// [`read_batch`](Self::read_batch).
    ///
    /// Per-writer ordering is preserved for batches submitted from one
    /// thread: a writer's updates always travel to the same shard inbox in
    /// submission order.
    ///
    /// # Errors
    /// [`TransportError`] when a shard peer is unreachable (a worker
    /// thread exited, or a shard-host process died). The in-process
    /// transport only fails during shutdown races; the socket transport
    /// surfaces real process/socket failures here instead of panicking.
    pub fn ingest(&self, batch: &EventBatch) -> Result<(usize, usize), TransportError> {
        self.ingest_at(&batch.events, batch.base_ts)
    }

    /// Borrowing equivalent of [`ingest`](Self::ingest): event `i` carries
    /// timestamp `base_ts + i`.
    pub fn ingest_at(
        &self,
        events: &[Event],
        base_ts: u64,
    ) -> Result<(usize, usize), TransportError> {
        let mut per_shard: Vec<Vec<(OverlayId, i64, u64)>> = vec![Vec::new(); self.shard_count()];
        let mut reads_per_shard: Vec<Vec<(usize, NodeId)>> = vec![Vec::new(); self.shard_count()];
        let mut writes = 0;
        let mut reads = 0;
        // Hold the epoch gate shared through routing *and* submission: the
        // live node→shard map only changes under the exclusive gate, so a
        // batch can never be routed with a map that a concurrent rebalance
        // is rewriting, and an epoch-consistent read_batch never
        // interleaves mid-epoch. Taking the core/map handles under the
        // gate also pins one consistent pair against topology epochs.
        let gate = self.epoch_gate.read();
        let core = self.core();
        let partition = self.partition_ref();
        let overlay = core.overlay();
        // One map snapshot for the whole batch instead of one atomic load
        // per event; the generation assert below pins that every event was
        // routed against a single published map.
        let map = partition.load();
        for (i, e) in events.iter().enumerate() {
            let ts = base_ts + i as u64;
            match *e {
                Event::Write { node, value } => {
                    if let Some(wid) = overlay.writer(node) {
                        per_shard[map.shard_of(wid.idx()).idx()].push((wid, value, ts));
                    }
                    writes += 1;
                }
                Event::Read { node } => {
                    if let Some(rid) = overlay.reader(node) {
                        reads_per_shard[map.shard_of(rid.idx()).idx()].push((i, node));
                    }
                    reads += 1;
                }
                Event::AddEdge { .. }
                | Event::RemoveEdge { .. }
                | Event::AddNode { .. }
                | Event::RemoveNode { .. } => {
                    // Topology mutations never ride the shared-gate hot
                    // path: the facade splits them out of the stream and
                    // applies them through `apply_topo` (an exclusive topo
                    // epoch). A mutation reaching this routing loop is
                    // consumed and dropped, mirroring how a write to a
                    // writerless node is consumed.
                }
            }
        }
        assert_eq!(
            map.generation(),
            partition.generation(),
            "partition map flipped while a routing batch held the shared epoch gate"
        );
        for (shard, group) in per_shard.into_iter().enumerate() {
            if !group.is_empty() {
                self.send_counted(shard, ShardMsg::Writes(group))?;
            }
        }
        for (shard, targets) in reads_per_shard.into_iter().enumerate() {
            if !targets.is_empty() {
                self.send_counted(
                    shard,
                    ShardMsg::Reads {
                        targets,
                        reply: None,
                    },
                )?;
            }
        }
        let epoch = self.epochs.fetch_add(1, Ordering::Relaxed) + 1;
        drop(core);
        drop(gate);
        // Automatic §4.8 trigger: the flip re-takes the gate exclusively,
        // so it must run after this epoch's shared hold is released. If
        // another thread's migration is already in flight, rebalance()
        // coalesces into it instead of stacking a second fence.
        if self.policy.every_epochs > 0 && epoch % self.policy.every_epochs == 0 {
            self.rebalance()?;
        }
        Ok((writes, reads))
    }

    /// Ingest a batch and drain it — one full epoch.
    pub fn ingest_epoch(&self, batch: &EventBatch) -> Result<(usize, usize), TransportError> {
        let counts = self.ingest(batch)?;
        self.drain()?;
        Ok(counts)
    }

    /// Borrowing equivalent of [`ingest_epoch`](Self::ingest_epoch).
    pub fn ingest_epoch_at(
        &self,
        events: &[Event],
        base_ts: u64,
    ) -> Result<(usize, usize), TransportError> {
        let counts = self.ingest_at(events, base_ts)?;
        self.drain()?;
        Ok(counts)
    }

    /// Route a single write (convenience; prefer [`ingest`](Self::ingest)
    /// for throughput).
    pub fn submit_write(&self, v: NodeId, value: i64, ts: u64) -> Result<(), TransportError> {
        let _gate = self.epoch_gate.read();
        let core = self.core();
        if let Some(wid) = core.overlay().writer(v) {
            let shard = self.partition_ref().shard_of(wid.idx()).idx();
            self.send_counted(shard, ShardMsg::Writes(vec![(wid, value, ts)]))?;
        }
        Ok(())
    }

    /// Evaluate a read on the calling thread. Between
    /// [`drain`](Self::drain)s this may observe partially propagated
    /// writes (the paper's relaxed consistency). It takes no epoch gate,
    /// so ingestion and migration flips never wait for it; it borrows the
    /// core for the read, so a topology epoch's in-place install waits
    /// for it, and it waits out an install in progress — a relaxed read
    /// sees the topology before or after an epoch, never a half-patched
    /// core. For shard-executed, epoch-consistent reads use
    /// [`read_batch`](Self::read_batch) /
    /// [`read_service`](Self::read_service).
    ///
    /// A transport failure (a dead shard host) maps to `None`; call
    /// [`try_read`](Self::try_read) to distinguish "no reader" from "host
    /// died".
    pub fn read(&self, v: NodeId) -> Option<A::Output> {
        self.try_read(v).unwrap_or(None)
    }

    /// Fallible form of [`read`](Self::read) (same relaxed mid-epoch
    /// consistency), evaluated by [`ShardTransport::read_here`]: straight
    /// off the shared store in-process; over sockets the needed push PAOs
    /// are fetched from their owning hosts first.
    pub fn try_read(&self, v: NodeId) -> Result<Option<A::Output>, TransportError> {
        let core = self.core();
        let answers =
            self.transport
                .read_here(&core, &self.partition_ref(), std::slice::from_ref(&v))?;
        Ok(answers.into_iter().next().flatten())
    }

    /// Evaluate a batch of reads **on the shard workers**, epoch-
    /// consistently: result `i` answers the query at `nodes[i]` (`None`
    /// when the node has no reader in the overlay).
    ///
    /// The batch follows the epoch-stamped snapshot rule: it takes the
    /// epoch gate exclusively (concurrently submitted ingestion waits at
    /// the gate), drains every in-flight batch and cross-shard delta, then
    /// fans the requests out to the shards owning each reader. Every
    /// answer therefore equals the single-threaded reference replay of the
    /// exact event-stream prefix ingested before the batch — a read can
    /// never observe a torn epoch, no matter how many threads are
    /// ingesting.
    ///
    /// Each owning worker serves its requests against a read snapshot of
    /// its own slab (one lock per batch, plain indexed access — the read
    /// analog of the batched write path) and resolves cross-shard pull
    /// subtrees through the foreign slabs' read locks. The caller thread
    /// only routes requests and collects replies; it never evaluates
    /// shard-owned PAO state.
    pub fn read_batch(&self, nodes: &[NodeId]) -> Result<Vec<Option<A::Output>>, TransportError> {
        let _gate = self.epoch_gate.write();
        self.drain()?;
        let core = self.core();
        let partition = self.partition_ref();
        let overlay = core.overlay();
        let mut results: Vec<Option<A::Output>> = vec![None; nodes.len()];
        // A reader its owning peer cannot evaluate (a pull tree over shard
        // hosts) is evaluated here instead. The engine is drained under
        // the exclusive gate, so both paths answer from the same epoch
        // boundary.
        let mut per_shard: Vec<Vec<(usize, NodeId)>> = vec![Vec::new(); self.shard_count()];
        let mut here: Vec<(usize, NodeId)> = Vec::new();
        for (i, &v) in nodes.iter().enumerate() {
            if let Some(rid) = overlay.reader(v) {
                if self.transport.peer_serves_read(&core, rid) {
                    per_shard[partition.shard_of(rid.idx()).idx()].push((i, v));
                } else {
                    here.push((i, v));
                }
            }
        }
        let (reply, replies) = bounded::<ReadReplies<A>>(self.shard_count());
        let mut outstanding = 0usize;
        for (shard, targets) in per_shard.into_iter().enumerate() {
            if !targets.is_empty() {
                self.send_counted(
                    shard,
                    ShardMsg::Reads {
                        targets,
                        reply: Some(reply.clone()),
                    },
                )?;
                outstanding += 1;
            }
        }
        drop(reply);
        for _ in 0..outstanding {
            let answers = replies.recv().map_err(|_| TransportError::Closed {
                shard: None,
                detail: "shard peer dropped a read-reply channel".to_string(),
            })?;
            for (slot, answer) in answers {
                results[slot] = answer;
            }
        }
        if !here.is_empty() {
            let targets: Vec<NodeId> = here.iter().map(|&(_, v)| v).collect();
            let answers = self.transport.read_here(&core, &partition, &targets)?;
            for ((i, _), answer) in here.into_iter().zip(answers) {
                results[i] = answer;
            }
        }
        Ok(results)
    }

    /// Evaluate one read on the shard worker owning its reader — the
    /// single-request form of [`read_batch`](Self::read_batch), with the
    /// same epoch-consistent semantics.
    pub fn read_service(&self, v: NodeId) -> Result<Option<A::Output>, TransportError> {
        Ok(self
            .read_batch(std::slice::from_ref(&v))?
            .pop()
            .unwrap_or(None))
    }

    /// Total read requests served by the shard workers so far.
    pub fn reads_served(&self) -> u64 {
        self.reads.iter().map(|c| c.load(Ordering::Acquire)).sum()
    }

    /// Route a window-expiration sweep up to `ts` through every shard's
    /// inbox. Each owning worker expires the windows of its own writers
    /// and cascades the removals — the caller thread touches no shard
    /// state, so this is safe to call concurrently with
    /// [`ingest`](Self::ingest). Per-writer ordering against writes holds
    /// for a single submitting thread: the expiration lands in each inbox
    /// after the writes submitted before it. Call [`drain`](Self::drain)
    /// (or use [`advance_time_epoch`](Self::advance_time_epoch)) to wait
    /// for the sweep to be fully applied.
    pub fn advance_time(&self, ts: u64) -> Result<(), TransportError> {
        // Only time windows ever expire by clock (WindowBuffer::advance is
        // a no-op otherwise): skip the slab-locking per-writer sweep
        // entirely for tuple/unbounded windows.
        if !matches!(self.window, WindowSpec::Time(_)) {
            return Ok(());
        }
        let _gate = self.epoch_gate.read();
        for shard in 0..self.shard_count() {
            self.send_counted(shard, ShardMsg::Expire(ts))?;
        }
        Ok(())
    }

    /// [`advance_time`](Self::advance_time) followed by a drain; returns
    /// the PAO updates applied while the sweep drained (includes any
    /// concurrently ingested writes — an exact per-sweep count would
    /// require stopping the world).
    pub fn advance_time_epoch(&self, ts: u64) -> Result<u64, TransportError> {
        let before = self.local_applies();
        self.advance_time(ts)?;
        self.drain()?;
        Ok(self.local_applies() - before)
    }

    /// Re-partition the engine from **observed** load and live-migrate the
    /// affected PAO state — the §4.8 loop closed: planning-time maps drift
    /// as write rates move, so the map is refined against the traffic the
    /// engine actually saw.
    ///
    /// Migration is **two-phase** and nearly pause-free:
    ///
    /// 1. *Refine (no gate).* Settle in-flight work ([`drain`](Self::drain)
    ///    — concurrent submitters are not blocked; this is not the fence),
    ///    build the observed-rate affinity view
    ///    ([`PushEdgeView::observed_with_reads`] over the core's applied-op
    ///    and read counters) and run the bounded incremental refinement
    ///    ([`refine_partition`]) off the *current* map. Commit only if the
    ///    modeled cut improvement clears the policy's
    ///    [`min_cut_gain`](RebalancePolicy::min_cut_gain).
    /// 2. *Phase-1 copy (no gate — ingestion keeps flowing).* Each
    ///    departing node's current owner clones its PAO out of the slab
    ///    and starts side-logging every subsequent op applied to it
    ///    (bounded by [`RebalancePolicy::side_log_bound`]). Snapshot and
    ///    log activation happen inside one inbox message on the owning
    ///    worker, so each op lands in exactly one of copy or log.
    /// 3. *Phase-2 flip (the only fence).* Take the epoch gate
    ///    exclusively, drain, collect the side-logs, replay them into the
    ///    staged copies ([`EngineCore::replay_ops`]; an overflowed shard's
    ///    nodes are re-copied exactly instead), install every copy at its
    ///    new owner ([`ShardedStore::relocate`]), publish the new routing
    ///    map, hand window-expiration ownership of moved writers to their
    ///    new owners, optionally compact the slabs
    ///    ([`RebalancePolicy::compact_after_orphans`]), release.
    ///
    /// Differential answers are preserved through the whole dance: during
    /// the copy the routing map is unchanged, so old owners keep applying
    /// (and logging) every op; epoch-consistent reads serialize with the
    /// flip and therefore only ever observe the pre- or post-migration map
    /// over identical values; and relaxed caller-thread reads resolve
    /// slots through the store's atomically republished (and revalidated)
    /// locations, so no read can observe a torn PAO.
    ///
    /// Only one migration can be in flight: a call racing another —
    /// including the automatic every-N-epochs trigger firing mid-copy —
    /// returns immediately with an uncommitted [`MigrationReport`] and
    /// bumps [`coalesced_rebalances`](Self::coalesced_rebalances), so
    /// fences never stack and nothing is double-drained.
    ///
    /// Committed rebalances *decay* the observation window
    /// ([`EngineCore::decay_observed`] by [`RebalancePolicy::decay`])
    /// rather than zeroing it, so the next interval blends fresh drift
    /// with a fading memory of history.
    pub fn rebalance(&self) -> Result<MigrationReport, TransportError> {
        let Some(flight) = MigrationFlight::begin(self) else {
            return Ok(MigrationReport::skipped(0.0, 0.0));
        };
        // The single-flight guard keeps topology epochs out, so this map
        // stays current for the whole migration. The core borrow ends
        // before the flip takes the epoch gate.
        let current = self.partition_ref().snapshot();
        let (refined, stats) = {
            let core = self.core();
            let (counts, pulls) = self.transport.observed_counts(&core)?;
            let view = PushEdgeView::observed_with_reads(
                core.overlay(),
                |n| core.is_push(n),
                &counts,
                &pulls,
            );
            refine_partition(
                &view,
                &current,
                &RefineConfig {
                    balance: self.policy.balance,
                    max_move_fraction: self.policy.max_move_fraction,
                    ..RefineConfig::default()
                },
            )
        };
        let committed = stats.moved > 0
            && stats.cut_before > 0.0
            && stats.gain_fraction() >= self.policy.min_cut_gain;
        if !committed {
            return Ok(MigrationReport::skipped(stats.cut_before, stats.cut_after));
        }
        let moves: Vec<(OverlayId, ShardId)> = (0..refined.len())
            .filter_map(|idx| {
                let dest = refined.shard_of(idx);
                (dest != current.shard_of(idx)).then_some((OverlayId(idx as u32), dest))
            })
            .collect();
        let mut report = flight.execute(moves)?;
        report.cut_before = stats.cut_before;
        report.cut_after = stats.cut_after;
        self.transport
            .decay_observed(&self.core(), self.policy.decay)?;
        Ok(report)
    }

    /// Migrate the engine to an **explicit** target node→shard map with
    /// the same two-phase protocol as [`rebalance`](Self::rebalance),
    /// skipping the observed-load refinement: every node whose current
    /// owner differs from `target`'s is copied concurrently with
    /// ingestion and flipped under the single phase-2 fence. Commits
    /// whenever at least one node moves (`cut_before`/`cut_after` are 0 —
    /// no affinity view is consulted), and does not decay the observation
    /// window. This is the planner-driven entry point (and what the drift
    /// bench uses to keep a migration continuously in flight).
    ///
    /// Coalesces exactly like `rebalance` when another migration is
    /// already in flight.
    ///
    /// # Panics
    /// Panics if `target` does not cover every overlay node or names a
    /// shard outside the engine's shard count.
    pub fn migrate_to(&self, target: &Partition) -> Result<MigrationReport, TransportError> {
        let Some(flight) = MigrationFlight::begin(self) else {
            return Ok(MigrationReport::skipped(0.0, 0.0));
        };
        let current = self.partition_ref().snapshot();
        assert_eq!(
            target.len(),
            current.len(),
            "target partition must cover every overlay node"
        );
        let moves: Vec<(OverlayId, ShardId)> = (0..target.len())
            .filter_map(|idx| {
                let dest = target.shard_of(idx);
                assert!(dest.idx() < self.shard_count(), "target shard out of range");
                (dest != current.shard_of(idx)).then_some((OverlayId(idx as u32), dest))
            })
            .collect();
        flight.execute(moves)
    }

    /// Snapshot the live window + PAO state for a runtime rebuild
    /// (multi-query attach/detach): drain under the exclusive gate, pull
    /// the peers' state into the coordinator core
    /// ([`ShardTransport::pull_state`]) and export it.
    pub fn export_state(&self) -> Result<EngineState<A::Partial>, TransportError> {
        let _gate = self.epoch_gate.write();
        self.drain()?;
        let core = self.core();
        self.transport.pull_state(&core)?;
        Ok(core.export_state())
    }

    /// Seed a freshly built engine ([`EngineCore::seed`]) and publish the
    /// seeded state to the peers ([`ShardTransport::publish`]).
    pub fn seed(
        &self,
        carried: Option<EngineState<A::Partial>>,
        backfill: &[(OverlayId, WindowBuffer)],
        materialize: &FastSet<OverlayId>,
    ) -> Result<(), TransportError> {
        let _gate = self.epoch_gate.write();
        self.drain()?;
        let core = self.core();
        core.seed(carried, backfill, materialize);
        self.transport.publish(&core, &self.partition_ref())?;
        self.drain()
    }

    /// Apply one **topology epoch**: move the engine onto a repaired
    /// overlay + extended decisions without restarting workers, re-running
    /// the planner, or rebuilding the core.
    ///
    /// `overlay` is the incrementally repaired overlay (ids append-only:
    /// it must extend the current one — retirements tombstone in place,
    /// they never renumber). `decisions` covers every id (see
    /// [`eagr_flow::topo_plan_delta`]); `backfill` carries window history
    /// for fresh writers; `materialize` is the plan delta's stale-PAO set;
    /// `agg` builds the empty PAOs of fresh slots.
    ///
    /// Protocol: acquire the migration single-flight guard (topology
    /// epochs and live migrations serialize — both rewrite the map), take
    /// the epoch gate exclusively, drain, pull the peers' state into the
    /// core ([`ShardTransport::pull_state`]), then
    ///
    /// 1. take `&mut` to the live core: write-lock the core cell and
    ///    [`Arc::get_mut`] it. Workers and relaxed readers borrow the core
    ///    only for one message or one read, so under the drained fence
    ///    nothing else holds it;
    /// 2. patch it in place ([`EngineCore::extend_topology`]): swap in the
    ///    new overlay `Arc`, flip the push flags whose decision changed,
    ///    and grow windows and counters for the fresh ids only;
    /// 3. extend the node→shard map and the slabs for the fresh ids only:
    ///    each live fresh node is assigned online by its overlay-neighbor
    ///    affinity ([`Partition::assign_online`]) and gets an empty slot in
    ///    that shard's slab ([`ShardedStore::push_slot`]); an id born
    ///    retired gets a tombstone and no slot;
    /// 4. tombstone the slab slots of exactly the ids this epoch retired
    ///    ([`ShardedStore::retire_slot`]) so compaction reclaims them, and
    ///    rebuild the backfilled writers and the `materialize` set
    ///    ([`EngineCore::seed`], ordered over that set only);
    /// 5. publish the new map here and to every peer
    ///    ([`ShardTransport::publish`]: a `ShardMsg::Topo` map swap through
    ///    each worker inbox in-process, a serialized plan plus owned state
    ///    over sockets) and drain, so when this returns every peer routes
    ///    against the new topology.
    ///
    /// The core keeps its allocation across the epoch, and the work is the
    /// fresh and retired ids plus the rebuilt set, not the graph. Over
    /// sockets the coordinator's core is patched the same way; the hosts
    /// still receive the whole plan.
    ///
    /// Compaction piggybacks on the fence exactly like a migration flip
    /// when the orphan count clears the policy trigger.
    ///
    /// # Panics
    /// Panics if `overlay` has fewer ids than the current one or
    /// `decisions` does not cover it. A [`core`](Self::core) borrow held
    /// by another thread delays the install until it drops; the calling
    /// thread must not hold one.
    pub fn apply_topo(
        &self,
        agg: A,
        overlay: Arc<Overlay>,
        decisions: &Decisions,
        backfill: &[(OverlayId, WindowBuffer)],
        materialize: &FastSet<OverlayId>,
    ) -> Result<TopoEpochReport, TransportError> {
        let flight = MigrationFlight::acquire(self);
        let gate = self.epoch_gate.write();
        self.drain()?;
        self.transport.pull_state(&self.core())?;
        let mut part = self.partition_ref().snapshot();
        let new_n = overlay.node_count();
        let mut cell = self.core.write();
        let core = Arc::get_mut(&mut cell)
            .expect("no borrow of the core outlives a drained, fenced engine");
        let old_n = core.overlay().node_count();
        let old = core.extend_topology(Arc::clone(&overlay), decisions, self.window);
        let store = core.store_mut();
        let mut retired_nodes = 0usize;
        for idx in old_n..new_n {
            let id = OverlayId(idx as u32);
            if overlay.is_retired(id) {
                part.assign_online(idx, &[]);
                store.push_tombstone();
                retired_nodes += 1;
                continue;
            }
            // Score the fresh node against the shards of its
            // already-assigned overlay neighbors (LDG-style streaming
            // assignment) instead of re-partitioning globally.
            let affinity: Vec<(u32, f32)> = overlay
                .inputs(id)
                .iter()
                .chain(overlay.outputs(id).iter())
                .filter(|&&(nb, _)| nb.idx() < idx)
                .map(|&(nb, _)| (nb.0, 1.0))
                .collect();
            let shard = part.assign_online(idx, &affinity);
            store.push_slot(shard, agg.empty());
        }
        let mut orphaned = 0u64;
        for idx in 0..old_n {
            let id = OverlayId(idx as u32);
            if overlay.is_retired(id) && !old.is_retired(id) {
                store.retire_slot(idx);
                orphaned += 1;
            }
        }
        retired_nodes += orphaned as usize;
        let rematerialized = core.seed(None, backfill, materialize);
        drop(cell);
        let partition = Arc::new(LivePartition::new(&part));
        *self.partition.write() = Arc::clone(&partition);
        self.transport.publish(&self.core(), &partition)?;
        self.drain()?;
        let slots_reclaimed = self.compact_if_due(&self.core())?;
        drop(gate);
        drop(flight);
        self.topo_epochs.fetch_add(1, Ordering::AcqRel);
        Ok(TopoEpochReport {
            fresh_nodes: new_n - old_n,
            retired_nodes,
            rematerialized,
            orphaned_slots: orphaned,
            slots_reclaimed,
        })
    }

    /// Topology epochs applied so far ([`apply_topo`](Self::apply_topo)).
    pub fn topo_epochs(&self) -> u64 {
        self.topo_epochs.load(Ordering::Acquire)
    }

    /// The two-phase migration body (phase-1 concurrent copy + phase-2
    /// fenced flip) for an explicit move set. Caller holds the
    /// single-flight guard; `moves` lists `(node, destination)` pairs
    /// whose destination differs from the current owner.
    fn execute_migration(
        &self,
        moves: Vec<(OverlayId, ShardId)>,
    ) -> Result<MigrationReport, TransportError> {
        if moves.is_empty() {
            return Ok(MigrationReport::skipped(0.0, 0.0));
        }
        if self.transport.kind() == TransportKind::Process {
            return self.execute_migration_fenced(moves);
        }
        // The caller holds the single-flight guard, so topology epochs
        // cannot replace this map mid-migration.
        let partition = self.partition_ref();
        // Settle in-flight work so the staged copies start from an epoch
        // boundary; concurrent submitters are not blocked.
        self.drain()?;
        let epochs_at_copy = self.epochs();
        // ---- Phase 1: copy + side-log, concurrent with ingestion. ----
        let mut by_owner: Vec<Vec<(OverlayId, ShardId)>> = vec![Vec::new(); self.shard_count()];
        for &(n, dest) in &moves {
            by_owner[partition.shard_of(n.idx()).idx()].push((n, dest));
        }
        let (copy_tx, copy_rx) = bounded::<CopyReply<A>>(self.shard_count());
        let mut involved = Vec::new();
        for (owner, group) in by_owner.into_iter().enumerate() {
            if !group.is_empty() {
                involved.push(owner);
                self.send_counted(
                    owner,
                    ShardMsg::Copy {
                        moves: group,
                        reply: copy_tx.clone(),
                    },
                )?;
            }
        }
        drop(copy_tx);
        // (origin shard, node, destination, staged PAO)
        let mut staged: Vec<(ShardId, OverlayId, ShardId, A::Partial)> =
            Vec::with_capacity(moves.len());
        for _ in 0..involved.len() {
            let (origin, group) = copy_rx.recv().map_err(|_| TransportError::Closed {
                shard: None,
                detail: "shard worker dropped its Copy reply".to_string(),
            })?;
            staged.extend(
                group
                    .into_iter()
                    .map(|(n, dest, pao)| (origin, n, dest, pao)),
            );
        }
        let copy_epochs = self.epochs() - epochs_at_copy;
        // ---- Phase 2: the flip — the only fenced section. ----
        let gate = self.epoch_gate.write();
        self.drain()?;
        let core = self.core();
        let (log_tx, log_rx) = bounded::<SideLogReply>(self.shard_count());
        for &owner in &involved {
            self.send_counted(
                owner,
                ShardMsg::EndCopy {
                    reply: log_tx.clone(),
                },
            )?;
        }
        drop(log_tx);
        let mut log_by_node: std::collections::HashMap<u32, Vec<DeltaOp>> =
            std::collections::HashMap::new();
        let mut overflowed: std::collections::HashSet<u32> = std::collections::HashSet::new();
        for _ in 0..involved.len() {
            let (origin, log, over) = log_rx.recv().map_err(|_| TransportError::Closed {
                shard: None,
                detail: "shard worker dropped its EndCopy reply".to_string(),
            })?;
            if over {
                overflowed.insert(origin.0);
            } else {
                for (n, op) in log {
                    log_by_node.entry(n.0).or_default().push(op);
                }
            }
        }
        self.drain()?;
        let store = core.store();
        let mut deltas_replayed = 0u64;
        let nodes_copied = staged.len();
        for (origin, n, dest, mut pao) in staged {
            if overflowed.contains(&origin.0) {
                // The side-log was dropped: the live slot (fully applied,
                // engine drained under the fence) is the exact value.
                pao = store.with_read(n.idx(), |p| p.clone());
            } else if let Some(ops) = log_by_node.remove(&n.0) {
                deltas_replayed += core.replay_ops(&mut pao, ops);
            }
            store.relocate(n.idx(), dest, pao);
            partition.set(n.idx(), dest);
        }
        partition.publish();
        // Hand window-expiration ownership to the new owners. Expirations
        // can't interleave: they need the shared gate.
        let pairs: Vec<(u32, u32)> = moves.iter().map(|&(n, d)| (n.0, d.0)).collect();
        self.transport.map_update(&core, &partition, &pairs)?;
        self.drain()?;
        let slots_reclaimed = self.compact_if_due(&core)?;
        drop(core);
        drop(gate);
        self.rebalances.fetch_add(1, Ordering::AcqRel);
        self.nodes_migrated
            .fetch_add(nodes_copied as u64, Ordering::AcqRel);
        Ok(MigrationReport {
            nodes_copied,
            deltas_replayed,
            fence_epochs: 1,
            copy_epochs,
            slots_reclaimed,
            cut_before: 0.0,
            cut_after: 0.0,
            committed: true,
        })
    }

    /// The **single-phase fenced** move, the migration protocol of the
    /// socket transport. The concurrent copy + side-log protocol needs
    /// shared-memory side-log handoff, so over sockets the engine instead
    /// takes the exclusive gate, drains, pulls each moving slot's full
    /// state from its owner ([`ShardTransport::fetch_slots`]), installs it
    /// at the destination ([`ShardTransport::install_slots`]), republishes
    /// the routing map everywhere ([`ShardTransport::map_update`] — which
    /// also hands over window-expiration ownership), and releases. Drained
    /// under the fence, the fetched state is exact — no deltas ever need
    /// replaying (`deltas_replayed` is always 0), at the cost of a longer
    /// fence than the two-phase flip.
    fn execute_migration_fenced(
        &self,
        moves: Vec<(OverlayId, ShardId)>,
    ) -> Result<MigrationReport, TransportError> {
        let gate = self.epoch_gate.write();
        self.drain()?;
        let core = self.core();
        let partition = self.partition_ref();
        let mut by_owner: Vec<Vec<(OverlayId, ShardId)>> = vec![Vec::new(); self.shard_count()];
        for &(n, dest) in &moves {
            by_owner[partition.shard_of(n.idx()).idx()].push((n, dest));
        }
        let mut by_dest: Vec<Vec<SlotState<A>>> = vec![Vec::new(); self.shard_count()];
        for (owner, group) in by_owner.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let slots: Vec<u32> = group.iter().map(|&(n, _)| n.0).collect();
            let fetched = self.transport.fetch_slots(&core, owner, &slots)?;
            for (slot, pao, win) in fetched {
                let dest = group
                    .iter()
                    .find(|&&(n, _)| n.0 == slot)
                    .map(|&(_, d)| d)
                    .expect("fetched slot is one we asked for");
                by_dest[dest.idx()].push((slot, pao, win));
            }
        }
        let nodes_copied = by_dest.iter().map(Vec::len).sum::<usize>();
        for (dest, slots) in by_dest.into_iter().enumerate() {
            if !slots.is_empty() {
                self.transport.install_slots(&core, dest, slots)?;
            }
        }
        // Publish the new map locally (coordinator routing) and remotely
        // (host routing + expiration-writer recompute) only after every
        // destination holds the state.
        let pairs: Vec<(u32, u32)> = moves.iter().map(|&(n, d)| (n.0, d.0)).collect();
        for &(n, dest) in &moves {
            partition.set(n.idx(), dest);
        }
        partition.publish();
        self.transport.map_update(&core, &partition, &pairs)?;
        self.drain()?;
        let slots_reclaimed = self.compact_if_due(&core)?;
        drop(core);
        drop(gate);
        self.rebalances.fetch_add(1, Ordering::AcqRel);
        self.nodes_migrated
            .fetch_add(nodes_copied as u64, Ordering::AcqRel);
        Ok(MigrationReport {
            nodes_copied,
            deltas_replayed: 0,
            fence_epochs: 1,
            copy_epochs: 0,
            slots_reclaimed,
            cut_before: 0.0,
            cut_after: 0.0,
            committed: true,
        })
    }

    /// Committed rebalances so far.
    pub fn rebalances(&self) -> u64 {
        self.rebalances.load(Ordering::Acquire)
    }

    /// Total nodes live-migrated across all committed rebalances.
    pub fn nodes_migrated(&self) -> u64 {
        self.nodes_migrated.load(Ordering::Acquire)
    }

    /// Rebalance calls (manual or every-N-epochs auto-trigger) that found
    /// another migration already in flight and coalesced into it instead
    /// of running — the re-entry discipline that keeps fences from
    /// stacking.
    pub fn coalesced_rebalances(&self) -> u64 {
        self.coalesced.load(Ordering::Acquire)
    }

    /// Whether a migration (phase 1 or 2) is currently in flight.
    pub fn migration_in_flight(&self) -> bool {
        self.migrating.load(Ordering::Acquire)
    }

    /// PAO slots orphaned by migrations since the last compaction
    /// ([`ShardedStore::orphaned_slots`]): each migrated node leaves its
    /// old slab slot in place (tear-free handoff for concurrent relaxed
    /// readers) until a compaction pass — automatic once
    /// [`RebalancePolicy::compact_after_orphans`] accumulate, or manual
    /// via [`compact`](Self::compact) — reclaims them.
    pub fn orphaned_pao_slots(&self) -> u64 {
        self.transport.orphaned_slots(&self.core()).unwrap_or(0)
    }

    /// Orphaned PAO slots reclaimed by compaction across the engine's
    /// lifetime (auto-compactions piggybacked on migration fences plus
    /// manual [`compact`](Self::compact) calls).
    pub fn slots_reclaimed(&self) -> u64 {
        self.slots_reclaimed.load(Ordering::Acquire)
    }

    /// Compact the PAO slabs now: take the epoch gate exclusively, drain,
    /// repack every slab in place ([`ShardedStore::compact`]) and release.
    /// Returns the orphaned slots reclaimed;
    /// [`orphaned_pao_slots`](Self::orphaned_pao_slots) is 0 afterwards.
    /// Concurrent relaxed readers are safe throughout: they revalidate
    /// slot locations under the slab locks.
    pub fn compact(&self) -> Result<u64, TransportError> {
        let _gate = self.epoch_gate.write();
        self.drain()?;
        let r = self.transport.compact(&self.core())?;
        self.slots_reclaimed.fetch_add(r, Ordering::AcqRel);
        Ok(r)
    }

    /// The compaction piggybacked on a fence (migration flip or topology
    /// epoch): compact `core`'s slabs when the orphan count clears
    /// [`RebalancePolicy::compact_after_orphans`]. Caller holds the
    /// exclusive gate over a drained engine; returns slots reclaimed.
    fn compact_if_due(&self, core: &ShardedCore<A>) -> Result<u64, TransportError> {
        let trigger = self.policy.compact_after_orphans;
        if trigger == 0 || self.transport.orphaned_slots(core)? < trigger {
            return Ok(0);
        }
        let r = self.transport.compact(core)?;
        self.slots_reclaimed.fetch_add(r, Ordering::AcqRel);
        Ok(r)
    }

    /// The rebalance policy the engine runs under.
    pub fn rebalance_policy(&self) -> RebalancePolicy {
        self.policy
    }

    /// Epoch barrier: block until every routed batch and all transitively
    /// generated cross-shard deltas have been applied. A dead shard peer
    /// (worker thread or host process) surfaces as
    /// [`TransportError::Closed`] instead of an infinite spin — the
    /// barrier polls [`ShardTransport::healthy`] while it waits.
    pub fn drain(&self) -> Result<(), TransportError> {
        while self.pending.load(Ordering::Acquire) != 0 {
            self.transport.healthy()?;
            std::thread::yield_now();
        }
        Ok(())
    }

    /// Number of [`ingest`](Self::ingest) calls so far.
    pub fn epochs(&self) -> u64 {
        self.epochs.load(Ordering::Relaxed)
    }

    /// Total delta ops shipped across shard boundaries so far.
    pub fn cross_shard_deltas(&self) -> u64 {
        self.cross_out
            .iter()
            .map(|c| c.load(Ordering::Acquire))
            .sum()
    }

    /// Total delta ops applied to shard slabs so far.
    pub fn local_applies(&self) -> u64 {
        self.local.iter().map(|c| c.load(Ordering::Acquire)).sum()
    }

    /// Per-shard work counters: slab applies, deltas shipped to peers, and
    /// reads served, plus the node count each shard owns. Meaningful after
    /// a [`drain`](Self::drain); between epochs the numbers are in flight.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        let sizes = self.partition_ref().shard_sizes();
        (0..self.shard_count())
            .map(|s| ShardStats {
                shard: ShardId(s as u32),
                nodes: sizes[s],
                local_applies: self.local[s].load(Ordering::Acquire),
                cross_deltas_out: self.cross_out[s].load(Ordering::Acquire),
                reads_served: self.reads[s].load(Ordering::Acquire),
            })
            .collect()
    }

    /// Drain (best effort — a dead peer can't be drained), stop every
    /// shard peer, and wait for it to exit.
    pub fn shutdown(self) {
        let _ = self.drain();
        self.transport.shutdown();
    }
}

/// RAII single-flight migration guard: [`begin`](Self::begin) wins the
/// CAS on [`ShardedEngine::migrating`] or records a coalesced call;
/// dropping the guard releases the flag (unwind-safe, so a panicking
/// migration doesn't wedge every later rebalance into coalescing).
struct MigrationFlight<'a, A: Aggregate> {
    eng: &'a ShardedEngine<A>,
}

impl<'a, A: Aggregate> MigrationFlight<'a, A> {
    fn begin(eng: &'a ShardedEngine<A>) -> Option<Self> {
        if eng
            .migrating
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            Some(Self { eng })
        } else {
            eng.coalesced.fetch_add(1, Ordering::AcqRel);
            None
        }
    }

    /// Win the flag unconditionally, spinning until any in-flight
    /// migration finishes — the topology-epoch entry point, which must
    /// serialize with migrations rather than coalesce into them. Safe to
    /// spin here: the engine's gate is not held, so an in-flight
    /// migration's fenced phase can complete.
    fn acquire(eng: &'a ShardedEngine<A>) -> Self {
        while eng
            .migrating
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            std::thread::yield_now();
        }
        Self { eng }
    }

    fn execute(&self, moves: Vec<(OverlayId, ShardId)>) -> Result<MigrationReport, TransportError> {
        self.eng.execute_migration(moves)
    }
}

impl<A: Aggregate> Drop for MigrationFlight<'_, A> {
    fn drop(&mut self) {
        self.eng.migrating.store(false, Ordering::Release);
    }
}

impl<A: Aggregate> Drop for ShardedEngine<A> {
    /// In-process workers hold each other's senders, so dropping the
    /// engine's own channel ends alone would never disconnect the inboxes
    /// (and host processes would linger); send explicit stops (without
    /// joining) so every peer exits. Idempotent after
    /// [`shutdown`](Self::shutdown) — transports ignore stops to peers
    /// that are already gone.
    fn drop(&mut self) {
        self.transport.stop();
    }
}

/// Per-shard worker state.
struct ShardWorker<A: Aggregate> {
    /// The engine's core cell, borrowed per message — never held between
    /// messages, so a drained engine can patch the core in place.
    core: CoreCell<A>,
    partition: Arc<LivePartition>,
    shard: ShardId,
    /// Writer nodes this shard owns (window expiration targets), replaced
    /// wholesale by every [`ShardMsg::Topo`] (topology epochs and map
    /// updates).
    writers: Vec<OverlayId>,
    rx: Receiver<ShardMsg<A>>,
    txs: Vec<Sender<ShardMsg<A>>>,
    pending: Arc<AtomicU64>,
    cross_out: Arc<Vec<AtomicU64>>,
    local: Arc<Vec<AtomicU64>>,
    reads: Arc<Vec<AtomicU64>>,
    /// Active migration side-log (between [`ShardMsg::Copy`] and
    /// [`ShardMsg::EndCopy`]); `None` outside a phase-1 copy.
    side: Option<SideLog>,
    /// [`RebalancePolicy::side_log_bound`], captured at construction.
    side_log_bound: usize,
}

impl<A: Aggregate> ShardWorker<A> {
    fn run(mut self) {
        let shards = self.partition.shards;
        // Per-destination-shard outboxes, reused across messages.
        let mut outbox: Vec<Vec<(OverlayId, DeltaOp)>> = vec![Vec::new(); shards];
        let mut stack: Vec<(OverlayId, DeltaOp)> = Vec::with_capacity(32);
        // Window-shift output, reused across writes.
        let mut ops: Vec<DeltaOp> = Vec::with_capacity(4);
        let mut stopping = false;
        while !stopping {
            let Ok(msg) = self.rx.recv() else { break };
            // `owed` counts pending-counted messages applied but whose
            // decrement is deferred until their cross-shard deltas are
            // shipped — so `pending` can never hit zero while deltas sit
            // in an outbox.
            let mut owed = 0u64;
            stopping = self.handle(msg, &mut owed, &mut stack, &mut outbox, &mut ops);
            // Ship every outbox batch without ever blocking on a full
            // peer inbox: two workers blocked sending to each other's
            // full queues would deadlock, so on backpressure this worker
            // services its *own* inbox instead and retries.
            loop {
                let mut shipped_all = true;
                for (dest, buf) in outbox.iter_mut().enumerate() {
                    if buf.is_empty() {
                        continue;
                    }
                    let batch = std::mem::take(buf);
                    let n = batch.len() as u64;
                    // Count the message before it becomes visible to the
                    // receiver (its decrement must never race ahead).
                    self.pending.fetch_add(1, Ordering::AcqRel);
                    match self.txs[dest].try_send(ShardMsg::Deltas(batch)) {
                        Ok(()) => {
                            self.cross_out[self.shard.idx()].fetch_add(n, Ordering::AcqRel);
                        }
                        Err(e) if e.is_full() => {
                            self.pending.fetch_sub(1, Ordering::AcqRel);
                            let ShardMsg::Deltas(batch) = e.into_inner() else {
                                // lint: allow(panic-free, into_inner returns the message this very arm failed to send, which is the Deltas constructed four lines up)
                                unreachable!("only deltas are flushed")
                            };
                            *buf = batch;
                            shipped_all = false;
                        }
                        Err(_) => {
                            // Receiver gone: the engine is shutting down
                            // and the delta can no longer be delivered.
                            self.pending.fetch_sub(1, Ordering::AcqRel);
                        }
                    }
                }
                if shipped_all {
                    break;
                }
                match self.rx.try_recv() {
                    Ok(m) => {
                        if self.handle(m, &mut owed, &mut stack, &mut outbox, &mut ops) {
                            stopping = true;
                        }
                    }
                    Err(_) => std::thread::yield_now(),
                }
            }
            if owed > 0 {
                self.pending.fetch_sub(owed, Ordering::AcqRel);
            }
        }
    }

    /// Apply one inbox message; returns `true` for [`ShardMsg::Stop`].
    fn handle(
        &mut self,
        msg: ShardMsg<A>,
        owed: &mut u64,
        stack: &mut Vec<(OverlayId, DeltaOp)>,
        outbox: &mut [Vec<(OverlayId, DeltaOp)>],
        ops: &mut Vec<DeltaOp>,
    ) -> bool {
        match msg {
            ShardMsg::Writes(group) => {
                *owed += 1;
                let cell = Arc::clone(&self.core);
                let core = cell.read();
                let mut slab = core.store().lock_shard(self.shard);
                for (wid, value, ts) in group {
                    ops.clear();
                    core.window_ops(wid, value, ts, ops);
                    for &op in ops.iter() {
                        stack.push((wid, op));
                        self.cascade(&core, &mut slab, stack, outbox);
                    }
                }
                false
            }
            ShardMsg::Deltas(group) => {
                *owed += 1;
                let cell = Arc::clone(&self.core);
                let core = cell.read();
                let mut slab = core.store().lock_shard(self.shard);
                for (n, op) in group {
                    stack.push((n, op));
                    self.cascade(&core, &mut slab, stack, outbox);
                }
                false
            }
            ShardMsg::Reads { targets, reply } => {
                *owed += 1;
                // One slab read lock per request batch: local PAOs (push
                // finalizes, the local part of pull trees) resolve with
                // plain indexed access; cross-shard pull inputs fall
                // through to the foreign slabs' read locks. This worker is
                // the only writer of its slab, so snapshotting it cannot
                // self-deadlock, and foreign access takes exactly one lock
                // at a time, so no lock cycle can form.
                let core = self.core.read();
                let snap = core.store().snapshot_shard(self.shard);
                self.reads[self.shard.idx()].fetch_add(targets.len() as u64, Ordering::AcqRel);
                match reply {
                    Some(tx) => {
                        let answers: ReadReplies<A> = targets
                            .into_iter()
                            .map(|(slot, v)| (slot, core.read_via(v, &snap)))
                            .collect();
                        // A dropped receiver means the requesting thread
                        // gave up (engine shutdown) — nothing to deliver.
                        // lint: allow(channel-discipline, rendezvous reply to a blocked engine caller outside the shard mesh — the engine never holds an inbox while waiting, so no cycle)
                        let _ = tx.send(answers);
                    }
                    None => {
                        // Fire-and-forget reads from a mixed ingest batch.
                        for (_, v) in targets {
                            std::hint::black_box(core.read_via(v, &snap));
                        }
                    }
                }
                false
            }
            ShardMsg::Expire(ts) => {
                *owed += 1;
                let cell = Arc::clone(&self.core);
                let core = cell.read();
                let mut slab = core.store().lock_shard(self.shard);
                let writers = std::mem::take(&mut self.writers);
                for &wid in &writers {
                    ops.clear();
                    core.expire_ops(wid, ts, ops);
                    for &op in ops.iter() {
                        stack.push((wid, op));
                        self.cascade(&core, &mut slab, stack, outbox);
                    }
                }
                self.writers = writers;
                false
            }
            ShardMsg::Copy { moves, reply } => {
                *owed += 1;
                // Phase-1 copy: clone the departing PAOs under one read
                // snapshot of this worker's own slab (this worker is its
                // only writer, so the snapshot is exact), then activate
                // the side-log — all inside this one handler, so every op
                // at a departing node lands in exactly one of copy or log.
                let mut paos = Vec::with_capacity(moves.len());
                {
                    let core = self.core.read();
                    let snap = core.store().snapshot_shard(self.shard);
                    for &(n, dest) in &moves {
                        paos.push((n, dest, snap.with_pao(n.idx(), |p| p.clone())));
                    }
                }
                self.side = Some(SideLog {
                    nodes: moves.iter().map(|&(n, _)| n.0).collect(),
                    log: Vec::new(),
                    bound: self.side_log_bound,
                    overflowed: false,
                });
                // The rebalancer's reply channel holds one slot per shard,
                // so this send can't block; a dropped receiver means the
                // migration was abandoned.
                // lint: allow(channel-discipline, reply channel is sized one-slot-per-shard so the send never blocks)
                let _ = reply.send((self.shard, paos));
                false
            }
            ShardMsg::EndCopy { reply } => {
                *owed += 1;
                let (log, overflowed) = self
                    .side
                    .take()
                    .map_or((Vec::new(), false), |side| (side.log, side.overflowed));
                // lint: allow(channel-discipline, reply channel is sized one-slot-per-shard so the send never blocks)
                let _ = reply.send((self.shard, log, overflowed));
                false
            }
            ShardMsg::Topo(up) => {
                *owed += 1;
                // Swap onto the new map. Any active side-log is void: a
                // topology epoch serializes with migrations via the
                // single-flight guard, so none can be mid-copy here.
                self.partition = Arc::clone(&up.partition);
                self.writers = up.writers_by_shard[self.shard.idx()].clone();
                self.side = None;
                false
            }
            ShardMsg::Stop => true,
        }
    }

    /// Apply every stacked op owned by this shard, following push edges:
    /// same-shard consumers are applied in the same slab pass, cross-shard
    /// consumers accumulate in the outboxes. During a phase-1 copy, ops
    /// applied to departing nodes are additionally buffered in the
    /// side-log (bounded) so the flip can replay them into the staged
    /// copies.
    fn cascade(
        &mut self,
        core: &ShardedCore<A>,
        slab: &mut crate::store::ShardGuard<'_, A::Partial>,
        stack: &mut Vec<(OverlayId, DeltaOp)>,
        outbox: &mut [Vec<(OverlayId, DeltaOp)>],
    ) {
        let agg = core.aggregate();
        let overlay = core.overlay();
        while let Some((n, op)) = stack.pop() {
            op.apply(agg, slab.get_mut(n.idx()));
            core.record_push(n);
            self.local[self.shard.idx()].fetch_add(1, Ordering::Relaxed);
            if let Some(side) = self.side.as_mut() {
                if !side.overflowed && side.nodes.contains(&n.0) {
                    if side.log.len() < side.bound {
                        side.log.push((n, op));
                    } else {
                        // Bound hit: stop buffering — the flip falls back
                        // to re-copying this shard's departing PAOs under
                        // the fence.
                        side.overflowed = true;
                        side.log = Vec::new();
                    }
                }
            }
            for &(t, sign) in overlay.outputs(n) {
                if core.is_push(t) {
                    let routed = op.signed(sign);
                    let dest = self.partition.shard_of(t.idx());
                    if dest == self.shard {
                        stack.push((t, routed));
                    } else {
                        outbox[dest.idx()].push((t, routed));
                    }
                }
            }
        }
    }
}

/// Window-expiration ownership under `map`, indexed by shard: each worker
/// expires the windows of exactly the writers it owns, so window mutation
/// follows the same single-writer discipline as PAO mutation.
fn writers_by_shard(overlay: &Overlay, map: &LivePartition) -> Vec<Vec<OverlayId>> {
    let mut out: Vec<Vec<OverlayId>> = vec![Vec::new(); map.shards()];
    for (wid, _) in overlay.writers() {
        out[map.shard_of(wid.idx()).idx()].push(wid);
    }
    out
}

/// The in-process [`ShardTransport`]: one owning worker thread per shard,
/// crossbeam bounded channels in between. The workers share the
/// coordinator's core, so the state plane works on that core directly;
/// only handing workers a new map travels through their inboxes.
struct InProcessTransport<A: Aggregate> {
    txs: Vec<Sender<ShardMsg<A>>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// The engine's epoch counter, for the `Topo` swaps `publish` sends.
    pending: Arc<AtomicU64>,
}

impl<A: Aggregate> InProcessTransport<A> {
    /// Spawn one [`ShardWorker`] per shard over a fresh channel mesh.
    /// Workers hold each other's senders (cross-shard delta forwarding),
    /// so they never disconnect by dropping alone — `stop` sends explicit
    /// [`ShardMsg::Stop`]s.
    #[allow(clippy::too_many_arguments)]
    fn launch(
        core: CoreCell<A>,
        partition: Arc<LivePartition>,
        pending: Arc<AtomicU64>,
        cross_out: Arc<Vec<AtomicU64>>,
        local: Arc<Vec<AtomicU64>>,
        reads: Arc<Vec<AtomicU64>>,
        channel_capacity: usize,
        side_log_bound: usize,
    ) -> Self {
        let mut writers_by_shard = writers_by_shard(core.read().overlay(), &partition);
        let shards = writers_by_shard.len();
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..shards)
            .map(|_| bounded::<ShardMsg<A>>(channel_capacity))
            .unzip();
        let mut handles = Vec::with_capacity(shards);
        for (shard, rx) in rxs.into_iter().enumerate() {
            let worker = ShardWorker {
                core: Arc::clone(&core),
                partition: Arc::clone(&partition),
                shard: ShardId(shard as u32),
                writers: std::mem::take(&mut writers_by_shard[shard]),
                rx,
                txs: txs.clone(),
                pending: Arc::clone(&pending),
                cross_out: Arc::clone(&cross_out),
                local: Arc::clone(&local),
                reads: Arc::clone(&reads),
                side: None,
                side_log_bound,
            };
            handles.push(
                std::thread::Builder::new()
                    .name(format!("eagr-shard-{shard}"))
                    .spawn(move || worker.run())
                    .expect("spawn shard worker thread"),
            );
        }
        Self {
            txs,
            handles: Mutex::named(handles, "inproc_handles"),
            pending,
        }
    }
}

impl<A: Aggregate> ShardTransport<A> for InProcessTransport<A> {
    fn kind(&self) -> TransportKind {
        TransportKind::InProcess
    }

    fn shards(&self) -> usize {
        self.txs.len()
    }

    fn send(&self, shard: usize, msg: ShardMsg<A>) -> Result<(), TransportError> {
        self.txs[shard]
            .send(msg)
            .map_err(|_| TransportError::Closed {
                shard: Some(shard),
                detail: "shard worker exited".to_string(),
            })
    }

    fn healthy(&self) -> Result<(), TransportError> {
        // Workers only exit on Stop; a full inbox is backpressure, not
        // death. Nothing to probe.
        Ok(())
    }

    fn stop(&self) {
        for tx in &self.txs {
            let _ = tx.send(ShardMsg::Stop);
        }
    }

    fn shutdown(&self) {
        self.stop();
        for h in self.handles.lock().drain(..) {
            let _ = h.join();
        }
    }

    fn read_here(
        &self,
        core: &ShardedCore<A>,
        _map: &LivePartition,
        nodes: &[NodeId],
    ) -> Result<Vec<Option<A::Output>>, TransportError> {
        Ok(nodes.iter().map(|&v| core.read(v)).collect())
    }

    fn peer_serves_read(&self, _core: &ShardedCore<A>, _rid: OverlayId) -> bool {
        true
    }

    fn pull_state(&self, _core: &ShardedCore<A>) -> Result<(), TransportError> {
        Ok(())
    }

    fn publish(
        &self,
        core: &Arc<ShardedCore<A>>,
        map: &Arc<LivePartition>,
    ) -> Result<(), TransportError> {
        // Swap the worker-held map through the inboxes (workers borrow the
        // core per message, so it needs no handoff). Callers hold the
        // exclusive gate over a drained engine (ingest needs the shared
        // gate, epoch reads the exclusive one, migrations the flight
        // guard), so the swap is the only message each worker sees.
        let swap = Arc::new(TopoSwap {
            partition: Arc::clone(map),
            writers_by_shard: writers_by_shard(core.overlay(), map),
        });
        for shard in 0..self.txs.len() {
            self.pending.fetch_add(1, Ordering::AcqRel);
            if let Err(e) = self.send(shard, ShardMsg::Topo(Arc::clone(&swap))) {
                self.pending.fetch_sub(1, Ordering::AcqRel);
                return Err(e);
            }
        }
        Ok(())
    }

    fn fetch_slots(
        &self,
        core: &ShardedCore<A>,
        _shard: usize,
        slots: &[u32],
    ) -> Result<Vec<SlotState<A>>, TransportError> {
        Ok(slots
            .iter()
            .map(|&s| {
                let pao = core.store().with_read(s as usize, |p| p.clone());
                (s, pao, core.export_window(OverlayId(s)))
            })
            .collect())
    }

    fn install_slots(
        &self,
        core: &ShardedCore<A>,
        shard: usize,
        slots: Vec<SlotState<A>>,
    ) -> Result<(), TransportError> {
        // Windows live in the shared core and never moved; only the slab
        // slot changes owner.
        for (slot, pao, _) in slots {
            core.store()
                .relocate(slot as usize, ShardId(shard as u32), pao);
        }
        Ok(())
    }

    fn map_update(
        &self,
        core: &Arc<ShardedCore<A>>,
        map: &Arc<LivePartition>,
        _pairs: &[(u32, u32)],
    ) -> Result<(), TransportError> {
        // Workers already route by the shared map; re-deriving the
        // expiration writer sets is what a same-core publish does.
        self.publish(core, map)
    }

    fn observed_counts(
        &self,
        core: &ShardedCore<A>,
    ) -> Result<(Vec<u64>, Vec<u64>), TransportError> {
        Ok((core.observed_push_counts(), core.observed_pull_counts()))
    }

    fn decay_observed(&self, core: &ShardedCore<A>, factor: f64) -> Result<(), TransportError> {
        core.decay_observed(factor);
        Ok(())
    }

    fn compact(&self, core: &ShardedCore<A>) -> Result<u64, TransportError> {
        Ok(core.store().compact())
    }

    fn orphaned_slots(&self, core: &ShardedCore<A>) -> Result<u64, TransportError> {
        Ok(core.store().orphaned_slots())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eagr_agg::Sum;
    use eagr_graph::{paper_example_graph, BipartiteGraph, Neighborhood};
    use eagr_util::SplitMix64;

    fn paper_parts() -> (Arc<Overlay>, Decisions) {
        let ag = BipartiteGraph::build(&paper_example_graph(), &Neighborhood::In, |_| true);
        let ov = Arc::new(Overlay::direct_from_bipartite(&ag));
        let d = Decisions::all_push(&ov);
        (ov, d)
    }

    fn sharded(shards: usize) -> ShardedEngine<Sum> {
        let (ov, d) = paper_parts();
        ShardedEngine::new(
            Sum,
            ov,
            &d,
            WindowSpec::Tuple(1),
            &ShardedConfig::builder()
                .shards(shards)
                .strategy(PartitionStrategy::Hash)
                .channel_capacity(64)
                .build(),
        )
    }

    #[test]
    fn paper_example_matches_reference_after_drain() {
        let eng = sharded(4);
        let streams: [(u32, &[i64]); 7] = [
            (0, &[1, 4]),
            (1, &[3, 7]),
            (2, &[6, 9]),
            (3, &[8, 4, 3]),
            (4, &[5, 9, 1]),
            (5, &[3, 6, 6]),
            (6, &[5]),
        ];
        let mut events = Vec::new();
        for (node, vals) in streams {
            for &v in vals {
                events.push(Event::Write {
                    node: NodeId(node),
                    value: v,
                });
            }
        }
        eng.ingest_epoch(&EventBatch::new(0, events)).unwrap();
        let want = [19, 10, 30, 30, 23, 30, 30];
        for (v, &w) in want.iter().enumerate() {
            assert_eq!(eng.read(NodeId(v as u32)), Some(w), "reader {v}");
        }
        assert_eq!(eng.epochs(), 1);
        eng.shutdown();
    }

    #[test]
    fn random_batches_converge_to_sequential_replay() {
        let eng = sharded(3);
        let (ov, d) = paper_parts();
        let reference = EngineCore::new(Sum, ov, &d, WindowSpec::Tuple(1));
        let mut rng = SplitMix64::new(99);
        let mut ts = 0u64;
        for _ in 0..20 {
            let events: Vec<Event> = (0..50)
                .map(|_| Event::Write {
                    node: NodeId(rng.index(7) as u32),
                    value: rng.range(0, 50) as i64,
                })
                .collect();
            for (i, e) in events.iter().enumerate() {
                if let Event::Write { node, value } = *e {
                    reference.write(node, value, ts + i as u64);
                }
            }
            eng.ingest(&EventBatch::new(ts, events)).unwrap();
            ts += 50;
        }
        eng.drain().unwrap();
        for v in 0..7u32 {
            assert_eq!(eng.read(NodeId(v)), reference.read(NodeId(v)), "reader {v}");
        }
        eng.shutdown();
    }

    #[test]
    fn cross_shard_deltas_are_counted() {
        // 4 shards over 13 overlay nodes: some writer→reader push edge must
        // cross a shard boundary.
        let eng = sharded(4);
        let events: Vec<Event> = (0..7u32)
            .map(|n| Event::Write {
                node: NodeId(n),
                value: 1,
            })
            .collect();
        eng.ingest_epoch(&EventBatch::new(0, events)).unwrap();
        assert!(eng.cross_shard_deltas() > 0, "expected cross-shard traffic");
        eng.shutdown();
    }

    #[test]
    fn single_shard_degenerates_to_local_execution() {
        let eng = sharded(1);
        eng.submit_write(NodeId(2), 6, 0).unwrap();
        eng.submit_write(NodeId(2), 9, 1).unwrap();
        eng.drain().unwrap();
        assert_eq!(eng.read(NodeId(0)), Some(9));
        assert_eq!(eng.cross_shard_deltas(), 0);
        eng.shutdown();
    }

    #[test]
    fn drop_without_shutdown_stops_workers() {
        let eng = sharded(2);
        eng.submit_write(NodeId(2), 6, 0).unwrap();
        eng.drain().unwrap();
        drop(eng); // must not hang or leak a deadlocked worker
    }

    #[test]
    fn edge_cut_strategy_builds_and_matches_reference() {
        let (ov, d) = paper_parts();
        let eng = ShardedEngine::new(
            Sum,
            Arc::clone(&ov),
            &d,
            WindowSpec::Tuple(1),
            &ShardedConfig::builder()
                .shards(3)
                .strategy(PartitionStrategy::EdgeCut)
                .channel_capacity(64)
                .build(),
        );
        assert_eq!(eng.partition().strategy, PartitionStrategy::EdgeCut);
        assert_eq!(eng.partition().len(), ov.node_count());
        let reference = EngineCore::new(Sum, ov, &d, WindowSpec::Tuple(1));
        for (ts, (node, value)) in [(2u32, 6i64), (3, 8), (4, 5), (2, 9), (5, 3)]
            .into_iter()
            .enumerate()
        {
            reference.write(NodeId(node), value, ts as u64);
            eng.submit_write(NodeId(node), value, ts as u64).unwrap();
        }
        eng.drain().unwrap();
        for v in 0..7u32 {
            assert_eq!(eng.read(NodeId(v)), reference.read(NodeId(v)), "reader {v}");
        }
        eng.shutdown();
    }

    #[test]
    fn advance_time_expires_through_shard_inboxes() {
        let (ov, d) = paper_parts();
        let eng = ShardedEngine::new(
            Sum,
            Arc::clone(&ov),
            &d,
            WindowSpec::Time(10),
            &ShardedConfig::builder()
                .shards(4)
                .strategy(PartitionStrategy::Hash)
                .channel_capacity(64)
                .build(),
        );
        let reference = EngineCore::new(Sum, ov, &d, WindowSpec::Time(10));
        for (node, value, ts) in [(2u32, 5i64, 0u64), (3, 7, 5)] {
            eng.submit_write(NodeId(node), value, ts).unwrap();
            reference.write(NodeId(node), value, ts);
        }
        eng.drain().unwrap();
        assert_eq!(eng.read(NodeId(0)), Some(12));
        // t = 11: the t=0 write expires everywhere, including across shards.
        let applied = eng.advance_time_epoch(11).unwrap();
        reference.advance_time(11);
        assert!(applied > 0, "expiration must apply PAO updates");
        for v in 0..7u32 {
            assert_eq!(eng.read(NodeId(v)), reference.read(NodeId(v)), "reader {v}");
        }
        // Advancing past everything empties the windows identically.
        eng.advance_time_epoch(1000).unwrap();
        reference.advance_time(1000);
        assert_eq!(eng.read(NodeId(0)), Some(0));
        assert_eq!(eng.read(NodeId(0)), reference.read(NodeId(0)));
        eng.shutdown();
    }

    #[test]
    fn shard_stats_account_all_work() {
        let eng = sharded(4);
        let events: Vec<Event> = (0..7u32)
            .map(|n| Event::Write {
                node: NodeId(n),
                value: 1,
            })
            .collect();
        eng.ingest_epoch(&EventBatch::new(0, events)).unwrap();
        let stats = eng.shard_stats();
        assert_eq!(stats.len(), 4);
        let nodes: usize = stats.iter().map(|s| s.nodes).sum();
        assert_eq!(nodes, eng.partition().len());
        let local: u64 = stats.iter().map(|s| s.local_applies).sum();
        let cross: u64 = stats.iter().map(|s| s.cross_deltas_out).sum();
        assert_eq!(local, eng.local_applies());
        assert_eq!(cross, eng.cross_shard_deltas());
        // Every op lands in some slab; cross-shard ops are a subset.
        assert!(local >= cross);
        assert!(local > 0);
        eng.shutdown();
    }

    #[test]
    fn read_batch_matches_point_reads_after_drain() {
        let eng = sharded(4);
        let events: Vec<Event> = (0..7u32)
            .map(|n| Event::Write {
                node: NodeId(n),
                value: 2 * n as i64 + 1,
            })
            .collect();
        eng.ingest_epoch(&EventBatch::new(0, events)).unwrap();
        let nodes: Vec<NodeId> = (0..7u32).map(NodeId).collect();
        let batch = eng.read_batch(&nodes).unwrap();
        assert_eq!(batch.len(), 7);
        for (i, &v) in nodes.iter().enumerate() {
            assert_eq!(batch[i], eng.read(v), "node {v:?}");
            assert_eq!(eng.read_service(v).unwrap(), eng.read(v), "node {v:?}");
        }
        // Every answered request was served by a shard worker.
        assert!(eng.reads_served() > 0);
        let per_shard: u64 = eng.shard_stats().iter().map(|s| s.reads_served).sum();
        assert_eq!(per_shard, eng.reads_served());
        eng.shutdown();
    }

    #[test]
    fn read_batch_drains_pending_epochs_first() {
        let eng = sharded(3);
        let events: Vec<Event> = (0..7u32)
            .map(|n| Event::Write {
                node: NodeId(n),
                value: 10,
            })
            .collect();
        // No explicit drain: read_batch must settle the epoch itself.
        eng.ingest(&EventBatch::new(0, events)).unwrap();
        let answers = eng.read_batch(&[NodeId(0)]).unwrap();
        assert_eq!(answers, vec![Some(40)]); // a sums {c, d, e, f}, 10 each
        eng.shutdown();
    }

    #[test]
    fn read_batch_reports_none_for_nodes_without_reader() {
        let eng = sharded(2);
        let answers = eng.read_batch(&[NodeId(1000), NodeId(0)]).unwrap();
        assert_eq!(answers[0], None);
        assert_eq!(answers[1], Some(0));
        eng.shutdown();
    }

    #[test]
    fn mixed_ingest_routes_reads_to_shard_workers() {
        let eng = sharded(4);
        let mut events = Vec::new();
        for n in 0..7u32 {
            events.push(Event::Write {
                node: NodeId(n),
                value: 1,
            });
            events.push(Event::Read { node: NodeId(n) });
        }
        let (w, r) = eng.ingest_epoch(&EventBatch::new(0, events)).unwrap();
        assert_eq!((w, r), (7, 7));
        // Every read event was evaluated by its owning worker, not the
        // caller thread.
        assert_eq!(eng.reads_served(), 7);
        eng.shutdown();
    }

    #[test]
    fn rebalance_preserves_answers_and_migrates_state() {
        // Hash-partition the paper overlay (structure-blind, so observed
        // traffic leaves plenty of cut to recover), ingest a stream, then
        // force a rebalance and require identical answers afterwards —
        // including through new writes applied by the *new* owners.
        let (ov, d) = paper_parts();
        let eng = ShardedEngine::new(
            Sum,
            Arc::clone(&ov),
            &d,
            WindowSpec::Tuple(1),
            &ShardedConfig::builder()
                .shards(4)
                .strategy(PartitionStrategy::Hash)
                .channel_capacity(64)
                .rebalance(RebalancePolicy {
                    min_cut_gain: 0.0,
                    max_move_fraction: 1.0,
                    ..RebalancePolicy::default()
                })
                .build(),
        );
        let reference = EngineCore::new(Sum, Arc::clone(&ov), &d, WindowSpec::Tuple(1));
        let mut rng = SplitMix64::new(7);
        let mut events = Vec::new();
        for _ in 0..200 {
            events.push(Event::Write {
                node: NodeId(rng.index(7) as u32),
                value: rng.range(0, 40) as i64,
            });
        }
        for (ts, e) in events.iter().enumerate() {
            if let Event::Write { node, value } = *e {
                reference.write(node, value, ts as u64);
            }
        }
        eng.ingest_epoch(&EventBatch::new(0, events)).unwrap();
        let before = eng.partition();
        let outcome = eng.rebalance().unwrap();
        assert_eq!(outcome.committed, outcome.nodes_copied > 0);
        if outcome.committed {
            assert!(outcome.cut_after < outcome.cut_before);
            // Only the flip is fenced.
            assert_eq!(outcome.fence_epochs, 1);
            assert_eq!(eng.rebalances(), 1);
            assert_eq!(eng.nodes_migrated(), outcome.nodes_copied as u64);
            // Each migration orphans exactly one slot in the old slab
            // (nothing ingested mid-copy, so no deltas were replayed and
            // the default policy doesn't compact at this scale).
            assert_eq!(outcome.deltas_replayed, 0);
            assert_eq!(outcome.slots_reclaimed, 0);
            assert_eq!(eng.orphaned_pao_slots(), outcome.nodes_copied as u64);
            assert_ne!(eng.partition(), before, "committed map must differ");
        }
        for v in 0..7u32 {
            assert_eq!(eng.read(NodeId(v)), reference.read(NodeId(v)), "{v}");
            assert_eq!(
                eng.read_service(NodeId(v)).unwrap(),
                reference.read(NodeId(v))
            );
        }
        // Post-migration writes are applied by the new owners.
        for (ts, (node, value)) in [(2u32, 6i64), (4, 8), (5, 1)].into_iter().enumerate() {
            eng.submit_write(NodeId(node), value, 1000 + ts as u64)
                .unwrap();
            reference.write(NodeId(node), value, 1000 + ts as u64);
        }
        eng.drain().unwrap();
        for v in 0..7u32 {
            assert_eq!(eng.read(NodeId(v)), reference.read(NodeId(v)), "{v} post");
        }
        eng.shutdown();
    }

    #[test]
    fn fenced_migration_runs_over_the_in_process_state_plane() {
        // The socket transport's fenced move, driven through the
        // in-process state plane: every node changes shard, and the new
        // owners must both answer and expire the moved writers' windows.
        let (ov, d) = paper_parts();
        let window = WindowSpec::Time(50);
        let eng = ShardedEngine::new(
            Sum,
            Arc::clone(&ov),
            &d,
            window,
            &ShardedConfig::builder()
                .shards(2)
                .strategy(PartitionStrategy::Hash)
                .build(),
        );
        let reference = EngineCore::new(Sum, Arc::clone(&ov), &d, window);
        let mut events = Vec::new();
        for i in 0..40u32 {
            events.push(Event::Write {
                node: NodeId(i % 7),
                value: i64::from(i % 11),
            });
        }
        for (ts, e) in events.iter().enumerate() {
            if let Event::Write { node, value } = *e {
                reference.write(node, value, ts as u64);
            }
        }
        eng.ingest_epoch(&EventBatch::new(0, events)).unwrap();
        let before = eng.partition();
        let moves: Vec<(OverlayId, ShardId)> = (0..before.len())
            .map(|i| (OverlayId(i as u32), ShardId(1 - before.shard_of(i).0)))
            .collect();
        let report = eng.execute_migration_fenced(moves).unwrap();
        assert_eq!(report.nodes_copied, before.len());
        assert_eq!(eng.orphaned_pao_slots(), before.len() as u64);
        for i in 0..before.len() {
            assert_ne!(eng.partition().shard_of(i), before.shard_of(i));
        }
        for v in 0..7u32 {
            assert_eq!(eng.read(NodeId(v)), reference.read(NodeId(v)), "{v}");
        }
        reference.advance_time(70);
        eng.advance_time_epoch(70).unwrap();
        let nodes: Vec<NodeId> = (0..7u32).map(NodeId).collect();
        let want: Vec<Option<i64>> = nodes.iter().map(|&v| reference.read(v)).collect();
        assert_eq!(
            eng.read_batch(&nodes).unwrap(),
            want,
            "expired by new owners"
        );
        eng.shutdown();
    }

    #[test]
    fn rebalance_below_gain_threshold_is_a_noop() {
        let (ov, d) = paper_parts();
        let eng = ShardedEngine::new(
            Sum,
            Arc::clone(&ov),
            &d,
            WindowSpec::Tuple(1),
            &ShardedConfig::builder()
                .shards(2)
                .strategy(PartitionStrategy::Hash)
                .channel_capacity(64)
                .rebalance(RebalancePolicy {
                    // An impossible bar: nothing may commit.
                    min_cut_gain: 2.0,
                    ..RebalancePolicy::default()
                })
                .build(),
        );
        eng.submit_write(NodeId(2), 6, 0).unwrap();
        eng.drain().unwrap();
        let before = eng.partition();
        let outcome = eng.rebalance().unwrap();
        assert!(!outcome.committed);
        assert_eq!(outcome.nodes_copied, 0);
        // An uncommitted rebalance never takes the exclusive gate at all.
        assert_eq!(outcome.fence_epochs, 0);
        assert_eq!(eng.rebalances(), 0);
        assert_eq!(eng.nodes_migrated(), 0);
        assert_eq!(
            eng.partition(),
            before,
            "uncommitted rebalance must not move"
        );
        eng.shutdown();
    }

    #[test]
    fn compact_reclaims_migration_orphans_and_preserves_answers() {
        let (ov, d) = paper_parts();
        let eng = ShardedEngine::new(
            Sum,
            Arc::clone(&ov),
            &d,
            WindowSpec::Tuple(1),
            &ShardedConfig::builder()
                .shards(4)
                .strategy(PartitionStrategy::Hash)
                .channel_capacity(64)
                .rebalance(RebalancePolicy {
                    min_cut_gain: 0.0,
                    max_move_fraction: 1.0,
                    ..RebalancePolicy::default()
                })
                .build(),
        );
        let reference = EngineCore::new(Sum, Arc::clone(&ov), &d, WindowSpec::Tuple(1));
        let mut rng = SplitMix64::new(11);
        let mut events = Vec::new();
        for _ in 0..150 {
            events.push(Event::Write {
                node: NodeId(rng.index(7) as u32),
                value: rng.range(0, 30) as i64,
            });
        }
        for (ts, e) in events.iter().enumerate() {
            if let Event::Write { node, value } = *e {
                reference.write(node, value, ts as u64);
            }
        }
        eng.ingest_epoch(&EventBatch::new(0, events)).unwrap();
        let report = eng.rebalance().unwrap();
        assert!(report.committed, "forced policy must commit on a hash map");
        assert!(eng.orphaned_pao_slots() > 0);
        let reclaimed = eng.compact().unwrap();
        assert_eq!(reclaimed, report.nodes_copied as u64);
        assert_eq!(
            eng.orphaned_pao_slots(),
            0,
            "compaction reclaims all orphans"
        );
        assert_eq!(eng.slots_reclaimed(), reclaimed);
        // Answers and post-compaction writes are unaffected.
        for v in 0..7u32 {
            assert_eq!(eng.read(NodeId(v)), reference.read(NodeId(v)), "{v}");
            assert_eq!(
                eng.read_service(NodeId(v)).unwrap(),
                reference.read(NodeId(v))
            );
        }
        for (ts, (node, value)) in [(2u32, 6i64), (4, 8), (5, 1)].into_iter().enumerate() {
            eng.submit_write(NodeId(node), value, 1000 + ts as u64)
                .unwrap();
            reference.write(NodeId(node), value, 1000 + ts as u64);
        }
        eng.drain().unwrap();
        for v in 0..7u32 {
            assert_eq!(eng.read(NodeId(v)), reference.read(NodeId(v)), "{v} post");
        }
        eng.shutdown();
    }

    #[test]
    fn auto_compaction_piggybacks_on_the_flip_fence() {
        let (ov, d) = paper_parts();
        let eng = ShardedEngine::new(
            Sum,
            Arc::clone(&ov),
            &d,
            WindowSpec::Tuple(1),
            &ShardedConfig::builder()
                .shards(4)
                .strategy(PartitionStrategy::Hash)
                .channel_capacity(64)
                .rebalance(RebalancePolicy {
                    min_cut_gain: 0.0,
                    max_move_fraction: 1.0,
                    // Any orphan triggers compaction inside the fence.
                    compact_after_orphans: 1,
                    ..RebalancePolicy::default()
                })
                .build(),
        );
        for n in 0..7u32 {
            eng.submit_write(NodeId(n), n as i64 + 1, n as u64).unwrap();
        }
        eng.drain().unwrap();
        let report = eng.rebalance().unwrap();
        assert!(report.committed);
        assert_eq!(report.slots_reclaimed, report.nodes_copied as u64);
        assert_eq!(eng.orphaned_pao_slots(), 0);
        assert_eq!(eng.slots_reclaimed(), report.slots_reclaimed);
        eng.shutdown();
    }

    #[test]
    fn migrate_to_explicit_target_and_back_preserves_answers() {
        let (ov, d) = paper_parts();
        let eng = sharded(3);
        let reference = EngineCore::new(Sum, Arc::clone(&ov), &d, WindowSpec::Tuple(1));
        for n in 0..7u32 {
            eng.submit_write(NodeId(n), 3 * n as i64 + 2, n as u64)
                .unwrap();
            reference.write(NodeId(n), 3 * n as i64 + 2, n as u64);
        }
        eng.drain().unwrap();
        let original = eng.partition();
        // Rotate every node to the next shard.
        let mut rotated = original.clone();
        for s in rotated.of.iter_mut() {
            *s = ShardId((s.0 + 1) % 3);
        }
        let there = eng.migrate_to(&rotated).unwrap();
        assert!(there.committed);
        assert_eq!(there.nodes_copied, original.len());
        assert_eq!(there.fence_epochs, 1);
        assert_eq!(eng.partition(), rotated);
        let back = eng.migrate_to(&original).unwrap();
        assert!(back.committed);
        assert_eq!(eng.partition(), original);
        // Same target again: nothing to move, nothing fenced.
        let noop = eng.migrate_to(&original).unwrap();
        assert!(!noop.committed);
        assert_eq!(noop.fence_epochs, 0);
        // State survived the round trip, including new writes.
        for v in 0..7u32 {
            assert_eq!(eng.read(NodeId(v)), reference.read(NodeId(v)), "{v}");
        }
        for n in 0..7u32 {
            eng.submit_write(NodeId(n), 100 + n as i64, 1000 + n as u64)
                .unwrap();
            reference.write(NodeId(n), 100 + n as i64, 1000 + n as u64);
        }
        eng.drain().unwrap();
        for v in 0..7u32 {
            assert_eq!(eng.read(NodeId(v)), reference.read(NodeId(v)), "{v} post");
        }
        eng.shutdown();
    }

    #[test]
    fn rebalance_coalesces_while_a_migration_is_in_flight() {
        // Thread A ping-pongs explicit migrations; the main thread fires
        // rebalance() whenever one is in flight. Every such call must
        // coalesce (single-flight CAS) rather than stack a second fence.
        let eng = sharded(3);
        for n in 0..7u32 {
            eng.submit_write(NodeId(n), n as i64, n as u64).unwrap();
        }
        eng.drain().unwrap();
        let a = eng.partition();
        let mut b = a.clone();
        for s in b.of.iter_mut() {
            *s = ShardId((s.0 + 1) % 3);
        }
        let stop = AtomicBool::new(false);
        // lint: allow(panic-free, in-process transport Results cannot fail while workers are alive; an unwrap propagates as the test failure at the scope join)
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while !stop.load(Ordering::Acquire) {
                    let _ = eng.migrate_to(&b);
                    let _ = eng.migrate_to(&a);
                }
            });
            let mut attempts = 0u64;
            while eng.coalesced_rebalances() == 0 && attempts < 100_000 {
                if eng.migration_in_flight() {
                    let r = eng.rebalance().unwrap();
                    if !r.committed && r.fence_epochs == 0 {
                        attempts += 1;
                    }
                }
                std::hint::spin_loop();
            }
            stop.store(true, Ordering::Release);
        });
        assert!(
            eng.coalesced_rebalances() > 0,
            "a rebalance racing an in-flight migration must coalesce"
        );
        eng.shutdown();
    }

    #[test]
    fn every_n_epochs_policy_fires_automatically() {
        let (ov, d) = paper_parts();
        let eng = ShardedEngine::new(
            Sum,
            Arc::clone(&ov),
            &d,
            WindowSpec::Tuple(1),
            &ShardedConfig::builder()
                .shards(3)
                .strategy(PartitionStrategy::Hash)
                .channel_capacity(64)
                .rebalance(RebalancePolicy {
                    every_epochs: 2,
                    min_cut_gain: 0.0,
                    max_move_fraction: 1.0,
                    ..RebalancePolicy::default()
                })
                .build(),
        );
        let reference = EngineCore::new(Sum, Arc::clone(&ov), &d, WindowSpec::Tuple(1));
        let mut ts = 0u64;
        for round in 0..6 {
            let events: Vec<Event> = (0..7u32)
                .map(|n| Event::Write {
                    node: NodeId(n),
                    value: (round * 7 + n) as i64,
                })
                .collect();
            for (i, e) in events.iter().enumerate() {
                if let Event::Write { node, value } = *e {
                    reference.write(node, value, ts + i as u64);
                }
            }
            eng.ingest_epoch(&EventBatch::new(ts, events)).unwrap();
            ts += 7;
        }
        // 6 epochs at every_epochs=2 ⇒ 3 trigger points; at least the
        // first (over a hash map with observed traffic) must commit.
        assert!(eng.rebalances() >= 1, "auto trigger never committed");
        for v in 0..7u32 {
            assert_eq!(eng.read(NodeId(v)), reference.read(NodeId(v)), "{v}");
        }
        eng.shutdown();
    }

    #[test]
    fn migrated_writers_keep_expiring_through_their_new_owner() {
        // Time windows: after a forced full rebalance, the writers' window
        // expiration must have moved with them (the Migrate/Install
        // handoff carries expiration ownership).
        let (ov, d) = paper_parts();
        let eng = ShardedEngine::new(
            Sum,
            Arc::clone(&ov),
            &d,
            WindowSpec::Time(10),
            &ShardedConfig::builder()
                .shards(4)
                .strategy(PartitionStrategy::Hash)
                .channel_capacity(64)
                .rebalance(RebalancePolicy {
                    min_cut_gain: 0.0,
                    max_move_fraction: 1.0,
                    ..RebalancePolicy::default()
                })
                .build(),
        );
        let reference = EngineCore::new(Sum, Arc::clone(&ov), &d, WindowSpec::Time(10));
        for (node, value, ts) in [(2u32, 5i64, 0u64), (3, 7, 5), (4, 2, 6)] {
            eng.submit_write(NodeId(node), value, ts).unwrap();
            reference.write(NodeId(node), value, ts);
        }
        eng.drain().unwrap();
        let outcome = eng.rebalance().unwrap();
        assert!(outcome.committed, "forced policy must commit on a hash map");
        // t = 12: the t=0 write expires — via the new owners' inboxes.
        eng.advance_time_epoch(12).unwrap();
        reference.advance_time(12);
        for v in 0..7u32 {
            assert_eq!(eng.read(NodeId(v)), reference.read(NodeId(v)), "{v}");
        }
        eng.advance_time_epoch(1000).unwrap();
        reference.advance_time(1000);
        assert_eq!(eng.read(NodeId(0)), reference.read(NodeId(0)));
        eng.shutdown();
    }

    #[test]
    fn read_batch_with_pull_readers_crosses_shards() {
        // All-pull decisions (writers still push): every read evaluates a
        // pull tree whose inputs are spread across shards by the hash
        // partition — the owning worker resolves foreign inputs through
        // the peer slabs' read locks.
        let (ov, _) = paper_parts();
        let d = Decisions::all_pull(&ov);
        let eng = ShardedEngine::new(
            Sum,
            Arc::clone(&ov),
            &d,
            WindowSpec::Tuple(1),
            &ShardedConfig::builder()
                .shards(4)
                .strategy(PartitionStrategy::Hash)
                .channel_capacity(64)
                .build(),
        );
        let reference = EngineCore::new(Sum, ov, &d, WindowSpec::Tuple(1));
        for (ts, (node, value)) in [(2u32, 6i64), (3, 8), (4, 5), (5, 3), (6, 9)]
            .into_iter()
            .enumerate()
        {
            reference.write(NodeId(node), value, ts as u64);
            eng.submit_write(NodeId(node), value, ts as u64).unwrap();
        }
        let nodes: Vec<NodeId> = (0..7u32).map(NodeId).collect();
        let got = eng.read_batch(&nodes).unwrap();
        for (i, &v) in nodes.iter().enumerate() {
            assert_eq!(got[i], reference.read(v), "pull reader {v:?}");
        }
        eng.shutdown();
    }

    #[test]
    fn out_of_range_nodes_route_by_hash_fallback() {
        let eng = sharded(3);
        let live = eng.live_partition();
        let n = live.len();
        // Beyond the map: deterministic hash assignment, in range.
        assert_eq!(live.shard_of(n + 5), hash_shard(n + 5, 3));
        assert!(live.shard_of(n + 5).idx() < 3);
        let snap = live.load();
        assert_eq!(snap.shard_of(n + 5), hash_shard(n + 5, 3));
        eng.shutdown();
    }

    #[test]
    fn apply_topo_extends_retires_and_preserves_answers() {
        use eagr_agg::Sign;
        use eagr_flow::topo_plan_delta;

        let eng = sharded(3);
        let events: Vec<Event> = (0..7u32)
            .map(|n| Event::Write {
                node: NodeId(n),
                value: (n + 1) as i64,
            })
            .collect();
        eng.ingest_epoch(&EventBatch::new(0, events)).unwrap();
        let before: Vec<Option<i64>> = (0..7u32).map(|v| eng.read(NodeId(v))).collect();

        // Repair the overlay in place: a fresh writer for data node 7
        // feeding a fresh reader for data node 8 *and* reader 0's existing
        // ego net, and retire reader 6.
        let (ov, d) = paper_parts();
        let mut ov2 = (*ov).clone();
        let r0 = ov2.reader(NodeId(0)).unwrap();
        let r6 = ov2.reader(NodeId(6)).unwrap();
        let w = ov2.add_writer(NodeId(7));
        let r = ov2.add_reader(NodeId(8));
        ov2.add_edge(w, r, Sign::Pos);
        ov2.add_edge(w, r0, Sign::Pos);
        ov2.retire_node(r6);
        let mut dirty = FastSet::default();
        dirty.insert(r0); // the repair rewired its input list
        let delta = topo_plan_delta(&ov2, &d, &[w, r], &dirty);

        let core_before = Arc::as_ptr(&eng.core());
        let report = eng
            .apply_topo(
                Sum,
                Arc::new(ov2),
                &delta.decisions,
                &[],
                &delta.materialize,
            )
            .unwrap();
        assert_eq!(report.fresh_nodes, 2);
        assert_eq!(report.retired_nodes, 1);
        assert!(report.rematerialized >= 2, "fresh w/r and rewired r0");
        assert_eq!(report.orphaned_slots, 1);
        assert_eq!(report.slots_reclaimed, 0, "below the compaction trigger");
        assert_eq!(eng.topo_epochs(), 1);
        assert_eq!(
            Arc::as_ptr(&eng.core()),
            core_before,
            "the epoch patches the live core in place"
        );

        // Carried state: every surviving reader answers as before (the
        // fresh writer holds no value yet, so the rewired net is unchanged).
        for v in 0..6u32 {
            assert_eq!(eng.read(NodeId(v)), before[v as usize], "reader {v}");
        }
        // The retired reader is gone and its slab slot is tombstoned into
        // the compaction path.
        assert_eq!(eng.read(NodeId(6)), None);
        assert!(eng.core().store().is_retired_slot(r6.idx()));
        assert_eq!(eng.orphaned_pao_slots(), 1);

        // The new topology is live on the hot path: a write to the fresh
        // writer flows to the fresh reader and into reader 0's rewired net
        // through the shard inboxes — no re-plan, no worker restart.
        eng.ingest_epoch(&EventBatch::new(
            100,
            vec![Event::Write {
                node: NodeId(7),
                value: 40,
            }],
        ))
        .unwrap();
        assert_eq!(eng.read(NodeId(8)), Some(40));
        assert_eq!(eng.read(NodeId(0)), before[0].map(|x| x + 40));
        let reclaimed = eng.compact().unwrap();
        assert_eq!(reclaimed, 1, "the tombstoned slot is reclaimable");
        assert_eq!(eng.read(NodeId(8)), Some(40), "answers survive compaction");
        eng.shutdown();
    }

    #[test]
    fn topo_epochs_interleave_with_ingest_and_match_reference() {
        use eagr_agg::Sign;
        use eagr_flow::topo_plan_delta;

        // Alternate write batches with single-node topology growth and
        // check every epoch against a fresh single-threaded reference.
        let (ov, d) = paper_parts();
        let eng = sharded(3);
        let mut overlay = (*ov).clone();
        let mut decisions = d;
        let mut rng = SplitMix64::new(7);
        let mut writes: Vec<(NodeId, i64, u64)> = Vec::new();
        let mut ts = 0u64;
        let mut nodes = 7u32;
        for round in 0..6 {
            let events: Vec<Event> = (0..40)
                .map(|_| Event::Write {
                    node: NodeId(rng.index(nodes as usize) as u32),
                    value: rng.range(0, 20) as i64,
                })
                .collect();
            for (i, e) in events.iter().enumerate() {
                if let Event::Write { node, value } = *e {
                    writes.push((node, value, ts + i as u64));
                }
            }
            eng.ingest(&EventBatch::new(ts, events)).unwrap();
            ts += 40;
            // Grow: fresh writer + reader over it, wired into one existing
            // reader's net as well.
            let w = overlay.add_writer(NodeId(nodes));
            let rd = overlay.add_reader(NodeId(nodes + 1));
            overlay.add_edge(w, rd, Sign::Pos);
            let target = overlay.reader(NodeId(round as u32)).unwrap();
            overlay.add_edge(w, target, Sign::Pos);
            nodes += 2;
            let mut dirty = FastSet::default();
            dirty.insert(target);
            let delta = topo_plan_delta(&overlay, &decisions, &[w, rd], &dirty);
            decisions = delta.decisions.clone();
            eng.apply_topo(
                Sum,
                Arc::new(overlay.clone()),
                &delta.decisions,
                &[],
                &delta.materialize,
            )
            .unwrap();
        }
        eng.drain().unwrap();
        let reference = EngineCore::new(
            Sum,
            Arc::new(overlay.clone()),
            &decisions,
            WindowSpec::Tuple(1),
        );
        for &(node, value, t) in &writes {
            reference.write(node, value, t);
        }
        for v in 0..nodes {
            assert_eq!(eng.read(NodeId(v)), reference.read(NodeId(v)), "reader {v}");
        }
        assert_eq!(eng.topo_epochs(), 6);
        eng.shutdown();
    }
}
