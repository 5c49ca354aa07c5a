//! The live query registry behind [`EagrSystem`](crate::system::EagrSystem):
//! multi-query serving with attach/detach over shared overlay state (the
//! §3 aggregation-sharing story exercised at *runtime*).
//!
//! Queries are grouped into **strata**: all queries with the same window
//! spec and a compatible neighborhood share one overlay + engine, because
//! within a stratum an overlay reader for data node `v` computes exactly
//! the same answer for every query (the overlay allows one reader per data
//! node). Attaching a query to an existing stratum extends the overlay *in
//! place* — ids are append-only stable — reusing existing writers, readers,
//! and partial aggregation nodes, and carries the warm engine state (window
//! buffers + PAOs) across the runtime rebuild by index. Detaching releases
//! per-node reference counts and retires exactly the nodes no remaining
//! query reads.
//!
//! Fresh writers created mid-stream are backfilled from a bounded
//! [`WriteHistory`] ring; writers whose ring has evicted in-window entries
//! are reported as *cold* in the [`AttachReport`] (they warm up as the
//! stream progresses, same as any newly deployed query would).

use eagr_agg::{Aggregate, WindowBuffer, WindowSpec};
use eagr_exec::{EngineCore, EngineState, ShardedEngine, TransportError};
use eagr_flow::Decisions;
use eagr_graph::{Neighborhood, NodeId};
use eagr_overlay::{Overlay, OverlayId, RefCounts, RepairIndex};
use eagr_util::{FastMap, FastSet};
use std::collections::VecDeque;
use std::sync::Arc;

/// What one batch-ingestion call executed, returned by
/// [`EagrSystem::ingest`](crate::system::EagrSystem::ingest) and
/// [`write_batch`](crate::system::EagrSystem::write_batch).
///
/// Counts are per *event*, not per stratum: a write feeds every registered
/// query but is still one write.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// Content updates applied (each fans out to all registered queries).
    pub writes: usize,
    /// Read events evaluated.
    pub reads: usize,
    /// Topology mutations in the batch (edge/node churn), counted once per
    /// event regardless of execution mode or per-stratum validity — see
    /// [`TopoReport`] for what actually applied.
    pub mutations: usize,
}

impl IngestReport {
    /// Total events processed.
    pub fn total(&self) -> usize {
        self.writes + self.reads + self.mutations
    }
}

/// What the dynamic-topology path has done so far, accumulated across
/// every mutation run ([`EagrSystem::mutate_topology`](crate::system::EagrSystem::mutate_topology)
/// and topology runs inside mixed [`ingest`](crate::system::EagrSystem::ingest)
/// batches) and reported in [`RegistryStats::topo`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TopoReport {
    /// Mutation runs applied (each run is one topology epoch per stratum).
    pub epochs: u64,
    /// Mutations applied to the shared data graph.
    pub applied: u64,
    /// Mutations skipped as invalid against the live graph (duplicate
    /// edge, missing endpoint, already-removed node, …).
    pub skipped: u64,
    /// Overlay nodes appended by incremental repair, summed across strata.
    pub fresh_overlay_nodes: u64,
    /// Overlay nodes retired by repair, summed across strata.
    pub retired_overlay_nodes: u64,
    /// Push nodes rematerialized after repair (fresh + upgraded + dirty
    /// closure), summed across strata.
    pub rematerialized: u64,
    /// Repair indexes built from scratch (O(overlay) each): one at a
    /// stratum's first run and one after each attach/detach that rewrote
    /// its overlay; every other run reuses the resident index.
    pub index_builds: u64,
}

impl TopoReport {
    pub(crate) fn absorb(&mut self, other: &TopoReport) {
        self.epochs += other.epochs;
        self.applied += other.applied;
        self.skipped += other.skipped;
        self.fresh_overlay_nodes += other.fresh_overlay_nodes;
        self.retired_overlay_nodes += other.retired_overlay_nodes;
        self.rematerialized += other.rematerialized;
        self.index_builds += other.index_builds;
    }
}

/// What attaching a query reused vs. materialized, returned via
/// [`QueryHandle::attach_report`](crate::system::QueryHandle::attach_report).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AttachReport {
    /// Whether the query joined an existing stratum (shared overlay +
    /// engine) instead of compiling a cold one.
    pub shared_stratum: bool,
    /// Overlay nodes newly created and materialized for this attach.
    pub fresh_paos: usize,
    /// Already-materialized overlay nodes this query now reads — the
    /// numerator of the reuse fraction.
    pub reused_paos: usize,
    /// Existing partial aggregation nodes wired into the query's fresh
    /// readers (§3's sharing, found at attach time).
    pub reused_partials: usize,
    /// Pre-existing pull nodes upgraded to push by the frontier closure
    /// (their PAOs were materialized during attach).
    pub upgraded: usize,
    /// Fresh writers whose windows were exactly reconstructed from the
    /// write-history ring.
    pub backfilled_writers: usize,
    /// Fresh writers whose ring had evicted in-window entries — they start
    /// cold and warm up as the stream progresses.
    pub cold_writers: usize,
}

impl AttachReport {
    /// Overlay nodes whose PAOs had to be (re)materialized by this attach:
    /// fresh nodes plus pull→push upgrades. A warm attach of an
    /// overlapping query materializes strictly fewer than its cold build
    /// would.
    pub fn materialized(&self) -> usize {
        self.fresh_paos + self.upgraded
    }

    /// Fraction of the overlay nodes this query reads that were already
    /// materialized before the attach (`0` for a cold build).
    pub fn reuse_fraction(&self) -> f64 {
        let total = self.reused_paos + self.materialized();
        if total == 0 {
            0.0
        } else {
            self.reused_paos as f64 / total as f64
        }
    }
}

/// What detaching a query tore down vs. left for others, returned by
/// [`EagrSystem::detach`](crate::system::EagrSystem::detach).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DetachReport {
    /// Overlay nodes whose reference count hit zero and were retired.
    pub retired_paos: usize,
    /// Overlay nodes the query read that remain alive for other queries.
    pub retained_paos: usize,
    /// Whether the whole stratum (overlay + engine) was dropped because
    /// this was its last query.
    pub stratum_dropped: bool,
}

/// Registry-level summary, via
/// [`EagrSystem::registry_stats`](crate::system::EagrSystem::registry_stats).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Live strata (distinct window/neighborhood groups with ≥1 query).
    pub strata: usize,
    /// Attached queries.
    pub queries: usize,
    /// Live overlay nodes summed across strata.
    pub live_nodes: usize,
    /// Committed live migrations summed across sharded strata (see
    /// [`ShardedEngine::rebalances`](eagr_exec::ShardedEngine::rebalances)).
    pub rebalances: u64,
    /// Overlay nodes moved across shards by those migrations.
    pub nodes_migrated: u64,
    /// Slab slots currently orphaned by migration, awaiting compaction.
    pub orphaned_pao_slots: u64,
    /// Orphaned slab slots reclaimed by compaction so far.
    pub slots_reclaimed: u64,
    /// Cumulative dynamic-topology activity (mutation runs, churn applied,
    /// overlay repair volume).
    pub topo: TopoReport,
}

// ---------------------------------------------------------------------------
// Write history (attach-time window backfill)
// ---------------------------------------------------------------------------

#[derive(Clone, Debug, Default)]
struct NodeHistory {
    /// `(ts, value)` in arrival order; bounded by the ring capacity.
    entries: VecDeque<(u64, i64)>,
    /// Whether any entry has been evicted (the ring is lossy for this node).
    evicted: bool,
}

/// A bounded per-node ring of recent writes, fed by every facade write
/// path. Attaching a query whose overlay extension creates a *fresh*
/// writer replays this ring into the writer's window buffer so the new
/// query answers over history it never observed live.
#[derive(Clone, Debug)]
pub(crate) struct WriteHistory {
    cap: usize,
    /// Indexed by [`NodeId`]; grows on demand (node ids are append-only).
    rings: Vec<NodeHistory>,
}

impl WriteHistory {
    pub(crate) fn new(cap: usize) -> Self {
        Self {
            cap,
            rings: Vec::new(),
        }
    }

    /// Record one write. `O(1)` amortized; a no-op when backfill is
    /// disabled (`cap == 0`).
    pub(crate) fn record(&mut self, v: NodeId, value: i64, ts: u64) {
        if self.cap == 0 {
            return;
        }
        if v.idx() >= self.rings.len() {
            self.rings.resize_with(v.idx() + 1, NodeHistory::default);
        }
        let h = &mut self.rings[v.idx()];
        h.entries.push_back((ts, value));
        if h.entries.len() > self.cap {
            h.entries.pop_front();
            h.evicted = true;
        }
    }

    /// Reconstruct `v`'s window as of stream position `now`. The second
    /// component reports whether the reconstruction is *exact* — i.e. the
    /// ring provably retained every write still inside the window.
    pub(crate) fn backfill(&self, v: NodeId, spec: WindowSpec, now: u64) -> (WindowBuffer, bool) {
        let mut buf = WindowBuffer::new(spec);
        let Some(h) = self.rings.get(v.idx()) else {
            // Node never written (exact) — or history disabled (cold).
            return (buf, self.cap > 0);
        };
        let mut entries: Vec<(u64, i64)> = h.entries.iter().copied().collect();
        entries.sort_by_key(|e| e.0);
        let oldest_retained = entries.first().map(|e| e.0);
        let mut expired = Vec::new();
        for (ts, value) in entries {
            buf.push(ts, value, &mut expired);
        }
        let exact = !h.evicted
            || match spec {
                WindowSpec::Tuple(c) => buf.len() >= c,
                WindowSpec::Time(t) => {
                    // Every evicted entry is at least as old as the oldest
                    // retained one; if that is already outside the window,
                    // nothing in-window was lost.
                    oldest_retained.is_some_and(|ts| ts <= now.saturating_sub(t))
                }
                WindowSpec::Unbounded => false,
            };
        (buf, exact)
    }
}

// ---------------------------------------------------------------------------
// Strata
// ---------------------------------------------------------------------------

/// The engine a stratum dispatches to, per
/// [`ExecutionMode`](crate::system::ExecutionMode). Engines sit behind
/// `Arc` so attach/detach can rebuild a stratum's runtime while handles
/// hold clones of the registry lock only, never of the engine.
/// The facade's transport-failure policy: the sharded engine reports
/// shard-peer loss as a typed [`TransportError`], and callers that can
/// recover handle the `Result` on [`ShardedEngine`] directly. The facade's
/// own synchronous API has no error channel, so it treats a dead shard
/// runtime as fatal — with the transport's first-cause diagnostics, unlike
/// the blind per-send panics this replaced.
pub(crate) fn transport_ok<T>(r: Result<T, TransportError>) -> T {
    r.unwrap_or_else(|e| panic!("sharded runtime lost its shard transport: {e}"))
}

pub(crate) enum Runtime<A: Aggregate> {
    /// Synchronous execution on the shared core.
    Local(Arc<EngineCore<A>>),
    /// Shard-owned runtime (PAOs live in shard slabs inside the engine).
    Sharded(Arc<ShardedEngine<A>>),
}

impl<A: Aggregate> Runtime<A> {
    /// Epoch-consistent point read (shard-executed in sharded mode).
    pub(crate) fn read(&self, v: NodeId) -> Option<A::Output> {
        match self {
            Runtime::Local(core) => core.read(v),
            Runtime::Sharded(eng) => transport_ok(eng.read_service(v)),
        }
    }

    /// Epoch-consistent batch read (fanned out through the shard inboxes
    /// in sharded mode).
    pub(crate) fn read_batch(&self, nodes: &[NodeId]) -> Vec<Option<A::Output>> {
        match self {
            Runtime::Local(core) => nodes.iter().map(|&v| core.read(v)).collect(),
            Runtime::Sharded(eng) => transport_ok(eng.read_batch(nodes)),
        }
    }

    /// Snapshot window + PAO state for a rebuild.
    pub(crate) fn export_state(&self) -> EngineState<A::Partial> {
        match self {
            Runtime::Local(core) => core.export_state(),
            Runtime::Sharded(eng) => transport_ok(eng.export_state()),
        }
    }

    /// Seed a freshly built runtime ([`EngineCore::seed`]); the sharded
    /// engine also publishes the seeded state to its shard peers.
    pub(crate) fn seed(
        &self,
        carried: Option<EngineState<A::Partial>>,
        backfill: &[(OverlayId, WindowBuffer)],
        fresh_push: &FastSet<OverlayId>,
    ) {
        match self {
            Runtime::Local(core) => {
                core.seed(carried, backfill, fresh_push);
            }
            Runtime::Sharded(eng) => transport_ok(eng.seed(carried, backfill, fresh_push)),
        }
    }
}

/// One window/neighborhood group: a shared overlay + engine serving every
/// query attached to it.
pub(crate) struct Stratum<A: Aggregate> {
    pub(crate) agg: A,
    pub(crate) window: WindowSpec,
    pub(crate) neighborhood: Neighborhood,
    /// Mutable master copy of the overlay (the runtime holds a frozen
    /// `Arc` clone of it; rebuilds re-freeze after extension/retirement).
    pub(crate) overlay: Overlay,
    pub(crate) decisions: Decisions,
    pub(crate) runtime: Runtime<A>,
    /// Per-node query reference counts over [`eagr_overlay::used_subtree`]
    /// sets.
    pub(crate) refs: RefCounts,
    /// Attached queries.
    pub(crate) queries: usize,
    /// The §3.3 repair index over `overlay`, kept between topology runs.
    /// Built at the stratum's first run; anything else that rewrites
    /// `overlay` (attach, detach) drops it.
    pub(crate) repair: Option<RepairIndex>,
}

impl<A: Aggregate> Stratum<A> {
    /// Whether a query's shape can share this stratum: identical window,
    /// compatible neighborhood. [`Neighborhood`] has no `Eq` (filters are
    /// opaque closures) — filtered neighborhoods compare by base shape and
    /// filter *pointer* identity, so reusing one `Neighborhood` value
    /// across queries shares a stratum while distinct closures stay apart.
    pub(crate) fn compatible(&self, window: WindowSpec, n: &Neighborhood) -> bool {
        self.window == window && neighborhood_compatible(&self.neighborhood, n)
    }
}

pub(crate) fn neighborhood_compatible(a: &Neighborhood, b: &Neighborhood) -> bool {
    match (a, b) {
        (Neighborhood::In, Neighborhood::In)
        | (Neighborhood::Out, Neighborhood::Out)
        | (Neighborhood::Undirected, Neighborhood::Undirected) => true,
        (Neighborhood::KHopIn(x), Neighborhood::KHopIn(y))
        | (Neighborhood::KHopOut(x), Neighborhood::KHopOut(y)) => x == y,
        (
            Neighborhood::Filtered {
                base: ba,
                filter: fa,
            },
            Neighborhood::Filtered {
                base: bb,
                filter: fb,
            },
        ) => Arc::ptr_eq(fa, fb) && neighborhood_compatible(ba, bb),
        _ => false,
    }
}

/// One attached query.
pub(crate) struct QueryEntry {
    /// Index into [`Registry::strata`].
    pub(crate) stratum: usize,
    /// The query's reader data nodes (sorted; membership check for
    /// handle-scoped reads).
    pub(crate) readers: Vec<NodeId>,
    /// The query's [`eagr_overlay::used_subtree`] — the nodes it holds
    /// references on.
    pub(crate) used: Vec<OverlayId>,
    pub(crate) report: AttachReport,
}

/// All live strata + queries. Lives behind the system's registry lock.
pub(crate) struct Registry<A: Aggregate> {
    /// Slot per stratum; `None` once dropped (indices stay stable).
    pub(crate) strata: Vec<Option<Stratum<A>>>,
    pub(crate) queries: FastMap<u64, QueryEntry>,
    /// Cumulative dynamic-topology activity.
    pub(crate) topo: TopoReport,
}

impl<A: Aggregate> Registry<A> {
    pub(crate) fn new() -> Self {
        Self {
            strata: Vec::new(),
            queries: FastMap::default(),
            topo: TopoReport::default(),
        }
    }

    /// The first live stratum — the target of the legacy single-query
    /// facade methods (`read`, `advance_time`, …).
    pub(crate) fn primary(&self) -> Option<&Stratum<A>> {
        self.strata.iter().flatten().next()
    }

    /// All live strata.
    pub(crate) fn live(&self) -> impl Iterator<Item = &Stratum<A>> {
        self.strata.iter().flatten()
    }

    /// Index of a stratum compatible with `(window, neighborhood)`.
    pub(crate) fn find_compatible(&self, window: WindowSpec, n: &Neighborhood) -> Option<usize> {
        self.strata
            .iter()
            .position(|s| s.as_ref().is_some_and(|s| s.compatible(window, n)))
    }

    pub(crate) fn stats(&self) -> RegistryStats {
        let mut stats = RegistryStats {
            strata: self.live().count(),
            queries: self.queries.len(),
            live_nodes: self.live().map(|s| s.overlay.live_node_count()).sum(),
            topo: self.topo,
            ..RegistryStats::default()
        };
        for s in self.live() {
            if let Runtime::Sharded(eng) = &s.runtime {
                stats.rebalances += eng.rebalances();
                stats.nodes_migrated += eng.nodes_migrated();
                stats.orphaned_pao_slots += eng.orphaned_pao_slots();
                stats.slots_reclaimed += eng.slots_reclaimed();
            }
        }
        stats
    }
}
