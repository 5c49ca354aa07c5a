//! The one-stop EAGr system facade: data graph + query → bipartite graph →
//! overlay → dataflow plan → execution engine — plus the multi-query
//! registry: further queries [`attach`](EagrSystem::attach) to the running
//! system, sharing already-materialized overlay state where their plans
//! overlap, and [`detach`](EagrSystem::detach) without tearing down state
//! another query still reads.

use crate::query::{EgoQuery, QueryMode};
use crate::registry::{
    transport_ok, AttachReport, DetachReport, IngestReport, QueryEntry, Registry, RegistryStats,
    Runtime, Stratum, TopoReport, WriteHistory,
};
use eagr_agg::{Aggregate, CostModel, WindowBuffer, WindowSpec};
use eagr_exec::{
    AdaptiveEngine, EngineCore, MigrationReport, RebalancePolicy, ShardedConfig, ShardedEngine,
    TransportKind,
};
use eagr_flow::{
    extend_decisions, plan, topo_plan_delta, DecisionAlgorithm, Decisions, Plan, PlannerConfig,
    Rates,
};
use eagr_gen::{Event, EventBatch};
use eagr_graph::{BipartiteGraph, DataGraph, NodeId, PartitionStrategy, UndoLog};
use eagr_overlay::{
    build_iob, build_vnm, extend_with_readers, metrics, used_subtree, DynamicConfig,
    DynamicOverlay, IobConfig, IterationStats, Overlay, OverlayId, OverlayKind, RefCounts,
    RepairIndex, VnmConfig,
};
use eagr_util::FastSet;
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How a compiled system executes its workload.
#[derive(Clone, Copy, Debug)]
pub enum ExecutionMode {
    /// The §2.2.2 uni-thread baseline: every operation runs synchronously
    /// on the calling thread.
    SingleThreaded,
    /// The shard-owned runtime: overlay nodes are partitioned across
    /// worker-owned shards, writes are ingested in batches, cross-shard
    /// propagation travels as batched deltas drained in epochs, and reads
    /// are shard-executed — routed through the shard inboxes so the owning
    /// worker evaluates them epoch-consistently (the caller thread never
    /// evaluates shard-owned PAO state). The node→shard map is live: set a
    /// [`RebalancePolicy`] ([`SystemBuilder::rebalance`]) to let the
    /// engine periodically re-partition itself from observed load, or call
    /// [`EagrSystem::rebalance`] manually.
    Sharded {
        /// Number of shards (owning worker threads).
        shards: usize,
    },
}

/// Which overlay construction algorithm to run (§3.2 + the direct/baseline
/// structure).
#[derive(Clone, Debug)]
pub enum OverlayAlgorithm {
    /// No sharing: the bipartite graph itself (used by the all-push and
    /// all-pull baselines of §5.1).
    Direct,
    /// Plain VNM with a fixed chunk size.
    Vnm {
        /// Reader-group size.
        chunk_size: usize,
    },
    /// VNM_A — adaptive chunk size (§3.2.2).
    Vnma,
    /// VNM_N — negative edges (§3.2.3); requires a subtractable aggregate.
    Vnmn,
    /// VNM_D — duplicate paths (§3.2.4); requires duplicate insensitivity.
    Vnmd,
    /// IOB — incremental overlay building (§3.2.5).
    Iob,
}

/// Default stream horizon (time units ≈ events) used to estimate the fill
/// of landmark windows when the caller does not provide one (see
/// [`SystemBuilder::stream_horizon`]).
const DEFAULT_STREAM_HORIZON: f64 = 10_000.0;

/// Default per-node write-history ring capacity (see
/// [`SystemBuilder::history`]): enough to exactly backfill the common
/// tuple windows at attach time without holding the whole stream.
const DEFAULT_HISTORY_CAP: usize = 64;

/// Everything about a build that is *not* the query itself — kept on the
/// system so [`EagrSystem::attach`] compiles new strata and rebuilds
/// runtimes with the same knobs the primary build used.
#[derive(Clone, Debug)]
pub(crate) struct BuildConfig {
    pub(crate) overlay_algorithm: OverlayAlgorithm,
    pub(crate) decision_algorithm: DecisionAlgorithm,
    pub(crate) execution: ExecutionMode,
    pub(crate) rates: Option<Rates>,
    pub(crate) cost: Option<CostModel>,
    pub(crate) split: bool,
    pub(crate) writer_window: Option<usize>,
    pub(crate) stream_horizon: f64,
    pub(crate) rebalance: RebalancePolicy,
    pub(crate) history: usize,
    pub(crate) transport: TransportKind,
}

/// Builder for an [`EagrSystem`].
pub struct SystemBuilder<A: Aggregate> {
    query: EgoQuery<A>,
    config: BuildConfig,
}

impl<A: Aggregate> std::fmt::Debug for SystemBuilder<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SystemBuilder")
            .field("query", &self.query)
            .field("config", &self.config)
            .finish()
    }
}

impl<A: Aggregate + Clone> SystemBuilder<A> {
    /// Start building a system for a query.
    pub fn new(query: EgoQuery<A>) -> Self {
        Self {
            query,
            config: BuildConfig {
                overlay_algorithm: OverlayAlgorithm::Vnma,
                decision_algorithm: DecisionAlgorithm::MaxFlow,
                execution: ExecutionMode::SingleThreaded,
                rates: None,
                cost: None,
                split: true,
                writer_window: None,
                stream_horizon: DEFAULT_STREAM_HORIZON,
                rebalance: RebalancePolicy::default(),
                history: DEFAULT_HISTORY_CAP,
                transport: TransportKind::default(),
            },
        }
    }

    /// Choose the execution mode (default single-threaded).
    pub fn execution(mut self, mode: ExecutionMode) -> Self {
        self.config.execution = mode;
        self
    }

    /// Choose the overlay construction algorithm (default VNM_A).
    pub fn overlay(mut self, alg: OverlayAlgorithm) -> Self {
        self.config.overlay_algorithm = alg;
        self
    }

    /// Choose the dataflow decision procedure (default max-flow).
    pub fn decisions(mut self, alg: DecisionAlgorithm) -> Self {
        self.config.decision_algorithm = alg;
        self
    }

    /// Provide expected read/write rates (default: uniform 1:1).
    pub fn rates(mut self, rates: Rates) -> Self {
        self.config.rates = Some(rates);
        self
    }

    /// Provide a cost model (default: derived from the aggregate's declared
    /// `H`/`L`).
    pub fn cost_model(mut self, cost: CostModel) -> Self {
        self.config.cost = Some(cost);
        self
    }

    /// Enable/disable §4.7 node splitting (default on).
    pub fn split(mut self, on: bool) -> Self {
        self.config.split = on;
        self
    }

    /// Live shard-rebalancing policy for [`ExecutionMode::Sharded`]
    /// (default: manual-only — [`EagrSystem::rebalance`] works, nothing
    /// fires automatically). Ignored in single-threaded mode.
    pub fn rebalance(mut self, policy: RebalancePolicy) -> Self {
        self.config.rebalance = policy;
        self
    }

    /// Shard transport for [`ExecutionMode::Sharded`] (default
    /// in-process worker threads). [`TransportKind::Process`] launches one
    /// `eagr-shard-host` OS process per shard and requires the query's
    /// aggregate to provide [`eagr_agg::Aggregate::wire_hooks`]; building
    /// the system panics (with the transport's launch error) when the host
    /// binary cannot be found or an aggregate cannot cross the wire.
    /// Ignored in single-threaded mode.
    pub fn transport(mut self, transport: TransportKind) -> Self {
        self.config.transport = transport;
        self
    }

    /// Expected in-window values per writer, for the cost model (§4.2).
    /// When not set it is derived from the query's window spec via
    /// [`eagr_agg::WindowSpec::expected_size`]: tuple windows hold `c`
    /// values, time and landmark windows are estimated from the mean write
    /// rate (and, for landmark windows, the
    /// [`stream_horizon`](Self::stream_horizon)), so a running aggregate's
    /// pull cost reflects the whole history it would re-scan.
    pub fn writer_window(mut self, w: usize) -> Self {
        self.config.writer_window = Some(w);
        self
    }

    /// Expected stream length in time units, used to estimate the window
    /// fill of landmark ([`eagr_agg::WindowSpec::Unbounded`]) queries when
    /// [`writer_window`](Self::writer_window) is not set explicitly
    /// (default: 10 000).
    pub fn stream_horizon(mut self, horizon: f64) -> Self {
        self.config.stream_horizon = horizon;
        self
    }

    /// Per-node write-history ring capacity (default 64; `0` disables).
    /// [`EagrSystem::attach`] replays this history into the window buffers
    /// of writers the new query introduces mid-stream; a deeper ring makes
    /// more attaches *exact* ([`crate::AttachReport::backfilled_writers`])
    /// at the cost of `O(cap)` memory per written node.
    pub fn history(mut self, cap: usize) -> Self {
        self.config.history = cap;
        self
    }

    /// Compile the system against a data graph.
    pub fn build(self, graph: &DataGraph) -> EagrSystem<A>
    where
        A::Output: Send,
    {
        let SystemBuilder { query, config } = self;
        let Compiled {
            mut stratum,
            plan,
            bipartite,
            construction,
            cost,
            writer_window,
        } = compile_stratum(&config, &query, graph);

        // Register the primary query (handle id 0) with the registry so
        // the multi-query machinery — refcounts, handle-scoped reads,
        // detach — treats it exactly like any attached query.
        let mut readers: Vec<NodeId> = stratum.overlay.readers().map(|(_, v)| v).collect();
        readers.sort_unstable();
        let roots: Vec<OverlayId> = stratum.overlay.readers().map(|(id, _)| id).collect();
        let used = used_subtree(&stratum.overlay, &roots);
        stratum.refs.ensure_len(stratum.overlay.node_count());
        stratum.refs.acquire(&used);
        stratum.queries = 1;
        let report = AttachReport {
            shared_stratum: false,
            fresh_paos: stratum.overlay.live_node_count(),
            ..Default::default()
        };

        let mut registry = Registry::new();
        registry.strata.push(Some(stratum));
        registry.queries.insert(
            0,
            QueryEntry {
                stratum: 0,
                readers,
                used,
                report,
            },
        );

        EagrSystem {
            inner: Arc::new(SystemInner {
                registry: RwLock::named(registry, "registry"),
                graph: RwLock::named(graph.clone(), "graph"),
                history: Mutex::named(WriteHistory::new(config.history), "history"),
                clock: AtomicU64::new(0),
                next_query: AtomicU64::new(1),
                config,
            }),
            plan,
            bipartite,
            construction,
            cost,
            writer_window,
        }
    }
}

/// A cold stratum compilation: the full paper pipeline (bipartite graph →
/// overlay → plan → engine) plus the planner by-products the facade keeps
/// as construction-time snapshots.
struct Compiled<A: Aggregate> {
    stratum: Stratum<A>,
    plan: Plan,
    bipartite: BipartiteGraph,
    construction: Vec<IterationStats>,
    cost: CostModel,
    writer_window: usize,
}

fn compile_stratum<A: Aggregate + Clone>(
    cfg: &BuildConfig,
    query: &EgoQuery<A>,
    graph: &DataGraph,
) -> Compiled<A>
where
    A::Output: Send,
{
    let props = query.aggregate.props();
    let pred = Arc::clone(&query.predicate);
    let ag = BipartiteGraph::build(graph, &query.neighborhood, move |v| pred(v));

    let (overlay, construction) = match &cfg.overlay_algorithm {
        OverlayAlgorithm::Direct => (Overlay::direct_from_bipartite(&ag), Vec::new()),
        OverlayAlgorithm::Vnm { chunk_size } => build_vnm(&ag, &VnmConfig::vnm(*chunk_size, props)),
        OverlayAlgorithm::Vnma => build_vnm(&ag, &VnmConfig::vnma(props)),
        OverlayAlgorithm::Vnmn => build_vnm(&ag, &VnmConfig::vnmn(props)),
        OverlayAlgorithm::Vnmd => build_vnm(&ag, &VnmConfig::vnmd(props)),
        OverlayAlgorithm::Iob => build_iob(&ag, &IobConfig::default()),
    };

    let rates = cfg
        .rates
        .clone()
        .unwrap_or_else(|| Rates::uniform(graph.id_bound(), 1.0));
    let cost = cfg
        .cost
        .unwrap_or_else(|| CostModel::from_aggregate(&query.aggregate));
    // Window fill for the §4.2 cost model: explicit hint, or estimated
    // from the window spec and the mean write rate. Landmark windows
    // fill with the writer's whole history (rate × stream horizon) —
    // pricing them as one value made pull plans look absurdly cheap
    // for running aggregates.
    let writer_window = cfg.writer_window.unwrap_or_else(|| {
        let positive: Vec<f64> = rates.write.iter().copied().filter(|&w| w > 0.0).collect();
        let mean_rate = if positive.is_empty() {
            1.0
        } else {
            positive.iter().sum::<f64>() / positive.len() as f64
        };
        let interval = if mean_rate > 0.0 {
            1.0 / mean_rate
        } else {
            1.0
        };
        query
            .window
            .expected_size(interval, cfg.stream_horizon)
            .round()
            .max(1.0) as usize
    });
    // Continuous queries must keep every result up to date: all push.
    let algorithm = match query.mode {
        QueryMode::Continuous => DecisionAlgorithm::AllPush,
        QueryMode::QuasiContinuous => cfg.decision_algorithm,
    };
    let mut p = plan(
        overlay,
        &rates,
        &cost,
        &PlannerConfig {
            algorithm,
            split: cfg.split,
            writer_window,
            push_amplification: 2.0,
        },
    );
    let runtime = match cfg.execution {
        ExecutionMode::SingleThreaded => {
            let core = EngineCore::new(
                query.aggregate.clone(),
                Arc::new(p.overlay.clone()),
                &p.decisions,
                query.window,
            );
            Runtime::Local(Arc::new(core))
        }
        ExecutionMode::Sharded { shards } => {
            let scfg = ShardedConfig::builder()
                .shards(shards.max(1))
                .rebalance(cfg.rebalance)
                .transport(cfg.transport)
                .build();
            // The plan carries the partition so planner and engine
            // agree on shard ownership; the planner scores hash, chunk,
            // and edge-cut candidates by modeled cross-shard delta
            // volume and keeps the cheapest.
            p = p.with_auto_partition(scfg.shards);
            let engine = ShardedEngine::from_plan(&p, query.aggregate.clone(), query.window, &scfg);
            Runtime::Sharded(Arc::new(engine))
        }
    };
    Compiled {
        stratum: Stratum {
            agg: query.aggregate.clone(),
            window: query.window,
            neighborhood: query.neighborhood.clone(),
            overlay: p.overlay.clone(),
            decisions: p.decisions.clone(),
            runtime,
            refs: RefCounts::new(),
            queries: 0,
            repair: None,
        },
        plan: p,
        bipartite: ag,
        construction,
        cost,
        writer_window,
    }
}

/// Rebuild a stratum's runtime over a grown (or shrunk) overlay. Unlike
/// [`compile_stratum`] this re-freezes an overlay that was extended in
/// place — no planner run, no partition carry: decisions were extended
/// incrementally ([`extend_decisions`]) and the sharded engine re-derives
/// an edge-cut partition from the new push topology.
fn rebuild_runtime<A: Aggregate + Clone>(
    cfg: &BuildConfig,
    agg: &A,
    overlay: Arc<Overlay>,
    decisions: &Decisions,
    window: WindowSpec,
) -> Runtime<A>
where
    A::Output: Send,
{
    match cfg.execution {
        ExecutionMode::SingleThreaded => Runtime::Local(Arc::new(EngineCore::new(
            agg.clone(),
            overlay,
            decisions,
            window,
        ))),
        ExecutionMode::Sharded { shards } => {
            let scfg = ShardedConfig::builder()
                .shards(shards.max(1))
                .strategy(PartitionStrategy::EdgeCut)
                .rebalance(cfg.rebalance)
                .transport(cfg.transport)
                .build();
            Runtime::Sharded(Arc::new(ShardedEngine::new(
                agg.clone(),
                overlay,
                decisions,
                window,
                &scfg,
            )))
        }
    }
}

/// Shared mutable state behind an [`EagrSystem`] and every
/// [`QueryHandle`] cloned off it.
///
/// Lock order: `registry` before `graph` before `history` — every path
/// that takes more than one takes them in that order.
pub(crate) struct SystemInner<A: Aggregate> {
    pub(crate) registry: RwLock<Registry<A>>,
    /// The live data graph. Topology mutations
    /// ([`EagrSystem::mutate_topology`], mutation runs inside
    /// [`EagrSystem::ingest`]) rewrite it under the write lock.
    pub(crate) graph: RwLock<DataGraph>,
    pub(crate) history: Mutex<WriteHistory>,
    /// Timestamp source for [`EagrSystem::ingest`]: events are stamped
    /// with consecutive stream positions across calls.
    pub(crate) clock: AtomicU64,
    pub(crate) next_query: AtomicU64,
    pub(crate) config: BuildConfig,
}

/// A compiled, runnable EAGr instance serving one or more registered
/// queries (see [`attach`](EagrSystem::attach)).
pub struct EagrSystem<A: Aggregate> {
    inner: Arc<SystemInner<A>>,
    plan: Plan,
    bipartite: BipartiteGraph,
    construction: Vec<IterationStats>,
    cost: CostModel,
    writer_window: usize,
}

/// Structural summary of a compiled system.
#[derive(Clone, Debug)]
pub struct SystemStats {
    /// Bipartite edges (|E'| of AG).
    pub bipartite_edges: usize,
    /// Overlay edges (|E''|) after any §4.7 splitting.
    pub overlay_edges: usize,
    /// Sharing index (§3.1), measured on the overlay as constructed
    /// (before §4.7 splitting, which deliberately adds edges).
    pub sharing_index: f64,
    /// Partial aggregation nodes.
    pub partial_nodes: usize,
    /// Push-annotated overlay nodes.
    pub push_nodes: usize,
    /// §4.7 splits applied.
    pub splits: usize,
    /// Mean reader depth (Fig 11a).
    pub average_depth: f64,
    /// Modeled total cost of the installed decisions.
    pub modeled_cost: f64,
}

/// A live handle on one registered query (see [`EagrSystem::attach`]).
///
/// Reads are *handle-scoped*: [`read`](Self::read) answers only for data
/// nodes this query's predicate selected, even when the underlying stratum
/// serves other queries with wider reader sets. Handles are cheap to clone
/// (an `Arc` + id) and stay valid — but answer `None` — after
/// [`detach`](EagrSystem::detach).
pub struct QueryHandle<A: Aggregate> {
    inner: Arc<SystemInner<A>>,
    id: u64,
}

impl<A: Aggregate> Clone for QueryHandle<A> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
            id: self.id,
        }
    }
}

impl<A: Aggregate> std::fmt::Debug for QueryHandle<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryHandle")
            .field("id", &self.id)
            .field("attached", &self.is_attached())
            .finish()
    }
}

impl<A: Aggregate> QueryHandle<A> {
    /// The registry id of this query (`0` is the primary build query).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Whether the query is still registered (false after detach).
    pub fn is_attached(&self) -> bool {
        self.inner.registry.read().queries.contains_key(&self.id)
    }

    /// What attaching this query reused vs. materialized (`None` once
    /// detached).
    pub fn attach_report(&self) -> Option<AttachReport> {
        self.inner
            .registry
            .read()
            .queries
            .get(&self.id)
            .map(|e| e.report)
    }

    /// Evaluate this query at `v`. `None` when `v` is outside the query's
    /// reader set or the handle is detached. Epoch-consistent in sharded
    /// mode (routed through the shard inboxes, same as
    /// [`EagrSystem::read`]).
    pub fn read(&self, v: NodeId) -> Option<A::Output> {
        let reg = self.inner.registry.read();
        let entry = reg.queries.get(&self.id)?;
        entry.readers.binary_search(&v).ok()?;
        let st = reg.strata[entry.stratum].as_ref()?;
        st.runtime.read(v)
    }

    /// Evaluate this query at a batch of nodes; result `i` answers
    /// `nodes[i]` (`None` outside the query's reader set, everywhere when
    /// detached).
    pub fn read_batch(&self, nodes: &[NodeId]) -> Vec<Option<A::Output>> {
        let reg = self.inner.registry.read();
        let Some(entry) = reg.queries.get(&self.id) else {
            return vec![None; nodes.len()];
        };
        let Some(st) = reg.strata[entry.stratum].as_ref() else {
            return vec![None; nodes.len()];
        };
        let mut out = st.runtime.read_batch(nodes);
        for (i, v) in nodes.iter().enumerate() {
            if entry.readers.binary_search(v).is_err() {
                out[i] = None;
            }
        }
        out
    }
}

impl<A: Aggregate> EagrSystem<A> {
    /// Start building a system for a query.
    pub fn builder(query: EgoQuery<A>) -> SystemBuilder<A>
    where
        A: Clone,
    {
        SystemBuilder::new(query)
    }

    /// A handle on the primary query the system was built with (id 0) —
    /// the same handle-scoped read surface attached queries get.
    pub fn handle(&self) -> QueryHandle<A> {
        QueryHandle {
            inner: Arc::clone(&self.inner),
            id: 0,
        }
    }

    /// Register an additional query against the *running* system.
    ///
    /// The new query's plan is diffed against the live overlay state. When
    /// a compatible **stratum** exists — same window spec, same
    /// neighborhood shape (filtered neighborhoods compare by filter
    /// pointer identity) — the overlay is extended *in place*: existing
    /// readers, writers, and partial aggregation nodes are reused with
    /// their already-materialized PAOs and window buffers (§3's
    /// aggregation sharing, exercised at runtime), and only the delta is
    /// materialized. Otherwise a cold stratum is compiled through the full
    /// planner pipeline. Either way, writers the query introduces
    /// mid-stream are backfilled from the bounded write-history ring
    /// ([`SystemBuilder::history`]).
    ///
    /// The returned [`QueryHandle`] scopes reads to this query's reader
    /// set; [`QueryHandle::attach_report`] says what was reused. Shared
    /// ingestion ([`ingest`](Self::ingest) / [`write`](Self::write)) feeds
    /// every registered query.
    ///
    /// Caveat: stratum compatibility does not inspect the aggregate
    /// *instance* — a query joining a warm stratum is served by that
    /// stratum's aggregate (e.g. attaching `TopK::new(10)` onto a
    /// `TopK::new(5)` stratum answers with the stratum's `k = 5`). Use a
    /// distinct window or neighborhood to force a separate stratum when
    /// parameterized aggregates differ.
    pub fn attach(&self, query: EgoQuery<A>) -> QueryHandle<A>
    where
        A: Clone,
        A::Output: Send,
    {
        let id = self.inner.next_query.fetch_add(1, Ordering::Relaxed);
        let now = self.inner.clock.load(Ordering::Relaxed);
        let mut reg = self.inner.registry.write();
        let graph = self.inner.graph.read();

        // The query's reader set and per-reader input lists — the same
        // shape `BipartiteGraph::build` produces for a cold compile.
        let mut wants: Vec<(NodeId, Vec<NodeId>)> = Vec::new();
        for v in graph.nodes() {
            if !(query.predicate)(v) {
                continue;
            }
            let mut list = query.neighborhood.select(&graph, v);
            if list.is_empty() {
                continue;
            }
            list.sort_unstable();
            list.dedup();
            wants.push((v, list));
        }
        let mut readers: Vec<NodeId> = wants.iter().map(|&(r, _)| r).collect();
        readers.sort_unstable();

        let (si, mut report) = match reg.find_compatible(query.window, &query.neighborhood) {
            Some(si) => {
                let st = reg.strata[si].as_mut().expect("compatible stratum is live");
                let outcome = extend_with_readers(&mut st.overlay, &wants);
                st.repair = None;
                let mut fresh: Vec<OverlayId> = outcome
                    .new_writers
                    .iter()
                    .chain(&outcome.new_readers)
                    .copied()
                    .collect();
                fresh.sort_unstable();
                let (decisions, upgraded) = extend_decisions(&st.overlay, &st.decisions, &fresh);
                st.decisions = decisions;

                // Fresh writers answer over history they never saw live.
                let mut backfill: Vec<(OverlayId, WindowBuffer)> = Vec::new();
                let (mut backfilled, mut cold) = (0usize, 0usize);
                {
                    let history = self.inner.history.lock();
                    for &wid in &outcome.new_writers {
                        let OverlayKind::Writer(w) = st.overlay.kind(wid) else {
                            continue;
                        };
                        let (buf, exact) = history.backfill(w, st.window, now);
                        if exact {
                            backfilled += 1;
                        } else {
                            cold += 1;
                        }
                        if !buf.is_empty() {
                            backfill.push((wid, buf));
                        }
                    }
                }

                // Carry warm state across the rebuild by index (overlay
                // ids are append-only stable under extension), then
                // materialize only the delta.
                let carried = st.runtime.export_state();
                let runtime = rebuild_runtime(
                    &self.inner.config,
                    &st.agg,
                    Arc::new(st.overlay.clone()),
                    &st.decisions,
                    st.window,
                );
                let fresh_push: FastSet<OverlayId> =
                    fresh.iter().chain(&upgraded).copied().collect();
                runtime.seed(Some(carried), &backfill, &fresh_push);
                st.runtime = runtime;
                st.refs.ensure_len(st.overlay.node_count());
                (
                    si,
                    AttachReport {
                        shared_stratum: true,
                        fresh_paos: fresh.len(),
                        reused_paos: 0, // filled from the used subtree below
                        reused_partials: outcome.reused_partials,
                        upgraded: upgraded.len(),
                        backfilled_writers: backfilled,
                        cold_writers: cold,
                    },
                )
            }
            None => {
                let compiled = compile_stratum(&self.inner.config, &query, &graph);
                let st = compiled.stratum;
                // A cold stratum starts mid-stream: backfill *every*
                // writer from history, then materialize the whole push
                // region in topological order.
                let mut backfill: Vec<(OverlayId, WindowBuffer)> = Vec::new();
                let (mut backfilled, mut cold) = (0usize, 0usize);
                {
                    let history = self.inner.history.lock();
                    for (wid, w) in st.overlay.writers() {
                        let (buf, exact) = history.backfill(w, st.window, now);
                        if exact {
                            backfilled += 1;
                        } else {
                            cold += 1;
                        }
                        if !buf.is_empty() {
                            backfill.push((wid, buf));
                        }
                    }
                }
                let fresh_push: FastSet<OverlayId> = st.overlay.ids().collect();
                st.runtime.seed(None, &backfill, &fresh_push);
                let fresh_count = st.overlay.live_node_count();
                let si = match reg.strata.iter().position(Option::is_none) {
                    Some(slot) => {
                        reg.strata[slot] = Some(st);
                        slot
                    }
                    None => {
                        reg.strata.push(Some(st));
                        reg.strata.len() - 1
                    }
                };
                (
                    si,
                    AttachReport {
                        shared_stratum: false,
                        fresh_paos: fresh_count,
                        backfilled_writers: backfilled,
                        cold_writers: cold,
                        ..Default::default()
                    },
                )
            }
        };

        // Common registration: acquire references on the query's
        // transitive input closure so detach of *other* queries can never
        // retire anything this one reads.
        let st = reg.strata[si].as_mut().expect("target stratum is live");
        let roots: Vec<OverlayId> = readers
            .iter()
            .filter_map(|&r| st.overlay.reader(r))
            .collect();
        let used = used_subtree(&st.overlay, &roots);
        st.refs.ensure_len(st.overlay.node_count());
        st.refs.acquire(&used);
        st.queries += 1;
        report.reused_paos = used
            .len()
            .saturating_sub(report.fresh_paos + report.upgraded);
        reg.queries.insert(
            id,
            QueryEntry {
                stratum: si,
                readers,
                used,
                report,
            },
        );
        QueryHandle {
            inner: Arc::clone(&self.inner),
            id,
        }
    }

    /// Deregister a query. Reference-counted: overlay nodes (and their
    /// PAOs) shared with remaining queries stay untouched; nodes only this
    /// query read are retired and the stratum's runtime is rebuilt around
    /// the survivors (warm state carried by index). Dropping the last
    /// query of a stratum tears the whole stratum down.
    ///
    /// Detaching an already-detached handle is a no-op returning a default
    /// (all-zero) report.
    pub fn detach(&self, handle: QueryHandle<A>) -> DetachReport
    where
        A: Clone,
        A::Output: Send,
    {
        let mut reg = self.inner.registry.write();
        let Some(entry) = reg.queries.remove(&handle.id) else {
            return DetachReport::default();
        };
        let si = entry.stratum;
        let st = reg.strata[si].as_mut().expect("entry's stratum is live");
        st.queries -= 1;
        let mut zeroed = st.refs.release(&entry.used);
        // A topology repair may have retired some of them already.
        zeroed.retain(|&n| !st.overlay.is_retired(n));
        if st.queries == 0 {
            let retired = st.overlay.live_node_count();
            reg.strata[si] = None; // drops overlay + engine
            return DetachReport {
                retired_paos: retired,
                retained_paos: 0,
                stratum_dropped: true,
            };
        }
        if zeroed.is_empty() {
            return DetachReport {
                retired_paos: 0,
                retained_paos: entry.used.len(),
                stratum_dropped: false,
            };
        }
        // Safe to retire: every remaining query holds a reference on every
        // node of its own used subtree, so a zero-count node is upstream
        // of no surviving reader.
        let carried = st.runtime.export_state();
        for &n in &zeroed {
            st.overlay.retire_node(n);
        }
        st.repair = None;
        let runtime = rebuild_runtime(
            &self.inner.config,
            &st.agg,
            Arc::new(st.overlay.clone()),
            &st.decisions,
            st.window,
        );
        runtime.seed(Some(carried), &[], &FastSet::default());
        st.runtime = runtime;
        DetachReport {
            retired_paos: zeroed.len(),
            retained_paos: entry.used.len() - zeroed.len(),
            stratum_dropped: false,
        }
    }

    /// Registry-level summary: live strata, attached queries, live overlay
    /// nodes across strata.
    pub fn registry_stats(&self) -> RegistryStats {
        self.inner.registry.read().stats()
    }

    /// Apply a content update (a *write* on `v`) — fans out to **every**
    /// registered query's stratum.
    ///
    /// Synchronous in single-threaded mode, as the batch of one of the
    /// engine's batch kernel ([`EngineCore::write_batch`]); in
    /// [`ExecutionMode::Sharded`] the write is routed to its owning shard
    /// and drained (one single-event epoch) — use [`ingest`](Self::ingest)
    /// / [`write_batch`](Self::write_batch) for throughput. Returns PAO
    /// updates performed where known (0 in sharded mode).
    pub fn write(&self, v: NodeId, value: i64, ts: u64) -> usize {
        // Keep the ingest clock ahead of explicitly timestamped point
        // writes (same guard as `apply_batch`): a later `ingest` must
        // never re-issue `ts` or stamp events before it.
        self.inner.clock.fetch_max(ts + 1, Ordering::Relaxed);
        let reg = self.inner.registry.read();
        self.inner.history.lock().record(v, value, ts);
        let mut applied = 0;
        for st in reg.live() {
            match &st.runtime {
                Runtime::Local(core) => {
                    applied += core.write(v, value, ts);
                }
                Runtime::Sharded(eng) => {
                    transport_ok(eng.submit_write(v, value, ts));
                    transport_ok(eng.drain());
                }
            }
        }
        applied
    }

    /// Evaluate the primary query at `v` (a *read* on `v`). For attached
    /// queries, read through their [`QueryHandle`] instead.
    ///
    /// Synchronous on the shared core in single-threaded mode. In
    /// [`ExecutionMode::Sharded`] the read is routed to the shard worker
    /// owning its reader and evaluated there, epoch-consistently
    /// ([`ShardedEngine::read_service`]) — the caller thread never
    /// evaluates shard-owned PAO state. That consistency is not free: each
    /// call pins the epoch gate and drains in-flight work, briefly
    /// pausing concurrent ingestion. Use [`read_batch`](Self::read_batch)
    /// to amortize that cost over many reads, or
    /// [`read_relaxed`](Self::read_relaxed) for cheap polling that
    /// tolerates mid-epoch state.
    pub fn read(&self, v: NodeId) -> Option<A::Output> {
        let reg = self.inner.registry.read();
        reg.primary().and_then(|st| st.runtime.read(v))
    }

    /// Evaluate the primary query at `v` without consistency guarantees:
    /// identical to [`read`](Self::read) in single-threaded mode, but in
    /// [`ExecutionMode::Sharded`] it evaluates on the calling thread
    /// through the slab read locks ([`ShardedEngine::read`]) — no epoch
    /// gate, no drain, no pause of concurrent ingestion. Between epochs it
    /// may observe partially propagated writes (the relaxed consistency
    /// the paper accepts); after a drain it equals [`read`](Self::read).
    /// It never reads a superseded topology: a topology epoch patches the
    /// engine's core in place, and a relaxed read waits out that install.
    /// The right choice for hot polling loops and monitoring probes.
    pub fn read_relaxed(&self, v: NodeId) -> Option<A::Output> {
        let reg = self.inner.registry.read();
        let st = reg.primary()?;
        match &st.runtime {
            Runtime::Local(core) => core.read(v),
            Runtime::Sharded(eng) => eng.read(v),
        }
    }

    /// Evaluate a batch of reads against the primary query; result `i`
    /// answers the query at `nodes[i]` (`None` when the node has no
    /// reader).
    ///
    /// Mode-aware routing: single-threaded mode evaluates synchronously on the
    /// shared core; [`ExecutionMode::Sharded`] fans the batch out to the
    /// shard workers owning each reader ([`ShardedEngine::read_batch`]),
    /// where push finalizes and the local part of pull trees run against
    /// the worker's own slab — epoch-consistent even under concurrent
    /// ingestion.
    pub fn read_batch(&self, nodes: &[NodeId]) -> Vec<Option<A::Output>> {
        let reg = self.inner.registry.read();
        match reg.primary() {
            Some(st) => st.runtime.read_batch(nodes),
            None => vec![None; nodes.len()],
        }
    }

    /// Expire time-window values across **every** registered query's
    /// stratum. Returns PAO updates performed, summed across strata.
    ///
    /// In single-threaded mode the sweep's removals propagate as one batch
    /// ([`EngineCore::advance_time`]): each dirty PAO is updated once.
    ///
    /// In [`ExecutionMode::Sharded`] the sweep is routed through the shard
    /// inboxes — each owning worker expires its own writers' windows — and
    /// drained as one epoch, so it is safe to call concurrently with
    /// ingestion (the caller thread never mutates shard-owned state). The
    /// returned count then covers everything applied while the sweep
    /// drained, including concurrently ingested writes.
    pub fn advance_time(&self, ts: u64) -> usize {
        let reg = self.inner.registry.read();
        reg.live()
            .map(|st| match &st.runtime {
                Runtime::Local(core) => core.advance_time(ts),
                Runtime::Sharded(eng) => transport_ok(eng.advance_time_epoch(ts)) as usize,
            })
            .sum()
    }

    /// Apply one timestamped batch through the mode's batch path and wait
    /// for it to be fully applied; returns an [`IngestReport`] of events
    /// executed (each event counted once, however many queries it feeds).
    ///
    /// * single-threaded — one batch-kernel call per content run, then
    ///   the run's reads, evaluated after its writes;
    /// * sharded — one ingestion epoch ([`ShardedEngine::ingest_epoch`]).
    pub fn write_batch(&self, batch: &EventBatch) -> IngestReport
    where
        A: Clone,
        A::Output: Send,
    {
        self.apply_batch(&batch.events, batch.base_ts)
    }

    /// Ingest a run of events through the mode's batch path, stamping them
    /// with consecutive stream positions (continuing across calls);
    /// returns an [`IngestReport`]. Equivalent to
    /// [`write_batch`](Self::write_batch) with an automatic base
    /// timestamp. The shared stream feeds every registered query.
    ///
    /// Only the state at the end of the call is observable. In
    /// single-threaded mode each content run between topology mutations
    /// goes through the batch kernel ([`EngineCore::write_batch`]) as one
    /// batch, and the run's reads are evaluated after its writes.
    pub fn ingest(&self, events: &[Event]) -> IngestReport
    where
        A: Clone,
        A::Output: Send,
    {
        let base_ts = self
            .inner
            .clock
            .fetch_add(events.len() as u64, Ordering::Relaxed);
        self.apply_batch(events, base_ts)
    }

    /// The shared borrowing batch path behind [`write_batch`](Self::write_batch)
    /// and [`ingest`](Self::ingest); event `i` carries `base_ts + i`.
    ///
    /// The stream is split into maximal content/topology runs at the same
    /// positions in every mode: content runs go down the mode's batch
    /// path, each topology run becomes one repair epoch
    /// ([`apply_topo_run`](Self::apply_topo_run)) between them, so a write
    /// after a mutation always executes on the mutated topology.
    fn apply_batch(&self, events: &[Event], base_ts: u64) -> IngestReport
    where
        A: Clone,
        A::Output: Send,
    {
        // Keep the ingest clock ahead of explicitly timestamped batches so
        // mixed use of write_batch and ingest stays monotonic.
        self.inner
            .clock
            .fetch_max(base_ts + events.len() as u64, Ordering::Relaxed);
        let mut report = IngestReport::default();
        let mut i = 0;
        while i < events.len() {
            let topo = events[i].is_topo();
            let start = i;
            while i < events.len() && events[i].is_topo() == topo {
                i += 1;
            }
            let run = &events[start..i];
            if topo {
                report.mutations += run.len();
                self.apply_topo_run(run);
            } else {
                self.apply_content_run(run, base_ts + start as u64, &mut report);
            }
        }
        report
    }

    /// One maximal run of content (write/read) events down the mode's
    /// batch path; event `i` of the run carries `base_ts + i`.
    fn apply_content_run(&self, events: &[Event], base_ts: u64, report: &mut IngestReport)
    where
        A::Output: Send,
    {
        let reg = self.inner.registry.read();
        {
            let mut history = self.inner.history.lock();
            for (i, e) in events.iter().enumerate() {
                if let Event::Write { node, value } = *e {
                    history.record(node, value, base_ts + i as u64);
                }
            }
        }
        for e in events {
            match e {
                Event::Write { .. } => report.writes += 1,
                Event::Read { .. } => report.reads += 1,
                Event::AddEdge { .. }
                | Event::RemoveEdge { .. }
                | Event::AddNode { .. }
                | Event::RemoveNode { .. } => {
                    unreachable!("content runs contain no topology mutations")
                }
            }
        }
        // The run's writes as one kernel batch, collected for the first
        // single-threaded stratum and shared by the rest.
        let mut writes: Option<Vec<(NodeId, i64, u64)>> = None;
        for st in reg.live() {
            match &st.runtime {
                Runtime::Local(core) => {
                    let writes = writes.get_or_insert_with(|| {
                        (base_ts..)
                            .zip(events)
                            .filter_map(|(ts, e)| {
                                let Event::Write { node, value } = *e else {
                                    return None;
                                };
                                Some((node, value, ts))
                            })
                            .collect()
                    });
                    core.write_batch(writes);
                    // Reads inside a run are unobservable: evaluate each
                    // once, against the post-run state.
                    for e in events {
                        if let Event::Read { node } = *e {
                            std::hint::black_box(core.read(node));
                        }
                    }
                }
                Runtime::Sharded(eng) => {
                    let _ = transport_ok(eng.ingest_epoch_at(events, base_ts));
                }
            }
        }
    }

    /// Apply a run of topology mutations (edge/node churn) outside an
    /// ingest stream: the same path a mutation run embedded in
    /// [`ingest`](Self::ingest) takes. Invalid mutations — duplicate
    /// edges, dead endpoints, already-removed nodes — are counted as
    /// `skipped`, never errors, so generated churn streams replay safely.
    /// Content events in `muts` are skipped too.
    ///
    /// Returns what this run did; cumulative totals live in
    /// [`registry_stats`](Self::registry_stats) under
    /// [`RegistryStats::topo`].
    pub fn mutate_topology(&self, muts: &[Event]) -> TopoReport
    where
        A: Clone,
        A::Output: Send,
    {
        self.apply_topo_run(muts)
    }

    /// Apply one maximal run of topology mutations: validate against the
    /// shared graph, repair every stratum's overlay incrementally (§3.3
    /// via [`DynamicOverlay`]), map each repair to a plan delta
    /// ([`topo_plan_delta`] — no planner re-run), and move each runtime
    /// onto the repaired topology. The sharded engine patches its core in
    /// place through [`ShardedEngine::apply_topo`] (workers keep running
    /// across the epoch); single-threaded mode rebuilds and re-seeds from
    /// carried state. The overlay handed to the engine is a clone that
    /// shares every copy-on-write chunk the repair did not touch.
    ///
    /// A run costs the region it touches, not the graph: validation applies
    /// each mutation to the live graph under an [`UndoLog`]; each stratum
    /// then rolls the graph back and replays the valid run through its
    /// resident [`RepairIndex`], so the last replay leaves the graph in its
    /// post-run state. No graph or index is copied or rebuilt, except an
    /// index a stratum does not hold yet (see [`TopoReport::index_builds`]).
    fn apply_topo_run(&self, muts: &[Event]) -> TopoReport
    where
        A: Clone,
        A::Output: Send,
    {
        let mut reg = self.inner.registry.write();
        let mut graph = self.inner.graph.write();
        let now = self.inner.clock.load(Ordering::Relaxed);
        let mut run = TopoReport::default();
        // Validate on the live graph, so every stratum — and every
        // execution mode — replays the same applied subsequence.
        let mut undo = UndoLog::new(&graph);
        let mut valid: Vec<Event> = Vec::with_capacity(muts.len());
        for &e in muts {
            let ok = match e {
                Event::AddEdge { from, to } | Event::RemoveEdge { from, to }
                    if !(graph.contains(from) && graph.contains(to)) =>
                {
                    false
                }
                Event::AddEdge { from, to } => {
                    undo.record_edge(&graph, from, to);
                    graph.add_edge(from, to)
                }
                Event::RemoveEdge { from, to } => {
                    undo.record_edge(&graph, from, to);
                    graph.remove_edge(from, to)
                }
                Event::AddNode { node } => {
                    // Ids are append-only; a mutation naming a bound id
                    // (live or tombstoned) is a replayed duplicate.
                    if node.idx() < graph.id_bound() {
                        false
                    } else {
                        while graph.id_bound() <= node.idx() {
                            graph.add_node();
                        }
                        true
                    }
                }
                Event::RemoveNode { node } => {
                    if graph.contains(node) {
                        undo.record_node_removal(&graph, node);
                        graph.remove_node(node);
                        true
                    } else {
                        false
                    }
                }
                // Content events never belong in a topology run.
                Event::Write { .. } | Event::Read { .. } => false,
            };
            if ok {
                valid.push(e);
            } else {
                run.skipped += 1;
            }
        }
        run.applied = valid.len() as u64;
        if valid.is_empty() {
            reg.topo.absorb(&run);
            return run;
        }
        run.epochs = 1;
        for slot in reg.strata.iter_mut() {
            let Some(st) = slot.as_mut() else { continue };
            // The repair diffs neighborhoods before/after each mutation,
            // so it starts from the pre-run graph; its replay lands on the
            // same post-run graph validation reached.
            graph.rollback(&undo);
            let index = st.repair.take().unwrap_or_else(|| {
                run.index_builds += 1;
                RepairIndex::build(&st.overlay)
            });
            let old_n = st.overlay.node_count();
            let mut dyn_ov = DynamicOverlay::resume(
                std::mem::take(&mut st.overlay),
                index,
                st.neighborhood.clone(),
                st.agg.props(),
                DynamicConfig::default(),
            );
            for &e in &valid {
                match e {
                    Event::AddEdge { from, to } => {
                        dyn_ov.add_edge(&mut graph, from, to);
                    }
                    Event::RemoveEdge { from, to } => {
                        dyn_ov.remove_edge(&mut graph, from, to);
                    }
                    Event::AddNode { node } => {
                        while graph.id_bound() <= node.idx() {
                            dyn_ov.add_node(&mut graph);
                        }
                    }
                    Event::RemoveNode { node } => dyn_ov.remove_node(&mut graph, node),
                    Event::Write { .. } | Event::Read { .. } => {}
                }
            }
            let dirty = dyn_ov.take_dirty();
            let retired = dyn_ov
                .take_retired()
                .iter()
                .filter(|n| n.idx() < old_n)
                .count();
            let (overlay, index) = dyn_ov.into_parts();
            st.repair = Some(index);
            let fresh: Vec<OverlayId> = (old_n..overlay.node_count())
                .map(|i| OverlayId(i as u32))
                .filter(|&n| !overlay.is_retired(n))
                .collect();
            let delta = topo_plan_delta(&overlay, &st.decisions, &fresh, &dirty);
            // Writers born mid-stream answer over history they never saw
            // arrive.
            let mut backfill: Vec<(OverlayId, WindowBuffer)> = Vec::new();
            {
                let history = self.inner.history.lock();
                for &wid in &fresh {
                    if let OverlayKind::Writer(w) = overlay.kind(wid) {
                        let (buf, _exact) = history.backfill(w, st.window, now);
                        if !buf.is_empty() {
                            backfill.push((wid, buf));
                        }
                    }
                }
            }
            let frozen = Arc::new(overlay.clone());
            match &st.runtime {
                Runtime::Sharded(eng) => {
                    let rep = transport_ok(eng.apply_topo(
                        st.agg.clone(),
                        frozen,
                        &delta.decisions,
                        &backfill,
                        &delta.materialize,
                    ));
                    run.rematerialized += rep.rematerialized as u64;
                }
                _ => {
                    let carried = st.runtime.export_state();
                    let runtime = rebuild_runtime(
                        &self.inner.config,
                        &st.agg,
                        frozen,
                        &delta.decisions,
                        st.window,
                    );
                    runtime.seed(Some(carried), &backfill, &delta.materialize);
                    st.runtime = runtime;
                    run.rematerialized += delta.materialize.len() as u64;
                }
            }
            run.fresh_overlay_nodes += fresh.len() as u64;
            run.retired_overlay_nodes += retired as u64;
            // Queries hold references on what they read when they attached;
            // the stratum itself holds what its repairs wired in (rewired
            // and fresh nodes with their inputs), so a detach never retires
            // a node a repaired reader reads.
            let wired: Vec<OverlayId> = fresh.iter().chain(&dirty).copied().collect();
            st.refs.acquire(&used_subtree(&overlay, &wired));
            st.overlay = overlay;
            st.decisions = delta.decisions;
            st.refs.ensure_len(st.overlay.node_count());
        }
        reg.topo.absorb(&run);
        run
    }

    /// Apply a generated event stream; returns an [`IngestReport`].
    pub fn run_events(&self, events: &[Event]) -> IngestReport
    where
        A: Clone,
        A::Output: Send,
    {
        self.ingest(events)
    }

    /// Current stream position of the [`ingest`](Self::ingest) clock: the
    /// timestamp the next auto-stamped event will receive.
    pub fn stream_position(&self) -> u64 {
        self.inner.clock.load(Ordering::Relaxed)
    }

    /// The primary stratum's shared engine core (for a
    /// [`ParallelEngine`](eagr_exec::ParallelEngine) or adaptive execution).
    ///
    /// # Panics
    /// Panics in [`ExecutionMode::Sharded`], where PAO state lives in
    /// shard slabs — use [`sharded_engine`](Self::sharded_engine) instead.
    pub fn core(&self) -> Arc<EngineCore<A>> {
        let reg = self.inner.registry.read();
        let st = reg.primary().expect("no live stratum");
        match &st.runtime {
            Runtime::Local(core) => Arc::clone(core),
            Runtime::Sharded(_) => {
                panic!("core() requires a local execution mode; use sharded_engine()")
            }
        }
    }

    /// The primary stratum's resident sharded engine, when built with
    /// [`ExecutionMode::Sharded`].
    pub fn sharded_engine(&self) -> Option<Arc<ShardedEngine<A>>> {
        let reg = self.inner.registry.read();
        match &reg.primary()?.runtime {
            Runtime::Sharded(eng) => Some(Arc::clone(eng)),
            _ => None,
        }
    }

    /// Manually trigger one live shard rebalance
    /// ([`ShardedEngine::rebalance`]): refine the node→shard map from
    /// observed load and migrate the affected PAO state with the two-phase
    /// copy-then-flip protocol — ingestion keeps running through the copy;
    /// only the final flip is epoch-fenced. `None` in single-threaded mode
    /// (there is nothing to rebalance).
    pub fn rebalance(&self) -> Option<MigrationReport> {
        self.sharded_engine()
            .map(|eng| transport_ok(eng.rebalance()))
    }

    /// Compact the sharded PAO slabs, reclaiming slots orphaned by past
    /// migrations ([`ShardedEngine::compact`]). Returns the number of
    /// slots reclaimed; `None` in single-threaded mode (local stores have no
    /// slabs to compact).
    pub fn compact(&self) -> Option<u64> {
        self.sharded_engine().map(|eng| transport_ok(eng.compact()))
    }

    /// Wrap the engine with §4.8 runtime adaptation (single-threaded mode only; see
    /// [`core`](Self::core)).
    pub fn adaptive(&self, check_every: u64) -> AdaptiveEngine<A> {
        AdaptiveEngine::new(self.core(), self.cost, self.writer_window, check_every)
    }

    /// The overlay the primary query compiled to (a construction-time
    /// snapshot: live attach/detach extends the registry's copy, not
    /// this one — see [`registry_stats`](Self::registry_stats)).
    pub fn overlay(&self) -> &Overlay {
        &self.plan.overlay
    }

    /// The primary query's dataflow plan (construction-time snapshot).
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The bipartite writer/reader graph the primary overlay was compiled
    /// from.
    pub fn bipartite(&self) -> &BipartiteGraph {
        &self.bipartite
    }

    /// Per-iteration construction statistics (empty for `Direct`).
    pub fn construction_stats(&self) -> &[IterationStats] {
        &self.construction
    }

    /// Structural summary of the primary build.
    pub fn stats(&self) -> SystemStats {
        SystemStats {
            bipartite_edges: self.bipartite.edge_count(),
            overlay_edges: self.plan.overlay.edge_count(),
            sharing_index: self.plan.pre_split_sharing_index,
            partial_nodes: self.plan.overlay.partial_count(),
            push_nodes: self.plan.decisions.push_count(),
            splits: self.plan.splits,
            average_depth: metrics::average_depth(&self.plan.overlay),
            modeled_cost: self.plan.modeled_cost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::NaiveOracle;
    use crate::query::EgoQuery;
    use eagr_agg::{Max, Sum, TopK, WindowSpec};
    use eagr_gen::{generate_events, social_graph, WorkloadConfig};
    use eagr_graph::Neighborhood;

    #[test]
    fn end_to_end_sum_matches_oracle() {
        let g = social_graph(200, 4, 9);
        let sys = EagrSystem::builder(EgoQuery::new(Sum))
            .overlay(OverlayAlgorithm::Vnma)
            .build(&g);
        let mut oracle = NaiveOracle::new(Sum, WindowSpec::Tuple(1), Neighborhood::In);
        let events = generate_events(
            200,
            &WorkloadConfig {
                events: 5000,
                ..Default::default()
            },
        );
        for (ts, e) in events.iter().enumerate() {
            if let Event::Write { node, value } = *e {
                sys.write(node, value, ts as u64);
                oracle.write(node, value, ts as u64);
            }
        }
        for v in 0..200u32 {
            let got = sys.read(NodeId(v));
            let want = oracle.read(&g, NodeId(v));
            if let Some(got) = got {
                assert_eq!(got, want, "node {v}");
            }
        }
    }

    #[test]
    fn continuous_mode_forces_push() {
        let g = social_graph(100, 3, 1);
        let sys = EagrSystem::builder(EgoQuery::new(Sum).mode(QueryMode::Continuous)).build(&g);
        // Every overlay node must be push.
        let st = sys.stats();
        assert_eq!(st.push_nodes, sys.overlay().node_count());
    }

    #[test]
    fn duplicate_insensitive_aggregate_uses_vnmd() {
        let g = social_graph(150, 4, 2);
        let sys = EagrSystem::builder(EgoQuery::new(Max))
            .overlay(OverlayAlgorithm::Vnmd)
            .build(&g);
        assert!(sys.stats().sharing_index >= 0.0);
        sys.write(NodeId(0), 5, 0);
        let _ = sys.read(NodeId(1));
    }

    #[test]
    fn stats_are_consistent() {
        let g = social_graph(150, 4, 3);
        let sys = EagrSystem::builder(EgoQuery::new(TopK::new(5)))
            .overlay(OverlayAlgorithm::Vnmn)
            .build(&g);
        let st = sys.stats();
        assert_eq!(st.bipartite_edges, sys.bipartite().edge_count());
        assert!(st.sharing_index <= 1.0);
        assert!(st.push_nodes <= sys.overlay().node_count());
        assert!(st.average_depth >= 1.0);
    }

    #[test]
    fn sharded_mode_matches_oracle_after_epochs() {
        let g = social_graph(150, 4, 11);
        let sys = EagrSystem::builder(EgoQuery::new(Sum))
            .overlay(OverlayAlgorithm::Vnma)
            .execution(ExecutionMode::Sharded { shards: 4 })
            .build(&g);
        assert!(sys.sharded_engine().is_some());
        let mut oracle = NaiveOracle::new(Sum, WindowSpec::Tuple(1), Neighborhood::In);
        let events = generate_events(
            150,
            &WorkloadConfig {
                events: 4000,
                write_to_read: 1e9,
                seed: 12,
                ..Default::default()
            },
        );
        let mut ts = 0u64;
        for batch in eagr_gen::batch_events(&events, 512, 0) {
            sys.write_batch(&batch);
            for (e, _) in batch.iter_timed() {
                if let Event::Write { node, value } = *e {
                    oracle.write(node, value, ts);
                }
                ts += 1;
            }
        }
        for v in 0..150u32 {
            if let Some(got) = sys.read(NodeId(v)) {
                assert_eq!(got, oracle.read(&g, NodeId(v)), "node {v}");
            }
        }
    }

    #[test]
    fn read_batch_agrees_across_modes() {
        let g = social_graph(120, 4, 41);
        let events = generate_events(
            120,
            &WorkloadConfig {
                events: 3000,
                write_to_read: 1e9,
                seed: 42,
                ..Default::default()
            },
        );
        let nodes: Vec<NodeId> = (0..120u32).map(NodeId).collect();
        let modes = [
            ExecutionMode::SingleThreaded,
            ExecutionMode::Sharded { shards: 4 },
        ];
        let mut answers = Vec::new();
        for mode in modes {
            let sys = EagrSystem::builder(EgoQuery::new(Sum))
                .execution(mode)
                .build(&g);
            sys.ingest(&events);
            let batch = sys.read_batch(&nodes);
            // Point reads and batch reads agree within a mode.
            for (i, &v) in nodes.iter().enumerate() {
                assert_eq!(batch[i], sys.read(v), "node {v:?}");
            }
            answers.push(batch);
        }
        assert_eq!(answers[0], answers[1], "sharded diverged from single");
    }

    #[test]
    fn relaxed_reads_agree_after_drain() {
        let g = social_graph(80, 4, 45);
        let sys = EagrSystem::builder(EgoQuery::new(Sum))
            .execution(ExecutionMode::Sharded { shards: 3 })
            .build(&g);
        let events = generate_events(
            80,
            &WorkloadConfig {
                events: 1500,
                write_to_read: 1e9,
                seed: 46,
                ..Default::default()
            },
        );
        sys.ingest(&events); // full epoch: everything drained
        for v in 0..80u32 {
            // With no in-flight writes the relaxed caller-thread path and
            // the epoch-consistent shard-executed path must agree.
            assert_eq!(sys.read_relaxed(NodeId(v)), sys.read(NodeId(v)), "{v}");
        }
    }

    #[test]
    fn landmark_window_defaults_to_push_heavy_plans() {
        // Regression for the Unbounded cost-model bug at the facade level:
        // the builder derives the writer window from the query's window
        // spec, so a landmark-window plan prices pulls at whole-history
        // scans and flips push-heavy even on write-heavy rates.
        let g = social_graph(120, 4, 43);
        let write_heavy = Rates::uniform(120, 5.0);
        let tuple = EagrSystem::builder(EgoQuery::new(Sum).window(WindowSpec::Tuple(1)))
            .overlay(OverlayAlgorithm::Direct)
            .rates(write_heavy.clone())
            .cost_model(CostModel::unit_sum())
            .split(false)
            .build(&g);
        let landmark = EagrSystem::builder(EgoQuery::new(Sum).window(WindowSpec::Unbounded))
            .overlay(OverlayAlgorithm::Direct)
            .rates(write_heavy)
            .cost_model(CostModel::unit_sum())
            .split(false)
            .build(&g);
        let n = landmark.overlay().node_count();
        assert_eq!(
            landmark.stats().push_nodes,
            n,
            "whole-history pulls must push everything"
        );
        assert!(
            tuple.stats().push_nodes < n,
            "single-value windows on write-heavy rates must leave pull nodes"
        );
    }

    #[test]
    fn ingest_clock_is_monotonic_across_calls() {
        let g = social_graph(60, 3, 15);
        let sys = EagrSystem::builder(EgoQuery::new(Sum)).build(&g);
        let events = generate_events(
            60,
            &WorkloadConfig {
                events: 100,
                ..Default::default()
            },
        );
        sys.ingest(&events);
        assert_eq!(sys.stream_position(), 100);
        // An explicitly timestamped batch pushes the clock forward…
        sys.write_batch(&eagr_gen::EventBatch::new(500, events.clone()));
        assert_eq!(sys.stream_position(), 600);
        // …so a later ingest never re-issues timestamps 100..200.
        sys.ingest(&events);
        assert_eq!(sys.stream_position(), 700);
    }

    #[test]
    fn point_write_advances_ingest_clock_in_every_mode() {
        let g = social_graph(60, 3, 15);
        let modes = [
            ExecutionMode::SingleThreaded,
            ExecutionMode::Sharded { shards: 2 },
        ];
        for mode in modes {
            let sys = EagrSystem::builder(EgoQuery::new(Sum))
                .execution(mode)
                .build(&g);
            // A point write with a large explicit timestamp must advance
            // the shared stream clock…
            sys.write(NodeId(0), 7, 500);
            assert_eq!(sys.stream_position(), 501, "{mode:?}");
            // …so a later ingest stamps strictly-later timestamps instead
            // of re-issuing 0..100.
            let events = generate_events(
                60,
                &WorkloadConfig {
                    events: 100,
                    ..Default::default()
                },
            );
            sys.ingest(&events);
            assert_eq!(sys.stream_position(), 601, "{mode:?}");
        }
    }

    #[test]
    fn sharded_advance_time_matches_local_expiration() {
        let g = social_graph(80, 4, 31);
        let build = |mode| {
            EagrSystem::builder(EgoQuery::new(Sum).window(WindowSpec::Time(50)))
                .decisions(DecisionAlgorithm::AllPush)
                .execution(mode)
                .build(&g)
        };
        let local = build(ExecutionMode::SingleThreaded);
        let sharded = build(ExecutionMode::Sharded { shards: 3 });
        let events = generate_events(
            80,
            &WorkloadConfig {
                events: 2000,
                write_to_read: 1e9,
                seed: 32,
                ..Default::default()
            },
        );
        for batch in eagr_gen::batch_events(&events, 250, 0) {
            local.write_batch(&batch);
            sharded.write_batch(&batch);
        }
        // Expire most of the stream; the sharded sweep runs on the shard
        // workers, the local one on the caller thread — same answers.
        let applied = sharded.advance_time(1900);
        assert!(applied > 0, "expirations must be applied");
        local.advance_time(1900);
        for v in 0..80u32 {
            assert_eq!(
                sharded.read(NodeId(v)),
                local.read(NodeId(v)),
                "node {v} after expiration"
            );
        }
    }

    #[test]
    fn batch_counts_agree_across_modes() {
        // paper_example_graph: node g feeds nobody, so its writes have no
        // overlay writer — they must still count as processed writes in
        // every mode.
        let g = eagr_graph::paper_example_graph();
        let events = generate_events(
            7,
            &WorkloadConfig {
                events: 500,
                write_to_read: 2.0,
                seed: 17,
                ..Default::default()
            },
        );
        let single = EagrSystem::builder(EgoQuery::new(Sum)).build(&g);
        let sharded = EagrSystem::builder(EgoQuery::new(Sum))
            .execution(ExecutionMode::Sharded { shards: 3 })
            .build(&g);
        assert_eq!(single.ingest(&events), sharded.ingest(&events));
    }

    #[test]
    #[should_panic(expected = "core() requires a local execution mode")]
    fn core_access_panics_in_sharded_mode() {
        let g = social_graph(50, 3, 16);
        let sys = EagrSystem::builder(EgoQuery::new(Sum))
            .execution(ExecutionMode::Sharded { shards: 2 })
            .build(&g);
        let _ = sys.core();
    }

    #[test]
    fn run_events_counts() {
        let g = social_graph(80, 3, 4);
        let sys = EagrSystem::builder(EgoQuery::new(Sum)).build(&g);
        let events = generate_events(
            80,
            &WorkloadConfig {
                events: 1000,
                write_to_read: 1.0,
                ..Default::default()
            },
        );
        let report = sys.run_events(&events);
        assert_eq!(report.writes + report.reads, 1000);
    }

    // --- multi-query registry ------------------------------------------

    #[test]
    fn builder_debug_prints_window_state() {
        let b = EagrSystem::builder(EgoQuery::new(Sum).window(WindowSpec::Time(30)));
        let s = format!("{b:?}");
        assert!(s.contains("Time(30)"), "{s}");
        assert!(s.contains("SystemBuilder"), "{s}");
    }

    #[test]
    fn attach_overlapping_query_shares_stratum_and_reuses_paos() {
        let g = social_graph(150, 4, 21);
        let sys = EagrSystem::builder(EgoQuery::new(Sum)).build(&g);
        let events = generate_events(
            150,
            &WorkloadConfig {
                events: 2000,
                write_to_read: 1e9,
                seed: 22,
                ..Default::default()
            },
        );
        sys.ingest(&events);
        // Same window + neighborhood, narrower predicate: total overlap.
        let h = sys.attach(EgoQuery::new(Sum).filter(|v| v.0 < 50));
        let report = h.attach_report().expect("attached");
        assert!(report.shared_stratum, "{report:?}");
        assert_eq!(report.fresh_paos, 0, "total overlap needs nothing new");
        assert!(report.reused_paos > 0, "{report:?}");
        assert!(report.reuse_fraction() > 0.99, "{report:?}");
        let stats = sys.registry_stats();
        assert_eq!(stats.strata, 1);
        assert_eq!(stats.queries, 2);
        // Handle-scoped: in-set nodes answer like the primary, out-of-set
        // nodes answer None even though the stratum has their readers.
        for v in 0..150u32 {
            let got = h.read(NodeId(v));
            if v < 50 {
                assert_eq!(got, sys.read(NodeId(v)), "node {v}");
            } else {
                assert_eq!(got, None, "node {v} outside the query's readers");
            }
        }
    }

    #[test]
    fn attach_incompatible_window_compiles_cold_stratum() {
        let g = social_graph(100, 3, 23);
        let sys = EagrSystem::builder(EgoQuery::new(Sum)).build(&g);
        let h = sys.attach(EgoQuery::new(Sum).window(WindowSpec::Time(40)));
        let report = h.attach_report().expect("attached");
        assert!(!report.shared_stratum);
        assert!(report.fresh_paos > 0);
        assert_eq!(report.reused_paos, 0);
        assert_eq!(sys.registry_stats().strata, 2);
        let d = sys.detach(h);
        assert!(d.stratum_dropped);
        assert_eq!(sys.registry_stats().strata, 1);
    }

    #[test]
    fn detach_keeps_shared_state_for_remaining_queries() {
        let g = social_graph(120, 4, 25);
        let sys = EagrSystem::builder(EgoQuery::new(Sum)).build(&g);
        let events = generate_events(
            120,
            &WorkloadConfig {
                events: 1500,
                write_to_read: 1e9,
                seed: 26,
                ..Default::default()
            },
        );
        sys.ingest(&events);
        let h = sys.attach(EgoQuery::new(Sum).filter(|v| v.0 < 40));
        let before: Vec<_> = (0..120u32).map(|v| sys.read(NodeId(v))).collect();
        let d = sys.detach(h.clone());
        assert!(!d.stratum_dropped, "primary query still lives here");
        assert!(!h.is_attached());
        assert_eq!(h.read(NodeId(3)), None, "detached handle answers None");
        // The primary query's answers are untouched by the detach.
        for v in 0..120u32 {
            assert_eq!(sys.read(NodeId(v)), before[v as usize], "node {v}");
        }
        // Detach twice is a harmless no-op.
        assert_eq!(sys.detach(h), DetachReport::default());
    }

    #[test]
    fn attached_query_tracks_shared_ingest() {
        let g = social_graph(90, 3, 27);
        for mode in [
            ExecutionMode::SingleThreaded,
            ExecutionMode::Sharded { shards: 3 },
        ] {
            let sys = EagrSystem::builder(EgoQuery::new(Sum))
                .execution(mode)
                .build(&g);
            let h = sys.attach(EgoQuery::new(Sum).filter(|v| v.0 % 2 == 0));
            let events = generate_events(
                90,
                &WorkloadConfig {
                    events: 1200,
                    write_to_read: 1e9,
                    seed: 28,
                    ..Default::default()
                },
            );
            sys.ingest(&events);
            // Post-attach ingest feeds both queries; where both answer,
            // the shared stratum must answer identically.
            for v in (0..90u32).step_by(2) {
                assert_eq!(h.read(NodeId(v)), sys.read(NodeId(v)), "{mode:?} node {v}");
            }
        }
    }

    #[test]
    fn attach_backfills_fresh_writers_from_history() {
        // Primary query only reads node 0's neighborhood; the attached
        // query reads everyone, so most writers are fresh at attach time
        // and must be reconstructed from the write-history ring.
        let g = social_graph(60, 3, 29);
        let sys = EagrSystem::builder(EgoQuery::new(Sum).filter(|v| v.0 == 0)).build(&g);
        let events = generate_events(
            60,
            &WorkloadConfig {
                events: 900,
                write_to_read: 1e9,
                seed: 30,
                ..Default::default()
            },
        );
        sys.ingest(&events);
        let h = sys.attach(EgoQuery::new(Sum));
        let report = h.attach_report().expect("attached");
        assert!(report.shared_stratum);
        assert!(report.backfilled_writers > 0, "{report:?}");
        assert_eq!(report.cold_writers, 0, "Tuple(1) backfill is exact");
        // Reference: a cold system replaying the same stream.
        let reference = EagrSystem::builder(EgoQuery::new(Sum)).build(&g);
        reference.ingest(&events);
        for v in 0..60u32 {
            assert_eq!(h.read(NodeId(v)), reference.read(NodeId(v)), "node {v}");
        }
    }

    #[test]
    fn query_handle_read_batch_scopes_to_reader_set() {
        let g = social_graph(70, 3, 33);
        let sys = EagrSystem::builder(EgoQuery::new(Sum)).build(&g);
        let events = generate_events(
            70,
            &WorkloadConfig {
                events: 800,
                write_to_read: 1e9,
                seed: 34,
                ..Default::default()
            },
        );
        sys.ingest(&events);
        let h = sys.attach(EgoQuery::new(Sum).filter(|v| v.0 < 10));
        let nodes: Vec<NodeId> = (0..70u32).map(NodeId).collect();
        let batch = h.read_batch(&nodes);
        for (i, &v) in nodes.iter().enumerate() {
            assert_eq!(batch[i], h.read(v), "batch vs point at {v:?}");
        }
        assert!(batch[20..].iter().all(Option::is_none));
    }

    #[test]
    fn mutate_topology_reports_and_answers() {
        let n = 24u32;
        let g = social_graph(n as usize, 3, 5);
        let sys = EagrSystem::builder(EgoQuery::new(Sum))
            .overlay(OverlayAlgorithm::Vnma)
            .build(&g);
        let writes: Vec<Event> = (0..n)
            .map(|v| Event::Write {
                node: NodeId(v),
                value: v as i64 + 1,
            })
            .collect();
        sys.ingest(&writes);

        // Pick a non-adjacent live pair and an existing edge deterministically.
        let absent = g
            .nodes()
            .flat_map(|u| g.nodes().map(move |v| (u, v)))
            .find(|&(u, v)| u != v && !g.has_edge(u, v))
            .expect("sparse graph has a missing edge");
        let present = g.edges().next().expect("graph has edges");
        let muts = [
            Event::AddNode { node: NodeId(n) },
            Event::AddEdge {
                from: NodeId(n),
                to: absent.1,
            },
            Event::AddEdge {
                from: absent.0,
                to: absent.1,
            },
            // Replayed duplicate: the edge now exists — skipped.
            Event::AddEdge {
                from: absent.0,
                to: absent.1,
            },
            Event::RemoveEdge {
                from: present.0,
                to: present.1,
            },
            // Dead edge: just removed — skipped.
            Event::RemoveEdge {
                from: present.0,
                to: present.1,
            },
        ];
        let rep = sys.mutate_topology(&muts);
        assert_eq!(rep.applied, 4);
        assert_eq!(rep.skipped, 2);
        assert_eq!(rep.epochs, 1);
        assert!(rep.fresh_overlay_nodes > 0, "new node grows the overlay");
        let stats = sys.registry_stats();
        assert_eq!(stats.topo.applied, 4);
        assert_eq!(stats.topo.epochs, 1);

        // The mutated graph, mirrored for the oracle.
        let mut gm = g.clone();
        let fresh = gm.add_node();
        assert_eq!(fresh, NodeId(n));
        gm.add_edge(NodeId(n), absent.1);
        gm.add_edge(absent.0, absent.1);
        gm.remove_edge(present.0, present.1);
        // The fresh writer participates immediately.
        sys.write(NodeId(n), 1000, n as u64 + 1);
        let mut oracle = NaiveOracle::new(Sum, WindowSpec::Tuple(1), Neighborhood::In);
        for (ts, e) in writes.iter().enumerate() {
            if let Event::Write { node, value } = *e {
                oracle.write(node, value, ts as u64);
            }
        }
        oracle.write(NodeId(n), 1000, n as u64 + 1);
        for v in gm.nodes() {
            if let Some(got) = sys.read(v) {
                assert_eq!(got, oracle.read(&gm, v), "node {v:?} after repair");
            }
        }
    }

    #[test]
    fn removed_node_stops_answering_and_contributing() {
        let g = social_graph(20, 3, 11);
        let sys = EagrSystem::builder(EgoQuery::new(Sum)).build(&g);
        let writes: Vec<Event> = (0..20u32)
            .map(|v| Event::Write {
                node: NodeId(v),
                value: 1,
            })
            .collect();
        sys.ingest(&writes);
        let victim = NodeId(3);
        let rep = sys.mutate_topology(&[Event::RemoveNode { node: victim }]);
        assert_eq!(rep.applied, 1);
        assert!(rep.retired_overlay_nodes > 0);
        assert_eq!(sys.read(victim), None, "retired reader answers nothing");
        let mut gm = g.clone();
        gm.remove_node(victim);
        let mut oracle = NaiveOracle::new(Sum, WindowSpec::Tuple(1), Neighborhood::In);
        for (ts, e) in writes.iter().enumerate() {
            if let Event::Write { node, value } = *e {
                if node != victim {
                    oracle.write(node, value, ts as u64);
                }
            }
        }
        for v in gm.nodes() {
            if let Some(got) = sys.read(v) {
                assert_eq!(got, oracle.read(&gm, v), "node {v:?} after removal");
            }
        }
    }

    #[test]
    fn churn_stream_agrees_across_modes() {
        use eagr_gen::{churn_stream, ChurnConfig};
        let n = 40;
        let g = social_graph(n, 3, 7);
        let epochs = churn_stream(
            &g,
            &ChurnConfig {
                epochs: 3,
                epoch_events: 300,
                churn_fraction: 0.08,
                node_churn: 0.25,
                seed: 77,
                ..Default::default()
            },
        );
        let build = |mode| {
            EagrSystem::builder(EgoQuery::new(Sum))
                .overlay(OverlayAlgorithm::Vnma)
                .execution(mode)
                .build(&g)
        };
        let local = build(ExecutionMode::SingleThreaded);
        let sharded = build(ExecutionMode::Sharded { shards: 3 });
        let mut bound = g.id_bound();
        for batch in &epochs {
            let rl = local.ingest(batch);
            let rs = sharded.ingest(batch);
            assert_eq!(rl, rs, "local vs sharded ingest report");
            assert!(rl.mutations > 0, "churn epochs carry mutations");
            for e in batch {
                if let Event::AddNode { node } = *e {
                    bound = bound.max(node.idx() + 1);
                }
            }
            let nodes: Vec<NodeId> = (0..bound as u32).map(NodeId).collect();
            let vl = local.read_batch(&nodes);
            let vs = sharded.read_batch(&nodes);
            assert_eq!(vl, vs, "local vs sharded answers under churn");
        }
        let tl = local.registry_stats().topo;
        let ts = sharded.registry_stats().topo;
        assert_eq!(tl, ts, "topology accounting agrees across modes");
        assert!(tl.epochs >= epochs.len() as u64);
        assert!(tl.applied > 0);
    }
}
