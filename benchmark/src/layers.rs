//! The traced run (`--trace 1`), separate from the metric run and on the
//! same generated inputs.
//!
//! Part B feeds the inputs straight into each layer's public functions, in
//! the order the facade calls them, with a span around every call. Part A
//! repeats the facade loop on a fixed amount of work, in alternating
//! untraced and traced segments: the throughput difference is the tracing
//! overhead.
//! All work here is a fixed event count, so the exact counts repeat.

use crate::facade::{build_system, host_rss_mb, verify, Reported, System, Tally, WINDOW};
use crate::pacing::{run_paced, WallClock};
use crate::spec::VERIFY_NODES;
use crate::spec::{Engine, Feeder, Inputs, Metrics, Spec, CLOSED_BATCH, PACED_BATCH, PER_LAYER};
use crate::spec::{PACED_TAIL, READS_PER_BATCH, READ_TAIL, REPLAY_TOPO_RUNS, SHARDS};
use crate::stats::Timing;
use crate::trace::{stage_totals, Recorder, StageTotal};
use eagr::agg::{Aggregate, CostModel, DeltaOp};
use eagr::exec::transport::codec::{wire_msg_bytes, wire_msg_from, WireMsg};
use eagr::exec::{EngineCore, ShardedConfig, ShardedEngine, ShardedStore, TransportError};
use eagr::exec::{PaoStore, TransportKind};
use eagr::flow::{plan, topo_plan_delta, DecisionAlgorithm, Decisions, Plan, PlannerConfig};
use eagr::gen::{batch_events, Event};
use eagr::graph::{BipartiteGraph, DataGraph, Partitioner};
use eagr::overlay::{build_vnm, metrics as overlay_metrics, DynamicConfig, DynamicOverlay};
use eagr::overlay::{Overlay, OverlayId, VnmConfig};
use eagr::prelude::*;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Untraced/traced segments the facade loop alternates through.
const SEGMENTS: usize = 8;
/// Point reads, batched reads and relaxed reads the read-service probe issues.
const POINT_READS: usize = 1000;
const BATCH_READS: usize = 256;
const BATCH_READ_ROUNDS: usize = 16;

pub struct TracedRun {
    pub metrics: Metrics,
    pub tally: Tally,
    pub recorder: Recorder,
}

/// Maximal content / topology runs of a batch, as the facade splits it.
fn runs(chunk: &[Event]) -> impl Iterator<Item = &[Event]> {
    chunk.chunk_by(|a, b| a.is_topo() == b.is_topo())
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Per-name span totals, looked up by name (zeroes for a name never seen).
struct Stages(Vec<StageTotal>);

impl Stages {
    fn of(rec: &Recorder) -> Self {
        Self(stage_totals(rec.spans()))
    }

    fn get(&self, name: &'static str) -> StageTotal {
        self.0
            .iter()
            .find(|t| t.name == name)
            .copied()
            .unwrap_or(StageTotal {
                name,
                count: 0,
                total_ns: 0,
                self_ns: 0,
            })
    }

    /// Mean span duration in ms.
    fn mean_ms(&self, name: &'static str) -> f64 {
        let t = self.get(name);
        ms(t.total_ns) / t.count.max(1) as f64
    }
}

/// Time `f` under a span; returns its result.
fn spanned<R>(rec: &mut Recorder, name: &'static str, batch: u32, f: impl FnOnce() -> R) -> R {
    let s = rec.enter(name, batch);
    let out = f();
    rec.exit(s);
    out
}

/// Count a transport error instead of unwinding through open spans.
fn ok<T>(result: Result<T, TransportError>, errors: &mut usize) -> Option<T> {
    match result {
        Ok(v) => Some(v),
        Err(e) => {
            eprintln!("transport error: {e}");
            *errors += 1;
            None
        }
    }
}

/// The set-up chain in `compile_stratum`'s order: bipartite graph →
/// VNM_A overlay → plan → partition choice. Engine start comes later,
/// because which engine starts depends on the workload.
fn setup_chain(spec: &Spec, inputs: &Inputs, rec: &mut Recorder, m: &mut Metrics) -> Plan {
    let ag = spanned(rec, "graph.bipartite_build", 0, || {
        BipartiteGraph::build(&inputs.graph, &Neighborhood::In, |_| true)
    });
    let (overlay, _) = spanned(rec, "overlay.build", 0, || {
        build_vnm(&ag, &VnmConfig::vnma(Sum.props()))
    });
    m.set("overlay.memory_mb", overlay.memory_bytes() as f64 / 1e6, 1);
    let mut p = spanned(rec, "flow.plan", 0, || {
        plan(
            overlay,
            &inputs.rates,
            &CostModel::from_aggregate(&Sum),
            &PlannerConfig {
                algorithm: DecisionAlgorithm::MaxFlow,
                split: true,
                writer_window: 1,
                push_amplification: 2.0,
            },
        )
    });
    if spec.engine != Engine::Single {
        p = spanned(rec, "flow.partition", 0, || p.with_auto_partition(SHARDS));
        let part = p.partition.as_ref().expect("just attached");
        let sizes = part.shard_sizes();
        let mean = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        let max = sizes.iter().copied().max().unwrap_or(0) as f64;
        m.set("graph.cut_fraction", p.push_view().cut_fraction(part), 1);
        m.set("graph.shard_size_skew", max / mean.max(1.0), 1);
    }
    let nodes = p.overlay.node_count();
    m.set("overlay.sharing_index", p.pre_split_sharing_index, 1);
    m.set("overlay.edges", p.overlay.edge_count() as f64, 1);
    m.set(
        "overlay.avg_depth",
        overlay_metrics::average_depth(&p.overlay),
        1,
    );
    m.set(
        "flow.push_node_share",
        p.decisions.push_count() as f64 / nodes.max(1) as f64,
        nodes,
    );
    p
}

/// Replay the content events of `events` through `EngineCore::{write,
/// read}`. Each batch's writes run as one timed block and its reads as
/// another, so no clock is read per event. Returns ns per event over the
/// whole replay.
fn replay_core(
    core: &EngineCore<Sum>,
    events: &[Event],
    rec: &mut Recorder,
    m: &mut Metrics,
) -> f64 {
    let (mut writes, mut reads, mut pushes) = (0usize, 0usize, 0usize);
    for (b, chunk) in events.chunks(CLOSED_BATCH).enumerate() {
        let base = b * CLOSED_BATCH;
        spanned(rec, "exec.core.write", b as u32, || {
            for (i, e) in chunk.iter().enumerate() {
                if let Event::Write { node, value } = *e {
                    pushes += core.write(node, value, (base + i) as u64);
                    writes += 1;
                }
            }
        });
        spanned(rec, "exec.core.read", b as u32, || {
            for e in chunk {
                if let Event::Read { node } = *e {
                    black_box(core.read(node));
                    reads += 1;
                }
            }
        });
    }
    let st = Stages::of(rec);
    let (w, r) = (st.get("exec.core.write"), st.get("exec.core.read"));
    m.set(
        "exec.core.write_ns",
        w.total_ns as f64 / writes.max(1) as f64,
        writes,
    );
    m.set(
        "exec.core.read_ns",
        r.total_ns as f64 / reads.max(1) as f64,
        reads,
    );
    m.set(
        "exec.core.pushes_per_write",
        pushes as f64 / writes.max(1) as f64,
        writes,
    );
    (w.total_ns + r.total_ns) as f64 / (writes + reads).max(1) as f64
}

/// Floors under the engines: the aggregate's own ops, the slab store's
/// lock-and-index path, event batching, and the wire codec on real frames.
fn micro_layers(p: &Plan, events: &[Event], rec: &mut Recorder, m: &mut Metrics) {
    let slots = p.overlay.node_count();
    let ops: Vec<(usize, DeltaOp)> = events
        .iter()
        .filter_map(|e| match *e {
            Event::Write { node, value } => Some((node.idx() % slots, DeltaOp::Insert(value))),
            Event::Read { .. }
            | Event::AddEdge { .. }
            | Event::RemoveEdge { .. }
            | Event::AddNode { .. }
            | Event::RemoveNode { .. } => None,
        })
        .collect();
    let n = ops.len().max(1);

    let mut paos = vec![Sum.empty(); slots];
    let s = rec.enter("agg.apply", 0);
    for &(i, op) in &ops {
        op.apply(&Sum, &mut paos[i]);
    }
    m.set(
        "agg.apply_ns_per_op",
        rec.exit(s) as f64 / n as f64,
        ops.len(),
    );
    let s = rec.enter("agg.finalize", 0);
    for &(i, _) in &ops {
        black_box(Sum.finalize(black_box(&paos[i])));
    }
    m.set("agg.finalize_ns", rec.exit(s) as f64 / n as f64, ops.len());

    let partition = match &p.partition {
        Some(part) => part.clone(),
        None => Partitioner::hash(SHARDS).partition(slots),
    };
    let store = ShardedStore::new(&partition, || Sum.empty());
    let mut per_shard: Vec<Vec<(usize, DeltaOp)>> = vec![Vec::new(); store.shard_count()];
    for &(i, op) in &ops {
        per_shard[store.shard_of(i).idx()].push((i, op));
    }
    let s = rec.enter("exec.store.slab_apply", 0);
    for (shard, owned) in per_shard.iter().enumerate() {
        // One lock per batch-sized group, as a shard worker takes it.
        for group in owned.chunks(CLOSED_BATCH) {
            let mut slab = store.lock_shard(eagr::graph::ShardId(shard as u32));
            for &(i, op) in group {
                op.apply(&Sum, slab.get_mut(i));
            }
        }
    }
    let ns = rec.exit(s);
    black_box(store.len());
    m.set(
        "exec.store.slab_apply_ns_per_op",
        ns as f64 / n as f64,
        ops.len(),
    );

    let s = rec.enter("gen.batch_events", 0);
    black_box(batch_events(events, CLOSED_BATCH, 0));
    let ns = rec.exit(s);
    m.set(
        "gen.batch_events_ns_per_event",
        ns as f64 / events.len().max(1) as f64,
        events.len(),
    );

    // Real data-plane frames: the `Writes` group `ingest_at` routes to a
    // shard and the `Deltas` group a worker ships to a peer.
    let hooks = Sum.wire_hooks().expect("SUM crosses the wire");
    let mut frames: Vec<WireMsg<Sum>> = Vec::new();
    let mut items = 0usize;
    for (b, chunk) in events.chunks(CLOSED_BATCH).take(64).enumerate() {
        let group: Vec<(OverlayId, i64, u64)> = chunk
            .iter()
            .enumerate()
            .filter_map(|(i, e)| match *e {
                Event::Write { node, value } => {
                    let ts = (b * CLOSED_BATCH + i) as u64;
                    p.overlay.writer(node).map(|wid| (wid, value, ts))
                }
                Event::Read { .. }
                | Event::AddEdge { .. }
                | Event::RemoveEdge { .. }
                | Event::AddNode { .. }
                | Event::RemoveNode { .. } => None,
            })
            .collect();
        let deltas: Vec<(OverlayId, DeltaOp)> = group
            .iter()
            .map(|&(wid, value, _)| (wid, DeltaOp::Insert(value)))
            .collect();
        items += group.len() + deltas.len();
        frames.push(WireMsg::Writes(group));
        frames.push(WireMsg::Deltas(deltas));
    }
    let s = rec.enter("exec.transport.encode", 0);
    let payloads: Vec<Vec<u8>> = frames.iter().map(|f| wire_msg_bytes(f, &hooks)).collect();
    let encode_ns = rec.exit(s);
    let s = rec.enter("exec.transport.decode", 0);
    let decoded = payloads
        .iter()
        .filter(|bytes| wire_msg_from::<Sum>(bytes, &hooks).is_ok())
        .count();
    let decode_ns = rec.exit(s);
    assert_eq!(decoded, frames.len(), "every encoded frame must decode");
    let bytes: usize = payloads.iter().map(Vec::len).sum();
    let per_item = items.max(1) as f64;
    m.set(
        "exec.transport.encode_ns_per_item",
        encode_ns as f64 / per_item,
        items,
    );
    m.set(
        "exec.transport.decode_ns_per_item",
        decode_ns as f64 / per_item,
        items,
    );
    m.set(
        "exec.transport.bytes_per_item",
        bytes as f64 / per_item,
        items,
    );
}

/// The state `apply_topo_run` keeps per stratum, held here from outside.
struct TopoState {
    graph: DataGraph,
    overlay: Overlay,
    decisions: Decisions,
}

/// What a sharded replay counted.
#[derive(Default)]
struct ShardedReplay {
    events: usize,
    writes: usize,
    epochs: usize,
    topo_runs: usize,
    mutations: usize,
    dirty: usize,
    rematerialized: usize,
    errors: usize,
}

/// One mutation run through the repair chain, stage by stage in
/// `EagrSystem::apply_topo_run`'s order (minus the write-history backfill,
/// which the facade keeps private).
fn repair_run(
    eng: &ShardedEngine<Sum>,
    st: &mut TopoState,
    muts: &[Event],
    batch: u32,
    rec: &mut Recorder,
    out: &mut ShardedReplay,
) {
    let run = rec.enter("topo.run", batch);
    let mut probe = spanned(rec, "graph.clone", batch, || st.graph.clone());
    let valid: Vec<Event> = spanned(rec, "topo.validate", batch, || {
        muts.iter()
            .copied()
            .filter(|e| match *e {
                Event::AddEdge { from, to } => {
                    probe.contains(from) && probe.contains(to) && probe.add_edge(from, to)
                }
                Event::RemoveEdge { from, to } => {
                    probe.contains(from) && probe.contains(to) && probe.remove_edge(from, to)
                }
                Event::AddNode { node } => {
                    let fresh = node.idx() >= probe.id_bound();
                    while probe.id_bound() <= node.idx() {
                        probe.add_node();
                    }
                    fresh
                }
                Event::RemoveNode { node } => {
                    let live = probe.contains(node);
                    if live {
                        probe.remove_node(node);
                    }
                    live
                }
                Event::Write { .. } | Event::Read { .. } => false,
            })
            .collect()
    });
    out.topo_runs += 1;
    out.mutations += valid.len();
    if !valid.is_empty() {
        let drained = spanned(rec, "exec.sharded.quiesce", batch, || eng.drain());
        ok(drained, &mut out.errors);
        let mut g = spanned(rec, "graph.clone", batch, || st.graph.clone());
        let mut dyn_ov = spanned(rec, "overlay.dynamic_new", batch, || {
            DynamicOverlay::new(
                st.overlay.clone(),
                Neighborhood::In,
                Sum.props(),
                DynamicConfig::default(),
            )
        });
        let old_n = st.overlay.node_count();
        let dirty = spanned(rec, "overlay.repair", batch, || {
            for &e in &valid {
                match e {
                    Event::AddEdge { from, to } => {
                        dyn_ov.add_edge(&mut g, from, to);
                    }
                    Event::RemoveEdge { from, to } => {
                        dyn_ov.remove_edge(&mut g, from, to);
                    }
                    Event::AddNode { node } => {
                        while g.id_bound() <= node.idx() {
                            dyn_ov.add_node(&mut g);
                        }
                    }
                    Event::RemoveNode { node } => dyn_ov.remove_node(&mut g, node),
                    Event::Write { .. } | Event::Read { .. } => {}
                }
            }
            dyn_ov.take_dirty()
        });
        out.dirty += dirty.len();
        let (overlay, fresh) = spanned(rec, "topo.diff", batch, || {
            let overlay = dyn_ov.into_overlay();
            let fresh: Vec<OverlayId> = (old_n..overlay.node_count())
                .map(|i| OverlayId(i as u32))
                .filter(|&n| !overlay.is_retired(n))
                .collect();
            (overlay, fresh)
        });
        let delta = spanned(rec, "flow.topo_plan_delta", batch, || {
            topo_plan_delta(&overlay, &st.decisions, &fresh, &dirty)
        });
        let frozen = spanned(rec, "overlay.freeze_clone", batch, || {
            Arc::new(overlay.clone())
        });
        let report = spanned(rec, "exec.sharded.apply_topo", batch, || {
            eng.apply_topo(Sum, frozen, &delta.decisions, &[], &delta.materialize)
        });
        if let Some(report) = ok(report, &mut out.errors) {
            out.rematerialized += report.rematerialized;
        }
        // Publishing drops the previous overlay and the scratch graph.
        spanned(rec, "topo.publish", batch, || {
            st.overlay = overlay;
            st.decisions = delta.decisions;
            drop(g);
        });
    }
    spanned(rec, "topo.publish", batch, || st.graph = probe);
    rec.exit(run);
}

/// Replay `events` through `ShardedEngine::{ingest_at, drain}` (and, when
/// `topo` is given, mutation runs through the repair chain), one epoch per
/// content run. Stops after `REPLAY_TOPO_RUNS` mutation runs.
fn replay_sharded(
    eng: &ShardedEngine<Sum>,
    events: &[Event],
    mut topo: Option<&mut TopoState>,
    rec: &mut Recorder,
) -> ShardedReplay {
    let mut out = ShardedReplay::default();
    let mut at = 0usize;
    'stream: for (b, chunk) in events.chunks(CLOSED_BATCH).enumerate() {
        for run in runs(chunk) {
            if run[0].is_topo() {
                if let Some(st) = topo.as_deref_mut() {
                    repair_run(eng, st, run, b as u32, rec, &mut out);
                }
            } else {
                let epoch = rec.enter("exec.sharded.epoch", b as u32);
                let sent = spanned(rec, "exec.sharded.ingest_at", b as u32, || {
                    eng.ingest_at(run, at as u64)
                });
                let drained = spanned(rec, "exec.sharded.drain", b as u32, || eng.drain());
                rec.exit(epoch);
                if let Some((writes, _)) = ok(sent, &mut out.errors) {
                    out.writes += writes;
                }
                ok(drained, &mut out.errors);
                out.events += run.len();
                out.epochs += 1;
            }
            at += run.len();
        }
        if out.topo_runs >= REPLAY_TOPO_RUNS {
            break 'stream;
        }
    }
    out
}

/// Point, batched and relaxed reads against the sharded engine.
fn probe_reads(
    eng: &ShardedEngine<Sum>,
    inputs: &Inputs,
    rec: &mut Recorder,
    m: &mut Metrics,
) -> usize {
    let mut errors = 0;
    let s = rec.enter("exec.sharded.read_service", 0);
    for i in 0..POINT_READS {
        black_box(ok(eng.read_service(inputs.read_target(i)), &mut errors));
    }
    let ns = rec.exit(s);
    m.set(
        "exec.sharded.read_point_us",
        ns as f64 / 1e3 / POINT_READS as f64,
        POINT_READS,
    );

    let batches: Vec<Vec<NodeId>> = (0..BATCH_READ_ROUNDS)
        .map(|r| {
            (0..BATCH_READS)
                .map(|i| inputs.read_target(r * BATCH_READS + i))
                .collect()
        })
        .collect();
    let s = rec.enter("exec.sharded.read_batch", 0);
    for nodes in &batches {
        black_box(ok(eng.read_batch(nodes), &mut errors));
    }
    let ns = rec.exit(s);
    let reads = BATCH_READ_ROUNDS * BATCH_READS;
    m.set(
        "exec.sharded.read_batch_us_per_read",
        ns as f64 / 1e3 / reads as f64,
        reads,
    );

    let s = rec.enter("exec.sharded.read_relaxed", 0);
    for i in 0..POINT_READS {
        black_box(ok(eng.try_read(inputs.read_target(i)), &mut errors));
    }
    let ns = rec.exit(s);
    m.set(
        "exec.sharded.read_relaxed_ns",
        ns as f64 / POINT_READS as f64,
        POINT_READS,
    );
    errors
}

fn start_sharded(p: &Plan, transport: TransportKind) -> ShardedEngine<Sum> {
    let cfg = ShardedConfig::builder()
        .shards(SHARDS)
        .transport(transport)
        .build();
    ShardedEngine::from_plan(p, Sum, WINDOW, &cfg)
}

/// What Part B hands to Part A for the facade comparisons.
struct LayerCosts {
    /// The layer replay's cost per content event, in ns.
    ns_per_event: f64,
    /// Mean repair-chain stage sum per mutation run, in ns (0 without churn).
    topo_stage_sum_ns: f64,
}

/// Part B: the layers driven from outside, on the stream's head.
fn part_b(
    spec: &Spec,
    inputs: &Inputs,
    head: &[Event],
    rec: &mut Recorder,
    m: &mut Metrics,
    tally: &mut Tally,
) -> LayerCosts {
    let p = setup_chain(spec, inputs, rec, m);
    micro_layers(&p, head, rec, m);

    // The single-threaded core is every workload's per-event floor; on
    // single-balanced starting it is the engine start.
    let core = spanned(rec, "exec.core.start", 0, || {
        EngineCore::new(Sum, Arc::new(p.overlay.clone()), &p.decisions, WINDOW)
    });
    let core_ns_per_event = replay_core(&core, head, rec, m);
    drop(core);
    let costs = if spec.engine == Engine::Single {
        LayerCosts {
            ns_per_event: core_ns_per_event,
            topo_stage_sum_ns: 0.0,
        }
    } else {
        sharded_layers(spec, inputs, &p, head, rec, m, tally)
    };
    let st = Stages::of(rec);
    for (metric, span) in [
        ("graph.bipartite_build_ms", "graph.bipartite_build"),
        ("overlay.build_ms", "overlay.build"),
        ("flow.plan_ms", "flow.plan"),
        ("flow.partition_ms", "flow.partition"),
    ] {
        m.set(metric, st.mean_ms(span), st.get(span).count);
    }
    let start = match spec.engine {
        Engine::Single => "exec.core.start",
        Engine::Sharded | Engine::Process => "exec.sharded.start",
    };
    m.set("exec.engine_start_ms", st.mean_ms(start), 1);
    costs
}

/// The sharded engine from outside: epochs of `ingest_at` + `drain`, the
/// read service, the work counters — and, on churn, the repair chain.
fn sharded_layers(
    spec: &Spec,
    inputs: &Inputs,
    p: &Plan,
    head: &[Event],
    rec: &mut Recorder,
    m: &mut Metrics,
    tally: &mut Tally,
) -> LayerCosts {
    // proc-write also replays in-process, to price the transport alone
    // (its spans go to a scratch recorder: same names, different engine).
    let inproc_events_per_s = (spec.engine == Engine::Process).then(|| {
        let eng = start_sharded(p, TransportKind::InProcess);
        let mut scratch = Recorder::with_capacity(4 * head.len() / CLOSED_BATCH + 16);
        let t = Instant::now();
        let r = replay_sharded(&eng, head, None, &mut scratch);
        let rate = r.events as f64 / t.elapsed().as_secs_f64();
        eng.shutdown();
        rate
    });

    let transport = match spec.engine {
        Engine::Process => TransportKind::Process,
        Engine::Single | Engine::Sharded => TransportKind::InProcess,
    };
    let eng = spanned(rec, "exec.sharded.start", 0, || start_sharded(p, transport));
    let mut topo = spec.churn.map(|_| TopoState {
        graph: inputs.graph.clone(),
        overlay: p.overlay.clone(),
        decisions: p.decisions.clone(),
    });
    let t = Instant::now();
    let r = replay_sharded(&eng, head, topo.as_mut(), rec);
    let replay_s = t.elapsed().as_secs_f64();
    let stats = eng.shard_stats();
    let read_errors = probe_reads(&eng, inputs, rec, m);
    let host_mb = host_rss_mb(&eng.host_pids());
    eng.shutdown();

    let st = Stages::of(rec);
    let (submit, drain) = (
        st.get("exec.sharded.ingest_at"),
        st.get("exec.sharded.drain"),
    );
    let epoch = st.get("exec.sharded.epoch");
    m.set(
        "exec.sharded.submit_ns_per_event",
        submit.total_ns as f64 / r.events.max(1) as f64,
        r.events,
    );
    m.set(
        "exec.sharded.drain_us_per_epoch",
        drain.total_ns as f64 / 1e3 / r.epochs.max(1) as f64,
        r.epochs,
    );
    m.set(
        "exec.sharded.barrier_share",
        drain.total_ns as f64 / epoch.total_ns.max(1) as f64,
        r.epochs,
    );
    let writes = r.writes.max(1) as f64;
    let cross: u64 = stats.iter().map(|s| s.cross_deltas_out).sum();
    let local: u64 = stats.iter().map(|s| s.local_applies).sum();
    let busiest = stats.iter().map(|s| s.local_applies).max().unwrap_or(0);
    m.set(
        "exec.sharded.cross_deltas_per_write",
        cross as f64 / writes,
        r.writes,
    );
    m.set(
        "exec.sharded.local_applies_per_write",
        local as f64 / writes,
        r.writes,
    );
    m.set(
        "exec.sharded.apply_skew",
        busiest as f64 * stats.len() as f64 / local.max(1) as f64,
        stats.len(),
    );
    let errors = r.errors + read_errors;
    tally.attempted += r.events + 2 * POINT_READS + BATCH_READ_ROUNDS * BATCH_READS;
    tally.failed += errors;

    if let Some(inproc) = inproc_events_per_s {
        let proc_rate = r.events as f64 / replay_s;
        m.set(
            "exec.transport.proc_over_inproc",
            proc_rate / inproc,
            r.events,
        );
        m.set("exec.transport.host_rss_mb", host_mb, SHARDS);
        m.set("exec.transport.errors", errors as f64, r.events);
    }

    let mut topo_stage_sum_ns = 0.0;
    if r.topo_runs > 0 {
        let runs = r.topo_runs as f64;
        for (metric, span) in [
            ("graph.clone_ms", "graph.clone"),
            ("overlay.dynamic_new_ms", "overlay.dynamic_new"),
            ("overlay.freeze_clone_ms", "overlay.freeze_clone"),
            ("flow.topo_plan_delta_ms", "flow.topo_plan_delta"),
            ("exec.sharded.apply_topo_ms", "exec.sharded.apply_topo"),
        ] {
            m.set(metric, ms(st.get(span).total_ns) / runs, r.topo_runs);
        }
        let muts = r.mutations.max(1) as f64;
        m.set(
            "overlay.repair_us_per_mutation",
            st.get("overlay.repair").total_ns as f64 / 1e3 / muts,
            r.mutations,
        );
        m.set(
            "overlay.dirty_nodes_per_mutation",
            r.dirty as f64 / muts,
            r.mutations,
        );
        m.set(
            "flow.rematerialized_per_run",
            r.rematerialized as f64 / runs,
            r.topo_runs,
        );
        // The stages are the children of each `topo.run` span.
        let run = st.get("topo.run");
        topo_stage_sum_ns = (run.total_ns - run.self_ns) as f64 / runs;
    }
    LayerCosts {
        ns_per_event: epoch.total_ns as f64 / r.events.max(1) as f64,
        topo_stage_sum_ns,
    }
}

/// What the facade loop accumulated, traced or not.
#[derive(Default)]
struct FacadeLoop {
    /// Time inside `ingest` on content runs, and the events it covered.
    ingest_ns: u64,
    ingest_events: usize,
    /// One entry per `mutate_topology` call, in stream order.
    topo_ns: Vec<u64>,
    batches: usize,
    /// Operations (events + point reads) and wall time outside
    /// `mutate_topology`, per mode (untraced, traced).
    ops: [usize; 2],
    wall_ns: [u64; 2],
    /// One entry per point read, in µs.
    read_us: Vec<f64>,
}

/// One closed-loop batch through the facade: each maximal run goes to
/// `ingest` or `mutate_topology` exactly as `ingest` would split it, then
/// the point reads. With a recorder, every facade call gets a span.
fn facade_batch(
    sys: &System,
    inputs: &Inputs,
    chunk: &[Event],
    mut rec: Option<&mut Recorder>,
    acc: &mut FacadeLoop,
    reported: &mut Reported,
) {
    let batch = acc.batches as u32;
    let outer = rec.as_deref_mut().map(|r| r.enter("core.batch", batch));
    for run in runs(chunk) {
        let topo = run[0].is_topo();
        let name = if topo {
            "core.mutate_topology"
        } else {
            "core.ingest"
        };
        let span = rec.as_deref_mut().map(|r| r.enter(name, batch));
        let t = Instant::now();
        if topo {
            black_box(sys.mutate_topology(run));
            reported.mutations += run.len();
        } else {
            reported.add(&sys.ingest(run));
        }
        let ns = t.elapsed().as_nanos() as u64;
        if let (Some(r), Some(s)) = (rec.as_deref_mut(), span) {
            r.exit(s);
        }
        if topo {
            acc.topo_ns.push(ns);
        } else {
            acc.ingest_ns += ns;
            acc.ingest_events += run.len();
        }
    }
    for _ in 0..READS_PER_BATCH {
        let v = inputs.read_target(acc.read_us.len());
        let span = rec.as_deref_mut().map(|r| r.enter("core.read", batch));
        let t = Instant::now();
        black_box(sys.read(black_box(v)));
        acc.read_us.push(t.elapsed().as_secs_f64() * 1e6);
        if let (Some(r), Some(s)) = (rec.as_deref_mut(), span) {
            r.exit(s);
        }
    }
    if let (Some(r), Some(s)) = (rec, outer) {
        r.exit(s);
    }
    acc.batches += 1;
}

pub fn run(spec: &Spec, inputs: &Inputs, seconds: f64, seed: u64) -> TracedRun {
    let mut m = Metrics::declared(&PER_LAYER);
    let mut rec = Recorder::with_capacity(1 << 17);
    let mut tally = Tally::default();
    let fixed_events = {
        let want = (spec.trace_events_per_s as f64 * seconds) as usize;
        let per_round = SEGMENTS * CLOSED_BATCH;
        (want / per_round).max(1) * per_round
    };

    // Part B works on the stream's head; Part A replays the same head
    // through the facade after its warm-up.
    let head = &inputs.pool[..fixed_events.min(inputs.pool.len())];
    let layers = part_b(spec, inputs, head, &mut rec, &mut m, &mut tally);

    // Part A.
    let sys = spanned(&mut rec, "core.build", 0, || build_system(spec, inputs));
    let mut reported = Reported::default();
    let mut feeder = Feeder::new(inputs);
    let mut acc = FacadeLoop::default();
    // Warm up through the same split calls, so that on churn the facade's
    // first mutation runs — the ones Part B replayed — are timed too.
    while feeder.taken < inputs.pool.len() / 20 {
        let Some(chunk) = feeder.next(CLOSED_BATCH) else {
            break;
        };
        facade_batch(&sys, inputs, chunk, None, &mut acc, &mut reported);
    }
    acc = FacadeLoop {
        topo_ns: acc.topo_ns,
        ..FacadeLoop::default()
    };
    let per_segment = fixed_events / CLOSED_BATCH / SEGMENTS;
    for segment in 0..SEGMENTS {
        let traced = segment % 2 == 1;
        let t = Instant::now();
        let (before, topo_before) = (feeder.taken, acc.topo_ns.len());
        for _ in 0..per_segment {
            let Some(chunk) = feeder.next(CLOSED_BATCH) else {
                break;
            };
            facade_batch(
                &sys,
                inputs,
                chunk,
                traced.then_some(&mut rec),
                &mut acc,
                &mut reported,
            );
        }
        // Mutation runs stay out of the comparison: a segment holds two to
        // four of them at ≈80 ms each, so their count, not the tracing,
        // would decide which mode looks faster.
        let topo_ns: u64 = acc.topo_ns[topo_before..].iter().sum();
        let mode = usize::from(traced);
        acc.wall_ns[mode] += (t.elapsed().as_nanos() as u64).saturating_sub(topo_ns);
        acc.ops[mode] += (feeder.taken - before) + READS_PER_BATCH * per_segment;
    }
    tally.attempted += acc.read_us.len();
    let reads = Timing::of(vec![std::mem::take(&mut acc.read_us)], READ_TAIL);
    m.set("core.read_p50_us", reads.p50, reads.samples);
    m.set("core.read_p99_us", reads.tail, reads.samples);
    let rate = |mode: usize| acc.ops[mode] as f64 / (acc.wall_ns[mode].max(1) as f64 / 1e9);
    m.set("traced_events_per_s", rate(1), acc.ops[1]);
    m.set(
        "trace_overhead_share",
        1.0 - rate(1) / rate(0),
        acc.ops[0] + acc.ops[1],
    );
    let facade_ns_per_event = acc.ingest_ns as f64 / acc.ingest_events.max(1) as f64;
    m.set(
        "core.ingest_us_per_batch",
        facade_ns_per_event * CLOSED_BATCH as f64 / 1e3,
        acc.batches,
    );
    m.set(
        "core.facade_overhead_share",
        1.0 - layers.ns_per_event / facade_ns_per_event.max(1e-9),
        acc.ingest_events,
    );

    // A short open loop at the workload's pinned rate, one span per batch.
    let paced_for_ns = (seconds / 4.0 * 1e9) as u64;
    let interval_ns = ((PACED_BATCH as f64 / spec.paced_rate * 1e9) as u64).max(1);
    let due = (paced_for_ns / interval_ns) as usize;
    let clock = WallClock::start();
    let paced = run_paced(&clock, due, interval_ns, paced_for_ns * 3 / 2, |i| {
        let Some(chunk) = feeder.next(PACED_BATCH) else {
            return false;
        };
        let s = rec.enter("core.paced_ingest", i as u32);
        reported.add(&sys.ingest(chunk));
        rec.exit(s);
        true
    });
    tally.attempted += paced.unsent * PACED_BATCH;
    tally.failed += paced.unsent * PACED_BATCH;
    let late = paced.late(spec.late_limit_ms * 1e6);
    m.set(
        "paced_late_share",
        late as f64 / paced.due.max(1) as f64,
        paced.due,
    );
    let delay_us: Vec<f64> = paced.send_delay_ns.iter().map(|ns| ns / 1e3).collect();
    let delay = Timing::of(vec![delay_us], PACED_TAIL);
    m.set("paced_send_delay_p50_us", delay.p50, delay.samples);

    let nodes: Vec<NodeId> = (0..VERIFY_NODES).map(|i| inputs.read_target(i)).collect();
    let s = rec.enter("core.read_batch", 0);
    black_box(sys.read_batch(&nodes));
    let ns = rec.exit(s);
    m.set(
        "core.read_batch_us_per_read",
        ns as f64 / 1e3 / nodes.len() as f64,
        nodes.len(),
    );

    let wrong = verify(&sys, inputs, feeder.taken, &reported, seed, &mut tally);
    m.set("core.wrong_answers", wrong as f64, VERIFY_NODES);
    m.set("failed_share", tally.share(), tally.attempted);

    let topo = sys.registry_stats().topo;
    m.set("core.topo_runs", topo.epochs as f64, acc.topo_ns.len());
    m.set("core.topo_applied", topo.applied as f64, acc.topo_ns.len());
    m.set("core.topo_skipped", topo.skipped as f64, acc.topo_ns.len());
    if !acc.topo_ns.is_empty() {
        let mean = |ns: &[u64]| ns.iter().sum::<u64>() as f64 / ns.len().max(1) as f64;
        m.set(
            "core.topo_run_ms",
            mean(&acc.topo_ns) / 1e6,
            acc.topo_ns.len(),
        );
        let same_runs = &acc.topo_ns[..REPLAY_TOPO_RUNS.min(acc.topo_ns.len())];
        m.set(
            "core.topo_explained_share",
            layers.topo_stage_sum_ns / mean(same_runs).max(1.0),
            same_runs.len(),
        );
    }
    drop(sys);
    TracedRun {
        metrics: m,
        tally,
        recorder: rec,
    }
}
