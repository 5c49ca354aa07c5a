//! Dynamic maintenance (§3.3) end to end: mutate the data graph through
//! [`DynamicOverlay`], rebuild an engine on the repaired overlay, and check
//! every read against a naive evaluation of the *new* graph.

use eagr::agg::{AggProps, Sum, WindowSpec};
use eagr::exec::EngineCore;
use eagr::flow::Decisions;
use eagr::gen::{churn_stream, social_graph, ChurnConfig, Event};
use eagr::graph::{BipartiteGraph, DataGraph, Neighborhood, NodeId};
use eagr::overlay::{
    build_iob, build_vnm, validate_against, DynamicConfig, DynamicOverlay, IobConfig, VnmConfig,
};
use eagr::util::{FastMap, SplitMix64};
use eagr::{EagrSystem, EgoQuery, ExecutionMode, NaiveOracle, OverlayAlgorithm, TopoReport};
use std::sync::Arc;

fn sum_props() -> AggProps {
    AggProps {
        duplicate_insensitive: false,
        subtractable: true,
    }
}

/// Check the §2.2.1 invariant against the *current* graph.
fn validate_now(dynov: &DynamicOverlay, g: &DataGraph, nbh: &Neighborhood) {
    let ov = dynov.overlay();
    validate_against(ov, sum_props(), |rid| {
        let (_, r) = ov.readers().find(|&(id, _)| id == rid).unwrap();
        nbh.select(g, r).into_iter().map(|w| (w.0, 1)).collect()
    })
    .unwrap_or_else(|e| panic!("invariant broken: {e}"));
}

/// Run writes through an engine on the maintained overlay and compare all
/// reads with the oracle.
fn check_execution(dynov: &DynamicOverlay, g: &DataGraph, seed: u64) {
    let ov = Arc::new(dynov.overlay().clone());
    let d = Decisions::all_push(&ov);
    let core = EngineCore::new(Sum, Arc::clone(&ov), &d, WindowSpec::Tuple(1));
    let mut oracle = NaiveOracle::new(Sum, WindowSpec::Tuple(1), Neighborhood::In);
    let mut rng = SplitMix64::new(seed);
    for ts in 0..2000u64 {
        let v = NodeId(rng.index(g.id_bound()) as u32);
        if !g.contains(v) {
            continue;
        }
        let val = rng.range(0, 50) as i64;
        core.write(v, val, ts);
        oracle.write(v, val, ts);
    }
    for v in g.nodes() {
        if let Some(got) = core.read(v) {
            assert_eq!(got, oracle.read(g, v), "node {v:?}");
        }
    }
}

#[test]
fn random_edge_churn_on_iob_overlay() {
    let mut g = social_graph(120, 4, 3);
    let nbh = Neighborhood::In;
    let ag = BipartiteGraph::build(&g, &nbh, |_| true);
    let (ov, _) = build_iob(&ag, &IobConfig::default());
    let mut dynov = DynamicOverlay::new(ov, nbh.clone(), sum_props(), DynamicConfig::default());

    let mut rng = SplitMix64::new(77);
    for step in 0..150 {
        let u = NodeId(rng.index(120) as u32);
        let v = NodeId(rng.index(120) as u32);
        if u == v || !g.contains(u) || !g.contains(v) {
            continue;
        }
        if g.has_edge(u, v) {
            dynov.remove_edge(&mut g, u, v);
        } else {
            dynov.add_edge(&mut g, u, v);
        }
        if step % 25 == 0 {
            validate_now(&dynov, &g, &nbh);
        }
    }
    validate_now(&dynov, &g, &nbh);
    check_execution(&dynov, &g, 5);
}

#[test]
fn churn_on_vnm_overlay() {
    // Dynamic maintenance must also work on VNM-built overlays (the
    // IobState wrapper rebuilds the reverse index from coverage).
    let mut g = social_graph(100, 4, 11);
    let nbh = Neighborhood::In;
    let ag = BipartiteGraph::build(&g, &nbh, |_| true);
    let (ov, _) = build_vnm(&ag, &VnmConfig::vnma(sum_props()));
    let mut dynov = DynamicOverlay::new(ov, nbh.clone(), sum_props(), DynamicConfig::default());

    let mut rng = SplitMix64::new(99);
    for _ in 0..100 {
        let u = NodeId(rng.index(100) as u32);
        let v = NodeId(rng.index(100) as u32);
        if u == v {
            continue;
        }
        if g.has_edge(u, v) {
            dynov.remove_edge(&mut g, u, v);
        } else {
            dynov.add_edge(&mut g, u, v);
        }
    }
    validate_now(&dynov, &g, &nbh);
    check_execution(&dynov, &g, 6);
}

#[test]
fn node_lifecycle() {
    let mut g = social_graph(80, 3, 21);
    let nbh = Neighborhood::In;
    let ag = BipartiteGraph::build(&g, &nbh, |_| true);
    let (ov, _) = build_iob(&ag, &IobConfig::default());
    let mut dynov = DynamicOverlay::new(ov, nbh.clone(), sum_props(), DynamicConfig::default());

    // Add 10 fresh nodes, wire each to a few existing ones.
    let mut rng = SplitMix64::new(31);
    let mut fresh = Vec::new();
    for _ in 0..10 {
        let n = dynov.add_node(&mut g);
        fresh.push(n);
        for _ in 0..3 {
            let t = NodeId(rng.index(80) as u32);
            if t != n {
                dynov.add_edge(&mut g, t, n); // t writes into n's feed
                dynov.add_edge(&mut g, n, t);
            }
        }
    }
    validate_now(&dynov, &g, &nbh);

    // Delete 10 original nodes, including high-degree ones.
    for v in 0..10u32 {
        if g.contains(NodeId(v)) {
            dynov.remove_node(&mut g, NodeId(v));
        }
    }
    validate_now(&dynov, &g, &nbh);
    check_execution(&dynov, &g, 7);
}

#[test]
fn bulk_neighborhood_growth_builds_aggregates() {
    // Hub-and-spoke growth: many edges landing on one reader must trigger
    // the Δ-threshold path (a shared partial aggregate for the delta).
    let mut g = DataGraph::with_nodes(60);
    // Baseline: a small ring so every node has a reader.
    for v in 0..60u32 {
        g.add_edge(NodeId(v), NodeId((v + 1) % 60));
    }
    let nbh = Neighborhood::In;
    let ag = BipartiteGraph::build(&g, &nbh, |_| true);
    let (ov, _) = build_iob(&ag, &IobConfig::default());
    let cfg = DynamicConfig {
        delta_threshold: 2,
        ..Default::default()
    };
    let mut dynov = DynamicOverlay::new(ov, nbh.clone(), sum_props(), cfg);

    // Two readers acquire the same 12 new in-neighbors; the repair should
    // route them through shared structure where possible.
    for r in [NodeId(10), NodeId(20)] {
        for w in 40..52u32 {
            dynov.add_edge(&mut g, NodeId(w), r);
        }
    }
    validate_now(&dynov, &g, &nbh);
    check_execution(&dynov, &g, 8);
}

#[test]
fn deletion_cancellation_with_negative_edges() {
    // Deleting an edge whose writer reaches the reader only through a
    // shared partial is repaired with a negative edge (subtractable
    // aggregates). Verify results, not just structure.
    let mut g = DataGraph::with_nodes(30);
    // Ten readers share writers 0..5.
    for r in 10..20u32 {
        for w in 0..5u32 {
            g.add_edge(NodeId(w), NodeId(r));
        }
    }
    let nbh = Neighborhood::In;
    let ag = BipartiteGraph::build(&g, &nbh, |_| true);
    let (ov, _) = build_iob(&ag, &IobConfig::default());
    assert!(ov.partial_count() >= 1, "shared block must be factored");
    let mut dynov = DynamicOverlay::new(ov, nbh.clone(), sum_props(), DynamicConfig::default());

    // Reader 10 drops writer 3; everyone else keeps it.
    dynov.remove_edge(&mut g, NodeId(3), NodeId(10));
    validate_now(&dynov, &g, &nbh);

    // Count negative edges: the local repair may use one.
    let ov = dynov.overlay();
    let negs: usize = ov
        .ids()
        .map(|n| {
            ov.inputs(n)
                .iter()
                .filter(|&&(_, s)| s.is_negative())
                .count()
        })
        .sum();
    let _ = negs; // structure depends on thresholds; correctness is what matters
    check_execution(&dynov, &g, 9);
}

#[test]
fn stale_reader_retired_when_neighborhood_empties() {
    let mut g = DataGraph::with_nodes(5);
    g.add_edge(NodeId(0), NodeId(1));
    let nbh = Neighborhood::In;
    let ag = BipartiteGraph::build(&g, &nbh, |_| true);
    let (ov, _) = build_iob(&ag, &IobConfig::default());
    let mut dynov = DynamicOverlay::new(ov, nbh.clone(), sum_props(), DynamicConfig::default());
    assert!(dynov.overlay().reader(NodeId(1)).is_some());
    dynov.remove_edge(&mut g, NodeId(0), NodeId(1));
    assert!(
        dynov.overlay().reader(NodeId(1)).is_none(),
        "reader with empty neighborhood must be retired"
    );
}

#[test]
fn repeated_maintenance_keeps_coverage_index_sound() {
    // The reverse index and coverage sets must stay in sync through long
    // churn; probe by re-validating an expectation map built from scratch.
    let mut g = social_graph(60, 3, 55);
    let nbh = Neighborhood::In;
    let ag = BipartiteGraph::build(&g, &nbh, |_| true);
    let (ov, _) = build_iob(&ag, &IobConfig::default());
    let mut dynov = DynamicOverlay::new(ov, nbh.clone(), sum_props(), DynamicConfig::default());
    let mut rng = SplitMix64::new(123);
    for _ in 0..200 {
        let u = NodeId(rng.index(60) as u32);
        let v = NodeId(rng.index(60) as u32);
        if u == v || !g.contains(u) || !g.contains(v) {
            continue;
        }
        if rng.chance(0.5) && g.has_edge(u, v) {
            dynov.remove_edge(&mut g, u, v);
        } else {
            dynov.add_edge(&mut g, u, v);
        }
    }
    // Every live partial's coverage must equal the union of its inputs'.
    let ov = dynov.overlay();
    for n in ov.ids() {
        if matches!(ov.kind(n), eagr::overlay::OverlayKind::Partial) {
            let mut want: Vec<u32> = ov
                .inputs(n)
                .iter()
                .flat_map(|&(f, _)| ov.coverage(f).iter().copied())
                .collect();
            want.sort_unstable();
            want.dedup();
            let mut got = ov.coverage(n).to_vec();
            got.sort_unstable();
            // Coverage may be a superset only if a writer vanished from an
            // input but remained recorded — the maintenance purges those,
            // so demand equality.
            assert_eq!(got, want, "coverage drift at {n:?}");
        }
    }
    let _ = FastMap::<u32, u32>::default();
    validate_now(&dynov, &g, &nbh);
}

// ---------- the facade's topology path: resident repair index ----------

/// Every answer `sys` gives at this ingest boundary, per query, against the
/// oracles over the mirrored graph. The primary query (even readers) must
/// answer every even node with a neighborhood.
fn check_boundary(
    sys: &EagrSystem<Sum>,
    second: &eagr::QueryHandle<Sum>,
    odd: Option<&eagr::QueryHandle<Sum>>,
    g: &DataGraph,
    tuple1: &NaiveOracle<Sum>,
    tuple3: &NaiveOracle<Sum>,
    batch: usize,
) {
    let nodes: Vec<NodeId> = (0..g.id_bound() as u32).map(NodeId).collect();
    let primary = sys.read_batch(&nodes);
    let from_second = second.read_batch(&nodes);
    let from_odd = odd.map(|h| h.read_batch(&nodes));
    for (i, &v) in nodes.iter().enumerate() {
        if v.0 % 2 == 0 && g.contains(v) && !Neighborhood::In.select(g, v).is_empty() {
            assert!(primary[i].is_some(), "batch {batch}: {v:?} lost its reader");
        }
        if let Some(got) = primary[i] {
            assert_eq!(got, tuple1.read(g, v), "batch {batch}: primary at {v:?}");
        }
        if let Some(got) = from_second[i] {
            assert_eq!(got, tuple3.read(g, v), "batch {batch}: Tuple(3) at {v:?}");
        }
        if let Some(got) = from_odd.as_ref().and_then(|o| o[i]) {
            assert_eq!(got, tuple1.read(g, v), "batch {batch}: odd query at {v:?}");
        }
    }
}

/// Drive a ≥30-run churn stream through a system serving two strata — a
/// primary `Tuple(1)` query over even readers and a `Tuple(3)` query over
/// all of them — checking every answer against the oracle at every
/// `ingest` boundary. With `attach_detach`, a `Tuple(1)` query over the odd
/// readers joins the primary stratum and leaves again between mutation
/// runs. Returns the cumulative topology report and the number of times a
/// mutation run met a stratum whose overlay an attach/detach had rewritten
/// since its last run.
fn two_strata_churn(mode: ExecutionMode, attach_detach: bool) -> (TopoReport, u64) {
    let mut g = social_graph(60, 3, 17);
    let stream = churn_stream(
        &g,
        &ChurnConfig {
            epochs: 16,
            epoch_events: 120,
            churn_fraction: 0.02,
            node_churn: 0.2,
            seed: 0xD1FF,
            ..Default::default()
        },
    );
    let sys = EagrSystem::builder(EgoQuery::new(Sum).filter(|v| v.0 % 2 == 0))
        .overlay(OverlayAlgorithm::Vnma)
        .execution(mode)
        .build(&g);
    let second = sys.attach(EgoQuery::new(Sum).window(WindowSpec::Tuple(3)));
    assert!(!second.attach_report().unwrap().shared_stratum);
    let mut tuple1 = NaiveOracle::new(Sum, WindowSpec::Tuple(1), Neighborhood::In);
    let mut tuple3 = NaiveOracle::new(Sum, WindowSpec::Tuple(3), Neighborhood::In);
    let mut odd = None;
    let (mut stale, mut rebuilds) = (false, 0);
    let mut batch = 0;
    for epoch in &stream {
        // Split each epoch in halves, so that mutation runs land between
        // attach/detach calls and reads.
        for half in epoch.chunks(epoch.len().div_ceil(2)) {
            let base = sys.stream_position();
            sys.ingest(half);
            if stale && half.iter().any(Event::is_topo) {
                (stale, rebuilds) = (false, rebuilds + 1);
            }
            for (i, &e) in half.iter().enumerate() {
                match e {
                    Event::Write { node, value } => {
                        tuple1.write(node, value, base + i as u64);
                        tuple3.write(node, value, base + i as u64);
                    }
                    Event::AddEdge { from, to } => {
                        g.add_edge(from, to);
                    }
                    Event::RemoveEdge { from, to } => {
                        g.remove_edge(from, to);
                    }
                    Event::AddNode { node } => {
                        while g.id_bound() <= node.idx() {
                            g.add_node();
                        }
                    }
                    Event::RemoveNode { node } => g.remove_node(node),
                    Event::Read { .. } => {}
                }
            }
            check_boundary(&sys, &second, odd.as_ref(), &g, &tuple1, &tuple3, batch);
            if attach_detach {
                match (batch % 4, odd.take()) {
                    (1, None) => {
                        let h = sys.attach(EgoQuery::new(Sum).filter(|v| v.0 % 2 == 1));
                        assert!(h.attach_report().unwrap().shared_stratum);
                        stale = true;
                        odd = Some(h);
                    }
                    (3, Some(h)) => {
                        let report = sys.detach(h);
                        assert!(!report.stratum_dropped);
                        stale |= report.retired_paos > 0;
                    }
                    (_, h) => odd = h,
                }
                check_boundary(&sys, &second, odd.as_ref(), &g, &tuple1, &tuple3, batch);
            }
            batch += 1;
        }
    }
    let topo = sys.registry_stats().topo;
    assert!(topo.epochs >= 30, "only {} mutation runs", topo.epochs);
    assert_eq!(topo.skipped, 0, "the churn stream is valid in order");
    (topo, rebuilds)
}

#[test]
fn resident_repair_index_is_built_once_per_stratum() {
    for mode in [
        ExecutionMode::SingleThreaded,
        ExecutionMode::Sharded { shards: 2 },
    ] {
        let (topo, _) = two_strata_churn(mode, false);
        assert_eq!(topo.index_builds, 2, "{mode:?}: one build per stratum");
    }
}

#[test]
fn churn_with_attach_detach_over_two_strata_matches_oracle() {
    let mut reports = Vec::new();
    for mode in [
        ExecutionMode::SingleThreaded,
        ExecutionMode::Sharded { shards: 2 },
    ] {
        let (topo, rebuilds) = two_strata_churn(mode, true);
        assert!(rebuilds >= 8, "{mode:?}: only {rebuilds} invalidated runs");
        assert_eq!(
            topo.index_builds,
            2 + rebuilds,
            "{mode:?}: one build per stratum plus one per invalidation"
        );
        reports.push(topo);
    }
    assert_eq!(reports[0], reports[1], "modes repaired alike");
}

#[test]
fn topology_epochs_orphan_only_the_slots_they_retire() {
    // A retired node's slab slot is orphaned once, by the epoch that
    // retired it, so compaction can never reclaim more slots than repairs
    // retired or created — however low the compaction trigger.
    use eagr::exec::RebalancePolicy;
    let g = social_graph(200, 3, 5);
    let stream = churn_stream(
        &g,
        &ChurnConfig {
            epochs: 20,
            epoch_events: 100,
            node_churn: 0.5,
            seed: 5,
            ..Default::default()
        },
    );
    let policy = RebalancePolicy {
        compact_after_orphans: 8,
        ..RebalancePolicy::manual()
    };
    let build = |mode| {
        EagrSystem::builder(EgoQuery::new(Sum))
            .execution(mode)
            .rebalance(policy)
            .build(&g)
    };
    let reference = build(ExecutionMode::SingleThreaded);
    let sharded = build(ExecutionMode::Sharded { shards: 2 });
    for batch in &stream {
        assert_eq!(reference.ingest(batch), sharded.ingest(batch));
    }
    let topo = sharded.registry_stats().topo;
    assert!(topo.epochs >= 40, "only {} mutation runs", topo.epochs);
    assert!(
        topo.retired_overlay_nodes >= 16,
        "retirements cross the trigger"
    );
    let reclaimed = sharded.sharded_engine().unwrap().slots_reclaimed();
    assert!(reclaimed > 0, "auto-compaction fired");
    assert!(
        reclaimed <= topo.retired_overlay_nodes + topo.fresh_overlay_nodes,
        "reclaimed {reclaimed} slots, but repairs retired {} and created {}",
        topo.retired_overlay_nodes,
        topo.fresh_overlay_nodes
    );
    let nodes: Vec<NodeId> = (0..sharded.stream_position() as u32)
        .map(NodeId)
        .take(400)
        .collect();
    assert_eq!(sharded.read_batch(&nodes), reference.read_batch(&nodes));
}
