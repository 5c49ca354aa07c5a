//! Property-based tests (proptest) of the core invariants:
//!
//! * PAO algebra laws for every built-in aggregate,
//! * window-buffer ↔ delta-op consistency,
//! * overlay construction preserves net contribution on arbitrary bipartite
//!   graphs,
//! * min-cut decisions valid + optimal vs brute force on arbitrary DAGs,
//! * engine ≡ oracle on arbitrary event interleavings,
//! * the batch kernel ≡ oracle at every `ingest` boundary, and applies at
//!   most half the PAO updates of a per-op replay.

use eagr::agg::{Aggregate, Avg, Count, Distinct, Max, Min, Sum, TopK, WindowBuffer, WindowSpec};
use eagr::exec::{EngineCore, RebalancePolicy, ShardedConfig, ShardedEngine};
use eagr::flow::{decide_maxflow, node_costs, propagate_frequencies, Decisions, Rates};
use eagr::gen::{batch_events, Event};
use eagr::graph::{BipartiteGraph, DataGraph, Neighborhood, NodeId, PartitionStrategy};
use eagr::overlay::{
    build_iob, build_vnm, validate_vs_bipartite, IobConfig, Overlay, OverlayId, VnmConfig,
};
use eagr::prelude::*;
use eagr::{EagrSystem, NaiveOracle, OverlayAlgorithm};
use proptest::prelude::*;
use std::sync::Arc;

// ---------- aggregate algebra ----------

/// Model-check one aggregate: any interleaving of inserts and removes
/// (removes only of present values) must finalize like the multiset model.
fn check_against_multiset<A: Aggregate>(
    agg: &A,
    ops: &[(bool, i64)],
    model_finalize: impl Fn(&[i64]) -> A::Output,
) {
    let mut p = agg.empty();
    let mut model: Vec<i64> = Vec::new();
    for &(insert, v) in ops {
        if insert {
            agg.insert(&mut p, v);
            model.push(v);
        } else if let Some(pos) = model.iter().position(|&x| x == v) {
            agg.remove(&mut p, v);
            model.remove(pos);
        }
    }
    assert_eq!(agg.finalize(&p), model_finalize(&model));
}

/// One `ingest` run of the batch-kernel differential: its events as
/// `(kind, node, value)`, what follows it, and the point write's operands.
type KernelRun = (Vec<(u8, u32, i64)>, u8, (u32, i64));

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sum_matches_multiset_model(ops in proptest::collection::vec((any::<bool>(), -100i64..100), 0..200)) {
        check_against_multiset(&Sum, &ops, |m| m.iter().sum());
    }

    #[test]
    fn count_matches_multiset_model(ops in proptest::collection::vec((any::<bool>(), -100i64..100), 0..200)) {
        check_against_multiset(&Count, &ops, |m| m.len() as i64);
    }

    #[test]
    fn max_min_match_multiset_model(ops in proptest::collection::vec((any::<bool>(), -50i64..50), 0..200)) {
        check_against_multiset(&Max, &ops, |m| m.iter().copied().max());
        check_against_multiset(&Min, &ops, |m| m.iter().copied().min());
    }

    #[test]
    fn distinct_matches_multiset_model(ops in proptest::collection::vec((any::<bool>(), 0i64..20), 0..200)) {
        check_against_multiset(&Distinct, &ops, |m| {
            let mut s: Vec<i64> = m.to_vec();
            s.sort_unstable();
            s.dedup();
            s.len()
        });
    }

    #[test]
    fn topk_matches_multiset_model(ops in proptest::collection::vec((any::<bool>(), 0i64..10), 0..200)) {
        check_against_multiset(&TopK::new(3), &ops, |m| {
            let mut freq = std::collections::HashMap::new();
            for &v in m {
                *freq.entry(v).or_insert(0i64) += 1;
            }
            let mut items: Vec<(i64, i64)> = freq.into_iter().collect();
            items.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            items.truncate(3);
            items
        });
    }

    #[test]
    fn merge_is_commutative_and_unmerge_inverts(
        xs in proptest::collection::vec(-50i64..50, 0..50),
        ys in proptest::collection::vec(-50i64..50, 0..50),
    ) {
        let agg = TopK::new(5);
        let mut a = agg.empty();
        let mut b = agg.empty();
        for &x in &xs { agg.insert(&mut a, x); }
        for &y in &ys { agg.insert(&mut b, y); }
        // a ⊕ b == b ⊕ a
        let mut ab = a.clone();
        agg.merge(&mut ab, &b);
        let mut ba = b.clone();
        agg.merge(&mut ba, &a);
        prop_assert_eq!(agg.finalize(&ab), agg.finalize(&ba));
        // (a ⊕ b) ⊖ b == a
        agg.unmerge(&mut ab, &b);
        prop_assert_eq!(agg.finalize(&ab), agg.finalize(&a));
    }

    // ---------- windows ----------

    #[test]
    fn tuple_window_inserts_minus_removes_equals_contents(
        values in proptest::collection::vec(-100i64..100, 1..100),
        c in 1usize..8,
    ) {
        let mut w = WindowBuffer::new(WindowSpec::Tuple(c));
        let mut live: Vec<i64> = Vec::new();
        for (ts, &v) in values.iter().enumerate() {
            let mut expired = Vec::new();
            w.push(ts as u64, v, &mut expired);
            live.push(v);
            for e in expired {
                let pos = live.iter().position(|&x| x == e).expect("expired value was live");
                live.remove(pos);
            }
            prop_assert_eq!(w.len(), live.len());
            prop_assert!(w.len() <= c);
        }
        let contents: Vec<i64> = w.values().collect();
        let tail: Vec<i64> = values[values.len().saturating_sub(c)..].to_vec();
        prop_assert_eq!(contents, tail);
    }

    #[test]
    fn time_window_never_holds_stale_values(
        steps in proptest::collection::vec((0u64..5, -10i64..10), 1..80),
        horizon in 1u64..20,
    ) {
        let mut w = WindowBuffer::new(WindowSpec::Time(horizon));
        let mut now = 0u64;
        let mut sink = Vec::new();
        for &(dt, v) in &steps {
            now += dt;
            w.push(now, v, &mut sink);
        }
        // All retained timestamps are within the horizon.
        prop_assert!(!w.is_empty()); // the newest value always survives
        let newest_cutoff = now.checked_sub(horizon);
        if let Some(cut) = newest_cutoff {
            let _ = cut;
        }
    }

    // ---------- overlay construction ----------

    #[test]
    fn vnm_and_iob_preserve_contribution_on_random_bipartite(
        seed in 0u64..1000,
        readers in 3usize..12,
        writers in 3usize..10,
        density in 0.2f64..0.9,
    ) {
        let mut rng = eagr::util::SplitMix64::new(seed);
        let mut lists = Vec::new();
        for r in 0..readers {
            let mut inputs = Vec::new();
            for w in 0..writers {
                if rng.chance(density) {
                    inputs.push(NodeId(w as u32));
                }
            }
            if inputs.is_empty() {
                inputs.push(NodeId(rng.index(writers) as u32));
            }
            lists.push((NodeId((100 + r) as u32), inputs));
        }
        let ag = BipartiteGraph::from_input_lists(120, lists);
        let subtractable = eagr::agg::AggProps { duplicate_insensitive: false, subtractable: true };
        let dup_ok = eagr::agg::AggProps { duplicate_insensitive: true, subtractable: false };

        let (ov, _) = build_vnm(&ag, &VnmConfig::vnma(subtractable));
        prop_assert!(validate_vs_bipartite(&ov, subtractable, &ag).is_ok());

        let (ovn, _) = build_vnm(&ag, &VnmConfig::vnmn(subtractable));
        prop_assert!(validate_vs_bipartite(&ovn, subtractable, &ag).is_ok());

        let (ovd, _) = build_vnm(&ag, &VnmConfig::vnmd(dup_ok));
        prop_assert!(validate_vs_bipartite(&ovd, dup_ok, &ag).is_ok());

        let (ovi, _) = build_iob(&ag, &IobConfig::default());
        prop_assert!(validate_vs_bipartite(&ovi, subtractable, &ag).is_ok());

        // Sharing index never negative, never ≥ 1.
        for o in [&ov, &ovn, &ovd, &ovi] {
            prop_assert!(o.sharing_index() >= -1e-9 && o.sharing_index() < 1.0);
        }
    }

    // ---------- dataflow decisions ----------

    #[test]
    fn maxflow_decisions_always_valid(
        seed in 0u64..500,
        ratio in 0.05f64..20.0,
    ) {
        let g = eagr::gen::social_graph(40, 3, seed);
        let ag = BipartiteGraph::build(&g, &Neighborhood::In, |_| true);
        let props = eagr::agg::AggProps { duplicate_insensitive: false, subtractable: true };
        let (ov, _) = build_vnm(&ag, &VnmConfig::vnma(props));
        let rates = Rates::uniform(g.id_bound(), ratio);
        let f = propagate_frequencies(&ov, &rates);
        let costs = node_costs(&ov, &f, &CostModel::unit_sum(), 1);
        let out = decide_maxflow(&ov, &costs);
        prop_assert!(out.decisions.is_valid(&ov));
        // Writers always push.
        for (w, _) in ov.writers() {
            prop_assert!(out.decisions.is_push(w));
        }
    }

    // ---------- sharded ≡ single-threaded reference ----------

    #[test]
    fn sharded_engine_equals_reference_after_drain(
        seed in 0u64..100,
        shards in 2usize..6,
        strategy_pick in 0usize..3,
        agg_pick in 0usize..3,
        events in proptest::collection::vec((0u32..30, -50i64..50), 20..300),
        batch_size in 1usize..64,
    ) {
        fn check<A: Aggregate + Clone>(
            agg: A,
            ov: &Arc<Overlay>,
            d: &Decisions,
            shards: usize,
            strategy: PartitionStrategy,
            events: &[(u32, i64)],
            batch_size: usize,
        ) {
            let reference = EngineCore::new(agg.clone(), Arc::clone(ov), d, WindowSpec::Tuple(1));
            let sharded = ShardedEngine::new(
                agg,
                Arc::clone(ov),
                d,
                WindowSpec::Tuple(1),
                &ShardedConfig::builder()
                    .shards(shards)
                    .strategy(strategy)
                    .channel_capacity(64)
                    .build(),
            );
            let stream: Vec<Event> = events
                .iter()
                .map(|&(n, v)| Event::Write { node: NodeId(n), value: v })
                .collect();
            for (ts, e) in stream.iter().enumerate() {
                if let Event::Write { node, value } = *e {
                    reference.write(node, value, ts as u64);
                }
            }
            for batch in batch_events(&stream, batch_size, 0) {
                sharded.ingest(&batch).unwrap();
            }
            sharded.drain().unwrap();
            for n in 0..30u32 {
                assert_eq!(
                    sharded.read(NodeId(n)),
                    reference.read(NodeId(n)),
                    "node {n} diverged ({shards} shards, {strategy:?})"
                );
            }
            // Shard-executed reads must agree with the reference too: the
            // whole batch is evaluated by the owning workers (push
            // finalizes and pull trees alike), never the caller thread.
            let nodes: Vec<NodeId> = (0..30u32).map(NodeId).collect();
            let served = sharded.read_batch(&nodes).unwrap();
            for (i, &v) in nodes.iter().enumerate() {
                assert_eq!(
                    served[i],
                    reference.read(v),
                    "shard-executed read {v:?} diverged ({shards} shards, {strategy:?})"
                );
            }
            assert!(sharded.reads_served() > 0, "workers must serve the batch");
            sharded.shutdown();
        }

        let g = eagr::gen::social_graph(30, 3, seed);
        let ag = BipartiteGraph::build(&g, &Neighborhood::In, |_| true);
        let ov = Arc::new(Overlay::direct_from_bipartite(&ag));
        let d = Decisions::all_push(&ov);
        // All three strategies must agree with the reference: the map the
        // engine runs over must never change the answers, only the share
        // of deltas that crosses shards.
        let strategy = match strategy_pick {
            0 => PartitionStrategy::Hash,
            1 => PartitionStrategy::Chunk { chunk_size: 8 },
            _ => PartitionStrategy::EdgeCut,
        };
        match agg_pick {
            0 => check(Sum, &ov, &d, shards, strategy, &events, batch_size),
            1 => check(Count, &ov, &d, shards, strategy, &events, batch_size),
            _ => check(Max, &ov, &d, shards, strategy, &events, batch_size),
        }
    }

    #[test]
    fn rebalance_during_ingest_preserves_differential(
        seed in 0u64..60,
        shards in 2usize..5,
        events in proptest::collection::vec((0u32..30, -50i64..50), 20..250),
        batch_size in 4usize..48,
        rebalance_every in 1usize..5,
    ) {
        // Live migration fuzz: interleave forced rebalances (threshold 0,
        // unbounded moves) with ingestion epochs at arbitrary batch sizes.
        // However the hot set and the map dance, the drained engine must
        // equal the single-threaded replay, point reads and shard-executed
        // batches alike. The nightly soak job runs this with
        // PROPTEST_CASES raised ~10× so migration races get real fuzz
        // time.
        let g = eagr::gen::social_graph(30, 3, seed);
        let ag = BipartiteGraph::build(&g, &Neighborhood::In, |_| true);
        let ov = Arc::new(Overlay::direct_from_bipartite(&ag));
        let d = Decisions::all_push(&ov);
        let reference = EngineCore::new(Sum, Arc::clone(&ov), &d, WindowSpec::Tuple(1));
        let sharded = ShardedEngine::new(
            Sum,
            Arc::clone(&ov),
            &d,
            WindowSpec::Tuple(1),
            &ShardedConfig::builder()
                .shards(shards)
                .strategy(PartitionStrategy::Hash)
                .channel_capacity(64)
                .rebalance(RebalancePolicy {
                    min_cut_gain: 0.0,
                    max_move_fraction: 1.0,
                    ..RebalancePolicy::default()
                })
                .build(),
        );
        let stream: Vec<Event> = events
            .iter()
            .map(|&(n, v)| Event::Write { node: NodeId(n), value: v })
            .collect();
        for (ts, e) in stream.iter().enumerate() {
            if let Event::Write { node, value } = *e {
                reference.write(node, value, ts as u64);
            }
        }
        for (i, batch) in batch_events(&stream, batch_size, 0).iter().enumerate() {
            sharded.ingest_epoch(batch).unwrap();
            if i % rebalance_every == rebalance_every - 1 {
                sharded.rebalance().unwrap();
            }
        }
        let nodes: Vec<NodeId> = (0..30u32).map(NodeId).collect();
        let served = sharded.read_batch(&nodes).unwrap();
        for (i, &v) in nodes.iter().enumerate() {
            prop_assert_eq!(
                sharded.read(v),
                reference.read(v),
                "point read {:?} diverged after migrations",
                v
            );
            prop_assert_eq!(
                served[i].clone(),
                reference.read(v),
                "shard-executed read {:?} diverged after migrations",
                v
            );
        }
        sharded.shutdown();
    }

    #[test]
    fn migration_during_concurrent_ingest_preserves_differential(
        seed in 0u64..60,
        shards in 2usize..5,
        events in proptest::collection::vec((0u32..30, -50i64..50), 20..250),
        batch_size in 4usize..48,
    ) {
        // Two-phase migration fuzz: an ingester thread streams the whole
        // workload while the main thread hammers the migration machinery —
        // observed-load rebalances, explicit ping-pong migrations, and
        // fence-piggybacked compaction (compact_after_orphans=1). Phase-1
        // copies therefore run with writes genuinely in flight, so the
        // side-log capture/replay path is exercised for real. The drained
        // engine must equal the single-threaded replay exactly. The
        // nightly soak job runs this with PROPTEST_CASES raised ~10× so
        // the copy/flip races get real fuzz time.
        let g = eagr::gen::social_graph(30, 3, seed);
        let ag = BipartiteGraph::build(&g, &Neighborhood::In, |_| true);
        let ov = Arc::new(Overlay::direct_from_bipartite(&ag));
        let d = Decisions::all_push(&ov);
        let reference = EngineCore::new(Sum, Arc::clone(&ov), &d, WindowSpec::Tuple(1));
        let sharded = ShardedEngine::new(
            Sum,
            Arc::clone(&ov),
            &d,
            WindowSpec::Tuple(1),
            &ShardedConfig::builder()
                .shards(shards)
                .strategy(PartitionStrategy::Hash)
                .channel_capacity(64)
                .rebalance(RebalancePolicy {
                    min_cut_gain: 0.0,
                    max_move_fraction: 1.0,
                    compact_after_orphans: 1,
                    ..RebalancePolicy::default()
                })
                .build(),
        );
        let stream: Vec<Event> = events
            .iter()
            .map(|&(n, v)| Event::Write { node: NodeId(n), value: v })
            .collect();
        for (ts, e) in stream.iter().enumerate() {
            if let Event::Write { node, value } = *e {
                reference.write(node, value, ts as u64);
            }
        }
        let a = sharded.partition();
        let mut b = a.clone();
        for s in b.of.iter_mut() {
            s.0 = (s.0 + 1) % shards as u32;
        }
        let done = std::sync::atomic::AtomicBool::new(false);
        // lint: allow(panic-free, in-process transport Results cannot fail while workers are alive; an unwrap propagates as the test failure at the scope join)
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for batch in batch_events(&stream, batch_size, 0) {
                    sharded.ingest_epoch(&batch).unwrap();
                }
                done.store(true, std::sync::atomic::Ordering::Release);
            });
            while !done.load(std::sync::atomic::Ordering::Acquire) {
                sharded.migrate_to(&b).unwrap();
                sharded.migrate_to(&a).unwrap();
                sharded.rebalance().unwrap();
            }
        });
        sharded.drain().unwrap();
        let nodes: Vec<NodeId> = (0..30u32).map(NodeId).collect();
        let served = sharded.read_batch(&nodes).unwrap();
        for (i, &v) in nodes.iter().enumerate() {
            prop_assert_eq!(
                sharded.read(v),
                reference.read(v),
                "point read {:?} diverged under concurrent migration",
                v
            );
            prop_assert_eq!(
                served[i].clone(),
                reference.read(v),
                "shard-executed read {:?} diverged under concurrent migration",
                v
            );
        }
        // Fence-piggybacked compaction fired on every committed migration;
        // a final sweep must leave zero orphans and identical answers.
        sharded.compact().unwrap();
        prop_assert_eq!(sharded.orphaned_pao_slots(), 0);
        for &v in &nodes {
            prop_assert_eq!(sharded.read(v), reference.read(v));
        }
        sharded.shutdown();
    }

    // ---------- dynamic topology ----------

    #[test]
    fn dynamic_overlay_repair_equals_fresh_rebuild(
        seed in 0u64..50,
        ops in proptest::collection::vec((0u8..4, any::<u32>(), any::<u32>()), 1..40),
        writes in proptest::collection::vec((any::<u32>(), -50i64..50), 10..120),
    ) {
        // Incremental repair differential: drive an arbitrary mutation
        // sequence through DynamicOverlay, then check the repaired overlay
        // against (a) a from-scratch rebuild over the mutated graph — any
        // node the fresh overlay serves, the repaired one must serve with
        // the same answer — and (b) the naive oracle as ground truth for
        // everything the repaired overlay serves.
        use eagr::overlay::{DynamicConfig, DynamicOverlay};
        let mut g = eagr::gen::social_graph(30, 3, seed);
        let props = eagr::agg::AggProps {
            duplicate_insensitive: false,
            subtractable: true,
        };
        let ag0 = BipartiteGraph::build(&g, &Neighborhood::In, |_| true);
        let (ov0, _) = build_vnm(&ag0, &VnmConfig::vnma(props));
        let mut dyn_ov =
            DynamicOverlay::new(ov0, Neighborhood::In, props, DynamicConfig::default());
        for &(pick, a, b) in &ops {
            match pick {
                0 => {
                    let bound = g.id_bound() as u32;
                    let (u, v) = (NodeId(a % bound), NodeId(b % bound));
                    if u != v && g.contains(u) && g.contains(v) {
                        dyn_ov.add_edge(&mut g, u, v);
                    }
                }
                1 => {
                    let edges: Vec<_> = g.edges().collect();
                    if !edges.is_empty() {
                        let (u, v) = edges[a as usize % edges.len()];
                        dyn_ov.remove_edge(&mut g, u, v);
                    }
                }
                2 => {
                    dyn_ov.add_node(&mut g);
                }
                _ => {
                    let bound = g.id_bound() as u32;
                    let v = NodeId(a % bound);
                    if g.contains(v) && g.node_count() > 2 {
                        dyn_ov.remove_node(&mut g, v);
                    }
                }
            }
        }
        let repaired = Arc::new(dyn_ov.into_overlay());
        let ag = BipartiteGraph::build(&g, &Neighborhood::In, |_| true);
        let fresh = Arc::new(Overlay::direct_from_bipartite(&ag));
        let dr = Decisions::all_push(&repaired);
        let df = Decisions::all_push(&fresh);
        let er = EngineCore::new(Sum, Arc::clone(&repaired), &dr, WindowSpec::Tuple(1));
        let ef = EngineCore::new(Sum, Arc::clone(&fresh), &df, WindowSpec::Tuple(1));
        let mut oracle = NaiveOracle::new(Sum, WindowSpec::Tuple(1), Neighborhood::In);
        for (ts, &(n, v)) in writes.iter().enumerate() {
            let bound = g.id_bound() as u32;
            let node = NodeId(n % bound);
            if g.contains(node) {
                er.write(node, v, ts as u64);
                ef.write(node, v, ts as u64);
                oracle.write(node, v, ts as u64);
            }
        }
        for v in g.nodes() {
            let from_fresh = ef.read(v);
            let from_repair = er.read(v);
            if from_fresh.is_some() {
                prop_assert_eq!(
                    from_repair.clone(),
                    from_fresh,
                    "node {:?}: repaired overlay diverged from fresh rebuild",
                    v
                );
            }
            if let Some(got) = from_repair {
                prop_assert_eq!(got, oracle.read(&g, v), "node {:?} vs oracle", v);
            }
        }
    }

    #[test]
    fn undo_log_rollback_restores_the_graph(
        seed in 0u64..100,
        ops in proptest::collection::vec((0u8..4, any::<u32>(), any::<u32>()), 1..60),
    ) {
        // Mutate under an undo log, roll back: the graph is the original
        // one, adjacency order included. Replaying the same mutations lands
        // on the same mutated graph, and the same log undoes that too.
        use eagr::graph::UndoLog;
        fn apply(g: &mut DataGraph, ops: &[(u8, u32, u32)], log: &mut UndoLog) {
            for &(pick, a, b) in ops {
                let bound = g.id_bound() as u32;
                let (u, v) = (NodeId(a % bound), NodeId(b % bound));
                match pick {
                    0 if g.contains(u) && g.contains(v) => {
                        log.record_edge(g, u, v);
                        g.add_edge(u, v);
                    }
                    1 if g.contains(u) && g.contains(v) => {
                        log.record_edge(g, u, v);
                        g.remove_edge(u, v);
                    }
                    2 => {
                        g.add_node();
                    }
                    3 if g.contains(u) => {
                        log.record_node_removal(g, u);
                        g.remove_node(u);
                    }
                    _ => {}
                }
            }
        }
        type Adjacency = Vec<(bool, Vec<NodeId>, Vec<NodeId>)>;
        fn snapshot(g: &DataGraph) -> (usize, usize, usize, Adjacency) {
            let adj = (0..g.id_bound() as u32)
                .map(NodeId)
                .map(|v| (g.contains(v), g.out_neighbors(v).to_vec(), g.in_neighbors(v).to_vec()))
                .collect();
            (g.id_bound(), g.node_count(), g.edge_count(), adj)
        }
        let mut g = eagr::gen::social_graph(30, 3, seed);
        let before = snapshot(&g);
        let mut log = UndoLog::new(&g);
        apply(&mut g, &ops, &mut log);
        let after = snapshot(&g);
        g.rollback(&log);
        prop_assert_eq!(snapshot(&g), before.clone());
        let mut replay_log = UndoLog::new(&g);
        apply(&mut g, &ops, &mut replay_log);
        prop_assert_eq!(snapshot(&g), after);
        g.rollback(&log);
        prop_assert_eq!(snapshot(&g), before);
    }

    #[test]
    fn overlay_clone_copies_only_the_chunks_a_repair_touches(
        seed in 0u64..50,
        ops in proptest::collection::vec((0u8..4, any::<u32>(), any::<u32>()), 1..30),
        writes in proptest::collection::vec((any::<u32>(), -50i64..50), 10..120),
    ) {
        // Copy-on-write independence: repair a clone of an overlay through
        // DynamicOverlay. The original's bytes never change; each repair
        // step copies only chunks holding an id whose inputs, outputs or
        // coverage it changed (or appended); and the repaired clone answers
        // like the naive oracle over the mutated graph.
        use eagr::overlay::{DynamicConfig, DynamicOverlay, CHUNK_NODES};
        use eagr::util::wire::Wire;
        let mut g = eagr::gen::social_graph(150, 3, seed);
        let props = Sum.props();
        let ag0 = BipartiteGraph::build(&g, &Neighborhood::In, |_| true);
        let (original, _) = build_vnm(&ag0, &VnmConfig::vnma(props));
        let original_bytes = original.to_wire();
        let mut dyn_ov = DynamicOverlay::new(
            original.clone(),
            Neighborhood::In,
            props,
            DynamicConfig::default(),
        );
        // Chunks holding a changed or appended id, counted per table.
        let touched_chunks = |prev: &Overlay, now: &Overlay| -> usize {
            let mut chunks = std::collections::HashSet::new();
            for id in (0..now.node_count() as u32).map(OverlayId) {
                let fresh = id.idx() >= prev.node_count();
                let changed = [
                    fresh || prev.inputs(id) != now.inputs(id),
                    fresh || prev.outputs(id) != now.outputs(id),
                    fresh || prev.coverage(id) != now.coverage(id),
                ];
                for (table, &c) in changed.iter().enumerate() {
                    if c {
                        chunks.insert((table, id.idx() / CHUNK_NODES));
                    }
                }
            }
            chunks.len()
        };
        for &(pick, a, b) in &ops {
            let prev = dyn_ov.overlay().clone();
            match pick {
                0 => {
                    let bound = g.id_bound() as u32;
                    let (u, v) = (NodeId(a % bound), NodeId(b % bound));
                    if u != v && g.contains(u) && g.contains(v) {
                        dyn_ov.add_edge(&mut g, u, v);
                    }
                }
                1 => {
                    let edges: Vec<_> = g.edges().collect();
                    if !edges.is_empty() {
                        let (u, v) = edges[a as usize % edges.len()];
                        dyn_ov.remove_edge(&mut g, u, v);
                    }
                }
                2 => {
                    dyn_ov.add_node(&mut g);
                }
                _ => {
                    let bound = g.id_bound() as u32;
                    let v = NodeId(a % bound);
                    if g.contains(v) && g.node_count() > 2 {
                        dyn_ov.remove_node(&mut g, v);
                    }
                }
            }
            let now = dyn_ov.overlay();
            prop_assert!(
                now.chunks_unshared_with(&prev) <= touched_chunks(&prev, now),
                "a step copied {} chunks but changed ids in only {}",
                now.chunks_unshared_with(&prev),
                touched_chunks(&prev, now)
            );
        }
        prop_assert!(original.to_wire() == original_bytes, "the original changed");
        let repaired = Arc::new(dyn_ov.into_overlay());
        let d = Decisions::all_push(&repaired);
        let engine = EngineCore::new(Sum, Arc::clone(&repaired), &d, WindowSpec::Tuple(1));
        let mut oracle = NaiveOracle::new(Sum, WindowSpec::Tuple(1), Neighborhood::In);
        for (ts, &(n, v)) in writes.iter().enumerate() {
            let node = NodeId(n % g.id_bound() as u32);
            if g.contains(node) {
                engine.write(node, v, ts as u64);
                oracle.write(node, v, ts as u64);
            }
        }
        for v in g.nodes() {
            if let Some(got) = engine.read(v) {
                prop_assert_eq!(got, oracle.read(&g, v), "node {:?}", v);
            }
        }
    }

    #[test]
    fn churn_during_concurrent_ingest_matches_reference(
        seed in 0u64..40,
        shards in 2usize..5,
        epochs in 2usize..4,
        epoch_events in 40usize..120,
        churn_pct in 1u32..11,
    ) {
        // Sustained-churn differential through the facade: the same mixed
        // content/mutation stream goes through a sharded system — while a
        // prober thread hammers relaxed reads — and the single-threaded
        // reference. After every epoch both must agree on every answer and
        // on the mutation accounting. The nightly soak job runs this with
        // PROPTEST_CASES raised ~10x so topology epochs race real
        // concurrent traffic.
        use eagr::gen::{churn_stream, ChurnConfig};
        use std::sync::atomic::{AtomicBool, Ordering};
        let g = eagr::gen::social_graph(30, 3, seed);
        let stream = churn_stream(
            &g,
            &ChurnConfig {
                epochs,
                epoch_events,
                churn_fraction: churn_pct as f64 / 100.0,
                node_churn: 0.2,
                seed: seed.wrapping_mul(0x9E37_79B9),
                ..Default::default()
            },
        );
        let build = |mode| {
            EagrSystem::builder(EgoQuery::new(Sum))
                .overlay(OverlayAlgorithm::Vnma)
                .execution(mode)
                .build(&g)
        };
        let reference = build(eagr::ExecutionMode::SingleThreaded);
        let sharded = build(eagr::ExecutionMode::Sharded { shards });
        let mut bound = g.id_bound();
        for batch in &stream {
            for e in batch {
                if let Event::AddNode { node } = *e {
                    bound = bound.max(node.idx() + 1);
                }
            }
        }
        let done = AtomicBool::new(false);
        // Raised on every exit path — including assertion panics — so the
        // prober can't outlive the scope and wedge the join.
        struct StopOnDrop<'a>(&'a AtomicBool);
        impl Drop for StopOnDrop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Release);
            }
        }
        std::thread::scope(|scope| {
            let _stop = StopOnDrop(&done);
            scope.spawn(|| {
                // Probe gently: a hot spin would monopolize a single-core
                // box and starve the ingest thread it races against.
                let mut i = 0u32;
                while !done.load(Ordering::Acquire) {
                    std::hint::black_box(sharded.read_relaxed(NodeId(i % bound as u32)));
                    i = i.wrapping_add(1);
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
            });
            for batch in &stream {
                let rr = reference.ingest(batch);
                let rs = sharded.ingest(batch);
                assert_eq!(rr, rs, "ingest reports diverged");
                assert!(rr.mutations > 0, "churn epochs carry mutations");
            }
        });
        let nodes: Vec<NodeId> = (0..bound as u32).map(NodeId).collect();
        prop_assert_eq!(sharded.read_batch(&nodes), reference.read_batch(&nodes));
        prop_assert_eq!(
            sharded.registry_stats().topo,
            reference.registry_stats().topo
        );
    }

    // ---------- end-to-end ----------

    #[test]
    fn engine_equals_oracle_on_arbitrary_interleavings(
        seed in 0u64..200,
        events in proptest::collection::vec((any::<bool>(), 0u32..40, -20i64..20), 1..200),
    ) {
        let g = eagr::gen::social_graph(40, 3, seed);
        let sys = EagrSystem::builder(EgoQuery::new(Sum).window(WindowSpec::Tuple(2)))
            .overlay(OverlayAlgorithm::Vnmn)
            .build(&g);
        let mut oracle = NaiveOracle::new(Sum, WindowSpec::Tuple(2), Neighborhood::In);
        for (ts, &(is_write, node, value)) in events.iter().enumerate() {
            let node = NodeId(node);
            if is_write {
                sys.write(node, value, ts as u64);
                oracle.write(node, value, ts as u64);
            } else if let Some(got) = sys.read(node) {
                prop_assert_eq!(got, oracle.read(&g, node));
            }
        }
        let _ = Event::Read { node: NodeId(0) };
    }

    #[test]
    fn batch_kernel_equals_oracle_at_every_ingest_boundary(
        seed in 0u64..200,
        agg_pick in 0usize..7,
        window_pick in 0usize..4,
        // Per run: its events (kind, node, value), then what follows it —
        // 0 nothing, 1 a point write, 2 `advance_time`. Few hot nodes and
        // few values, so writers repeat within a run and ops cancel.
        runs in proptest::collection::vec(
            (
                proptest::collection::vec((0u8..3, 0u32..12, -3i64..4), 1..48),
                0u8..3,
                (0u32..30, -3i64..4),
            ),
            1..10,
        ),
    ) {
        fn check<A: Aggregate + Clone>(
            agg: A,
            window: WindowSpec,
            seed: u64,
            runs: &[KernelRun],
        ) {
            let g = eagr::gen::social_graph(30, 3, seed);
            // Negative edges where the aggregate subtracts, duplicate
            // paths where it tolerates them.
            let overlay = if agg.props().subtractable {
                OverlayAlgorithm::Vnmn
            } else {
                OverlayAlgorithm::Vnmd
            };
            let sys = EagrSystem::builder(EgoQuery::new(agg.clone()).window(window))
                .overlay(overlay)
                .execution(ExecutionMode::SingleThreaded)
                .build(&g);
            let mut oracle = NaiveOracle::new(agg, window, Neighborhood::In);
            let mut clock = 0u64;
            for (events, after, (node, value)) in runs {
                let stream: Vec<Event> = events
                    .iter()
                    .map(|&(kind, n, v)| {
                        let node = NodeId(n);
                        if kind == 0 {
                            Event::Read { node }
                        } else {
                            Event::Write { node, value: v }
                        }
                    })
                    .collect();
                sys.ingest(&stream);
                for e in &stream {
                    if let Event::Write { node, value } = *e {
                        oracle.write(node, value, clock);
                    }
                    clock += 1;
                }
                match after {
                    1 => {
                        sys.write(NodeId(*node), *value, clock);
                        oracle.write(NodeId(*node), *value, clock);
                        clock += 1;
                    }
                    2 => {
                        sys.advance_time(clock);
                        oracle.advance_time(clock);
                    }
                    _ => {}
                }
                for v in (0..30).map(NodeId) {
                    if let Some(got) = sys.read(v) {
                        assert_eq!(got, oracle.read(&g, v), "node {v:?}, {window:?}");
                    }
                }
            }
        }

        let window = match window_pick {
            0 => WindowSpec::Tuple(1),
            1 => WindowSpec::Tuple(3),
            2 => WindowSpec::Time(8),
            _ => WindowSpec::Unbounded,
        };
        match agg_pick {
            0 => check(Sum, window, seed, &runs),
            1 => check(Count, window, seed, &runs),
            2 => check(Avg, window, seed, &runs),
            3 => check(Max, window, seed, &runs),
            4 => check(Min, window, seed, &runs),
            5 => check(TopK::new(2), window, seed, &runs),
            _ => check(Distinct, window, seed, &runs),
        }
    }
}

// ---------- deterministic structural checks ----------

#[test]
fn sharing_index_non_negative_on_incompressible_graph() {
    // An Erdős–Rényi graph has almost no bicliques; the algorithms must
    // never make the overlay *worse* than the bipartite graph.
    let g = eagr::gen::erdos_renyi(300, 3.0, 3);
    let ag = BipartiteGraph::build(&g, &Neighborhood::In, |_| true);
    let props = eagr::agg::AggProps {
        duplicate_insensitive: false,
        subtractable: true,
    };
    let (ov, _) = build_vnm(&ag, &VnmConfig::vnma(props));
    assert!(ov.sharing_index() >= 0.0);
    assert!(ov.edge_count() <= ag.edge_count());
}

#[test]
fn empty_graph_edge_cases() {
    let g = DataGraph::with_nodes(5); // no edges at all
    let sys = EagrSystem::builder(EgoQuery::new(Sum)).build(&g);
    for v in 0..5u32 {
        assert_eq!(sys.read(NodeId(v)), None, "no neighborhoods, no readers");
    }
    assert_eq!(sys.write(NodeId(0), 1, 0), 0);
}

/// The batch kernel's exact-count witness: over 4096-event runs of a Zipf
/// 1:1 stream, it applies at most half the PAO updates a per-op replay of
/// the same events does (the queue model: `write_local` + `apply_op`),
/// and both end with the same answer at every reader.
#[test]
fn batch_kernel_applies_at_most_half_of_per_op_replay() {
    let n = 5_000;
    let g = eagr::gen::social_graph(n, 7, 11);
    let ag = BipartiteGraph::build(&g, &Neighborhood::In, |_| true);
    let props = Sum.props();
    let (ov, _) = build_vnm(&ag, &VnmConfig::vnma(props));
    let plan = eagr::flow::plan(
        ov,
        &eagr::gen::zipf_rates(n, 1.0, 1.0, 11),
        &CostModel::unit_sum(),
        &eagr::flow::PlannerConfig::default(),
    );
    let ov = Arc::new(plan.overlay);
    let kernel = EngineCore::new(Sum, Arc::clone(&ov), &plan.decisions, WindowSpec::Tuple(1));
    let per_op = EngineCore::new(Sum, Arc::clone(&ov), &plan.decisions, WindowSpec::Tuple(1));
    let events = eagr::gen::generate_events(
        n,
        &eagr::gen::WorkloadConfig {
            events: 16 * 4096,
            write_to_read: 1.0,
            seed: 11,
            ..Default::default()
        },
    );
    let mut applied = 0;
    let mut tasks = Vec::new();
    for (r, run) in events.chunks(4096).enumerate() {
        let writes: Vec<(NodeId, i64, u64)> = run
            .iter()
            .enumerate()
            .filter_map(|(i, e)| {
                let Event::Write { node, value } = *e else {
                    return None;
                };
                Some((node, value, (r * 4096 + i) as u64))
            })
            .collect();
        applied += kernel.write_batch(&writes);
        for &(v, value, ts) in &writes {
            tasks.extend(per_op.write_local(v, value, ts));
            while let Some((node, op)) = tasks.pop() {
                per_op.apply_op(node, op, &mut tasks);
            }
        }
    }
    assert_eq!(applied as u64, kernel.total_pushes());
    let (batched, replayed) = (kernel.total_pushes(), per_op.total_pushes());
    assert!(
        2 * batched <= replayed,
        "kernel applied {batched} PAO updates, per-op replay {replayed}"
    );
    for (_, v) in ov.readers() {
        assert_eq!(kernel.read(v), per_op.read(v), "reader {v:?}");
    }
}
