//! Multi-threaded execution (§2.2.2): the two-pool engine must converge to
//! the single-threaded result after drain, under every decision policy and
//! from many submitter threads; the adaptive engine must stay correct while
//! flipping decisions mid-stream.

use eagr::exec::{EngineCore, ParallelConfig, ParallelEngine};

use eagr::gen::{generate_events, social_graph, Event, WorkloadConfig};
use eagr::prelude::*;
use eagr::OverlayAlgorithm;
use std::sync::Arc;

fn build_core(n: usize, seed: u64, all_push: bool) -> (DataGraph, Arc<EngineCore<Sum>>) {
    let g = social_graph(n, 4, seed);
    let sys = EagrSystem::builder(EgoQuery::new(Sum))
        .overlay(OverlayAlgorithm::Vnma)
        .decisions(if all_push {
            DecisionAlgorithm::AllPush
        } else {
            DecisionAlgorithm::MaxFlow
        })
        .build(&g);
    (g, sys.core())
}

#[test]
fn parallel_converges_to_sequential_all_push() {
    let n = 150;
    let (g, core) = build_core(n, 1, true);
    let (_, seq_core) = {
        let sys = EagrSystem::builder(EgoQuery::new(Sum))
            .overlay(OverlayAlgorithm::Vnma)
            .decisions(DecisionAlgorithm::AllPush)
            .build(&g);
        (0, sys.core())
    };
    let events = generate_events(
        n,
        &WorkloadConfig {
            events: 8000,
            write_to_read: 1e9, // effectively all writes
            seed: 2,
            ..Default::default()
        },
    );
    let eng = ParallelEngine::new(
        core,
        ParallelConfig {
            write_threads: 4,
            read_threads: 2,
        },
    );
    for (ts, e) in events.iter().enumerate() {
        if let Event::Write { node, value } = *e {
            eng.submit_write(node, value, ts as u64);
            seq_core.write(node, value, ts as u64);
        }
    }
    eng.drain();
    for v in g.nodes() {
        assert_eq!(eng.read_blocking(v), seq_core.read(v), "node {v:?}");
    }
    eng.shutdown();
}

#[test]
fn parallel_with_mixed_plan_and_interleaved_reads() {
    let n = 120;
    let (g, core) = build_core(n, 3, false);
    let eng = ParallelEngine::new(core, ParallelConfig::default());
    let events = generate_events(
        n,
        &WorkloadConfig {
            events: 6000,
            write_to_read: 2.0,
            seed: 4,
            ..Default::default()
        },
    );
    for (ts, e) in events.iter().enumerate() {
        match *e {
            Event::Write { node, value } => eng.submit_write(node, value, ts as u64),
            Event::Read { node } => eng.submit_read(node),
            Event::AddEdge { .. }
            | Event::RemoveEdge { .. }
            | Event::AddNode { .. }
            | Event::RemoveNode { .. } => {
                unreachable!("generate_events emits no topology mutations")
            }
        }
    }
    eng.drain();
    // After drain, compare against a naive oracle over the same writes.
    let mut oracle = NaiveOracle::new(Sum, WindowSpec::Tuple(1), Neighborhood::In);
    for (ts, e) in events.iter().enumerate() {
        if let Event::Write { node, value } = *e {
            oracle.write(node, value, ts as u64);
        }
    }
    for v in g.nodes() {
        if let Some(got) = eng.read_blocking(v) {
            assert_eq!(got, oracle.read(&g, v), "node {v:?}");
        }
    }
    eng.shutdown();
}

#[test]
fn many_submitters() {
    let n = 100;
    let (g, core) = build_core(n, 5, true);
    let eng = Arc::new(ParallelEngine::new(
        core,
        ParallelConfig {
            write_threads: 3,
            read_threads: 3,
        },
    ));
    // Each submitter writes to a disjoint node range so per-writer order is
    // preserved regardless of submitter interleaving.
    std::thread::scope(|s| {
        for t in 0..4usize {
            let eng = Arc::clone(&eng);
            s.spawn(move || {
                for i in 0..1000u64 {
                    let node = NodeId((t * 25 + (i as usize % 25)) as u32);
                    eng.submit_write(node, (t as i64) * 1000 + i as i64, i);
                }
            });
        }
    });
    eng.drain();
    // Compare with a sequential replay (same per-node final values:
    // node t*25+j last receives i = 975+j from thread t).
    let mut oracle = NaiveOracle::new(Sum, WindowSpec::Tuple(1), Neighborhood::In);
    for t in 0..4usize {
        for i in 0..1000u64 {
            let node = NodeId((t * 25 + (i as usize % 25)) as u32);
            oracle.write(node, (t as i64) * 1000 + i as i64, i);
        }
    }
    for v in g.nodes() {
        if let Some(got) = eng.read_blocking(v) {
            assert_eq!(got, oracle.read(&g, v), "node {v:?}");
        }
    }
    match Arc::try_unwrap(eng) {
        Ok(e) => e.shutdown(),
        Err(_) => panic!("engine still shared"),
    }
}

#[test]
fn topk_parallel_consistency() {
    let n = 80;
    let g = social_graph(n, 4, 7);
    let sys = EagrSystem::builder(EgoQuery::new(TopK::new(3)))
        .overlay(OverlayAlgorithm::Vnmn)
        .decisions(DecisionAlgorithm::AllPush)
        .build(&g);
    let eng = ParallelEngine::new(
        sys.core(),
        ParallelConfig {
            write_threads: 4,
            read_threads: 1,
        },
    );
    let events = generate_events(
        n,
        &WorkloadConfig {
            events: 5000,
            write_to_read: 1e9,
            seed: 8,
            ..Default::default()
        },
    );
    let mut oracle = NaiveOracle::new(TopK::new(3), WindowSpec::Tuple(1), Neighborhood::In);
    for (ts, e) in events.iter().enumerate() {
        if let Event::Write { node, value } = *e {
            eng.submit_write(node, value, ts as u64);
            oracle.write(node, value, ts as u64);
        }
    }
    eng.drain();
    for v in g.nodes() {
        if let Some(got) = eng.read_blocking(v) {
            assert_eq!(got, oracle.read(&g, v), "node {v:?}");
        }
    }
    eng.shutdown();
}

#[test]
fn adaptive_engine_correct_through_workload_shift() {
    let n = 100;
    let g = social_graph(n, 4, 9);
    let sys = EagrSystem::builder(EgoQuery::new(Sum))
        .overlay(OverlayAlgorithm::Vnma)
        .rates(Rates::uniform(n, 10.0)) // planned for write-heavy
        .build(&g);
    let adaptive = sys.adaptive(500);
    let mut oracle = NaiveOracle::new(Sum, WindowSpec::Tuple(1), Neighborhood::In);
    // Phase 1: write-heavy. Phase 2: read-heavy (decisions should flip).
    let mut ts = 0u64;
    for phase in 0..2 {
        let cfg = WorkloadConfig {
            events: 4000,
            write_to_read: if phase == 0 { 10.0 } else { 0.05 },
            seed: 10 + phase,
            ..Default::default()
        };
        for e in generate_events(n, &cfg) {
            match e {
                Event::Write { node, value } => {
                    adaptive.write(node, value, ts);
                    oracle.write(node, value, ts);
                }
                Event::Read { node } => {
                    if let Some(got) = adaptive.read(node) {
                        assert_eq!(got, oracle.read(&g, node), "ts {ts}");
                    }
                }
                Event::AddEdge { .. }
                | Event::RemoveEdge { .. }
                | Event::AddNode { .. }
                | Event::RemoveNode { .. } => {
                    unreachable!("generate_events emits no topology mutations")
                }
            }
            ts += 1;
        }
    }
    assert!(adaptive.total_flips() > 0, "shift must trigger adaptation");
}

/// The runtime half of the lock-order rail (vendored `parking_lot`'s
/// debug-build held-lock tracker): an AB-BA acquisition pattern that would
/// classically *deadlock* two threads instead panics at the inverted call
/// site, naming both locks — the failure is loud, attributable, and
/// CI-visible rather than a hung test job.
#[test]
#[cfg_attr(
    not(debug_assertions),
    ignore = "the lock-order tracker is compiled out in release builds"
)]
fn lock_order_inversion_fails_loudly_instead_of_deadlocking() {
    use parking_lot::{lock_order, RwLock};

    let registry = Arc::new(RwLock::named(0u32, "registry"));
    let graph = Arc::new(RwLock::named(0u32, "graph"));

    // Declared order: a thread may take `registry` then `graph`.
    {
        let _r = registry.read();
        let _g = graph.read();
        assert_eq!(lock_order::held_names(), vec!["registry", "graph"]);
    }
    assert!(lock_order::held_names().is_empty());

    // The inverting thread (graph → registry) must panic before blocking,
    // even with the other half of the classic deadlock running.
    let (r2, g2) = (Arc::clone(&registry), Arc::clone(&graph));
    let inverted = std::thread::spawn(move || {
        let _g = g2.write();
        // lint: allow(lock-order, deliberate AB-BA inversion — this test asserts the tracker panics before the deadlock can form)
        let _r = r2.read();
    });
    let err = inverted
        .join()
        .expect_err("inversion must panic, not deadlock");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("lock-order violation") && msg.contains("`registry`"),
        "panic must name the violation and the lock: {msg}"
    );
}
