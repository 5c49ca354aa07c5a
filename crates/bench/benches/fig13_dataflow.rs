//! Fig 13 — the four dataflow-decision experiments:
//!
//! * **(a)** adaptive vs static decisions vs all-push/all-pull on a trace
//!   whose read popularity shifts halfway (time per event batch);
//! * **(b)** overlay-all-push vs overlay-dataflow vs overlay-all-pull
//!   throughput per aggregate at 1:1;
//! * **(c)** read latency (worst / p95 / avg) as the pull:push cost ratio
//!   grows (pushes get favored ⇒ latencies fall);
//! * **(d)** throughput vs number of serving threads (plateau at the core
//!   count).

use eagr::agg::{Aggregate, CostFn, CostModel, Max, Sum, TopK, WindowSpec};
use eagr::exec::{throughput, EngineCore, ParallelConfig, ParallelEngine};
use eagr::flow::{plan, DecisionAlgorithm, Plan, PlannerConfig, Rates};
use eagr::gen::{generate_events, shifting_trace, Dataset, Event, TraceConfig, WorkloadConfig};
use eagr::graph::{BipartiteGraph, DataGraph, Neighborhood};
use eagr::overlay::{build_vnm, Overlay, VnmConfig};
use eagr_bench::{banner, f, scale, sum_props, Table};
use std::sync::Arc;
use std::time::Instant;

fn vnma_overlay(g: &DataGraph) -> Overlay {
    let ag = BipartiteGraph::build(g, &Neighborhood::In, |_| true);
    let (ov, _) = build_vnm(&ag, &VnmConfig::vnma(sum_props()));
    ov
}

fn make_plan(ov: &Overlay, rates: &Rates, cost: &CostModel, alg: DecisionAlgorithm) -> Plan {
    plan(
        ov.clone(),
        rates,
        cost,
        &PlannerConfig {
            algorithm: alg,
            split: alg == DecisionAlgorithm::MaxFlow,
            writer_window: 1,
            push_amplification: 2.0,
        },
    )
}

fn engine<A: Aggregate + Clone>(agg: A, p: &Plan) -> EngineCore<A> {
    EngineCore::new(
        agg,
        Arc::new(p.overlay.clone()),
        &p.decisions,
        WindowSpec::Tuple(1),
    )
}

/// Measured rates from a trace prefix (what a deployed system would have
/// observed before planning).
fn measured_rates(events: &[Event], n: usize) -> Rates {
    let mut rates = Rates {
        read: vec![0.0; n],
        write: vec![0.0; n],
    };
    for e in events {
        match *e {
            Event::Write { node, .. } => rates.write[node.idx()] += 1.0,
            Event::Read { node } => rates.read[node.idx()] += 1.0,
            Event::AddEdge { .. }
            | Event::RemoveEdge { .. }
            | Event::AddNode { .. }
            | Event::RemoveNode { .. } => {}
        }
    }
    rates
}

fn run_events<A: Aggregate>(core: &EngineCore<A>, events: &[Event], ts0: u64) -> f64 {
    let t = Instant::now();
    for (i, e) in events.iter().enumerate() {
        match *e {
            Event::Write { node, value } => {
                core.write(node, value, ts0 + i as u64);
            }
            Event::Read { node } => {
                std::hint::black_box(core.read(node));
            }
            Event::AddEdge { .. }
            | Event::RemoveEdge { .. }
            | Event::AddNode { .. }
            | Event::RemoveNode { .. } => {}
        }
    }
    t.elapsed().as_secs_f64()
}

fn fig13a() {
    banner(
        "Figure 13(a)",
        "workload shift: time per batch for all-pull / all-push / static / adaptive",
    );
    let n = (2000.0 * scale()) as usize;
    let g = Dataset::LiveJournalLike.build(0.5 * scale(), 0xF13A);
    let n = n.min(g.id_bound());
    let trace = shifting_trace(
        n,
        &TraceConfig {
            events_per_phase: (60_000.0 * scale()) as usize,
            ..Default::default()
        },
    );
    let ov = vnma_overlay(&g);
    let planned_rates = measured_rates(&trace[..trace.len() / 4], g.id_bound());
    let cost = CostModel::unit_sum();
    let batches = 12;
    let batch = trace.len() / batches;

    let t = Table::new(&["approach", "ms per batch (shift at batch 6)"]);
    for (label, alg, adaptive) in [
        ("all-pull", DecisionAlgorithm::AllPull, false),
        ("all-push", DecisionAlgorithm::AllPush, false),
        ("static", DecisionAlgorithm::MaxFlow, false),
        ("adaptive", DecisionAlgorithm::MaxFlow, true),
    ] {
        let p = make_plan(&ov, &planned_rates, &cost, alg);
        let core = Arc::new(engine(Sum, &p));
        let controller = eagr::exec::AdaptiveEngine::new(Arc::clone(&core), cost, 1, u64::MAX);
        let mut cells = vec![label.to_string()];
        let mut ts = 0u64;
        for chunk in trace.chunks(batch).take(batches) {
            let secs = run_events(&core, chunk, ts);
            ts += chunk.len() as u64;
            if adaptive {
                controller.adapt_now();
            }
            cells.push(format!("{:.0}", secs * 1e3));
        }
        t.print_row(&cells);
    }
    println!("\nexpect: static degrades after the shift; adaptive recovers within a batch or two.");
}

fn fig13b() {
    banner(
        "Figure 13(b)",
        "overlay all-push vs dataflow vs all-pull, per aggregate (1:1)",
    );
    let g = Dataset::LiveJournalLike.build(0.5 * scale(), 0xF13B);
    let n = g.id_bound();
    let ov = vnma_overlay(&g);
    let rates = eagr::gen::zipf_rates(n, 1.0, 1.0, 3);
    let events = generate_events(
        n,
        &WorkloadConfig {
            events: (60_000.0 * scale()) as usize,
            write_to_read: 1.0,
            ..Default::default()
        },
    );
    let t = Table::new(&[
        "aggregate",
        "all-push (ops/s)",
        "dataflow (ops/s)",
        "all-pull (ops/s)",
    ]);
    macro_rules! row {
        ($name:literal, $agg:expr) => {{
            let cost = CostModel::from_aggregate(&$agg);
            let mut cells = vec![$name.to_string()];
            for alg in [
                DecisionAlgorithm::AllPush,
                DecisionAlgorithm::MaxFlow,
                DecisionAlgorithm::AllPull,
            ] {
                let p = make_plan(&ov, &rates, &cost, alg);
                let core = engine($agg, &p);
                let secs = run_events(&core, &events, 0);
                cells.push(format!("{:.0}", events.len() as f64 / secs));
            }
            t.print_row(&cells);
        }};
    }
    row!("SUM", Sum);
    row!("MAX", Max);
    row!("TOP-K", TopK::new(10));
    println!("\nexpect: dataflow > max(all-push, all-pull) for every aggregate.");
}

fn fig13c() {
    banner(
        "Figure 13(c)",
        "read latency (worst / p95 / avg) vs pull-cost multiplier",
    );
    let g = Dataset::LiveJournalLike.build(0.4 * scale(), 0xF13C);
    let n = g.id_bound();
    let ov = vnma_overlay(&g);
    let rates = eagr::gen::zipf_rates(n, 1.0, 1.0, 3);
    let warm = generate_events(
        n,
        &WorkloadConfig {
            events: (30_000.0 * scale()) as usize,
            write_to_read: 1e9,
            ..Default::default()
        },
    );
    let reads = generate_events(
        n,
        &WorkloadConfig {
            events: 4000,
            write_to_read: 0.0,
            seed: 0xBEEF,
            ..Default::default()
        },
    );
    let t = Table::new(&[
        "push:pull cost",
        "worst ms",
        "p95 ms",
        "avg ms",
        "push nodes",
    ]);
    let run = |label: &str, alg: DecisionAlgorithm, pull_scale: f64| {
        let cost = CostModel {
            push: CostFn::Constant(4.0),
            pull: CostFn::Linear(8.0 * pull_scale),
        };
        let p = make_plan(&ov, &rates, &cost, alg);
        let core = engine(TopK::new(10), &p);
        run_events(&core, &warm, 0);
        let mut samples_ms = Vec::new();
        for e in &reads {
            if let Event::Read { node } = *e {
                let t0 = Instant::now();
                std::hint::black_box(core.read(node));
                samples_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            }
        }
        let s = eagr::util::LatencySummary::from_samples(&mut samples_ms);
        t.row(&[
            &label,
            &format!("{:.3}", s.worst),
            &format!("{:.3}", s.p95),
            &format!("{:.3}", s.avg),
            &p.decisions.push_count(),
        ]);
    };
    run("all-pull", DecisionAlgorithm::AllPull, 1.0);
    for (label, s) in [
        ("1:1", 1.0),
        ("1:2", 2.0),
        ("1:5", 5.0),
        ("1:10", 10.0),
        ("1:20", 20.0),
        ("1:30", 30.0),
    ] {
        run(label, DecisionAlgorithm::MaxFlow, s);
    }
    run("all-push", DecisionAlgorithm::AllPush, 1.0);
    println!("\nexpect: latencies fall monotonically as pulls get pricier (pushes favored).");
}

fn fig13d() {
    banner(
        "Figure 13(d)",
        "throughput vs serving threads (TOP-K; plateau at core count)",
    );
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(2);
    println!("machine cores: {cores}\n");
    let g = Dataset::LiveJournalLike.build(0.4 * scale(), 0xF13D);
    let n = g.id_bound();
    let ov = vnma_overlay(&g);
    let rates = eagr::gen::zipf_rates(n, 1.0, 1.0, 3);
    let cost = CostModel::from_aggregate(&TopK::new(10));
    let events = generate_events(
        n,
        &WorkloadConfig {
            events: (40_000.0 * scale()) as usize,
            write_to_read: 1.0,
            ..Default::default()
        },
    );
    let threads: Vec<usize> = vec![2, 4, 6, 8];
    let mut header = vec!["approach".to_string()];
    header.extend(threads.iter().map(|t| format!("T={t}")));
    let t = Table::new(&header.iter().map(|s| s.as_str()).collect::<Vec<_>>());
    for (label, alg) in [
        ("all-pull", DecisionAlgorithm::AllPull),
        ("all-push", DecisionAlgorithm::AllPush),
        ("VNMA+dataflow", DecisionAlgorithm::MaxFlow),
    ] {
        let mut cells = vec![label.to_string()];
        for &tt in &threads {
            let p = make_plan(&ov, &rates, &cost, alg);
            let core = Arc::new(engine(TopK::new(10), &p));
            let eng = ParallelEngine::new(
                Arc::clone(&core),
                ParallelConfig {
                    write_threads: (tt / 2).max(1),
                    read_threads: (tt / 2).max(1),
                },
            );
            let t0 = Instant::now();
            for (i, e) in events.iter().enumerate() {
                match *e {
                    Event::Write { node, value } => eng.submit_write(node, value, i as u64),
                    Event::Read { node } => eng.submit_read(node),
                    Event::AddEdge { .. }
                    | Event::RemoveEdge { .. }
                    | Event::AddNode { .. }
                    | Event::RemoveNode { .. } => {}
                }
            }
            eng.drain();
            let tput = throughput(events.len(), t0.elapsed());
            eng.shutdown();
            cells.push(format!("{:.0}", tput));
        }
        t.print_row(&cells);
    }
    println!("\nexpect: throughput grows with threads then plateaus near the core count;");
    println!(
        "the overlay approach dominates at every thread count. ({})",
        f(scale())
    );
}

fn main() {
    fig13a();
    fig13b();
    fig13c();
    fig13d();
}
