//! What both kinds of run share: building the system through the public
//! facade, failure accounting, the oracle check and memory readings.

use crate::spec::{count_range, Engine, Inputs, Spec, SHARDS, VERIFY_NODES};
use eagr::exec::TransportKind;
use eagr::gen::Event;
use eagr::prelude::*;
use eagr::util::SplitMix64;
use eagr::{EagrSystem, ExecutionMode, IngestReport};

/// The paper's running query: SUM over the latest value of each in-neighbor.
pub const WINDOW: WindowSpec = WindowSpec::Tuple(1);

pub type System = EagrSystem<Sum>;

/// `EagrSystem::builder(EgoQuery::new(Sum)).rates(..).execution(..).build(&g)`.
pub fn build_system(spec: &Spec, inputs: &Inputs) -> System {
    let builder = EagrSystem::builder(EgoQuery::new(Sum)).rates(inputs.rates.clone());
    match spec.engine {
        Engine::Single => builder.execution(ExecutionMode::SingleThreaded),
        Engine::Sharded => builder.execution(ExecutionMode::Sharded { shards: SHARDS }),
        Engine::Process => builder
            .execution(ExecutionMode::Sharded { shards: SHARDS })
            .transport(TransportKind::Process),
    }
    .build(&inputs.graph)
}

/// Operations attempted and failed: a wrong answer, a count mismatch and a
/// transport error all count as failed operations.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
}

impl Tally {
    pub fn share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Sum of the `IngestReport`s a phase collected.
#[derive(Clone, Copy, Debug, Default)]
pub struct Reported {
    pub writes: usize,
    pub reads: usize,
    pub mutations: usize,
}

impl Reported {
    pub fn add(&mut self, r: &IngestReport) {
        self.writes += r.writes;
        self.reads += r.reads;
        self.mutations += r.mutations;
    }
}

/// Check the run's accounting and answers after `consumed` stream events:
/// the reports must add up to what was generated, the registry must have
/// seen every mutation, and `read_batch` over sampled nodes must equal a
/// `NaiveOracle` replay over a mirrored graph. Returns wrong answers.
pub fn verify(
    sys: &System,
    inputs: &Inputs,
    consumed: usize,
    reported: &Reported,
    seed: u64,
    tally: &mut Tally,
) -> usize {
    let (writes, reads, mutations) = count_range(inputs, 0, consumed);
    for (got, want) in [
        (reported.writes, writes),
        (reported.reads, reads),
        (reported.mutations, mutations),
    ] {
        tally.attempted += want;
        tally.failed += got.abs_diff(want);
    }
    let topo = sys.registry_stats().topo;
    tally.failed += (topo.applied + topo.skipped).abs_diff(mutations as u64) as usize;

    // The mirror: mutations applied in stream order, writes replayed into
    // the oracle. With a one-tuple window only a node's last write counts,
    // so a cycled pool replays as "whole pool once, then the last partial
    // pass" whatever the number of passes.
    assert_eq!(WINDOW, WindowSpec::Tuple(1));
    let mut mirror = inputs.graph.clone();
    let mut oracle = NaiveOracle::new(Sum, WINDOW, Neighborhood::In);
    let len = inputs.pool.len();
    let passes: [&[Event]; 2] = if consumed >= len {
        [&inputs.pool, &inputs.pool[..consumed % len]]
    } else {
        [&inputs.pool[..consumed], &[]]
    };
    let mut ts = 0u64;
    for e in passes.into_iter().flatten() {
        ts += 1;
        match *e {
            Event::Write { node, value } => oracle.write(node, value, ts),
            Event::Read { .. } => {}
            Event::AddEdge { from, to } => {
                mirror.add_edge(from, to);
            }
            Event::RemoveEdge { from, to } => {
                mirror.remove_edge(from, to);
            }
            Event::AddNode { node } => {
                while mirror.id_bound() <= node.idx() {
                    mirror.add_node();
                }
            }
            Event::RemoveNode { node } => mirror.remove_node(node),
        }
    }

    let mut rng = SplitMix64::new(seed ^ 0x0C4E);
    let nodes: Vec<NodeId> = (0..VERIFY_NODES)
        .map(|i| {
            if i % 2 == 0 {
                inputs.read_target(rng.index(inputs.pool.len()))
            } else {
                NodeId(rng.index(mirror.id_bound()) as u32)
            }
        })
        .collect();
    let answers = sys.read_batch(&nodes);
    let mut wrong = 0;
    for (&v, answer) in nodes.iter().zip(&answers) {
        let live = mirror.contains(v);
        let ok = match answer {
            // A node with no in-neighbour may have no reader at all.
            None => !live || mirror.in_degree(v) == 0,
            Some(sum) => live && *sum == oracle.read(&mirror, v),
        };
        wrong += usize::from(!ok);
    }
    tally.attempted += nodes.len();
    tally.failed += wrong;
    wrong
}

/// `VmHWM` of a process in MB (0 when it is gone or unreadable).
fn vm_hwm_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident memory of the shard-host processes, in MB.
pub fn host_rss_mb(pids: &[u32]) -> f64 {
    pids.iter().map(|p| vm_hwm_mb(&p.to_string())).sum()
}

/// Peak resident memory of this process plus the system's shard hosts.
pub fn peak_rss_mb(sys: &System) -> f64 {
    let hosts = sys.sharded_engine().map_or(Vec::new(), |e| e.host_pids());
    vm_hwm_mb("self") + host_rss_mb(&hosts)
}
