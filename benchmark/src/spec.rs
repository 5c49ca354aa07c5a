//! The five workloads, the declared metric names, and input generation.
//! Everything the program under measurement sees is derived from `--seed`.

use eagr::flow::Rates;
use eagr::gen::WorkloadConfig;
use eagr::gen::{churn_stream, generate_events, social_graph, ChurnConfig, Event};
use eagr::graph::{DataGraph, NodeId};
use eagr::util::SplitMix64;

/// Events per closed-loop `ingest` call.
pub const CLOSED_BATCH: usize = 4096;
/// Events per paced `ingest` call.
pub const PACED_BATCH: usize = 1024;
/// Point reads between closed-loop `ingest` calls.
pub const READS_PER_BATCH: usize = 16;
/// Nodes the correctness check reads back (half Zipf head, half uniform).
pub const VERIFY_NODES: usize = 2000;
/// Pinned tail percentiles: the highest a window of each series supports
/// with ten samples beyond it (≥170 batches, ≥2700 reads, ≥320 paced
/// batches per window on the content workloads).
pub const BATCH_TAIL: u32 = 90;
pub const READ_TAIL: u32 = 99;
pub const PACED_TAIL: u32 = 90;
/// Shards (worker threads or host processes) of the sharded workloads: the
/// box has two cores, so two workers next to one generator thread.
pub const SHARDS: usize = 2;
/// Independent Zipf rankings mixed into the event stream.
pub const HOT_SETS: usize = 8;
/// Mutation runs the churn layer replay walks through the repair chain.
pub const REPLAY_TOPO_RUNS: usize = 16;

/// Which runtime a workload builds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    Single,
    Sharded,
    /// Sharded over `eagr-shard-host` processes and Unix sockets.
    Process,
}

/// Topology churn mixed into the content stream.
#[derive(Clone, Copy, Debug)]
pub struct Churn {
    /// Generator epochs: one mutation run each.
    pub epochs: usize,
    /// Content events per epoch (four closed-loop batches, so one batch in
    /// four holds a repair epoch and p50 stays a content-only batch).
    pub epoch_events: usize,
    /// Edge/node mutations per run.
    pub mutations: f64,
}

/// One workload: sizes and rates are pinned here, not on the command line.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub engine: Engine,
    /// `social_graph(nodes, 7, seed)`.
    pub nodes: usize,
    pub write_to_read: f64,
    /// Content events generated (cycled when a phase needs more).
    pub pool_events: usize,
    pub churn: Option<Churn>,
    /// Open-loop rate in events/s: about 40% of closed-loop capacity on the
    /// 2-core box the benchmark was defined on (a third on churn). Nearer to
    /// capacity the queue makes `paced_p90_ms` swing by a factor of two
    /// from run to run.
    pub paced_rate: f64,
    /// A paced batch later than this (due → visible) missed its limit.
    pub late_limit_ms: f64,
    /// Events the traced run's facade loop and layer replays process per
    /// second of `--seconds`: fixed work, so their counts repeat exactly.
    pub trace_events_per_s: usize,
}

const G50K: usize = 50_000;
const G20K: usize = 20_000;

pub const WORKLOADS: [Spec; 5] = [
    Spec {
        name: "single-balanced",
        engine: Engine::Single,
        nodes: G50K,
        write_to_read: 1.0,
        pool_events: 1 << 21,
        churn: None,
        paced_rate: 600_000.0,
        late_limit_ms: 20.0,
        trace_events_per_s: 1 << 18,
    },
    Spec {
        name: "sharded-write",
        engine: Engine::Sharded,
        nodes: G50K,
        write_to_read: 9.0,
        pool_events: 1 << 21,
        churn: None,
        paced_rate: 500_000.0,
        late_limit_ms: 20.0,
        trace_events_per_s: 1 << 18,
    },
    Spec {
        name: "sharded-read",
        engine: Engine::Sharded,
        nodes: G50K,
        write_to_read: 1.0 / 9.0,
        pool_events: 1 << 21,
        churn: None,
        paced_rate: 900_000.0,
        late_limit_ms: 20.0,
        trace_events_per_s: 1 << 18,
    },
    Spec {
        name: "proc-write",
        engine: Engine::Process,
        nodes: G50K,
        write_to_read: 9.0,
        pool_events: 1 << 21,
        churn: None,
        paced_rate: 450_000.0,
        late_limit_ms: 20.0,
        trace_events_per_s: 1 << 18,
    },
    Spec {
        name: "churn",
        engine: Engine::Sharded,
        nodes: G20K,
        write_to_read: 4.0,
        pool_events: 0,
        churn: Some(Churn {
            epochs: 128,
            epoch_events: 4 * CLOSED_BATCH,
            mutations: 3.0,
        }),
        paced_rate: 50_000.0,
        late_limit_ms: 250.0,
        trace_events_per_s: 1 << 15,
    },
];

impl Spec {
    pub fn by_name(name: &str) -> Option<Spec> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// Whether timing samples are pooled over the rounds instead of being
    /// summarised per window: churn takes ≈40 batches per window, too few
    /// for a percentile of their own.
    pub fn pooled(&self) -> bool {
        self.churn.is_some()
    }

    /// The `--smoke` shape: a 2K-node graph and a small pool, same code path.
    pub fn smoke(mut self) -> Spec {
        self.nodes = 2_000;
        self.pool_events = self.pool_events.min(1 << 16);
        if let Some(c) = &mut self.churn {
            c.epochs = 24;
        }
        self.paced_rate = self.paced_rate.min(100_000.0);
        self.trace_events_per_s = 1 << 14;
        self
    }
}

/// `(name, unit)` of every end-to-end metric, as declared in BENCHMARK.json.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("batch_p50_ms", "ms"),
    ("batch_p90_ms", "ms"),
    ("paced_p50_ms", "ms"),
    ("paced_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, as declared in BENCHMARK.json.
/// A layer a workload bypasses reports 0 with 0 samples.
pub const PER_LAYER: [(&str, &str); 58] = [
    // Set-up chain → setup_s.
    ("graph.bipartite_build_ms", "ms"),
    ("overlay.build_ms", "ms"),
    ("flow.plan_ms", "ms"),
    ("flow.partition_ms", "ms"),
    ("exec.engine_start_ms", "ms"),
    ("overlay.sharing_index", "ratio"),
    ("overlay.edges", "count"),
    ("overlay.avg_depth", "count"),
    ("overlay.memory_mb", "MB"),
    ("flow.push_node_share", "ratio"),
    ("graph.cut_fraction", "ratio"),
    ("graph.shard_size_skew", "ratio"),
    // Content path → events_per_s, read_p50_us.
    ("exec.core.write_ns", "ns"),
    ("exec.core.read_ns", "ns"),
    ("exec.core.pushes_per_write", "count"),
    ("agg.apply_ns_per_op", "ns"),
    ("agg.finalize_ns", "ns"),
    ("exec.store.slab_apply_ns_per_op", "ns"),
    ("gen.batch_events_ns_per_event", "ns"),
    // Sharded write path → events_per_s, batch_p50_ms.
    ("exec.sharded.submit_ns_per_event", "ns"),
    ("exec.sharded.drain_us_per_epoch", "us"),
    ("exec.sharded.barrier_share", "ratio"),
    ("exec.sharded.cross_deltas_per_write", "count"),
    ("exec.sharded.local_applies_per_write", "count"),
    ("exec.sharded.apply_skew", "ratio"),
    // Read service → read_p50_us, read_p99_us.
    ("exec.sharded.read_point_us", "us"),
    ("exec.sharded.read_batch_us_per_read", "us"),
    ("exec.sharded.read_relaxed_ns", "ns"),
    ("core.read_batch_us_per_read", "us"),
    // Transport → proc-write only.
    ("exec.transport.encode_ns_per_item", "ns"),
    ("exec.transport.decode_ns_per_item", "ns"),
    ("exec.transport.bytes_per_item", "count"),
    ("exec.transport.proc_over_inproc", "ratio"),
    ("exec.transport.host_rss_mb", "MB"),
    ("exec.transport.errors", "count"),
    // Repair chain → churn.
    ("graph.clone_ms", "ms"),
    ("overlay.dynamic_new_ms", "ms"),
    ("overlay.repair_us_per_mutation", "us"),
    ("overlay.dirty_nodes_per_mutation", "count"),
    ("overlay.freeze_clone_ms", "ms"),
    ("flow.topo_plan_delta_ms", "ms"),
    ("flow.rematerialized_per_run", "count"),
    ("exec.sharded.apply_topo_ms", "ms"),
    ("core.topo_run_ms", "ms"),
    ("core.topo_runs", "count"),
    ("core.topo_applied", "count"),
    ("core.topo_skipped", "count"),
    ("core.topo_explained_share", "ratio"),
    // Facade.
    ("core.ingest_us_per_batch", "us"),
    ("core.facade_overhead_share", "ratio"),
    ("core.wrong_answers", "count"),
    ("trace_overhead_share", "ratio"),
    // Demoted end-to-end metrics. The point-read latencies: a sharded read
    // is two cross-thread wake-ups, which a guest serves in a fast (host
    // still polling, ≈4 µs) or a slow (vCPU halted, ≈40 µs) mode that flips
    // with no change to the program. The shares: 0 on a healthy run, so
    // they cannot carry a bound relative to the parent's median.
    ("core.read_p50_us", "us"),
    ("core.read_p99_us", "us"),
    ("paced_late_share", "ratio"),
    ("paced_send_delay_p50_us", "us"),
    ("failed_share", "ratio"),
    ("traced_events_per_s", "1/s"),
];

/// Per-layer counts that must repeat exactly for a seed.
pub const EXACT_COUNTS: [&str; 7] = [
    "exec.core.pushes_per_write",
    "exec.sharded.cross_deltas_per_write",
    "exec.sharded.local_applies_per_write",
    "core.topo_runs",
    "core.topo_applied",
    "core.topo_skipped",
    "overlay.edges",
];

/// Named values of one run; every declared name is present from the start
/// (0 / 0 samples = bypassed), and setting an undeclared name panics, so
/// the emitted set always equals the declared one.
pub struct Metrics {
    pub rows: Vec<Metric>,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

impl Metrics {
    pub fn declared(table: &[(&'static str, &'static str)]) -> Self {
        Self {
            rows: table
                .iter()
                .map(|&(name, unit)| Metric {
                    name,
                    unit,
                    value: 0.0,
                    samples: 0,
                })
                .collect(),
        }
    }

    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        let row = self
            .rows
            .iter_mut()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        row.value = value;
        row.samples = samples;
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> f64 {
        self.rows
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    }
}

/// Generated inputs of one run.
pub struct Inputs {
    pub graph: DataGraph,
    /// Planner input: the stream's own per-node frequencies.
    pub rates: Rates,
    /// The event stream. Content-only pools are cycled; a churn pool is
    /// consumed once (its mutations are valid only at their position).
    pub pool: Vec<Event>,
    pub cyclic: bool,
}

impl Inputs {
    pub fn generate(spec: &Spec, seed: u64) -> Inputs {
        let graph = social_graph(spec.nodes, 7, seed);
        // Node activity is a mixture of HOT_SETS independent Zipf(1.0)
        // rankings, interleaved event by event: under a single ranking ten
        // nodes carry a quarter of all events, and which ten the seed picks
        // — hubs or leaves — moved throughput by ±12%.
        let content = |events: usize| -> Vec<Event> {
            let streams: Vec<Vec<Event>> = (0..HOT_SETS)
                .map(|k| {
                    generate_events(
                        spec.nodes,
                        &WorkloadConfig {
                            events: events.div_ceil(HOT_SETS),
                            write_to_read: spec.write_to_read,
                            seed: seed ^ 0xE7E7 ^ ((k as u64) << 32),
                            ..Default::default()
                        },
                    )
                })
                .collect();
            (0..events)
                .map(|i| streams[i % HOT_SETS][i / HOT_SETS])
                .collect()
        };
        let Some(churn) = spec.churn else {
            let pool = content(spec.pool_events);
            return Inputs {
                rates: observed_rates(&pool, spec),
                graph,
                pool,
                cyclic: true,
            };
        };
        // `churn_stream` supplies the mutation runs (every mutation valid
        // at its position from `graph`'s initial state); the content comes
        // from `generate_events`, because `churn_stream` builds a fresh
        // Zipf table per content event and takes minutes at this size.
        let runs = churn_stream(
            &graph,
            &ChurnConfig {
                epochs: churn.epochs,
                epoch_events: 0,
                churn_fraction: (churn.mutations / graph.edge_count() as f64).min(1.0),
                node_churn: 0.1,
                seed: seed ^ 0xC4A2,
                ..Default::default()
            },
        );
        // Content only targets nodes that stay live for the whole stream,
        // so no write or read is ever dropped for a missing node.
        let mut removed = vec![false; graph.id_bound()];
        for e in runs.iter().flatten() {
            if let Event::RemoveNode { node } = *e {
                if let Some(slot) = removed.get_mut(node.idx()) {
                    *slot = true;
                }
            }
        }
        let mut live = content(churn.epochs * churn.epoch_events * 5 / 4)
            .into_iter()
            .filter(|e| !removed[e.node().idx()]);
        let mut rng = SplitMix64::new(seed ^ 0x5107);
        let mut pool = Vec::with_capacity(churn.epochs * (churn.epoch_events + 8));
        for run in &runs {
            let at = rng.index(churn.epoch_events);
            pool.extend(live.by_ref().take(at));
            pool.extend_from_slice(run);
            pool.extend(live.by_ref().take(churn.epoch_events - at));
        }
        Inputs {
            rates: observed_rates(&pool, spec),
            graph,
            pool,
            cyclic: false,
        }
    }

    /// The `i`-th point-read target: a node drawn from the event stream
    /// itself, so reads follow the same Zipf activity ranking as events.
    pub fn read_target(&self, i: usize) -> NodeId {
        let mut at = i.wrapping_mul(7919) % self.pool.len();
        // Edge mutations name their source node; skip to a content event.
        while self.pool[at].is_topo() {
            at = (at + 1) % self.pool.len();
        }
        self.pool[at].node()
    }
}

/// The planner's rates, counted from the stream it will serve and scaled as
/// `zipf_rates` scales them (reads sum to `n`, writes to `n × write:read`).
///
/// `zipf_rates(n, s, w, seed)` cannot stand in: it hands rank `r` to the
/// node that `generate_events(.., seed)` reaches through the *inverse*
/// permutation, so the planner would optimise for a hot set the stream
/// never touches. Throughput then depends on which hubs happen to be hot
/// (±20% from seed to seed); planned for its real frequencies the system is
/// twice as fast and within ±3% across seeds.
fn observed_rates(pool: &[Event], spec: &Spec) -> Rates {
    let n = spec.nodes;
    let mut read = vec![0.0; n];
    let mut write = vec![0.0; n];
    for e in pool {
        match *e {
            Event::Write { node, .. } => write[node.idx()] += 1.0,
            Event::Read { node } => read[node.idx()] += 1.0,
            Event::AddEdge { .. }
            | Event::RemoveEdge { .. }
            | Event::AddNode { .. }
            | Event::RemoveNode { .. } => {}
        }
    }
    let scale = |counts: &mut [f64], total: f64| {
        let sum: f64 = counts.iter().sum();
        counts.iter_mut().for_each(|c| *c *= total / sum.max(1.0));
    };
    scale(&mut read, n as f64);
    scale(&mut write, n as f64 * spec.write_to_read);
    Rates { read, write }
}

/// Hands out the stream in order; `taken` is the absolute position.
pub struct Feeder<'a> {
    pool: &'a [Event],
    cyclic: bool,
    pub taken: usize,
}

impl<'a> Feeder<'a> {
    pub fn new(inputs: &'a Inputs) -> Self {
        Self {
            pool: &inputs.pool,
            cyclic: inputs.cyclic,
            taken: 0,
        }
    }

    /// Up to `n` events (a chunk never wraps; shorter at the pool's end),
    /// or `None` once a non-cyclic pool is exhausted.
    pub fn next(&mut self, n: usize) -> Option<&'a [Event]> {
        if !self.cyclic && self.taken >= self.pool.len() {
            return None;
        }
        let at = self.taken % self.pool.len();
        let chunk = &self.pool[at..(at + n).min(self.pool.len())];
        self.taken += chunk.len();
        Some(chunk)
    }

    /// Events left before a non-cyclic pool runs out.
    pub fn remaining(&self) -> usize {
        if self.cyclic {
            usize::MAX
        } else {
            self.pool.len().saturating_sub(self.taken)
        }
    }
}

/// Writes, reads and mutations among stream positions `from..to`.
pub fn count_range(inputs: &Inputs, from: usize, to: usize) -> (usize, usize, usize) {
    let kinds = |events: &[Event]| {
        let (mut w, mut r, mut m) = (0, 0, 0);
        for e in events {
            match e {
                Event::Write { .. } => w += 1,
                Event::Read { .. } => r += 1,
                Event::AddEdge { .. }
                | Event::RemoveEdge { .. }
                | Event::AddNode { .. }
                | Event::RemoveNode { .. } => m += 1,
            }
        }
        (w, r, m)
    };
    let len = inputs.pool.len();
    let whole = kinds(&inputs.pool);
    let upto = |pos: usize| {
        let part = kinds(&inputs.pool[..pos % len]);
        let cycles = pos / len;
        (
            whole.0 * cycles + part.0,
            whole.1 * cycles + part.1,
            whole.2 * cycles + part.2,
        )
    };
    let (a, b) = (upto(from), upto(to));
    (b.0 - a.0, b.1 - a.1, b.2 - a.2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let workloads = WORKLOADS.iter().map(|w| w.name);
        let metrics = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0);
        for name in workloads.chain(metrics) {
            assert!(!name.is_empty() && name.len() <= 64, "{name}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name} must match [A-Za-z0-9_.-]+"
            );
            assert!(seen.insert(name), "{name} declared twice");
        }
        for name in EXACT_COUNTS {
            assert!(PER_LAYER.iter().any(|m| m.0 == name), "{name}");
        }
    }

    #[test]
    fn feeder_cycles_without_wrapping_a_chunk() {
        let spec = Spec::by_name("single-balanced").unwrap().smoke();
        let inputs = Inputs::generate(&spec, 1);
        let len = inputs.pool.len();
        assert_eq!(len % CLOSED_BATCH, 0);
        let mut f = Feeder::new(&inputs);
        let mut seen = 0;
        while seen < len + CLOSED_BATCH {
            seen += f.next(CLOSED_BATCH).unwrap().len();
        }
        assert_eq!(f.taken, len + CLOSED_BATCH);
        let whole = count_range(&inputs, 0, len);
        assert_eq!(whole.0 + whole.1, len);
        let wrapped = count_range(&inputs, len - 10, len + 10);
        assert_eq!(wrapped.0 + wrapped.1, 20);
    }

    #[test]
    fn churn_stream_is_seeded_and_spares_removed_nodes() {
        let spec = Spec::by_name("churn").unwrap().smoke();
        let a = Inputs::generate(&spec, 3);
        let b = Inputs::generate(&spec, 3);
        assert_eq!(a.pool, b.pool);
        assert_ne!(a.pool, Inputs::generate(&spec, 4).pool);
        let churn = spec.churn.unwrap();
        let (w, r, m) = count_range(&a, 0, a.pool.len());
        assert_eq!(w + r, churn.epochs * churn.epoch_events);
        assert!(m >= churn.epochs);
        let removed: Vec<NodeId> = a
            .pool
            .iter()
            .filter_map(|e| match *e {
                Event::RemoveNode { node } => Some(node),
                Event::Write { .. }
                | Event::Read { .. }
                | Event::AddEdge { .. }
                | Event::RemoveEdge { .. }
                | Event::AddNode { .. } => None,
            })
            .collect();
        assert!(a
            .pool
            .iter()
            .all(|e| e.is_topo() || !removed.contains(&e.node())));
        let mut f = Feeder::new(&a);
        while f.next(CLOSED_BATCH).is_some() {}
        assert_eq!((f.taken, f.remaining()), (a.pool.len(), 0));
    }
}
