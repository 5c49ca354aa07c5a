//! # EAGr — continuous ego-centric aggregate queries over dynamic graphs
//!
//! A from-scratch Rust implementation of *"EAGr: Supporting Continuous
//! Ego-centric Aggregate Queries over Large Dynamic Graphs"* (Mondal &
//! Deshpande, SIGMOD 2014). EAGr evaluates one aggregate query per graph
//! node — each over that node's neighborhood — against high-rate update
//! streams, by compiling the query into an **aggregation overlay graph**
//! that shares partial aggregates across overlapping neighborhoods and
//! annotates every node with an optimal **push/pull** decision.
//!
//! ## Quick start
//!
//! ```
//! use eagr::prelude::*;
//!
//! // A small social graph and the paper's running query:
//! // SUM over each node's in-neighbors' latest values.
//! let g = eagr::gen::social_graph(200, 4, 7);
//! let sys = EagrSystem::builder(EgoQuery::new(Sum)).build(&g);
//!
//! sys.write(NodeId(3), 10, 0);
//! sys.write(NodeId(5), 32, 1);
//! let trend = sys.read(NodeId(0));
//! assert!(trend.is_some());
//! println!("ego-centric sum at node 0: {:?}", trend);
//! ```
//!
//! ## Crate map
//!
//! | module | contents | paper |
//! |---|---|---|
//! | [`graph`] | dynamic data graph, neighborhoods, bipartite writer/reader graph | §2.1, §3.1 |
//! | [`agg`] | aggregate API (PAOs), built-ins, windows, cost model | §2.2.3, §4.2 |
//! | [`overlay`] | overlay structure, FP-tree mining, VNM/VNM_A/VNM_N/VNM_D, IOB, dynamic maintenance | §2.2.1, §3 |
//! | [`flow`] | push/pull frequencies, max-flow decisions, pruning, greedy, splitting, adaptation | §4 |
//! | [`exec`] | single-threaded, two-pool, and sharded engines; runtime adaptation; throughput | §2.2.2 |
//! | [`gen`] | synthetic graphs, Zipfian workloads, event batches, shifting traces | §5.1 |

#![forbid(unsafe_code)]

pub mod oracle;
pub mod query;
pub(crate) mod registry;
pub mod system;

pub use oracle::NaiveOracle;
pub use query::{EgoQuery, NodePredicate, QueryMode};
pub use registry::{AttachReport, DetachReport, IngestReport, RegistryStats, TopoReport};
pub use system::{
    EagrSystem, ExecutionMode, OverlayAlgorithm, QueryHandle, SystemBuilder, SystemStats,
};

pub use eagr_agg as agg;
pub use eagr_exec as exec;
pub use eagr_flow as flow;
pub use eagr_gen as gen;
pub use eagr_graph as graph;
pub use eagr_overlay as overlay;
pub use eagr_util as util;

/// Convenient glob import for applications.
pub mod prelude {
    pub use crate::oracle::NaiveOracle;
    pub use crate::query::{EgoQuery, QueryMode};
    pub use crate::registry::{
        AttachReport, DetachReport, IngestReport, RegistryStats, TopoReport,
    };
    pub use crate::system::{
        EagrSystem, ExecutionMode, OverlayAlgorithm, QueryHandle, SystemStats,
    };
    pub use eagr_agg::{
        Aggregate, Avg, CostModel, Count, Distinct, Max, Min, Sum, TopK, WindowSpec,
    };
    pub use eagr_exec::{
        throughput, MigrationReport, ParallelConfig, RebalancePolicy, ShardedConfig,
    };
    pub use eagr_flow::{DecisionAlgorithm, Rates};
    pub use eagr_gen::{batch_events, EventBatch};
    pub use eagr_graph::{DataGraph, Neighborhood, NodeId};
}
