//! Data model substrate for EAGr (paper §2.1 and §3.1).
//!
//! * [`DataGraph`] — the underlying connection graph `G(V, E)`: a dynamic
//!   directed graph with both out- and in-adjacency, supporting node/edge
//!   additions and deletions (the *structure data stream* `S_G`).
//! * [`Neighborhood`] — the neighborhood selection function `N()` of an
//!   ego-centric query: 1-hop (in / out / undirected), multi-hop, and
//!   filtered variants.
//! * [`BipartiteGraph`] — the directed bipartite writer/reader graph `AG`
//!   derived from a data graph and a query: for each node `v` satisfying the
//!   query predicate there is a reader `v_r` whose input list is
//!   `{u_w | u ∈ N(v)}` (§3.1, Fig 1c).
//! * [`partition`] — node→shard assignment ([`Partitioner`], [`Partition`])
//!   for the sharded engine runtime.

#![forbid(unsafe_code)]

pub mod bipartite;
pub mod csr;
pub mod data_graph;
pub mod neighborhood;
pub mod partition;
pub mod wire;

pub use bipartite::BipartiteGraph;
pub use csr::CsrSnapshot;
pub use data_graph::{paper_example_graph, DataGraph, NodeId, UndoLog};
pub use neighborhood::Neighborhood;
pub use partition::{
    edge_cut_partition, hash_shard, refine_partition, refine_partition_live, AffinityGraph,
    EdgeCutConfig, Partition, PartitionStrategy, Partitioner, RefineConfig, RefineStats, ShardId,
    DEFAULT_CHUNK_SIZE,
};
