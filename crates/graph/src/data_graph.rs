//! The dynamic data graph `G(V, E)`.
//!
//! Nodes are dense `u32` ids. Deletion uses tombstones so ids stay stable
//! (the overlay and execution engine index by id); adjacency is kept in both
//! directions because ego-centric neighborhoods are most often defined over
//! *in*-neighbors (`N(x) = {y | y → x}`, Fig 1) while traversals and
//! incremental overlay maintenance need out-neighbors too.

use eagr_util::{FastMap, FastSet};
use std::fmt;

/// Identifier of a node in the data graph.
///
/// A plain newtype over `u32`: the paper's largest graphs (hundreds of
/// millions of nodes) still fit, and half-width ids keep adjacency lists and
/// overlay edge lists cache-friendly.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a usize index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// A dynamic directed graph with tombstoned deletion.
#[derive(Clone, Default)]
pub struct DataGraph {
    out: Vec<Vec<NodeId>>,
    inc: Vec<Vec<NodeId>>,
    alive: Vec<bool>,
    live_nodes: usize,
    edges: usize,
}

impl DataGraph {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Graph with `n` pre-allocated live nodes (ids `0..n`) and no edges.
    pub fn with_nodes(n: usize) -> Self {
        Self {
            out: vec![Vec::new(); n],
            inc: vec![Vec::new(); n],
            alive: vec![true; n],
            live_nodes: n,
            edges: 0,
        }
    }

    /// Build a graph from a directed edge list; node count is inferred.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        let mut g = Self::with_nodes(n);
        for &(u, v) in edges {
            g.add_edge(NodeId(u), NodeId(v));
        }
        g
    }

    /// Number of live nodes.
    pub fn node_count(&self) -> usize {
        self.live_nodes
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Upper bound of node ids ever allocated (including tombstones); useful
    /// for sizing id-indexed arrays.
    pub fn id_bound(&self) -> usize {
        self.out.len()
    }

    /// Whether `v` is a live node.
    pub fn contains(&self, v: NodeId) -> bool {
        v.idx() < self.alive.len() && self.alive[v.idx()]
    }

    /// Add a fresh node and return its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.out.len() as u32);
        self.out.push(Vec::new());
        self.inc.push(Vec::new());
        self.alive.push(true);
        self.live_nodes += 1;
        id
    }

    /// Remove a node and all its incident edges.
    ///
    /// # Panics
    /// Panics if `v` is not a live node.
    pub fn remove_node(&mut self, v: NodeId) {
        assert!(self.contains(v), "remove_node: {v:?} not live");
        let outs = std::mem::take(&mut self.out[v.idx()]);
        for w in outs {
            self.inc[w.idx()].retain(|&x| x != v);
            self.edges -= 1;
        }
        let ins = std::mem::take(&mut self.inc[v.idx()]);
        for u in ins {
            self.out[u.idx()].retain(|&x| x != v);
            self.edges -= 1;
        }
        self.alive[v.idx()] = false;
        self.live_nodes -= 1;
    }

    /// Add a directed edge `u → v`. Parallel edges are ignored (returns
    /// `false` if the edge already existed).
    ///
    /// # Panics
    /// Panics if either endpoint is not a live node.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        assert!(self.contains(u), "add_edge: {u:?} not live");
        assert!(self.contains(v), "add_edge: {v:?} not live");
        if self.out[u.idx()].contains(&v) {
            return false;
        }
        self.out[u.idx()].push(v);
        self.inc[v.idx()].push(u);
        self.edges += 1;
        true
    }

    /// Add both `u → v` and `v → u` (a symmetric "friendship" edge).
    pub fn add_undirected_edge(&mut self, u: NodeId, v: NodeId) {
        self.add_edge(u, v);
        self.add_edge(v, u);
    }

    /// Remove the directed edge `u → v`; returns `false` if absent.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if !self.contains(u) || !self.contains(v) {
            return false;
        }
        let before = self.out[u.idx()].len();
        self.out[u.idx()].retain(|&x| x != v);
        if self.out[u.idx()].len() == before {
            return false;
        }
        self.inc[v.idx()].retain(|&x| x != u);
        self.edges -= 1;
        true
    }

    /// Whether the edge `u → v` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.contains(u) && self.out[u.idx()].contains(&v)
    }

    /// Out-neighbors of `v` (targets of edges leaving `v`).
    #[inline]
    pub fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.out[v.idx()]
    }

    /// In-neighbors of `v` (sources of edges entering `v`).
    #[inline]
    pub fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.inc[v.idx()]
    }

    /// Out-degree of `v`.
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.out[v.idx()].len()
    }

    /// In-degree of `v`.
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.inc[v.idx()].len()
    }

    /// Iterator over live node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.alive
            .iter()
            .enumerate()
            .filter(|(_, &a)| a)
            .map(|(i, _)| NodeId(i as u32))
    }

    /// Iterator over all directed edges `(u, v)`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes()
            .flat_map(move |u| self.out[u.idx()].iter().map(move |&v| (u, v)))
    }

    /// Distinct nodes reachable from `v` within `hops` hops following
    /// *incoming* edges (used for k-hop ego networks); excludes `v` itself.
    pub fn in_neighbors_k_hop(&self, v: NodeId, hops: usize) -> Vec<NodeId> {
        self.k_hop(v, hops, /* follow_in */ true)
    }

    /// Distinct nodes reachable from `v` within `hops` hops following
    /// *outgoing* edges; excludes `v` itself.
    pub fn out_neighbors_k_hop(&self, v: NodeId, hops: usize) -> Vec<NodeId> {
        self.k_hop(v, hops, /* follow_in */ false)
    }

    fn k_hop(&self, v: NodeId, hops: usize, follow_in: bool) -> Vec<NodeId> {
        let mut seen = FastSet::default();
        seen.insert(v);
        let mut frontier = vec![v];
        let mut result = Vec::new();
        for _ in 0..hops {
            let mut next = Vec::new();
            for &u in &frontier {
                let nbrs = if follow_in {
                    self.in_neighbors(u)
                } else {
                    self.out_neighbors(u)
                };
                for &w in nbrs {
                    if seen.insert(w) {
                        next.push(w);
                        result.push(w);
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            frontier = next;
        }
        result
    }

    /// Roll the graph back to the state `log` was opened on: every node
    /// added since is dropped, every logged adjacency list restored (in its
    /// original order) and every logged removal revived. Costs what the
    /// logged run touched, not the graph size. The log stays valid, so the
    /// same run can be replayed and rolled back again.
    pub fn rollback(&mut self, log: &UndoLog) {
        self.out.truncate(log.id_bound);
        self.inc.truncate(log.id_bound);
        self.alive.truncate(log.id_bound);
        for (&v, list) in &log.out {
            self.out[v as usize].clone_from(list);
        }
        for (&v, list) in &log.inc {
            self.inc[v as usize].clone_from(list);
        }
        for &v in &log.removed {
            self.alive[v.idx()] = true;
        }
        self.live_nodes = log.live_nodes;
        self.edges = log.edges;
    }
}

/// An undo log over a run of [`DataGraph`] mutations: the pre-run copy of
/// every adjacency list the run touches, the nodes it removes, and the
/// pre-run id bound (nodes the run adds are truncated away). The caller
/// records each mutation *before* applying it —
/// [`record_edge`](Self::record_edge) for an edge change,
/// [`record_node_removal`](Self::record_node_removal) for a node removal;
/// node additions need no record — and [`DataGraph::rollback`] restores the
/// pre-run graph exactly. Replaying the same mutations from the pre-run
/// state touches the same lists, so one log undoes every replay.
#[derive(Clone, Debug)]
pub struct UndoLog {
    id_bound: usize,
    live_nodes: usize,
    edges: usize,
    out: FastMap<u32, Vec<NodeId>>,
    inc: FastMap<u32, Vec<NodeId>>,
    removed: Vec<NodeId>,
}

impl UndoLog {
    /// Open a log on `g`'s current state.
    pub fn new(g: &DataGraph) -> Self {
        Self {
            id_bound: g.id_bound(),
            live_nodes: g.live_nodes,
            edges: g.edges,
            out: FastMap::default(),
            inc: FastMap::default(),
            removed: Vec::new(),
        }
    }

    fn keep_out(&mut self, g: &DataGraph, v: NodeId) {
        if v.idx() < self.id_bound {
            self.out
                .entry(v.0)
                .or_insert_with(|| g.out[v.idx()].clone());
        }
    }

    fn keep_inc(&mut self, g: &DataGraph, v: NodeId) {
        if v.idx() < self.id_bound {
            self.inc
                .entry(v.0)
                .or_insert_with(|| g.inc[v.idx()].clone());
        }
    }

    /// Record the lists an `add_edge(u, v)` or `remove_edge(u, v)` on `g`
    /// may change. Both endpoints must be live.
    pub fn record_edge(&mut self, g: &DataGraph, u: NodeId, v: NodeId) {
        self.keep_out(g, u);
        self.keep_inc(g, v);
    }

    /// Record the lists a `remove_node(v)` on `g` changes: `v`'s own, and
    /// the opposite list of each of its neighbours. `v` must be live.
    pub fn record_node_removal(&mut self, g: &DataGraph, v: NodeId) {
        self.keep_out(g, v);
        self.keep_inc(g, v);
        for &w in &g.out[v.idx()] {
            self.keep_inc(g, w);
        }
        for &u in &g.inc[v.idx()] {
            self.keep_out(g, u);
        }
        if v.idx() < self.id_bound {
            self.removed.push(v);
        }
    }
}

impl fmt::Debug for DataGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DataGraph({} nodes, {} edges)",
            self.live_nodes, self.edges
        )
    }
}

/// The 7-node running example of the paper (Fig 1a).
///
/// Nodes a..g are ids 0..6; `N(x) = {y | y → x}` gives the input lists of
/// Fig 1(b)-(c). The lists are reverse-engineered from the paper's own
/// numbers: the read results (19, 10, 30, 30, 23, 30, 30) with the final
/// stream values a=4 b=7 c=9 d=3 e=1 f=6, and the FP-tree writer order
/// {d, c, e, f, a, b} (decreasing out-degree 7, 6, 6, 6, 5, 5 with ties
/// broken arbitrarily). Note that c, d, and f carry self-loops (they appear
/// in their own neighborhoods). Exposed here because tests across the
/// workspace reuse it.
pub fn paper_example_graph() -> DataGraph {
    // Edges are directed y → x when y is in N(x):
    //   N(a) = {c, d, e, f}            N(b) = {d, e, f}
    //   N(c) = {a, b, c, d, e, f}      N(d) = {a, b, c, d, e, f}
    //   N(e) = {a, b, c, d}            N(f) = {a, b, c, d, e, f}
    //   N(g) = {a, b, c, d, e, f}
    let (a, b, c, d, e, f, g) = (0, 1, 2, 3, 4, 5, 6);
    let mut edges = Vec::new();
    let inputs: [(u32, &[u32]); 7] = [
        (a, &[c, d, e, f]),
        (b, &[d, e, f]),
        (c, &[a, b, c, d, e, f]),
        (d, &[a, b, c, d, e, f]),
        (e, &[a, b, c, d]),
        (f, &[a, b, c, d, e, f]),
        (g, &[a, b, c, d, e, f]),
    ];
    for (reader, ins) in inputs {
        for &w in ins {
            edges.push((w, reader));
        }
    }
    DataGraph::from_edges(7, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_query_edges() {
        let mut g = DataGraph::with_nodes(3);
        assert!(g.add_edge(NodeId(0), NodeId(1)));
        assert!(!g.add_edge(NodeId(0), NodeId(1)), "parallel edge ignored");
        assert!(g.add_edge(NodeId(1), NodeId(2)));
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(!g.has_edge(NodeId(1), NodeId(0)));
        assert_eq!(g.out_neighbors(NodeId(0)), &[NodeId(1)]);
        assert_eq!(g.in_neighbors(NodeId(1)), &[NodeId(0)]);
    }

    #[test]
    fn remove_edge() {
        let mut g = DataGraph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        assert!(g.remove_edge(NodeId(0), NodeId(1)));
        assert!(!g.remove_edge(NodeId(0), NodeId(1)));
        assert_eq!(g.edge_count(), 2);
        assert!(g.in_neighbors(NodeId(1)).is_empty());
    }

    #[test]
    fn remove_node_cleans_adjacency() {
        let mut g = DataGraph::from_edges(4, &[(0, 1), (1, 2), (2, 1), (3, 1)]);
        g.remove_node(NodeId(1));
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 0);
        assert!(!g.contains(NodeId(1)));
        assert!(g.out_neighbors(NodeId(0)).is_empty());
        assert!(g.in_neighbors(NodeId(2)).is_empty());
        // Ids remain stable; adding a node creates a fresh id.
        let n = g.add_node();
        assert_eq!(n, NodeId(4));
    }

    #[test]
    fn undirected_edge_is_two_directed() {
        let mut g = DataGraph::with_nodes(2);
        g.add_undirected_edge(NodeId(0), NodeId(1));
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(g.has_edge(NodeId(1), NodeId(0)));
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn k_hop_in_neighbors() {
        // 0 → 1 → 2 → 3; in-neighbors of 3 within 2 hops are {2, 1}.
        let g = DataGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut two_hop = g.in_neighbors_k_hop(NodeId(3), 2);
        two_hop.sort();
        assert_eq!(two_hop, vec![NodeId(1), NodeId(2)]);
        let mut three_hop = g.in_neighbors_k_hop(NodeId(3), 3);
        three_hop.sort();
        assert_eq!(three_hop, vec![NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn k_hop_excludes_self_on_cycles() {
        let g = DataGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let hop = g.in_neighbors_k_hop(NodeId(0), 5);
        assert!(!hop.contains(&NodeId(0)));
        assert_eq!(hop.len(), 2);
    }

    #[test]
    fn paper_example_shape() {
        let g = paper_example_graph();
        assert_eq!(g.node_count(), 7);
        // Sum of the input-list sizes: 4+3+6+6+4+6+6 = 35.
        assert_eq!(g.edge_count(), 35);
        // FP-tree writer order check: out-degrees d=7, c=e=f=6, a=b=5
        // reproduce the paper's sort {d, c, e, f, a, b} (ties arbitrary).
        let deg: Vec<usize> = (0..7).map(|v| g.out_degree(NodeId(v))).collect();
        assert_eq!(deg, vec![5, 5, 6, 7, 6, 6, 0]);
        // N(a) = in-neighbors of a = {c, d, e, f}.
        let mut na: Vec<_> = g.in_neighbors(NodeId(0)).to_vec();
        na.sort();
        assert_eq!(na, vec![NodeId(2), NodeId(3), NodeId(4), NodeId(5)]);
        // g (node 6) writes to nobody: its out-degree is 0.
        assert_eq!(g.out_degree(NodeId(6)), 0);
    }

    #[test]
    fn rollback_restores_adjacency_order() {
        let mut g = DataGraph::from_edges(4, &[(0, 1), (2, 1), (3, 1), (1, 1), (1, 3)]);
        let before: Vec<(Vec<NodeId>, Vec<NodeId>)> = (0..4)
            .map(|v| {
                let v = NodeId(v);
                (g.out_neighbors(v).to_vec(), g.in_neighbors(v).to_vec())
            })
            .collect();
        let mut log = UndoLog::new(&g);
        log.record_edge(&g, NodeId(2), NodeId(1));
        assert!(g.remove_edge(NodeId(2), NodeId(1)));
        log.record_node_removal(&g, NodeId(1));
        g.remove_node(NodeId(1));
        let n = g.add_node();
        log.record_edge(&g, NodeId(0), n);
        g.add_edge(NodeId(0), n);
        for _ in 0..2 {
            g.rollback(&log);
            assert_eq!(g.id_bound(), 4);
            assert_eq!((g.node_count(), g.edge_count()), (4, 5));
            for (v, (out, inc)) in before.iter().enumerate() {
                let v = NodeId(v as u32);
                assert_eq!(g.out_neighbors(v), &out[..]);
                assert_eq!(g.in_neighbors(v), &inc[..]);
            }
            // Replaying the run from the restored state lands on the same
            // post-run graph, and the same log undoes it again.
            g.remove_edge(NodeId(2), NodeId(1));
            g.remove_node(NodeId(1));
            let n = g.add_node();
            g.add_edge(NodeId(0), n);
            assert_eq!(g.edge_count(), 1);
        }
    }

    #[test]
    fn edges_iterator_consistent() {
        let g = DataGraph::from_edges(5, &[(0, 1), (2, 3), (4, 0)]);
        let collected: Vec<_> = g.edges().collect();
        assert_eq!(collected.len(), g.edge_count());
    }
}
