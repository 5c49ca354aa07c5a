//! IOB — Incremental Overlay Building (paper §3.2.5).
//!
//! IOB starts from an overlay containing only the singleton writer nodes and
//! adds one reader at a time (in shingle order). For each reader it reuses
//! as much existing partial aggregation as possible: a greedy heuristic for
//! minimum *exact* set cover over the coverage sets `I(ovl)` of the overlay
//! built so far. When the best-overlapping node only partially fits, the
//! overlay is restructured — a new node `v'` is carved out of the overlap
//! and rerouted exactly as Fig 4 illustrates.
//!
//! Two indexes make this efficient (and are reused by
//! [dynamic maintenance](crate::dynamic)):
//!
//! * the **reverse index**: writer → overlay nodes whose `I(·)` contains it,
//! * the **forward index**: a node's input list — already stored by
//!   [`Overlay`].
//!
//! Later iterations revisit each partial aggregator and locally restructure
//! it if a smaller input cover exists.

use crate::metrics::IterationStats;
use crate::overlay::{Overlay, OverlayId, OverlayKind};
use crate::shingle::shingle_order;
use eagr_graph::{BipartiteGraph, NodeId};
use eagr_util::{FastMap, FastSet};
use std::time::Instant;

/// Configuration of an IOB run.
#[derive(Clone, Debug)]
pub struct IobConfig {
    /// Outer iterations: the first inserts all readers, the rest locally
    /// restructure partial aggregators.
    pub iterations: usize,
    /// Min-hash shingles for the insertion order.
    pub num_shingles: usize,
    /// Shingle seed.
    pub seed: u64,
}

impl Default for IobConfig {
    fn default() -> Self {
        Self {
            iterations: 4,
            num_shingles: 2,
            seed: 0xEA67,
        }
    }
}

/// An overlay paired with the IOB reverse and forward indexes, supporting
/// incremental reader insertion and local restructuring.
///
/// Readers participate in the reverse index too: the paper's Fig 4 finds
/// "I(e_r)" as the best overlap for g_r and carves aggregator v1 out of
/// e_r's input structure — but a reader is never *used* as a cover node
/// directly ("we do not allow a reader node to directly form an input to an
/// aggregator node"); its pieces are.
pub struct IobState {
    /// The overlay under construction/maintenance.
    pub overlay: Overlay,
    /// Writer data id → live aggregation nodes (partials *and* readers)
    /// whose coverage contains it.
    reverse: FastMap<u32, Vec<OverlayId>>,
    /// Coverage of each reader (the overlay itself only tracks coverage of
    /// writers and partials).
    reader_cov: FastMap<u32, Vec<u32>>,
}

/// [`IobState`]'s two side tables without the overlay, so a caller can keep
/// them resident while the overlay itself is moved elsewhere.
pub(crate) struct IobIndex {
    reverse: FastMap<u32, Vec<OverlayId>>,
    reader_cov: FastMap<u32, Vec<u32>>,
}

impl IobIndex {
    /// Build the indexes from an overlay's coverage. Reader coverage is
    /// reconstructed as the net-positive writer set of the reader's inputs
    /// (negative edges subtract).
    pub(crate) fn build(overlay: &Overlay) -> Self {
        let mut reverse: FastMap<u32, Vec<OverlayId>> = FastMap::default();
        let mut reader_cov: FastMap<u32, Vec<u32>> = FastMap::default();
        for n in overlay.ids() {
            match overlay.kind(n) {
                OverlayKind::Partial => {
                    for &w in overlay.coverage(n) {
                        reverse.entry(w).or_default().push(n);
                    }
                }
                OverlayKind::Reader(_) => {
                    let mut net: FastMap<u32, i64> = FastMap::default();
                    for &(f, sign) in overlay.inputs(n) {
                        let d = if sign.is_negative() { -1 } else { 1 };
                        for &w in overlay.coverage(f) {
                            *net.entry(w).or_insert(0) += d;
                        }
                    }
                    let mut cov: Vec<u32> = net
                        .into_iter()
                        .filter(|&(_, c)| c > 0)
                        .map(|(w, _)| w)
                        .collect();
                    cov.sort_unstable();
                    for &w in &cov {
                        reverse.entry(w).or_default().push(n);
                    }
                    reader_cov.insert(n.0, cov);
                }
                OverlayKind::Writer(_) => {}
            }
        }
        Self {
            reverse,
            reader_cov,
        }
    }
}

impl IobState {
    /// Start from a writer-only skeleton.
    pub fn new(ag: &BipartiteGraph) -> Self {
        Self {
            overlay: Overlay::skeleton_from_bipartite(ag),
            reverse: FastMap::default(),
            reader_cov: FastMap::default(),
        }
    }

    /// Wrap an existing overlay (e.g. one built by VNM) so it can be
    /// incrementally maintained; rebuilds the indexes from coverage. Reader
    /// coverage is reconstructed as the net-positive writer set of the
    /// reader's inputs (negative edges subtract).
    pub fn from_overlay(overlay: Overlay) -> Self {
        let index = IobIndex::build(&overlay);
        Self::from_parts(overlay, index)
    }

    /// Reunite an overlay with the indexes last split off it by
    /// [`into_parts`](Self::into_parts) (or built over it).
    pub(crate) fn from_parts(overlay: Overlay, index: IobIndex) -> Self {
        Self {
            overlay,
            reverse: index.reverse,
            reader_cov: index.reader_cov,
        }
    }

    /// Split into the overlay and its indexes.
    pub(crate) fn into_parts(self) -> (Overlay, IobIndex) {
        let index = IobIndex {
            reverse: self.reverse,
            reader_cov: self.reader_cov,
        };
        (self.overlay, index)
    }

    /// Coverage of any aggregation node (partials from the overlay, readers
    /// from the side table).
    fn cov(&self, n: OverlayId) -> &[u32] {
        match self.overlay.kind(n) {
            OverlayKind::Reader(_) => self
                .reader_cov
                .get(&n.0)
                .map(|v| v.as_slice())
                .unwrap_or(&[]),
            _ => self.overlay.coverage(n),
        }
    }

    /// Register a freshly created partial `v` in the reverse index under
    /// every writer it covers.
    pub(crate) fn index_partial(&mut self, v: OverlayId) {
        for &w in self.overlay.coverage(v) {
            self.reverse.entry(w).or_default().push(v);
        }
    }

    /// Record/extend reader coverage in the side table and reverse index.
    pub(crate) fn extend_reader_cov(&mut self, rid: OverlayId, writers: &[u32]) {
        let cov = self.reader_cov.entry(rid.0).or_default();
        for &w in writers {
            if let Err(pos) = cov.binary_search(&w) {
                cov.insert(pos, w);
                self.reverse.entry(w).or_default().push(rid);
            }
        }
    }

    /// Shrink reader coverage in the side table and reverse index.
    pub(crate) fn shrink_reader_cov(&mut self, rid: OverlayId, writers: &[u32]) {
        if let Some(cov) = self.reader_cov.get_mut(&rid.0) {
            for &w in writers {
                if let Ok(pos) = cov.binary_search(&w) {
                    cov.remove(pos);
                    if let Some(list) = self.reverse.get_mut(&w) {
                        list.retain(|&x| x != rid);
                    }
                }
            }
        }
    }

    /// Forget a reader entirely (retirement).
    pub(crate) fn drop_reader_cov(&mut self, rid: OverlayId) {
        if let Some(cov) = self.reader_cov.remove(&rid.0) {
            for w in cov {
                if let Some(list) = self.reverse.get_mut(&w) {
                    list.retain(|&x| x != rid);
                }
            }
        }
    }

    /// Candidate partial nodes overlapping the target writer set, with
    /// overlap counts.
    fn overlap_counts(&self, targets: &FastSet<u32>) -> FastMap<OverlayId, u32> {
        let mut counts: FastMap<OverlayId, u32> = FastMap::default();
        for &w in targets {
            if let Some(nodes) = self.reverse.get(&w) {
                for &n in nodes {
                    if !self.overlay.is_retired(n) {
                        *counts.entry(n).or_insert(0) += 1;
                    }
                }
            }
        }
        counts
    }

    /// Decompose node `n` into existing sub-nodes whose coverage lies fully
    /// inside `targets` ("pieces"); descends through partial inputs whose
    /// coverage only partially overlaps. Writers at the leaves guarantee
    /// termination with exactly `I(n) ∩ targets` covered. Only positive
    /// inputs are pieces: a negative edge (a repair's cancellation)
    /// subtracts a writer another input already contributes.
    fn pieces(&self, n: OverlayId, targets: &FastSet<u32>, out: &mut Vec<OverlayId>) {
        for &(inp, sign) in self.overlay.inputs(n) {
            let cov = self.overlay.coverage(inp);
            if sign.is_negative() || cov.is_empty() {
                continue;
            }
            if cov.iter().all(|w| targets.contains(w)) {
                out.push(inp);
            } else if matches!(self.overlay.kind(inp), OverlayKind::Partial) {
                self.pieces(inp, targets, out);
            }
        }
    }

    /// Ensure a writer node exists for `w` (dynamic maintenance may
    /// introduce writers that had no readers at build time).
    pub fn ensure_writer(&mut self, w: NodeId) -> OverlayId {
        match self.overlay.writer(w) {
            Some(id) => id,
            None => self.overlay.add_writer(w),
        }
    }

    /// Greedily find (or build, by restructuring) nodes covering exactly
    /// `targets`, per the §3.2.5 algorithm, and return them. The returned
    /// nodes have pairwise-disjoint coverage whose union is `targets`.
    pub fn cover(&mut self, targets: &FastSet<u32>) -> Vec<OverlayId> {
        self.cover_bounded(targets, usize::MAX)
    }

    /// [`cover`](Self::cover) restricted to candidate/piece nodes with
    /// coverage strictly smaller than `max_cov`. Refinement uses this to
    /// re-cover a partial node `v` without touching `v` itself or anything
    /// downstream of it (any node downstream of `v` has coverage ⊇ I(v),
    /// hence at least as large).
    fn cover_bounded(&mut self, targets: &FastSet<u32>, max_cov: usize) -> Vec<OverlayId> {
        let mut remaining: FastSet<u32> = targets.clone();
        let mut cover = Vec::new();
        while !remaining.is_empty() {
            let counts = self.overlap_counts(&remaining);
            let best = counts
                .iter()
                .filter(|&(n, &c)| c >= 2 && self.cov(*n).len() < max_cov)
                .max_by_key(|&(n, &c)| (c, std::cmp::Reverse(self.cov(*n).len())))
                .map(|(&n, &c)| (n, c));
            let Some((n, _count)) = best else {
                // No shared structure left: direct writer edges.
                let mut rest: Vec<u32> = remaining.drain().collect();
                rest.sort_unstable();
                for w in rest {
                    let wid = self.ensure_writer(NodeId(w));
                    cover.push(wid);
                }
                break;
            };
            let b: Vec<u32> = self.cov(n).to_vec();
            let is_reader = matches!(self.overlay.kind(n), OverlayKind::Reader(_));
            let full_subset = !is_reader && b.iter().all(|w| remaining.contains(w));
            let chosen: Vec<OverlayId> = if full_subset {
                vec![n]
            } else {
                // Partial overlap: decompose into pieces ⊆ remaining.
                let mut ps = Vec::new();
                self.pieces(n, &remaining, &mut ps);
                ps.sort_unstable_by_key(|p| p.0);
                ps.dedup();
                if max_cov != usize::MAX {
                    ps.retain(|&p| self.cov(p).len() < max_cov);
                }
                if ps.is_empty() {
                    // Every usable piece was filtered out: fall back to
                    // direct writer edges for the overlap and move on.
                    let inter: Vec<u32> = b
                        .iter()
                        .copied()
                        .filter(|w| remaining.contains(w))
                        .collect();
                    for w in inter {
                        remaining.remove(&w);
                        let wid = self.ensure_writer(NodeId(w));
                        cover.push(wid);
                    }
                    continue;
                }
                let direct: FastSet<u32> = self
                    .overlay
                    .inputs(n)
                    .iter()
                    .filter(|&&(_, s)| !s.is_negative())
                    .map(|&(f, _)| f.0)
                    .collect();
                let all_direct = ps.iter().all(|p| direct.contains(&p.0));
                if ps.len() >= 2 && all_direct {
                    // Carve v' = I(n) ∩ remaining out of n's structure and
                    // reroute, exactly as Fig 4 does: v' replaces the pieces
                    // inside n (+2 edges net vs +|ps| for direct use — never
                    // worse for |ps| ≥ 2, and shared by future readers).
                    let vprime = self.overlay.add_partial(&ps);
                    for &p in &ps {
                        self.overlay.remove_edge(p, n, eagr_agg::Sign::Pos);
                    }
                    self.overlay.add_edge(vprime, n, eagr_agg::Sign::Pos);
                    self.index_partial(vprime);
                    vec![vprime]
                } else {
                    // Pieces buried deeper than n's direct inputs: a fresh
                    // aggregator would *add* edges without saving any, so
                    // share the pieces themselves.
                    ps
                }
            };
            for &c in &chosen {
                for &w in self.cov(c) {
                    remaining.remove(&w);
                }
                cover.push(c);
            }
        }
        cover
    }

    /// Add a reader with the given input writer list, reusing overlay
    /// structure via [`cover`](Self::cover).
    pub fn add_reader(&mut self, r: NodeId, inputs: &[NodeId]) -> OverlayId {
        let rid = self.overlay.add_reader(r);
        if inputs.is_empty() {
            return rid;
        }
        let targets: FastSet<u32> = inputs.iter().map(|w| w.0).collect();
        let cover = self.cover(&targets);
        for n in cover {
            self.overlay.add_edge(n, rid, eagr_agg::Sign::Pos);
        }
        let ws: Vec<u32> = inputs.iter().map(|w| w.0).collect();
        self.extend_reader_cov(rid, &ws);
        rid
    }

    /// One refinement pass (§3.2.5's later iterations): revisit every
    /// partial aggregator, re-cover its input set with the same carving
    /// set-cover used at insertion (restricted to strictly-smaller nodes
    /// for cycle safety), and rewire if the cover is strictly smaller.
    /// Returns the number of nodes restructured.
    pub fn refine(&mut self) -> usize {
        let partials: Vec<OverlayId> = self
            .overlay
            .ids()
            .filter(|&n| matches!(self.overlay.kind(n), OverlayKind::Partial))
            .collect();
        let mut changed = 0;
        for v in partials {
            if self.overlay.is_retired(v) || self.overlay.outputs(v).is_empty() {
                continue;
            }
            let my_cov: FastSet<u32> = self.overlay.coverage(v).iter().copied().collect();
            let my_len = my_cov.len();
            if my_len < 3 {
                continue;
            }
            // The current inputs stay in place while we search — exclude v
            // (and anything as large) via the bound; the carving may create
            // sub-aggregates shared with other parts of the overlay.
            let new_inputs = self.cover_bounded(&my_cov, my_len);
            if new_inputs.len() < self.overlay.fan_in(v) && new_inputs.iter().all(|&n| n != v) {
                let old: Vec<_> = self.overlay.inputs(v).to_vec();
                for (f, s) in old {
                    self.overlay.remove_edge(f, v, s);
                }
                for n in new_inputs {
                    self.overlay.add_edge(n, v, eagr_agg::Sign::Pos);
                }
                changed += 1;
            }
        }
        self.gc_orphans();
        changed
    }

    /// Retire partial nodes that feed nothing (after reader removal or
    /// restructuring), cascading upstream. Returns how many were retired.
    pub fn gc_orphans(&mut self) -> usize {
        let mut retired = 0;
        loop {
            let orphans: Vec<OverlayId> = self
                .overlay
                .ids()
                .filter(|&n| {
                    matches!(self.overlay.kind(n), OverlayKind::Partial)
                        && self.overlay.outputs(n).is_empty()
                })
                .collect();
            if orphans.is_empty() {
                break;
            }
            for n in orphans {
                self.remove_from_reverse(n);
                self.overlay.retire_node(n);
                retired += 1;
            }
        }
        retired
    }

    /// [`gc_orphans`](Self::gc_orphans) over the region a repair touched
    /// instead of every id: `seeds` are the nodes that just lost an output
    /// edge. Each one that is now an orphaned partial is retired and its
    /// inputs are checked in turn. On an overlay that held no orphans
    /// before the edges were removed this retires exactly what the full
    /// scan would. Retired ids are appended to `retired`; returns how many.
    pub(crate) fn gc_orphans_seeded(
        &mut self,
        mut seeds: Vec<OverlayId>,
        retired: &mut Vec<OverlayId>,
    ) -> usize {
        let before = retired.len();
        while let Some(n) = seeds.pop() {
            if self.overlay.is_retired(n)
                || !matches!(self.overlay.kind(n), OverlayKind::Partial)
                || !self.overlay.outputs(n).is_empty()
            {
                continue;
            }
            seeds.extend(self.overlay.inputs(n).iter().map(|&(f, _)| f));
            self.remove_from_reverse(n);
            self.overlay.retire_node(n);
            retired.push(n);
        }
        retired.len() - before
    }

    fn remove_from_reverse(&mut self, n: OverlayId) {
        let cov: Vec<u32> = self.overlay.coverage(n).to_vec();
        for w in cov {
            if let Some(list) = self.reverse.get_mut(&w) {
                list.retain(|&x| x != n);
            }
        }
    }

    /// Remove writer `w` from every coverage set and the reverse index
    /// (node deletion, §3.3).
    pub(crate) fn purge_writer_coverage(&mut self, w: u32) {
        if let Some(nodes) = self.reverse.remove(&w) {
            for n in nodes {
                self.overlay.coverage_remove(n, w);
            }
        }
    }

    /// Approximate heap footprint of overlay + reverse index (Fig 10b).
    pub fn memory_bytes(&self) -> usize {
        let rev: usize = self
            .reverse
            .values()
            .map(|v| v.capacity() * std::mem::size_of::<OverlayId>() + 16)
            .sum();
        self.overlay.memory_bytes() + rev
    }
}

/// Build an overlay with IOB and return it plus per-iteration statistics.
pub fn build_iob(ag: &BipartiteGraph, cfg: &IobConfig) -> (Overlay, Vec<IterationStats>) {
    let started = Instant::now();
    let mut state = IobState::new(ag);
    let lists: Vec<Vec<u32>> = (0..ag.reader_count())
        .map(|i| ag.inputs(i).iter().map(|w| w.0).collect())
        .collect();
    let order = shingle_order(&lists, cfg.num_shingles, cfg.seed);

    let mut stats = Vec::new();
    let t0 = Instant::now();
    for &i in &order {
        state.add_reader(ag.reader_node(i), ag.inputs(i));
    }
    stats.push(IterationStats {
        iteration: 0,
        edges: state.overlay.edge_count(),
        sharing_index: state.overlay.sharing_index(),
        bicliques: state.overlay.partial_count(),
        benefit: ag.edge_count() as i64 - state.overlay.edge_count() as i64,
        chunk_size: 0,
        elapsed_ms: t0.elapsed().as_secs_f64() * 1e3,
        cumulative_ms: started.elapsed().as_secs_f64() * 1e3,
        memory_bytes: state.memory_bytes(),
    });

    for iter in 1..cfg.iterations {
        let t = Instant::now();
        let before = state.overlay.edge_count() as i64;
        let changed = state.refine();
        state.gc_orphans();
        stats.push(IterationStats {
            iteration: iter,
            edges: state.overlay.edge_count(),
            sharing_index: state.overlay.sharing_index(),
            bicliques: changed,
            benefit: before - state.overlay.edge_count() as i64,
            chunk_size: 0,
            elapsed_ms: t.elapsed().as_secs_f64() * 1e3,
            cumulative_ms: started.elapsed().as_secs_f64() * 1e3,
            memory_bytes: state.memory_bytes(),
        });
        if changed == 0 {
            break;
        }
    }
    (state.overlay, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate_vs_bipartite;
    use eagr_agg::AggProps;
    use eagr_agg::Sign;
    use eagr_graph::{paper_example_graph, Neighborhood};

    fn paper_ag() -> BipartiteGraph {
        BipartiteGraph::build(&paper_example_graph(), &Neighborhood::In, |_| true)
    }

    fn sum_props() -> AggProps {
        AggProps {
            duplicate_insensitive: false,
            subtractable: true,
        }
    }

    #[test]
    fn iob_paper_example_order() {
        // Fig 4 walks readers in order e, g, f, c, d, a, b; after e and g
        // a shared aggregator over {a,b,c,d} must exist.
        let ag = paper_ag();
        let mut st = IobState::new(&ag);
        let n = |v: u32| NodeId(v);
        st.add_reader(n(4), &[n(0), n(1), n(2), n(3)]); // e_r
        st.add_reader(n(6), &[n(0), n(1), n(2), n(3), n(4), n(5)]); // g_r

        // One partial node covering {a,b,c,d} shared by e_r and g_r.
        assert_eq!(st.overlay.partial_count(), 1);
        let p = st
            .overlay
            .ids()
            .find(|&id| matches!(st.overlay.kind(id), OverlayKind::Partial))
            .unwrap();
        assert_eq!(st.overlay.coverage(p), &[0, 1, 2, 3]);
        assert_eq!(st.overlay.outputs(p).len(), 2);
        // g_r gets direct edges from e_w and f_w for the uncovered inputs.
        let gr = st.overlay.reader(n(6)).unwrap();
        assert_eq!(st.overlay.fan_in(gr), 3); // v1 + e_w + f_w
    }

    #[test]
    fn iob_compresses_and_validates() {
        let ag = paper_ag();
        let (ov, stats) = build_iob(&ag, &IobConfig::default());
        assert!(ov.sharing_index() > 0.0);
        assert!(ov.edge_count() < ag.edge_count());
        assert!(!stats.is_empty());
        validate_vs_bipartite(&ov, sum_props(), &ag).unwrap();
    }

    #[test]
    fn iob_factors_shared_block_exactly() {
        // 20 readers sharing one 10-writer block: IOB must factor the block
        // once. Direct: 200 edges; factored: 10 + 20 = 30.
        let mut lists = Vec::new();
        for r in 0..20u32 {
            let inputs: Vec<NodeId> = (0..10).map(NodeId).collect();
            lists.push((NodeId(100 + r), inputs));
        }
        let ag = BipartiteGraph::from_input_lists(200, lists);
        let (ov, _) = build_iob(&ag, &IobConfig::default());
        assert_eq!(ov.edge_count(), 30);
        assert!((ov.sharing_index() - 0.85).abs() < 1e-9);
        validate_vs_bipartite(&ov, sum_props(), &ag).unwrap();
    }

    #[test]
    fn cover_returns_disjoint_exact_cover() {
        let ag = paper_ag();
        let mut st = IobState::new(&ag);
        let targets: FastSet<u32> = [0u32, 1, 2].into_iter().collect();
        let cover = st.cover(&targets);
        let mut covered: Vec<u32> = cover
            .iter()
            .flat_map(|&n| st.overlay.coverage(n).iter().copied())
            .collect();
        covered.sort_unstable();
        assert_eq!(covered, vec![0, 1, 2], "exact disjoint cover");
    }

    #[test]
    fn restructuring_carves_overlap() {
        // Readers alternate between {0..6} and {0..4}: the smaller set must
        // be carved out of the bigger aggregator, never double-covered.
        let lists = vec![
            (NodeId(100), (0..6).map(NodeId).collect::<Vec<_>>()),
            (NodeId(101), (0..4).map(NodeId).collect::<Vec<_>>()),
            (NodeId(102), (0..6).map(NodeId).collect::<Vec<_>>()),
            (NodeId(103), (0..4).map(NodeId).collect::<Vec<_>>()),
        ];
        let ag = BipartiteGraph::from_input_lists(200, lists);
        let (ov, _) = build_iob(&ag, &IobConfig::default());
        validate_vs_bipartite(&ov, sum_props(), &ag).unwrap();
        assert!(ov.sharing_index() > 0.0);
    }

    #[test]
    fn gc_removes_orphan_chain() {
        let ag = paper_ag();
        let mut st = IobState::new(&ag);
        let w: Vec<OverlayId> = st.overlay.writers().map(|(id, _)| id).collect();
        let p1 = st.overlay.add_partial(&w[..2]);
        let _p2 = st.overlay.add_partial(&[p1]);
        // Neither feeds a reader: both must be collected (p2 first, then p1).
        assert_eq!(st.gc_orphans(), 2);
        assert_eq!(st.overlay.partial_count(), 0);
    }

    #[test]
    fn carving_a_reader_skips_its_negative_inputs() {
        // Reader r = p{a,b} + c + d − b (a repair cancelled b): net {a,c,d}.
        let mut ov = Overlay::default();
        let w: Vec<OverlayId> = (0..4).map(|i| ov.add_writer(NodeId(i))).collect();
        let p = ov.add_partial(&w[..2]);
        let r = ov.add_reader(NodeId(8));
        for (f, s) in [
            (p, Sign::Pos),
            (w[2], Sign::Pos),
            (w[3], Sign::Pos),
            (w[1], Sign::Neg),
        ] {
            ov.add_edge(f, r, s);
        }
        let mut st = IobState::from_overlay(ov);
        // A reader over {a,b,c,d} overlaps r best and carves it; the
        // negative edge must stay out of the carved partial.
        let all: Vec<NodeId> = (0..4).map(NodeId).collect();
        let r2 = st.add_reader(NodeId(9), &all);
        let expect = |rid: OverlayId| -> FastMap<u32, i64> {
            let ws: &[u32] = if rid == r2 { &[0, 1, 2, 3] } else { &[0, 2, 3] };
            ws.iter().map(|&w| (w, 1)).collect()
        };
        crate::validate::validate_against(&st.overlay, sum_props(), expect).unwrap();
    }

    #[test]
    fn seeded_gc_cascades_from_its_seed() {
        let ag = paper_ag();
        let mut st = IobState::new(&ag);
        let w: Vec<OverlayId> = st.overlay.writers().map(|(id, _)| id).collect();
        let p1 = st.overlay.add_partial(&w[..2]);
        let p2 = st.overlay.add_partial(&[p1]);
        let mut retired = Vec::new();
        // Writers are never collected; p2 goes first, then p1 upstream.
        assert_eq!(st.gc_orphans_seeded(vec![w[0], p2], &mut retired), 2);
        assert_eq!(retired, vec![p2, p1]);
        assert_eq!(st.overlay.partial_count(), 0);
    }

    #[test]
    fn refine_validates_after_restructuring() {
        let mut lists = Vec::new();
        lists.push((NodeId(100), (0..8).map(NodeId).collect::<Vec<_>>()));
        lists.push((NodeId(101), (0..8).map(NodeId).collect::<Vec<_>>()));
        for r in 0..6u32 {
            lists.push((NodeId(110 + r), (0..4).map(NodeId).collect::<Vec<_>>()));
        }
        let ag = BipartiteGraph::from_input_lists(200, lists);
        let (ov, stats) = build_iob(&ag, &IobConfig::default());
        validate_vs_bipartite(&ov, sum_props(), &ag).unwrap();
        let last = stats.last().unwrap();
        assert!(last.sharing_index >= stats[0].sharing_index);
        assert!(ov.sharing_index() > 0.3);
    }

    #[test]
    fn from_overlay_rebuilds_reverse_index() {
        let ag = paper_ag();
        let (ov, _) = build_iob(&ag, &IobConfig::default());
        let st = IobState::from_overlay(ov);
        // Every partial node must be findable through each covered writer.
        let partials: Vec<OverlayId> = st
            .overlay
            .ids()
            .filter(|&n| matches!(st.overlay.kind(n), OverlayKind::Partial))
            .collect();
        for p in partials {
            for &w in st.overlay.coverage(p) {
                assert!(st.reverse[&w].contains(&p));
            }
        }
    }
}
