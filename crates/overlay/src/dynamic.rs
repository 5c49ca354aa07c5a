//! Incremental overlay maintenance under data-graph changes (paper §3.3).
//!
//! [`DynamicOverlay`] pairs an [`IobState`] (overlay + reverse index) with
//! the query's neighborhood function and applies the paper's repair rules:
//!
//! * **edge addition** — for each reader whose input list grew by Δ: if
//!   `|Δ|` exceeds a threshold, cover Δ with a (possibly existing) partial
//!   aggregate via the IOB machinery; otherwise add direct writer edges. A
//!   per-reader count of accumulated direct edges triggers a full IOB
//!   restructuring of that reader when it crosses its own threshold.
//! * **edge deletion** — for each reader whose input list shrank: if few
//!   upstream nodes are affected, repair locally (drop direct edges; for
//!   writers that reach the reader through shared partials, either cancel
//!   with a negative edge — subtraction permitting — or re-cover the
//!   partial minus Δ); otherwise tear the reader's inputs down and re-add
//!   them with IOB.
//! * **node addition/deletion** — writers/readers enter lazily on first
//!   edge and are retired with coverage purging on deletion.
//!
//! The data graph is mutated *through* these methods so the before/after
//! neighborhood diff is computed consistently.
//!
//! The indexes a repair consults ([`RepairIndex`]) can outlive one
//! [`DynamicOverlay`]: a caller that applies mutations in runs splits them
//! off with [`DynamicOverlay::into_parts`] and resumes with
//! [`DynamicOverlay::resume`], so a run pays for the region it repairs,
//! not for re-indexing the whole overlay. Orphaned partials are likewise
//! collected by walking upstream from the edges a repair removed.

use crate::iob::{IobIndex, IobState};
use crate::overlay::{Overlay, OverlayId, OverlayKind};
use eagr_agg::{AggProps, Sign};
use eagr_graph::{DataGraph, Neighborhood, NodeId};
use eagr_util::{FastMap, FastSet};

/// Tuning knobs for the §3.3 repair rules.
#[derive(Clone, Copy, Debug)]
pub struct DynamicConfig {
    /// `|Δ|` above which an edge-addition repair builds/reuses a partial
    /// aggregate instead of adding direct edges.
    pub delta_threshold: usize,
    /// Accumulated direct edges per reader before it is rebuilt with IOB.
    pub direct_edge_threshold: usize,
    /// Affected-upstream-node count above which an edge-deletion repair
    /// rebuilds the reader instead of patching locally (paper: 5).
    pub split_limit: usize,
}

impl Default for DynamicConfig {
    fn default() -> Self {
        Self {
            delta_threshold: 4,
            direct_edge_threshold: 16,
            split_limit: 5,
        }
    }
}

/// The side indexes a [`DynamicOverlay`] maintains next to its overlay:
/// IOB's reverse index (writer → covering aggregation nodes), per-reader
/// coverage, and the per-reader count of direct edges repairs added.
/// Building one is O(overlay). Keeping it resident between repair runs —
/// [`DynamicOverlay::into_parts`] then [`DynamicOverlay::resume`] — makes a
/// run cost O(the region it repairs). An index is valid only for the
/// overlay it was built over or last repaired with: any other change to
/// that overlay means building a fresh one.
pub struct RepairIndex {
    iob: IobIndex,
    /// Direct writer→reader edges accumulated by repairs, per reader.
    direct_edges: FastMap<OverlayId, usize>,
}

impl RepairIndex {
    /// Index an overlay from scratch.
    pub fn build(overlay: &Overlay) -> Self {
        Self {
            iob: IobIndex::build(overlay),
            direct_edges: FastMap::default(),
        }
    }
}

/// An overlay that tracks a changing data graph.
pub struct DynamicOverlay {
    state: IobState,
    neighborhood: Neighborhood,
    props: AggProps,
    cfg: DynamicConfig,
    /// Direct writer→reader edges accumulated by repairs, per reader.
    direct_edges: FastMap<OverlayId, usize>,
    /// Nodes retired since the last [`take_retired`](Self::take_retired).
    retired: Vec<OverlayId>,
    /// Nodes that lost an output edge since the last orphan collection —
    /// where [`IobState::gc_orphans_seeded`] starts looking.
    gc_seeds: Vec<OverlayId>,
    /// Pre-existing overlay nodes whose *input list* a repair rewired —
    /// their materialized PAOs are stale and the engine must rebuild them
    /// (and everything downstream) before serving reads. Fresh nodes are
    /// not tracked here: the caller already knows them from the arena
    /// growing (ids are append-only). Restructuring carves
    /// ([`IobState::cover`]) are *not* dirty: a carve replaces a subset of
    /// a node's inputs with one fresh partial aggregating exactly that
    /// subset, so the node's net value is unchanged.
    dirty: FastSet<OverlayId>,
}

impl DynamicOverlay {
    /// Wrap an overlay (any construction algorithm) for dynamic
    /// maintenance, indexing it from scratch.
    pub fn new(
        overlay: Overlay,
        neighborhood: Neighborhood,
        props: AggProps,
        cfg: DynamicConfig,
    ) -> Self {
        let index = RepairIndex::build(&overlay);
        Self::resume(overlay, index, neighborhood, props, cfg)
    }

    /// Wrap an overlay together with the [`RepairIndex`] last split off it
    /// by [`into_parts`](Self::into_parts) (or built over it) — no
    /// re-indexing.
    pub fn resume(
        overlay: Overlay,
        index: RepairIndex,
        neighborhood: Neighborhood,
        props: AggProps,
        cfg: DynamicConfig,
    ) -> Self {
        Self {
            state: IobState::from_parts(overlay, index.iob),
            neighborhood,
            props,
            cfg,
            direct_edges: index.direct_edges,
            retired: Vec::new(),
            gc_seeds: Vec::new(),
            dirty: FastSet::default(),
        }
    }

    /// The maintained overlay.
    pub fn overlay(&self) -> &Overlay {
        &self.state.overlay
    }

    /// Consume self, returning the overlay.
    pub fn into_overlay(self) -> Overlay {
        self.state.overlay
    }

    /// Consume self, returning the overlay and the index to
    /// [`resume`](Self::resume) it with.
    pub fn into_parts(self) -> (Overlay, RepairIndex) {
        let (overlay, iob) = self.state.into_parts();
        let index = RepairIndex {
            iob,
            direct_edges: self.direct_edges,
        };
        (overlay, index)
    }

    /// Drain the ids retired since the last call, each once, in retirement
    /// order: readers and writers of removed nodes, readers whose
    /// neighborhood emptied, and partials left feeding nothing. May include
    /// ids appended since the last call.
    pub fn take_retired(&mut self) -> Vec<OverlayId> {
        std::mem::take(&mut self.retired)
    }

    /// Pre-existing nodes whose inputs were rewired since the last
    /// [`take_dirty`](Self::take_dirty) (may include since-retired ids —
    /// filter with [`Overlay::is_retired`]). These are *seeds*: a stale
    /// partial makes everything downstream stale too, so the engine-side
    /// repair expands the set along output edges before rematerializing.
    pub fn dirty(&self) -> &FastSet<OverlayId> {
        &self.dirty
    }

    /// Drain the dirty-node set accumulated by repairs.
    pub fn take_dirty(&mut self) -> FastSet<OverlayId> {
        std::mem::take(&mut self.dirty)
    }

    /// Readers whose neighborhood may involve the edge `(u, v)` — a safe
    /// superset probed before and after the mutation.
    fn candidates(&self, g: &DataGraph, u: NodeId, v: NodeId) -> Vec<NodeId> {
        let r = self.neighborhood.radius();
        let mut set: FastSet<NodeId> = FastSet::default();
        set.insert(u);
        set.insert(v);
        if r > 1 {
            for x in [u, v] {
                for n in g.out_neighbors_k_hop(x, r - 1) {
                    set.insert(n);
                }
                for n in g.in_neighbors_k_hop(x, r - 1) {
                    set.insert(n);
                }
            }
        } else {
            // 1-hop: the endpoints themselves suffice for In/Out/Undirected.
        }
        set.into_iter().collect()
    }

    fn snapshot(&self, g: &DataGraph, candidates: &[NodeId]) -> FastMap<NodeId, Vec<NodeId>> {
        candidates
            .iter()
            .filter(|&&c| g.contains(c))
            .map(|&c| {
                let mut n = self.neighborhood.select(g, c);
                n.sort_unstable();
                (c, n)
            })
            .collect()
    }

    /// Add a data-graph edge and repair the overlay. Returns `false` if the
    /// edge already existed.
    pub fn add_edge(&mut self, g: &mut DataGraph, u: NodeId, v: NodeId) -> bool {
        if g.has_edge(u, v) {
            return false;
        }
        let cands = self.candidates(g, u, v);
        let before = self.snapshot(g, &cands);
        g.add_edge(u, v);
        let after = self.snapshot(g, &cands);
        self.apply_diffs(g, &cands, &before, &after);
        true
    }

    /// Remove a data-graph edge and repair the overlay. Returns `false` if
    /// the edge did not exist.
    pub fn remove_edge(&mut self, g: &mut DataGraph, u: NodeId, v: NodeId) -> bool {
        if !g.has_edge(u, v) {
            return false;
        }
        let cands = self.candidates(g, u, v);
        let before = self.snapshot(g, &cands);
        g.remove_edge(u, v);
        let after = self.snapshot(g, &cands);
        self.apply_diffs(g, &cands, &before, &after);
        true
    }

    /// Add a fresh node to the data graph. The overlay picks it up lazily
    /// when its first edges arrive (§3.3: "in most cases, a new node is
    /// added with one edge to an existing node").
    pub fn add_node(&mut self, g: &mut DataGraph) -> NodeId {
        g.add_node()
    }

    /// Remove a node from the data graph and the overlay: both its reader
    /// and writer roles disappear; partial aggregates stop receiving it
    /// (their coverage is purged via the reverse index).
    pub fn remove_node(&mut self, g: &mut DataGraph, u: NodeId) {
        if let Some(rid) = self.state.overlay.reader(u) {
            self.retire_reader(rid);
        }
        if let Some(wid) = self.state.overlay.writer(u) {
            // Everything the writer fed loses an input: those partials (and
            // readers) hold PAOs that still include the retired writer's
            // contribution, so mark them stale before the edges vanish.
            let fed: Vec<OverlayId> = self
                .state
                .overlay
                .outputs(wid)
                .iter()
                .map(|&(t, _)| t)
                .collect();
            self.dirty.extend(fed);
            self.state.purge_writer_coverage(u.0);
            self.retire(wid);
        }
        self.gc_orphans();
        g.remove_node(u);
    }

    /// Remove the overlay edge `from → to`; `from` may now be an orphan.
    fn unlink(&mut self, from: OverlayId, to: OverlayId, sign: Sign) {
        self.state.overlay.remove_edge(from, to, sign);
        self.gc_seeds.push(from);
    }

    /// Retire `n`; each of its inputs loses an output and may now be an
    /// orphan.
    fn retire(&mut self, n: OverlayId) {
        let ov = &self.state.overlay;
        self.gc_seeds.extend(ov.inputs(n).iter().map(|&(f, _)| f));
        self.state.overlay.retire_node(n);
        self.retired.push(n);
    }

    fn retire_reader(&mut self, rid: OverlayId) {
        self.state.drop_reader_cov(rid);
        self.retire(rid);
        self.direct_edges.remove(&rid);
    }

    /// Retire the partials the edges removed since the last call left
    /// feeding nothing (seeded: only the touched region is walked).
    fn gc_orphans(&mut self) {
        let seeds = std::mem::take(&mut self.gc_seeds);
        self.state.gc_orphans_seeded(seeds, &mut self.retired);
    }

    fn apply_diffs(
        &mut self,
        g: &DataGraph,
        cands: &[NodeId],
        before: &FastMap<NodeId, Vec<NodeId>>,
        after: &FastMap<NodeId, Vec<NodeId>>,
    ) {
        for &c in cands {
            let empty: Vec<NodeId> = Vec::new();
            let b = before.get(&c).unwrap_or(&empty);
            let a = after.get(&c).unwrap_or(&empty);
            if b == a {
                continue;
            }
            let bset: FastSet<NodeId> = b.iter().copied().collect();
            let aset: FastSet<NodeId> = a.iter().copied().collect();
            let added: Vec<NodeId> = a.iter().copied().filter(|x| !bset.contains(x)).collect();
            let removed: Vec<NodeId> = b.iter().copied().filter(|x| !aset.contains(x)).collect();

            let rid = match self.state.overlay.reader(c) {
                Some(rid) => rid,
                None => {
                    if !a.is_empty() {
                        self.state.add_reader(c, a);
                    }
                    continue;
                }
            };
            if a.is_empty() {
                // Reader lost its entire neighborhood.
                self.retire_reader(rid);
                self.gc_orphans();
                continue;
            }
            // The repair below rewires this pre-existing reader's inputs.
            self.dirty.insert(rid);
            if !added.is_empty() {
                self.handle_added(rid, &added);
                let ws: Vec<u32> = added.iter().map(|w| w.0).collect();
                self.state.extend_reader_cov(rid, &ws);
            }
            if !removed.is_empty() {
                self.handle_removed(g, c, rid, &removed, &aset);
                let ws: Vec<u32> = removed.iter().map(|w| w.0).collect();
                self.state.shrink_reader_cov(rid, &ws);
            }
        }
    }

    /// §3.3 "Addition of Edges".
    fn handle_added(&mut self, rid: OverlayId, added: &[NodeId]) {
        if added.len() > self.cfg.delta_threshold {
            let targets: FastSet<u32> = added.iter().map(|w| w.0).collect();
            let cover = self.state.cover(&targets);
            if cover.len() == 1 {
                self.state.overlay.add_edge(cover[0], rid, Sign::Pos);
            } else {
                let v = self.state.overlay.add_partial(&cover);
                // Index the new aggregate for future reuse.
                self.state.index_partial(v);
                self.state.overlay.add_edge(v, rid, Sign::Pos);
            }
        } else {
            for &w in added {
                let wid = self.state.ensure_writer(w);
                self.state.overlay.add_edge(wid, rid, Sign::Pos);
            }
            let count = self.direct_edges.entry(rid).or_insert(0);
            *count += added.len();
            if *count > self.cfg.direct_edge_threshold {
                self.rebuild_reader(rid);
            }
        }
    }

    /// §3.3 "Deletion of Edges".
    fn handle_removed(
        &mut self,
        _g: &DataGraph,
        _c: NodeId,
        rid: OverlayId,
        removed: &[NodeId],
        new_n: &FastSet<NodeId>,
    ) {
        let delta: FastSet<u32> = removed.iter().map(|w| w.0).collect();
        // Count upstream overlay nodes whose coverage intersects Δ.
        let mut affected = 0usize;
        let mut stack: Vec<OverlayId> = self
            .state
            .overlay
            .inputs(rid)
            .iter()
            .map(|&(f, _)| f)
            .collect();
        let mut seen: FastSet<u32> = FastSet::default();
        while let Some(n) = stack.pop() {
            if !seen.insert(n.0) {
                continue;
            }
            if self
                .state
                .overlay
                .coverage(n)
                .iter()
                .any(|w| delta.contains(w))
            {
                affected += 1;
                for &(f, _) in self.state.overlay.inputs(n) {
                    stack.push(f);
                }
            }
        }

        if affected > self.cfg.split_limit {
            self.rebuild_reader_with(rid, new_n);
            return;
        }

        // Local patch. Work over the reader's direct inputs.
        let inputs: Vec<(OverlayId, Sign)> = self.state.overlay.inputs(rid).to_vec();
        let mut still_needed: FastSet<u32> = delta.clone();
        for (n, sign) in inputs {
            let hits: Vec<u32> = self
                .state
                .overlay
                .coverage(n)
                .iter()
                .copied()
                .filter(|w| delta.contains(w))
                .collect();
            if hits.is_empty() {
                continue;
            }
            match self.state.overlay.kind(n) {
                OverlayKind::Writer(_) => {
                    // A direct edge from a deleted-neighborhood writer: a
                    // positive edge is dropped; a negative edge (a previous
                    // cancellation) must also be dropped only if the writer
                    // no longer flows through any positive path — handled by
                    // the generic re-cover below, so drop positives only.
                    if sign == Sign::Pos {
                        self.unlink(n, rid, Sign::Pos);
                        for h in hits {
                            still_needed.remove(&h);
                        }
                    }
                }
                OverlayKind::Partial => {
                    if sign == Sign::Neg {
                        continue;
                    }
                    if self.props.subtractable && hits.len() <= self.cfg.delta_threshold {
                        // Cancel each stray writer with a negative edge.
                        for h in hits {
                            let wid = self.state.ensure_writer(NodeId(h));
                            self.state.overlay.add_edge(wid, rid, Sign::Neg);
                            still_needed.remove(&h);
                        }
                    } else {
                        // Re-cover I(n) ∖ Δ and splice it in place of n.
                        let keep: FastSet<u32> = self
                            .state
                            .overlay
                            .coverage(n)
                            .iter()
                            .copied()
                            .filter(|w| !delta.contains(w))
                            .collect();
                        self.unlink(n, rid, Sign::Pos);
                        if !keep.is_empty() {
                            let cover = self.state.cover(&keep);
                            for piece in cover {
                                self.state.overlay.add_edge(piece, rid, Sign::Pos);
                            }
                        }
                        for h in hits {
                            still_needed.remove(&h);
                        }
                    }
                }
                OverlayKind::Reader(_) => unreachable!("readers never feed nodes"),
            }
        }
        self.gc_orphans();
    }

    /// Tear down and re-add a reader's inputs from its current neighborhood.
    fn rebuild_reader(&mut self, rid: OverlayId) {
        // Reconstruct the target set from the overlay's own signed coverage
        // (net positive writers).
        let mut net: FastMap<u32, i64> = FastMap::default();
        for &(f, s) in self.state.overlay.inputs(rid) {
            let d = if s.is_negative() { -1 } else { 1 };
            for &w in self.state.overlay.coverage(f) {
                *net.entry(w).or_insert(0) += d;
            }
        }
        let targets: FastSet<NodeId> = net
            .into_iter()
            .filter(|&(_, c)| c > 0)
            .map(|(w, _)| NodeId(w))
            .collect();
        self.rebuild_reader_with(rid, &targets);
    }

    fn rebuild_reader_with(&mut self, rid: OverlayId, targets: &FastSet<NodeId>) {
        self.dirty.insert(rid);
        let old: Vec<(OverlayId, Sign)> = self.state.overlay.inputs(rid).to_vec();
        for (f, s) in old {
            self.unlink(f, rid, s);
        }
        let t32: FastSet<u32> = targets.iter().map(|w| w.0).collect();
        if !t32.is_empty() {
            let cover = self.state.cover(&t32);
            let directs = cover
                .iter()
                .filter(|&&n| matches!(self.state.overlay.kind(n), OverlayKind::Writer(_)))
                .count();
            for n in cover {
                self.state.overlay.add_edge(n, rid, Sign::Pos);
            }
            self.direct_edges.insert(rid, directs);
        } else {
            self.direct_edges.remove(&rid);
        }
        self.gc_orphans();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iob::{build_iob, IobConfig};
    use crate::validate::validate_against;
    use eagr_graph::{paper_example_graph, BipartiteGraph};

    fn sum_props() -> AggProps {
        AggProps {
            duplicate_insensitive: false,
            subtractable: true,
        }
    }

    /// Validate the overlay against the *current* graph neighborhoods.
    fn check(dynov: &DynamicOverlay, g: &DataGraph, nbh: &Neighborhood) {
        let ov = dynov.overlay();
        validate_against(ov, sum_props(), |rid| {
            let (_, r) = ov.readers().find(|&(id, _)| id == rid).unwrap();
            nbh.select(g, r).into_iter().map(|w| (w.0, 1)).collect()
        })
        .unwrap();
    }

    fn setup() -> (DataGraph, DynamicOverlay, Neighborhood) {
        let g = paper_example_graph();
        let nbh = Neighborhood::In;
        let ag = BipartiteGraph::build(&g, &nbh, |_| true);
        let (ov, _) = build_iob(&ag, &IobConfig::default());
        let dynov = DynamicOverlay::new(ov, nbh.clone(), sum_props(), DynamicConfig::default());
        (g, dynov, nbh)
    }

    #[test]
    fn edge_addition_repairs_reader() {
        let (mut g, mut dynov, nbh) = setup();
        // New edge g → a: N(a) gains g.
        assert!(dynov.add_edge(&mut g, NodeId(6), NodeId(0)));
        check(&dynov, &g, &nbh);
        // Duplicate addition is a no-op.
        assert!(!dynov.add_edge(&mut g, NodeId(6), NodeId(0)));
    }

    #[test]
    fn edge_deletion_repairs_reader() {
        let (mut g, mut dynov, nbh) = setup();
        // Remove c → a: N(a) loses c.
        assert!(dynov.remove_edge(&mut g, NodeId(2), NodeId(0)));
        check(&dynov, &g, &nbh);
        assert!(!dynov.remove_edge(&mut g, NodeId(2), NodeId(0)));
    }

    #[test]
    fn many_edge_changes_stay_consistent() {
        let (mut g, mut dynov, nbh) = setup();
        let ops: [(u32, u32, bool); 8] = [
            (6, 0, true),
            (6, 1, true),
            (0, 1, true),
            (3, 0, false),
            (4, 0, false),
            (5, 2, false),
            (6, 2, true),
            (1, 4, false),
        ];
        for (u, v, add) in ops {
            if add {
                dynov.add_edge(&mut g, NodeId(u), NodeId(v));
            } else {
                dynov.remove_edge(&mut g, NodeId(u), NodeId(v));
            }
            check(&dynov, &g, &nbh);
        }
    }

    #[test]
    fn node_addition_lazy() {
        let (mut g, mut dynov, nbh) = setup();
        let n = dynov.add_node(&mut g);
        assert!(dynov.overlay().reader(n).is_none(), "no edges yet");
        dynov.add_edge(&mut g, NodeId(0), n);
        assert!(dynov.overlay().reader(n).is_some());
        check(&dynov, &g, &nbh);
    }

    #[test]
    fn node_deletion_purges_everywhere() {
        let (mut g, mut dynov, nbh) = setup();
        dynov.remove_node(&mut g, NodeId(3)); // d: in every reader's list
        assert!(dynov.overlay().writer(NodeId(3)).is_none());
        assert!(dynov.overlay().reader(NodeId(3)).is_none());
        check(&dynov, &g, &nbh);
        // Coverage sets no longer mention the deleted writer.
        for n in dynov.overlay().ids() {
            assert!(!dynov.overlay().coverage(n).contains(&3));
        }
    }

    #[test]
    fn bulk_delta_uses_partial_aggregate() {
        let (mut g, mut dynov, nbh) = setup();
        // Give node a six new in-edges at once via a 2-hop-free path: add
        // one edge at a time but below threshold they are direct; force the
        // bulk path by a node deletion + re-add with large Δ.
        // Simpler: large Δ through rebuild — add many edges; the
        // direct-edge threshold eventually rebuilds the reader.
        let _ = (&mut g, &mut dynov); // base fixture unused in this test
        let cfg = DynamicConfig {
            direct_edge_threshold: 3,
            ..Default::default()
        };
        let g2 = paper_example_graph();
        let ag = BipartiteGraph::build(&g2, &nbh, |_| true);
        let (ov, _) = build_iob(&ag, &IobConfig::default());
        let mut dynov2 = DynamicOverlay::new(ov, nbh.clone(), sum_props(), cfg);
        let mut g2 = g2;
        // a currently lacks edges from b and g; add both, then remove and
        // re-add others to push the direct-edge count over threshold.
        dynov2.add_edge(&mut g2, NodeId(1), NodeId(0));
        dynov2.add_edge(&mut g2, NodeId(6), NodeId(0));
        dynov2.remove_edge(&mut g2, NodeId(1), NodeId(0));
        dynov2.add_edge(&mut g2, NodeId(1), NodeId(0));
        check(&dynov2, &g2, &nbh);
    }

    #[test]
    fn repairs_mark_rewired_nodes_dirty() {
        let (mut g, mut dynov, _nbh) = setup();
        assert!(dynov.dirty().is_empty(), "fresh wrapper starts clean");

        // Edge churn: the repaired reader's inputs were rewired.
        dynov.add_edge(&mut g, NodeId(6), NodeId(0));
        let rid = dynov.overlay().reader(NodeId(0)).unwrap();
        assert!(dynov.dirty().contains(&rid), "repaired reader is dirty");

        // take_dirty drains.
        let drained = dynov.take_dirty();
        assert!(drained.contains(&rid));
        assert!(dynov.dirty().is_empty());

        // Removing a writer node dirties everything it fed — readers and
        // shared partials whose stored PAOs still include its contribution.
        let wid = dynov.overlay().writer(NodeId(3)).unwrap();
        let fed: Vec<OverlayId> = dynov
            .overlay()
            .outputs(wid)
            .iter()
            .map(|&(t, _)| t)
            .collect();
        assert!(!fed.is_empty(), "fixture writer d feeds someone");
        dynov.remove_node(&mut g, NodeId(3));
        let dirty = dynov.take_dirty();
        for t in fed {
            assert!(dirty.contains(&t), "downstream {t:?} must be dirty");
        }
    }

    /// Seeded orphan collection retires exactly what the full scan would:
    /// after every mutation of a random repair sequence a full scan finds
    /// nothing left to collect, and `take_retired` names exactly the ids
    /// that became tombstones. Every 20 steps the overlay is split off and
    /// resumed with its index, the way the facade keeps the index resident
    /// between mutation runs.
    #[test]
    fn seeded_gc_matches_full_scan_over_random_repairs() {
        use eagr_util::SplitMix64;
        let mut rng = SplitMix64::new(0x5EED);
        let mut g = DataGraph::with_nodes(40);
        for _ in 0..160 {
            let (u, v) = (NodeId(rng.index(40) as u32), NodeId(rng.index(40) as u32));
            if u != v {
                g.add_edge(u, v);
            }
        }
        let nbh = Neighborhood::In;
        let ag = BipartiteGraph::build(&g, &nbh, |_| true);
        let (ov, _) = build_iob(&ag, &IobConfig::default());
        let cfg = DynamicConfig {
            direct_edge_threshold: 4,
            ..Default::default()
        };
        let mut dynov = DynamicOverlay::new(ov, nbh.clone(), sum_props(), cfg);
        for step in 0..300 {
            let ov = dynov.overlay();
            let was_retired: Vec<bool> = (0..ov.node_count() as u32)
                .map(|i| ov.is_retired(OverlayId(i)))
                .collect();
            let bound = g.id_bound();
            let u = NodeId(rng.index(bound) as u32);
            let v = NodeId(rng.index(bound) as u32);
            match rng.index(10) {
                0 if g.contains(u) && g.node_count() > 10 => dynov.remove_node(&mut g, u),
                1 => {
                    let x = dynov.add_node(&mut g);
                    if g.contains(u) {
                        dynov.add_edge(&mut g, u, x);
                    }
                }
                _ if u != v && g.contains(u) && g.contains(v) => {
                    if g.has_edge(u, v) {
                        dynov.remove_edge(&mut g, u, v);
                    } else {
                        dynov.add_edge(&mut g, u, v);
                    }
                }
                _ => {}
            }
            let mut full = IobState::from_overlay(dynov.overlay().clone());
            assert_eq!(
                full.gc_orphans(),
                0,
                "step {step}: seeded GC left an orphan"
            );
            let ov = dynov.overlay();
            let became: Vec<OverlayId> = (0..ov.node_count() as u32)
                .map(OverlayId)
                .filter(|&n| {
                    ov.is_retired(n) && !was_retired.get(n.idx()).copied().unwrap_or(false)
                })
                .collect();
            let mut got = dynov.take_retired();
            got.sort_unstable();
            assert_eq!(got, became, "step {step}: take_retired");
            if step % 20 == 19 {
                check(&dynov, &g, &nbh);
                let (ov, index) = dynov.into_parts();
                dynov = DynamicOverlay::resume(ov, index, nbh.clone(), sum_props(), cfg);
            }
        }
        check(&dynov, &g, &nbh);
    }

    #[test]
    fn two_hop_neighborhood_maintenance() {
        let g0 = paper_example_graph();
        let nbh = Neighborhood::KHopIn(2);
        let ag = BipartiteGraph::build(&g0, &nbh, |_| true);
        let (ov, _) = build_iob(&ag, &IobConfig::default());
        let mut dynov = DynamicOverlay::new(ov, nbh.clone(), sum_props(), DynamicConfig::default());
        let mut g = g0;
        dynov.add_edge(&mut g, NodeId(6), NodeId(0));
        check(&dynov, &g, &nbh);
        dynov.remove_edge(&mut g, NodeId(2), NodeId(0));
        check(&dynov, &g, &nbh);
    }
}
