//! The shared execution core (paper §2.2.2).
//!
//! [`EngineCore`] holds the frozen overlay plus all runtime state:
//!
//! * one [`WindowBuffer`] per writer (the content streams `S_v` under the
//!   query's sliding window),
//! * one PAO slot per overlay node in a pluggable [`PaoStore`] backend —
//!   per-PAO `RwLock`s ([`LockedStore`], the paper's "explicit
//!   synchronization" choice) for the single-threaded and two-pool engines,
//!   or shard slabs ([`crate::store::ShardedStore`]) for the sharded
//!   runtime,
//! * an atomic push/pull flag per node — dataflow decisions are consulted
//!   on every op and flipped rarely (§4.8), so they live in `AtomicBool`s
//!   rather than under a lock,
//! * observed push/pull counters per node feeding the adaptive controller.
//!
//! A write shifts the writer's window into `Insert`/`Remove` delta ops and
//! propagates them through push-annotated consumers (negative edges flip
//! the op, §2.2.1); a read finalizes a push reader's PAO directly or
//! recursively merges upstream PAOs for pull readers. Reads may observe
//! slightly stale state under concurrency — the paper explicitly accepts
//! this ("we ignore the potential for such inconsistencies").

use crate::store::{LockedStore, PaoReader, PaoStore, StoreReader};
use eagr_agg::{Aggregate, DeltaOp, Sign, WindowBuffer, WindowSpec};
use eagr_flow::{Decision, Decisions, Frequencies};
use eagr_graph::NodeId;
use eagr_overlay::{Overlay, OverlayId, OverlayKind};
use eagr_util::FastSet;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Shared engine state, generic over the PAO storage backend `S`. Used
/// directly it is the single-threaded reference engine; the two-pool
/// [`ParallelEngine`](crate::ParallelEngine) and the shard-owned
/// [`ShardedEngine`](crate::ShardedEngine) run on top of it — the former
/// over the default [`LockedStore`], the latter over a
/// [`crate::store::ShardedStore`].
pub struct EngineCore<
    A: Aggregate,
    S: PaoStore<A::Partial> = LockedStore<<A as Aggregate>::Partial>,
> {
    agg: A,
    overlay: Arc<Overlay>,
    push_flag: Vec<AtomicBool>,
    store: S,
    windows: Vec<Option<Mutex<WindowBuffer>>>,
    /// Ops applied at each node (observed push activity).
    pushed: Vec<AtomicU64>,
    /// Times each node was read/evaluated (observed pull activity).
    pulled: Vec<AtomicU64>,
}

impl<A: Aggregate> EngineCore<A> {
    /// Build the runtime state for an overlay + decisions over the default
    /// per-PAO-lock storage.
    pub fn new(agg: A, overlay: Arc<Overlay>, decisions: &Decisions, window: WindowSpec) -> Self {
        let store = LockedStore::new(overlay.node_count(), || agg.empty());
        Self::with_store(agg, overlay, decisions, window, store)
    }
}

impl<A: Aggregate, S: PaoStore<A::Partial>> EngineCore<A, S> {
    /// Build the runtime state over an explicit PAO storage backend.
    ///
    /// # Panics
    /// Panics if `decisions` or `store` do not cover every overlay node.
    pub fn with_store(
        agg: A,
        overlay: Arc<Overlay>,
        decisions: &Decisions,
        window: WindowSpec,
        store: S,
    ) -> Self {
        let n = overlay.node_count();
        assert_eq!(decisions.of.len(), n, "decisions must cover every node");
        assert_eq!(store.len(), n, "store must cover every node");
        let push_flag = decisions
            .of
            .iter()
            .map(|&d| AtomicBool::new(d == Decision::Push))
            .collect();
        let windows = (0..n as u32)
            .map(|i| {
                let id = OverlayId(i);
                if !overlay.is_retired(id) && matches!(overlay.kind(id), OverlayKind::Writer(_)) {
                    Some(Mutex::new(WindowBuffer::new(window)))
                } else {
                    None
                }
            })
            .collect();
        let pushed = (0..n).map(|_| AtomicU64::new(0)).collect();
        let pulled = (0..n).map(|_| AtomicU64::new(0)).collect();
        Self {
            agg,
            overlay,
            push_flag,
            store,
            windows,
            pushed,
            pulled,
        }
    }

    /// The aggregate function.
    pub fn aggregate(&self) -> &A {
        &self.agg
    }

    /// The overlay.
    pub fn overlay(&self) -> &Overlay {
        &self.overlay
    }

    /// The PAO storage backend (e.g. for shard-scoped batch access).
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Is node `n` currently push-annotated?
    #[inline]
    pub fn is_push(&self, n: OverlayId) -> bool {
        self.push_flag[n.idx()].load(Ordering::Relaxed)
    }

    /// Record one PAO update at `n` in the observed-push counters. Callers
    /// that bypass [`apply_op`](Self::apply_op) by mutating PAOs through a
    /// shard guard must call this per applied op so §4.8 adaptation keeps
    /// seeing true frequencies.
    #[inline]
    pub fn record_push(&self, n: OverlayId) {
        self.pushed[n.idx()].fetch_add(1, Ordering::Relaxed);
    }

    /// Apply one delta op at a node's PAO and return it ready for further
    /// propagation. Increments the observed-push counter.
    #[inline]
    fn apply_at(&self, n: OverlayId, op: DeltaOp) {
        self.store.with_mut(n.idx(), |p| op.apply(&self.agg, p));
        self.record_push(n);
    }

    /// Process a write at data node `v` fully (uni-thread model): shift the
    /// window, apply the deltas at the writer, and propagate through every
    /// push-annotated downstream node. Returns the number of PAO updates
    /// performed (micro-tasks executed).
    pub fn write(&self, v: NodeId, value: i64, ts: u64) -> usize {
        let Some(wid) = self.overlay.writer(v) else {
            return 0; // writer feeds no reader: drop the update
        };
        let ops = self.window_ops(wid, value, ts);
        let mut done = 0;
        let mut stack: Vec<(OverlayId, DeltaOp)> = Vec::with_capacity(8);
        for op in ops {
            self.apply_at(wid, op);
            done += 1;
            self.fan_out(wid, op, &mut stack);
            while let Some((n, op)) = stack.pop() {
                self.apply_at(n, op);
                done += 1;
                self.fan_out(n, op, &mut stack);
            }
        }
        done
    }

    /// Shift the writer's window and return the delta ops (insert + any
    /// expirations). Public so shard-owning workers can ingest windows for
    /// their own writers; callers must keep per-writer submission order.
    pub fn window_ops(&self, wid: OverlayId, value: i64, ts: u64) -> Vec<DeltaOp> {
        let mut expired = Vec::new();
        let mut win = self.windows[wid.idx()]
            .as_ref()
            .expect("writer has a window")
            .lock();
        win.push(ts, value, &mut expired);
        drop(win);
        let mut ops = Vec::with_capacity(1 + expired.len());
        ops.push(DeltaOp::Insert(value));
        ops.extend(expired.into_iter().map(DeltaOp::Remove));
        ops
    }

    /// Queue-model entry point: ingest the write at the writer node only
    /// and return the micro-tasks for its push consumers.
    pub fn write_local(&self, v: NodeId, value: i64, ts: u64) -> Vec<(OverlayId, DeltaOp)> {
        let Some(wid) = self.overlay.writer(v) else {
            return Vec::new();
        };
        let ops = self.window_ops(wid, value, ts);
        let mut tasks = Vec::new();
        for op in ops {
            self.apply_at(wid, op);
            self.fan_out(wid, op, &mut tasks);
        }
        tasks
    }

    /// Queue-model micro-task: apply `op` at `n`, returning follow-on
    /// micro-tasks for `n`'s push consumers.
    pub fn apply_op(&self, n: OverlayId, op: DeltaOp, out: &mut Vec<(OverlayId, DeltaOp)>) {
        self.apply_at(n, op);
        self.fan_out(n, op, out);
    }

    #[inline]
    fn fan_out(&self, n: OverlayId, op: DeltaOp, out: &mut Vec<(OverlayId, DeltaOp)>) {
        for &(t, sign) in self.overlay.outputs(n) {
            if self.is_push(t) {
                out.push((t, op.signed(sign)));
            }
        }
    }

    /// Replay buffered migration deltas into a staged PAO (phase 2 of the
    /// two-phase migration): apply each op in arrival order to `pao`,
    /// which lives *outside* the store — it is the copy the rebalancer
    /// extracted from the old owner's slab in phase 1, about to be
    /// installed at the new owner via `relocate`. The observed-push
    /// counters are deliberately not touched: the old owner already
    /// recorded each of these ops when it applied them to the live slot,
    /// so re-recording would double-count §4.8 affinity evidence. Returns
    /// the number of ops replayed.
    pub fn replay_ops(&self, pao: &mut A::Partial, ops: impl IntoIterator<Item = DeltaOp>) -> u64 {
        let mut n = 0;
        for op in ops {
            op.apply(&self.agg, pao);
            n += 1;
        }
        n
    }

    /// Advance one writer's window to `ts` and return the expirations as
    /// `Remove` delta ops, *without* applying them. Public so shard-owning
    /// workers can expire the windows of their own writers and route the
    /// removals through their shard-local cascade — the caller-thread
    /// equivalent is [`advance_time`](Self::advance_time).
    pub fn expire_ops(&self, wid: OverlayId, ts: u64) -> Vec<DeltaOp> {
        let mut expired = Vec::new();
        self.windows[wid.idx()]
            .as_ref()
            .expect("writer has a window")
            .lock()
            .advance(ts, &mut expired);
        expired.into_iter().map(DeltaOp::Remove).collect()
    }

    /// Advance time to `ts` (time-based windows): expire stale values at
    /// every writer and propagate the removals. Returns PAO updates done.
    pub fn advance_time(&self, ts: u64) -> usize {
        let mut done = 0;
        let mut stack = Vec::new();
        for (wid, _) in self.overlay.writers() {
            for op in self.expire_ops(wid, ts) {
                self.apply_at(wid, op);
                done += 1;
                self.fan_out(wid, op, &mut stack);
                while let Some((n, op)) = stack.pop() {
                    self.apply_at(n, op);
                    done += 1;
                    self.fan_out(n, op, &mut stack);
                }
            }
        }
        done
    }

    /// Evaluate a read at data node `v` (uni-thread model). `None` if `v`
    /// has no reader in the overlay.
    pub fn read(&self, v: NodeId) -> Option<A::Output> {
        self.read_via(v, &StoreReader(&self.store))
    }

    /// Evaluate a read at data node `v`, resolving PAOs through an explicit
    /// [`PaoReader`]. This is the shard-executed read entry point: a shard
    /// worker hands a [`crate::store::ShardSnapshot`] of its own slab so
    /// push finalizes and the local portion of a pull subtree read with
    /// plain indexed access, while cross-shard pull fan-out falls through
    /// to the foreign slabs' read locks. Semantics (including the observed
    /// pull counters) are identical to [`read`](Self::read).
    pub fn read_via<Rd: PaoReader<A::Partial>>(&self, v: NodeId, pao: &Rd) -> Option<A::Output> {
        let rid = self.overlay.reader(v)?;
        self.pulled[rid.idx()].fetch_add(1, Ordering::Relaxed);
        if self.is_push(rid) {
            Some(pao.with_pao(rid.idx(), |p| self.agg.finalize(p)))
        } else {
            let p = self.eval_pull_via(rid, pao);
            Some(self.agg.finalize(&p))
        }
    }

    /// Recursively compute the PAO of a pull node by merging its upstream
    /// PAOs (§2.2.2's execution flow for pull nodes).
    fn eval_pull(&self, n: OverlayId) -> A::Partial {
        self.eval_pull_via(n, &StoreReader(&self.store))
    }

    /// [`eval_pull`](Self::eval_pull) over an explicit [`PaoReader`] (see
    /// [`read_via`](Self::read_via)).
    fn eval_pull_via<Rd: PaoReader<A::Partial>>(&self, n: OverlayId, pao: &Rd) -> A::Partial {
        let mut acc = self.agg.empty();
        for &(f, sign) in self.overlay.inputs(n) {
            self.pulled[f.idx()].fetch_add(1, Ordering::Relaxed);
            if self.is_push(f) {
                pao.with_pao(f.idx(), |p| match sign {
                    Sign::Pos => self.agg.merge(&mut acc, p),
                    Sign::Neg => self.agg.unmerge(&mut acc, p),
                });
            } else {
                let p = self.eval_pull_via(f, pao);
                match sign {
                    Sign::Pos => self.agg.merge(&mut acc, &p),
                    Sign::Neg => self.agg.unmerge(&mut acc, &p),
                }
            }
        }
        acc
    }

    /// Snapshot the current decisions.
    pub fn decisions(&self) -> Decisions {
        Decisions {
            of: self
                .push_flag
                .iter()
                .map(|f| {
                    if f.load(Ordering::Relaxed) {
                        Decision::Push
                    } else {
                        Decision::Pull
                    }
                })
                .collect(),
        }
    }

    /// Flip a node's decision at runtime (§4.8). A pull→push flip
    /// materializes the node's PAO from upstream; a push→pull flip clears
    /// it. The caller must respect the frontier constraint (use
    /// [`crate::AdaptiveEngine`] for a safe wrapper).
    pub fn set_decision(&self, n: OverlayId, push: bool) {
        let was = self.push_flag[n.idx()].swap(push, Ordering::SeqCst);
        if was == push {
            return;
        }
        if push {
            // Materialize: compute the PAO as a pull would, then install.
            let fresh = self.eval_pull(n);
            self.store.with_mut(n.idx(), |p| *p = fresh);
        } else {
            let empty = self.agg.empty();
            self.store.with_mut(n.idx(), |p| *p = empty);
        }
    }

    /// Observed push/pull frequencies since the last
    /// [`reset_observed`](Self::reset_observed): the inputs to §4.8
    /// adaptation. For pull nodes (which receive no pushes) the would-be
    /// push frequency is the sum of their inputs' observed activity.
    pub fn observed_frequencies(&self) -> Frequencies {
        let n = self.overlay.node_count();
        let mut fh = vec![0.0; n];
        let mut fl = vec![0.0; n];
        for id in self.overlay.ids() {
            fl[id.idx()] = self.pulled[id.idx()].load(Ordering::Relaxed) as f64;
            fh[id.idx()] = if self.is_push(id) {
                self.pushed[id.idx()].load(Ordering::Relaxed) as f64
            } else {
                self.overlay
                    .inputs(id)
                    .iter()
                    .map(|&(f, _)| self.pushed[f.idx()].load(Ordering::Relaxed) as f64)
                    .sum()
            };
        }
        Frequencies { fh, fl }
    }

    /// Per-node applied-op counts since the last
    /// [`reset_observed`](Self::reset_observed), indexed by overlay node:
    /// the raw §4.8 observables live shard rebalancing weighs its affinity
    /// view with (each applied op at `n` is re-emitted along every
    /// outgoing push edge of `n`).
    pub fn observed_push_counts(&self) -> Vec<u64> {
        self.pushed
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Per-node read/evaluation counts since the last
    /// [`reset_observed`](Self::reset_observed), indexed by overlay node —
    /// the `reads_served` observable. Together with
    /// [`observed_push_counts`](Self::observed_push_counts) this feeds the
    /// read-aware rebalance affinity view
    /// ([`eagr_overlay::PushEdgeView::observed_with_reads`]).
    pub fn observed_pull_counts(&self) -> Vec<u64> {
        self.pulled
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Reset the observation window.
    pub fn reset_observed(&self) {
        for c in &self.pushed {
            c.store(0, Ordering::Relaxed);
        }
        for c in &self.pulled {
            c.store(0, Ordering::Relaxed);
        }
    }

    /// Exponentially decay the observation window: every push/pull counter
    /// is scaled by `factor` (clamped to `[0, 1]`). Rebalancing uses this
    /// instead of a hard [`reset_observed`](Self::reset_observed) so the
    /// affinity view keeps a fading memory of older traffic — slow drift
    /// accumulates evidence across windows instead of re-deciding from a
    /// blank slate each epoch, which is what caused rebalance thrash.
    pub fn decay_observed(&self, factor: f64) {
        let factor = factor.clamp(0.0, 1.0);
        for c in self.pushed.iter().chain(self.pulled.iter()) {
            let v = c.load(Ordering::Relaxed);
            c.store((v as f64 * factor) as u64, Ordering::Relaxed);
        }
    }

    /// Total PAO updates applied so far (micro-task count).
    pub fn total_pushes(&self) -> u64 {
        self.pushed.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Snapshot every live node's runtime state — writer window buffers
    /// and PAO slots — for carrying across an engine rebuild (multi-query
    /// attach/detach re-instantiates the runtime over an extended overlay;
    /// ids are append-only stable, so state transfers by index).
    pub fn export_state(&self) -> EngineState<A::Partial> {
        let windows = self
            .windows
            .iter()
            .map(|w| w.as_ref().map(|m| m.lock().clone()))
            .collect();
        EngineState {
            windows,
            paos: self.export_paos(),
        }
    }

    /// [`export_state`](Self::export_state) for an engine about to be
    /// replaced: the window buffers are moved out (fresh empty ones stay
    /// behind) instead of cloned; PAOs are still cloned. Reads only look at
    /// PAOs, so a reader still holding this engine answers as before, but
    /// no write may reach it afterwards.
    pub fn take_state(&self) -> EngineState<A::Partial> {
        let windows = self
            .windows
            .iter()
            .map(|w| {
                w.as_ref().map(|m| {
                    let mut buf = m.lock();
                    let empty = WindowBuffer::new(buf.spec());
                    std::mem::replace(&mut *buf, empty)
                })
            })
            .collect();
        EngineState {
            windows,
            paos: self.export_paos(),
        }
    }

    fn export_paos(&self) -> Vec<Option<A::Partial>> {
        (0..self.overlay.node_count())
            .map(|i| {
                if self.overlay.is_retired(OverlayId(i as u32)) {
                    None
                } else {
                    Some(self.store.with_read(i, |p| p.clone()))
                }
            })
            .collect()
    }

    /// Install a previously exported snapshot, moving its contents into
    /// place. Slots the snapshot lacks (or that this engine has no window
    /// for — non-writers, retired nodes) are left at their initial state.
    /// The snapshot may be shorter than this engine's arena (an extension
    /// appended nodes); extra nodes keep their fresh state.
    pub fn install_state(&self, state: EngineState<A::Partial>) {
        for (idx, buf) in state.windows.into_iter().enumerate() {
            if let (Some(buf), Some(slot)) = (buf, self.windows.get(idx).and_then(Option::as_ref)) {
                *slot.lock() = buf;
            }
        }
        for (idx, pao) in state.paos.into_iter().enumerate() {
            if idx >= self.store.len() {
                break;
            }
            if let Some(pao) = pao {
                if !self.overlay.is_retired(OverlayId(idx as u32)) {
                    self.store.with_mut(idx, |p| *p = pao);
                }
            }
        }
    }

    /// Replace a writer's window buffer (attach-time backfill from the
    /// write history ring). No-op if `wid` has no window (not a live
    /// writer).
    pub fn install_window(&self, wid: OverlayId, buf: &WindowBuffer) {
        if let Some(slot) = self.windows.get(wid.idx()).and_then(Option::as_ref) {
            *slot.lock() = buf.clone();
        }
    }

    /// Clone one writer's window buffer (`None` if `wid` has no window) —
    /// the per-slot counterpart of [`export_state`](Self::export_state),
    /// used when migrating a single slot between shard hosts.
    pub fn export_window(&self, wid: OverlayId) -> Option<WindowBuffer> {
        self.windows
            .get(wid.idx())
            .and_then(Option::as_ref)
            .map(|slot| slot.lock().clone())
    }

    /// Rebuild a writer's PAO from its current window contents (after a
    /// backfill installed the window). The PAO of a push writer is exactly
    /// the fold of `Insert` over its in-window values.
    pub fn rebuild_writer_pao(&self, wid: OverlayId) {
        let Some(slot) = self.windows.get(wid.idx()).and_then(Option::as_ref) else {
            return;
        };
        let values: Vec<i64> = slot.lock().values().collect();
        let mut fresh = self.agg.empty();
        for v in values {
            self.agg.insert(&mut fresh, v);
        }
        self.store.with_mut(wid.idx(), |p| *p = fresh);
    }

    /// Materialize a non-writer push node's PAO from its upstream state
    /// (same computation a pull read would do). Attach materializes fresh
    /// and pull→push-upgraded nodes in topological order with this.
    pub fn materialize(&self, n: OverlayId) {
        let fresh = self.eval_pull(n);
        self.store.with_mut(n.idx(), |p| *p = fresh);
    }

    /// Seed a freshly built engine: install `carried` state, install each
    /// live backfilled writer's window, then rebuild every push PAO in
    /// `materialize` or backfilled, in topological order (writers before
    /// the partials and readers they feed). Returns the PAOs rebuilt.
    pub fn seed(
        &self,
        carried: Option<EngineState<A::Partial>>,
        backfill: &[(OverlayId, WindowBuffer)],
        materialize: &FastSet<OverlayId>,
    ) -> usize {
        if let Some(state) = carried {
            self.install_state(state);
        }
        let mut backfilled: FastSet<OverlayId> = FastSet::default();
        for (wid, buf) in backfill {
            if !self.overlay.is_retired(*wid) {
                self.install_window(*wid, buf);
                backfilled.insert(*wid);
            }
        }
        if materialize.is_empty() && backfilled.is_empty() {
            return 0;
        }
        let mut rebuilt = 0;
        for n in self.overlay.topo_order() {
            if self.overlay.is_retired(n) || !self.is_push(n) {
                continue;
            }
            if !materialize.contains(&n) && !backfilled.contains(&n) {
                continue;
            }
            if matches!(self.overlay.kind(n), OverlayKind::Writer(_)) {
                self.rebuild_writer_pao(n);
            } else {
                self.materialize(n);
            }
            rebuilt += 1;
        }
        rebuilt
    }
}

/// A by-index snapshot of an engine's mutable runtime state (window
/// buffers + PAOs), produced by [`EngineCore::export_state`] and consumed
/// by [`EngineCore::install_state`] on a freshly built engine over the
/// same (or an extended) overlay arena.
pub struct EngineState<P> {
    /// Per-slot window buffers (`None` for non-writers / retired nodes).
    pub windows: Vec<Option<WindowBuffer>>,
    /// Per-slot PAO clones (`None` for retired nodes).
    pub paos: Vec<Option<P>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use eagr_agg::Sum;
    use eagr_graph::{paper_example_graph, BipartiteGraph, Neighborhood};

    fn paper_core(decisions: fn(&Overlay) -> Decisions) -> EngineCore<Sum> {
        let ag = BipartiteGraph::build(&paper_example_graph(), &Neighborhood::In, |_| true);
        let ov = Arc::new(Overlay::direct_from_bipartite(&ag));
        let d = decisions(&ov);
        EngineCore::new(Sum, ov, &d, WindowSpec::Tuple(1))
    }

    /// Replay the paper's Fig 1 content streams; the final values are the
    /// `c = 1` window contents.
    fn replay_paper_streams(core: &EngineCore<Sum>) {
        // Streams (Fig 1a): a:[1,4] b:[3,7] c:[6,9] d:[8,4,3] e:[5,9,1]
        // f:[3,6,6] g:[5] — final values a=4 b=7 c=9 d=3 e=1 f=6 g=5.
        let streams: [(u32, &[i64]); 7] = [
            (0, &[1, 4]),
            (1, &[3, 7]),
            (2, &[6, 9]),
            (3, &[8, 4, 3]),
            (4, &[5, 9, 1]),
            (5, &[3, 6, 6]),
            (6, &[5]),
        ];
        let mut ts = 0;
        for (node, vals) in streams {
            for &v in vals {
                core.write(NodeId(node), v, ts);
                ts += 1;
            }
        }
    }

    #[test]
    fn paper_example_results_all_push() {
        let core = paper_core(Decisions::all_push);
        replay_paper_streams(&core);
        // Fig 1(b) read results: a=19 b=10 c=30 d=30 e=23 f=30 g=30.
        let want = [19, 10, 30, 30, 23, 30, 30];
        for (v, &w) in want.iter().enumerate() {
            assert_eq!(core.read(NodeId(v as u32)), Some(w), "reader {v}");
        }
    }

    #[test]
    fn paper_example_results_all_pull() {
        let core = paper_core(Decisions::all_pull);
        replay_paper_streams(&core);
        let want = [19, 10, 30, 30, 23, 30, 30];
        for (v, &w) in want.iter().enumerate() {
            assert_eq!(core.read(NodeId(v as u32)), Some(w), "reader {v}");
        }
    }

    #[test]
    fn window_expiry_propagates() {
        let core = paper_core(Decisions::all_push);
        // c=1 window: the second write replaces the first.
        core.write(NodeId(2), 6, 0);
        core.write(NodeId(2), 9, 1);
        // Reader a = sum over {c,d,e,f}; only c has written.
        assert_eq!(core.read(NodeId(0)), Some(9));
    }

    #[test]
    fn write_to_unconnected_writer_is_noop() {
        let core = paper_core(Decisions::all_push);
        // Node g writes but feeds nobody in this overlay... g feeds
        // every reader actually; use a node id with no writer instead.
        assert_eq!(core.write(NodeId(1000), 5, 0), 0);
    }

    #[test]
    fn read_without_reader_is_none() {
        let core = paper_core(Decisions::all_push);
        assert_eq!(core.read(NodeId(1000)), None);
    }

    #[test]
    fn decision_flip_materializes_state() {
        let core = paper_core(Decisions::all_pull);
        replay_paper_streams(&core);
        let rid = core.overlay().reader(NodeId(0)).unwrap();
        assert!(!core.is_push(rid));
        core.set_decision(rid, true);
        // The PAO must have been materialized: a push-side read gives the
        // same answer.
        assert_eq!(core.read(NodeId(0)), Some(19));
        // New writes keep it up to date (c: 9 → 11 ⇒ 19 + 2).
        core.write(NodeId(2), 11, 100);
        assert_eq!(core.read(NodeId(0)), Some(21));
        // Flip back: state cleared, pull recomputes identically.
        core.set_decision(rid, false);
        assert_eq!(core.read(NodeId(0)), Some(21));
    }

    #[test]
    fn observed_counters_track_activity() {
        let core = paper_core(Decisions::all_pull);
        replay_paper_streams(&core);
        for _ in 0..5 {
            core.read(NodeId(0));
        }
        let obs = core.observed_frequencies();
        let rid = core.overlay().reader(NodeId(0)).unwrap();
        assert_eq!(obs.fl[rid.idx()], 5.0);
        // Reader a's would-be push frequency = total ops at its 4 inputs
        // (writers c,d,e,f wrote 2+3+3+3 = 11 ops... each write is 1 insert
        // + possibly 1 expiry remove).
        assert!(obs.fh[rid.idx()] > 0.0);
        core.reset_observed();
        let obs2 = core.observed_frequencies();
        assert_eq!(obs2.fl[rid.idx()], 0.0);
    }

    #[test]
    fn decay_scales_counters_instead_of_clearing() {
        let core = paper_core(Decisions::all_pull);
        replay_paper_streams(&core);
        for _ in 0..8 {
            core.read(NodeId(0));
        }
        let rid = core.overlay().reader(NodeId(0)).unwrap();
        assert_eq!(core.observed_pull_counts()[rid.idx()], 8);
        core.decay_observed(0.5);
        // Half the window survives — the fading memory that keeps slow
        // drift visible across rebalance epochs.
        assert_eq!(core.observed_pull_counts()[rid.idx()], 4);
        // Out-of-range factors clamp: 2.0 acts like 1.0 (no growth)…
        core.decay_observed(2.0);
        assert_eq!(core.observed_pull_counts()[rid.idx()], 4);
        // …and 0.0 is the old reset behavior.
        core.decay_observed(0.0);
        assert_eq!(core.observed_pull_counts()[rid.idx()], 0);
    }

    #[test]
    fn replay_ops_applies_in_order_without_recording() {
        let core = paper_core(Decisions::all_push);
        let before = core.total_pushes();
        let mut pao = 10i64;
        let n = core.replay_ops(
            &mut pao,
            [DeltaOp::Insert(5), DeltaOp::Remove(3), DeltaOp::Insert(1)],
        );
        assert_eq!(n, 3);
        assert_eq!(pao, 13);
        // Replay must not re-bump the observed-push counters.
        assert_eq!(core.total_pushes(), before);
    }

    /// A core over the paper example under a planner-chosen decision set.
    fn planned_core<A: Aggregate>(agg: A, alg: eagr_flow::DecisionAlgorithm) -> EngineCore<A> {
        let ag = BipartiteGraph::build(&paper_example_graph(), &Neighborhood::In, |_| true);
        let p = eagr_flow::plan(
            Overlay::direct_from_bipartite(&ag),
            &eagr_flow::Rates::uniform(7, 1.0),
            &eagr_agg::CostModel::unit_sum(),
            &eagr_flow::PlannerConfig {
                algorithm: alg,
                split: false,
                writer_window: 1,
                push_amplification: 2.0,
            },
        );
        EngineCore::new(agg, Arc::new(p.overlay), &p.decisions, WindowSpec::Tuple(1))
    }

    #[test]
    fn sum_under_maxflow_decisions_matches_paper() {
        let core = planned_core(Sum, eagr_flow::DecisionAlgorithm::MaxFlow);
        replay_paper_streams(&core);
        let want = [19, 10, 30, 30, 23, 30, 30];
        for (v, &w) in want.iter().enumerate() {
            assert_eq!(core.read(NodeId(v as u32)), Some(w), "reader {v}");
        }
    }

    #[test]
    fn max_under_tuple_window_keeps_latest() {
        let core = planned_core(eagr_agg::Max, eagr_flow::DecisionAlgorithm::MaxFlow);
        core.write(NodeId(2), 6, 0);
        core.write(NodeId(3), 8, 1);
        core.write(NodeId(3), 4, 2); // replaces 8 under c=1 window
        assert_eq!(core.read(NodeId(0)), Some(Some(6)));
    }

    #[test]
    fn topk_under_greedy_decisions() {
        let core = planned_core(eagr_agg::TopK::new(2), eagr_flow::DecisionAlgorithm::Greedy);
        // Writers c,d,e,f feed reader a; values act as "topics".
        core.write(NodeId(2), 42, 0);
        core.write(NodeId(3), 42, 1);
        core.write(NodeId(4), 7, 2);
        core.write(NodeId(5), 42, 3);
        assert_eq!(core.read(NodeId(0)), Some(vec![(42, 3), (7, 1)]));
    }

    #[test]
    fn time_window_advance() {
        let ag = BipartiteGraph::build(&paper_example_graph(), &Neighborhood::In, |_| true);
        let ov = Arc::new(Overlay::direct_from_bipartite(&ag));
        let d = Decisions::all_push(&ov);
        let core = EngineCore::new(Sum, ov, &d, WindowSpec::Time(10));
        core.write(NodeId(2), 5, 0);
        core.write(NodeId(3), 7, 5);
        assert_eq!(core.read(NodeId(0)), Some(12));
        // t = 11: the t=0 write expires; t=5 survives (cutoff 1).
        core.advance_time(11);
        assert_eq!(core.read(NodeId(0)), Some(7));
        core.advance_time(100);
        assert_eq!(core.read(NodeId(0)), Some(0));
    }
}
