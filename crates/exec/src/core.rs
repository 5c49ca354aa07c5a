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
//! §2.2.2's write flow runs as a level-order batch
//! ([`EngineCore::write_batch`]; a point write is the batch of one): each
//! write shifts its writer's window into `Insert`/`Remove` delta ops, the
//! ops are netted per writer, and the net deltas are propagated through
//! push-annotated consumers in overlay-level order (negative edges flip
//! the delta, §2.2.1), so every dirty push PAO is updated once per batch
//! with one merged delta — the paper's `UPDATE(PAO, PAO_old, PAO_new)`
//! applied to a whole batch. The queue model
//! ([`write_local`](EngineCore::write_local) /
//! [`apply_op`](EngineCore::apply_op)) still moves single ops. A read
//! finalizes a push reader's PAO directly or recursively merges upstream
//! PAOs for pull readers. Reads may observe slightly stale state under
//! concurrency — the paper explicitly accepts this ("we ignore the
//! potential for such inconsistencies").

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
    /// PAO visits at each node (observed push activity): one per op on
    /// the queue-model path, one per batch on the batch kernel.
    pushed: Vec<AtomicU64>,
    /// Times each node was read/evaluated (observed pull activity).
    pulled: Vec<AtomicU64>,
    /// The batch kernel's working set, built by the first
    /// [`write_batch`](Self::write_batch) or
    /// [`advance_time`](Self::advance_time). Cores that only serve the
    /// queue model or shard workers never build it.
    kernel: Mutex<Option<Kernel<A::Partial>>>,
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
            kernel: Mutex::new(None),
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

    /// Record one PAO visit at `n` in the observed-push counters. Callers
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

    /// Process a write at data node `v` fully (uni-thread model): the
    /// batch of one of [`write_batch`](Self::write_batch). Returns the
    /// number of PAO updates performed.
    pub fn write(&self, v: NodeId, value: i64, ts: u64) -> usize {
        self.write_batch(&[(v, value, ts)])
    }

    /// Process a run of `(node, value, ts)` writes as one batch and return
    /// the number of PAO updates performed. Writes to nodes without a
    /// writer are dropped. The final state equals applying the writes one
    /// by one, in order; only the state between them is never built:
    ///
    /// 1. each writer's window is shifted in stream order, so the window
    ///    buffers see every value;
    /// 2. the ops those shifts emit are netted per writer;
    /// 3. the pending deltas are propagated in overlay-level order, so each
    ///    dirty push PAO is visited once: one store access, one
    ///    [`record_push`](Self::record_push), and one fan-out of its merged
    ///    delta into its push consumers, sign-flipped on negative edges.
    pub fn write_batch(&self, writes: &[(NodeId, i64, u64)]) -> usize {
        let mut guard = self.kernel.lock();
        let k = guard.get_or_insert_with(|| Kernel::new(&self.agg, &self.overlay));
        for &(v, value, ts) in writes {
            let Some(wid) = self.overlay.writer(v) else {
                continue; // writer feeds no reader: drop the update
            };
            k.ops.clear();
            self.window_ops(wid, value, ts, &mut k.ops);
            k.load(&self.agg, wid);
        }
        self.propagate(k)
    }

    /// Shift the writer's window and append the delta ops (the insert,
    /// then any expirations) to `out`. Public so shard-owning workers can
    /// ingest windows for their own writers; callers must keep per-writer
    /// submission order.
    pub fn window_ops(&self, wid: OverlayId, value: i64, ts: u64, out: &mut Vec<DeltaOp>) {
        out.push(DeltaOp::Insert(value));
        self.windows[wid.idx()]
            .as_ref()
            .expect("writer has a window")
            .lock()
            .push(ts, value, &mut Removes(out));
    }

    /// Queue-model entry point: ingest the write at the writer node only
    /// and return the micro-tasks for its push consumers.
    pub fn write_local(&self, v: NodeId, value: i64, ts: u64) -> Vec<(OverlayId, DeltaOp)> {
        let Some(wid) = self.overlay.writer(v) else {
            return Vec::new();
        };
        let mut ops = Vec::with_capacity(2);
        self.window_ops(wid, value, ts, &mut ops);
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

    /// Advance one writer's window to `ts` and append the expirations to
    /// `out` as `Remove` delta ops, *without* applying them. Public so
    /// shard-owning workers can expire the windows of their own writers
    /// and route the removals through their shard-local cascade — the
    /// caller-thread equivalent is [`advance_time`](Self::advance_time).
    pub fn expire_ops(&self, wid: OverlayId, ts: u64, out: &mut Vec<DeltaOp>) {
        self.windows[wid.idx()]
            .as_ref()
            .expect("writer has a window")
            .lock()
            .advance(ts, &mut Removes(out));
    }

    /// Advance time to `ts` (time-based windows): expire stale values at
    /// every writer and propagate the removals as one batch (see
    /// [`write_batch`](Self::write_batch)). Returns PAO updates done.
    pub fn advance_time(&self, ts: u64) -> usize {
        let mut guard = self.kernel.lock();
        let k = guard.get_or_insert_with(|| Kernel::new(&self.agg, &self.overlay));
        for (wid, _) in self.overlay.writers() {
            k.ops.clear();
            self.expire_ops(wid, ts, &mut k.ops);
            k.load(&self.agg, wid);
        }
        self.propagate(k)
    }

    /// Step 3 of [`write_batch`](Self::write_batch) for whichever delta
    /// shape the aggregate uses.
    fn propagate(&self, k: &mut Kernel<A::Partial>) -> usize {
        match &mut k.plane {
            Plane::Net(plane) => self.drain(plane, &mut k.sched),
            Plane::Ops(plane) => self.drain(plane, &mut k.sched),
        }
    }

    /// The level-order loop: visit every queued node once, level by
    /// level, apply its consolidated delta and merge that delta into each
    /// push consumer (whose level is higher, so it is visited later).
    fn drain<D: DeltaPlane<A>>(&self, plane: &mut D, s: &mut Schedule) -> usize {
        let mut done = 0;
        for level in 0..s.dirty.len() {
            let mut nodes = std::mem::take(&mut s.dirty[level]);
            for &n in &nodes {
                s.queued[n.idx()] = false;
                let Some(d) = plane.take(&self.agg, n.idx()) else {
                    continue; // the node's changes cancelled out
                };
                self.store.with_mut(n.idx(), |p| D::apply(&self.agg, &d, p));
                self.record_push(n);
                done += 1;
                for &(t, sign) in self.overlay.outputs(n) {
                    if self.is_push(t) {
                        plane.add(&self.agg, t.idx(), &d, sign);
                        s.queue(t);
                    }
                }
                plane.recycle(n.idx(), d);
            }
            nodes.clear();
            s.dirty[level] = nodes;
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
    ///
    /// Push frequencies count PAO visits, not ops: the batch kernel visits
    /// a dirty PAO once per batch however many ops its merged delta holds,
    /// while the queue model visits once per op.
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

    /// Per-node PAO-visit counts since the last
    /// [`reset_observed`](Self::reset_observed), indexed by overlay node:
    /// the raw §4.8 observables live shard rebalancing weighs its affinity
    /// view with (each visit at `n` is re-emitted along every outgoing
    /// push edge of `n`). A visit is one op on the shard and queue-model
    /// paths and one merged delta on the batch kernel.
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

    /// Total PAO visits so far (see
    /// [`observed_frequencies`](Self::observed_frequencies)).
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

    /// Seed a freshly built or freshly patched engine: install `carried`
    /// state, install each live backfilled writer's window, then rebuild
    /// every push PAO in `materialize` or backfilled, inputs before the
    /// nodes that read them. Only that set is ordered, by a walk over the
    /// members' own inputs, so the cost is the set's fan-in, not the
    /// overlay's size. Returns the PAOs rebuilt.
    pub fn seed(
        &self,
        carried: Option<EngineState<A::Partial>>,
        backfill: &[(OverlayId, WindowBuffer)],
        materialize: &FastSet<OverlayId>,
    ) -> usize {
        if let Some(state) = carried {
            self.install_state(state);
        }
        let mut rebuild: FastSet<OverlayId> = materialize.clone();
        for (wid, buf) in backfill {
            if !self.overlay.is_retired(*wid) {
                self.install_window(*wid, buf);
                rebuild.insert(*wid);
            }
        }
        rebuild.retain(|&n| !self.overlay.is_retired(n) && self.is_push(n));
        let (order, _) = rebuild_order(&self.overlay, &rebuild, |n| self.is_push(n));
        for &n in &order {
            if matches!(self.overlay.kind(n), OverlayKind::Writer(_)) {
                self.rebuild_writer_pao(n);
            } else {
                self.materialize(n);
            }
        }
        order.len()
    }

    /// Mutable access to the PAO store, for growing it in place during a
    /// topology patch ([`extend_topology`](Self::extend_topology)).
    pub fn store_mut(&mut self) -> &mut S {
        &mut self.store
    }

    /// Patch this core in place onto `overlay`, an append-only extension
    /// of the current one (retirements tombstone in place, ids never
    /// renumber), and return the overlay it replaces:
    ///
    /// * every push flag is set from `decisions`;
    /// * fresh ids get a window (live writers only) and zeroed observed
    ///   counters;
    /// * writers the new overlay retires drop their windows;
    /// * the batch kernel is discarded and built again on the next batch.
    ///
    /// The PAO store is not touched: the caller grows it for the fresh ids
    /// ([`store_mut`](Self::store_mut)) in whatever placement its backend
    /// uses, then rebuilds stale PAOs with [`seed`](Self::seed).
    ///
    /// # Panics
    /// Panics if `overlay` has fewer ids than the current overlay or
    /// `decisions` does not cover it.
    pub fn extend_topology(
        &mut self,
        overlay: Arc<Overlay>,
        decisions: &Decisions,
        window: WindowSpec,
    ) -> Arc<Overlay> {
        let old_n = self.overlay.node_count();
        let n = overlay.node_count();
        assert!(n >= old_n, "overlay ids are append-only");
        assert_eq!(decisions.of.len(), n, "decisions must cover every node");
        for (flag, &d) in self.push_flag.iter_mut().zip(&decisions.of) {
            *flag.get_mut() = d == Decision::Push;
        }
        for (idx, slot) in self.windows.iter_mut().enumerate() {
            if slot.is_some() && overlay.is_retired(OverlayId(idx as u32)) {
                *slot = None;
            }
        }
        for idx in old_n..n {
            let id = OverlayId(idx as u32);
            self.push_flag
                .push(AtomicBool::new(decisions.of[idx] == Decision::Push));
            let writer =
                !overlay.is_retired(id) && matches!(overlay.kind(id), OverlayKind::Writer(_));
            self.windows
                .push(writer.then(|| Mutex::new(WindowBuffer::new(window))));
            self.pushed.push(AtomicU64::new(0));
            self.pulled.push(AtomicU64::new(0));
        }
        *self.kernel.get_mut() = None;
        std::mem::replace(&mut self.overlay, overlay)
    }
}

/// Order `set` for rebuilding: every member comes after the members its
/// rebuild reads (its inputs, and through pull inputs the members those
/// evaluate from). A depth-first walk over inputs that starts only at
/// members and stops at push nodes outside the set, so it never looks at
/// the rest of the overlay. Returns the order and the input edges walked;
/// under valid decisions (a push node's inputs are push) that count is at
/// most the members' total fan-in.
fn rebuild_order(
    overlay: &Overlay,
    set: &FastSet<OverlayId>,
    is_push: impl Fn(OverlayId) -> bool,
) -> (Vec<OverlayId>, usize) {
    let mut roots: Vec<OverlayId> = set.iter().copied().collect();
    roots.sort_unstable();
    let mut order = Vec::with_capacity(roots.len());
    let mut seen: FastSet<OverlayId> = FastSet::default();
    let mut walked = 0;
    let mut stack: Vec<(OverlayId, usize)> = Vec::new();
    for root in roots {
        if !seen.insert(root) {
            continue;
        }
        stack.push((root, 0));
        while let Some(top) = stack.last_mut() {
            let (n, next) = *top;
            if let Some(&(f, _)) = overlay.inputs(n).get(next) {
                top.1 += 1;
                walked += 1;
                if (set.contains(&f) || !is_push(f)) && seen.insert(f) {
                    stack.push((f, 0));
                }
            } else {
                stack.pop();
                if set.contains(&n) {
                    order.push(n);
                }
            }
        }
    }
    (order, walked)
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

/// Adapts an ops buffer to the window buffers' expiry sink: every expired
/// value becomes a `Remove`.
struct Removes<'a>(&'a mut Vec<DeltaOp>);

impl Extend<i64> for Removes<'_> {
    fn extend<I: IntoIterator<Item = i64>>(&mut self, iter: I) {
        self.0.extend(iter.into_iter().map(DeltaOp::Remove));
    }
}

/// The batch kernel's working set: built once per core, left clean (no
/// node queued, every pending delta empty) between batches.
struct Kernel<P> {
    sched: Schedule,
    plane: Plane<P>,
    /// Window-shift output of the writer being loaded.
    ops: Vec<DeltaOp>,
}

impl<P> Kernel<P> {
    fn new<A: Aggregate<Partial = P>>(agg: &A, overlay: &Overlay) -> Self {
        let n = overlay.node_count();
        let plane = if agg.props().subtractable {
            Plane::Net(NetPlane {
                slots: (0..n).map(|_| (agg.empty(), agg.empty())).collect(),
            })
        } else {
            Plane::Ops(OpsPlane {
                slots: (0..n).map(|_| Vec::new()).collect(),
            })
        };
        Self {
            sched: Schedule::new(overlay),
            plane,
            ops: Vec::with_capacity(4),
        }
    }

    /// Steps 1–2 for one writer: net the ops in `self.ops` into its
    /// pending delta and queue it.
    fn load<A: Aggregate<Partial = P>>(&mut self, agg: &A, wid: OverlayId) {
        if self.ops.is_empty() {
            return;
        }
        match &mut self.plane {
            Plane::Net(plane) => plane.add_ops(agg, wid.idx(), &self.ops),
            Plane::Ops(plane) => plane.add_ops(agg, wid.idx(), &self.ops),
        }
        self.sched.queue(wid);
    }
}

/// Which nodes a batch has dirtied, bucketed by level.
struct Schedule {
    /// Longest path from a writer to each node. Every edge climbs at least
    /// one level, so a node's inputs are all visited before it.
    level: Vec<u32>,
    /// Whether a node is in `dirty` this batch.
    queued: Vec<bool>,
    /// Queued nodes per level.
    dirty: Vec<Vec<OverlayId>>,
}

impl Schedule {
    fn new(overlay: &Overlay) -> Self {
        let n = overlay.node_count();
        let mut level = vec![0u32; n];
        for u in overlay.topo_order() {
            for &(t, _) in overlay.outputs(u) {
                level[t.idx()] = level[t.idx()].max(level[u.idx()] + 1);
            }
        }
        let depth = level.iter().max().map_or(0, |&l| l as usize + 1);
        Self {
            level,
            queued: vec![false; n],
            dirty: vec![Vec::new(); depth],
        }
    }

    #[inline]
    fn queue(&mut self, n: OverlayId) {
        if !self.queued[n.idx()] {
            self.queued[n.idx()] = true;
            self.dirty[self.level[n.idx()] as usize].push(n);
        }
    }
}

/// Per-node pending deltas of one batch, in the aggregate's shape. An op
/// list is exact for every aggregate, but it grows with the batch and is
/// sorted at every visit; a partial pair stays one partial per side, so
/// the aggregates that can `unmerge` use it.
enum Plane<P> {
    /// Subtractable aggregates.
    Net(NetPlane<P>),
    /// Everything else.
    Ops(OpsPlane),
}

/// What the level-order loop needs of a pending-delta representation.
trait DeltaPlane<A: Aggregate> {
    /// One node's delta, taken out of the plane while it is applied and
    /// fanned out.
    type Delta;
    /// Add writer `n`'s window ops to its delta.
    fn add_ops(&mut self, agg: &A, n: usize, ops: &[DeltaOp]);
    /// Take node `n`'s consolidated delta; `None` if it nets to nothing.
    fn take(&mut self, agg: &A, n: usize) -> Option<Self::Delta>;
    /// Apply a delta to a PAO.
    fn apply(agg: &A, d: &Self::Delta, p: &mut A::Partial);
    /// Add `d`, crossing an edge of sign `sign`, to node `n`'s delta.
    fn add(&mut self, agg: &A, n: usize, d: &Self::Delta, sign: Sign);
    /// Return a taken delta's storage to node `n`'s (now empty) slot.
    fn recycle(&mut self, n: usize, d: Self::Delta);
}

/// Subtractable aggregates: a `(pos, neg)` pair of partials per node,
/// built with `insert` and combined with `merge`. Applying it merges `pos`
/// before unmerging `neg`, so no intermediate multiplicity goes negative.
struct NetPlane<P> {
    slots: Vec<(P, P)>,
}

impl<A: Aggregate> DeltaPlane<A> for NetPlane<A::Partial> {
    type Delta = (A::Partial, A::Partial);

    #[inline]
    fn add_ops(&mut self, agg: &A, n: usize, ops: &[DeltaOp]) {
        let (pos, neg) = &mut self.slots[n];
        for &op in ops {
            match op {
                DeltaOp::Insert(v) => agg.insert(pos, v),
                DeltaOp::Remove(v) => agg.insert(neg, v),
            }
        }
    }

    #[inline]
    fn take(&mut self, agg: &A, n: usize) -> Option<Self::Delta> {
        Some(std::mem::replace(
            &mut self.slots[n],
            (agg.empty(), agg.empty()),
        ))
    }

    #[inline]
    fn apply(agg: &A, (pos, neg): &Self::Delta, p: &mut A::Partial) {
        agg.merge(p, pos);
        agg.unmerge(p, neg);
    }

    #[inline]
    fn add(&mut self, agg: &A, n: usize, (pos, neg): &Self::Delta, sign: Sign) {
        let slot = &mut self.slots[n];
        let (into_pos, into_neg) = match sign {
            Sign::Pos => (&mut slot.0, &mut slot.1),
            Sign::Neg => (&mut slot.1, &mut slot.0),
        };
        agg.merge(into_pos, pos);
        agg.merge(into_neg, neg);
    }

    #[inline]
    fn recycle(&mut self, _n: usize, _d: Self::Delta) {}
}

/// Other aggregates: a `(value, multiplicity change)` list per node.
/// Taking it consolidates it — sorted by value, changes summed, zeros
/// dropped — so `Insert(x)`/`Remove(x)` pairs cancel; applying it inserts
/// before it removes.
struct OpsPlane {
    slots: Vec<Vec<(i64, i64)>>,
}

impl<A: Aggregate> DeltaPlane<A> for OpsPlane {
    type Delta = Vec<(i64, i64)>;

    #[inline]
    fn add_ops(&mut self, _agg: &A, n: usize, ops: &[DeltaOp]) {
        self.slots[n].extend(ops.iter().map(|&op| match op {
            DeltaOp::Insert(v) => (v, 1),
            DeltaOp::Remove(v) => (v, -1),
        }));
    }

    fn take(&mut self, _agg: &A, n: usize) -> Option<Self::Delta> {
        let mut d = std::mem::take(&mut self.slots[n]);
        d.sort_unstable_by_key(|&(v, _)| v);
        d.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 += later.1;
            }
            same
        });
        d.retain(|&(_, c)| c != 0);
        if d.is_empty() {
            self.slots[n] = d;
            None
        } else {
            Some(d)
        }
    }

    fn apply(agg: &A, d: &Self::Delta, p: &mut A::Partial) {
        for &(v, c) in d.iter().filter(|&&(_, c)| c > 0) {
            for _ in 0..c {
                agg.insert(p, v);
            }
        }
        for &(v, c) in d.iter().filter(|&&(_, c)| c < 0) {
            for _ in 0..-c {
                agg.remove(p, v);
            }
        }
    }

    fn add(&mut self, _agg: &A, n: usize, d: &Self::Delta, sign: Sign) {
        let flip = if sign.is_negative() { -1 } else { 1 };
        self.slots[n].extend(d.iter().map(|&(v, c)| (v, c * flip)));
    }

    fn recycle(&mut self, n: usize, mut d: Self::Delta) {
        d.clear();
        self.slots[n] = d;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eagr_agg::Sum;
    use eagr_graph::{paper_example_graph, BipartiteGraph, Neighborhood};
    use eagr_util::FastMap;

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
    fn batch_visits_each_dirty_pao_once() {
        let core = paper_core(Decisions::all_push);
        let wid = core.overlay().writer(NodeId(2)).unwrap();
        let readers = core.overlay().outputs(wid).len();
        // Three writes by one writer: one visit at the writer and one at
        // each reader it feeds, not one per op.
        let writes = [(NodeId(2), 6, 0), (NodeId(2), 9, 1), (NodeId(2), 4, 2)];
        assert_eq!(core.write_batch(&writes), 1 + readers);
        assert_eq!(core.total_pushes(), (1 + readers) as u64);
        assert_eq!(core.read(NodeId(0)), Some(4));
    }

    #[test]
    fn cancelled_ops_skip_the_cascade() {
        let ag = BipartiteGraph::build(&paper_example_graph(), &Neighborhood::In, |_| true);
        let ov = Arc::new(Overlay::direct_from_bipartite(&ag));
        let d = Decisions::all_push(&ov);
        let core = EngineCore::new(eagr_agg::Max, ov, &d, WindowSpec::Tuple(1));
        core.write(NodeId(2), 6, 0);
        // Under a one-tuple window, rewriting the same value is
        // `Insert(6)` + `Remove(6)`: the op list nets to nothing.
        assert_eq!(core.write(NodeId(2), 6, 1), 0);
        assert_eq!(core.read(NodeId(0)), Some(Some(6)));
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

    #[test]
    fn rebuild_order_walks_only_the_rebuilt_set() {
        // A VNM overlay over a 400-node graph; rebuild a handful of nodes
        // deep in it. The ordering must respect every input edge inside
        // the set and look at no more than the set's own fan-in.
        let g = eagr_gen::social_graph(400, 4, 3);
        let ag = BipartiteGraph::build(&g, &Neighborhood::In, |_| true);
        let (ov, _) = eagr_overlay::build_vnm(
            &ag,
            &eagr_overlay::VnmConfig::vnma(eagr_agg::Aggregate::props(&Sum)),
        );
        let partials: Vec<OverlayId> = ov
            .ids()
            .filter(|&n| matches!(ov.kind(n), OverlayKind::Partial))
            .collect();
        assert!(!partials.is_empty(), "VNM shares some inputs");
        // Partials, the readers they feed and a few writers: chains of
        // members several levels deep.
        let mut set: FastSet<OverlayId> = FastSet::default();
        for &p in partials.iter().take(5) {
            set.insert(p);
            set.extend(ov.outputs(p).iter().map(|&(t, _)| t));
            set.extend(ov.inputs(p).iter().take(2).map(|&(f, _)| f));
        }
        let (order, walked) = rebuild_order(&ov, &set, |_| true);
        let fan_in: usize = set.iter().map(|&n| ov.fan_in(n)).sum();
        assert!(walked <= fan_in, "walked {walked} > fan-in {fan_in}");
        assert!(walked < ov.edge_count() / 4, "walk stays local");
        assert_eq!(order.len(), set.len());
        let pos: FastMap<OverlayId, usize> =
            order.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        for &n in &order {
            for &(f, _) in ov.inputs(n) {
                if let Some(&pf) = pos.get(&f) {
                    assert!(pf < pos[&n], "{f:?} feeds {n:?} but comes later");
                }
            }
        }
        // An empty set walks nothing.
        assert_eq!(
            rebuild_order(&ov, &FastSet::default(), |_| true),
            (Vec::new(), 0)
        );
    }
}
