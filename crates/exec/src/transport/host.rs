//! The shard-host side of the process transport: the event loop behind
//! the `eagr-shard-host` binary.
//!
//! A host is one OS process owning one shard. It connects back to the
//! coordinator's Unix socket (path in `argv[1]`), reads the [`InitHeader`]
//! and [`WirePlan`] handshake frames, builds a local
//! [`EngineCore`]`<A, ShardedStore>` whose slab layout mirrors the
//! coordinator's (full overlay length; only this shard's slots ever hold
//! live state), then acknowledges with [`HostMsg::Ready`] and enters a
//! strictly sequential frame loop.
//!
//! The loop mirrors the in-process `ShardWorker` exactly: data-plane
//! messages (`Writes`/`Deltas`/`Reads`/`Expire`) apply the delta cascade
//! against the local slab, accumulate cross-shard deltas per destination,
//! then write every [`HostMsg::Fwd`] frame **before** the closing
//! [`HostMsg::Applied`] — the FIFO ordering the coordinator's epoch
//! accounting depends on (see the [`super::codec`] docs). State-plane
//! requests (fetch/install/map-set/counts/swap/…) answer synchronously
//! with their `req_id` echoed.
//!
//! Being single-threaded, a host needs none of the worker's backpressure
//! self-servicing: its socket writes land in the coordinator's unbounded
//! relay queues, so they cannot deadlock against an inbound frame.

use super::codec::{
    host_msg_bytes, wire_msg_from, HostMsg, InitHeader, WireMsg, WirePlan, WireSlot,
};
use crate::core::{EngineCore, EngineState};
use crate::store::{PaoReader, ShardedStore};
use eagr_agg::{Aggregate, Avg, Count, DeltaOp, Distinct, Max, Min, Sum, WindowSpec, WireHooks};
use eagr_graph::{Partition, PartitionStrategy, ShardId};
use eagr_overlay::OverlayId;
use eagr_util::wire::{read_frame, write_frame, Wire};
use std::io::Write as _;
use std::os::unix::net::UnixStream;
use std::sync::Arc;

/// Entry point for the `eagr-shard-host` binary: connect to the
/// coordinator socket named by the first argument, serve the shard until
/// [`WireMsg::Stop`] or coordinator disconnect, and return the process
/// exit code.
pub fn host_main() -> i32 {
    let Some(path) = std::env::args_os().nth(1) else {
        eprintln!("usage: eagr-shard-host <coordinator socket path>");
        return 2;
    };
    match serve(std::path::Path::new(&path)) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("eagr-shard-host: {e}");
            1
        }
    }
}

fn serve(path: &std::path::Path) -> Result<(), String> {
    let mut stream =
        UnixStream::connect(path).map_err(|e| format!("connect {}: {e}", path.display()))?;
    let header = read_handshake_frame(&mut stream, "InitHeader")?;
    let header = InitHeader::from_wire(&header).map_err(|e| format!("bad InitHeader: {e}"))?;
    let plan = read_handshake_frame(&mut stream, "WirePlan")?;
    // Monomorphic dispatch: the aggregate travels by `WireHooks::name`, so
    // each supported builtin gets its own instantiation of `run`. TopK has
    // no wire hooks and therefore no process-transport support.
    match header.aggregate.as_str() {
        "SUM" => run(stream, &header, &plan, Sum),
        "COUNT" => run(stream, &header, &plan, Count),
        "AVG" => run(stream, &header, &plan, Avg),
        "MAX" => run(stream, &header, &plan, Max),
        "MIN" => run(stream, &header, &plan, Min),
        "DISTINCT" => run(stream, &header, &plan, Distinct),
        other => Err(format!("unsupported aggregate {other:?} (no host loop)")),
    }
}

fn read_handshake_frame(stream: &mut UnixStream, what: &str) -> Result<Vec<u8>, String> {
    read_frame(stream)
        .map_err(|e| format!("reading {what}: {e}"))?
        .ok_or_else(|| format!("coordinator closed the socket before {what}"))
}

/// The monomorphic host loop for one aggregate type.
fn run<A: Aggregate + Clone>(
    mut stream: UnixStream,
    header: &InitHeader,
    plan_payload: &[u8],
    agg: A,
) -> Result<(), String> {
    let hooks = agg
        .wire_hooks()
        .ok_or_else(|| format!("aggregate {} lost its wire hooks", header.aggregate))?;
    let plan = WirePlan::from_wire(plan_payload).map_err(|e| format!("bad WirePlan: {e}"))?;
    let mut worker = HostWorker::build(
        ShardId(header.shard),
        header.shards as usize,
        header.window,
        agg,
        hooks,
        plan,
        None,
    );
    worker
        .write(&mut stream, &HostMsg::Ready)
        .map_err(|e| format!("handshake ack: {e}"))?;
    let mut stack: Vec<(OverlayId, DeltaOp)> = Vec::with_capacity(32);
    let mut outbox: Vec<Vec<(OverlayId, DeltaOp)>> = vec![Vec::new(); worker.shards];
    // Window-shift output, reused across writes.
    let mut ops: Vec<DeltaOp> = Vec::with_capacity(4);
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(Some(p)) => p,
            // Coordinator gone (crashed or dropped without Stop): exit
            // quietly rather than linger as an orphan.
            Ok(None) => return Ok(()),
            Err(e) => return Err(format!("socket read: {e}")),
        };
        let msg =
            wire_msg_from::<A>(&payload, &worker.hooks).map_err(|e| format!("bad frame: {e}"))?;
        if !worker
            .handle(&mut stream, msg, &mut stack, &mut outbox, &mut ops)
            .map_err(|e| format!("socket write: {e}"))?
        {
            return Ok(());
        }
    }
}

/// Single-threaded per-shard engine state inside a host process.
struct HostWorker<A: Aggregate> {
    shard: ShardId,
    shards: usize,
    window: WindowSpec,
    hooks: WireHooks<A>,
    /// Template for rebuilding the core on [`WireMsg::Swap`].
    agg: A,
    core: EngineCore<A, ShardedStore<A::Partial>>,
    /// Local copy of the node→shard map; updated by [`WireMsg::MapSet`]
    /// and replaced wholesale by [`WireMsg::Swap`].
    partition: Partition,
    /// Writers this shard owns (window-expiration targets under
    /// [`WireMsg::Expire`]); recomputed whenever the map changes.
    writers: Vec<OverlayId>,
}

impl<A: Aggregate + Clone> HostWorker<A> {
    /// Build (or on swap, rebuild) the local engine from a plan, then
    /// seed it with `state` if given.
    fn build(
        shard: ShardId,
        shards: usize,
        window: WindowSpec,
        agg: A,
        hooks: WireHooks<A>,
        plan: WirePlan,
        state: Option<EngineState<A::Partial>>,
    ) -> Self {
        let partition = Partition {
            of: plan.map.iter().map(|&s| ShardId(s)).collect(),
            shards,
            strategy: PartitionStrategy::Hash,
        };
        let overlay = Arc::new(plan.overlay);
        let store = ShardedStore::new(&partition, || agg.empty());
        let core = EngineCore::with_store(
            agg.clone(),
            Arc::clone(&overlay),
            &plan.decisions,
            window,
            store,
        );
        if let Some(state) = state {
            core.install_state(state);
        }
        // Tombstone retired slots exactly like the coordinator's rebuild
        // path, so compaction and orphan counts agree across transports.
        for idx in 0..overlay.node_count() {
            if overlay.is_retired(OverlayId(idx as u32)) {
                core.store().retire_slot(idx);
            }
        }
        let mut worker = Self {
            shard,
            shards,
            window,
            hooks,
            agg,
            core,
            partition,
            writers: Vec::new(),
        };
        worker.recompute_writers();
        worker
    }

    fn recompute_writers(&mut self) {
        self.writers = self
            .core
            .overlay()
            .writers()
            .map(|(wid, _)| wid)
            .filter(|wid| self.partition.shard_of(wid.idx()) == self.shard)
            .collect();
    }

    fn write(&self, stream: &mut UnixStream, msg: &HostMsg<A>) -> std::io::Result<()> {
        write_frame(stream, &host_msg_bytes(msg, &self.hooks))?;
        stream.flush()
    }

    /// Handle one frame; `Ok(false)` means [`WireMsg::Stop`].
    fn handle(
        &mut self,
        stream: &mut UnixStream,
        msg: WireMsg<A>,
        stack: &mut Vec<(OverlayId, DeltaOp)>,
        outbox: &mut [Vec<(OverlayId, DeltaOp)>],
        ops: &mut Vec<DeltaOp>,
    ) -> std::io::Result<bool> {
        match msg {
            WireMsg::Writes(group) => {
                let mut local = 0u64;
                {
                    let mut slab = self.core.store().lock_shard(self.shard);
                    for (wid, value, ts) in group {
                        ops.clear();
                        self.core.window_ops(wid, value, ts, ops);
                        for &op in ops.iter() {
                            stack.push((wid, op));
                            self.cascade(&mut slab, stack, outbox, &mut local);
                        }
                    }
                }
                let cross = self.flush_outbox(stream, outbox)?;
                self.write(
                    stream,
                    &HostMsg::Applied {
                        local,
                        cross,
                        reads: 0,
                    },
                )?;
                Ok(true)
            }
            WireMsg::Deltas(group) => {
                let mut local = 0u64;
                {
                    let mut slab = self.core.store().lock_shard(self.shard);
                    for (n, op) in group {
                        stack.push((n, op));
                        self.cascade(&mut slab, stack, outbox, &mut local);
                    }
                }
                let cross = self.flush_outbox(stream, outbox)?;
                self.write(
                    stream,
                    &HostMsg::Applied {
                        local,
                        cross,
                        reads: 0,
                    },
                )?;
                Ok(true)
            }
            WireMsg::Reads {
                req_id,
                targets,
                want_reply,
            } => {
                let reads = targets.len() as u64;
                let snap = self.core.store().snapshot_shard(self.shard);
                if want_reply {
                    let answers: Vec<(u64, Option<A::Output>)> = targets
                        .into_iter()
                        .map(|(pos, v)| (pos, self.core.read_via(v, &snap)))
                        .collect();
                    drop(snap);
                    self.write(stream, &HostMsg::ReadReplies { req_id, answers })?;
                } else {
                    // Fire-and-forget accounting reads from a mixed ingest
                    // batch; the answers are discarded.
                    for (_, v) in targets {
                        std::hint::black_box(self.core.read_via(v, &snap));
                    }
                    drop(snap);
                }
                self.write(
                    stream,
                    &HostMsg::Applied {
                        local: 0,
                        cross: 0,
                        reads,
                    },
                )?;
                Ok(true)
            }
            WireMsg::Expire(ts) => {
                let mut local = 0u64;
                {
                    let mut slab = self.core.store().lock_shard(self.shard);
                    let writers = self.writers.clone();
                    for wid in writers {
                        ops.clear();
                        self.core.expire_ops(wid, ts, ops);
                        for &op in ops.iter() {
                            stack.push((wid, op));
                            self.cascade(&mut slab, stack, outbox, &mut local);
                        }
                    }
                }
                let cross = self.flush_outbox(stream, outbox)?;
                self.write(
                    stream,
                    &HostMsg::Applied {
                        local,
                        cross,
                        reads: 0,
                    },
                )?;
                Ok(true)
            }
            WireMsg::FetchPaos { req_id, slots } => {
                let snap = self.core.store().snapshot_shard(self.shard);
                let paos = slots
                    .into_iter()
                    .map(|s| (s, snap.with_pao(s as usize, |p| p.clone())))
                    .collect();
                drop(snap);
                self.write(stream, &HostMsg::Paos { req_id, paos })?;
                Ok(true)
            }
            WireMsg::FetchSlots { req_id, slots } => {
                let out: Vec<WireSlot<A>> = {
                    let snap = self.core.store().snapshot_shard(self.shard);
                    slots
                        .into_iter()
                        .map(|s| {
                            let pao = snap.with_pao(s as usize, |p| p.clone());
                            let win = self.core.export_window(OverlayId(s));
                            (s, pao, win)
                        })
                        .collect()
                };
                self.write(stream, &HostMsg::Slots { req_id, slots: out })?;
                Ok(true)
            }
            WireMsg::InstallSlots { req_id, slots } => {
                for (slot, pao, win) in slots {
                    self.core.store().relocate(slot as usize, self.shard, pao);
                    if let Some(buf) = win {
                        self.core.install_window(OverlayId(slot), &buf);
                    }
                }
                self.write(stream, &HostMsg::Ok { req_id })?;
                Ok(true)
            }
            WireMsg::MapSet { req_id, pairs } => {
                for (slot, new_shard) in pairs {
                    let slot = slot as usize;
                    let dest = ShardId(new_shard);
                    let old = self.partition.shard_of(slot);
                    if old == self.shard && dest != self.shard {
                        // Departing slot: the destination host installed
                        // the live copy; hand the local slab entry over to
                        // an empty placeholder so this shard's slab stops
                        // carrying it (the abandoned entry is swept as an
                        // orphan by the next compaction).
                        self.core.store().relocate(slot, dest, self.agg.empty());
                    }
                    if slot < self.partition.of.len() {
                        self.partition.of[slot] = dest;
                    }
                }
                self.recompute_writers();
                self.write(stream, &HostMsg::Ok { req_id })?;
                Ok(true)
            }
            WireMsg::FetchState { req_id } => {
                let mut state = self.core.export_state();
                // Only this shard's slots carry truth here; blank the rest
                // so the coordinator's merge never clobbers live state
                // fetched from their owners.
                for (idx, w) in state.windows.iter_mut().enumerate() {
                    if self.partition.shard_of(idx) != self.shard {
                        *w = None;
                    }
                }
                for (idx, p) in state.paos.iter_mut().enumerate() {
                    if self.partition.shard_of(idx) != self.shard {
                        *p = None;
                    }
                }
                self.write(stream, &HostMsg::State { req_id, state })?;
                Ok(true)
            }
            WireMsg::Counts { req_id } => {
                self.write(
                    stream,
                    &HostMsg::CountsReply {
                        req_id,
                        pushed: self.core.observed_push_counts(),
                        pulled: self.core.observed_pull_counts(),
                    },
                )?;
                Ok(true)
            }
            WireMsg::Decay { req_id, factor } => {
                self.core.decay_observed(factor);
                self.write(stream, &HostMsg::Ok { req_id })?;
                Ok(true)
            }
            WireMsg::Compact { req_id } => {
                let value = self.core.store().compact();
                self.write(stream, &HostMsg::Num { req_id, value })?;
                Ok(true)
            }
            WireMsg::Orphans { req_id } => {
                let value = self.core.store().orphaned_slots();
                self.write(stream, &HostMsg::Num { req_id, value })?;
                Ok(true)
            }
            WireMsg::Swap {
                req_id,
                plan,
                state,
            } => {
                // Topology epoch: rebuild the whole local engine under the
                // new overlay/decisions/map and adopt the owned state slice
                // the coordinator rebuilt — the process-mode equivalent of
                // the in-process workers swapping their shared-core Arcs.
                *self = Self::build(
                    self.shard,
                    self.shards,
                    self.window,
                    self.agg.clone(),
                    self.hooks,
                    *plan,
                    Some(*state),
                );
                self.write(stream, &HostMsg::Ok { req_id })?;
                Ok(true)
            }
            WireMsg::Stop => Ok(false),
        }
    }

    /// Write one [`HostMsg::Fwd`] frame per non-empty destination outbox;
    /// returns the total cross-shard delta count. Must run before the
    /// `Applied` of the message that filled the outboxes (FIFO pending
    /// contract).
    fn flush_outbox(
        &self,
        stream: &mut UnixStream,
        outbox: &mut [Vec<(OverlayId, DeltaOp)>],
    ) -> std::io::Result<u64> {
        let mut cross = 0u64;
        for (dest, buf) in outbox.iter_mut().enumerate() {
            if buf.is_empty() {
                continue;
            }
            let deltas = std::mem::take(buf);
            cross += deltas.len() as u64;
            self.write(
                stream,
                &HostMsg::Fwd {
                    dest: dest as u32,
                    deltas,
                },
            )?;
        }
        Ok(cross)
    }

    /// The worker delta cascade, verbatim: apply every stacked op at its
    /// owned slot, follow push edges, route same-shard consumers back onto
    /// the stack and foreign ones into the destination outbox.
    fn cascade(
        &self,
        slab: &mut crate::store::ShardGuard<'_, A::Partial>,
        stack: &mut Vec<(OverlayId, DeltaOp)>,
        outbox: &mut [Vec<(OverlayId, DeltaOp)>],
        local: &mut u64,
    ) {
        let agg = self.core.aggregate();
        let overlay = self.core.overlay();
        while let Some((n, op)) = stack.pop() {
            op.apply(agg, slab.get_mut(n.idx()));
            self.core.record_push(n);
            *local += 1;
            for &(t, sign) in overlay.outputs(n) {
                if self.core.is_push(t) {
                    let routed = op.signed(sign);
                    let dest = self.partition.shard_of(t.idx());
                    if dest == self.shard {
                        stack.push((t, routed));
                    } else {
                        outbox[dest.idx()].push((t, routed));
                    }
                }
            }
        }
    }
}
