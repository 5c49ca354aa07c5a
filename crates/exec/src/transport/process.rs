//! The multi-process [`ShardTransport`]: one `eagr-shard-host` OS process
//! per shard, Unix-domain sockets in a star around the coordinator.
//!
//! ## Topology and threads
//!
//! The coordinator binds one listener per shard under the system temp
//! directory, spawns the host binary with the socket path as its only
//! argument, and completes a synchronous handshake ([`InitHeader`] frame,
//! then a [`WirePlan`] frame, then the host's `Ready`) before any traffic
//! flows. Per connected host the coordinator runs two threads:
//!
//! * a **writer** draining an unbounded queue of pre-encoded payloads onto
//!   the socket — senders (the engine *and* the pumps) never block on a
//!   slow peer's socket, which is what makes the relay deadlock-free;
//! * a **pump** reading host frames: `Fwd` frames are re-encoded as
//!   [`WireMsg::Deltas`] and queued to the destination host's writer
//!   (cross-shard deltas hop host → coordinator → host), `Applied` frames
//!   decrement the engine's `pending` counter and fold the host's work
//!   counters into the per-shard stats, and `req_id`-correlated replies
//!   wake the engine thread blocked in `ProcessTransport::request`.
//!
//! ## Epoch accounting
//!
//! The engine increments `pending` before every counted send, exactly as
//! in-process. A host writes its `Fwd` frames *before* the `Applied` of
//! the message that produced them, and each socket is FIFO, so the pump
//! re-increments `pending` for every forwarded batch before it sees the
//! matching decrement — `pending == 0` still means "quiescent", and
//! [`crate::ShardedEngine::drain`] keeps its epoch-barrier meaning across
//! process boundaries.
//!
//! ## Failure
//!
//! Any pump-observed failure (EOF, I/O error, decode error, protocol
//! violation) marks the whole transport dead, records the first cause, and
//! clears the reply tables — dropping the queued reply senders wakes every
//! blocked engine call with [`TransportError::Closed`] instead of wedging
//! the drain spin (which polls [`ShardTransport::healthy`]).

use super::codec::{host_msg_from, wire_msg_bytes, HostMsg, InitHeader, WireMsg, WirePlan};
use super::{ShardTransport, SlotState, TransportError, TransportKind};
use crate::core::EngineState;
use crate::sharded::{LivePartition, ReadReplies, ShardMsg, ShardedCore};
use crate::store::PaoReader;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use eagr_agg::{Aggregate, WindowSpec, WireHooks};
use eagr_graph::{NodeId, Partition};
use eagr_overlay::OverlayId;
use eagr_util::wire::{read_frame, write_frame, Wire};
use eagr_util::{FastMap, FastSet};
use parking_lot::Mutex;
use std::io::Write;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long the coordinator waits for a spawned host to connect and
/// complete the handshake before declaring the launch failed.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

/// Locate the `eagr-shard-host` binary: the `EAGR_SHARD_HOST_BIN`
/// environment variable wins; otherwise look next to the current
/// executable, then one directory up (which resolves the binary from test
/// executables living in `target/<profile>/deps/`).
pub fn host_binary_path() -> Result<PathBuf, TransportError> {
    if let Some(p) = std::env::var_os("EAGR_SHARD_HOST_BIN") {
        let p = PathBuf::from(p);
        if p.is_file() {
            return Ok(p);
        }
        return Err(TransportError::Io(format!(
            "EAGR_SHARD_HOST_BIN points at {}, which does not exist",
            p.display()
        )));
    }
    let exe = std::env::current_exe().map_err(|e| TransportError::Io(e.to_string()))?;
    let mut candidates = Vec::new();
    if let Some(dir) = exe.parent() {
        candidates.push(dir.join("eagr-shard-host"));
        if let Some(up) = dir.parent() {
            candidates.push(up.join("eagr-shard-host"));
        }
    }
    for c in &candidates {
        if c.is_file() {
            return Ok(c.clone());
        }
    }
    Err(TransportError::Io(format!(
        "eagr-shard-host binary not found (looked at {}); build it with \
         `cargo build -p eagr-shard-host` or set EAGR_SHARD_HOST_BIN",
        candidates
            .iter()
            .map(|c| c.display().to_string())
            .collect::<Vec<_>>()
            .join(", ")
    )))
}

/// Monotonic disambiguator for socket paths within one process.
static SOCKET_COUNTER: AtomicU64 = AtomicU64::new(0);

/// State shared between the engine-facing transport handle and the
/// per-host pump threads.
struct Shared<A: Aggregate> {
    /// First observed fatal error; set once, read by every later call.
    dead: AtomicBool,
    dead_reason: Mutex<Option<TransportError>>,
    /// Set by `stop`/`shutdown` so pumps treat EOF as a clean exit.
    stopping: AtomicBool,
    /// Correlation tokens for request/reply calls (0 is reserved for
    /// fire-and-forget reads).
    next_req: AtomicU64,
    /// In-flight [`ShardMsg::Reads`] reply channels by `req_id`.
    read_replies: Mutex<FastMap<u64, Sender<ReadReplies<A>>>>,
    /// In-flight state-plane reply channels by `req_id`.
    replies: Mutex<FastMap<u64, Sender<HostMsg<A>>>>,
    /// Per-host writer queues (indexed by shard) — the pump relay target.
    outs: Vec<Sender<Vec<u8>>>,
    hooks: WireHooks<A>,
    /// The engine's epoch accounting and per-shard work counters.
    pending: Arc<AtomicU64>,
    cross_out: Arc<Vec<AtomicU64>>,
    local: Arc<Vec<AtomicU64>>,
    reads: Arc<Vec<AtomicU64>>,
}

impl<A: Aggregate> Shared<A> {
    /// Record the first fatal error and wake every blocked caller by
    /// dropping the queued reply senders.
    fn fatal(&self, err: TransportError) {
        if !self.dead.swap(true, Ordering::AcqRel) {
            *self.dead_reason.lock() = Some(err);
        }
        self.read_replies.lock().clear();
        self.replies.lock().clear();
    }

    fn check(&self) -> Result<(), TransportError> {
        if self.dead.load(Ordering::Acquire) {
            Err(self
                .dead_reason
                .lock()
                .clone()
                .unwrap_or(TransportError::Closed {
                    shard: None,
                    detail: "shard host transport is down".to_string(),
                }))
        } else {
            Ok(())
        }
    }
}

/// One connected shard host.
struct Peer {
    child: Mutex<Child>,
    socket_path: PathBuf,
    writer: Mutex<Option<std::thread::JoinHandle<()>>>,
    pump: Mutex<Option<std::thread::JoinHandle<()>>>,
}

/// The multi-process transport handle owned by the engine. See the module
/// docs for the thread/ordering model.
pub struct ProcessTransport<A: Aggregate> {
    shared: Arc<Shared<A>>,
    peers: Vec<Peer>,
}

impl<A: Aggregate> ProcessTransport<A> {
    /// Spawn one host process per shard, handshake each one, and start the
    /// pump/writer thread pairs. Fails without leaking processes: already
    /// spawned children are killed if a later shard fails to launch.
    #[allow(clippy::too_many_arguments)]
    pub fn launch(
        core: &Arc<ShardedCore<A>>,
        partition: &Partition,
        window: WindowSpec,
        pending: Arc<AtomicU64>,
        cross_out: Arc<Vec<AtomicU64>>,
        local: Arc<Vec<AtomicU64>>,
        reads: Arc<Vec<AtomicU64>>,
    ) -> Result<Self, TransportError> {
        let hooks = core
            .aggregate()
            .wire_hooks()
            .ok_or(TransportError::Unsupported(
                "this aggregate provides no wire hooks; the process transport cannot serialize it",
            ))?;
        let shards = partition.shards;
        let bin = host_binary_path()?;
        let plan = WirePlan {
            overlay: core.overlay().clone(),
            decisions: core.decisions(),
            map: partition.of.iter().map(|s| s.0).collect(),
        };
        let plan_payload = plan.to_wire();
        let (outs, out_rxs): (Vec<_>, Vec<_>) = (0..shards).map(|_| unbounded::<Vec<u8>>()).unzip();
        let shared = Arc::new(Shared {
            dead: AtomicBool::new(false),
            dead_reason: Mutex::named(None, "proc_dead_reason"),
            stopping: AtomicBool::new(false),
            next_req: AtomicU64::new(1),
            read_replies: Mutex::named(FastMap::default(), "proc_read_replies"),
            replies: Mutex::named(FastMap::default(), "proc_replies"),
            outs,
            hooks,
            pending,
            cross_out,
            local,
            reads,
        });
        let mut peers: Vec<Peer> = Vec::with_capacity(shards);
        for (shard, out_rx) in out_rxs.into_iter().enumerate() {
            match Self::launch_one(&bin, shard, shards, window, &plan_payload, &shared, out_rx) {
                Ok(peer) => peers.push(peer),
                Err(e) => {
                    // Roll back: reap everything already running.
                    shared.stopping.store(true, Ordering::Release);
                    for p in &peers {
                        let mut child = p.child.lock();
                        let _ = child.kill();
                        let _ = child.wait();
                        let _ = std::fs::remove_file(&p.socket_path);
                    }
                    return Err(e);
                }
            }
        }
        Ok(Self { shared, peers })
    }

    fn launch_one(
        bin: &PathBuf,
        shard: usize,
        shards: usize,
        window: WindowSpec,
        plan_payload: &[u8],
        shared: &Arc<Shared<A>>,
        out_rx: Receiver<Vec<u8>>,
    ) -> Result<Peer, TransportError> {
        let socket_path = std::env::temp_dir().join(format!(
            "eagr-shard-{}-{}-{}.sock",
            std::process::id(),
            shard,
            SOCKET_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_file(&socket_path);
        let listener = UnixListener::bind(&socket_path)?;
        listener.set_nonblocking(true)?;
        let mut child = Command::new(bin)
            .arg(&socket_path)
            .stdin(Stdio::null())
            .spawn()
            .map_err(|e| TransportError::Io(format!("spawn {}: {e}", bin.display())))?;
        // Poll for the connection so a host that dies on startup turns
        // into an error instead of a hang.
        let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
        let stream = loop {
            match listener.accept() {
                Ok((stream, _)) => break stream,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if let Ok(Some(status)) = child.try_wait() {
                        let _ = std::fs::remove_file(&socket_path);
                        return Err(TransportError::Closed {
                            shard: Some(shard),
                            detail: format!("shard host exited during launch ({status})"),
                        });
                    }
                    if Instant::now() >= deadline {
                        let _ = child.kill();
                        let _ = child.wait();
                        let _ = std::fs::remove_file(&socket_path);
                        return Err(TransportError::Io(format!(
                            "shard host {shard} did not connect within {HANDSHAKE_TIMEOUT:?}"
                        )));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    let _ = std::fs::remove_file(&socket_path);
                    return Err(e.into());
                }
            }
        };
        stream.set_nonblocking(false)?;
        let mut handshake = stream.try_clone()?;
        let header = InitHeader {
            shard: shard as u32,
            shards: shards as u32,
            aggregate: shared.hooks.name.to_string(),
            window,
        };
        write_frame(&mut handshake, &header.to_wire())?;
        write_frame(&mut handshake, plan_payload)?;
        handshake.flush()?;
        let ready = read_frame(&mut handshake)?.ok_or_else(|| TransportError::Closed {
            shard: Some(shard),
            detail: "shard host closed the socket before Ready".to_string(),
        })?;
        match host_msg_from::<A>(&ready, &shared.hooks)? {
            HostMsg::Ready => {}
            other => {
                return Err(TransportError::Codec(format!(
                    "expected Ready from shard host {shard}, got {}",
                    other.variant_name()
                )))
            }
        }
        let writer_stream = stream.try_clone()?;
        let writer_shared = Arc::clone(shared);
        let writer = std::thread::Builder::new()
            .name(format!("eagr-host-writer-{shard}"))
            .spawn(move || writer_loop(shard, writer_stream, out_rx, writer_shared))
            .map_err(|e| TransportError::Io(e.to_string()))?;
        let pump_shared = Arc::clone(shared);
        let pump = std::thread::Builder::new()
            .name(format!("eagr-host-pump-{shard}"))
            .spawn(move || pump_loop(shard, stream, pump_shared))
            .map_err(|e| TransportError::Io(e.to_string()))?;
        Ok(Peer {
            child: Mutex::named(child, "proc_child"),
            socket_path,
            writer: Mutex::named(Some(writer), "proc_writer"),
            pump: Mutex::named(Some(pump), "proc_pump"),
        })
    }

    /// Queue one pre-encoded payload to `shard`'s writer.
    fn enqueue(&self, shard: usize, payload: Vec<u8>) -> Result<(), TransportError> {
        self.shared.check()?;
        self.shared.outs[shard]
            .send(payload)
            .map_err(|_| TransportError::Closed {
                shard: Some(shard),
                detail: "shard host writer stopped".to_string(),
            })
    }

    /// Send a state-plane request built from a fresh `req_id` and block for
    /// its reply.
    fn request(
        &self,
        shard: usize,
        build: impl FnOnce(u64) -> WireMsg<A>,
    ) -> Result<HostMsg<A>, TransportError> {
        let req_id = self.shared.next_req.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = bounded::<HostMsg<A>>(1);
        self.shared.replies.lock().insert(req_id, tx);
        // A peer death between the insert and the send clears the table;
        // re-checking after the insert closes the race where `fatal` ran
        // just before it and would leave this entry stranded.
        if let Err(e) = self.shared.check() {
            self.shared.replies.lock().remove(&req_id);
            return Err(e);
        }
        let payload = wire_msg_bytes(&build(req_id), &self.shared.hooks);
        if let Err(e) = self.enqueue(shard, payload) {
            self.shared.replies.lock().remove(&req_id);
            return Err(e);
        }
        rx.recv().map_err(|_| {
            self.shared.check().err().unwrap_or(TransportError::Closed {
                shard: Some(shard),
                detail: "shard host dropped a reply".to_string(),
            })
        })
    }

    /// Send one `Num`-answered request to every host and sum the replies.
    fn sum_over_hosts(&self, build: impl Fn(u64) -> WireMsg<A>) -> Result<u64, TransportError> {
        let mut total = 0u64;
        for shard in 0..self.peers.len() {
            match self.request(shard, &build)? {
                HostMsg::Num { value, .. } => total += value,
                other => return Err(unexpected("Num", &other)),
            }
        }
        Ok(total)
    }
}

impl<A: Aggregate> ShardTransport<A> for ProcessTransport<A> {
    fn kind(&self) -> TransportKind {
        TransportKind::Process
    }

    fn shards(&self) -> usize {
        self.peers.len()
    }

    fn send(&self, shard: usize, msg: ShardMsg<A>) -> Result<(), TransportError> {
        let wire = match msg {
            ShardMsg::Writes(group) => WireMsg::Writes(group),
            ShardMsg::Deltas(group) => WireMsg::Deltas(group),
            ShardMsg::Reads { targets, reply } => {
                let targets: Vec<(u64, eagr_graph::NodeId)> = targets
                    .into_iter()
                    .map(|(slot, v)| (slot as u64, v))
                    .collect();
                match reply {
                    Some(tx) => {
                        let req_id = self.shared.next_req.fetch_add(1, Ordering::Relaxed);
                        self.shared.read_replies.lock().insert(req_id, tx);
                        if let Err(e) = self.shared.check() {
                            self.shared.read_replies.lock().remove(&req_id);
                            return Err(e);
                        }
                        let payload = wire_msg_bytes(
                            &WireMsg::Reads {
                                req_id,
                                targets,
                                want_reply: true,
                            },
                            &self.shared.hooks,
                        );
                        return match self.enqueue(shard, payload) {
                            Ok(()) => Ok(()),
                            Err(e) => {
                                self.shared.read_replies.lock().remove(&req_id);
                                Err(e)
                            }
                        };
                    }
                    None => WireMsg::Reads {
                        req_id: 0,
                        targets,
                        want_reply: false,
                    },
                }
            }
            ShardMsg::Expire(ts) => WireMsg::Expire(ts),
            ShardMsg::Stop => WireMsg::Stop,
            ShardMsg::Copy { .. } | ShardMsg::EndCopy { .. } => {
                return Err(TransportError::Unsupported(
                    "two-phase copy messages never cross the socket; process-mode migration is \
                     fenced (fetch_slots/install_slots)",
                ))
            }
            ShardMsg::Topo(_) => {
                return Err(TransportError::Unsupported(
                    "Topo swaps shared Arcs; the process transport publishes plans with Swap",
                ))
            }
        };
        self.enqueue(shard, wire_msg_bytes(&wire, &self.shared.hooks))
    }

    fn healthy(&self) -> Result<(), TransportError> {
        self.shared.check()
    }

    fn stop(&self) {
        self.shared.stopping.store(true, Ordering::Release);
        for shard in 0..self.peers.len() {
            let payload = wire_msg_bytes::<A>(&WireMsg::Stop, &self.shared.hooks);
            let _ = self.shared.outs[shard].send(payload);
            // Empty payload = writer-quit sentinel (a real payload always
            // carries at least its tag byte).
            let _ = self.shared.outs[shard].send(Vec::new());
        }
    }

    fn shutdown(&self) {
        self.stop();
        for peer in &self.peers {
            if let Some(h) = peer.writer.lock().take() {
                let _ = h.join();
            }
            // The host exits on Stop, closing its socket; the pump sees
            // EOF with `stopping` set and exits cleanly.
            if let Some(h) = peer.pump.lock().take() {
                let _ = h.join();
            }
            let mut child = peer.child.lock();
            let _ = child.wait();
            let _ = std::fs::remove_file(&peer.socket_path);
        }
    }

    fn host_pids(&self) -> Vec<u32> {
        self.peers.iter().map(|p| p.child.lock().id()).collect()
    }

    fn read_here(
        &self,
        core: &ShardedCore<A>,
        map: &LivePartition,
        nodes: &[NodeId],
    ) -> Result<Vec<Option<A::Output>>, TransportError> {
        // The coordinator mirror holds no live PAOs: fetch every push PAO
        // the reads depend on from its owning host, then evaluate here.
        let mut needed: FastSet<u32> = FastSet::default();
        for &v in nodes {
            if let Some(rid) = core.overlay().reader(v) {
                if core.is_push(rid) {
                    needed.insert(rid.0);
                } else {
                    collect_pull_slots(core, rid, &mut needed);
                }
            }
        }
        let mut by_owner: Vec<Vec<u32>> = vec![Vec::new(); self.peers.len()];
        for &slot in needed.iter() {
            by_owner[map.shard_of(slot as usize).idx()].push(slot);
        }
        let mut paos: FastMap<u32, A::Partial> = FastMap::default();
        for (shard, slots) in by_owner.into_iter().enumerate() {
            if slots.is_empty() {
                continue;
            }
            match self.request(shard, |req_id| WireMsg::FetchPaos { req_id, slots })? {
                HostMsg::Paos { paos: got, .. } => paos.extend(got),
                other => return Err(unexpected("Paos", &other)),
            }
        }
        let reader = FetchedPaos {
            paos,
            empty: core.aggregate().empty(),
        };
        Ok(nodes.iter().map(|&v| core.read_via(v, &reader)).collect())
    }

    fn peer_serves_read(&self, core: &ShardedCore<A>, rid: OverlayId) -> bool {
        core.is_push(rid)
    }

    fn pull_state(&self, core: &ShardedCore<A>) -> Result<(), TransportError> {
        for shard in 0..self.peers.len() {
            match self.request(shard, |req_id| WireMsg::FetchState { req_id })? {
                HostMsg::State { state, .. } => core.install_state(state),
                other => return Err(unexpected("State", &other)),
            }
        }
        Ok(())
    }

    fn publish(
        &self,
        core: &Arc<ShardedCore<A>>,
        map: &Arc<LivePartition>,
    ) -> Result<(), TransportError> {
        // Hosts can't share the core: ship each one the serialized plan
        // plus the slice of state it owns under `map`, and let it rebuild
        // its engine locally.
        let mut full = core.export_state();
        let map: Vec<u32> = (0..map.len()).map(|i| map.shard_of(i).0).collect();
        let decisions = core.decisions();
        for shard in 0..self.peers.len() {
            let owned = |i: usize| map.get(i).copied() == Some(shard as u32);
            let state = EngineState {
                windows: full
                    .windows
                    .iter_mut()
                    .enumerate()
                    .map(|(i, w)| if owned(i) { w.take() } else { None })
                    .collect(),
                paos: full
                    .paos
                    .iter_mut()
                    .enumerate()
                    .map(|(i, p)| if owned(i) { p.take() } else { None })
                    .collect(),
            };
            let plan = WirePlan {
                overlay: core.overlay().clone(),
                decisions: decisions.clone(),
                map: map.clone(),
            };
            match self.request(shard, |req_id| WireMsg::Swap {
                req_id,
                plan: Box::new(plan),
                state: Box::new(state),
            })? {
                HostMsg::Ok { .. } => {}
                other => return Err(unexpected("Ok", &other)),
            }
        }
        Ok(())
    }

    fn fetch_slots(
        &self,
        _core: &ShardedCore<A>,
        shard: usize,
        slots: &[u32],
    ) -> Result<Vec<SlotState<A>>, TransportError> {
        let slots = slots.to_vec();
        match self.request(shard, |req_id| WireMsg::FetchSlots { req_id, slots })? {
            HostMsg::Slots { slots, .. } => Ok(slots),
            other => Err(unexpected("Slots", &other)),
        }
    }

    fn install_slots(
        &self,
        _core: &ShardedCore<A>,
        shard: usize,
        slots: Vec<SlotState<A>>,
    ) -> Result<(), TransportError> {
        match self.request(shard, |req_id| WireMsg::InstallSlots { req_id, slots })? {
            HostMsg::Ok { .. } => Ok(()),
            other => Err(unexpected("Ok", &other)),
        }
    }

    fn map_update(
        &self,
        _core: &Arc<ShardedCore<A>>,
        _map: &Arc<LivePartition>,
        pairs: &[(u32, u32)],
    ) -> Result<(), TransportError> {
        for shard in 0..self.peers.len() {
            let pairs = pairs.to_vec();
            match self.request(shard, |req_id| WireMsg::MapSet { req_id, pairs })? {
                HostMsg::Ok { .. } => {}
                other => return Err(unexpected("Ok", &other)),
            }
        }
        Ok(())
    }

    fn observed_counts(
        &self,
        _core: &ShardedCore<A>,
    ) -> Result<(Vec<u64>, Vec<u64>), TransportError> {
        let mut pushed: Vec<u64> = Vec::new();
        let mut pulled: Vec<u64> = Vec::new();
        for shard in 0..self.peers.len() {
            match self.request(shard, |req_id| WireMsg::Counts { req_id })? {
                HostMsg::CountsReply {
                    pushed: p,
                    pulled: q,
                    ..
                } => {
                    if pushed.len() < p.len() {
                        pushed.resize(p.len(), 0);
                    }
                    if pulled.len() < q.len() {
                        pulled.resize(q.len(), 0);
                    }
                    for (acc, v) in pushed.iter_mut().zip(&p) {
                        *acc += v;
                    }
                    for (acc, v) in pulled.iter_mut().zip(&q) {
                        *acc += v;
                    }
                }
                other => return Err(unexpected("CountsReply", &other)),
            }
        }
        Ok((pushed, pulled))
    }

    fn decay_observed(&self, _core: &ShardedCore<A>, factor: f64) -> Result<(), TransportError> {
        for shard in 0..self.peers.len() {
            match self.request(shard, |req_id| WireMsg::Decay { req_id, factor })? {
                HostMsg::Ok { .. } => {}
                other => return Err(unexpected("Ok", &other)),
            }
        }
        Ok(())
    }

    fn compact(&self, _core: &ShardedCore<A>) -> Result<u64, TransportError> {
        self.sum_over_hosts(|req_id| WireMsg::Compact { req_id })
    }

    fn orphaned_slots(&self, _core: &ShardedCore<A>) -> Result<u64, TransportError> {
        self.sum_over_hosts(|req_id| WireMsg::Orphans { req_id })
    }
}

/// Collect every **push** PAO slot a pull-decided node transitively reads
/// from — the slots [`ProcessTransport`] must fetch from the owning hosts
/// before evaluating the pull tree on the coordinator. Mirrors
/// [`crate::EngineCore::read_via`]'s recursion without evaluating.
fn collect_pull_slots<A: Aggregate>(core: &ShardedCore<A>, n: OverlayId, out: &mut FastSet<u32>) {
    for &(f, _) in core.overlay().inputs(n) {
        if core.is_push(f) {
            out.insert(f.0);
        } else {
            collect_pull_slots(core, f, out);
        }
    }
}

/// A [`PaoReader`] over PAOs fetched from shard hosts; slots outside the
/// fetched set resolve to the aggregate's empty partial (they only arise
/// for untouched inputs, whose slab state is also empty).
struct FetchedPaos<P> {
    paos: FastMap<u32, P>,
    empty: P,
}

impl<P> PaoReader<P> for FetchedPaos<P> {
    fn with_pao<R>(&self, idx: usize, f: impl FnOnce(&P) -> R) -> R {
        f(self.paos.get(&(idx as u32)).unwrap_or(&self.empty))
    }
}

impl<A: Aggregate> Drop for ProcessTransport<A> {
    /// Last-resort cleanup for an engine dropped without `shutdown`: ask
    /// the hosts to stop, then reap them so no orphan processes or socket
    /// files outlive the coordinator.
    fn drop(&mut self) {
        self.stop();
        for peer in &self.peers {
            let mut child = peer.child.lock();
            if child.try_wait().map(|s| s.is_none()).unwrap_or(false) {
                // Give the Stop frame a moment; kill if the host ignores it.
                std::thread::sleep(Duration::from_millis(50));
                if child.try_wait().map(|s| s.is_none()).unwrap_or(false) {
                    let _ = child.kill();
                }
            }
            let _ = child.wait();
            let _ = std::fs::remove_file(&peer.socket_path);
        }
    }
}

fn unexpected<A: Aggregate>(wanted: &str, got: &HostMsg<A>) -> TransportError {
    TransportError::Codec(format!(
        "expected {wanted} reply, got {}",
        got.variant_name()
    ))
}

/// Drain the writer queue onto the socket. Exits on the empty-payload
/// sentinel, queue disconnect, or a write error (reported as fatal).
fn writer_loop<A: Aggregate>(
    shard: usize,
    mut stream: UnixStream,
    rx: Receiver<Vec<u8>>,
    shared: Arc<Shared<A>>,
) {
    while let Ok(payload) = rx.recv() {
        if payload.is_empty() {
            break;
        }
        if let Err(e) = write_frame(&mut stream, &payload) {
            if !shared.stopping.load(Ordering::Acquire) {
                shared.fatal(TransportError::Closed {
                    shard: Some(shard),
                    detail: format!("socket write failed: {e}"),
                });
            }
            break;
        }
    }
    let _ = stream.flush();
}

/// Read and dispatch host frames until EOF or a fatal error.
fn pump_loop<A: Aggregate>(shard: usize, mut stream: UnixStream, shared: Arc<Shared<A>>) {
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(Some(p)) => p,
            Ok(None) => {
                if !shared.stopping.load(Ordering::Acquire) {
                    shared.fatal(TransportError::Closed {
                        shard: Some(shard),
                        detail: "shard host closed its socket".to_string(),
                    });
                }
                return;
            }
            Err(e) => {
                if !shared.stopping.load(Ordering::Acquire) {
                    shared.fatal(TransportError::Closed {
                        shard: Some(shard),
                        detail: format!("socket read failed: {e}"),
                    });
                }
                return;
            }
        };
        let msg = match host_msg_from::<A>(&payload, &shared.hooks) {
            Ok(m) => m,
            Err(e) => {
                shared.fatal(TransportError::Codec(format!(
                    "bad frame from shard host {shard}: {e}"
                )));
                return;
            }
        };
        match msg {
            HostMsg::Fwd { dest, deltas } => {
                let dest = dest as usize;
                if dest >= shared.outs.len() {
                    shared.fatal(TransportError::Codec(format!(
                        "shard host {shard} forwarded deltas to unknown shard {dest}"
                    )));
                    return;
                }
                // Count the relayed batch before it becomes visible to the
                // destination (the FIFO ordering contract: this runs
                // before the Applied for the message that produced it).
                shared.pending.fetch_add(1, Ordering::AcqRel);
                let payload = wire_msg_bytes(&WireMsg::<A>::Deltas(deltas), &shared.hooks);
                if shared.outs[dest].send(payload).is_err() {
                    shared.pending.fetch_sub(1, Ordering::AcqRel);
                    if !shared.stopping.load(Ordering::Acquire) {
                        shared.fatal(TransportError::Closed {
                            shard: Some(dest),
                            detail: "relay destination writer stopped".to_string(),
                        });
                        return;
                    }
                }
            }
            HostMsg::Applied {
                local,
                cross,
                reads,
            } => {
                shared.local[shard].fetch_add(local, Ordering::Relaxed);
                shared.cross_out[shard].fetch_add(cross, Ordering::AcqRel);
                shared.reads[shard].fetch_add(reads, Ordering::AcqRel);
                shared.pending.fetch_sub(1, Ordering::AcqRel);
            }
            HostMsg::ReadReplies { req_id, answers } => {
                let tx = shared.read_replies.lock().remove(&req_id);
                if let Some(tx) = tx {
                    let answers: ReadReplies<A> = answers
                        .into_iter()
                        .map(|(pos, ans)| (pos as usize, ans))
                        .collect();
                    // A dropped receiver means the requesting call gave up.
                    // lint: allow(channel-discipline, rendezvous reply to a blocked engine caller — the pump never holds an inbox while waiting)
                    let _ = tx.send(answers);
                }
            }
            HostMsg::Ready => {
                shared.fatal(TransportError::Codec(format!(
                    "unexpected Ready from shard host {shard} after handshake"
                )));
                return;
            }
            reply => {
                let Some(req_id) = reply.req_id() else {
                    shared.fatal(TransportError::Codec(format!(
                        "uncorrelated reply from shard host {shard}: {}",
                        reply.variant_name()
                    )));
                    return;
                };
                let tx = shared.replies.lock().remove(&req_id);
                if let Some(tx) = tx {
                    // lint: allow(channel-discipline, rendezvous reply to a blocked engine caller — the pump never holds an inbox while waiting)
                    let _ = tx.send(reply);
                }
            }
        }
    }
}
