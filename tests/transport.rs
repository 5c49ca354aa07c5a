//! The transport seam under the sharded runtime: WireCodec round-trips
//! (property-based), differential equivalence of the socket transport
//! against the in-process transport and the single-threaded reference,
//! and a smoke test that `TransportKind::Process` really runs shards as
//! separate OS processes.
//!
//! The process-transport tests resolve the `eagr-shard-host` binary
//! relative to the test executable (`target/<profile>/deps/..` →
//! `target/<profile>/eagr-shard-host`) and run `cargo build -p
//! eagr-shard-host` once per test process first, so the binary always
//! matches the sources; set `EAGR_SHARD_HOST_BIN` to use a given binary
//! instead.

use eagr::agg::{Aggregate, DeltaOp, WindowBuffer};
use eagr::exec::transport::codec::{
    host_msg_bytes, host_msg_from, wire_msg_bytes, wire_msg_from, HostMsg, InitHeader, WireMsg,
    WirePlan,
};
use eagr::exec::transport::process::host_binary_path;
use eagr::exec::{EngineCore, ShardedConfig, ShardedEngine, TransportKind};
use eagr::flow::Decisions;
use eagr::gen::{batch_events, generate_events, social_graph, Event, WorkloadConfig};
use eagr::graph::{BipartiteGraph, NodeId, PartitionStrategy};
use eagr::overlay::{Overlay, OverlayId};
use eagr::prelude::*;
use eagr::util::wire::Wire;
use proptest::prelude::*;
use std::sync::Arc;

fn all_push_parts(n: usize, seed: u64) -> (DataGraph, Arc<Overlay>, Decisions) {
    let g = social_graph(n, 4, seed);
    let ag = BipartiteGraph::build(&g, &Neighborhood::In, |_| true);
    let ov = Arc::new(Overlay::direct_from_bipartite(&ag));
    let d = Decisions::all_push(&ov);
    (g, ov, d)
}

fn sum_hooks() -> eagr::agg::WireHooks<Sum> {
    Sum.wire_hooks().expect("Sum ships wire hooks")
}

// ---------- WireCodec round-trips ----------

fn delta(insert: bool, v: i64) -> DeltaOp {
    if insert {
        DeltaOp::Insert(v)
    } else {
        DeltaOp::Remove(v)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn wire_msg_writes_roundtrip(rows in proptest::collection::vec((any::<u32>(), any::<i64>(), any::<u64>()), 0..50)) {
        let hooks = sum_hooks();
        let writes: Vec<(OverlayId, i64, u64)> =
            rows.iter().map(|&(id, v, ts)| (OverlayId(id), v, ts)).collect();
        let bytes = wire_msg_bytes::<Sum>(&WireMsg::Writes(writes.clone()), &hooks);
        match wire_msg_from::<Sum>(&bytes, &hooks).unwrap() {
            WireMsg::Writes(back) => prop_assert_eq!(back, writes),
            _ => prop_assert!(false, "variant changed in flight"),
        }
    }

    #[test]
    fn wire_msg_deltas_roundtrip(rows in proptest::collection::vec((any::<u32>(), any::<bool>(), any::<i64>()), 0..50)) {
        let hooks = sum_hooks();
        let deltas: Vec<(OverlayId, DeltaOp)> =
            rows.iter().map(|&(id, ins, v)| (OverlayId(id), delta(ins, v))).collect();
        let bytes = wire_msg_bytes::<Sum>(&WireMsg::Deltas(deltas.clone()), &hooks);
        match wire_msg_from::<Sum>(&bytes, &hooks).unwrap() {
            WireMsg::Deltas(back) => prop_assert_eq!(back, deltas),
            _ => prop_assert!(false, "variant changed in flight"),
        }
    }

    #[test]
    fn wire_msg_reads_roundtrip(
        req_id in any::<u64>(),
        rows in proptest::collection::vec((any::<u64>(), any::<u32>()), 0..50),
        want_reply in any::<bool>(),
    ) {
        let hooks = sum_hooks();
        let targets: Vec<(u64, NodeId)> =
            rows.iter().map(|&(pos, n)| (pos, NodeId(n))).collect();
        let msg = WireMsg::Reads { req_id, targets: targets.clone(), want_reply };
        let bytes = wire_msg_bytes::<Sum>(&msg, &hooks);
        match wire_msg_from::<Sum>(&bytes, &hooks).unwrap() {
            WireMsg::Reads { req_id: r, targets: t, want_reply: w } => {
                prop_assert_eq!(r, req_id);
                prop_assert_eq!(t, targets);
                prop_assert_eq!(w, want_reply);
            }
            _ => prop_assert!(false, "variant changed in flight"),
        }
    }

    #[test]
    fn wire_msg_install_slots_roundtrip(
        req_id in any::<u64>(),
        rows in proptest::collection::vec((any::<u32>(), any::<i64>(), any::<bool>(), proptest::collection::vec((any::<u64>(), any::<i64>()), 0..8)), 0..20),
    ) {
        let hooks = sum_hooks();
        let slots: Vec<(u32, i64, Option<WindowBuffer>)> = rows
            .iter()
            .map(|(slot, pao, windowed, entries)| {
                let win = windowed
                    .then(|| WindowBuffer::from_entries(WindowSpec::Tuple(8), entries.clone()));
                (*slot, *pao, win)
            })
            .collect();
        let msg = WireMsg::<Sum>::InstallSlots { req_id, slots: slots.clone() };
        let bytes = wire_msg_bytes::<Sum>(&msg, &hooks);
        match wire_msg_from::<Sum>(&bytes, &hooks).unwrap() {
            WireMsg::InstallSlots { req_id: r, slots: back } => {
                prop_assert_eq!(r, req_id);
                prop_assert_eq!(back.len(), slots.len());
                for ((s1, p1, w1), (s2, p2, w2)) in back.iter().zip(slots.iter()) {
                    prop_assert_eq!(s1, s2);
                    prop_assert_eq!(p1, p2);
                    prop_assert_eq!(
                        w1.as_ref().map(|w| w.entries().collect::<Vec<_>>()),
                        w2.as_ref().map(|w| w.entries().collect::<Vec<_>>())
                    );
                }
            }
            _ => prop_assert!(false, "variant changed in flight"),
        }
    }

    #[test]
    fn host_msg_roundtrips(
        dest in any::<u32>(),
        drows in proptest::collection::vec((any::<u32>(), any::<bool>(), any::<i64>()), 0..30),
        counters in (any::<u64>(), any::<u64>(), any::<u64>()),
        req_id in any::<u64>(),
        raw_answers in proptest::collection::vec((any::<u64>(), (any::<bool>(), any::<i64>())), 0..30),
    ) {
        let hooks = sum_hooks();
        let deltas: Vec<(OverlayId, DeltaOp)> =
            drows.iter().map(|&(id, ins, v)| (OverlayId(id), delta(ins, v))).collect();
        let answers: Vec<(u64, Option<i64>)> = raw_answers
            .iter()
            .map(|&(pos, (some, v))| (pos, some.then_some(v)))
            .collect();

        let bytes = host_msg_bytes::<Sum>(&HostMsg::Fwd { dest, deltas: deltas.clone() }, &hooks);
        match host_msg_from::<Sum>(&bytes, &hooks).unwrap() {
            HostMsg::Fwd { dest: d2, deltas: back } => {
                prop_assert_eq!(d2, dest);
                prop_assert_eq!(back, deltas);
            }
            _ => prop_assert!(false, "variant changed in flight"),
        }

        let (local, cross, reads) = counters;
        let bytes = host_msg_bytes::<Sum>(&HostMsg::Applied { local, cross, reads }, &hooks);
        match host_msg_from::<Sum>(&bytes, &hooks).unwrap() {
            HostMsg::Applied { local: l, cross: c, reads: r } => {
                prop_assert_eq!((l, c, r), (local, cross, reads));
            }
            _ => prop_assert!(false, "variant changed in flight"),
        }

        let bytes = host_msg_bytes::<Sum>(&HostMsg::ReadReplies { req_id, answers: answers.clone() }, &hooks);
        match host_msg_from::<Sum>(&bytes, &hooks).unwrap() {
            HostMsg::ReadReplies { req_id: r, answers: back } => {
                prop_assert_eq!(r, req_id);
                prop_assert_eq!(back, answers);
            }
            _ => prop_assert!(false, "variant changed in flight"),
        }
    }

    #[test]
    fn init_header_roundtrips(shard in any::<u32>(), shards in any::<u32>(), horizon in 1u64..1_000_000) {
        let header = InitHeader {
            shard,
            shards,
            aggregate: "SUM".to_string(),
            window: WindowSpec::Time(horizon),
        };
        prop_assert_eq!(InitHeader::from_wire(&header.to_wire()).unwrap(), header);
    }

    #[test]
    fn trailing_bytes_are_rejected(extra in 1usize..8) {
        let hooks = sum_hooks();
        let mut bytes = wire_msg_bytes::<Sum>(&WireMsg::Expire(7), &hooks);
        bytes.extend(vec![0u8; extra]);
        prop_assert!(wire_msg_from::<Sum>(&bytes, &hooks).is_err());
        let mut bytes = host_msg_bytes::<Sum>(&HostMsg::Ready, &hooks);
        bytes.extend(vec![0u8; extra]);
        prop_assert!(host_msg_from::<Sum>(&bytes, &hooks).is_err());
    }

    #[test]
    fn wire_plan_roundtrips(n in 20usize..80, seed in 0u64..500) {
        let (_, ov, d) = all_push_parts(n, seed);
        let plan = WirePlan {
            overlay: (*ov).clone(),
            decisions: d,
            map: (0..ov.node_count() as u32).map(|i| i % 3).collect(),
        };
        let back = WirePlan::from_wire(&plan.to_wire()).unwrap();
        prop_assert_eq!(back.map, plan.map);
        prop_assert_eq!(back.overlay.node_count(), plan.overlay.node_count());
        for id in 0..plan.overlay.node_count() as u32 {
            prop_assert_eq!(back.decisions.is_push(OverlayId(id)), plan.decisions.is_push(OverlayId(id)));
            prop_assert_eq!(back.overlay.outputs(OverlayId(id)), plan.overlay.outputs(OverlayId(id)));
            prop_assert_eq!(back.overlay.inputs(OverlayId(id)), plan.overlay.inputs(OverlayId(id)));
        }
    }
}

// ---------- differential: socket ≡ in-process ≡ single-threaded ----------

/// `cargo test` compiles the `eagr-shard-host` bin target only into
/// `target/<profile>/deps/<hash>`, never the unhashed path
/// [`host_binary_path`] resolves — so a fresh checkout's tier-1 run would
/// not find it, and a binary left there by an older build would answer for
/// a host whose wire layout it no longer speaks. So build it, once per test
/// process, with the same profile this test executable was built under —
/// an up-to-date binary makes that a no-op. An explicit
/// `EAGR_SHARD_HOST_BIN` is used as given.
fn require_host_binary() {
    static BUILD: std::sync::Once = std::sync::Once::new();
    BUILD.call_once(|| {
        if std::env::var_os("EAGR_SHARD_HOST_BIN").is_some() {
            return;
        }
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut cmd = std::process::Command::new(cargo);
        cmd.current_dir(root)
            .args(["build", "-p", "eagr-shard-host"]);
        let release = std::env::current_exe()
            .ok()
            .and_then(|p| {
                p.parent()
                    .and_then(|d| d.parent().map(|d| d.ends_with("release")))
            })
            .unwrap_or(false);
        if release {
            cmd.arg("--release");
        }
        let status = cmd.status();
        assert!(
            matches!(&status, Ok(s) if s.success()),
            "building eagr-shard-host failed: {status:?}"
        );
    });
    if let Err(e) = host_binary_path() {
        panic!("process-transport test needs the shard-host binary: {e}");
    }
}

fn sharded_with(
    ov: &Arc<Overlay>,
    d: &Decisions,
    window: WindowSpec,
    shards: usize,
    transport: TransportKind,
) -> ShardedEngine<Sum> {
    ShardedEngine::new(
        Sum,
        Arc::clone(ov),
        d,
        window,
        &ShardedConfig::builder()
            .shards(shards)
            .strategy(PartitionStrategy::Hash)
            .channel_capacity(256)
            .transport(transport)
            .build(),
    )
}

#[test]
fn socket_matches_in_process_and_single_threaded() {
    require_host_binary();
    let (g, ov, d) = all_push_parts(160, 0xD1FF);
    let window = WindowSpec::Tuple(4);
    let reference = EngineCore::new(Sum, Arc::clone(&ov), &d, window);
    let inproc = sharded_with(&ov, &d, window, 3, TransportKind::InProcess);
    let socket = sharded_with(&ov, &d, window, 2, TransportKind::Process);
    assert_eq!(socket.transport_kind(), TransportKind::Process);

    let events = generate_events(
        160,
        &WorkloadConfig {
            events: 4000,
            write_to_read: 4.0,
            seed: 0xD1FF,
            ..Default::default()
        },
    );
    let nodes: Vec<NodeId> = g.nodes().collect();
    for (i, b) in batch_events(&events, 500, 0).iter().enumerate() {
        for (e, ts) in b.iter_timed() {
            if let Event::Write { node, value } = *e {
                reference.write(node, value, ts);
            }
        }
        inproc.ingest_epoch(b).unwrap();
        socket.ingest_epoch(b).unwrap();
        // Every epoch boundary must agree across all three engines —
        // including right after a live migration on each transport.
        let want: Vec<Option<i64>> = nodes.iter().map(|&v| reference.read(v)).collect();
        assert_eq!(
            inproc.read_batch(&nodes).unwrap(),
            want,
            "in-process diverged at epoch {i}"
        );
        assert_eq!(
            socket.read_batch(&nodes).unwrap(),
            want,
            "socket diverged at epoch {i}"
        );
        if i % 3 == 2 {
            inproc.rebalance().unwrap();
            socket.rebalance().unwrap();
        }
    }
    inproc.shutdown();
    socket.shutdown();
}

#[test]
fn socket_expiry_matches_reference_under_time_windows() {
    require_host_binary();
    let (g, ov, d) = all_push_parts(100, 0xE49);
    let window = WindowSpec::Time(64);
    let reference = EngineCore::new(Sum, Arc::clone(&ov), &d, window);
    let socket = sharded_with(&ov, &d, window, 2, TransportKind::Process);

    let events = generate_events(
        100,
        &WorkloadConfig {
            events: 2000,
            write_to_read: 1e9,
            seed: 0xE49,
            ..Default::default()
        },
    );
    let nodes: Vec<NodeId> = g.nodes().collect();
    let mut final_ts = 0;
    for b in &batch_events(&events, 250, 0) {
        for (e, ts) in b.iter_timed() {
            if let Event::Write { node, value } = *e {
                reference.write(node, value, ts);
            }
            final_ts = final_ts.max(ts);
        }
        socket.ingest_epoch(b).unwrap();
    }
    // Expire most of the stream over the wire; each host trims exactly the
    // writers it owns, the reference trims everything.
    let cutoff = final_ts + 40;
    reference.advance_time(cutoff);
    socket.advance_time_epoch(cutoff).unwrap();
    let want: Vec<Option<i64>> = nodes.iter().map(|&v| reference.read(v)).collect();
    assert_eq!(
        socket.read_batch(&nodes).unwrap(),
        want,
        "post-expiry state diverged"
    );
    socket.shutdown();
}

// ---------- OS-process smoke ----------

#[test]
fn shard_hosts_are_separate_os_processes() {
    require_host_binary();
    let (g, ov, d) = all_push_parts(80, 0x920C);
    let socket = sharded_with(&ov, &d, WindowSpec::Tuple(1), 2, TransportKind::Process);

    let pids = socket.host_pids();
    assert_eq!(pids.len(), 2, "one host process per shard");
    assert_ne!(pids[0], pids[1], "hosts must be distinct processes");
    for &pid in &pids {
        assert_ne!(pid, std::process::id(), "host must not be this process");
        assert!(
            std::path::Path::new(&format!("/proc/{pid}")).exists(),
            "host {pid} must be alive while the engine runs"
        );
    }

    // And they actually do the work.
    let events = generate_events(
        80,
        &WorkloadConfig {
            events: 1000,
            write_to_read: 1e9,
            seed: 3,
            ..Default::default()
        },
    );
    let reference = EngineCore::new(Sum, Arc::clone(&ov), &d, WindowSpec::Tuple(1));
    for b in &batch_events(&events, 200, 0) {
        for (e, ts) in b.iter_timed() {
            if let Event::Write { node, value } = *e {
                reference.write(node, value, ts);
            }
        }
        socket.ingest_epoch(b).unwrap();
    }
    for v in g.nodes() {
        assert_eq!(socket.read(v), reference.read(v), "{v:?}");
    }
    socket.shutdown();
    for &pid in &pids {
        assert!(
            !std::path::Path::new(&format!("/proc/{pid}")).exists(),
            "host {pid} must be reaped on shutdown"
        );
    }
}

#[test]
fn killed_host_surfaces_as_transport_error_not_hang() {
    require_host_binary();
    let (_, ov, d) = all_push_parts(60, 0xDEAD);
    let socket = sharded_with(&ov, &d, WindowSpec::Tuple(1), 2, TransportKind::Process);
    let pids = socket.host_pids();

    let events = generate_events(
        60,
        &WorkloadConfig {
            events: 200,
            write_to_read: 1e9,
            seed: 9,
            ..Default::default()
        },
    );
    let batches = batch_events(&events, 50, 0);
    socket.ingest_epoch(&batches[0]).unwrap();

    // SIGKILL one host out from under the engine: the pump thread sees the
    // socket close and every subsequent engine call must return `Err`
    // instead of spinning on the epoch barrier.
    let status = std::process::Command::new("kill")
        .args(["-9", &pids[0].to_string()])
        .status()
        .expect("spawn kill");
    assert!(status.success(), "kill -9 {}", pids[0]);

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let mut failed = socket.ingest_epoch(&batches[1]).is_err();
        failed |= socket.read_batch(&[NodeId(0)]).is_err();
        if failed {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "engine never noticed the dead host"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    socket.shutdown();
}

// ---------- facade rebuilds over the socket transport ----------

/// Attach and detach rebuild a stratum's runtime and carry its state
/// across. Over the socket transport that state lives in the shard hosts,
/// so it must be pulled from the old hosts and published to the new ones.
/// Facade differential: `Sharded{2}` over processes against
/// `SingleThreaded` on the same events, `read_batch` over every node
/// immediately after each step.
#[test]
fn process_attach_and_detach_match_single_threaded() {
    require_host_binary();
    let n = 60;
    let g = social_graph(n, 4, 0xA77AC);
    let events = generate_events(
        n,
        &WorkloadConfig {
            events: 1500,
            write_to_read: 1e9,
            seed: 0xA77AC,
            ..Default::default()
        },
    );
    let build = |execution: ExecutionMode, transport: TransportKind| {
        EagrSystem::builder(EgoQuery::new(Sum).filter(|v| v.0 < 40))
            .execution(execution)
            .transport(transport)
            .build(&g)
    };
    let single = build(ExecutionMode::SingleThreaded, TransportKind::InProcess);
    let socket = build(ExecutionMode::Sharded { shards: 2 }, TransportKind::Process);
    let nodes: Vec<NodeId> = g.nodes().collect();
    let agree = |step: &str, want: Vec<Option<i64>>, got: Vec<Option<i64>>| {
        let live = want
            .iter()
            .filter(|a| matches!(a, Some(s) if *s != 0))
            .count();
        assert!(live > 0, "{step}: the reference answers nothing non-zero");
        assert_eq!(got, want, "{step}: socket transport diverged");
    };

    single.ingest(&events);
    socket.ingest(&events);
    agree(
        "before attach",
        single.read_batch(&nodes),
        socket.read_batch(&nodes),
    );

    // (a) An overlapping query extends the primary's stratum in place.
    let overlap = |v: NodeId| v.0 >= 20;
    let a_single = single.attach(EgoQuery::new(Sum).filter(overlap));
    let a_socket = socket.attach(EgoQuery::new(Sum).filter(overlap));
    assert!(a_socket.attach_report().expect("attached").shared_stratum);
    agree(
        "shared attach, primary",
        single.read_batch(&nodes),
        socket.read_batch(&nodes),
    );
    agree(
        "shared attach, new handle",
        a_single.read_batch(&nodes),
        a_socket.read_batch(&nodes),
    );

    // (b) A different window compiles a cold stratum seeded from history.
    let b_single = single.attach(EgoQuery::new(Sum).window(WindowSpec::Tuple(3)));
    let b_socket = socket.attach(EgoQuery::new(Sum).window(WindowSpec::Tuple(3)));
    assert!(!b_socket.attach_report().expect("attached").shared_stratum);
    agree(
        "cold attach",
        b_single.read_batch(&nodes),
        b_socket.read_batch(&nodes),
    );

    // (c) Detaching the primary retires the readers only it held.
    let retired = socket.detach(socket.handle()).retired_paos;
    assert!(retired > 0, "detaching the primary must retire PAOs");
    single.detach(single.handle());
    agree(
        "detach, survivor",
        a_single.read_batch(&nodes),
        a_socket.read_batch(&nodes),
    );
}

/// Topology epochs over the socket transport: a churn stream with node
/// churn through `Sharded{2}` over processes against `SingleThreaded`. The
/// coordinator patches its core in place and ships each host the new plan
/// with its owned state; at every `ingest` boundary every node's answer
/// and the cumulative topology report must agree.
#[test]
fn process_topology_epochs_match_single_threaded() {
    use eagr::gen::{churn_stream, ChurnConfig};
    require_host_binary();
    for seed in [0xC4u64, 0xC5] {
        let g = social_graph(60, 3, seed);
        let stream = churn_stream(
            &g,
            &ChurnConfig {
                epochs: 6,
                epoch_events: 150,
                churn_fraction: 0.05,
                node_churn: 0.3,
                seed,
                ..Default::default()
            },
        );
        let build = |execution: ExecutionMode, transport: TransportKind| {
            EagrSystem::builder(EgoQuery::new(Sum))
                .execution(execution)
                .transport(transport)
                .build(&g)
        };
        let single = build(ExecutionMode::SingleThreaded, TransportKind::InProcess);
        let socket = build(ExecutionMode::Sharded { shards: 2 }, TransportKind::Process);
        let mut bound = g.id_bound();
        for (i, batch) in stream.iter().enumerate() {
            assert_eq!(single.ingest(batch), socket.ingest(batch), "batch {i}");
            for e in batch {
                if let Event::AddNode { node } = *e {
                    bound = bound.max(node.idx() + 1);
                }
            }
            let nodes: Vec<NodeId> = (0..bound as u32).map(NodeId).collect();
            assert_eq!(
                socket.read_batch(&nodes),
                single.read_batch(&nodes),
                "seed {seed:#x}, batch {i}: socket transport diverged"
            );
            assert_eq!(
                socket.registry_stats().topo,
                single.registry_stats().topo,
                "seed {seed:#x}, batch {i}"
            );
        }
        let topo = socket.registry_stats().topo;
        assert!(
            topo.epochs >= 6,
            "seed {seed:#x}: {} mutation runs",
            topo.epochs
        );
        assert!(
            topo.fresh_overlay_nodes > 0 && topo.retired_overlay_nodes > 0,
            "seed {seed:#x}: the churn grows and shrinks the overlay"
        );
    }
}
