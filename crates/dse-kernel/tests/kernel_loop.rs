//! Integration tests driving the `SimKernel` component directly with
//! scripted peer processes: request/response round trips, coherence
//! transactions, shutdown, and failure injection.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use dse_kernel::kernel::{AppFactory, SimKernel};
use dse_kernel::netpath::send_msg;
use dse_kernel::{ClusterShared, Distribution, DseConfig, SimMsg};
use dse_msg::{Message, NodeId, RegionId, ReqId};
use dse_platform::{ClusterSpec, Platform};
use dse_sim::{ProcCtx, SimDuration, Simulator};

/// Build a 2-node cluster with kernels and return (sim, shared).
fn cluster(config: DseConfig) -> (Simulator<SimMsg>, Arc<ClusterShared>) {
    let spec = ClusterSpec::paper(Platform::linux_pentium2(), 2);
    let mut sim: Simulator<SimMsg> = Simulator::new();
    let cpus = (0..spec.machines_used())
        .map(|m| sim.add_resource(&format!("cpu{m}")))
        .collect();
    let shared = Arc::new(ClusterShared::new(spec, config, cpus));
    let factory: AppFactory = Arc::new(|_, _| Box::new(|_ctx| {}));
    let kernels = (0..2)
        .map(|n| {
            let kernel = SimKernel::new(NodeId(n), Arc::clone(&shared), Arc::clone(&factory));
            sim.spawn_component(&format!("kernel{n}"), kernel)
        })
        .collect();
    shared.set_kernels(kernels);
    (sim, shared)
}

/// A scripted peer on node 0 exchanging messages with kernel 1.
fn run_peer(
    config: DseConfig,
    setup: impl FnOnce(&ClusterShared) + Send + 'static,
    script: impl FnOnce(&mut ProcCtx<SimMsg>, &ClusterShared) + Send + 'static,
) -> Arc<ClusterShared> {
    let (mut sim, shared) = cluster(config);
    let s2 = Arc::clone(&shared);
    setup(&shared);
    sim.spawn("peer", move |ctx| {
        script(ctx, &s2);
        // Orderly shutdown of both kernels.
        for n in 0..2 {
            let k = s2.kernel_of(NodeId(n));
            ctx.send(
                k,
                SimDuration::from_nanos(1),
                SimMsg {
                    from_node: NodeId(0),
                    reply_to: ctx.id(),
                    bytes: Message::KernelShutdown.encode(),
                    ctx: None,
                },
            );
        }
    });
    sim.run();
    shared
}

fn send_and_await(
    ctx: &mut ProcCtx<SimMsg>,
    shared: &ClusterShared,
    to: NodeId,
    msg: Message,
) -> Message {
    let k = shared.kernel_of(to);
    let me = ctx.id();
    send_msg(ctx, shared, NodeId(0), to, k, me, &msg, None);
    let env = ctx.recv().expect("kernel reply");
    Message::decode(&env.msg.bytes).unwrap()
}

#[test]
fn remote_read_write_roundtrip() {
    let shared = run_peer(
        DseConfig::paper(),
        |shared| {
            // A region homed entirely on node 1.
            let r = shared.store.alloc(64, Distribution::OnNode(NodeId(1)));
            assert_eq!(r, RegionId(0));
        },
        |ctx, shared| {
            let w = send_and_await(
                ctx,
                shared,
                NodeId(1),
                Message::GmWriteReq {
                    req: ReqId(1),
                    region: RegionId(0),
                    offset: 8,
                    data: vec![5, 6, 7].into(),
                },
            );
            assert_eq!(w, Message::GmWriteAck { req: ReqId(1) });
            let r = send_and_await(
                ctx,
                shared,
                NodeId(1),
                Message::GmReadReq {
                    req: ReqId(2),
                    region: RegionId(0),
                    offset: 7,
                    len: 5,
                },
            );
            assert_eq!(
                r,
                Message::GmReadResp {
                    req: ReqId(2),
                    data: vec![0, 5, 6, 7, 0].into()
                }
            );
        },
    );
    let metrics = shared.metrics.snapshot();
    let served = |name| metrics.counter_sum_over_pes("kernel", name);
    assert_eq!(served("gm_remote_reads"), 1);
    assert_eq!(served("gm_remote_writes"), 1);
}

#[test]
fn remote_fetch_add_serializes() {
    let prev_sum = Arc::new(AtomicI64::new(0));
    let ps = Arc::clone(&prev_sum);
    run_peer(
        DseConfig::paper(),
        |shared| {
            let _ = shared.store.alloc(8, Distribution::OnNode(NodeId(1)));
        },
        move |ctx, shared| {
            for i in 0..5 {
                let resp = send_and_await(
                    ctx,
                    shared,
                    NodeId(1),
                    Message::GmFetchAddReq {
                        req: ReqId(i),
                        region: RegionId(0),
                        offset: 0,
                        delta: 10,
                    },
                );
                match resp {
                    Message::GmFetchAddResp { prev, .. } => {
                        assert_eq!(prev, i as i64 * 10);
                        ps.fetch_add(prev, Ordering::SeqCst);
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
        },
    );
    assert_eq!(prev_sum.load(Ordering::SeqCst), 10 + 20 + 30 + 40);
}

#[test]
fn write_with_cached_holder_defers_ack_until_invalidated() {
    // With the cache on: read once (leasing block 0 to node 0), then
    // write from node 0's peer... the holder here must be a *different*
    // node than the writer for an invalidation to occur. We stage node 0
    // as holder and write on behalf of node 0 — no invalidation — then
    // stage an artificial holder entry for node 1 and observe the
    // invalidation transaction through the stats.
    let shared = run_peer(
        DseConfig::paper().with_gm_cache(true),
        |shared| {
            let r = shared.store.alloc(1024, Distribution::OnNode(NodeId(1)));
            assert_eq!(r, RegionId(0));
        },
        |ctx, shared| {
            // Read a full cache block: kernel 1 registers node 0 as holder.
            let r = send_and_await(
                ctx,
                shared,
                NodeId(1),
                Message::GmReadReq {
                    req: ReqId(1),
                    region: RegionId(0),
                    offset: 0,
                    len: 1024,
                },
            );
            assert!(matches!(r, Message::GmReadResp { .. }));
            // The home records the lease; the data is the requester's to
            // install on completion.
            let holders = shared.cache.peek_holders(RegionId(0), 0, 512, NodeId(9));
            assert_eq!(holders, [NodeId(0)]);
            assert!(shared.cache.get(NodeId(0), RegionId(0), 0).is_none());
            // A write from node *1*'s perspective would exclude itself; we
            // are node 0's peer, so write as node 0 — the kernel excludes
            // node 0 and finds no other holder: immediate ack.
            let w = send_and_await(
                ctx,
                shared,
                NodeId(1),
                Message::GmWriteReq {
                    req: ReqId(2),
                    region: RegionId(0),
                    offset: 0,
                    data: vec![9; 16].into(),
                },
            );
            assert_eq!(w, Message::GmWriteAck { req: ReqId(2) });
        },
    );
    // The write (16 bytes at offset 0) cleared the directory entry for
    // block 0 only; block 1's registration from the 1024-byte read remains.
    assert!(shared
        .cache
        .take_holders(RegionId(0), 0, 512, NodeId(9))
        .is_empty());
    assert_eq!(
        shared.cache.take_holders(RegionId(0), 512, 512, NodeId(9)),
        vec![NodeId(0)]
    );
}

#[test]
fn invalidate_request_drops_blocks_and_acks() {
    run_peer(
        DseConfig::paper().with_gm_cache(true),
        |shared| {
            let r = shared.store.alloc(1024, Distribution::OnNode(NodeId(0)));
            assert_eq!(r, RegionId(0));
            // Pretend node 1 cached block 0.
            let block = [1u8; 512];
            let blocks = std::iter::once((0, &block[..]));
            assert!(shared.cache.install_data(NodeId(1), 0, RegionId(0), blocks));
        },
        |ctx, shared| {
            assert_eq!(shared.cache.cached_blocks(NodeId(1)), 1);
            let ack = send_and_await(
                ctx,
                shared,
                NodeId(1),
                Message::GmInvalidate {
                    req: ReqId(77),
                    region: RegionId(0),
                    offset: 0,
                    len: 512,
                },
            );
            assert_eq!(ack, Message::GmInvalidateAck { req: ReqId(77) });
            assert_eq!(shared.cache.cached_blocks(NodeId(1)), 0);
        },
    );
}

#[test]
fn kernels_exit_on_shutdown() {
    let (mut sim, shared) = cluster(DseConfig::paper());
    let s2 = Arc::clone(&shared);
    sim.spawn("stopper", move |ctx| {
        for n in 0..2 {
            let k = s2.kernel_of(NodeId(n));
            ctx.send(
                k,
                SimDuration::from_nanos(1),
                SimMsg {
                    from_node: NodeId(0),
                    reply_to: ctx.id(),
                    bytes: Message::KernelShutdown.encode(),
                    ctx: None,
                },
            );
        }
    });
    let report = sim.run();
    assert!(report.completed_named("kernel0"));
    assert!(report.completed_named("kernel1"));
    assert!(report.blocked_at_end.is_empty());
}

#[test]
#[should_panic(expected = "undecodable")]
fn corrupted_wire_bytes_panic_the_kernel() {
    let (mut sim, shared) = cluster(DseConfig::paper());
    let s2 = Arc::clone(&shared);
    sim.spawn("attacker", move |ctx| {
        let k = s2.kernel_of(NodeId(1));
        ctx.send(
            k,
            SimDuration::from_nanos(1),
            SimMsg {
                from_node: NodeId(0),
                reply_to: ctx.id(),
                bytes: vec![0xEE, 0xFF, 0x00],
                ctx: None,
            },
        );
    });
    sim.run();
}

#[test]
fn invoke_spawns_and_acks() {
    let ran = Arc::new(AtomicU64::new(0));
    let spec = ClusterSpec::paper(Platform::sunos_sparc(), 2);
    let mut sim: Simulator<SimMsg> = Simulator::new();
    let cpus = (0..spec.machines_used())
        .map(|m| sim.add_resource(&format!("cpu{m}")))
        .collect();
    let shared = Arc::new(ClusterShared::new(spec, DseConfig::paper(), cpus));
    let r2 = Arc::clone(&ran);
    let factory: AppFactory = Arc::new(move |rank, _pid| {
        let r = Arc::clone(&r2);
        Box::new(move |_ctx| {
            r.fetch_add(rank as u64 + 1, Ordering::SeqCst);
        })
    });
    let kernels = (0..2)
        .map(|n| {
            let kernel = SimKernel::new(NodeId(n), Arc::clone(&shared), Arc::clone(&factory));
            sim.spawn_component(&format!("kernel{n}"), kernel)
        })
        .collect();
    shared.set_kernels(kernels);
    let s2 = Arc::clone(&shared);
    sim.spawn("driver", move |ctx| {
        let resp = send_and_await(
            ctx,
            &s2,
            NodeId(1),
            Message::InvokeReq {
                req: ReqId(1),
                rank: 6,
                args: vec![],
            },
        );
        match resp {
            Message::InvokeAck { pid, .. } => {
                assert_eq!(pid.node(), NodeId(1));
                assert!(s2.app_proc(pid).is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
        for n in 0..2 {
            let k = s2.kernel_of(NodeId(n));
            ctx.send(
                k,
                SimDuration::from_nanos(1),
                SimMsg {
                    from_node: NodeId(0),
                    reply_to: ctx.id(),
                    bytes: Message::KernelShutdown.encode(),
                    ctx: None,
                },
            );
        }
    });
    sim.run();
    assert_eq!(ran.load(Ordering::SeqCst), 7); // rank 6 ran exactly once
}
