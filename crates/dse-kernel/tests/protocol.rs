//! `KernelProtocol` alone, over a recording fake port; then the same
//! scripted inbound sequence through the simulator's port and the live
//! port, which must send the same messages, with the same trace context,
//! to the same peers in the same order and record the same causal spans;
//! and the two things the ports differ in on purpose.

use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use dse_kernel::kernel::{AppFactory, SimKernel};
use dse_kernel::protocol::{lock_acquire, lock_release};
use dse_kernel::{
    BarrierCenter, CacheStore, ClusterShared, Coordinator, Distribution, DseConfig, GlobalStore,
    GmMode, KernelCount, KernelEnv, KernelEvent, KernelPort, KernelProtocol, KernelTask,
    LockCenter, Outbound, Party, SimMsg, CACHE_BLOCK, KERNEL_TXN_BASE,
};
use dse_msg::{GlobalPid, GmOp, Message, NodeId, RegionId, ReqId, TraceCtx};
use dse_obs::{FlightRecorder, Registry, TraceSpanKind, TraceSpanRec};
use dse_platform::{ClusterSpec, Platform};
use dse_sim::{SimDuration, Simulator};

const B: usize = CACHE_BLOCK;

/// Everything the protocol did through its port, in call order.
#[derive(Debug, Clone, PartialEq)]
enum Call {
    Charge(usize),
    Count(KernelCount),
    Lease(NodeId, u64),
    Drop(u64, usize),
    /// To the requester `(node, reply token)`.
    Send(NodeId, u32, Message),
    SendKernel(NodeId, Message),
    Served(u32, &'static str, bool),
    BarrierCompleted(u32, u32, u32),
    Error(NodeId, &'static str),
}

/// A recording [`KernelPort`]: node 0 of a cluster whose other nodes are
/// the test itself. The reply token of node `n`'s requester is `n + 100`,
/// so a token the protocol mixed up with a node shows.
struct FakePort {
    barriers: BarrierCenter<u32>,
    locks: LockCenter<u32>,
    calls: Vec<Call>,
}

impl FakePort {
    fn new(parties: usize) -> FakePort {
        FakePort {
            barriers: BarrierCenter::new(parties),
            locks: LockCenter::new(),
            calls: Vec::new(),
        }
    }

    /// Messages sent since the last call, with who they went to.
    fn take_sends(&mut self) -> Vec<(NodeId, Message)> {
        let sends = self
            .calls
            .iter()
            .filter_map(|c| match c {
                Call::Send(n, _, m) | Call::SendKernel(n, m) => Some((*n, m.clone())),
                _ => None,
            })
            .collect();
        self.calls.clear();
        sends
    }

    fn counted(&self, what: KernelCount) -> usize {
        self.calls
            .iter()
            .filter(|c| **c == Call::Count(what))
            .count()
    }
}

impl Coordinator for FakePort {
    type Reply = u32;

    fn barriers(&self) -> &BarrierCenter<u32> {
        &self.barriers
    }
    fn locks(&self) -> &LockCenter<u32> {
        &self.locks
    }
    fn count(&mut self, what: KernelCount) {
        self.calls.push(Call::Count(what));
    }
    fn send(&mut self, node: NodeId, to: u32, msg: Message) {
        self.calls.push(Call::Send(node, to, msg));
    }
    fn barrier_completed(&mut self, barrier: u32, epoch: u32, first: u32) {
        self.calls
            .push(Call::BarrierCompleted(barrier, epoch, first));
    }
}

impl KernelPort for FakePort {
    fn charge_copy(&mut self, bytes: usize) {
        self.calls.push(Call::Charge(bytes));
    }
    fn lease(
        &mut self,
        cache: &CacheStore,
        holder: NodeId,
        region: RegionId,
        block: u64,
        data: &[u8],
    ) -> bool {
        assert_eq!(data.len(), B, "a lease covers one whole block");
        self.calls.push(Call::Lease(holder, block));
        cache.grant(holder, region, block)
    }
    fn drop_replicas(&mut self, _: &CacheStore, _: RegionId, offset: u64, len: usize) {
        self.calls.push(Call::Drop(offset, len));
    }
    fn send_kernel(&mut self, node: NodeId, msg: Message) {
        self.calls.push(Call::SendKernel(node, msg));
    }
    fn served(&mut self, to: u32, resp: &Message, gated: bool) {
        self.calls.push(Call::Served(to, resp.label(), gated));
    }
    fn protocol_error(&mut self, from: NodeId, label: &'static str, _detail: &str) {
        self.calls.push(Call::Error(from, label));
    }
}

/// A store with one 4-block region homed on node 0, and the cache beside it.
fn home(nodes: usize) -> (GlobalStore, CacheStore, RegionId) {
    let store = GlobalStore::new(nodes);
    let region = store.alloc(4 * B, Distribution::OnNode(NodeId(0)));
    (store, CacheStore::new(nodes), region)
}

/// Feed `msg` as node `n`'s requester.
fn feed(
    p: &mut KernelProtocol<'_, u32>,
    port: &mut FakePort,
    n: u16,
    msg: Message,
) -> Option<Message> {
    p.handle(port, NodeId(n), n as u32 + 100, msg)
}

fn read(req: u64, region: RegionId, offset: u64, len: u32) -> Message {
    Message::GmReadReq {
        req: ReqId(req),
        region,
        offset,
        len,
    }
}

fn write(req: u64, region: RegionId, offset: u64, len: usize) -> Message {
    Message::GmWriteReq {
        req: ReqId(req),
        region,
        offset,
        data: vec![7; len].into(),
    }
}

/// `(holder, transaction id, offset, len)` of each send, all of which must
/// be invalidations.
fn invalidations(sends: &[(NodeId, Message)]) -> Vec<(NodeId, u64, u64, u32)> {
    sends
        .iter()
        .map(|(n, m)| match m {
            Message::GmInvalidate {
                req, offset, len, ..
            } => (*n, req.0, *offset, *len),
            other => panic!("expected only invalidations, got {other:?}"),
        })
        .collect()
}

fn ack(txn: u64) -> Message {
    Message::GmInvalidateAck { req: ReqId(txn) }
}

#[test]
fn wi_write_with_two_sharers_waits_for_both_acks() {
    let (store, cache, r) = home(4);
    let mut p = KernelProtocol::new(&store, Some(&cache), false);
    let mut port = FakePort::new(1);
    for n in [1, 2] {
        assert!(feed(&mut p, &mut port, n, read(1, r, 0, B as u32)).is_none());
    }
    port.calls.clear();
    assert!(feed(&mut p, &mut port, 3, write(9, r, 8, 16)).is_none());
    assert!(port
        .calls
        .contains(&Call::Served(103, "gm_write_ack", true)));
    assert_eq!(port.counted(KernelCount::InvalidationRound(2)), 1);
    let invs = invalidations(&port.take_sends());
    assert_eq!(
        invs.iter().map(|i| (i.0, i.2, i.3)).collect::<Vec<_>>(),
        [(NodeId(1), 8, 16), (NodeId(2), 8, 16)],
        "one invalidation per sharer, the writer excluded, the response withheld"
    );
    let txn = invs[0].1;
    assert!(txn & KERNEL_TXN_BASE != 0 && invs[1].1 == txn);
    feed(&mut p, &mut port, 1, ack(txn));
    assert!(port.take_sends().is_empty(), "one ack of two: still gated");
    feed(&mut p, &mut port, 2, ack(txn));
    assert_eq!(
        port.calls,
        [Call::Send(
            NodeId(3),
            103,
            Message::GmWriteAck { req: ReqId(9) }
        )],
        "the last ack opens the gate: the response goes out once"
    );
    port.calls.clear();
    // The gate is gone: a third ack is a peer's error, not a second send.
    feed(&mut p, &mut port, 2, ack(txn));
    assert_eq!(port.calls, [Call::Error(NodeId(2), "gm_invalidate_ack")]);
}

#[test]
fn a_batch_that_wrote_two_shared_ranges_has_one_gate_and_one_response() {
    let (store, cache, r) = home(3);
    let mut p = KernelProtocol::new(&store, Some(&cache), false);
    let mut port = FakePort::new(1);
    feed(&mut p, &mut port, 1, read(1, r, 0, B as u32));
    feed(&mut p, &mut port, 1, read(2, r, 2 * B as u64, B as u32));
    port.calls.clear();
    let batch = Message::GmBatchReq {
        req: ReqId(5),
        ops: vec![
            GmOp::Write {
                region: r,
                offset: 0,
                data: vec![1; 8].into(),
            },
            GmOp::Read {
                region: r,
                offset: B as u64,
                len: 8,
            },
            GmOp::Write {
                region: r,
                offset: 2 * B as u64,
                data: vec![2; 8].into(),
            },
        ],
    };
    feed(&mut p, &mut port, 2, batch);
    // Charge order: each operation's copy is charged, and its directory
    // step sends, before the next operation executes.
    let order: Vec<&Call> = port
        .calls
        .iter()
        .filter(|c| matches!(c, Call::Charge(_) | Call::SendKernel(..) | Call::Served(..)))
        .collect();
    assert!(
        matches!(
            order[..],
            [
                Call::Charge(8),
                Call::SendKernel(NodeId(1), _),
                Call::Charge(8),
                Call::Charge(8),
                Call::SendKernel(NodeId(1), _),
                Call::Served(102, "gm_batch_resp", true),
            ]
        ),
        "{order:?}"
    );
    let invs = invalidations(&port.take_sends());
    assert_eq!(invs.len(), 2);
    assert_eq!(invs[0].1, invs[1].1, "both ranges gate the same response");
    feed(&mut p, &mut port, 1, ack(invs[0].1));
    assert!(port.take_sends().is_empty());
    feed(&mut p, &mut port, 1, ack(invs[0].1));
    let sends = port.take_sends();
    assert!(
        matches!(&sends[..], [(NodeId(2), Message::GmBatchResp { req: ReqId(5), reads })] if reads.len() == 1),
        "{sends:?}"
    );
}

#[test]
fn release_consistency_counts_the_deferral_and_answers_at_once() {
    let (store, cache, r) = home(3);
    let mut p = KernelProtocol::new(&store, Some(&cache), true);
    let mut port = FakePort::new(1);
    feed(&mut p, &mut port, 1, read(1, r, 0, B as u32));
    port.calls.clear();
    feed(&mut p, &mut port, 2, write(2, r, 0, 8));
    assert_eq!(port.counted(KernelCount::RcDeferred), 1);
    assert!(port
        .calls
        .contains(&Call::Served(102, "gm_write_ack", false)));
    assert_eq!(
        port.take_sends(),
        [(NodeId(2), Message::GmWriteAck { req: ReqId(2) })],
        "no invalidation, no gate"
    );
    // The sharer's lease is still there for the next writer to count.
    feed(&mut p, &mut port, 2, write(3, r, 0, 8));
    assert_eq!(port.counted(KernelCount::RcDeferred), 1);
}

#[test]
fn a_read_leases_exactly_the_whole_blocks_it_covers() {
    let (store, cache, r) = home(2);
    let mut p = KernelProtocol::new(&store, Some(&cache), false);
    let mut port = FakePort::new(1);
    // Two and a half blocks from the start of block 1.
    let len = 2 * B + B / 2;
    feed(&mut p, &mut port, 1, read(1, r, B as u64, len as u32));
    assert_eq!(
        port.calls[..5],
        [
            Call::Charge(len),
            Call::Count(KernelCount::RemoteRead(len)),
            Call::Lease(NodeId(1), 1),
            Call::Lease(NodeId(1), 2),
            Call::Count(KernelCount::DirLeases(2)),
        ]
    );
    // Leased again, nothing is fresh.
    port.calls.clear();
    feed(&mut p, &mut port, 1, read(2, r, B as u64, len as u32));
    assert_eq!(port.counted(KernelCount::DirLeases(2)), 0);
    // Without a cache there is no directory step at all.
    let mut plain = KernelProtocol::new(&store, None, false);
    port.calls.clear();
    feed(&mut plain, &mut port, 1, read(3, r, B as u64, len as u32));
    assert!(!port.calls.iter().any(|c| matches!(c, Call::Lease(..))));
}

#[test]
fn fetch_add_gates_like_an_eight_byte_write() {
    let (store, cache, r) = home(3);
    let mut p = KernelProtocol::new(&store, Some(&cache), false);
    let mut port = FakePort::new(1);
    feed(&mut p, &mut port, 1, read(1, r, B as u64, B as u32));
    port.calls.clear();
    let fadd = Message::GmFetchAddReq {
        req: ReqId(4),
        region: r,
        offset: B as u64 + 16,
        delta: 3,
    };
    feed(&mut p, &mut port, 2, fadd);
    assert!(!port.calls.iter().any(|c| matches!(c, Call::Charge(_))));
    assert_eq!(port.counted(KernelCount::FetchAdd), 1);
    let invs = invalidations(&port.take_sends());
    assert_eq!(
        invs.iter().map(|i| (i.0, i.2, i.3)).collect::<Vec<_>>(),
        [(NodeId(1), B as u64 + 16, 8)]
    );
    feed(&mut p, &mut port, 1, ack(invs[0].1));
    assert_eq!(
        port.take_sends(),
        [(
            NodeId(2),
            Message::GmFetchAddResp {
                req: ReqId(4),
                prev: 0
            }
        )]
    );
}

#[test]
fn an_invalidate_drops_this_nodes_replicas_and_acks() {
    let (store, cache, r) = home(2);
    let mut p = KernelProtocol::new(&store, Some(&cache), false);
    let mut port = FakePort::new(1);
    let inv = Message::GmInvalidate {
        req: ReqId(77),
        region: r,
        offset: 8,
        len: 16,
    };
    feed(&mut p, &mut port, 1, inv);
    assert_eq!(
        port.calls,
        [
            Call::Drop(8, 16),
            Call::Count(KernelCount::DirInval),
            Call::Served(101, "gm_invalidate_ack", false),
            Call::Send(NodeId(1), 101, ack(77)),
        ]
    );
}

fn pid(n: u16) -> GlobalPid {
    GlobalPid::new(NodeId(n), 1)
}

#[test]
fn a_barrier_releases_earlier_waiters_in_arrival_order_then_the_completer() {
    let (store, _, _) = home(4);
    let mut p = KernelProtocol::new(&store, None, false);
    let mut port = FakePort::new(4);
    for epoch in 0..2 {
        for n in [2, 0, 3] {
            let enter = Message::BarrierEnter {
                barrier: 6,
                pid: pid(n),
            };
            assert!(feed(&mut p, &mut port, n, enter).is_none());
        }
        assert!(port.calls.is_empty(), "an incomplete round waits");
        let enter = Message::BarrierEnter {
            barrier: 6,
            pid: pid(1),
        };
        feed(&mut p, &mut port, 1, enter);
        let release = Message::BarrierRelease { barrier: 6, epoch };
        assert_eq!(
            port.calls,
            [
                Call::Count(KernelCount::BarrierEpoch),
                Call::Send(NodeId(2), 102, release.clone()),
                Call::Send(NodeId(0), 100, release.clone()),
                Call::Send(NodeId(3), 103, release.clone()),
                Call::BarrierCompleted(6, epoch, 102),
                Call::Send(NodeId(1), 101, release),
            ]
        );
        port.calls.clear();
    }
}

#[test]
fn the_lock_queue_is_fifo_across_releases() {
    let (store, _, _) = home(4);
    let mut p = KernelProtocol::new(&store, None, false);
    let mut port = FakePort::new(4);
    let lock_req = |n: u16| Message::LockReq {
        req: ReqId(n as u64 * 10),
        lock: 3,
        pid: pid(n),
    };
    let unlock = |n: u16| Message::UnlockReq {
        lock: 3,
        pid: pid(n),
    };
    let grant = |n: u16| {
        let msg = Message::LockGrant {
            req: ReqId(n as u64 * 10),
            lock: 3,
        };
        (NodeId(n), msg)
    };
    feed(&mut p, &mut port, 2, lock_req(2));
    assert_eq!(
        port.take_sends(),
        [grant(2)],
        "a free lock is granted at once"
    );
    feed(&mut p, &mut port, 3, lock_req(3));
    feed(&mut p, &mut port, 1, lock_req(1));
    assert!(port.take_sends().is_empty(), "a held lock queues");
    feed(&mut p, &mut port, 2, unlock(2));
    assert_eq!(port.take_sends(), [grant(3)]);
    feed(&mut p, &mut port, 3, unlock(3));
    assert_eq!(port.take_sends(), [grant(1)]);
    feed(&mut p, &mut port, 1, unlock(1));
    assert!(port.take_sends().is_empty());
    assert_eq!(
        port.counted(KernelCount::LockGrant),
        0,
        "cleared with the sends"
    );
    // The own-node library calls are the same functions, on the same port.
    let me = Party {
        pid: pid(0),
        node: NodeId(0),
        reply_to: 100,
        req: ReqId(1),
    };
    lock_acquire(&mut port, 3, me);
    lock_release(&mut port, 3, pid(0));
    assert_eq!(port.counted(KernelCount::LockGrant), 1);
}

#[test]
fn what_is_not_the_protocols_comes_back_untouched() {
    let (store, _, _) = home(1);
    let mut p = KernelProtocol::new(&store, None, false);
    let mut port = FakePort::new(1);
    for msg in [
        Message::KernelShutdown,
        Message::ExitNotice {
            pid: pid(0),
            status: 0,
        },
        Message::GmWriteAck { req: ReqId(1) },
    ] {
        assert_eq!(feed(&mut p, &mut port, 0, msg.clone()), Some(msg));
    }
    assert!(port.calls.is_empty());
}

// ---------------------------------------------------------------------------
// The same script through both real ports.
// ---------------------------------------------------------------------------

/// What nodes 1 and 2 send node 0's kernel, in order. Every `GmInvalidate`
/// the kernel sends is acknowledged by its recipient before the next entry
/// (the acknowledgements carry the kernel's own transaction ids, so they
/// cannot be scripted ahead).
fn script(region: RegionId) -> Vec<(u16, Message)> {
    let b = B as u64;
    vec![
        (1, read(1, region, 0, 2 * B as u32)),
        (2, read(1, region, 0, B as u32)),
        (2, write(2, region, 8, 16)),
        (
            1,
            Message::GmFetchAddReq {
                req: ReqId(2),
                region,
                offset: b,
                delta: 5,
            },
        ),
        (2, read(3, region, b, B as u32)),
        (
            1,
            Message::GmBatchReq {
                req: ReqId(3),
                ops: vec![
                    GmOp::Write {
                        region,
                        offset: b,
                        data: vec![3; 8].into(),
                    },
                    GmOp::Read {
                        region,
                        offset: 3 * b,
                        len: 8,
                    },
                ],
            },
        ),
        (
            2,
            Message::BarrierEnter {
                barrier: 1,
                pid: pid(2),
            },
        ),
        (
            1,
            Message::LockReq {
                req: ReqId(4),
                lock: 9,
                pid: pid(1),
            },
        ),
        (
            2,
            Message::LockReq {
                req: ReqId(4),
                lock: 9,
                pid: pid(2),
            },
        ),
        (
            1,
            Message::BarrierEnter {
                barrier: 1,
                pid: pid(1),
            },
        ),
        (
            1,
            Message::UnlockReq {
                lock: 9,
                pid: pid(1),
            },
        ),
        // The third party is a second process on node 1.
        (
            1,
            Message::BarrierEnter {
                barrier: 1,
                pid: GlobalPid::new(NodeId(1), 2),
            },
        ),
        (
            2,
            Message::UnlockReq {
                lock: 9,
                pid: pid(2),
            },
        ),
    ]
}

/// The trace context the `i`-th scripted message carries: every request a
/// requester would wait on names a span of node `n`'s trace; an unlock is
/// sent untraced.
fn script_ctx(i: usize, n: u16, msg: &Message) -> Option<TraceCtx> {
    (!matches!(msg, Message::UnlockReq { .. })).then_some(TraceCtx {
        trace: 1000 * n as u64,
        parent: 1000 * n as u64 + 1 + i as u64,
    })
}

/// What a kernel did under the script: every message it sent, to which
/// node and with what trace context, and the spans it recorded.
type Trail = (Vec<(u16, Message, Option<TraceCtx>)>, Vec<TraceSpanRec>);

/// What a kernel counted under the script: its `requests_served` and the
/// number of its `service_ns` samples.
type Services = (u64, u64);

/// PE 0's `requests_served` and `service_ns` sample count in `metrics`.
fn services(metrics: &Registry) -> Services {
    let snap = metrics.snapshot();
    let served = snap.counter("kernel", "requests_served", Some(0));
    let samples = snap.histogram("kernel", "service_ns", Some(0));
    (served.unwrap_or(0), samples.map_or(0, |h| h.count()))
}

/// Node 0's simulated kernel under the script; nodes 1 and 2 are one
/// simulation process each, standing in for both the node's kernel and its
/// application, which logs what arrives.
fn trail_through_the_simulator(mode: GmMode) -> Trail {
    run_through_the_simulator(mode).0
}

/// [`trail_through_the_simulator`], and what the kernel counted.
fn run_through_the_simulator(mode: GmMode) -> (Trail, Services) {
    let spec = ClusterSpec::paper(Platform::linux_pentium2(), 3);
    let mut sim: Simulator<SimMsg> = Simulator::new();
    let cpus = (0..spec.machines_used())
        .map(|m| sim.add_resource(&format!("cpu{m}")))
        .collect();
    let config = DseConfig::paper()
        .with_gm_cache(true)
        .with_gm_mode(mode)
        .with_tracing(true);
    let shared = Arc::new(ClusterShared::new(spec, config, cpus));
    let region = shared.store.alloc(4 * B, Distribution::OnNode(NodeId(0)));
    let log = Arc::new(Mutex::new(Vec::new()));
    let factory: AppFactory = Arc::new(|_, _| Box::new(|_ctx| {}));
    let kernel = sim.spawn_component(
        "kernel0",
        SimKernel::new(NodeId(0), Arc::clone(&shared), factory),
    );
    let mut procs = vec![kernel];
    for n in 1..3u16 {
        let log = Arc::clone(&log);
        procs.push(sim.spawn(&format!("node{n}"), move |ctx| {
            while let Some(env) = ctx.recv() {
                let msg = Message::decode(&env.msg.bytes).unwrap();
                if let Message::GmInvalidate { req, .. } = msg {
                    let ack = SimMsg {
                        from_node: NodeId(n),
                        reply_to: ctx.id(),
                        bytes: Message::GmInvalidateAck { req }.encode(),
                        ctx: None,
                    };
                    ctx.send(env.msg.reply_to, SimDuration::from_nanos(1), ack);
                }
                log.lock().push((n, msg, env.msg.ctx));
            }
        }));
    }
    shared.set_kernels(procs.clone());
    sim.spawn("script", move |ctx| {
        for (i, (n, msg)) in script(region).into_iter().enumerate() {
            let sm = SimMsg {
                from_node: NodeId(n),
                reply_to: procs[n as usize],
                bytes: msg.encode(),
                ctx: script_ctx(i, n, &msg),
            };
            ctx.send(kernel, SimDuration::from_nanos(1), sm);
            // Long enough for the kernel to finish, acks included.
            ctx.sleep(SimDuration::from_millis(50));
        }
        let stop = SimMsg {
            from_node: NodeId(0),
            reply_to: ctx.id(),
            bytes: Message::KernelShutdown.encode(),
            ctx: None,
        };
        ctx.send(kernel, SimDuration::from_nanos(1), stop);
    });
    sim.run();
    let log = log.lock().clone();
    let spans = shared.trace_sink.take_streams(3).remove(0);
    ((log, spans), services(&shared.metrics))
}

/// PE 0's live `KernelTask` under the same script.
fn trail_through_the_live_task(mode: GmMode) -> Trail {
    run_through_the_live_task(mode).0
}

/// [`trail_through_the_live_task`], and what the task counted.
fn run_through_the_live_task(mode: GmMode) -> (Trail, Services) {
    let store = GlobalStore::new(3);
    let region = store.alloc(4 * B, Distribution::OnNode(NodeId(0)));
    let (metrics, flight) = (Registry::new(), FlightRecorder::with_capacity(4));
    let (cache, guard) = (CacheStore::new(3), Mutex::new(0));
    let env = KernelEnv {
        pe: 0,
        nprocs: 3,
        store: &store,
        metrics: &metrics,
        flight: &flight,
        cache: Some(&cache),
        gm_mode: mode,
        install_guard: &guard,
        engine_t0: Instant::now(),
        run_start: Instant::now(),
    };
    let mut task = KernelTask::new(env, None, Duration::from_millis(50), true);
    let mut log = Vec::new();
    let mut inbound: Vec<_> = script(region)
        .into_iter()
        .enumerate()
        .map(|(i, (n, msg))| (n, script_ctx(i, n, &msg), msg))
        .collect();
    inbound.reverse();
    while let Some((n, ctx, msg)) = inbound.pop() {
        let from = n as u32;
        task.poll(KernelEvent::Message { from, msg, ctx });
        for out in task.drain_outbox() {
            let Outbound::Wire { to, msg, ctx, .. } = out else {
                panic!("nothing in the script is for PE 0's own application");
            };
            if let Message::GmInvalidate { req, .. } = msg {
                inbound.push((to as u16, None, Message::GmInvalidateAck { req }));
            }
            log.push((to as u16, msg, ctx));
        }
    }
    ((log, task.finish()), services(&metrics))
}

#[test]
fn both_ports_send_the_same_messages_in_the_same_order() {
    for mode in [GmMode::WriteInvalidate, GmMode::ReleaseConsistency] {
        let (sim, sim_spans) = trail_through_the_simulator(mode);
        let (live, live_spans) = trail_through_the_live_task(mode);
        assert_eq!(sim, live, "{mode:?}");
        let gated = sim
            .iter()
            .filter(|(_, m, _)| matches!(m, Message::GmInvalidate { .. }))
            .count();
        match mode {
            // The write and the batch each find node 1's or node 2's
            // replica; the fetch-add finds node 1's own only.
            GmMode::WriteInvalidate => assert_eq!(gated, 2, "{sim:?}"),
            GmMode::ReleaseConsistency => assert_eq!(gated, 0),
        }
        assert_eq!(sim.len(), 13 - 2 + gated, "one answer each, unlocks none");

        // Everything a waiter gets back names the span that answers it; an
        // invalidation, kernel to kernel, carries nothing.
        for (_, msg, ctx) in &sim {
            let plain = matches!(msg, Message::GmInvalidate { .. });
            assert_eq!(ctx.is_none(), plain, "{msg:?}");
        }
        // One clock is virtual and one is the wall: the spans agree in
        // everything but their times.
        let timeless = |spans: &[TraceSpanRec]| -> Vec<TraceSpanRec> {
            let zero = |s: &TraceSpanRec| TraceSpanRec {
                start_ns: 0,
                end_ns: 0,
                ..*s
            };
            spans.iter().map(zero).collect()
        };
        assert_eq!(timeless(&sim_spans), timeless(&live_spans), "{mode:?}");
        assert!(sim_spans.iter().all(|s| s.start_ns <= s.end_ns));
        let count = |kind| sim_spans.iter().filter(|s| s.kind == kind).count();
        assert_eq!(count(TraceSpanKind::Serve), 6, "six GM requests");
        assert_eq!(count(TraceSpanKind::LockGrant), 2);
        assert_eq!(count(TraceSpanKind::BarrierRelease), 1, "one per round");
        assert_eq!(sim_spans.len(), 9);
    }
}

/// One driver, one count: both engines end a service at every message the
/// kernel handles — GM requests, barrier and lock traffic, gate acks — and
/// record the same serve spans.
#[test]
fn both_engines_count_every_handled_message_as_one_service() {
    for mode in [GmMode::WriteInvalidate, GmMode::ReleaseConsistency] {
        let ((sim, sim_spans), sim_served) = run_through_the_simulator(mode);
        let ((_, live_spans), live_served) = run_through_the_live_task(mode);
        let acks = sim
            .iter()
            .filter(|(_, m, _)| matches!(m, Message::GmInvalidate { .. }))
            .count() as u64;
        assert_eq!(sim_served, (13 + acks, 13 + acks), "{mode:?}");
        assert_eq!(live_served, sim_served, "{mode:?}");
        let serves = |spans: &[TraceSpanRec]| -> Vec<(u64, u32, u64, u64)> {
            let key = |s: &TraceSpanRec| (s.span, s.peer, s.seq, s.bytes);
            let serve = |s: &&TraceSpanRec| s.kind == TraceSpanKind::Serve;
            spans.iter().filter(serve).map(key).collect()
        };
        assert_eq!(serves(&sim_spans).len(), 6, "{mode:?}");
        assert_eq!(serves(&sim_spans), serves(&live_spans), "{mode:?}");
    }
}

/// A peer message the protocol has no place for aborts the live task with
/// a `PROTOCOL` frame; the simulated kernel, whose peers are the simulator
/// itself, panics with the same detail.
fn assert_sim_kernel_panics(msg: Message, names: &str) {
    let spec = ClusterSpec::paper(Platform::linux_pentium2(), 2);
    let mut sim: Simulator<SimMsg> = Simulator::new();
    let cpus = (0..spec.machines_used())
        .map(|m| sim.add_resource(&format!("cpu{m}")))
        .collect();
    let shared = Arc::new(ClusterShared::new(spec, DseConfig::paper(), cpus));
    let region = shared.store.alloc(8, Distribution::OnNode(NodeId(0)));
    let factory: AppFactory = Arc::new(|_, _| Box::new(|_ctx| {}));
    let kernel = sim.spawn_component(
        "kernel0",
        SimKernel::new(NodeId(0), Arc::clone(&shared), factory),
    );
    shared.set_kernels(vec![kernel, kernel]);
    sim.spawn("node1", move |ctx| {
        for msg in [read(1, region, 0, 8), msg] {
            let sm = SimMsg {
                from_node: NodeId(1),
                reply_to: ctx.id(),
                bytes: msg.encode(),
                ctx: None,
            };
            ctx.send(kernel, SimDuration::from_nanos(1), sm);
            ctx.sleep(SimDuration::from_millis(50));
        }
    });
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run()));
    let payload = run.expect_err("a message the protocol has no place for must stop the run");
    let text = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    let detail = format!("{names} from PE 1: ");
    assert!(text.contains(&detail), "{text}");
}

#[test]
fn the_sim_kernel_panics_on_an_unexpected_message_with_the_live_detail() {
    let ack = Message::InvokeAck {
        req: ReqId(3),
        pid: GlobalPid::new(NodeId(1), 1),
    };
    assert_sim_kernel_panics(ack, "invoke_ack");
}

#[test]
fn the_sim_kernel_panics_on_an_ack_for_a_gate_never_opened() {
    let ack = Message::GmInvalidateAck {
        req: ReqId(KERNEL_TXN_BASE | 41),
    };
    assert_sim_kernel_panics(ack, "gm_invalidate_ack");
}

// ---------------------------------------------------------------------------
// The two deliberate differences (the simulator's side of each).
// ---------------------------------------------------------------------------

/// Dedup is the live port's and the simulator cannot reach it: two
/// requesting processes on one node, each with its own id generator, may
/// use equal request ids, and both are served.
#[test]
fn the_sim_kernel_serves_two_requesters_on_one_node_with_equal_req_ids() {
    let spec = ClusterSpec::paper(Platform::linux_pentium2(), 2);
    let mut sim: Simulator<SimMsg> = Simulator::new();
    let cpus = (0..spec.machines_used())
        .map(|m| sim.add_resource(&format!("cpu{m}")))
        .collect();
    let shared = Arc::new(ClusterShared::new(spec, DseConfig::paper(), cpus));
    let cell = shared.store.alloc(8, Distribution::OnNode(NodeId(1)));
    let factory: AppFactory = Arc::new(|_, _| Box::new(|_ctx| {}));
    let kernel = sim.spawn_component(
        "kernel1",
        SimKernel::new(NodeId(1), Arc::clone(&shared), factory),
    );
    shared.set_kernels(vec![kernel, kernel]);
    let prevs = Arc::new(Mutex::new(Vec::new()));
    for name in ["a", "b"] {
        let prevs = Arc::clone(&prevs);
        sim.spawn(name, move |ctx| {
            let fadd = Message::GmFetchAddReq {
                req: ReqId(0),
                region: cell,
                offset: 0,
                delta: 1,
            };
            let sm = SimMsg {
                from_node: NodeId(0),
                reply_to: ctx.id(),
                bytes: fadd.encode(),
                ctx: None,
            };
            ctx.send(kernel, SimDuration::from_nanos(1), sm);
            let env = ctx.recv().expect("each requester gets its own answer");
            match Message::decode(&env.msg.bytes).unwrap() {
                Message::GmFetchAddResp {
                    req: ReqId(0),
                    prev,
                } => prevs.lock().push(prev),
                other => panic!("unexpected {other:?}"),
            }
        });
    }
    sim.spawn("stop", move |ctx| {
        ctx.sleep(SimDuration::from_millis(50));
        let stop = SimMsg {
            from_node: NodeId(0),
            reply_to: ctx.id(),
            bytes: Message::KernelShutdown.encode(),
            ctx: None,
        };
        ctx.send(kernel, SimDuration::from_nanos(1), stop);
    });
    sim.run();
    let mut prevs = prevs.lock().clone();
    prevs.sort_unstable();
    assert_eq!(prevs, [0, 1], "executed twice, not replayed");
    assert_eq!(shared.store.read(cell, 0, 8).unwrap(), 2i64.to_le_bytes());
}
