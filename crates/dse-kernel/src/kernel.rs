//! The simulated DSE kernel: the simulator's driver of [`KernelProtocol`]
//! and its [`KernelPort`].
//!
//! One kernel runs per node. Under the new organization it is a library
//! linked into the application's process, woken by async-I/O signals when a
//! remote request arrives; in the simulator it is its own scheduled entity
//! whose service time is charged to the node's machine CPU — exactly the
//! semantics of signal-driven interruption: kernel work steals CPU from the
//! co-resident application. The protocol is the shared machine; this file
//! owns the receive loop, process management and the telemetry plane.

use std::sync::Arc;

use dse_msg::{GlobalPid, Message, NodeId, RegionId};
use dse_obs::{DeltaTracker, FlightEventKind, MetricKey, SpanKind, TelemetryDelta};
use dse_sim::{ProcCtx, ProcId, RecvResult};

use crate::cache::CacheStore;
use crate::config::GmMode;
use crate::netpath::{charge_recv, send_msg};
use crate::protocol::{KernelCount, KernelPort, KernelProtocol};
use crate::shared::ClusterShared;
use crate::simmsg::SimMsg;
use crate::sync::{BarrierCenter, LockCenter};
use crate::watchdog::StallWatchdog;

/// A ready-to-run application process body (built by the API layer).
pub type AppBody = Box<dyn FnOnce(&mut ProcCtx<SimMsg>) + Send>;

/// Factory turning (rank, pid) into an application process body; supplied
/// by the program harness so the kernel stays independent of the API crate.
pub type AppFactory = Arc<dyn Fn(u32, GlobalPid) -> AppBody + Send + Sync>;

/// The simulator behind [`KernelPort`]: a simulation process acting for
/// `node` — its kernel, or an application process in an own-node call into
/// the linked library. Charges land on the node's CPU and block the process
/// for their duration; a send is charged, then booked on the wire.
pub struct SimKernelPort<'a> {
    /// The acting simulation process.
    pub ctx: &'a mut ProcCtx<SimMsg>,
    shared: &'a ClusterShared,
    node: NodeId,
    /// The requester span (kind, seq) of the GM request served last.
    serviced: Option<(SpanKind, u64)>,
}

impl<'a> SimKernelPort<'a> {
    /// A port for the process behind `ctx`, acting for `node`.
    pub fn new(
        ctx: &'a mut ProcCtx<SimMsg>,
        shared: &'a ClusterShared,
        node: NodeId,
    ) -> SimKernelPort<'a> {
        SimKernelPort {
            ctx,
            shared,
            node,
            serviced: None,
        }
    }
}

impl KernelPort for SimKernelPort<'_> {
    type Reply = ProcId;

    fn barriers(&self) -> &BarrierCenter {
        &self.shared.barriers
    }

    fn locks(&self) -> &LockCenter {
        &self.shared.locks
    }

    fn charge_copy(&mut self, bytes: usize) {
        self.ctx.use_resource(
            self.shared.cpu_of(self.node),
            self.shared.cost(self.node).mem_copy(bytes),
        );
    }

    fn count(&mut self, what: KernelCount) {
        self.shared.stats.update(self.node, |s| match what {
            KernelCount::RemoteRead(bytes) => {
                s.gm_remote_reads += 1;
                s.gm_bytes_read += bytes as u64;
            }
            KernelCount::RemoteWrite(bytes) => {
                s.gm_remote_writes += 1;
                s.gm_bytes_written += bytes as u64;
            }
            KernelCount::FetchAdd => s.fetch_adds += 1,
            KernelCount::DirLeases(n) => s.dir_leases += n,
            KernelCount::DirInval => s.dir_invals += 1,
            KernelCount::RcDeferred => s.rc_deferred_invals += 1,
            KernelCount::InvalidationRound(holders) => {
                s.invalidation_rounds += 1;
                s.cache_invalidations += holders as u64;
            }
            KernelCount::BarrierEpoch => s.barrier_epochs += 1,
            KernelCount::LockGrant => s.lock_grants += 1,
        });
    }

    /// The home installs the data in the requester's cache itself: one
    /// address space, and the requester hits it from this moment on.
    fn lease(
        &mut self,
        cache: &CacheStore,
        holder: NodeId,
        region: RegionId,
        block: u64,
        data: &[u8],
    ) -> bool {
        cache.install(holder, region, block, data.to_vec())
    }

    fn drop_replicas(&mut self, cache: &CacheStore, region: RegionId, offset: u64, len: usize) {
        cache.drop_range(self.node, region, offset, len);
    }

    fn send(&mut self, node: NodeId, to: ProcId, msg: Message) {
        let me = self.ctx.id();
        send_msg(self.ctx, self.shared, self.node, node, to, me, &msg);
    }

    fn send_kernel(&mut self, node: NodeId, msg: Message) {
        self.send(node, self.shared.kernel_of(node), msg);
    }

    fn served(&mut self, _to: ProcId, resp: &Message, _gated: bool) {
        self.serviced = match resp {
            Message::GmReadResp { req, .. } => Some((SpanKind::GmRead, req.0)),
            Message::GmWriteAck { req } => Some((SpanKind::GmWrite, req.0)),
            Message::GmFetchAddResp { req, .. } => Some((SpanKind::GmFetchAdd, req.0)),
            Message::GmBatchResp { req, .. } => Some((SpanKind::GmBatch, req.0)),
            _ => None,
        };
    }

    fn protocol_error(&mut self, from: NodeId, label: &'static str, detail: &str) {
        panic!("kernel {}: {label} from {from}: {detail}", self.node)
    }
}

/// The kernel loop for `node`: receive, decode, charge the receive path,
/// hand the message to the shared [`KernelProtocol`]; process management
/// and the telemetry plane are this driver's own. Runs until a
/// `KernelShutdown` arrives (or the simulation drains).
pub fn kernel_main(
    ctx: &mut ProcCtx<SimMsg>,
    node: NodeId,
    shared: Arc<ClusterShared>,
    factory: AppFactory,
) {
    let mut next_local_pid: u16 = 1;
    let mut protocol = KernelProtocol::new(
        &shared.store,
        shared.config.gm_cache.then_some(&shared.cache),
        shared.config.gm_mode == GmMode::ReleaseConsistency,
    );
    let mut port = SimKernelPort::new(ctx, &shared, node);
    // Telemetry plane (all `None` when `config.telemetry` is off, leaving
    // the classic blocking-recv loop and zero extra traffic).
    let telemetry = shared.config.telemetry.clone();
    let mut tracker = telemetry
        .as_ref()
        .map(|_| DeltaTracker::new(node.0 as u32, node == NodeId(0)));
    let mut watchdog = if node == NodeId(0) {
        telemetry.as_ref().map(|t| {
            StallWatchdog::new(t.watchdog_deadline.as_nanos()).with_escalation(t.escalate_after)
        })
    } else {
        None
    };
    let mut next_emit = telemetry.as_ref().map(|t| port.ctx.now() + t.interval);
    loop {
        let env = match next_emit {
            Some(at) => match port.ctx.recv_deadline(at) {
                RecvResult::Msg(env) => env,
                RecvResult::Timeout => {
                    // Idle tick: ship this PE's metric delta in-band and
                    // (on node 0) poll the stall watchdog.
                    emit_delta(port.ctx, &shared, node, tracker.as_mut().unwrap());
                    if let Some(wd) = watchdog.as_mut() {
                        poll_watchdog(&shared, wd, port.ctx.now().as_nanos());
                    }
                    next_emit = Some(port.ctx.now() + telemetry.as_ref().unwrap().interval);
                    continue;
                }
                RecvResult::Shutdown => break,
            },
            None => match port.ctx.recv() {
                Some(env) => env,
                None => break,
            },
        };
        let sm = env.msg;
        let msg = Message::decode(&sm.bytes).expect("kernel received undecodable message");
        if matches!(msg, Message::KernelShutdown) {
            // Ship the final absolute state before exiting, so the cluster
            // rollup at the aggregator matches the direct end-of-run rollup
            // exactly even if incremental deltas were still in flight.
            if let Some(tr) = tracker.as_mut() {
                final_flush(port.ctx.now().as_nanos(), &shared, node, tr);
            }
            break;
        }
        // Async-I/O receive path: signal delivery + protocol processing on
        // this node's CPU (stealing time from the co-resident app).
        charge_recv(port.ctx, &shared, node, sm.bytes.len());
        let service_start = port.ctx.now();
        // Telemetry deltas are control-plane traffic: they pay the receive
        // cost like any message but are not "requests served".
        let mut in_band_telemetry = false;
        match protocol.handle(&mut port, sm.from_node, sm.reply_to, msg) {
            None => {}
            Some(Message::Telemetry {
                pe: from_pe,
                seq,
                payload,
            }) => {
                debug_assert_eq!(node, NodeId(0), "telemetry must reach the aggregating node");
                in_band_telemetry = true;
                let delta = TelemetryDelta::decode(&payload)
                    .unwrap_or_else(|e| panic!("kernel {node}: bad telemetry payload: {e:?}"));
                let now_ns = port.ctx.now().as_nanos();
                shared.flight.record(
                    now_ns,
                    from_pe,
                    FlightEventKind::Telemetry {
                        seq,
                        absolute: delta.absolute,
                    },
                );
                shared.aggregator.lock().apply(from_pe, seq, now_ns, &delta);
                shared.metrics.incr(
                    MetricKey::pe("kernel", "telemetry_in", node.0 as u32)
                        .on_machine(shared.machine_of(node) as u32),
                );
                // Node 0's own loopback delta closes an aggregation epoch:
                // it was emitted last in the round, so every older delta
                // has been applied — tell the live view.
                if from_pe == node.0 as u32 {
                    if let Some(hook) = shared.epoch_hook() {
                        let agg = shared.aggregator.lock();
                        hook(&agg, now_ns);
                    }
                }
            }
            Some(Message::InvokeReq { req, rank, .. }) => {
                // Parallel process creation: fork-scale cost, then the new
                // process begins on this node.
                port.ctx
                    .use_resource(shared.cpu_of(node), shared.cost(node).fork());
                let pid = GlobalPid::new(node, next_local_pid);
                next_local_pid += 1;
                shared.stats.update(node, |s| s.invokes += 1);
                let body = factory(rank, pid);
                let app_proc = port.ctx.spawn(&format!("rank{rank}@{node}"), move |pctx| {
                    body(pctx);
                });
                shared.register_app(pid, app_proc);
                port.send(sm.from_node, sm.reply_to, Message::InvokeAck { req, pid });
            }
            Some(Message::TerminateReq { req, pid }) => {
                shared.mark_terminated(pid);
                port.send(sm.from_node, sm.reply_to, Message::TerminateAck { req });
            }
            Some(other) => port.protocol_error(sm.from_node, other.label(), "unexpected message"),
        }
        if !in_band_telemetry {
            let service_ns = (port.ctx.now() - service_start).as_nanos();
            let pe = node.0 as u32;
            let machine = shared.machine_of(node) as u32;
            shared
                .metrics
                .incr(MetricKey::pe("kernel", "requests_served", pe).on_machine(machine));
            shared.metrics.record(
                MetricKey::pe("kernel", "service_ns", pe).on_machine(machine),
                service_ns,
            );
            // The requester span this iteration serviced, if the message
            // was a remote GM request.
            if let Some((kind, seq)) = port.serviced.take() {
                shared
                    .spans
                    .note_service(kind, sm.from_node.0 as u32, seq, service_ns);
            }
        }
        // Catch-up emission: the recv timeout only fires when the mailbox
        // is idle, so a busy kernel checks the emission clock after each
        // serviced message.
        if let (Some(t), Some(at)) = (telemetry.as_ref(), next_emit) {
            if port.ctx.now() >= at {
                emit_delta(port.ctx, &shared, node, tracker.as_mut().unwrap());
                if let Some(wd) = watchdog.as_mut() {
                    poll_watchdog(&shared, wd, port.ctx.now().as_nanos());
                }
                next_emit = Some(port.ctx.now() + t.interval);
            }
        }
    }
}

/// This node's synthesized extra counters: its kernel-stats cell flattened
/// into metric series (the part of the per-PE rollup not kept in the
/// registry).
fn synth_counters(shared: &ClusterShared, node: NodeId) -> Vec<(MetricKey, u64)> {
    shared
        .stats
        .snapshot_pe(node.index())
        .as_metric_counters(node.0 as u32, shared.machine_of(node) as u32)
}

/// Periodic telemetry emission: ship this PE's incremental metric delta
/// in-band to node 0's kernel. Node 0 forces an emission even when nothing
/// changed — its own loopback delta is the heartbeat that closes each
/// aggregation epoch for the live view.
fn emit_delta(
    ctx: &mut ProcCtx<SimMsg>,
    shared: &ClusterShared,
    node: NodeId,
    tracker: &mut DeltaTracker,
) {
    let snap = shared.metrics.snapshot();
    let extra = synth_counters(shared, node);
    let force = node == NodeId(0);
    if let Some((seq, d)) = tracker.delta(&snap, &extra, force) {
        let msg = Message::Telemetry {
            pe: tracker.pe(),
            seq,
            payload: d.encode(),
        };
        let kproc = shared.kernel_of(NodeId(0));
        let me = ctx.id();
        send_msg(ctx, shared, node, NodeId(0), kproc, me, &msg);
    }
}

/// Shutdown flush: apply this PE's absolute state straight to the
/// aggregator. The wire cannot carry it (the aggregating kernel exits on
/// the same shutdown wave and late messages would be dropped), but it still
/// crosses the exact encode/decode path the wire uses, so the rollup stays
/// a pure product of the in-band codec.
fn final_flush(now_ns: u64, shared: &ClusterShared, node: NodeId, tracker: &mut DeltaTracker) {
    let snap = shared.metrics.snapshot();
    let extra = synth_counters(shared, node);
    let (seq, d) = tracker.absolute(&snap, &extra);
    let back = TelemetryDelta::decode(&d.encode()).expect("telemetry self-roundtrip");
    shared.flight.record(
        now_ns,
        node.0 as u32,
        FlightEventKind::Telemetry {
            seq,
            absolute: true,
        },
    );
    shared
        .aggregator
        .lock()
        .apply(node.0 as u32, seq, now_ns, &back);
}

/// Node 0's watchdog poll: flag GM requests stuck past the deadline, count
/// them, append them to the shared stall report, and capture a one-shot
/// flight-recorder dump on the first trip.
fn poll_watchdog(shared: &ClusterShared, wd: &mut StallWatchdog, now_ns: u64) {
    let reports = wd.check(now_ns, &shared.spans);
    if reports.is_empty() {
        return;
    }
    for r in &reports {
        shared
            .metrics
            .incr(MetricKey::pe("kernel", "gm_stalls", r.pe));
        shared.flight.record(
            now_ns,
            r.pe,
            FlightEventKind::Stall {
                kind: r.kind,
                seq: r.seq,
                waited_ns: r.waited_ns(),
            },
        );
    }
    let mut dump = shared.flight_dump.lock();
    if dump.is_none() {
        *dump = Some(shared.flight.to_jsonl());
    }
    drop(dump);
    shared.stalls.lock().extend(reports);
    // Escalation hook: past the configured stall budget, record the trip
    // (and refresh the post-mortem dump so it covers the escalating stall).
    if wd.take_escalation() {
        shared
            .metrics
            .incr(MetricKey::global("kernel", "stall_escalations"));
        *shared.flight_dump.lock() = Some(shared.flight.to_jsonl());
    }
}
