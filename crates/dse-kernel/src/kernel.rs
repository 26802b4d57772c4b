//! The simulated DSE kernel: the simulator's driver of [`KernelProtocol`]
//! and its [`KernelPort`].
//!
//! One kernel serves per node. Under the new organization it is a library
//! linked into the application's process, entered when async I/O signals a
//! remote request — there is no kernel process to switch to. The simulator
//! has the same shape: [`SimKernel`] is a passive `dse-sim` component, a
//! process slot without a thread, resumed in place by whichever simulation
//! thread pops its event, with its service time charged to the node's
//! machine CPU — kernel work steals CPU from the co-resident application.
//!
//! **Record, then play back.** [`KernelProtocol::handle`] is straight-line
//! code whose port calls used to block the kernel's own thread. The
//! component instead runs `handle` once, at the instant the receive charge
//! ends, against a recording [`SimKernelPort`]: every copy charge, counter
//! and send becomes an `Op`, and the ops are played back one event at a
//! time — each CPU booking and each wire booking made at the virtual
//! instant, and in the `(time, sequence)` position, the blocking port made
//! it (DESIGN §5n, charge-order rule). What does not go through the port's
//! deferred calls takes effect when `handle` runs: the store operations of
//! a request, a read's lease, a write's directory step, a barrier entry, a
//! lock request. For a single-operation request whose first port call is
//! its copy charge that is the instant they always took effect, except that
//! a read's lease and a write's directory step no longer wait for the copy
//! charge; the second and later operations of a batch move ahead of the
//! earlier ones' copy charges.
//!
//! **Causal spans** (`DseConfig::tracing`) are the shared [`HomeSpans`],
//! stamped in virtual time: a message's trace context arrives in its
//! [`SimMsg`] beside the bytes, a `lock_grant` or `barrier_release` is
//! stamped with the instant `handle` ran, a `serve` closes at the
//! `EndService` step, the answer's context leaves with the `Wire` step, and
//! a hold that was granted later than it was asked for is a `cpu_queue`
//! span naming the PE whose message is in service, read off the clock when
//! the hold ends. None of it is an op, a charge or a counter, so a traced
//! run plays back exactly the events of an untraced one.

use std::collections::VecDeque;
use std::sync::Arc;

use dse_msg::{GlobalPid, Message, NodeId, RegionId, TraceCtx};
use dse_obs::{MetricKey, TraceRole};
use dse_sim::{CompCtx, Component, ProcCtx, ProcId, SimDuration, SimTime, Wait, Wakeup};

use crate::cache::CacheStore;
use crate::config::GmMode;
use crate::counters::KernelCount;
use crate::home_spans::{HomeSpans, Origin};
use crate::netpath::{begin_send, book_wire, hold_cpu, send_msg};
use crate::protocol::{Gates, KernelPort, KernelProtocol};
use crate::shared::{ClusterShared, TelemetryHook};
use crate::simmsg::SimMsg;
use crate::sync::{BarrierCenter, LockCenter};
use crate::telemetry::Telemetry;

/// A ready-to-run application process body (built by the API layer).
pub type AppBody = Box<dyn FnOnce(&mut ProcCtx<SimMsg>) + Send>;

/// Factory turning (rank, pid) into an application process body; supplied
/// by the program harness so the kernel stays independent of the API crate.
pub type AppFactory = Arc<dyn Fn(u32, GlobalPid) -> AppBody + Send + Sync>;

/// Where a simulated kernel's answer goes: the requesting process, and
/// what its request brought (its node, trace context and arrival time).
#[derive(Debug, Clone, Copy)]
pub struct SimRequester {
    /// Simulation process the answer is delivered to.
    pub proc: ProcId,
    /// What the request brought.
    pub from: Origin,
}

/// A traced GM request the kernel answered: who asked, the request id and
/// the size of the answer, kept until [`Op::EndService`] closes its span.
type ServedGm = (Origin, u64, u64);

/// One step of a kernel component's work, taken when its turn comes.
enum Op {
    /// Hold this node's CPU.
    Charge(SimDuration),
    /// The receive charge has ended: hand the message to the protocol.
    Serve(SimRequester, Message),
    /// Bump a counter.
    Count(KernelCount),
    /// Send the message, with its trace context, to a process on the node:
    /// the sender-side software charge, then [`Op::Wire`].
    Send(NodeId, ProcId, Message, Option<TraceCtx>),
    /// The send charge has ended: book the wire and dispatch the bytes.
    Wire(NodeId, ProcId, Vec<u8>, Option<TraceCtx>),
    /// The fork charge has ended: start the rank as this process.
    Spawn(u32, GlobalPid),
    /// The message taken up at the time is served: record the service, and
    /// the serve span of the traced GM request it was.
    EndService(SimTime, Option<ServedGm>),
    /// This tick's delta is on the wire: re-arm if told to.
    EndTick(bool),
}

/// How a [`SimKernelPort`] carries out what takes virtual time.
enum Exec<'a> {
    /// On a process's own thread, blocking it for each charge.
    Blocking(&'a mut ProcCtx<SimMsg>),
    /// Recorded at the instant given, for the kernel component to play
    /// back.
    Recording(&'a mut VecDeque<Op>, SimTime),
}

/// The simulator behind [`KernelPort`], acting for `node`: an application
/// process in an own-node call into the linked library, whose charges land
/// on the node's CPU and block the process for their duration and whose
/// sends are charged, then booked on the wire; or the node's kernel
/// component, for which the same calls are recorded (module docs).
pub struct SimKernelPort<'a> {
    exec: Exec<'a>,
    shared: &'a ClusterShared,
    node: NodeId,
    /// Where this kernel duty's causal spans go.
    spans: &'a mut HomeSpans,
    /// What the message (or own-node call) being handled brought.
    handling: Origin,
    /// The traced GM request served last.
    served: Option<ServedGm>,
}

impl<'a> SimKernelPort<'a> {
    /// A port for the process behind `ctx`, acting for `node` in an
    /// own-node call that carries the trace context `call`; the spans of
    /// the kernel duty it does go to `spans`.
    pub fn new(
        ctx: &'a mut ProcCtx<SimMsg>,
        shared: &'a ClusterShared,
        node: NodeId,
        spans: &'a mut HomeSpans,
        call: Option<TraceCtx>,
    ) -> SimKernelPort<'a> {
        let handling = Origin {
            pe: node.0 as u32,
            ctx: call,
            at_ns: ctx.now().as_nanos(),
        };
        SimKernelPort {
            exec: Exec::Blocking(ctx),
            shared,
            node,
            spans,
            handling,
            served: None,
        }
    }

    /// What the own-node call this port was made for brought: the caller
    /// is its own requester.
    pub fn caller(&self) -> Origin {
        self.handling
    }

    fn now_ns(&self) -> u64 {
        match &self.exec {
            Exec::Blocking(ctx) => ctx.now().as_nanos(),
            Exec::Recording(_, now) => now.as_nanos(),
        }
    }
}

impl KernelPort for SimKernelPort<'_> {
    type Reply = SimRequester;

    fn barriers(&self) -> &BarrierCenter<SimRequester> {
        &self.shared.barriers
    }

    fn locks(&self) -> &LockCenter<SimRequester> {
        &self.shared.locks
    }

    fn charge_copy(&mut self, bytes: usize) {
        let dur = self.shared.cost(self.node).mem_copy(bytes);
        match &mut self.exec {
            Exec::Blocking(ctx) => {
                let (asked, granted) = hold_cpu(ctx, self.shared, self.node, dur);
                self.spans.cpu_queue(asked, granted, self.handling);
            }
            Exec::Recording(ops, _) => ops.push_back(Op::Charge(dur)),
        }
    }

    fn count(&mut self, what: KernelCount) {
        match &mut self.exec {
            Exec::Blocking(_) => self.shared.counters(self.node).count(what),
            Exec::Recording(ops, _) => ops.push_back(Op::Count(what)),
        }
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

    fn send(&mut self, node: NodeId, to: SimRequester, msg: Message) {
        let now = self.now_ns();
        let trace = self.spans.reply_ctx(now, self.handling.ctx, to.from, &msg);
        self.send_traced(node, to.proc, msg, trace);
    }

    fn send_kernel(&mut self, node: NodeId, msg: Message) {
        self.send_traced(node, self.shared.kernel_of(node), msg, None);
    }

    /// The serve span ends where the service does, at the `EndService` step.
    fn served(&mut self, to: SimRequester, resp: &Message, _gated: bool) {
        if to.from.ctx.is_some() {
            let seq = resp.req_id().map_or(0, |r| r.0);
            self.served = Some((to.from, seq, resp.wire_len() as u64));
        }
    }

    fn barrier_completed(&mut self, barrier: u32, epoch: u32, first: SimRequester) {
        let (now, completer) = (self.now_ns(), self.handling);
        self.spans
            .barrier_completed(now, completer, barrier, epoch, first.from.at_ns);
    }

    fn protocol_error(&mut self, from: NodeId, label: &'static str, detail: &str) {
        panic!("kernel {}: {label} from {from}: {detail}", self.node)
    }
}

impl SimKernelPort<'_> {
    fn send_traced(&mut self, node: NodeId, to: ProcId, msg: Message, trace: Option<TraceCtx>) {
        match &mut self.exec {
            Exec::Blocking(ctx) => {
                let me = ctx.id();
                let (asked, granted) =
                    send_msg(ctx, self.shared, self.node, node, to, me, &msg, trace);
                self.spans.cpu_queue(asked, granted, self.handling);
            }
            Exec::Recording(ops, _) => ops.push_back(Op::Send(node, to, msg, trace)),
        }
    }
}

/// What a kernel's tick "was sent by": nobody, so its own node.
fn own_duty(node: NodeId, at: SimTime) -> Origin {
    Origin {
        pe: node.0 as u32,
        ctx: None,
        at_ns: at.as_nanos(),
    }
}

/// The kernel of `node` as a passive simulation component: receive,
/// decode, charge the receive path, hand the message to the shared
/// [`KernelProtocol`]; process management and the pacing of telemetry
/// ticks are this driver's own, the rest of the plane is the shared
/// [`Telemetry`]. Serves until a `KernelShutdown` arrives (or the
/// simulation drains).
pub struct SimKernel {
    node: NodeId,
    shared: Arc<ClusterShared>,
    factory: AppFactory,
    gates: Gates<SimRequester>,
    spans: HomeSpans,
    next_local_pid: u16,
    /// What is left of the message (or tick) in service, in order.
    ops: VecDeque<Op>,
    /// Who sent the message in service (this node, for a tick).
    serving: Origin,
    /// The hold in progress: when it was asked for, and its length.
    hold: (SimTime, SimDuration),
    /// `None` when `config.telemetry` is off: no timer, zero extra traffic.
    telemetry: Option<Telemetry<TelemetryHook>>,
}

impl SimKernel {
    /// The kernel of `node`; `factory` builds the processes it is asked to
    /// invoke.
    pub fn new(node: NodeId, shared: Arc<ClusterShared>, factory: AppFactory) -> SimKernel {
        let on = shared.config.telemetry.is_some();
        let telemetry = on.then(|| Telemetry::new(node.0 as u32, shared.epoch_hook.clone()));
        SimKernel {
            node,
            spans: HomeSpans::new(node.0 as u32, shared.config.tracing),
            shared,
            factory,
            gates: Gates::default(),
            next_local_pid: 1,
            ops: VecDeque::new(),
            serving: own_duty(node, SimTime::ZERO),
            hold: (SimTime::ZERO, SimDuration::ZERO),
            telemetry,
        }
    }

    /// Run the protocol on `msg`, which `reply` sent and whose receive
    /// charge ended at `now`, recording what it asks of the port; then
    /// record what is this driver's own.
    fn serve(&mut self, now: SimTime, reply: SimRequester, msg: Message) {
        let (shared, node) = (&*self.shared, self.node);
        let from = NodeId(reply.from.pe as u16);
        let mut protocol = KernelProtocol::resume(
            &shared.store,
            shared.config.gm_cache.then_some(&shared.cache),
            shared.config.gm_mode == GmMode::ReleaseConsistency,
            std::mem::take(&mut self.gates),
        );
        let mut port = SimKernelPort {
            exec: Exec::Recording(&mut self.ops, now),
            shared,
            node,
            spans: &mut self.spans,
            handling: reply.from,
            served: None,
        };
        let handed_back = protocol.handle(&mut port, from, reply, msg);
        let served = port.served;
        self.gates = protocol.suspend();
        match handed_back {
            None => {}
            // Telemetry deltas are control-plane traffic: they pay the
            // receive cost like any message but are not "requests served".
            Some(msg @ Message::Telemetry { .. }) => {
                if let Some(t) = &self.telemetry {
                    let counters = shared.counters(node);
                    let now_ns = now.as_nanos();
                    t.ingest(&shared.aggregator, counters, reply.from.pe, msg, now_ns);
                }
                return;
            }
            Some(Message::InvokeReq { req, rank, .. }) => {
                // Parallel process creation: fork-scale cost, then the new
                // process begins on this node.
                let pid = GlobalPid::new(node, self.next_local_pid);
                self.next_local_pid += 1;
                self.ops.push_back(Op::Charge(shared.cost(node).fork()));
                self.ops.push_back(Op::Spawn(rank, pid));
                let ack = Message::InvokeAck { req, pid };
                self.ops.push_back(Op::Send(from, reply.proc, ack, None));
            }
            Some(Message::TerminateReq { req, pid }) => {
                shared.mark_terminated(pid);
                let ack = Message::TerminateAck { req };
                self.ops.push_back(Op::Send(from, reply.proc, ack, None));
            }
            Some(other) => port.protocol_error(from, other.label(), "unexpected message"),
        }
        self.ops.push_back(Op::EndService(now, served));
    }

    /// One telemetry tick: ship this PE's incremental metric delta in-band
    /// to node 0's kernel; once it is on the wire ([`Op::EndTick`]), re-arm
    /// if `rearm`.
    fn tick(&mut self, rearm: bool) {
        let shared = &*self.shared;
        let delta = self
            .telemetry
            .as_mut()
            .and_then(|t| t.delta(&shared.metrics));
        if let Some(msg) = delta {
            let to = shared.kernel_of(NodeId(0));
            self.ops.push_back(Op::Send(NodeId(0), to, msg, None));
        }
        self.ops.push_back(Op::EndTick(rearm));
    }

    /// Arm the telemetry timer to fire one interval after `now`.
    fn arm(&self, ctx: &mut CompCtx<'_, SimMsg>, now: SimTime) {
        if let Some(t) = &self.shared.config.telemetry {
            ctx.set_timer(now + t.interval);
        }
    }

    /// Ask for this node's CPU at `now`, for `dur`.
    fn ask_cpu(&mut self, now: SimTime, dur: SimDuration) -> Wait {
        self.hold = (now, dur);
        Wait::Hold(self.shared.cpu_of(self.node), dur)
    }
}

impl Component<SimMsg> for SimKernel {
    fn resume(&mut self, ctx: &mut CompCtx<'_, SimMsg>, wakeup: Wakeup<SimMsg>) -> Wait {
        let (node, now) = (self.node, ctx.now());
        match wakeup {
            Wakeup::Start => self.arm(ctx, now),
            // The hold ended `dur` after it was granted: the rest of the
            // time since it was asked for was spent queued for the CPU.
            Wakeup::Resumed => {
                let (asked, dur) = self.hold;
                let granted = now.as_nanos() - dur.as_nanos();
                self.spans
                    .cpu_queue(asked.as_nanos(), granted, self.serving);
            }
            // With nothing but timers queued the program is hung: only
            // ticks could ever happen again. This tick is the last, so the
            // queue drains and the run ends as it would without telemetry.
            Wakeup::Timer => {
                self.serving = own_duty(node, now);
                self.tick(!ctx.only_timers_pending())
            }
            Wakeup::Message(env) => {
                // A request queued behind an earlier service has been
                // waiting since it was delivered: its span starts there.
                let at_ns = env.delivered_at.as_nanos();
                let sm = env.msg;
                let msg = Message::decode(&sm.bytes).expect("kernel received undecodable message");
                if matches!(msg, Message::KernelShutdown) {
                    // Land the final absolute state before exiting, so the
                    // cluster rollup at the aggregator matches the direct
                    // end-of-run rollup exactly even if incremental deltas
                    // were still in flight.
                    if let Some(t) = self.telemetry.as_mut() {
                        let shared = &*self.shared;
                        t.flush(&shared.aggregator, &shared.metrics, now.as_nanos());
                    }
                    let spans = self.spans.take();
                    let sink = &self.shared.trace_sink;
                    sink.park(node.0 as u32, TraceRole::Kernel, spans);
                    return Wait::Finished;
                }
                // Async-I/O receive path: signal delivery + protocol
                // processing on this node's CPU (stealing time from the
                // co-resident app), then the service proper.
                let recv = self.shared.cost(node).msg_recv(sm.bytes.len());
                self.ops.push_back(Op::Charge(recv));
                let from = Origin {
                    pe: sm.from_node.0 as u32,
                    ctx: sm.ctx,
                    at_ns,
                };
                let reply = SimRequester {
                    proc: sm.reply_to,
                    from,
                };
                self.serving = from;
                self.ops.push_back(Op::Serve(reply, msg));
            }
        }
        while let Some(op) = self.ops.pop_front() {
            match op {
                Op::Charge(dur) => return self.ask_cpu(now, dur),
                Op::Serve(reply, msg) => self.serve(now, reply, msg),
                Op::Count(what) => self.shared.counters(node).count(what),
                Op::Send(to_node, to, msg, trace) => {
                    let (bytes, charge) = begin_send(&self.shared, node, &msg);
                    self.ops.push_front(Op::Wire(to_node, to, bytes, trace));
                    return self.ask_cpu(now, charge);
                }
                Op::Wire(to_node, to, bytes, trace) => {
                    let latency = book_wire(&self.shared, now, node, to_node, bytes.len());
                    let msg = SimMsg {
                        from_node: node,
                        reply_to: ctx.id(),
                        bytes,
                        ctx: trace,
                    };
                    ctx.send(to, latency, msg);
                }
                Op::Spawn(rank, pid) => {
                    self.shared.counters(node).count(KernelCount::Invoke);
                    let body = (self.factory)(rank, pid);
                    let app = ctx.spawn(&format!("rank{rank}@{node}"), move |pctx| body(pctx));
                    self.shared.register_app(pid, app);
                }
                Op::EndService(start, served) => {
                    let service_ns = (now - start).as_nanos();
                    let pe = node.0 as u32;
                    let machine = self.shared.machine_of(node) as u32;
                    self.shared
                        .metrics
                        .incr(MetricKey::pe("kernel", "requests_served", pe).on_machine(machine));
                    self.shared.metrics.record(
                        MetricKey::pe("kernel", "service_ns", pe).on_machine(machine),
                        service_ns,
                    );
                    if let Some((from, seq, bytes)) = served {
                        self.spans.serve(now.as_nanos(), from, 0, seq, bytes);
                    }
                }
                Op::EndTick(rearm) => {
                    if rearm {
                        self.arm(ctx, now);
                    }
                }
            }
        }
        Wait::Message
    }
}
