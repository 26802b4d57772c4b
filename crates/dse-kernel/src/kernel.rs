//! The simulated DSE kernel: the simulator's [`Host`] of the one kernel
//! driver, the component that plays the driver's outbox back in virtual
//! time, and the blocking port of own-node library calls.
//!
//! One kernel serves per node. Under the new organization it is a library
//! linked into the application's process, entered when async I/O signals a
//! remote request — there is no kernel process to switch to. The simulator
//! has the same shape: [`SimKernel`] is a passive `dse-sim` component, a
//! process slot without a thread, resumed in place by whichever simulation
//! thread pops its event, with its service time charged to the node's
//! machine CPU — kernel work steals CPU from the co-resident application.
//!
//! **Record, then play back.** The component decodes a message, books its
//! receive charge, and at the instant that charge ends hands the message to
//! the node's [`KernelTask`] — the live engine's driver, over [`SimHost`].
//! The task runs the protocol straight through and queues what it asks of
//! the world on its outbox; the component plays that back one step per
//! resume — each CPU booking and each wire booking made at the virtual
//! instant, and in the `(time, sequence)` position, a blocking port would
//! have made it (DESIGN §5n, charge-order rule), and each count when the
//! charges before it have ended. What does not go through the outbox takes
//! effect when the task runs: the store operations of a request, a read's
//! lease, a write's directory step, a barrier entry, a lock request.
//!
//! **Causal spans** (`DseConfig::tracing`) are the task's [`HomeSpans`],
//! stamped in virtual time: a message's trace context arrives in its
//! [`SimMsg`] beside the bytes, and a hold that was granted later than it
//! was asked for is a `cpu_queue` span naming the PE whose message is in
//! service, read off the clock when the hold ends. None of it is a step, a
//! charge or a counter, so a traced run plays back exactly the events of an
//! untraced one.

use std::sync::Arc;

use parking_lot::Mutex;

use dse_msg::{GlobalPid, Message, NodeId, RegionId, TraceCtx};
use dse_obs::{ClusterAggregator, Registry, TraceRole};
use dse_sim::{CompCtx, Component, ProcCtx, ProcId, SimDuration, SimTime, Wait, Wakeup};

use crate::cache::CacheStore;
use crate::config::GmMode;
use crate::counters::{KernelCount, PeCounters};
use crate::home_spans::{HomeSpans, Origin};
use crate::netpath::{begin_send, book_wire, send_msg};
use crate::protocol::{Coordinator, Gates, KernelProtocol};
use crate::shared::{ClusterShared, TelemetryHook};
use crate::simmsg::SimMsg;
use crate::sync::{BarrierCenter, LockCenter};
use crate::task::{Host, KernelTask, Outbound, Progress, Requester};
use crate::telemetry::Telemetry;

/// A ready-to-run application process body (built by the API layer).
pub type AppBody = Box<dyn FnOnce(&mut ProcCtx<SimMsg>) + Send>;

/// Factory turning (rank, pid) into an application process body; supplied
/// by the program harness so the kernel stays independent of the API crate.
pub type AppFactory = Arc<dyn Fn(u32, GlobalPid) -> AppBody + Send + Sync>;

/// The simulator behind [`Coordinator`] for an application process in an
/// own-node call into the linked library, acting for `node`: its sends
/// are charged on the node's CPU, blocking the process, then booked on
/// the wire.
pub struct SimKernelPort<'a> {
    ctx: &'a mut ProcCtx<SimMsg>,
    shared: &'a ClusterShared,
    node: NodeId,
    /// Where this kernel duty's causal spans go.
    spans: &'a mut HomeSpans,
    /// What the own-node call brought.
    handling: Origin,
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
            ctx,
            shared,
            node,
            spans,
            handling,
        }
    }

    /// The caller as a requester: its answers come back to its process.
    pub fn caller(&self) -> Requester {
        Requester {
            from: self.handling,
            proc: Some(self.ctx.id()),
            key: None,
        }
    }

    fn send_traced(&mut self, node: NodeId, to: ProcId, msg: Message, trace: Option<TraceCtx>) {
        let me = self.ctx.id();
        let (asked, granted) =
            send_msg(self.ctx, self.shared, self.node, node, to, me, &msg, trace);
        self.spans.cpu_queue(asked, granted, self.handling);
    }
}

impl Coordinator for SimKernelPort<'_> {
    type Reply = Requester;

    fn barriers(&self) -> &BarrierCenter<Requester> {
        &self.shared.barriers
    }

    fn locks(&self) -> &LockCenter<Requester> {
        &self.shared.locks
    }

    fn count(&mut self, what: KernelCount) {
        self.shared.counters(self.node).count(what);
    }

    fn send(&mut self, node: NodeId, to: Requester, msg: Message) {
        let now = self.ctx.now().as_nanos();
        let trace = self.spans.reply_ctx(now, self.handling.ctx, to.from, &msg);
        let proc = to.proc.unwrap_or_else(|| self.shared.kernel_of(node));
        self.send_traced(node, proc, msg, trace);
    }

    fn barrier_completed(&mut self, barrier: u32, epoch: u32, first: Requester) {
        let (now, completer) = (self.ctx.now().as_nanos(), self.handling);
        self.spans
            .barrier_completed(now, completer, barrier, epoch, first.from.at_ns);
    }
}

/// The simulator's [`Host`]: node `node` of the shared cluster at virtual
/// time `now` (the component moves it on every resume). Barrier and lock
/// state lives in [`ClusterShared`], where node 0's own process coordinates
/// in place; a lease installs the block in the requester's cache at once
/// (one address space); a copy costs the machine's `mem_copy`; ticks are
/// paced by the component's timer alone.
pub struct SimHost {
    shared: Arc<ClusterShared>,
    node: NodeId,
    now: SimTime,
}

impl Host for SimHost {
    type Hook = TelemetryHook;

    fn pe(&self) -> u32 {
        self.node.0 as u32
    }

    fn nprocs(&self) -> usize {
        self.shared.nnodes()
    }

    fn protocol(&self, gates: Gates<Requester>) -> KernelProtocol<'_, Requester> {
        let (s, config) = (&*self.shared, &self.shared.config);
        let rc = config.gm_mode == GmMode::ReleaseConsistency;
        KernelProtocol::resume(&s.store, config.gm_cache.then_some(&s.cache), rc, gates)
    }

    fn barriers(&self) -> &BarrierCenter<Requester> {
        &self.shared.barriers
    }

    fn locks(&self) -> &LockCenter<Requester> {
        &self.shared.locks
    }

    fn lease(
        &self,
        cache: &CacheStore,
        holder: NodeId,
        region: RegionId,
        block: u64,
        data: &[u8],
    ) -> bool {
        cache.install(holder, region, block, data.to_vec())
    }

    fn copy_charge(&self, bytes: usize) -> SimDuration {
        self.shared.cost(self.node).mem_copy(bytes)
    }

    fn metrics(&self) -> &Registry {
        &self.shared.metrics
    }

    fn counters(&self) -> PeCounters<'_> {
        self.shared.counters(self.node)
    }

    fn aggregator(&self) -> Option<&Mutex<ClusterAggregator>> {
        Some(&self.shared.aggregator)
    }

    fn now_ns(&self) -> u64 {
        self.now.as_nanos()
    }
}

/// What the hold in progress ends in.
enum Then {
    /// The receive charge: hand the message to the task.
    Serve(Origin, ProcId, Message),
    /// The send charge: book the wire and dispatch the bytes.
    Wire(NodeId, ProcId, Vec<u8>, Option<TraceCtx>),
    /// The fork charge: start the rank as this process.
    Spawn(u32, GlobalPid),
}

/// The kernel of `node` as a passive simulation component: receive,
/// decode, charge the receive path, hand the message to the node's
/// [`KernelTask`], and play its outbox back; the pacing of telemetry ticks
/// is the component's timer. Serves until a `KernelShutdown` arrives (or
/// the simulation drains).
pub struct SimKernel {
    task: KernelTask<SimHost>,
    factory: AppFactory,
    /// Who sent the message in service (this node, for a tick).
    serving: Origin,
    /// The hold in progress: when it was asked for, its length, and what
    /// it ends in.
    hold: (SimTime, SimDuration),
    then: Option<Then>,
    /// Re-arm the timer once this tick's delta is on the wire.
    rearm: bool,
    /// When the timer is due.
    due: SimTime,
}

impl SimKernel {
    /// The kernel of `node`; `factory` builds the processes it is asked to
    /// invoke.
    pub fn new(node: NodeId, shared: Arc<ClusterShared>, factory: AppFactory) -> SimKernel {
        let pe = node.0 as u32;
        let on = shared.config.telemetry.is_some();
        let telemetry = on.then(|| Telemetry::new(pe, shared.epoch_hook.clone()));
        let tracing = shared.config.tracing;
        let now = SimTime::ZERO;
        let host = SimHost { shared, node, now };
        SimKernel {
            task: KernelTask::hosted(host, telemetry, tracing, None),
            factory,
            serving: own_duty(pe, now),
            hold: (now, SimDuration::ZERO),
            then: None,
            rearm: false,
            due: now,
        }
    }

    fn shared(&self) -> &ClusterShared {
        &self.task.host().shared
    }

    /// Arm the telemetry timer to fire one interval after it last came
    /// due, or one interval after `now` if that has passed.
    fn arm(&mut self, ctx: &mut CompCtx<'_, SimMsg>, now: SimTime) {
        if let Some(t) = &self.shared().config.telemetry {
            let next = self.due + t.interval;
            self.due = if next > now { next } else { now + t.interval };
            ctx.set_timer(self.due);
        }
    }

    /// Ask for this node's CPU at `now`, for `dur`, then do `then`.
    fn ask_cpu(&mut self, now: SimTime, dur: SimDuration, then: Option<Then>) -> Wait {
        (self.hold, self.then) = ((now, dur), then);
        let cpu = self.shared().cpu_of(self.task.host().node);
        Wait::Hold(cpu, dur)
    }

    /// Hand `msg` to the task. A message the protocol has no place for is
    /// a simulator bug — every peer is the simulator itself — so the
    /// abort's detail is a panic here.
    fn deliver(&mut self, from: Origin, proc: ProcId, msg: Message) {
        let now = self.task.host().now.as_nanos();
        let progress = self.task.deliver(from, Some(proc), msg, now);
        if let Progress::Aborted(Message::Abort { detail, .. }) = progress {
            let node = self.task.host().node;
            panic!("kernel {node}: {}", String::from_utf8_lossy(&detail))
        }
    }
}

/// What a kernel's tick "was sent by": nobody, so its own node.
fn own_duty(pe: u32, at: SimTime) -> Origin {
    Origin {
        pe,
        ctx: None,
        at_ns: at.as_nanos(),
    }
}

impl Component<SimMsg> for SimKernel {
    fn resume(&mut self, ctx: &mut CompCtx<'_, SimMsg>, wakeup: Wakeup<SimMsg>) -> Wait {
        let now = ctx.now();
        self.task.host_mut().now = now;
        let node = self.task.host().node;
        match wakeup {
            Wakeup::Start => self.arm(ctx, now),
            // The hold ended `dur` after it was granted: the rest of the
            // time since it was asked for was spent queued for the CPU.
            Wakeup::Resumed => {
                let (asked, dur) = self.hold;
                let granted = now.as_nanos() - dur.as_nanos();
                let serving = self.serving;
                self.task
                    .spans()
                    .cpu_queue(asked.as_nanos(), granted, serving);
                match self.then.take() {
                    Some(Then::Serve(from, proc, msg)) => self.deliver(from, proc, msg),
                    Some(Then::Wire(to_node, to, bytes, trace)) => {
                        let latency = book_wire(self.shared(), now, node, to_node, bytes.len());
                        let reply_to = ctx.id();
                        ctx.send(
                            to,
                            latency,
                            SimMsg {
                                from_node: node,
                                reply_to,
                                bytes,
                                ctx: trace,
                            },
                        );
                    }
                    Some(Then::Spawn(rank, pid)) => {
                        let shared = self.shared();
                        shared.counters(node).count(KernelCount::Invoke);
                        let body = (self.factory)(rank, pid);
                        let app = ctx.spawn(&format!("rank{rank}@{node}"), move |pctx| body(pctx));
                        shared.register_app(pid, app);
                    }
                    None => {}
                }
            }
            // With nothing but timers queued the program is hung: only
            // ticks could ever happen again. This tick is the last, so the
            // queue drains and the run ends as it would without telemetry.
            Wakeup::Timer => {
                self.serving = own_duty(node.0 as u32, now);
                self.rearm = !ctx.only_timers_pending();
                self.task.tick();
            }
            Wakeup::Message(env) => {
                let sm = env.msg;
                // Every sender in the simulator encodes a `Message`: bytes
                // that do not decode are a simulator bug, not input.
                let msg = Message::decode(&sm.bytes).expect("kernel received undecodable message");
                // A request queued behind an earlier service has been
                // waiting since it was delivered: its span starts there.
                let at_ns = env.delivered_at.as_nanos();
                let from = Origin {
                    pe: sm.from_node.0 as u32,
                    ctx: sm.ctx,
                    at_ns,
                };
                // Shutdown is taken without a receive charge.
                if matches!(msg, Message::KernelShutdown) {
                    self.deliver(from, sm.reply_to, msg);
                    let spans = self.task.spans().take();
                    let sink = &self.shared().trace_sink;
                    sink.park(node.0 as u32, TraceRole::Kernel, spans);
                    return Wait::Finished;
                }
                // Async-I/O receive path: signal delivery + protocol
                // processing on this node's CPU (stealing time from the
                // co-resident app), then the service proper.
                let recv = self.shared().cost(node).msg_recv(sm.bytes.len());
                self.serving = from;
                return self.ask_cpu(now, recv, Some(Then::Serve(from, sm.reply_to, msg)));
            }
        }
        while let Some(out) = self.task.pop() {
            let (to, proc, msg, trace) = match out {
                Outbound::Charge(dur) => return self.ask_cpu(now, dur, None),
                Outbound::Spawn { rank, pid } => {
                    let fork = self.shared().cost(node).fork();
                    return self.ask_cpu(now, fork, Some(Then::Spawn(rank, pid)));
                }
                Outbound::Terminate(pid) => {
                    self.shared().mark_terminated(pid);
                    continue;
                }
                Outbound::Wire { to, proc, msg, ctx } => (to, proc, msg, ctx),
                Outbound::Replay { to, msg, ctx } => (to, None, msg, ctx),
                Outbound::WireBestEffort { to, msg } => (to, None, msg, None),
                Outbound::App { msg, .. } => unreachable!("a simulated kernel got {}", msg.label()),
            };
            let to_node = NodeId(to as u16);
            let shared = self.shared();
            let to = proc.unwrap_or_else(|| shared.kernel_of(to_node));
            let (bytes, charge) = begin_send(shared, node, &msg);
            return self.ask_cpu(now, charge, Some(Then::Wire(to_node, to, bytes, trace)));
        }
        if std::mem::take(&mut self.rearm) {
            self.arm(ctx, now);
        }
        Wait::Message
    }
}
