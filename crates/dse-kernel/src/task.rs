//! The kernel driver, defined once: one PE's message loop as a sans-IO
//! task, on either engine.
//!
//! [`KernelTask`] consumes one event per call — a decoded message
//! ([`KernelTask::poll`], or [`KernelTask::deliver`] with the answer's
//! simulation process), a telemetry tick ([`KernelTask::tick`]), or the
//! cluster abort latch — and reports [`Progress`]. Everything a handled
//! message asks of the world queues in order on its outbox, and the engine
//! plays it back item by item with [`KernelTask::pop`]: wire sends (the
//! live engine maps transport errors to failures), best-effort telemetry
//! sends, forwards to the co-resident application thread, CPU charges,
//! process starts and terminations. The outbox also holds the driver's own
//! steps — each counter bump and the end of each service — which `pop`
//! settles on the engine's clock as it passes them, so on the simulator a
//! count lands at the virtual instant the charges before it have ended.
//!
//! The serving protocol is the shared [`KernelProtocol`]; this file is its
//! one driver and its one port. Besides the protocol, the driver is the
//! paper's process-management module (`InvokeReq`, `TerminateReq`), exit
//! collection and the shutdown fan-out, the `Abort` relay, app-mail
//! routing, the ingest and shutdown flush of the shared [`Telemetry`]
//! plane, and — armed only by [`KernelTask::new`], whose requesters retry —
//! replay of answered requests. What still differs per engine is a
//! [`Host`]: which structure lends the run's one barrier and lock state,
//! what a lease does, the clocks, the cost of a copy, and the pacing of
//! telemetry ticks. The live engine's host is [`Live`]; the simulator's is
//! in [`crate::kernel`].
//!
//! Because the task never blocks, the live engine's one driver can give a
//! task a worker of its own (thread-per-PE: the worker waits in its
//! transport) or let a few workers multiplex thousands of them, and the
//! simulator can resume it in place from a passive component.

use std::collections::{HashSet, VecDeque};
use std::mem;
use std::ops::Deref;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use dse_msg::{GlobalPid, Message, NodeId, RegionId, TraceCtx};
use dse_obs::{ClusterAggregator, FlightRecorder, MetricKey, Registry, TraceSpanRec};
use dse_sim::{ProcId, SimDuration};

use crate::cache::CacheStore;
use crate::config::{GmMode, DEFAULT_GM_WINDOW};
use crate::counters::{KernelCount, PeCounters};
use crate::dedup::{dedup_key, DedupCache};
use crate::gmem::GlobalStore;
use crate::home_spans::{HomeSpans, Origin};
use crate::protocol::{Coordinator, Gates, KernelPort, KernelProtocol, KERNEL_TXN_BASE};
use crate::sync::{BarrierCenter, LockCenter};
use crate::telemetry::{EpochHook, Telemetry};

/// `Abort` frame `code` values used by the kernel and the live engine.
pub mod abort_code {
    /// Abort relayed or triggered without a more specific cause.
    pub const GENERIC: u32 = 0;
    /// A transport send/receive failed.
    pub const TRANSPORT: u32 = 1;
    /// A peer sent the kernel a message its protocol has no place for.
    pub const PROTOCOL: u32 = 2;
}

/// Answers the serving side remembers per requester: everything one can
/// have outstanding — a full split-phase window plus one blocking atomic —
/// and one to spare.
const DEDUP_PER_REQUESTER: usize = DEFAULT_GM_WINDOW + 2;

/// What the app thread can receive from its kernel: responses to its own
/// requests and coordination wakeups, forwarded off the transport.
pub fn is_app_bound(msg: &Message) -> bool {
    matches!(
        msg,
        Message::GmReadResp { .. }
            | Message::GmWriteAck { .. }
            | Message::GmBatchResp { .. }
            | Message::GmFetchAddResp { .. }
            | Message::BarrierRelease { .. }
            | Message::LockGrant { .. }
    )
}

/// One input to [`KernelTask::poll`].
pub enum KernelEvent {
    /// A decoded envelope from the transport.
    Message {
        /// Sending PE.
        from: u32,
        /// The decoded message.
        msg: Message,
        /// Trace context that rode the frame, if any.
        ctx: Option<TraceCtx>,
    },
    /// A housekeeping timer: the driver waited [`KernelTask::timeout`]
    /// without traffic (telemetry emission happens here).
    Tick,
    /// The driver observed the cluster abort latch.
    AbortLatch,
}

/// What a poll step concluded.
pub enum Progress {
    /// Keep feeding events.
    Pending,
    /// Normal shutdown: `KernelShutdown` arrived.
    Clean,
    /// The run is aborting; the payload is the `Abort` frame to relay
    /// (PE 0 re-broadcasts it to the cluster).
    Aborted(Message),
}

/// One queued output of a poll step, played back by the engine in order.
pub enum Outbound {
    /// A wire send whose failure fails the kernel (the driver maps the
    /// transport error and stops draining).
    Wire {
        /// Destination PE.
        to: u32,
        /// The simulation process the message is for (the simulator only;
        /// `None`: the destination's kernel).
        proc: Option<ProcId>,
        /// The message.
        msg: Message,
        /// Trace context to ride the frame.
        ctx: Option<TraceCtx>,
    },
    /// A replayed answer to a retransmitted request: a wire send like
    /// [`Outbound::Wire`], but best-effort. Its requester may have taken
    /// the first answer and left — its kernel shut down — while the
    /// retransmit or duplicate was still on the way; one that is still
    /// waiting and never gets the replay retransmits again.
    Replay {
        /// Destination PE.
        to: u32,
        /// The cached answer.
        msg: Message,
        /// Trace context to ride the frame.
        ctx: Option<TraceCtx>,
    },
    /// A best-effort wire send to a kernel (telemetry deltas: the
    /// aggregating PE may already be gone during shutdown; a lost delta is
    /// healed by the sender's shutdown flush).
    WireBestEffort {
        /// Destination PE.
        to: u32,
        /// The message.
        msg: Message,
    },
    /// A best-effort forward to the co-resident application thread (it
    /// may have exited already if the program is erroneous).
    App {
        /// The message.
        msg: Message,
        /// Trace context that rode the frame.
        ctx: Option<TraceCtx>,
    },
    /// Hold this node's CPU (never queued for a zero charge, so never on
    /// the live engine).
    Charge(SimDuration),
    /// Start rank `rank` as process `pid` on this node, after the fork
    /// charge (the simulator; the live launcher starts its own threads).
    Spawn {
        /// The rank to run.
        rank: u32,
        /// Its global pid.
        pid: GlobalPid,
    },
    /// Ask process `pid` to terminate cooperatively (the simulator).
    Terminate(GlobalPid),
}

/// A GM request the kernel answered on a traced run: who asked, the
/// request id and the size of the answer, kept for its serve span.
type ServedGm = (Origin, u64, u64);

/// An outbox entry: an output for the engine, or one of the driver's own
/// steps, which [`KernelTask::pop`] settles.
enum Step {
    Out(Outbound),
    Count(KernelCount),
    /// The message taken up at this instant (engine clock) is served: one
    /// `requests_served`, one `service_ns` sample, and the serve span of
    /// the traced GM request it was.
    EndService(u64, Option<ServedGm>),
}

/// Where a kernel's answer goes: what the request brought (its PE, trace
/// context and arrival time), the simulation process that waits for it
/// (the simulator only), and its dedup key if it is one a requester
/// retries.
#[derive(Debug, Clone, Copy)]
pub struct Requester {
    /// What the request brought.
    pub from: Origin,
    /// The simulation process the answer is delivered to.
    pub proc: Option<ProcId>,
    /// `(from PE, req)` when the task replays answers.
    pub key: Option<(u32, u64)>,
}

/// What an engine lends the kernel driver: the node's state, its clocks,
/// the rows of [`KernelPort`] that differ on purpose (DESIGN §5n), and the
/// pacing of telemetry ticks. The driver has no other branch on the engine.
pub trait Host {
    /// The epoch hook's handle.
    type Hook: Deref<Target: Fn(&ClusterAggregator, u64)>;

    /// This node's PE.
    fn pe(&self) -> u32;
    /// Cluster size.
    fn nprocs(&self) -> usize;
    /// The protocol over this node's store and cache, with `gates` open.
    fn protocol(&self, gates: Gates<Requester>) -> KernelProtocol<'_, Requester>;
    /// The run's barrier coordination state.
    fn barriers(&self) -> &BarrierCenter<Requester>;
    /// The run's lock coordination state.
    fn locks(&self) -> &LockCenter<Requester>;
    /// [`KernelPort::lease`].
    fn lease(
        &self,
        cache: &CacheStore,
        holder: NodeId,
        region: RegionId,
        block: u64,
        data: &[u8],
    ) -> bool;
    /// [`KernelPort::drop_replicas`].
    fn drop_replicas(&self, cache: &CacheStore, region: RegionId, offset: u64, len: usize) {
        cache.drop_range(NodeId(self.pe() as u16), region, offset, len);
    }
    /// What copying `bytes` costs this node's CPU: nothing where the copy
    /// runs for real.
    fn copy_charge(&self, _bytes: usize) -> SimDuration {
        SimDuration::ZERO
    }
    /// The run's metrics registry.
    fn metrics(&self) -> &Registry;
    /// This node's `kernel/*` series.
    fn counters(&self) -> PeCounters<'_>;
    /// The run's aggregator, on a run with a telemetry plane.
    fn aggregator(&self) -> Option<&Mutex<ClusterAggregator>>;
    /// The engine clock spans are stamped with, in nanoseconds.
    fn now_ns(&self) -> u64;
    /// The clock the telemetry plane is stamped with, in nanoseconds.
    fn telemetry_ns(&self) -> u64 {
        self.now_ns()
    }
    /// Whether a telemetry tick is due after a handled message; true moves
    /// the pacing on to the next one. Without pacing of its own, a host's
    /// ticks come from its engine alone.
    fn tick_due(&mut self) -> bool {
        false
    }
}

/// The shared run state one live kernel task serves against. All
/// references point into the live engine's cluster structure.
#[derive(Clone, Copy)]
pub struct KernelEnv<'a> {
    /// This task's PE.
    pub pe: u32,
    /// Cluster size.
    pub nprocs: usize,
    /// The home-partitioned global store.
    pub store: &'a GlobalStore,
    /// Wall-clock metrics registry.
    pub metrics: &'a Registry,
    /// Post-mortem ring of recent wire sends and stalls (the engine
    /// records into it as it plays the outbox back).
    pub flight: &'a FlightRecorder,
    /// Replica cache + sharing directory (`None` on uncached runs).
    pub cache: Option<&'a CacheStore>,
    /// Coherence protocol for cached runs.
    pub gm_mode: GmMode,
    /// This PE's install guard (epoch of applied invalidations).
    pub install_guard: &'a Mutex<u64>,
    /// Engine clock origin for flight/span timestamps.
    pub engine_t0: Instant,
    /// Run start for telemetry timestamps.
    pub run_start: Instant,
}

/// A watched run's telemetry plane as one kernel task sees it.
#[derive(Clone, Copy)]
pub struct Watch<'a> {
    /// How often the task ships its PE's delta to PE 0.
    pub interval: Duration,
    /// The epoch hook (when it fires: [`crate::telemetry`]).
    pub hook: &'a EpochHook<'a>,
    /// The run's one aggregator.
    pub aggregator: &'a Mutex<ClusterAggregator>,
}

/// Barrier and lock state a live task serves from.
enum Centres<'a> {
    /// The run's one, which the PEs that coordinate in place share.
    Run(&'a BarrierCenter<Requester>, &'a LockCenter<Requester>),
    /// The task's own: a task built alone, outside a run.
    Own(BarrierCenter<Requester>, LockCenter<Requester>),
}

/// The live engine's [`Host`]: the cluster's shared state, the wall clock,
/// the run's barrier and lock state, and emission paced against the last
/// emission.
pub struct Live<'a> {
    env: KernelEnv<'a>,
    centres: Centres<'a>,
    watch: Option<Watch<'a>>,
    last_emit: Instant,
    /// Bound on the driver's wait between events.
    tick: Duration,
}

impl<'a> Host for Live<'a> {
    type Hook = &'a EpochHook<'a>;

    fn pe(&self) -> u32 {
        self.env.pe
    }

    fn nprocs(&self) -> usize {
        self.env.nprocs
    }

    fn protocol(&self, gates: Gates<Requester>) -> KernelProtocol<'_, Requester> {
        let rc = self.env.gm_mode == GmMode::ReleaseConsistency;
        KernelProtocol::resume(self.env.store, self.env.cache, rc, gates)
    }

    fn barriers(&self) -> &BarrierCenter<Requester> {
        match &self.centres {
            Centres::Run(barriers, _) => barriers,
            Centres::Own(barriers, _) => barriers,
        }
    }

    fn locks(&self) -> &LockCenter<Requester> {
        match &self.centres {
            Centres::Run(_, locks) => locks,
            Centres::Own(_, locks) => locks,
        }
    }

    /// Only the home-side half of the lease: the data travels in the
    /// response and the requester installs it on completion, under its
    /// install epoch.
    fn lease(
        &self,
        cache: &CacheStore,
        holder: NodeId,
        region: RegionId,
        block: u64,
        _: &[u8],
    ) -> bool {
        cache.grant(holder, region, block)
    }

    /// Epoch first, then the drop, both under the guard: an app-side
    /// install that checked the epoch before this bump is either already in
    /// the map (the drop removes it) or will re-check and skip.
    fn drop_replicas(&self, cache: &CacheStore, region: RegionId, offset: u64, len: usize) {
        let mut epoch = self.env.install_guard.lock();
        *epoch += 1;
        cache.drop_range(NodeId(self.env.pe as u16), region, offset, len);
    }

    fn metrics(&self) -> &Registry {
        self.env.metrics
    }

    fn counters(&self) -> PeCounters<'_> {
        PeCounters::new(self.env.metrics, self.env.pe, None)
    }

    fn aggregator(&self) -> Option<&Mutex<ClusterAggregator>> {
        self.watch.map(|w| w.aggregator)
    }

    fn now_ns(&self) -> u64 {
        self.env.engine_t0.elapsed().as_nanos() as u64
    }

    fn telemetry_ns(&self) -> u64 {
        self.env.run_start.elapsed().as_nanos() as u64
    }

    fn tick_due(&mut self) -> bool {
        let due = self
            .watch
            .is_some_and(|w| self.last_emit.elapsed() >= w.interval);
        if due {
            self.last_emit = Instant::now();
        }
        due
    }
}

/// The driver's state behind [`KernelPort`]: the outbox, the spans, the
/// memory of answered requests and what the message in hand brought.
struct State {
    outbox: VecDeque<Step>,
    spans: HomeSpans,
    /// Armed only where requesters retry.
    dedup: Option<DedupCache>,
    /// Dedup keys of requests whose response is gated (their retransmits
    /// are dropped, not re-executed).
    pending_gated: HashSet<(u32, u64)>,
    /// What the message being handled brought.
    handling: Origin,
    /// The traced GM request the message in hand was.
    served: Option<ServedGm>,
    /// A peer's message the protocol rejected: the run aborts.
    violation: Option<String>,
}

impl State {
    fn out(&mut self, out: Outbound) {
        self.outbox.push_back(Step::Out(out));
    }

    fn wire(&mut self, to: NodeId, proc: Option<ProcId>, msg: Message, ctx: Option<TraceCtx>) {
        let to = to.0 as u32;
        self.out(Outbound::Wire { to, proc, msg, ctx });
    }
}

/// The one [`KernelPort`]: the host's rows, over the driver's state.
struct Port<'t, H> {
    host: &'t H,
    st: &'t mut State,
}

impl<H: Host> Coordinator for Port<'_, H> {
    type Reply = Requester;

    fn barriers(&self) -> &BarrierCenter<Requester> {
        self.host.barriers()
    }

    fn locks(&self) -> &LockCenter<Requester> {
        self.host.locks()
    }

    fn count(&mut self, what: KernelCount) {
        self.st.outbox.push_back(Step::Count(what));
    }

    fn send(&mut self, node: NodeId, to: Requester, msg: Message) {
        // Only now — not while it was gated — does the answer to a
        // retriable request become replayable for retransmits.
        if let (Some(key), Some(cache)) = (to.key, &mut self.st.dedup) {
            if !self.st.pending_gated.is_empty() {
                self.st.pending_gated.remove(&key);
            }
            cache.insert(key, msg.clone());
        }
        let now = self.host.now_ns();
        let handling = self.st.handling.ctx;
        let ctx = self.st.spans.reply_ctx(now, handling, to.from, &msg);
        self.st.wire(node, to.proc, msg, ctx);
    }

    fn barrier_completed(&mut self, barrier: u32, epoch: u32, first: Requester) {
        let (now, completer) = (self.host.now_ns(), self.st.handling);
        self.st
            .spans
            .barrier_completed(now, completer, barrier, epoch, first.from.at_ns);
    }
}

impl<H: Host> KernelPort for Port<'_, H> {
    fn charge_copy(&mut self, bytes: usize) {
        let dur = self.host.copy_charge(bytes);
        if !dur.is_zero() {
            self.st.out(Outbound::Charge(dur));
        }
    }

    fn lease(
        &mut self,
        cache: &CacheStore,
        holder: NodeId,
        region: RegionId,
        block: u64,
        data: &[u8],
    ) -> bool {
        self.host.lease(cache, holder, region, block, data)
    }

    fn drop_replicas(&mut self, cache: &CacheStore, region: RegionId, offset: u64, len: usize) {
        self.host.drop_replicas(cache, region, offset, len);
    }

    fn send_kernel(&mut self, node: NodeId, msg: Message) {
        self.st.wire(node, None, msg, None);
    }

    /// The serve span ends where the service does, at its end step.
    fn served(&mut self, to: Requester, resp: &Message, gated: bool) {
        if to.from.ctx.is_some() {
            let seq = resp.req_id().map_or(0, |r| r.0);
            self.st.served = Some((to.from, seq, resp.wire_len() as u64));
        }
        if let (true, Some(key)) = (gated, to.key) {
            self.st.pending_gated.insert(key);
        }
    }

    fn protocol_error(&mut self, from: NodeId, label: &'static str, detail: &str) {
        self.st
            .violation
            .get_or_insert_with(|| format!("{label} from PE {}: {detail}", from.0));
    }
}

/// One PE's kernel as a resumable state machine over the engine's `H`. See
/// the module docs for the event/outbox contract.
pub struct KernelTask<H: Host> {
    host: H,
    st: State,
    gates: Gates<Requester>,
    /// `None` without a telemetry plane: no emission, deltas not heard.
    telemetry: Option<Telemetry<H::Hook>>,
    exited: usize,
    next_local_pid: u16,
}

impl<'a> KernelTask<Live<'a>> {
    /// A live kernel task over `env`, replaying answers to retransmitted
    /// requests. `watch` enables telemetry emission every interval, ingest
    /// on PE 0 and the shutdown flush; `tick` bounds the driver's idle
    /// wait; `tracing` records causal spans. The task coordinates barriers
    /// and locks on state of its own until [`KernelTask::sharing`] hands it
    /// the run's.
    pub fn new(
        env: KernelEnv<'a>,
        watch: Option<Watch<'a>>,
        tick: Duration,
        tracing: bool,
    ) -> KernelTask<Live<'a>> {
        let host = Live {
            env,
            centres: Centres::Own(BarrierCenter::new(env.nprocs), LockCenter::new()),
            watch,
            last_emit: Instant::now(),
            tick,
        };
        let telemetry = watch.map(|w| Telemetry::new(env.pe, Some(w.hook)));
        let dedup = DedupCache::new(DEDUP_PER_REQUESTER);
        KernelTask::hosted(host, telemetry, tracing, Some(dedup))
    }

    /// Coordinate on the run's one barrier and lock state, the one the
    /// PEs that call the coordinator in place share with this task.
    pub fn sharing(
        mut self,
        barriers: &'a BarrierCenter<Requester>,
        locks: &'a LockCenter<Requester>,
    ) -> KernelTask<Live<'a>> {
        self.host.centres = Centres::Run(barriers, locks);
        self
    }

    /// How long the driver may wait for the next event before the task
    /// wants a [`KernelEvent::Tick`] (telemetry emission and the idle
    /// heartbeat).
    pub fn timeout(&self) -> Duration {
        let h = &self.host;
        match h.watch {
            Some(w) => w.interval.saturating_sub(h.last_emit.elapsed()).min(h.tick),
            None => h.tick,
        }
    }

    /// Absolute form of [`KernelTask::timeout`], for deadline-sorted
    /// drivers.
    pub fn deadline(&self) -> Instant {
        Instant::now() + self.timeout()
    }
}

impl<H: Host> KernelTask<H> {
    /// A kernel task over `host`, with its share of the telemetry plane;
    /// `dedup` arms replay of answered requests.
    pub fn hosted(
        host: H,
        telemetry: Option<Telemetry<H::Hook>>,
        tracing: bool,
        dedup: Option<DedupCache>,
    ) -> KernelTask<H> {
        let pe = host.pe();
        KernelTask {
            st: State {
                outbox: VecDeque::new(),
                spans: HomeSpans::new(pe, tracing),
                dedup,
                pending_gated: HashSet::new(),
                handling: Origin {
                    pe,
                    ctx: None,
                    at_ns: 0,
                },
                served: None,
                violation: None,
            },
            host,
            gates: Gates::default(),
            telemetry,
            exited: 0,
            next_local_pid: 1,
        }
    }

    /// The engine's host.
    pub fn host(&self) -> &H {
        &self.host
    }

    /// The engine's host, to move its clock.
    pub fn host_mut(&mut self) -> &mut H {
        &mut self.host
    }

    /// The causal spans recorded so far.
    pub fn spans(&mut self) -> &mut HomeSpans {
        &mut self.st.spans
    }

    /// The next output to play, settling the driver's own steps before it
    /// on the host's clock; `None` once the outbox is empty.
    pub fn pop(&mut self) -> Option<Outbound> {
        loop {
            match self.st.outbox.pop_front()? {
                Step::Out(out) => return Some(out),
                Step::Count(what) => self.host.counters().count(what),
                Step::EndService(start_ns, served) => {
                    let now = self.host.now_ns();
                    self.host.counters().served(now - start_ns);
                    if let Some((from, seq, bytes)) = served {
                        self.st.spans.serve(now, from, 0, seq, bytes);
                    }
                }
            }
        }
    }

    /// Play the whole outbox back in order ([`KernelTask::pop`] until
    /// empty); what a dropped iterator did not reach stays queued.
    pub fn drain_outbox(&mut self) -> impl Iterator<Item = Outbound> + '_ {
        std::iter::from_fn(|| self.pop())
    }

    /// Tear down: the recorded spans.
    pub fn finish(mut self) -> Vec<TraceSpanRec> {
        self.st.spans.take()
    }

    /// Consume one event. Drain the outbox after every call — including
    /// the terminal ones: the abort relay and shutdown fan-out ride it.
    pub fn poll(&mut self, event: KernelEvent) -> Progress {
        match event {
            KernelEvent::AbortLatch => Progress::Aborted(Message::Abort {
                source: self.host.pe(),
                code: abort_code::GENERIC,
                detail: b"cluster abort latch".to_vec(),
            }),
            KernelEvent::Tick => {
                if self.host.tick_due() {
                    self.tick();
                }
                Progress::Pending
            }
            KernelEvent::Message { from, msg, ctx } => {
                let at_ns = self.host.now_ns();
                let from = Origin {
                    pe: from,
                    ctx,
                    at_ns,
                };
                self.deliver(from, None, msg, at_ns)
            }
        }
    }

    /// One telemetry tick: this PE's delta, if it has one, on its way to
    /// PE 0's kernel.
    pub fn tick(&mut self) {
        let metrics = self.host.metrics();
        if let Some(msg) = self.telemetry.as_mut().and_then(|t| t.delta(metrics)) {
            self.st.out(Outbound::WireBestEffort { to: 0, msg });
        }
    }

    /// Handle `msg`, which `from` brought and whose answer goes to `proc`,
    /// taken up at `start_ns` on the host's clock.
    pub fn deliver(
        &mut self,
        from: Origin,
        proc: Option<ProcId>,
        msg: Message,
        start_ns: u64,
    ) -> Progress {
        let (pe, node) = (self.host.pe(), NodeId(from.pe as u16));
        let mut port = Port {
            host: &self.host,
            st: &mut self.st,
        };
        port.st.handling = from;
        let key = port.st.dedup.as_ref().and(dedup_key(&msg, from.pe));
        let who = Requester { from, proc, key };
        if let Some(key) = key {
            if let Some((resp, replay)) = port.st.dedup.as_mut().and_then(|c| c.replay(key)) {
                // Retransmit of a request we already served: replay the
                // cached response rather than re-executing it (a second
                // fetch-add would change the answer). Not a fresh serve,
                // so it ends no service and the emission clock gets no
                // look. The replay is its own serve span (dedup-flagged),
                // derived from the same root as the original serve.
                let dup = MetricKey::pe("kernel", "gm_dup_requests", pe);
                self.host.metrics().incr(dup);
                let seq = resp.req_id().map_or(0, |r| r.0);
                let bytes = resp.wire_len() as u64;
                port.st.spans.serve(start_ns, from, replay, seq, bytes);
                let ctx = HomeSpans::response_ctx(from.ctx, replay);
                let to = from.pe;
                port.st.out(Outbound::Replay { to, msg: resp, ctx });
                return Progress::Pending;
            }
            if port.st.pending_gated.contains(&key) {
                // Retransmit of a write still gated on invalidation acks:
                // drop it. The response becomes replayable the moment the
                // gate opens; re-executing now would leak an ungated ack
                // past the coherence protocol.
                return Progress::Pending;
            }
        }
        // The app thread shares a live kernel's inbox: the acks of its own
        // invalidation rounds (ids below the kernel range) are its mail,
        // like every response and wakeup, and the wire trace context
        // travels along so it can link its redemption span to the remote
        // serve. Delivery is best-effort.
        let app_ack =
            matches!(msg, Message::GmInvalidateAck { req } if req.0 & KERNEL_TXN_BASE == 0);
        let mut end = Some(start_ns);
        let rest = if app_ack || is_app_bound(&msg) {
            port.st.out(Outbound::App { msg, ctx: from.ctx });
            end = None;
            None
        } else {
            let mut protocol = self.host.protocol(mem::take(&mut self.gates));
            let rest = protocol.handle(&mut port, node, who, msg);
            self.gates = protocol.suspend();
            rest
        };
        let mut shutdown = false;
        match rest {
            None => {}
            Some(Message::InvokeReq { req, rank, .. }) => {
                // Parallel process creation: the new process begins on
                // this node once the fork is charged.
                let pid = GlobalPid::new(NodeId(pe as u16), self.next_local_pid);
                self.next_local_pid += 1;
                port.st.out(Outbound::Spawn { rank, pid });
                port.send(node, who, Message::InvokeAck { req, pid });
            }
            Some(Message::TerminateReq { req, pid }) => {
                port.st.out(Outbound::Terminate(pid));
                port.send(node, who, Message::TerminateAck { req });
            }
            Some(Message::ExitNotice { .. }) => {
                self.exited += 1;
                let n = self.host.nprocs();
                if self.exited == n {
                    for q in 0..n as u16 {
                        port.send_kernel(NodeId(q), Message::KernelShutdown);
                    }
                }
            }
            // Telemetry deltas are control-plane traffic: they pay the
            // receive cost like any message but are not "requests served".
            Some(msg @ Message::Telemetry { .. }) => {
                end = None;
                if let (Some(t), Some(agg)) = (&self.telemetry, self.host.aggregator()) {
                    let now = self.host.telemetry_ns();
                    t.ingest(agg, self.host.counters(), from.pe, msg, now);
                }
            }
            Some(frame @ Message::Abort { .. }) => return Progress::Aborted(frame),
            Some(Message::KernelShutdown) => shutdown = true,
            Some(other) => port.protocol_error(node, other.label(), "unexpected message"),
        }
        if let Some(detail) = port.st.violation.take() {
            // Peer input must not take the kernel down with a panic: the
            // run aborts, and the driver reports this first-hand.
            return Progress::Aborted(Message::Abort {
                source: pe,
                code: abort_code::PROTOCOL,
                detail: detail.into_bytes(),
            });
        }
        if shutdown {
            // Land the final absolute state, so the cluster rollup matches
            // the end-of-run registry even if deltas were still in flight.
            if let (Some(t), Some(agg)) = (&mut self.telemetry, self.host.aggregator()) {
                t.flush(agg, self.host.metrics(), self.host.telemetry_ns());
            }
            return Progress::Clean;
        }
        if let Some(start) = end {
            let served = port.st.served.take();
            port.st.outbox.push_back(Step::EndService(start, served));
        }
        if self.host.tick_due() {
            self.tick();
        }
        Progress::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gmem::Distribution;
    use dse_msg::{GlobalPid, ReqId};

    fn env_fixture(nprocs: usize) -> (GlobalStore, Registry, FlightRecorder, Mutex<u64>) {
        (
            GlobalStore::new(nprocs),
            Registry::new(),
            FlightRecorder::with_capacity(16),
            Mutex::new(0),
        )
    }

    fn task<'a>(
        pe: u32,
        nprocs: usize,
        fx: &'a (GlobalStore, Registry, FlightRecorder, Mutex<u64>),
    ) -> KernelTask<Live<'a>> {
        let env = KernelEnv {
            pe,
            nprocs,
            store: &fx.0,
            metrics: &fx.1,
            flight: &fx.2,
            cache: None,
            gm_mode: GmMode::WriteInvalidate,
            install_guard: &fx.3,
            engine_t0: Instant::now(),
            run_start: Instant::now(),
        };
        KernelTask::new(env, None, Duration::from_millis(50), false)
    }

    #[test]
    fn serves_a_gm_read_into_the_outbox() {
        let fx = env_fixture(1);
        let region = fx.0.alloc(8, Distribution::Blocked);
        fx.0.write(region, 0, &7u64.to_le_bytes()).unwrap();
        let mut t = task(0, 1, &fx);
        let prog = t.poll(KernelEvent::Message {
            from: 0,
            msg: Message::GmReadReq {
                req: ReqId(1),
                region,
                offset: 0,
                len: 8,
            },
            ctx: None,
        });
        assert!(matches!(prog, Progress::Pending));
        let out: Vec<_> = t.drain_outbox().collect();
        assert_eq!(out.len(), 1);
        // The requester is our own PE: the live engine hands the response
        // to the application side as it plays the send back.
        match &out[0] {
            Outbound::Wire {
                to: 0,
                msg: Message::GmReadResp { data, .. },
                ..
            } => assert_eq!(data.as_slice(), &7u64.to_le_bytes()),
            _ => panic!("expected a read response for the local app"),
        }
    }

    #[test]
    fn barrier_completes_when_all_parties_enter() {
        let fx = env_fixture(2);
        let mut t = task(0, 2, &fx);
        let enter = |pe: u32| KernelEvent::Message {
            from: pe,
            msg: Message::BarrierEnter {
                barrier: 9,
                pid: GlobalPid::new(NodeId(pe as u16), 0),
            },
            ctx: None,
        };
        t.poll(enter(1));
        assert_eq!(t.drain_outbox().count(), 0, "incomplete round must wait");
        t.poll(enter(0));
        // Every party gets a release, our own one included.
        let releases: Vec<u32> = t
            .drain_outbox()
            .map(|o| match o {
                Outbound::Wire {
                    to,
                    msg: Message::BarrierRelease { barrier: 9, .. },
                    ..
                } => to,
                _ => panic!("expected only barrier releases"),
            })
            .collect();
        assert_eq!(releases, vec![1, 0]);
    }

    #[test]
    fn shutdown_and_abort_are_terminal() {
        let fx = env_fixture(1);
        let mut t = task(0, 1, &fx);
        assert!(matches!(t.poll(KernelEvent::Tick), Progress::Pending));
        assert!(matches!(
            t.poll(KernelEvent::AbortLatch),
            Progress::Aborted(_)
        ));
        let mut t = task(0, 1, &fx);
        let prog = t.poll(KernelEvent::Message {
            from: 0,
            msg: Message::KernelShutdown,
            ctx: None,
        });
        assert!(matches!(prog, Progress::Clean));
    }

    #[test]
    fn fetch_add_retransmit_replays_not_reexecutes() {
        let fx = env_fixture(1);
        let region = fx.0.alloc(8, Distribution::Blocked);
        let mut t = task(0, 1, &fx);
        let req = || KernelEvent::Message {
            from: 0,
            msg: Message::GmFetchAddReq {
                req: ReqId(5),
                region,
                offset: 0,
                delta: 1,
            },
            ctx: None,
        };
        t.poll(req());
        t.poll(req()); // retransmit of the same (from, req)
        let prevs: Vec<i64> = t
            .drain_outbox()
            .map(|o| match o {
                Outbound::Wire {
                    to: 0,
                    msg: Message::GmFetchAddResp { prev, .. },
                    ..
                }
                | Outbound::Replay {
                    to: 0,
                    msg: Message::GmFetchAddResp { prev, .. },
                    ..
                } => prev,
                _ => panic!("expected fetch-add responses"),
            })
            .collect();
        assert_eq!(prevs, vec![0, 0], "dedup must replay the first answer");
        assert_eq!(fx.0.read(region, 0, 8).unwrap(), 1i64.to_le_bytes());
    }

    #[test]
    fn other_requesters_cannot_evict_an_answer_a_retransmit_needs() {
        let fx = env_fixture(66);
        let cell = fx.0.alloc(8, Distribution::OnNode(NodeId(0)));
        let mut t = task(0, 66, &fx);
        let fetch_add = || KernelEvent::Message {
            from: 1,
            msg: Message::GmFetchAddReq {
                req: ReqId(5),
                region: cell,
                offset: 0,
                delta: 1,
            },
            ctx: None,
        };
        t.poll(fetch_add());
        for pe in 2..66 {
            t.poll(KernelEvent::Message {
                from: pe,
                msg: Message::GmReadReq {
                    req: ReqId(0),
                    region: cell,
                    offset: 0,
                    len: 8,
                },
                ctx: None,
            });
        }
        t.poll(fetch_add()); // PE 1 never saw its answer and retransmits
        let prevs: Vec<i64> = t
            .drain_outbox()
            .filter_map(|o| match o {
                Outbound::Wire {
                    to: 1,
                    msg: Message::GmFetchAddResp { prev, .. },
                    ..
                }
                | Outbound::Replay {
                    to: 1,
                    msg: Message::GmFetchAddResp { prev, .. },
                    ..
                } => Some(prev),
                _ => None,
            })
            .collect();
        assert_eq!(prevs, vec![0, 0], "the retransmit must get the same answer");
        assert_eq!(fx.0.read(cell, 0, 8).unwrap(), 1i64.to_le_bytes());
        let snap = fx.1.snapshot();
        assert_eq!(snap.counter("kernel", "gm_dup_requests", Some(0)), Some(1));
    }

    /// Feed PE 0's kernel `msg` from PE 1 after a read has queued its
    /// answer: the poll must end in a protocol abort, not a panic, and what
    /// was queued must still drain.
    fn assert_protocol_abort(msg: Message, names: &str) {
        let fx = env_fixture(2);
        let region = fx.0.alloc(8, Distribution::OnNode(NodeId(0)));
        let mut t = task(0, 2, &fx);
        t.poll(KernelEvent::Message {
            from: 1,
            msg: Message::GmReadReq {
                req: ReqId(1),
                region,
                offset: 0,
                len: 8,
            },
            ctx: None,
        });
        let prog = t.poll(KernelEvent::Message {
            from: 1,
            msg,
            ctx: None,
        });
        match prog {
            Progress::Aborted(Message::Abort {
                source: 0,
                code: abort_code::PROTOCOL,
                detail,
            }) => {
                let detail = String::from_utf8(detail).unwrap();
                assert!(
                    detail.contains(names) && detail.contains("PE 1"),
                    "{detail}"
                );
            }
            _ => panic!("a message the protocol has no place for must abort the run"),
        }
        let out: Vec<_> = t.drain_outbox().collect();
        assert!(
            matches!(
                out[..],
                [Outbound::Wire {
                    to: 1,
                    msg: Message::GmReadResp { .. },
                    ..
                }]
            ),
            "the outbox stays drainable"
        );
    }

    #[test]
    fn an_unexpected_message_aborts_with_a_protocol_code() {
        let ack = Message::InvokeAck {
            req: ReqId(3),
            pid: GlobalPid::new(NodeId(1), 1),
        };
        assert_protocol_abort(ack, "invoke_ack");
    }

    #[test]
    fn an_ack_for_a_gate_never_opened_aborts_with_a_protocol_code() {
        let ack = Message::GmInvalidateAck {
            req: ReqId(KERNEL_TXN_BASE | 41),
        };
        assert_protocol_abort(ack, "gm_invalidate_ack");
    }

    #[test]
    fn an_ack_below_the_kernel_range_is_the_apps() {
        let fx = env_fixture(2);
        let mut t = task(0, 2, &fx);
        let prog = t.poll(KernelEvent::Message {
            from: 1,
            msg: Message::GmInvalidateAck { req: ReqId(41) },
            ctx: None,
        });
        assert!(matches!(prog, Progress::Pending));
        let out: Vec<_> = t.drain_outbox().collect();
        assert!(matches!(
            out[..],
            [Outbound::App {
                msg: Message::GmInvalidateAck { req: ReqId(41) },
                ..
            }]
        ));
    }
}
