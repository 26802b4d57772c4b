//! The resumable kernel state machine: one PE's message loop as a sans-IO
//! task.
//!
//! [`KernelTask`] is the live engine's kernel loop with the blocking
//! receive factored out: instead of owning a transport and sleeping in
//! `recv`, the task consumes one [`KernelEvent`] per [`KernelTask::poll`]
//! call — a decoded message, a housekeeping tick, or the cluster abort
//! latch — and reports [`Progress`]. Everything it wants to say to the
//! world accumulates in an outbox of [`Outbound`] items the driver drains
//! after each poll: wire sends (the driver maps transport errors to
//! failures), best-effort telemetry sends, and forwards to the co-resident
//! application thread.
//!
//! Because the task never blocks, the live engine's one driver can give a
//! task a worker of its own (thread-per-PE: the worker waits in its
//! transport) or let a few workers multiplex thousands of them — the
//! *same* protocol logic either way, which is why results do not depend on
//! the pool's size. The recv tick and the watch-interval telemetry
//! emission are timer state: [`KernelTask::timeout`] tells the driver how
//! long it may wait before the task wants a [`KernelEvent::Tick`].

use std::collections::{HashMap, HashSet, VecDeque};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use dse_msg::{Message, NodeId, RegionId, ReqId, TraceCtx};
use dse_obs::{
    derived_span_id, ClusterAggregator, DeltaTracker, FlightEventKind, FlightRecorder, MetricKey,
    Registry, TelemetryDelta, TraceRecorder, TraceRole, TraceSpanKind, TraceSpanRec,
};

use crate::cache::{blocks_inside, CacheStore};
use crate::config::{GmMode, DEFAULT_GM_WINDOW};
use crate::dedup::{dedup_key, DedupCache};
use crate::gmem::GlobalStore;
use crate::service::{serve_gm, GmServiceHooks, Served};
use crate::sync::{BarrierCenter, BarrierOutcome, LockCenter, LockOutcome, Party, UnlockOutcome};

/// `Abort` frame `code` values used by the kernel and the live engine.
pub mod abort_code {
    /// Abort relayed or triggered without a more specific cause.
    pub const GENERIC: u32 = 0;
    /// A transport send/receive failed.
    pub const TRANSPORT: u32 = 1;
}

// ---------------------------------------------------------------------------
// Deterministic derived span ids.
//
// Spans whose ids both wire endpoints (or two runs of the same seed) must
// agree on are never minted from a counter — they are derived by hashing
// ids the endpoints already share. The salt keeps the three derivation
// families disjoint.
// ---------------------------------------------------------------------------

/// Serve span for the `replay`-th answer (0 = fresh) to the request whose
/// root span is `parent`: requester and home compute the same id.
pub fn serve_span_id(parent: u64, replay: u32) -> u64 {
    derived_span_id(parent, 1 | ((replay as u64) << 8))
}

/// Barrier-release span for one `(barrier, epoch)` round.
pub fn barrier_span_id(barrier: u32, epoch: u32) -> u64 {
    derived_span_id(((barrier as u64) << 24) ^ epoch as u64, 2)
}

/// Lock-grant span for the request `req` issued by PE `owner`.
pub fn lock_span_id(owner: u32, req: u64) -> u64 {
    derived_span_id(((owner as u64) << 40) ^ req, 3)
}

/// Wire context and half-built grant span for a lock grant to `owner`
/// (the caller stamps `end_ns` and `pe`). `start_ns` is when the request
/// arrived at the coordinator, so the span covers the coordinator-side
/// queueing time.
fn lock_grant_trace(
    ctx: Option<TraceCtx>,
    owner: u32,
    req: u64,
    start_ns: u64,
) -> (Option<TraceCtx>, Option<TraceSpanRec>) {
    match ctx {
        Some(c) => {
            let span_id = lock_span_id(owner, req);
            let mut span = TraceSpanRec::new(
                TraceSpanKind::LockGrant,
                c.trace,
                span_id,
                c.parent,
                0,
                start_ns,
                start_ns,
            );
            span.peer = owner;
            span.seq = req;
            (
                Some(TraceCtx {
                    trace: c.trace,
                    parent: span_id,
                }),
                Some(span),
            )
        }
        None => (None, None),
    }
}

/// Kernel transaction ids live above this bit so they can never collide
/// with app-side `ReqIdGen` ids: a `GmInvalidateAck` whose id has the high
/// bit belongs to a home kernel's write gate, anything else to an app's
/// own-node invalidation round.
pub const KERNEL_TXN_BASE: u64 = 1 << 63;

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

/// Kernel-side GM service accounting, using the same metric names the
/// simulator's kernel emits so one `dse-top` view serves both engines.
/// On cached runs the hooks also run the home side of the directory
/// protocol: reads grant leases to the requester at serve time, writes are
/// collected so the task can gate the response on invalidation acks, and a
/// `GmInvalidate` addressed to this PE drops the local replicas.
struct LiveGmHooks<'a> {
    metrics: &'a Registry,
    pe: u32,
    /// The requesting PE of the message being served.
    from: u32,
    /// The run's replica cache (`None` on uncached runs).
    cache: Option<&'a CacheStore>,
    /// This PE's install guard, for holder-side invalidation application.
    guard: &'a Mutex<u64>,
    /// Written ranges of the request being served, in execution order —
    /// the task consults the directory for these after the serve.
    writes: Vec<(RegionId, u64, usize)>,
}

impl GmServiceHooks for LiveGmHooks<'_> {
    fn read_executed(&mut self, region: RegionId, offset: u64, data: &[u8]) {
        self.metrics.add(
            MetricKey::pe("kernel", "gm_bytes_read", self.pe),
            data.len() as u64,
        );
        if let Some(cs) = self.cache {
            // Home-side half of the lease: record the requester as a
            // sharer of every block its fetch fully covers. The data half
            // installs at the requester on completion (epoch-guarded).
            let mut fresh = 0u64;
            for b in blocks_inside(offset, data.len()) {
                if cs.grant(NodeId(self.from as u16), region, b) {
                    fresh += 1;
                }
            }
            if fresh > 0 {
                self.metrics
                    .add(MetricKey::pe("kernel", "dir_leases", self.pe), fresh);
            }
        }
    }
    fn write_executed(&mut self, region: RegionId, offset: u64, len: usize) {
        self.metrics.add(
            MetricKey::pe("kernel", "gm_bytes_written", self.pe),
            len as u64,
        );
        if self.cache.is_some() {
            self.writes.push((region, offset, len));
        }
    }
    fn fetch_add_executed(&mut self, region: RegionId, offset: u64) {
        if self.cache.is_some() {
            self.writes.push((region, offset, 8));
        }
    }
    fn invalidated(&mut self, region: RegionId, offset: u64, len: usize) {
        if let Some(cs) = self.cache {
            // Epoch first, then the drop, both under the guard: an app-side
            // install that checked the epoch before this bump is either
            // already in the map (the drop removes it) or will re-check and
            // skip.
            let mut epoch = self.guard.lock();
            *epoch += 1;
            cs.drop_range(NodeId(self.pe as u16), region, offset, len);
            drop(epoch);
            self.metrics
                .incr(MetricKey::pe("kernel", "dir_invals", self.pe));
        }
    }
}

/// A served write (or atomic) whose response is withheld until every
/// stale replica's invalidation ack has come back — the live engine's
/// single-home transaction ordering.
struct WriteGate {
    /// Invalidation acks still outstanding.
    remaining: usize,
    /// The withheld response.
    resp: Message,
    /// The requester it goes back to.
    to: u32,
    /// Trace context the response rides with.
    ctx: Option<TraceCtx>,
    /// Dedup key of the gated request: inserted into the served cache only
    /// when the response actually goes out.
    key: Option<(u32, u64)>,
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
    /// Normal shutdown: every rank's ExitNotice reached the coordinator
    /// and `KernelShutdown` came back.
    Clean,
    /// The run is aborting; the payload is the `Abort` frame to relay
    /// (PE 0 re-broadcasts it to the cluster).
    Aborted(Message),
}

/// One queued output of a poll step, drained by the driver in order.
pub enum Outbound {
    /// A wire send whose failure fails the kernel (the driver maps the
    /// transport error and stops draining).
    Wire {
        /// Destination PE.
        to: u32,
        /// The message.
        msg: Message,
        /// Trace context to ride the frame.
        ctx: Option<TraceCtx>,
    },
    /// A best-effort wire send (telemetry deltas: the aggregating PE may
    /// already be gone during shutdown; a lost delta is healed by the
    /// final absolute round).
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
}

/// The shared run state one kernel task serves against. All references
/// point into the live engine's cluster structure; the task copies them
/// out so borrows never tangle with the task's own mutable state.
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
    /// Post-mortem ring of recent wire sends and stalls.
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

impl KernelEnv<'_> {
    fn now_ns(&self) -> u64 {
        self.engine_t0.elapsed().as_nanos() as u64
    }
}

/// Telemetry hook invoked on the aggregating PE's emission ticks.
pub type WatchHook<'h> = &'h (dyn Fn(&ClusterAggregator, u64) + Send + Sync);

/// One PE's kernel as a resumable state machine. See the module docs for
/// the event/driver contract; see the live engine's `sched` for the driver.
pub struct KernelTask<'a> {
    env: KernelEnv<'a>,
    /// Coordination state lives on PE 0 (reply tokens are PE ranks).
    barriers: BarrierCenter<u32>,
    locks: LockCenter<u32>,
    served_cache: DedupCache,
    // Directory coherence state (cached runs only): write gates awaiting
    // invalidation acks, the inval-txn → gate index, and the dedup keys of
    // requests currently gated (their retransmits are dropped, not
    // re-executed).
    gates: HashMap<u64, WriteGate>,
    inval_to_gate: HashMap<u64, u64>,
    pending_gated: HashSet<(u32, u64)>,
    next_txn: u64,
    // Trace context and arrival time of coordination requests still
    // pending an answer: barrier rounds keyed by barrier id (first-enter
    // time), lock requests keyed by (requester, req).
    barrier_open: HashMap<u32, u64>,
    lock_pend: HashMap<(u32, u64), (Option<TraceCtx>, u64)>,
    exited: usize,
    last_emit: Instant,
    watch: Option<(Duration, WatchHook<'a>)>,
    /// Bound on the driver's wait between events.
    tick: Duration,
    tracker: DeltaTracker,
    agg: Option<ClusterAggregator>,
    rec: TraceRecorder,
    outbox: VecDeque<Outbound>,
}

impl<'a> KernelTask<'a> {
    /// A fresh kernel task over `env`. `watch` enables telemetry emission
    /// every interval (and aggregation + hook invocation on PE 0); `tick`
    /// bounds the driver's idle wait; `tracing` records causal spans.
    pub fn new(
        env: KernelEnv<'a>,
        watch: Option<(Duration, WatchHook<'a>)>,
        tick: Duration,
        tracing: bool,
    ) -> KernelTask<'a> {
        let pe = env.pe;
        KernelTask {
            barriers: BarrierCenter::new(env.nprocs),
            locks: LockCenter::new(),
            served_cache: DedupCache::new(DEDUP_PER_REQUESTER),
            gates: HashMap::new(),
            inval_to_gate: HashMap::new(),
            pending_gated: HashSet::new(),
            next_txn: 0,
            barrier_open: HashMap::new(),
            lock_pend: HashMap::new(),
            exited: 0,
            last_emit: Instant::now(),
            watch,
            tick,
            tracker: DeltaTracker::new(pe, pe == 0),
            agg: (pe == 0 && watch.is_some()).then(|| ClusterAggregator::new(env.nprocs)),
            rec: if tracing {
                TraceRecorder::new(pe, TraceRole::Kernel)
            } else {
                TraceRecorder::disabled(pe, TraceRole::Kernel)
            },
            outbox: VecDeque::new(),
            env,
        }
    }

    /// How long the driver may wait for the next event before the task
    /// wants a [`KernelEvent::Tick`] (telemetry emission and the idle
    /// heartbeat).
    pub fn timeout(&self) -> Duration {
        match &self.watch {
            Some((iv, _)) => iv.saturating_sub(self.last_emit.elapsed()).min(self.tick),
            None => self.tick,
        }
    }

    /// Absolute form of [`KernelTask::timeout`], for deadline-sorted
    /// drivers.
    pub fn deadline(&self) -> Instant {
        Instant::now() + self.timeout()
    }

    /// Drain queued outputs in order. Dropping the iterator early (e.g. on
    /// the first failed send) discards the rest: the kernel aborts on its
    /// first failed send.
    pub fn drain_outbox(&mut self) -> std::collections::vec_deque::Drain<'_, Outbound> {
        self.outbox.drain(..)
    }

    /// Tear down: the delta tracker (for the final absolute telemetry
    /// round), the aggregator (watched PE 0 only), and the recorded spans.
    pub fn finish(mut self) -> (DeltaTracker, Option<ClusterAggregator>, Vec<TraceSpanRec>) {
        (self.tracker, self.agg, self.rec.take())
    }

    fn send(&mut self, to: u32, msg: Message, ctx: Option<TraceCtx>) {
        self.env.flight.record(
            self.env.now_ns(),
            self.env.pe,
            FlightEventKind::Bus {
                label: msg.label(),
                to_pe: to,
                bytes: msg.wire_len() as u64,
            },
        );
        if to == self.env.pe && is_app_bound(&msg) {
            // A response addressed to our own application thread. Sending
            // it over the transport would only loop it back to this very
            // kernel (encode → own inbox → wake → decode → reclassify as
            // app-bound) one poll later; hand it to the app directly
            // instead. Kernel-bound self-traffic (e.g. invalidation acks)
            // still rides the wire so its handling order is unchanged.
            self.outbox.push_back(Outbound::App { msg, ctx });
        } else {
            self.outbox.push_back(Outbound::Wire { to, msg, ctx });
        }
    }

    /// Consume one event. Drain the outbox after every call — including
    /// the terminal ones: the abort relay and shutdown fan-out ride it.
    pub fn poll(&mut self, event: KernelEvent) -> Progress {
        let pe = self.env.pe;
        let mut shutdown = false;
        match event {
            KernelEvent::AbortLatch => {
                return Progress::Aborted(Message::Abort {
                    source: pe,
                    code: abort_code::GENERIC,
                    detail: b"cluster abort latch".to_vec(),
                });
            }
            KernelEvent::Tick => {}
            KernelEvent::Message { from, msg, ctx } => match self.handle_message(from, msg, ctx) {
                Handled::Swallowed => return Progress::Pending,
                Handled::Done => {}
                Handled::Shutdown => shutdown = true,
                Handled::Aborted(frame) => return Progress::Aborted(frame),
            },
        }
        self.emit_if_due();
        if shutdown {
            Progress::Clean
        } else {
            Progress::Pending
        }
    }

    fn emit_if_due(&mut self) {
        let pe = self.env.pe;
        if let Some((interval, hook)) = self.watch {
            if self.last_emit.elapsed() >= interval {
                self.last_emit = Instant::now();
                let snap = self.env.metrics.snapshot();
                // PE 0 forces an empty heartbeat so the aggregator's
                // staleness clock keeps advancing on an idle cluster.
                if let Some((seq, d)) = self.tracker.delta(&snap, &[], pe == 0) {
                    self.outbox.push_back(Outbound::WireBestEffort {
                        to: 0,
                        msg: Message::Telemetry {
                            pe,
                            seq,
                            payload: d.encode(),
                        },
                    });
                }
                if let Some(agg) = self.agg.as_ref() {
                    hook(agg, self.env.run_start.elapsed().as_nanos() as u64);
                }
            }
        }
    }

    fn handle_message(&mut self, from: u32, msg: Message, ctx: Option<TraceCtx>) -> Handled {
        let env = self.env;
        let pe = env.pe;
        let nprocs = env.nprocs;
        let rc = env.gm_mode == GmMode::ReleaseConsistency;
        let t0 = Instant::now();
        let t_in_ns = env.now_ns();
        env.metrics.incr(MetricKey::pe("kernel", "messages", pe));
        let key = dedup_key(&msg, from);
        if let Some(key) = key {
            if let Some((resp, replay)) = self.served_cache.replay(key) {
                // Retransmit of a request we already served: replay the
                // cached response rather than re-executing it (a second
                // fetch-add would change the answer). Not a fresh serve,
                // so `requests_served` stays put.
                env.metrics
                    .incr(MetricKey::pe("kernel", "gm_dup_requests", pe));
                // The replay is its own serve span (dedup-flagged),
                // derived from the same root as the original serve.
                let resp_ctx = ctx.map(|c| TraceCtx {
                    trace: c.trace,
                    parent: serve_span_id(c.parent, replay),
                });
                let bytes = resp.wire_len() as u64;
                self.send(from, resp, resp_ctx);
                if let Some(c) = ctx {
                    let mut span = TraceSpanRec::new(
                        TraceSpanKind::Serve,
                        c.trace,
                        serve_span_id(c.parent, replay),
                        c.parent,
                        pe,
                        t_in_ns,
                        env.now_ns(),
                    );
                    span.peer = from;
                    span.bytes = bytes;
                    span.seq = key.1;
                    span.dedup = true;
                    self.rec.push(span);
                }
                return Handled::Swallowed;
            }
            if self.pending_gated.contains(&key) {
                // Retransmit of a write still gated on invalidation acks:
                // drop it. The response becomes replayable the moment the
                // gate opens; re-executing now would leak an ungated ack
                // past the coherence protocol.
                return Handled::Swallowed;
            }
        }
        let mut hooks = LiveGmHooks {
            metrics: env.metrics,
            pe,
            from,
            cache: env.cache,
            guard: env.install_guard,
            writes: Vec::new(),
        };
        let gm_ctx = ctx;
        match serve_gm(env.store, msg, &mut hooks) {
            Served::Response(resp) => {
                env.metrics
                    .incr(MetricKey::pe("kernel", "requests_served", pe));
                env.metrics.record(
                    MetricKey::pe("kernel", "service_ns", pe),
                    t0.elapsed().as_nanos() as u64,
                );
                // Fresh serve: child of the requester's root span, and
                // the response carries the serve span as the parent so
                // the requester's redemption links back to it.
                let resp_ctx = gm_ctx.map(|c| TraceCtx {
                    trace: c.trace,
                    parent: serve_span_id(c.parent, 0),
                });
                if let Some(c) = gm_ctx {
                    let mut span = TraceSpanRec::new(
                        TraceSpanKind::Serve,
                        c.trace,
                        serve_span_id(c.parent, 0),
                        c.parent,
                        pe,
                        t_in_ns,
                        env.now_ns(),
                    );
                    span.peer = from;
                    span.bytes = resp.wire_len() as u64;
                    span.seq = key.map(|k| k.1).unwrap_or(0);
                    self.rec.push(span);
                }
                // Directory coherence for the ranges this serve wrote:
                // WI takes the sharers and gates the response on their
                // acks; RC leaves the leases in place and counts the
                // deferral (the replicas die at the holders' next
                // acquire).
                let mut invals: Vec<(NodeId, RegionId, u64, usize)> = Vec::new();
                if let Some(cs) = env.cache {
                    let writer = NodeId(from as u16);
                    let writes = std::mem::take(&mut hooks.writes);
                    for (region, offset, len) in writes {
                        if rc {
                            if !cs.peek_holders(region, offset, len, writer).is_empty() {
                                env.metrics
                                    .incr(MetricKey::pe("kernel", "rc_deferred_invals", pe));
                            }
                            continue;
                        }
                        let holders = cs.take_holders(region, offset, len, writer);
                        if holders.is_empty() {
                            continue;
                        }
                        env.metrics
                            .incr(MetricKey::pe("kernel", "invalidation_rounds", pe));
                        env.metrics.add(
                            MetricKey::pe("kernel", "cache_invalidations", pe),
                            holders.len() as u64,
                        );
                        for h in holders {
                            if h.0 as u32 == pe {
                                // Our own replica: apply the drop
                                // in-place, no wire round needed.
                                hooks.invalidated(region, offset, len);
                            } else {
                                invals.push((h, region, offset, len));
                            }
                        }
                    }
                }
                if invals.is_empty() {
                    if let Some(key) = key {
                        self.served_cache.insert(key, resp.clone());
                    }
                    self.send(from, resp, resp_ctx);
                } else {
                    let gate_id = self.next_txn;
                    let mut remaining = 0usize;
                    for (h, region, offset, len) in invals {
                        self.next_txn += 1;
                        let txn = KERNEL_TXN_BASE | self.next_txn;
                        self.inval_to_gate.insert(txn, gate_id);
                        remaining += 1;
                        self.send(
                            h.0 as u32,
                            Message::GmInvalidate {
                                req: ReqId(txn),
                                region,
                                offset,
                                len: len as u32,
                            },
                            None,
                        );
                    }
                    if let Some(key) = key {
                        self.pending_gated.insert(key);
                    }
                    self.gates.insert(
                        gate_id,
                        WriteGate {
                            remaining,
                            resp,
                            to: from,
                            ctx: resp_ctx,
                            key,
                        },
                    );
                }
            }
            Served::NotGm(msg) if is_app_bound(&msg) => {
                // Response or wakeup addressed to our application thread;
                // delivery is best-effort. The wire trace context travels
                // along so the app thread can link its redemption span to
                // the remote serve.
                self.outbox.push_back(Outbound::App { msg, ctx: gm_ctx });
            }
            Served::NotGm(msg) => match msg {
                Message::GmInvalidateAck { req } => {
                    if let Some(gate_id) = self.inval_to_gate.remove(&req.0) {
                        // One of our write gates: the holder has dropped
                        // its replica. Open the gate once the last ack
                        // lands — only then does the writer see its ack
                        // and only then does the response become
                        // replayable for retransmits.
                        let done = {
                            let g = self
                                .gates
                                .get_mut(&gate_id)
                                .expect("invalidation ack for an unknown gate");
                            g.remaining -= 1;
                            g.remaining == 0
                        };
                        if done {
                            let g = self.gates.remove(&gate_id).unwrap();
                            if let Some(key) = g.key {
                                self.pending_gated.remove(&key);
                                self.served_cache.insert(key, g.resp.clone());
                            }
                            self.send(g.to, g.resp, g.ctx);
                        }
                    } else {
                        // An app-originated invalidation round (own-node
                        // write): the ack belongs to our app thread.
                        self.outbox.push_back(Outbound::App {
                            msg: Message::GmInvalidateAck { req },
                            ctx: gm_ctx,
                        });
                    }
                }
                Message::BarrierEnter { barrier, pid } => {
                    let party = Party {
                        pid,
                        node: NodeId(from as u16),
                        reply_to: from,
                        req: ReqId(0),
                    };
                    self.barrier_open.entry(barrier).or_insert(t_in_ns);
                    if let BarrierOutcome::Complete { epoch, waiters } =
                        self.barriers.enter(barrier, party)
                    {
                        let release = Message::BarrierRelease { barrier, epoch };
                        // One release span covers the whole round, first
                        // enter to completion; its id is derived from
                        // (barrier, epoch) so both runs of a seed agree.
                        // Parent: the completing enter's wait span (the
                        // enter that made the round whole).
                        let span_id = barrier_span_id(barrier, epoch);
                        let release_ctx = gm_ctx.map(|c| TraceCtx {
                            trace: c.trace,
                            parent: span_id,
                        });
                        for w in waiters {
                            self.send(w.reply_to, release.clone(), release_ctx);
                        }
                        self.send(from, release, release_ctx);
                        if let Some(c) = gm_ctx {
                            let opened = self.barrier_open.remove(&barrier).unwrap_or(t_in_ns);
                            let mut span = TraceSpanRec::new(
                                TraceSpanKind::BarrierRelease,
                                c.trace,
                                span_id,
                                c.parent,
                                pe,
                                opened,
                                env.now_ns(),
                            );
                            span.peer = from;
                            span.seq = barrier as u64;
                            self.rec.push(span);
                        } else {
                            self.barrier_open.remove(&barrier);
                        }
                    }
                }
                Message::LockReq { req, lock, pid } => {
                    let party = Party {
                        pid,
                        node: NodeId(from as u16),
                        reply_to: from,
                        req,
                    };
                    match self.locks.acquire(lock, party) {
                        LockOutcome::Granted => {
                            let (ctx, grant) = lock_grant_trace(gm_ctx, from, req.0, t_in_ns);
                            self.send(from, Message::LockGrant { req, lock }, ctx);
                            if let Some(mut span) = grant {
                                span.end_ns = env.now_ns();
                                span.pe = pe;
                                self.rec.push(span);
                            }
                        }
                        LockOutcome::Queued => {
                            self.lock_pend.insert((from, req.0), (gm_ctx, t_in_ns));
                        }
                    }
                }
                Message::UnlockReq { lock, pid } => {
                    if let UnlockOutcome::Granted(next) = self.locks.release(lock, pid) {
                        let (pend_ctx, queued_at) = self
                            .lock_pend
                            .remove(&(next.reply_to, next.req.0))
                            .unwrap_or((None, t_in_ns));
                        let (ctx, grant) =
                            lock_grant_trace(pend_ctx, next.reply_to, next.req.0, queued_at);
                        self.send(
                            next.reply_to,
                            Message::LockGrant {
                                req: next.req,
                                lock,
                            },
                            ctx,
                        );
                        if let Some(mut span) = grant {
                            span.end_ns = env.now_ns();
                            span.pe = pe;
                            self.rec.push(span);
                        }
                    }
                }
                Message::ExitNotice { .. } => {
                    self.exited += 1;
                    if self.exited == nprocs {
                        for q in 0..nprocs as u32 {
                            self.send(q, Message::KernelShutdown, None);
                        }
                    }
                }
                Message::Telemetry {
                    pe: src,
                    seq,
                    payload,
                } => {
                    if let Some(agg) = self.agg.as_mut() {
                        let now_ns = env.run_start.elapsed().as_nanos() as u64;
                        match TelemetryDelta::decode(&payload) {
                            Ok(delta) => agg.apply(src, seq, now_ns, &delta),
                            Err(e) => {
                                // A corrupt delta is dropped and accounted
                                // as a sequence gap — the telemetry plane
                                // degrades, the run does not.
                                eprintln!(
                                    "live kernel PE {pe}: dropping corrupt telemetry \
                                     delta from PE {src} (seq {seq}): {e}"
                                );
                                env.metrics
                                    .incr(MetricKey::pe("kernel", "telemetry_corrupt", pe));
                                agg.note_corrupt(src, seq, now_ns);
                            }
                        }
                    }
                }
                Message::Abort {
                    source,
                    code,
                    detail,
                } => {
                    return Handled::Aborted(Message::Abort {
                        source,
                        code,
                        detail,
                    });
                }
                Message::KernelShutdown => return Handled::Shutdown,
                other => panic!("live kernel PE {pe}: unexpected message {other:?}"),
            },
        }
        Handled::Done
    }
}

/// Internal outcome of one message dispatch.
enum Handled {
    /// Dedup replay or gated retransmit: skip the emission check.
    Swallowed,
    /// Handled; fall through to the emission check.
    Done,
    /// `KernelShutdown` seen: clean exit after the emission check.
    Shutdown,
    /// An `Abort` frame (to relay).
    Aborted(Message),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gmem::Distribution;
    use dse_msg::GlobalPid;

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
    ) -> KernelTask<'a> {
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
        // The requester is our own PE, so the response short-circuits the
        // wire loopback and goes straight to the application side.
        match &out[0] {
            Outbound::App {
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
        // Remote parties get wire releases; our own party's release skips
        // the self-loopback and goes straight to the local app.
        let releases: Vec<u32> = t
            .drain_outbox()
            .map(|o| match o {
                Outbound::Wire {
                    to,
                    msg: Message::BarrierRelease { barrier: 9, .. },
                    ..
                } => to,
                Outbound::App {
                    msg: Message::BarrierRelease { barrier: 9, .. },
                    ..
                } => 0,
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
                // Self-addressed responses route directly to the local app.
                Outbound::App {
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
                } => Some(prev),
                _ => None,
            })
            .collect();
        assert_eq!(prevs, vec![0, 0], "the retransmit must get the same answer");
        assert_eq!(fx.0.read(cell, 0, 8).unwrap(), 1i64.to_le_bytes());
        let snap = fx.1.snapshot();
        assert_eq!(snap.counter("kernel", "gm_dup_requests", Some(0)), Some(1));
    }
}
