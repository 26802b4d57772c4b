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
//! The protocol itself — GM service, the directory step, response gates,
//! barriers and locks — is the shared [`KernelProtocol`], the same machine
//! the simulator's kernel runs. This file is its live driver and its live
//! port: the outbox, the metrics registry, the wall clock the shared
//! [`HomeSpans`] are stamped with, and what only a lossy wire needs (replay
//! of answered requests, exit collection, abort relay). The telemetry plane
//! is the shared [`Telemetry`]; only its emission pacing is this file's.
//!
//! Because the task never blocks, the live engine's one driver can give a
//! task a worker of its own (thread-per-PE: the worker waits in its
//! transport) or let a few workers multiplex thousands of them — the
//! *same* protocol logic either way, which is why results do not depend on
//! the pool's size. The recv tick and the watch-interval telemetry
//! emission are timer state: [`KernelTask::timeout`] tells the driver how
//! long it may wait before the task wants a [`KernelEvent::Tick`].

use std::collections::{HashSet, VecDeque};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use dse_msg::{Message, NodeId, RegionId, TraceCtx};
use dse_obs::{
    ClusterAggregator, FlightEventKind, FlightRecorder, MetricKey, Registry, TraceSpanRec,
};

use crate::cache::CacheStore;
use crate::config::{GmMode, DEFAULT_GM_WINDOW};
use crate::counters::{KernelCount, PeCounters};
use crate::dedup::{dedup_key, DedupCache};
use crate::gmem::GlobalStore;
use crate::home_spans::{HomeSpans, Origin};
use crate::protocol::{KernelPort, KernelProtocol, KERNEL_TXN_BASE};
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
    /// sender's shutdown flush).
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

    /// The run clock the telemetry plane is stamped with.
    fn run_ns(&self) -> u64 {
        self.run_start.elapsed().as_nanos() as u64
    }
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

/// Where a live kernel's answer goes: what the request brought (its PE,
/// wire trace context and arrival time), and its dedup key if it is one a
/// requester retries.
#[derive(Debug, Clone, Copy)]
struct Requester {
    from: Origin,
    key: Option<(u32, u64)>,
}

/// The live engine behind [`KernelPort`]: sends queue on the outbox,
/// counters go to the metrics registry, nothing is charged. On top, what
/// only a lossy wire needs: the memory of answered requests and the keys
/// of gated ones.
struct LivePort<'a> {
    env: KernelEnv<'a>,
    /// Coordination state lives on PE 0.
    barriers: BarrierCenter<Requester>,
    locks: LockCenter<Requester>,
    served_cache: DedupCache,
    /// Dedup keys of requests whose response is gated (their retransmits
    /// are dropped, not re-executed).
    pending_gated: HashSet<(u32, u64)>,
    /// What the message being handled brought, and when handling began.
    handling: Origin,
    began: Instant,
    /// A peer's message the protocol rejected: the run aborts.
    violation: Option<String>,
    spans: HomeSpans,
    outbox: VecDeque<Outbound>,
}

impl LivePort<'_> {
    fn wire(&mut self, to: u32, msg: Message, ctx: Option<TraceCtx>) {
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

    /// Record the serve span of `resp`, the `replay`-th answer (0 = fresh)
    /// to `to`'s request (nothing on an untraced run).
    fn serve_span(&mut self, to: Requester, replay: u32, resp: &Message) {
        if to.from.ctx.is_some() {
            let (seq, bytes) = (to.key.map_or(0, |k| k.1), resp.wire_len() as u64);
            self.spans
                .serve(self.env.now_ns(), to.from, replay, seq, bytes);
        }
    }
}

impl KernelPort for LivePort<'_> {
    type Reply = Requester;

    fn barriers(&self) -> &BarrierCenter<Requester> {
        &self.barriers
    }

    fn locks(&self) -> &LockCenter<Requester> {
        &self.locks
    }

    fn charge_copy(&mut self, _bytes: usize) {
        // The copy already ran for real; nothing to account.
    }

    fn count(&mut self, what: KernelCount) {
        PeCounters::new(self.env.metrics, self.env.pe, None).count(what);
    }

    /// Only the home-side half of the lease: the data travels in the
    /// response and the requester installs it on completion, under its
    /// install epoch.
    fn lease(
        &mut self,
        cache: &CacheStore,
        holder: NodeId,
        region: RegionId,
        block: u64,
        _data: &[u8],
    ) -> bool {
        cache.grant(holder, region, block)
    }

    fn drop_replicas(&mut self, cache: &CacheStore, region: RegionId, offset: u64, len: usize) {
        // Epoch first, then the drop, both under the guard: an app-side
        // install that checked the epoch before this bump is either
        // already in the map (the drop removes it) or will re-check and
        // skip.
        let mut epoch = self.env.install_guard.lock();
        *epoch += 1;
        cache.drop_range(NodeId(self.env.pe as u16), region, offset, len);
    }

    fn send(&mut self, _node: NodeId, to: Requester, msg: Message) {
        // Only now — not while it was gated — does the answer to a
        // retriable request become replayable for retransmits.
        if let Some(key) = to.key {
            if !self.pending_gated.is_empty() {
                self.pending_gated.remove(&key);
            }
            self.served_cache.insert(key, msg.clone());
        }
        let now = self.env.now_ns();
        let ctx = self.spans.reply_ctx(now, self.handling.ctx, to.from, &msg);
        self.wire(to.from.pe, msg, ctx);
    }

    fn send_kernel(&mut self, node: NodeId, msg: Message) {
        self.wire(node.0 as u32, msg, None);
    }

    fn served(&mut self, to: Requester, resp: &Message, gated: bool) {
        let pe = self.env.pe;
        self.env
            .metrics
            .incr(MetricKey::pe("kernel", "requests_served", pe));
        self.env.metrics.record(
            MetricKey::pe("kernel", "service_ns", pe),
            self.began.elapsed().as_nanos() as u64,
        );
        self.serve_span(to, 0, resp);
        if let (true, Some(key)) = (gated, to.key) {
            self.pending_gated.insert(key);
        }
    }

    fn barrier_completed(&mut self, barrier: u32, epoch: u32, first: Requester) {
        let (now, completer) = (self.env.now_ns(), self.handling);
        self.spans
            .barrier_completed(now, completer, barrier, epoch, first.from.at_ns);
    }

    fn protocol_error(&mut self, from: NodeId, label: &'static str, detail: &str) {
        self.violation
            .get_or_insert_with(|| format!("{label} from PE {}: {detail}", from.0));
    }
}

/// One PE's kernel as a resumable state machine. See the module docs for
/// the event/driver contract; see the live engine's `sched` for the driver.
pub struct KernelTask<'a> {
    port: LivePort<'a>,
    protocol: KernelProtocol<'a, Requester>,
    exited: usize,
    last_emit: Instant,
    /// `None` on an unwatched run: no emission, and deltas are not heard.
    watch: Option<(Watch<'a>, Telemetry<&'a EpochHook<'a>>)>,
    /// Bound on the driver's wait between events.
    tick: Duration,
}

impl<'a> KernelTask<'a> {
    /// A fresh kernel task over `env`. `watch` enables telemetry emission
    /// every interval, ingest on PE 0 and the shutdown flush; `tick`
    /// bounds the driver's idle wait; `tracing` records causal spans.
    pub fn new(
        env: KernelEnv<'a>,
        watch: Option<Watch<'a>>,
        tick: Duration,
        tracing: bool,
    ) -> KernelTask<'a> {
        let pe = env.pe;
        KernelTask {
            port: LivePort {
                env,
                barriers: BarrierCenter::new(env.nprocs),
                locks: LockCenter::new(),
                served_cache: DedupCache::new(DEDUP_PER_REQUESTER),
                pending_gated: HashSet::new(),
                handling: Origin {
                    pe,
                    ctx: None,
                    at_ns: 0,
                },
                began: Instant::now(),
                violation: None,
                spans: HomeSpans::new(pe, tracing),
                outbox: VecDeque::new(),
            },
            protocol: KernelProtocol::new(
                env.store,
                env.cache,
                env.gm_mode == GmMode::ReleaseConsistency,
            ),
            exited: 0,
            last_emit: Instant::now(),
            watch: watch.map(|w| (w, Telemetry::new(pe, Some(w.hook)))),
            tick,
        }
    }

    /// How long the driver may wait for the next event before the task
    /// wants a [`KernelEvent::Tick`] (telemetry emission and the idle
    /// heartbeat).
    pub fn timeout(&self) -> Duration {
        match &self.watch {
            Some((w, _)) => w
                .interval
                .saturating_sub(self.last_emit.elapsed())
                .min(self.tick),
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
        self.port.outbox.drain(..)
    }

    /// Tear down: the recorded spans.
    pub fn finish(mut self) -> Vec<TraceSpanRec> {
        self.port.spans.take()
    }

    /// Consume one event. Drain the outbox after every call — including
    /// the terminal ones: the abort relay and shutdown fan-out ride it.
    pub fn poll(&mut self, event: KernelEvent) -> Progress {
        match event {
            KernelEvent::AbortLatch => Progress::Aborted(Message::Abort {
                source: self.port.env.pe,
                code: abort_code::GENERIC,
                detail: b"cluster abort latch".to_vec(),
            }),
            KernelEvent::Tick => {
                self.emit_if_due();
                Progress::Pending
            }
            KernelEvent::Message { from, msg, ctx } => self.handle_message(from, msg, ctx),
        }
    }

    fn emit_if_due(&mut self) {
        let Some((watch, telemetry)) = &mut self.watch else {
            return;
        };
        if self.last_emit.elapsed() >= watch.interval {
            self.last_emit = Instant::now();
            if let Some(msg) = telemetry.delta(self.port.env.metrics) {
                let outbox = &mut self.port.outbox;
                outbox.push_back(Outbound::WireBestEffort { to: 0, msg });
            }
        }
    }

    fn handle_message(&mut self, from: u32, msg: Message, ctx: Option<TraceCtx>) -> Progress {
        let env = self.port.env;
        let pe = env.pe;
        let port = &mut self.port;
        let at_ns = env.now_ns();
        let arrived = Origin {
            pe: from,
            ctx,
            at_ns,
        };
        (port.handling, port.began) = (arrived, Instant::now());
        let who = Requester {
            from: arrived,
            key: dedup_key(&msg, from),
        };
        env.metrics.incr(MetricKey::pe("kernel", "messages", pe));
        if let Some(key) = who.key {
            if let Some((resp, replay)) = port.served_cache.replay(key) {
                // Retransmit of a request we already served: replay the
                // cached response rather than re-executing it (a second
                // fetch-add would change the answer). Not a fresh serve,
                // so `requests_served` stays put and neither does the
                // emission clock get a look. The replay is its own serve
                // span (dedup-flagged), derived from the same root as the
                // original serve.
                env.metrics
                    .incr(MetricKey::pe("kernel", "gm_dup_requests", pe));
                port.serve_span(who, replay, &resp);
                port.wire(from, resp, HomeSpans::response_ctx(ctx, replay));
                return Progress::Pending;
            }
            if port.pending_gated.contains(&key) {
                // Retransmit of a write still gated on invalidation acks:
                // drop it. The response becomes replayable the moment the
                // gate opens; re-executing now would leak an ungated ack
                // past the coherence protocol.
                return Progress::Pending;
            }
        }
        // The app thread shares this kernel's inbox: the acks of its own
        // invalidation rounds (ids below the kernel range) are its mail,
        // like every response and wakeup, and the wire trace context
        // travels along so it can link its redemption span to the remote
        // serve. Delivery is best-effort.
        let app_ack =
            matches!(msg, Message::GmInvalidateAck { req } if req.0 & KERNEL_TXN_BASE == 0);
        let rest = if app_ack || is_app_bound(&msg) {
            port.outbox.push_back(Outbound::App { msg, ctx });
            None
        } else {
            self.protocol.handle(port, NodeId(from as u16), who, msg)
        };
        let mut shutdown = false;
        match rest {
            None => {}
            Some(Message::ExitNotice { .. }) => {
                self.exited += 1;
                if self.exited == env.nprocs {
                    for q in 0..env.nprocs as u32 {
                        port.wire(q, Message::KernelShutdown, None);
                    }
                }
            }
            Some(msg @ Message::Telemetry { .. }) => {
                if let Some((watch, telemetry)) = &self.watch {
                    let counters = PeCounters::new(env.metrics, pe, None);
                    telemetry.ingest(watch.aggregator, counters, from, msg, env.run_ns());
                }
            }
            Some(frame @ Message::Abort { .. }) => return Progress::Aborted(frame),
            Some(Message::KernelShutdown) => shutdown = true,
            Some(other) => {
                port.protocol_error(NodeId(from as u16), other.label(), "unexpected message")
            }
        }
        if let Some(detail) = port.violation.take() {
            // Peer input must not take the kernel down with a panic: the
            // run aborts, and the driver reports this first-hand.
            return Progress::Aborted(Message::Abort {
                source: pe,
                code: abort_code::PROTOCOL,
                detail: detail.into_bytes(),
            });
        }
        if shutdown {
            if let Some((watch, telemetry)) = &mut self.watch {
                telemetry.flush(watch.aggregator, env.metrics, env.run_ns());
            }
            return Progress::Clean;
        }
        self.emit_if_due();
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
