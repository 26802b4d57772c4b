//! The application-thread half of the live engine: [`LivePort`], what the
//! engine puts behind `dse-api`'s [`GmPort`].
//!
//! The Parallel API library is not written here: [`LiveCtx`] is `dse-api`'s
//! [`ApiCtx`] over this port, the same context, `GmClient` and operation
//! bodies the simulator runs, retransmission and the request deadline
//! included. The port is the wire: the transport endpoint and app inbox, a
//! wait that gives up at the client's deadline, the wall clock the shared
//! library stamps its spans and samples with, the replica cache's
//! install-epoch guard, and the structured failure of the calling rank.

use std::collections::VecDeque;
use std::panic::resume_unwind;
use std::sync::Arc;
use std::time::Duration;

use dse_api::{ApiCtx, Arrival, GmPort, GmProtocolError, RequesterSpans, Unanswered};
use dse_kernel::protocol::{coordinate, sharers_to_invalidate};
use dse_kernel::task::{Outbound, Requester};
use dse_kernel::{
    BarrierCenter, Coordinator, GlobalStore, GmCount, GmError, GmMode, HomeSpans, KernelCount,
    LockCenter, Origin, PeCounters, DEFAULT_GM_WINDOW,
};
use dse_msg::{GlobalPid, Message, NodeId, RegionId, ReqIdGen, TraceCtx};
use dse_obs::{FlightEventKind, MetricKey, TraceRole};
use dse_transport::{Pop, RetryPolicy, Transport};

use super::{play_outbound, AbortUnwind, AppInbox, LiveCluster};
use crate::error::FailureKind;

/// The live engine behind [`GmPort`]: the transport endpoint and app inbox,
/// the messages that arrived while the app was waiting for something else,
/// and the process's causal spans.
pub struct LivePort {
    rank: u32,
    cluster: Arc<LiveCluster>,
    transport: Arc<dyn Transport>,
    app_rx: AppInbox,
    /// Messages (with their wire trace context) that arrived while
    /// awaiting something else.
    stash: VecDeque<(Message, Option<TraceCtx>)>,
    /// Causal spans of this app thread.
    spans: RequesterSpans,
    /// PE 0's kernel spans of the coordination calls this thread made in
    /// place (barrier releases, lock grants).
    coord_spans: HomeSpans,
    /// The answers of the call in place, before they are played.
    coord_out: Vec<Outbound>,
}

/// The live engine behind [`Coordinator`] for a coordination call an
/// application thread makes in place: the run's one barrier and lock
/// state, PE 0's counters and spans (the coordinator's, whichever thread
/// runs it), and the answers queued for the kernel's delivery rule.
struct InPlace<'p> {
    cluster: &'p LiveCluster,
    spans: &'p mut HomeSpans,
    out: &'p mut Vec<Outbound>,
    /// What the call brought.
    handling: Origin,
}

impl Coordinator for InPlace<'_> {
    type Reply = Requester;

    fn barriers(&self) -> &BarrierCenter<Requester> {
        &self.cluster.barriers
    }

    fn locks(&self) -> &LockCenter<Requester> {
        &self.cluster.locks
    }

    fn count(&mut self, what: KernelCount) {
        PeCounters::new(&self.cluster.metrics, 0, None).count(what);
    }

    fn send(&mut self, node: NodeId, to: Requester, msg: Message) {
        let now = self.cluster.now_ns();
        let ctx = self.spans.reply_ctx(now, self.handling.ctx, to.from, &msg);
        let to = node.0 as u32;
        self.out.push(Outbound::Wire {
            to,
            proc: None,
            msg,
            ctx,
        });
    }

    fn barrier_completed(&mut self, barrier: u32, epoch: u32, first: Requester) {
        let now = self.cluster.now_ns();
        self.spans
            .barrier_completed(now, self.handling, barrier, epoch, first.from.at_ns);
    }
}

/// Per-process context of the live engine: the Parallel API library of
/// `dse-api` over a [`LivePort`] — own-node ranges go straight to the store
/// (the linked-library fast path), remote ranges become staged request
/// messages that coalesce per home and travel as real wire traffic.
pub type LiveCtx = ApiCtx<LivePort>;

impl LivePort {
    pub(super) fn new(
        rank: u32,
        cluster: Arc<LiveCluster>,
        transport: Arc<dyn Transport>,
    ) -> LivePort {
        let app_rx = Arc::clone(&cluster.app_inboxes[rank as usize]);
        let spans = RequesterSpans::new(rank, cluster.tracing, cluster.now_ns());
        let coord_spans = HomeSpans::new(0, cluster.tracing);
        LivePort {
            rank,
            cluster,
            transport,
            app_rx,
            stash: VecDeque::new(),
            spans,
            coord_spans,
            coord_out: Vec::new(),
        }
    }

    /// Called by the harness however the body ended: close the app root
    /// span and park this thread's causal spans in the cluster sink — an
    /// aborted run still yields a usable partial trace. What it did in
    /// place for the coordinator is PE 0's kernel's.
    pub(super) fn flush_trace(&mut self) {
        let spans = self.spans.finish(self.cluster.now_ns());
        let sink = &self.cluster.trace_sink;
        sink.park(self.rank, TraceRole::App, spans);
        sink.park(0, TraceRole::Kernel, self.coord_spans.take());
    }

    fn me(&self) -> NodeId {
        NodeId(self.rank as u16)
    }

    /// Record a first-hand app failure (if it is the first observation),
    /// latch the cluster abort, and unwind this app thread without
    /// tripping the panic hook.
    fn die(&self, kind: FailureKind) -> ! {
        self.cluster.note_app_failure(self.rank, kind);
        resume_unwind(Box::new(AbortUnwind))
    }

    fn send_traced(&self, to: u32, msg: &Message, ctx: Option<TraceCtx>) {
        self.cluster.flight.record(
            self.cluster.now_ns(),
            self.rank,
            FlightEventKind::Bus {
                label: msg.label(),
                to_pe: to,
                bytes: msg.wire_len() as u64,
            },
        );
        let sent = match ctx {
            Some(c) => self.transport.send_ctx(to, msg, c),
            None => self.transport.send(to, msg),
        };
        if let Err(e) = sent {
            self.die(FailureKind::Transport(e));
        }
    }

    /// The home's own directory step for a write to `[offset, offset +
    /// len)` of this PE's own partition: the sharers whose replicas it made
    /// stale.
    fn holders(&self, region: RegionId, offset: u64, len: usize) -> Vec<NodeId> {
        let Some(cs) = self.cluster.cache.as_ref() else {
            return Vec::new();
        };
        let rc = self.cluster.gm_mode == GmMode::ReleaseConsistency;
        sharers_to_invalidate(cs, rc, (region, offset, len), self.me(), |c| {
            self.counters().count(c)
        })
    }
}

impl GmPort for LivePort {
    fn node(&self) -> NodeId {
        self.me()
    }

    fn store(&self) -> &GlobalStore {
        &self.cluster.store
    }

    fn caching(&self) -> bool {
        self.cluster.cache.is_some()
    }

    fn gm_window(&self) -> usize {
        DEFAULT_GM_WINDOW
    }

    /// The fault plan may drop a request or its answer.
    fn retry_policy(&self) -> Option<RetryPolicy> {
        Some(self.cluster.retry)
    }

    fn spans(&mut self) -> &mut RequesterSpans {
        &mut self.spans
    }

    fn now_ns(&self) -> u64 {
        self.cluster.now_ns()
    }

    fn counters(&self) -> PeCounters<'_> {
        PeCounters::new(&self.cluster.metrics, self.rank, None)
    }

    fn charge_local(&mut self, _bytes: usize) {
        // The access already ran for real; nothing to account.
    }

    fn send_request(&mut self, home: NodeId, msg: &Message, ctx: Option<TraceCtx>) {
        self.send_traced(home.0 as u32, msg, ctx);
    }

    /// Receives from the app inbox (fed by the local kernel and, on a
    /// direct run, by remote kernels and other PEs' coordination calls in
    /// place). Barrier and lock traffic is never retransmitted (it is not
    /// idempotent, and the fault plan leaves control messages unharmed), so
    /// its waits come without a deadline and block untimed: the kernel
    /// pushes the `Abort` frame and then closes the inbox when the run
    /// dies.
    fn await_msg(
        &mut self,
        mut pred: impl FnMut(&Message) -> bool,
        deadline: Option<u64>,
    ) -> Option<(Message, Arrival)> {
        let stashed = self.stash.iter().position(|(m, _)| pred(m));
        let (msg, ctx) = match stashed.and_then(|idx| self.stash.remove(idx)) {
            Some(got) => got,
            None => loop {
                let now = self.cluster.now_ns();
                let timeout = deadline.map(|d| Duration::from_nanos(d.saturating_sub(now)));
                let got = match self.app_rx.pop(timeout) {
                    Pop::Item(got) => got,
                    Pop::TimedOut => return None,
                    Pop::Closed => self.die(FailureKind::KernelGone),
                };
                if matches!(got.0, Message::Abort { .. }) {
                    // The run is aborting; this thread is a casualty, not a
                    // cause — unwind without recording a failure.
                    resume_unwind(Box::new(AbortUnwind));
                }
                if pred(&got.0) {
                    break got;
                }
                self.stash.push_back(got);
            },
        };
        let arrival = Arrival {
            ctx,
            at_ns: self.cluster.now_ns(),
            wire_bytes: msg.wire_len() as u64,
        };
        Some((msg, arrival))
    }

    /// The requester's deadline is the live engine's one stall detector:
    /// count the trip, leave the request it gave up on in the post-mortem,
    /// and fail the rank.
    fn gm_deadline(&mut self, lost: Unanswered) -> ! {
        self.cluster
            .metrics
            .incr(MetricKey::pe("kernel", "gm_deadline_trips", self.rank));
        let (trace, span) = lost.ctx.map_or((0, 0), |c| (c.trace, c.parent));
        let stall = FlightEventKind::Stall {
            kind: lost.kind,
            seq: lost.req.0,
            waited_ns: lost.waited_ns,
        };
        let now_ns = self.cluster.now_ns();
        self.cluster
            .flight
            .record_traced(now_ns, self.rank, trace, span, stall);
        self.die(FailureKind::GmDeadline {
            req: lost.req.0,
            home: lost.home.0 as u32,
            attempts: lost.attempts,
        })
    }

    fn protocol_error(&mut self, err: GmProtocolError) -> ! {
        self.die(FailureKind::Protocol {
            req: err.req,
            detail: err.detail,
        })
    }

    /// A first-hand failure of this rank's application thread.
    fn bad_access(&self, what: &str, err: GmError) -> ! {
        self.die(FailureKind::BadAccess {
            detail: format!("{what} failed: {err}"),
        })
    }

    fn replica_get(&mut self, region: RegionId, block: u64) -> Option<Vec<u8>> {
        self.cluster.cache.as_ref()?.get(self.me(), region, block)
    }

    /// 0 on uncached runs, which install nothing.
    fn install_epoch(&self) -> u64 {
        match self.cluster.cache {
            Some(_) => *self.cluster.install_guards[self.rank as usize].lock(),
            None => 0,
        }
    }

    /// Requester-side half of the lease the home granted at serve time:
    /// install the fully fetched blocks, unless an invalidation has landed
    /// since dispatch (epoch mismatch) — then the bytes may already be
    /// stale and the lease stays data-less.
    fn replica_install<'d>(
        &mut self,
        epoch: u64,
        region: RegionId,
        blocks: impl Iterator<Item = (u64, &'d [u8])>,
    ) {
        let Some(cs) = self.cluster.cache.as_ref() else {
            return;
        };
        let guard = self.cluster.install_guards[self.rank as usize].lock();
        if *guard == epoch {
            for (b, data) in blocks {
                cs.install_data(self.me(), region, b, data.to_vec());
            }
        }
    }

    fn replica_drop(&mut self, region: RegionId, offset: u64, len: usize) {
        if let Some(cs) = self.cluster.cache.as_ref() {
            cs.drop_range(self.me(), region, offset, len);
        }
    }

    /// Self-invalidation costs zero wire traffic — the whole point of
    /// deferring the write-side invalidations. No-op under
    /// write-invalidate, where the protocol keeps replicas exact.
    fn replica_purge(&mut self) {
        if let Some(cs) = self.cluster.cache.as_ref() {
            if self.cluster.gm_mode == GmMode::ReleaseConsistency {
                let mut epoch = self.cluster.install_guards[self.rank as usize].lock();
                *epoch += 1;
                cs.purge_node(self.me());
                drop(epoch);
                self.counters().count(GmCount::RcAcquire);
            }
        }
    }

    /// The store write comes *first*: any replica leased after it already
    /// holds the new bytes, and every lease granted before it is in the
    /// holder set the client invalidates.
    fn own_node_write(
        &mut self,
        _reqs: &mut ReqIdGen,
        region: RegionId,
        offset: u64,
        data: &[u8],
    ) -> Result<Vec<NodeId>, GmError> {
        self.cluster.store.write(region, offset, data)?;
        Ok(self.holders(region, offset, data.len()))
    }

    /// Store first, like an own-node write.
    fn own_node_fetch_add(
        &mut self,
        _reqs: &mut ReqIdGen,
        region: RegionId,
        offset: u64,
        delta: i64,
    ) -> Result<(i64, Vec<NodeId>), GmError> {
        let prev = self.cluster.store.fetch_add(region, offset, delta)?;
        Ok((prev, self.holders(region, offset, 8)))
    }

    /// A request like any other: one `gm_request_msgs`.
    fn send_atomic(&mut self, home: NodeId, msg: &Message, ctx: Option<TraceCtx>) {
        self.counters().count(GmCount::RequestMsg);
        self.send_traced(home.0 as u32, msg, ctx);
    }

    /// PE 0's application, and on a direct run every PE's, runs the call
    /// in place on the run's state: the completing barrier caller proceeds
    /// straight through, and the answers go out by the kernel's delivery
    /// rule (a lock grant is a message even to the caller). Any other PE
    /// sends the call to PE 0's kernel, which serves it from the same
    /// state.
    fn to_coordinator(&mut self, call: Message, ctx: Option<TraceCtx>) -> bool {
        if !self.cluster.in_place(self.rank) {
            self.send_traced(0, &call, ctx);
            return false;
        }
        let handling = Origin {
            pe: self.rank,
            ctx,
            at_ns: self.cluster.now_ns(),
        };
        let mut port = InPlace {
            cluster: &self.cluster,
            spans: &mut self.coord_spans,
            out: &mut self.coord_out,
            handling,
        };
        let reply = Requester {
            from: handling,
            proc: None,
            key: None,
        };
        let completed = match coordinate(&mut port, NodeId(self.rank as u16), reply, call) {
            Ok(release) => release.is_some(),
            Err(other) => unreachable!("{} is not a call to the coordinator", other.label()),
        };
        let (cluster, transport) = (&*self.cluster, &*self.transport);
        if let Err(kind) = play_outbound(self.coord_out.drain(..), transport, cluster, self.rank) {
            self.die(kind);
        }
        completed
    }

    /// Notify the coordinator, which shuts the kernels down once every rank
    /// is out. The spans are parked by `flush_trace`, which runs
    /// on every exit path.
    fn exit(&mut self, pid: GlobalPid) {
        self.send_traced(0, &Message::ExitNotice { pid, status: 0 }, None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FailureRole, FaultPlan, LiveRunConfig, LiveRunner, RetryPolicy, SchedulerKind};
    use dse_api::{GmArray, GmCounter, ParallelApi};
    use dse_kernel::Distribution;
    use dse_msg::ReqId;

    #[test]
    fn transient_drops_are_absorbed_by_retry() {
        // Deterministically drop and duplicate some GM traffic: the retry
        // layer (app retransmits, kernel dedups) must still produce the
        // exact fault-free answer.
        let cfg = LiveRunConfig {
            fault_plan: Some(FaultPlan::parse("seed=11,drop=150,dup=80").unwrap()),
            ..LiveRunConfig::default()
        };
        let r = LiveRunner::new(3)
            .config(cfg)
            .try_run(|ctx| {
                let arr = GmArray::<u64>::alloc(ctx, 12, Distribution::Blocked);
                for i in 0..12 {
                    if i % 3 == ctx.rank() as usize {
                        arr.set(ctx, i, (i * 7) as u64);
                    }
                }
                ctx.barrier();
                let all = arr.read(ctx, 0, 12);
                assert_eq!(all, (0..12u64).map(|i| i * 7).collect::<Vec<_>>());
            })
            .expect("drops and dups are recoverable faults");
        assert_eq!(r.nprocs, 3);
    }

    #[test]
    fn a_fault_plan_on_the_channel_reaches_the_answers() {
        // A fault plan perturbs every wire message it may, answers
        // included: on a faulty channel no answer skips the wire, so a
        // lost one is retransmitted and replayed from the home's memory.
        let plan = FaultPlan {
            seed: 11,
            drop_permille: 40,
            ..FaultPlan::default()
        };
        let r = LiveRunner::new(2).fault_plan(plan).run(|ctx| {
            let arr = GmArray::<u64>::alloc(ctx, 16, Distribution::Blocked);
            // Elements of the other PE's half: every access is remote.
            let theirs = 8 * (1 - ctx.rank() as usize);
            for i in 0..800 {
                arr.set(ctx, theirs + i % 8, i as u64);
            }
            ctx.barrier();
        });
        let m = &r.metrics;
        assert!(m.counter_sum_over_pes("kernel", "gm_retries") > 0);
        assert!(
            m.counter_sum_over_pes("kernel", "gm_dup_requests") > 0,
            "no answer was lost and replayed"
        );
        assert_eq!(m.counter_sum_over_pes("kernel", "app_direct_msgs"), 0);
    }

    #[test]
    fn gm_deadline_trips_when_home_pe_never_answers() {
        // Drop *everything* recoverable: every GM request vanishes, so the
        // issuing app must exhaust its retries and trip the deadline.
        let cfg = LiveRunConfig {
            fault_plan: Some(FaultPlan::parse("seed=1,drop=1000").unwrap()),
            gm_retry: RetryPolicy {
                max_attempts: 3,
                base_delay: Duration::from_millis(5),
                max_delay: Duration::from_millis(20),
            },
            ..LiveRunConfig::default()
        };
        let err = LiveRunner::new(2)
            .config(cfg)
            .try_run(|ctx| {
                let arr = GmArray::<u64>::alloc(ctx, 8, Distribution::Blocked);
                // Rank 0 writes into rank 1's half: always a wire request.
                if ctx.rank() == 0 {
                    arr.set(ctx, 7, 42);
                }
                ctx.barrier();
            })
            .expect_err("an unanswerable GM request must trip the deadline");
        assert!(
            err.failures
                .iter()
                .any(|f| matches!(f.kind, FailureKind::GmDeadline { attempts: 3, .. })),
            "deadline trip must be first-hand: {err}"
        );
        // The requester's deadline is the live engine's stall detector: the
        // post-mortem names the request it gave up on.
        assert!(
            err.flight_jsonl
                .contains("\"type\":\"stall\",\"kind\":\"gm_write\""),
            "{}",
            err.flight_jsonl
        );
    }

    #[test]
    fn telemetry_that_names_another_pe_is_dropped() {
        // PE 1 hands PE 0's aggregator a delta that claims to come from PE
        // u32::MAX: applied, it would size the node table for 4 billion PEs.
        let nodes = std::sync::atomic::AtomicUsize::new(0);
        let hook = |agg: &dse_obs::ClusterAggregator, _now_ns: u64| {
            nodes.store(agg.nodes().len(), std::sync::atomic::Ordering::SeqCst);
        };
        let r = LiveRunner::new(2)
            .watch(Duration::from_millis(1), &hook)
            .run(|ctx| {
                if ctx.rank() == 1 {
                    let forged = Message::Telemetry {
                        pe: u32::MAX,
                        seq: 1,
                        payload: dse_obs::TelemetryDelta::default().encode(),
                    };
                    // Sent ahead of the barrier on the same wire, so PE 0's
                    // kernel handles it before the run can end.
                    assert!(ctx.port.transport.send(0, &forged).is_ok());
                }
                ctx.barrier();
            });
        assert_eq!(
            nodes.into_inner(),
            2,
            "the aggregator grew past the run's PEs"
        );
        assert_eq!(
            r.metrics.counter("kernel", "telemetry_corrupt", Some(0)),
            Some(1)
        );
    }

    #[test]
    fn split_phase_batches_on_the_wire() {
        // Two non-adjacent writes to the same remote home must coalesce
        // into one GmBatchReq: exactly one request message for both.
        let r = LiveRunner::new(2).run(|ctx| {
            let arr = GmArray::<u64>::alloc(ctx, 16, Distribution::Blocked);
            if ctx.rank() == 0 {
                // Elements 8..16 are homed on rank 1.
                let h1 = ctx.gm_write_nb(arr.region(), 8 * 8, &7u64.to_le_bytes());
                let h2 = ctx.gm_write_nb(arr.region(), 10 * 8, &9u64.to_le_bytes());
                ctx.gm_wait(h1);
                ctx.gm_wait(h2);
            }
            ctx.barrier();
            if ctx.rank() == 1 {
                assert_eq!(arr.get(ctx, 8), 7);
                assert_eq!(arr.get(ctx, 10), 9);
            }
        });
        assert_eq!(
            r.metrics.counter("kernel", "gm_request_msgs", Some(0)),
            Some(1),
            "two staged writes to one home must travel as one batch"
        );
    }

    /// Rank 0 reads four elements from each of the other 40 homes before
    /// its first wait: 40 staged segments to 40 distinct homes, so the
    /// flush wants 40 requests in flight at once.
    fn forty_homes_body(ctx: &mut LiveCtx) {
        let arr = GmArray::<u64>::alloc(ctx, 41 * 4, Distribution::Blocked);
        let me = ctx.rank() as usize;
        for i in 0..4 {
            arr.set(ctx, me * 4 + i, (me * 100 + i) as u64);
        }
        ctx.barrier();
        if me == 0 {
            let handles: Vec<_> = (1..41usize)
                .map(|home| ctx.gm_read_nb(arr.region(), (home * 4 * 8) as u64, 4 * 8))
                .collect();
            for (home, h) in (1..41usize).zip(handles) {
                let bytes = ctx.gm_wait(h).expect("a read handle carries data");
                for (i, cell) in bytes.chunks_exact(8).enumerate() {
                    let got = u64::from_le_bytes(cell.try_into().unwrap());
                    assert_eq!(got, (home * 100 + i) as u64, "home {home} element {i}");
                }
            }
        }
        ctx.barrier();
    }

    #[test]
    fn in_flight_requests_are_bounded_by_the_window() {
        let r = LiveRunner::new(41)
            .scheduler(SchedulerKind::Tasks)
            .run(forty_homes_body);
        let high_water = r.metrics.gauge("kernel", "gm_inflight", Some(0));
        assert_eq!(
            high_water,
            Some(DEFAULT_GM_WINDOW as u64),
            "40 requests wanted out, the window admits 32"
        );
        // Under loss the backpressure wait drains through the retry timer
        // rather than deadlocking on the handle's issuance token.
        let r = LiveRunner::new(41)
            .scheduler(SchedulerKind::Tasks)
            .fault_plan(FaultPlan::parse("seed=11,drop=150").unwrap())
            .try_run(forty_homes_body)
            .expect("drops are recoverable under backpressure too");
        let high_water = r.metrics.gauge("kernel", "gm_inflight", Some(0));
        assert!(high_water <= Some(DEFAULT_GM_WINDOW as u64));
    }

    #[test]
    fn malformed_response_fails_the_run_with_a_protocol_error() {
        let err = LiveRunner::new(2)
            .try_run(|ctx| {
                let arr = GmArray::<u64>::alloc(ctx, 8, Distribution::Blocked);
                ctx.barrier();
                if ctx.rank() == 0 {
                    // A peer answers request 0 — the remote read below —
                    // with a write acknowledgement.
                    let forged = Message::GmWriteAck { req: ReqId(0) };
                    ctx.port.cluster.app_push(0, forged, None);
                    arr.get(ctx, 7);
                }
                ctx.barrier();
            })
            .expect_err("a response of the wrong kind must fail the run");
        assert!(
            err.failures.iter().any(|f| matches!(
                &f.kind,
                FailureKind::Protocol { req: 0, detail }
                    if detail == "expected a read response, got gm_write_ack"
            )),
            "the requester must report it first-hand: {err}"
        );
    }

    #[test]
    fn a_message_no_kernel_expects_fails_the_run_instead_of_unwinding() {
        let err = LiveRunner::new(2)
            .try_run(|ctx| {
                if ctx.rank() == 1 {
                    // Kernels acknowledge invocations, they never receive
                    // the acknowledgement.
                    let stray = Message::InvokeAck {
                        req: ReqId(9),
                        pid: GlobalPid::new(NodeId(1), 1),
                    };
                    ctx.port.send_traced(0, &stray, None);
                }
                ctx.barrier();
            })
            .expect_err("the coordinator's kernel must abort the run");
        assert!(
            err.failures.iter().any(|f| f.pe == 0
                && f.role == FailureRole::Kernel
                && matches!(
                    &f.kind,
                    FailureKind::PeerProtocol { detail }
                        if detail == "invoke_ack from PE 1: unexpected message"
                )),
            "PE 0's kernel must report it first-hand: {err}"
        );
    }

    #[test]
    fn tracing_links_requester_serve_and_redeem_spans() {
        use dse_obs::TraceSpanKind;
        let cfg = LiveRunConfig {
            tracing: true,
            ..LiveRunConfig::default()
        };
        let r = LiveRunner::new(2)
            .config(cfg)
            .try_run(|ctx| {
                let arr = GmArray::<u64>::alloc(ctx, 8, Distribution::Blocked);
                arr.set(ctx, ctx.rank() as usize, ctx.rank() as u64 + 1);
                ctx.barrier();
                let all = arr.read(ctx, 0, 8);
                assert_eq!(all[0], 1);
                assert_eq!(all[1], 2);
            })
            .unwrap();
        assert_eq!(r.trace_spans.len(), 2);
        let all: Vec<_> = r.trace_spans.iter().flatten().collect();
        // Every PE closes exactly one root app span.
        assert_eq!(
            all.iter()
                .filter(|s| s.kind == TraceSpanKind::App && s.parent == 0)
                .count(),
            2
        );
        // Each GM request span must chain requester -> home serve ->
        // requester redeem: the serve span's id is derived from the
        // request span id on both endpoints independently.
        let reqs: Vec<_> = all
            .iter()
            .filter(|s| s.kind == TraceSpanKind::GmReq)
            .collect();
        assert!(!reqs.is_empty(), "remote reads must open request spans");
        for rq in &reqs {
            let serve_id = dse_obs::serve_span_id(rq.span, 0);
            let serve = all
                .iter()
                .find(|s| s.kind == TraceSpanKind::Serve && s.span == serve_id)
                .unwrap_or_else(|| panic!("request span {} has no serve span", rq.span));
            assert_ne!(serve.pe, rq.pe, "serve happens at the home PE");
            assert!(
                all.iter()
                    .any(|s| s.kind == TraceSpanKind::Redeem && s.parent == serve_id),
                "serve span {serve_id} never redeemed at the requester"
            );
            assert_eq!(serve.trace, rq.trace, "one trace id end to end");
        }
        // Barrier rounds: each PE's wait span links to a release span
        // carrying the same barrier id in `seq`.
        let waits: Vec<_> = all
            .iter()
            .filter(|s| s.kind == TraceSpanKind::BarrierWait)
            .collect();
        assert!(!waits.is_empty(), "barrier rounds must record wait spans");
        assert_eq!(waits.len() % 2, 0, "every round blocks both PEs");
        for w in &waits {
            assert!(
                all.iter()
                    .any(|s| s.kind == TraceSpanKind::BarrierRelease && s.seq == w.seq),
                "barrier wait {} has no matching release",
                w.seq
            );
        }
    }

    /// Shared-table workload for the coherence tests: every rank replicates
    /// the whole array, then each rank writes one element homed on the
    /// *next* rank (so a third rank always holds a stale replica), plus one
    /// element of its own partition, then everyone re-reads everything.
    fn coherence_body(ctx: &mut LiveCtx) {
        // 384 u64 over 3 ranks: 128 elements (1024 bytes = 2 cache blocks)
        // per home.
        let arr = GmArray::<u64>::alloc(ctx, 384, Distribution::Blocked);
        ctx.barrier();
        let _ = arr.read(ctx, 0, 384); // replicate everything
        ctx.barrier();
        let me = ctx.rank() as usize;
        let remote = 128 * ((me + 1) % 3) + 7;
        let own = 128 * me + 11;
        arr.set(ctx, remote, (1000 + me) as u64);
        arr.set(ctx, own, (2000 + me) as u64);
        ctx.barrier();
        let all = arr.read(ctx, 0, 384);
        for r in 0..3usize {
            assert_eq!(all[128 * ((r + 1) % 3) + 7], (1000 + r) as u64);
            assert_eq!(all[128 * r + 11], (2000 + r) as u64);
        }
    }

    #[test]
    fn cached_wi_invalidates_stale_replicas() {
        // Write-invalidate: the stale third-party replicas must be killed
        // over the wire (home-gated remote writes and app-driven own-node
        // writes both), or the final reads above would observe stale data.
        let r = LiveRunner::new(3).gm_cache(true).run(coherence_body);
        let m = &r.metrics;
        assert!(m.counter_sum_over_pes("kernel", "dir_leases") > 0, "leases");
        assert!(m.counter_sum_over_pes("kernel", "dir_hits") > 0, "hits");
        assert!(
            m.counter_sum_over_pes("kernel", "cache_invalidations") > 0,
            "writes with sharers must invalidate"
        );
        assert!(
            m.counter_sum_over_pes("kernel", "dir_invals") > 0,
            "holders must apply wire invalidations"
        );
        assert_eq!(m.counter_sum_over_pes("kernel", "rc_deferred_invals"), 0);
    }

    #[test]
    fn cached_rc_is_correct_at_sync_points() {
        // Release consistency: zero invalidation traffic; the barriers'
        // implied acquires purge the replicas, so the final reads still
        // observe every released write. (The replicate-read is itself
        // followed by a barrier, so its leases are released again before
        // the writes — deferral counting is covered by the flag-ordered
        // test below.)
        let r = LiveRunner::new(3)
            .gm_cache(true)
            .gm_mode(GmMode::ReleaseConsistency)
            .run(coherence_body);
        let m = &r.metrics;
        assert_eq!(
            m.counter_sum_over_pes("kernel", "cache_invalidations"),
            0,
            "RC must not send invalidations"
        );
        assert_eq!(m.counter_sum_over_pes("kernel", "invalidation_rounds"), 0);
        assert!(
            m.counter_sum_over_pes("kernel", "rc_acquires") > 0,
            "barriers imply acquires"
        );
    }

    #[test]
    fn cached_read_mostly_serves_from_replicas() {
        let r = LiveRunner::new(2).gm_cache(true).run(|ctx| {
            let arr = GmArray::<u64>::alloc(ctx, 256, Distribution::Blocked);
            ctx.barrier();
            for _ in 0..5 {
                let all = arr.read(ctx, 0, 256);
                assert_eq!(all[0], 0);
            }
        });
        let m = &r.metrics;
        assert!(
            m.counter_sum_over_pes("kernel", "dir_hits")
                >= m.counter_sum_over_pes("kernel", "dir_misses"),
            "repeat reads must be served from replicas"
        );
        // 5 full-array reads each, but only the first one fetches the
        // remote half: the request count stays near the uncached cost of a
        // single sweep.
        assert!(
            m.counter_sum_over_pes("kernel", "gm_request_msgs") <= 4,
            "replica hits must keep requests off the wire, got {}",
            m.counter_sum_over_pes("kernel", "gm_request_msgs")
        );
    }

    #[test]
    fn cached_rc_defers_invalidations_to_acquire() {
        // A hand-rolled release/acquire pair (no barrier, so no implied
        // purge between the lease and the write): the writer's update to a
        // block rank 0 holds a replica of must be *deferred* (counted, not
        // sent), and rank 0's explicit acquire must drop the stale replica
        // — without the purge, the cached block would satisfy the read.
        let r = LiveRunner::new(2)
            .gm_cache(true)
            .gm_mode(GmMode::ReleaseConsistency)
            .run(|ctx| {
                let arr = GmArray::<u64>::alloc(ctx, 256, Distribution::Blocked);
                let flag = GmCounter::alloc(ctx);
                ctx.barrier();
                if ctx.rank() == 0 {
                    let _ = arr.read(ctx, 128, 128); // replicate rank 1's half
                    flag.next(ctx); // leases are on record: let the writer go
                    while flag.load(ctx) < 2 {
                        std::thread::yield_now();
                    }
                    ctx.gm_acquire();
                    assert_eq!(arr.get(ctx, 200), 77, "acquire must drop the replica");
                } else {
                    while flag.load(ctx) < 1 {
                        std::thread::yield_now();
                    }
                    arr.set(ctx, 200, 77); // own partition; rank 0 holds a lease
                    ctx.gm_release();
                    flag.next(ctx);
                }
            });
        let m = &r.metrics;
        assert!(
            m.counter_sum_over_pes("kernel", "rc_deferred_invals") > 0,
            "a write over a leased block must count a deferral"
        );
        assert_eq!(
            m.counter_sum_over_pes("kernel", "cache_invalidations"),
            0,
            "RC must not send invalidations"
        );
        assert!(m.counter_sum_over_pes("kernel", "rc_acquires") > 0);
    }

    #[test]
    fn tracing_off_records_nothing() {
        let r = LiveRunner::new(2).run(|ctx| {
            let arr = GmArray::<u64>::alloc(ctx, 4, Distribution::Blocked);
            arr.set(ctx, ctx.rank() as usize, 1);
            ctx.barrier();
        });
        assert!(r.trace_spans.iter().all(|v| v.is_empty()));
    }

    #[test]
    fn gm_mode_without_cache_is_inert() {
        // Setting a coherence protocol while the cache is off must not
        // change behavior: no directory, no leases, no invalidations.
        let r = LiveRunner::new(3)
            .gm_mode(GmMode::ReleaseConsistency)
            .run(|ctx| {
                let arr = GmArray::<u64>::alloc(ctx, 6, Distribution::Blocked);
                arr.set(ctx, ctx.rank() as usize, 5);
                ctx.barrier();
                let _ = arr.read(ctx, 0, 6);
                ctx.gm_release();
                ctx.gm_acquire();
            });
        assert_eq!(r.metrics.counter_sum_over_pes("kernel", "dir_leases"), 0);
        assert_eq!(r.metrics.counter_sum_over_pes("kernel", "dir_invals"), 0);
        assert_eq!(
            r.metrics
                .counter_sum_over_pes("kernel", "rc_deferred_invals"),
            0
        );
    }

    #[test]
    fn cache_with_write_invalidate_and_rc_both_run_clean() {
        // The two legal gm_mode/gm_cache combinations both complete and
        // agree on program results.
        for mode in [GmMode::WriteInvalidate, GmMode::ReleaseConsistency] {
            let r = LiveRunner::new(2).gm_cache(true).gm_mode(mode).run(|ctx| {
                let arr = GmArray::<u64>::alloc(ctx, 4, Distribution::Blocked);
                arr.set(ctx, ctx.rank() as usize, 11);
                ctx.barrier();
                ctx.gm_acquire();
                let sum: u64 = arr.read(ctx, 0, 4).iter().sum();
                assert_eq!(sum, 22);
            });
            assert!(r.metrics.counter_sum_over_pes("kernel", "requests_served") > 0);
        }
    }
}
