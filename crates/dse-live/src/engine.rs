//! The live execution engine: the same Parallel API, driven by real wire
//! messages over a pluggable [`Transport`].
//!
//! Where the simulator answers "how long would this have taken on a 1999
//! cluster", the live engine *runs* the program — and it runs it the way
//! the paper's Fig. 3 describes. Each processor element hosts two threads:
//!
//! * an **application thread** executing the rank's body through
//!   [`LiveCtx`], whose global-memory accesses take the own-node fast path
//!   when the range is homed locally and otherwise become encoded
//!   `GmReadReq`/`GmWriteReq`/`GmBatchReq` request messages to the home
//!   PE's kernel;
//! * a **kernel thread** — the linked-library DSE kernel's message loop —
//!   the sole consumer of the PE's transport endpoint. It services incoming
//!   GM requests against the global store, forwards responses to its own
//!   application thread, and (on PE 0) runs the cluster coordinator:
//!   barriers, locks, exit collection, and the telemetry aggregator behind
//!   `--watch`.
//!
//! The transport is chosen per run ([`TransportKind`]): an in-process
//! channel mesh, a framed TCP-over-loopback mesh, or Unix domain sockets —
//! identical program results on all of them, which is the portability claim
//! made mechanical.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use dse_api::{GmClient, GmCount, GmHandle, GmPort, GmProtocolError, ParallelApi};
use dse_kernel::gmem::GlobalStore;
use dse_kernel::task::{is_app_bound, KernelEnv, KernelEvent, KernelTask, Outbound, Progress};
use dse_kernel::{CacheStore, Distribution, GmMode, SchedulerKind, DEFAULT_GM_WINDOW};
use dse_msg::{GlobalPid, Message, NodeId, RegionId, ReqId, ReqIdGen, TraceCtx};
use dse_obs::{
    ClusterAggregator, DeltaTracker, FlightEventKind, FlightRecorder, MetricKey, MetricsSnapshot,
    Registry, SpanKind, TelemetryDelta, TraceRecorder, TraceRole, TraceSpanKind, TraceSpanRec,
};
use dse_platform::Work;
use dse_transport::{
    BlockingQueue, ChannelTransport, FaultPlan, FaultyTransport, Pop, RetryPolicy, SocketTransport,
    Transport, TransportError,
};

use crate::error::{abort_code, FailureKind, FailureRole, PeFailure, RunError};

pub(crate) mod sched;

/// Which wire carries the live engine's messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// In-process MPSC channel mesh (frames still encoded/decoded).
    Channel,
    /// Framed TCP over loopback, one connection per PE pair.
    Tcp,
    /// Framed Unix domain sockets (Unix only).
    Uds,
}

impl TransportKind {
    /// Stable lowercase name (matches the `--transport` CLI flag values).
    pub fn name(&self) -> &'static str {
        match self {
            TransportKind::Channel => "channel",
            TransportKind::Tcp => "tcp",
            TransportKind::Uds => "uds",
        }
    }
}

/// Distinguishes concurrent UDS meshes within one process.
static UDS_RUN: AtomicU64 = AtomicU64::new(0);

/// Retry/deadline defaults for outstanding GM requests. Distinct from the
/// connection-establishment defaults in `dse-transport`: requests are
/// idempotent on the wire (the serving kernel dedups retransmits by
/// `(from, req)`), so retrying is always safe, but a wedged home PE should
/// fail the run in well under a second.
fn default_gm_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 5,
        base_delay: Duration::from_millis(50),
        max_delay: Duration::from_millis(400),
    }
}

/// Everything configurable about a live run beyond `nprocs` and the body.
#[derive(Debug, Clone)]
pub struct LiveRunConfig {
    /// Which wire carries the run's messages.
    pub kind: TransportKind,
    /// Deterministic fault injection applied to every endpoint (`None`
    /// runs on a clean mesh).
    pub fault_plan: Option<FaultPlan>,
    /// Retry/deadline budget for outstanding GM requests.
    pub gm_retry: RetryPolicy,
    /// Flight-recorder ring size (0 disables post-mortem capture).
    pub flight_capacity: usize,
    /// Causal tracing: when set, every causal hop (GM request → serve →
    /// redemption, barrier and lock rounds) emits trace spans and trace
    /// context rides the wire frames; when clear, the wire format and the
    /// hot paths are exactly the untraced ones.
    pub tracing: bool,
    /// Read-replica GM caching: readers keep copies of remote blocks and
    /// the home kernels run the directory coherence protocol over the wire
    /// (`GmInvalidate`/`GmInvalidateAck`). Off by default — the uncached
    /// request/response semantics are the cross-engine baseline.
    pub gm_cache: bool,
    /// Coherence protocol for cached runs: write-invalidate (every write
    /// synchronously invalidates the sharers) or release consistency
    /// (writes defer; readers self-invalidate at acquire points). Ignored
    /// when `gm_cache` is off.
    pub gm_mode: GmMode,
    /// Which engine drives the per-PE kernels: one OS thread per PE
    /// (`Threads`, the reference implementation) or a small worker pool
    /// multiplexing every PE's kernel task (`Tasks`, for many-PE runs).
    pub scheduler: SchedulerKind,
    /// Bound on a kernel's idle wait between events. `None` picks the
    /// scheduler default: 50 ms under `Threads`, 5 ms under `Tasks`
    /// (thousands of idle PEs sharing a few workers would otherwise stack
    /// their waits into seconds of shutdown latency).
    pub kernel_tick: Option<Duration>,
}

impl Default for LiveRunConfig {
    fn default() -> LiveRunConfig {
        LiveRunConfig {
            kind: TransportKind::Channel,
            fault_plan: None,
            gm_retry: default_gm_retry(),
            flight_capacity: 256,
            tracing: false,
            gm_cache: false,
            gm_mode: GmMode::WriteInvalidate,
            scheduler: SchedulerKind::Threads,
            kernel_tick: None,
        }
    }
}

impl LiveRunConfig {
    /// Default configuration on an explicit transport.
    pub fn on(kind: TransportKind) -> LiveRunConfig {
        LiveRunConfig {
            kind,
            ..LiveRunConfig::default()
        }
    }
}

/// Removes the UDS socket directory when the run unwinds — normally or
/// otherwise — so aborted runs do not leak socket files into the temp dir.
struct SocketDirGuard(PathBuf);

impl Drop for SocketDirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

type BuiltMesh = (Vec<Arc<dyn Transport>>, Option<SocketDirGuard>);

fn build_transports(
    kind: TransportKind,
    nprocs: usize,
    plan: Option<&FaultPlan>,
) -> Result<BuiltMesh, TransportError> {
    let n = nprocs as u32;
    let (raw, guard): BuiltMesh = match kind {
        TransportKind::Channel => (
            ChannelTransport::cluster(n)
                .into_iter()
                .map(|t| Arc::new(t) as Arc<dyn Transport>)
                .collect(),
            None,
        ),
        TransportKind::Tcp => (
            SocketTransport::tcp_cluster(n)?
                .into_iter()
                .map(|t| Arc::new(t) as Arc<dyn Transport>)
                .collect(),
            None,
        ),
        TransportKind::Uds => {
            let dir = std::env::temp_dir().join(format!(
                "dse-live-{}-{}",
                std::process::id(),
                UDS_RUN.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).map_err(|e| TransportError::Io(e.to_string()))?;
            // Armed before the mesh build: a half-constructed mesh must
            // not leak the directory either.
            let guard = SocketDirGuard(dir.clone());
            let cluster = SocketTransport::uds_cluster(n, &dir)?;
            (
                cluster
                    .into_iter()
                    .map(|t| Arc::new(t) as Arc<dyn Transport>)
                    .collect(),
                Some(guard),
            )
        }
    };
    let endpoints = match plan {
        Some(p) => raw
            .into_iter()
            .map(|t| Arc::new(FaultyTransport::new(t, p.clone())) as Arc<dyn Transport>)
            .collect(),
        None => raw,
    };
    Ok((endpoints, guard))
}

/// Shared state of a live run: the home-partitioned global store and the
/// wall-clock metrics registry. Partition ownership is enforced by routing
/// — a rank only touches bytes homed elsewhere through request messages to
/// the home PE's kernel thread, never directly.
pub struct LiveCluster {
    nprocs: usize,
    store: GlobalStore,
    allocs: Mutex<Vec<(RegionId, usize)>>,
    /// Wall-clock observability: the same registry the simulator uses,
    /// fed with `Instant`-measured nanoseconds instead of virtual time.
    metrics: Registry,
    /// Post-mortem ring of recent wire sends and stalls.
    flight: FlightRecorder,
    /// First-hand failure observations, in discovery order.
    failures: Mutex<Vec<PeFailure>>,
    /// Cluster-wide abort latch: once set, kernel loops drain out and app
    /// threads unwind at their next blocking point.
    abort: AtomicBool,
    /// Retry/deadline budget for the app side's outstanding GM requests.
    retry: RetryPolicy,
    /// Engine clock origin for flight-recorder timestamps.
    t0: Instant,
    /// Whether causal tracing is on for this run.
    tracing: bool,
    /// Per-thread causal span streams, flushed here at thread end (also on
    /// abort, so the post-mortem trace is complete). Entries are
    /// `(pe, role, spans)` with role 0 = app thread, 1 = kernel thread.
    trace_sink: Mutex<Vec<(u32, u8, Vec<TraceSpanRec>)>>,
    /// Replica cache + sharing directory (`Some` only for cached runs).
    /// The per-node block maps and the directory live in one shared
    /// structure because the cluster is one address space, but every
    /// *protocol* action on them travels the wire.
    cache: Option<CacheStore>,
    /// Coherence protocol for cached runs.
    gm_mode: GmMode,
    /// Per-PE install guards: the epoch counts invalidations applied
    /// against that PE's replicas. A read snapshot the epoch at dispatch
    /// and installs its blocks on completion only if the epoch is
    /// unchanged, so an invalidation racing a fetch can never be undone by
    /// a late install.
    install_guards: Vec<Mutex<u64>>,
    /// Which engine drives the per-PE kernels.
    scheduler: SchedulerKind,
    /// Effective bound on a kernel's idle wait for this run.
    kernel_tick: Duration,
    /// Per-PE application-thread inboxes. The co-resident kernel is the
    /// usual producer; on lossless in-process transports remote kernels
    /// push app-bound responses here directly, skipping the relay hop
    /// through the destination's kernel.
    app_inboxes: Vec<AppInbox>,
}

/// One PE's app-thread inbox: responses and coordination wakeups.
type AppInbox = Arc<BlockingQueue<(Message, Option<TraceCtx>)>>;

impl LiveCluster {
    /// Shared state for `nprocs` processing elements.
    pub fn new(nprocs: usize) -> LiveCluster {
        LiveCluster::with_config(nprocs, &LiveRunConfig::default())
    }

    fn with_config(nprocs: usize, cfg: &LiveRunConfig) -> LiveCluster {
        LiveCluster {
            nprocs,
            store: GlobalStore::new(nprocs),
            allocs: Mutex::new(Vec::new()),
            metrics: Registry::new(),
            flight: FlightRecorder::with_capacity(cfg.flight_capacity),
            failures: Mutex::new(Vec::new()),
            abort: AtomicBool::new(false),
            retry: cfg.gm_retry,
            t0: Instant::now(),
            tracing: cfg.tracing,
            trace_sink: Mutex::new(Vec::new()),
            cache: cfg.gm_cache.then(|| CacheStore::new(nprocs)),
            gm_mode: cfg.gm_mode,
            install_guards: (0..nprocs).map(|_| Mutex::new(0)).collect(),
            scheduler: cfg.scheduler,
            kernel_tick: cfg.kernel_tick.unwrap_or(match cfg.scheduler {
                SchedulerKind::Threads => THREADS_TICK,
                SchedulerKind::Tasks => TASKS_TICK,
            }),
            app_inboxes: (0..nprocs)
                .map(|_| Arc::new(BlockingQueue::default()))
                .collect(),
        }
    }

    /// Deliver a message to `pe`'s application thread. Best-effort: a
    /// closed inbox (its kernel already tore down) drops the message, the
    /// same way a dead relay kernel would have.
    fn app_push(&self, pe: u32, msg: Message, ctx: Option<TraceCtx>) {
        let _ = self.app_inboxes[pe as usize].push((msg, ctx));
    }

    /// Park one thread's causal spans in the cluster sink.
    fn flush_trace(&self, pe: u32, role: u8, spans: Vec<TraceSpanRec>) {
        if !spans.is_empty() {
            self.trace_sink.lock().push((pe, role, spans));
        }
    }

    /// The backing global store (for post-run inspection).
    pub fn store(&self) -> &GlobalStore {
        &self.store
    }

    /// The live metrics registry (wall-clock latencies, per-rank counters).
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// The flight recorder ring (post-run / post-mortem inspection).
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn aborting(&self) -> bool {
        self.abort.load(Ordering::Acquire)
    }

    /// Record a kernel thread's first-hand failure and latch the abort.
    /// Kernels always record: on a mesh-wide event (a TCP peer dying)
    /// every surviving kernel's observation belongs in the report.
    fn note_kernel_failure(&self, pe: u32, kind: FailureKind) {
        self.abort.store(true, Ordering::Release);
        self.failures.lock().push(PeFailure {
            pe,
            role: FailureRole::Kernel,
            kind,
        });
    }

    /// Record an app thread's failure only if it is the *first*
    /// observation: once the cluster is already aborting, an app dying at
    /// its next blocking point is a casualty of the abort, not a cause.
    fn note_app_failure(&self, pe: u32, kind: FailureKind) {
        if !self.abort.swap(true, Ordering::AcqRel) {
            self.failures.lock().push(PeFailure {
                pe,
                role: FailureRole::App,
                kind,
            });
        }
    }
}

/// Matches [`dse_api::AUTO_BARRIER_BASE`]: auto-sequenced barrier ids live
/// above this bound on both engines.
const AUTO_BARRIER_BASE: u32 = 0x4000_0000;

// ---------------------------------------------------------------------------
// Kernel thread: the per-PE message loop.
//
// The protocol logic itself — GM service, directory coherence, barriers,
// locks, exit collection, telemetry emission, causal spans — lives in
// `dse_kernel::task::KernelTask`, a sans-IO state machine consuming one
// event per `poll`. The live engine supplies the IO around it, twice: the
// blocking per-PE driver below (`SchedulerKind::Threads`, the reference
// implementation) and the worker-pool multiplexer in `crate::sched`
// (`SchedulerKind::Tasks`). Both drivers feed the same state machine, so
// their runs are bit-identical by construction.
// ---------------------------------------------------------------------------

type WatchSpec<'h> = (Duration, dse_kernel::task::WatchHook<'h>);

/// Default bound on a kernel's idle wait under the threaded scheduler:
/// even an unwatched, idle kernel wakes this often to notice the cluster
/// abort latch (or a silently dead peer) instead of blocking forever.
pub(crate) const THREADS_TICK: Duration = Duration::from_millis(50);

/// Default tick under the task scheduler: thousands of idle PEs sharing a
/// few workers would otherwise stack their 50 ms waits into seconds of
/// shutdown latency.
pub(crate) const TASKS_TICK: Duration = Duration::from_millis(5);

impl LiveCluster {
    /// The shared-state view one PE's kernel task serves against.
    fn kernel_env<'a>(&'a self, pe: u32, start: Instant) -> KernelEnv<'a> {
        KernelEnv {
            pe,
            nprocs: self.nprocs,
            store: &self.store,
            metrics: &self.metrics,
            flight: &self.flight,
            cache: self.cache.as_ref(),
            gm_mode: self.gm_mode,
            install_guard: &self.install_guards[pe as usize],
            engine_t0: self.t0,
            run_start: start,
        }
    }
}

thread_local! {
    /// Reused per-driver-thread accumulator for [`flush_outbox`]'s
    /// per-destination wire batches — warm capacity, no per-flush
    /// allocation.
    static WIRE_BATCH: std::cell::RefCell<Vec<(Message, Option<TraceCtx>)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Ship an accumulated run of same-destination wire messages: a single
/// send for a run of one, a coalesced [`Transport::send_batch`] otherwise
/// (one socket write per destination per tick instead of one per message).
fn ship_wire_batch(
    transport: &dyn Transport,
    to: u32,
    batch: &mut Vec<(Message, Option<TraceCtx>)>,
) -> Result<(), FailureKind> {
    let res = if batch.len() == 1 {
        let (msg, ctx) = &batch[0];
        match ctx {
            Some(c) => transport.send_ctx(to, msg, *c),
            None => transport.send(to, msg),
        }
    } else {
        transport.send_batch(to, batch)
    };
    batch.clear();
    res.map_err(FailureKind::Transport)
}

/// Drain a task's outbox onto the wire / the app inboxes. A failed
/// [`Outbound::Wire`] send stops the drain (discarding the rest, matching
/// the blocking loop's abort-on-first-error semantics) and fails the
/// kernel; best-effort items never fail.
///
/// Consecutive [`Outbound::Wire`] items for the same destination are
/// grouped into one [`Transport::send_batch`] call, preserving order —
/// a batch is flushed before any send to a different destination or any
/// non-wire item, so the observable delivery order is unchanged.
///
/// On the lossless in-process channel transport, app-bound wire messages
/// (read responses, write acks, barrier releases, lock grants) are pushed
/// straight into the destination's app inbox instead: the receiving
/// kernel would only have decoded and forwarded them, so the direct push
/// saves that relay wakeup. The requester-side install-epoch guard
/// already covers the one ordering this drops (a response racing an
/// invalidation to the same PE), and faulty/socket transports keep the
/// full wire path so loss, delay, and retransmission behavior are
/// untouched.
pub(crate) fn flush_outbox(
    task: &mut KernelTask<'_>,
    transport: &dyn Transport,
    cluster: &LiveCluster,
    pe: u32,
) -> Result<(), FailureKind> {
    let direct = transport.kind() == "channel";
    WIRE_BATCH.with(|cell| {
        let batch = &mut *cell.borrow_mut();
        batch.clear();
        let mut batch_to: Option<u32> = None;
        for out in task.drain_outbox() {
            match out {
                Outbound::Wire { to, msg, ctx } if direct && is_app_bound(&msg) => {
                    if let Some(prev) = batch_to.take() {
                        ship_wire_batch(transport, prev, batch)?;
                    }
                    cluster
                        .metrics
                        .incr(MetricKey::pe("kernel", "app_direct_msgs", pe));
                    cluster.app_push(to, msg, ctx);
                }
                Outbound::Wire { to, msg, ctx } => {
                    if batch_to != Some(to) {
                        if let Some(prev) = batch_to.take() {
                            ship_wire_batch(transport, prev, batch)?;
                        }
                        batch_to = Some(to);
                    }
                    batch.push((msg, ctx));
                }
                Outbound::WireBestEffort { to, msg } => {
                    if let Some(prev) = batch_to.take() {
                        ship_wire_batch(transport, prev, batch)?;
                    }
                    let _ = transport.send(to, &msg);
                }
                Outbound::App { msg, ctx } => {
                    if let Some(prev) = batch_to.take() {
                        ship_wire_batch(transport, prev, batch)?;
                    }
                    cluster.app_push(pe, msg, ctx);
                }
            }
        }
        if let Some(to) = batch_to {
            ship_wire_batch(transport, to, batch)?;
        }
        Ok(())
    })
}

/// Shared teardown of one PE's kernel, whichever driver ran it: flush the
/// causal spans, convert a first-hand failure into an `Abort` relay
/// (non-zero PEs report to PE 0, PE 0 broadcasts), wake the co-resident
/// app thread, and release the transport endpoint.
pub(crate) fn finish_kernel(
    pe: u32,
    cluster: &LiveCluster,
    transport: &dyn Transport,
    task: KernelTask<'_>,
    exit: Result<Option<Message>, FailureKind>,
) -> (DeltaTracker, Option<ClusterAggregator>) {
    let (tracker, agg, spans) = task.finish();
    // Flush this kernel's causal spans whatever the exit path — an aborted
    // run's post-mortem trace is where they matter most.
    cluster.flush_trace(pe, 1, spans);
    let relay = match exit {
        Ok(None) => None,
        Ok(Some(frame)) => Some(frame),
        Err(kind) => {
            let code = match &kind {
                FailureKind::Transport(_) => abort_code::TRANSPORT,
                _ => abort_code::GENERIC,
            };
            let frame = Message::Abort {
                source: pe,
                code,
                detail: kind.to_string().into_bytes(),
            };
            cluster.note_kernel_failure(pe, kind);
            // Best-effort wire propagation: non-zero PEs report to the
            // coordinator, which re-broadcasts below. The shared abort
            // latch is the in-process backstop when our endpoint is dead.
            if pe != 0 {
                let _ = transport.send(0, &frame);
            }
            Some(frame)
        }
    };
    if let Some(frame) = relay {
        if pe == 0 {
            for q in 1..cluster.nprocs as u32 {
                let _ = transport.send(q, &frame);
            }
        }
        // Wake our own app thread so it unwinds at its next receive.
        cluster.app_push(pe, frame, None);
    }
    transport.shutdown();
    // Closing the inbox is what "kernel gone" looks like to the app now
    // that the channel is a shared queue: already-queued messages (the
    // abort frame above included) drain first, then receives report
    // closure.
    cluster.app_inboxes[pe as usize].close();
    (tracker, agg)
}

/// One PE's kernel under the threaded scheduler: a dedicated OS thread
/// blocking on the transport and feeding the events to a [`KernelTask`].
///
/// The task serves GM requests against the store (responses go back on the
/// wire), forwards app-bound messages to the co-resident application
/// thread, and on PE 0 additionally coordinates barriers, locks, exit
/// collection and telemetry aggregation. Returns this PE's delta tracker
/// (for the final absolute telemetry round) and, on a watched PE 0, the
/// aggregator. Every blocking receive is bounded by the kernel tick so a
/// silently dead peer or the cluster abort latch is noticed promptly.
fn live_kernel(
    pe: u32,
    cluster: &LiveCluster,
    transport: &Arc<dyn Transport>,
    watch: Option<WatchSpec<'_>>,
    start: Instant,
) -> (DeltaTracker, Option<ClusterAggregator>) {
    let mut task = KernelTask::new(
        cluster.kernel_env(pe, start),
        watch,
        cluster.kernel_tick,
        cluster.tracing,
    );
    let exit = loop {
        if cluster.aborting() {
            match task.poll(KernelEvent::AbortLatch) {
                Progress::Aborted(frame) => break Ok(Some(frame)),
                _ => unreachable!("abort latch poll is terminal"),
            }
        }
        let event = match transport.recv(Some(task.timeout())) {
            Ok(Some(env)) => KernelEvent::Message {
                from: env.from,
                msg: env.msg,
                ctx: env.ctx,
            },
            Ok(None) => KernelEvent::Tick,
            Err(e) => break Err(FailureKind::Transport(e)),
        };
        let prog = task.poll(event);
        if let Err(e) = flush_outbox(&mut task, transport.as_ref(), cluster, pe) {
            break Err(e);
        }
        match prog {
            Progress::Pending => {}
            Progress::Clean => break Ok(None),
            Progress::Aborted(frame) => break Ok(Some(frame)),
        }
    };
    finish_kernel(pe, cluster, transport.as_ref(), task, exit)
}

// ---------------------------------------------------------------------------
// Application thread: LiveCtx, the ParallelApi over the wire.
// ---------------------------------------------------------------------------

/// Retransmission bookkeeping for one outstanding GM request.
struct RetryState {
    /// Home PE the request is addressed to.
    home: u32,
    /// The encoded-identical request, kept for retransmission.
    msg: Message,
    /// Send attempts so far (initial send counts as the first).
    attempts: u32,
    /// Current backoff step (doubles per retry, capped by the policy).
    backoff: Duration,
    /// When the next retransmit is due.
    next_retry: Instant,
    /// When the original send happened (for the deadline report).
    sent_at: Instant,
    /// Trace context of the original send; retransmits carry the same one
    /// so the home kernel's dedup replay stays in the same causal chain.
    ctx: Option<TraceCtx>,
    /// Install-epoch snapshot taken at dispatch: a mismatch at completion
    /// means an invalidation raced the fetch, so the install is skipped.
    epoch: u64,
}

/// Requester-side trace bookkeeping for one outstanding GM request: the
/// root `gm_req` span opened at dispatch and closed at completion.
struct ReqSpan {
    /// The root span id (the wire ctx's `parent`).
    span: u64,
    /// Dispatch time on the engine clock.
    start_ns: u64,
    /// Home PE the request went to.
    home: u32,
    /// Retransmits sent so far.
    retries: u32,
}

/// The span kind a retransmitted request would have opened (for the
/// flight-recorder stall event on a deadline trip).
fn span_kind_of(msg: &Message) -> SpanKind {
    match msg {
        Message::GmWriteReq { .. } => SpanKind::GmWrite,
        Message::GmFetchAddReq { .. } => SpanKind::GmFetchAdd,
        Message::GmBatchReq { .. } => SpanKind::GmBatch,
        _ => SpanKind::GmRead,
    }
}

/// What the live engine knows about a message handed to its waiter.
struct Arrival {
    /// Trace context the message carried on the wire.
    ctx: Option<TraceCtx>,
    /// When the waiter got it, engine clock.
    at_ns: u64,
    /// Its encoded size.
    wire_bytes: u64,
}

/// The live engine behind [`GmPort`]: the transport endpoint and app inbox,
/// the messages that arrived while the app was waiting for something else,
/// retransmission state, and the causal span recorder.
struct LivePort {
    rank: u32,
    cluster: Arc<LiveCluster>,
    transport: Arc<dyn Transport>,
    app_rx: AppInbox,
    /// Messages (with their wire trace context) that arrived while
    /// awaiting something else.
    stash: VecDeque<(Message, Option<TraceCtx>)>,
    /// Retransmission state for outstanding requests, keyed by request
    /// id; entries are dropped when the response arrives.
    retry: HashMap<u64, RetryState>,
    /// Causal span recorder for this app thread.
    rec: TraceRecorder,
    /// This PE's trace id (= the app root span's id).
    trace: u64,
    /// The app root span every top-level span parents to.
    app_span: u64,
    /// When the app thread started, engine clock.
    app_start_ns: u64,
    /// Open `gm_req` root spans keyed by request id.
    req_spans: HashMap<u64, ReqSpan>,
}

impl LivePort {
    /// True when this run records causal spans.
    fn tracing(&self) -> bool {
        self.cluster.tracing
    }

    fn me(&self) -> NodeId {
        NodeId(self.rank as u16)
    }

    /// A span of this PE's trace, `[start_ns, now]`, parented to `parent`.
    fn span(&self, kind: TraceSpanKind, span: u64, parent: u64, start_ns: u64) -> TraceSpanRec {
        let end = self.cluster.now_ns();
        TraceSpanRec::new(kind, self.trace, span, parent, self.rank, start_ns, end)
    }

    /// Close the app root span (called once, when the body is done or the
    /// thread is unwinding) so the blame table has the PE's wall clock.
    fn close_app_span(&mut self) {
        if self.tracing() {
            let span = self.span(TraceSpanKind::App, self.app_span, 0, self.app_start_ns);
            self.rec.push(span);
        }
    }

    fn metrics(&self) -> &Registry {
        &self.cluster.metrics
    }

    fn incr(&self, subsystem: &'static str, name: &'static str) {
        self.metrics()
            .incr(MetricKey::pe(subsystem, name, self.rank));
    }

    /// Count one application-level GM operation.
    fn count_op(&self, name: &'static str) {
        self.incr("gm", name);
        self.incr("kernel", "gm_ops");
    }

    /// Record a first-hand app failure (if it is the first observation),
    /// latch the cluster abort, and unwind this app thread without
    /// tripping the panic hook.
    fn die(&self, kind: FailureKind) -> ! {
        self.cluster.note_app_failure(self.rank, kind);
        resume_unwind(Box::new(AbortUnwind))
    }

    fn send(&self, to: u32, msg: &Message) {
        self.send_traced(to, msg, None);
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

    /// Receive the next message from our app inbox (fed by the local
    /// kernel and, on direct-delivery transports, by remote kernels).
    ///
    /// A `None` timeout blocks until a message arrives — safe only where
    /// an eventual wakeup is guaranteed (the kernel pushes the `Abort`
    /// frame and then closes the inbox when the run dies). A `Some`
    /// timeout returns `None` on expiry so the caller can service
    /// retransmission deadlines.
    fn recv_app(&mut self, timeout: Option<Duration>) -> Option<(Message, Option<TraceCtx>)> {
        let got = match self.app_rx.pop(timeout) {
            Pop::Item(m) => m,
            Pop::TimedOut => return None,
            Pop::Closed => self.die(FailureKind::KernelGone),
        };
        if matches!(got.0, Message::Abort { .. }) {
            // The run is aborting; this thread is a casualty, not a
            // cause — unwind without recording a failure.
            resume_unwind(Box::new(AbortUnwind));
        }
        Some(got)
    }

    /// How long a completion wait may block before retransmission
    /// deadlines need servicing.
    fn retry_tick(&self) -> Duration {
        let now = Instant::now();
        self.retry
            .values()
            .map(|s| s.next_retry.saturating_duration_since(now))
            .min()
            .unwrap_or(Duration::from_millis(100))
            .clamp(Duration::from_millis(1), Duration::from_millis(100))
    }

    /// Retransmit overdue GM requests; trip the deadline once one has
    /// exhausted its attempt budget. Called whenever a completion wait
    /// times out.
    fn service_retries(&mut self) {
        if self.retry.is_empty() {
            return;
        }
        let now = Instant::now();
        let due: Vec<u64> = self
            .retry
            .iter()
            .filter(|(_, s)| s.next_retry <= now)
            .map(|(k, _)| *k)
            .collect();
        for key in due {
            let policy = self.cluster.retry;
            let (home, attempts, kind, waited_ns, elapsed_backoff, ctx, msg) = {
                let st = self.retry.get_mut(&key).unwrap();
                let waited_ns = st.sent_at.elapsed().as_nanos() as u64;
                if st.attempts >= policy.max_attempts {
                    (
                        st.home,
                        st.attempts,
                        span_kind_of(&st.msg),
                        waited_ns,
                        st.backoff,
                        st.ctx,
                        None,
                    )
                } else {
                    let elapsed_backoff = st.backoff;
                    st.attempts += 1;
                    st.backoff = (st.backoff * 2).min(policy.max_delay);
                    st.next_retry = now + st.backoff;
                    (
                        st.home,
                        st.attempts,
                        span_kind_of(&st.msg),
                        waited_ns,
                        elapsed_backoff,
                        st.ctx,
                        Some(st.msg.clone()),
                    )
                }
            };
            match msg {
                Some(msg) => {
                    // A retransmit, not a new request: `gm_request_msgs`
                    // stays put (wire accounting keeps its exact counts);
                    // the retry shows up under its own metric. The same
                    // trace context rides again so the home's dedup replay
                    // stays in the original causal chain.
                    self.incr("kernel", "gm_retries");
                    if let Some(rs) = self.req_spans.get_mut(&key) {
                        rs.retries += 1;
                        // The backoff that just elapsed is attributable
                        // dead time inside the request's wall clock.
                        let end = self.cluster.now_ns();
                        let mut span = TraceSpanRec::new(
                            TraceSpanKind::RetryBackoff,
                            self.trace,
                            self.rec.next_id(),
                            rs.span,
                            self.rank,
                            end.saturating_sub(elapsed_backoff.as_nanos() as u64),
                            end,
                        );
                        span.peer = home;
                        span.seq = key;
                        self.rec.push(span);
                    }
                    self.send_traced(home, &msg, ctx);
                }
                None => {
                    self.incr("kernel", "gm_deadline_trips");
                    let (trace, span) = self
                        .req_spans
                        .get(&key)
                        .map(|rs| (self.trace, rs.span))
                        .unwrap_or((0, 0));
                    self.cluster.flight.record_traced(
                        self.cluster.now_ns(),
                        self.rank,
                        trace,
                        span,
                        FlightEventKind::Stall {
                            kind,
                            seq: key,
                            waited_ns,
                        },
                    );
                    self.die(FailureKind::GmDeadline {
                        req: key,
                        home,
                        attempts,
                    });
                }
            }
        }
    }

    /// This PE's install epoch now (0 on uncached runs, which install
    /// nothing).
    fn install_epoch(&self) -> u64 {
        match self.cluster.cache {
            Some(_) => *self.cluster.install_guards[self.rank as usize].lock(),
            None => 0,
        }
    }

    /// Send a request to `home` and arm its retransmission. The install
    /// epoch is snapshotted *before* the send, so an invalidation the home
    /// issues after serving it is seen as a mismatch at completion.
    fn send_armed(&mut self, req: ReqId, home: u32, msg: Message, ctx: Option<TraceCtx>) {
        let epoch = self.install_epoch();
        self.send_traced(home, &msg, ctx);
        let policy = self.cluster.retry;
        let now = Instant::now();
        self.retry.insert(
            req.0,
            RetryState {
                home,
                msg,
                attempts: 1,
                backoff: policy.base_delay,
                next_retry: now + policy.base_delay,
                sent_at: now,
                ctx,
                epoch,
            },
        );
    }

    /// Open the root `gm_req` span for a request about to go to `home`,
    /// returning the wire trace context to send with it.
    fn open_req_span(&mut self, req: ReqId, home: u32) -> Option<TraceCtx> {
        if !self.tracing() {
            return None;
        }
        let span = self.rec.next_id();
        self.req_spans.insert(
            req.0,
            ReqSpan {
                span,
                start_ns: self.cluster.now_ns(),
                home,
                retries: 0,
            },
        );
        Some(TraceCtx {
            trace: self.trace,
            parent: span,
        })
    }

    /// Close the root `gm_req` span for a completed request and emit the
    /// redemption span linking this PE back to the home kernel's serve
    /// (when the response carried trace context).
    fn close_req_span(&mut self, req: u64, at: Arrival) {
        let Some(rs) = self.req_spans.remove(&req) else {
            return;
        };
        let mut root = self.span(TraceSpanKind::GmReq, rs.span, self.app_span, rs.start_ns);
        root.peer = rs.home;
        root.bytes = at.wire_bytes;
        root.seq = req;
        root.retries = rs.retries;
        let end = root.end_ns;
        self.rec.push(root);
        if let Some(c) = at.ctx {
            // Parent = the serve span id the home kernel stamped on the
            // response: the cross-PE link that makes the chain
            // requester → home → requester.
            let mut redeem = TraceSpanRec::new(
                TraceSpanKind::Redeem,
                self.trace,
                self.rec.next_id(),
                c.parent,
                self.rank,
                at.at_ns,
                end,
            );
            redeem.peer = rs.home;
            redeem.bytes = at.wire_bytes;
            redeem.seq = req;
            self.rec.push(redeem);
        }
    }

    /// Coherence actions for a write applied directly to this PE's own
    /// home partition. Write-invalidate sends a retry-armed `GmInvalidate`
    /// to every other holder and returns the ids whose acks the caller
    /// must collect. Release consistency counts the deferral and leaves
    /// the replicas to die at their holders' next acquire.
    fn own_write_coherence(
        &mut self,
        reqs: &mut ReqIdGen,
        region: RegionId,
        offset: u64,
        len: usize,
    ) -> Vec<ReqId> {
        let cluster = Arc::clone(&self.cluster);
        let Some(cs) = cluster.cache.as_ref() else {
            return Vec::new();
        };
        if cluster.gm_mode == GmMode::ReleaseConsistency {
            if !cs.peek_holders(region, offset, len, self.me()).is_empty() {
                self.incr("kernel", "rc_deferred_invals");
            }
            return Vec::new();
        }
        let holders = cs.take_holders(region, offset, len, self.me());
        if holders.is_empty() {
            return Vec::new();
        }
        self.incr("kernel", "invalidation_rounds");
        self.metrics().add(
            MetricKey::pe("kernel", "cache_invalidations", self.rank),
            holders.len() as u64,
        );
        holders
            .into_iter()
            .map(|h| {
                let req = reqs.next();
                let msg = Message::GmInvalidate {
                    req,
                    region,
                    offset,
                    len: len as u32,
                };
                self.send_armed(req, h.0 as u32, msg, None);
                req
            })
            .collect()
    }
}

impl GmPort for LivePort {
    type Meta = Arrival;

    fn node(&self) -> NodeId {
        self.me()
    }

    fn store(&self) -> &GlobalStore {
        &self.cluster.store
    }

    fn caching(&self) -> bool {
        self.cluster.cache.is_some()
    }

    fn charge_local(&mut self, _bytes: usize) {
        // The access already ran for real; nothing to account.
    }

    fn count(&mut self, what: GmCount) {
        let names: &[&'static str] = match what {
            // Own-node reads show up as `gm/local_read_ns` samples.
            GmCount::LocalRead(_) => &[],
            GmCount::ReplicaHit => &["cache_hits", "dir_hits"],
            GmCount::ReplicaMiss => &["cache_misses", "dir_misses"],
            GmCount::Coalesced => &["gm_coalesced"],
        };
        for name in names {
            self.incr("kernel", name);
        }
    }

    fn send_request(
        &mut self,
        home: NodeId,
        req: ReqId,
        msg: Message,
        _kind: SpanKind,
        _bytes: u64,
        inflight: usize,
    ) {
        let home = home.0 as u32;
        self.incr("kernel", "gm_request_msgs");
        let ctx = self.open_req_span(req, home);
        self.send_armed(req, home, msg, ctx);
        self.metrics().gauge_max(
            MetricKey::pe("kernel", "gm_inflight", self.rank),
            inflight as u64,
        );
    }

    fn await_msg(&mut self, mut pred: impl FnMut(&Message) -> bool) -> (Message, Arrival) {
        let (msg, ctx) = match self.stash.iter().position(|(m, _)| pred(m)) {
            Some(idx) => self.stash.remove(idx).unwrap(),
            None => loop {
                // With nothing to retransmit (barrier and lock traffic is
                // never retried: it is not idempotent and the fault plan
                // leaves control messages unharmed) the wait may block: an
                // abort wakes it via the forwarded frame.
                let tick = (!self.retry.is_empty()).then(|| self.retry_tick());
                match self.recv_app(tick) {
                    None => self.service_retries(),
                    Some(got) if pred(&got.0) => break got,
                    Some(other) => self.stash.push_back(other),
                }
            },
        };
        let arrival = Arrival {
            ctx,
            at_ns: self.cluster.now_ns(),
            wire_bytes: msg.wire_len() as u64,
        };
        (msg, arrival)
    }

    fn request_done(&mut self, req: ReqId, _kind: SpanKind, at: Arrival) {
        self.retry.remove(&req.0);
        self.close_req_span(req.0, at);
    }

    fn protocol_error(&mut self, err: GmProtocolError) -> ! {
        self.die(FailureKind::Protocol {
            req: err.req,
            detail: format!("expected {}, got {}", err.expected, err.got),
        })
    }

    fn stamp(&self) -> u64 {
        self.cluster.now_ns()
    }

    fn handle_done(&mut self, issued: u64, is_read: bool, remote: bool) {
        let name = match (is_read, remote) {
            (true, true) => "remote_read_ns",
            (true, false) => "local_read_ns",
            (false, true) => "remote_write_ns",
            (false, false) => "local_write_ns",
        };
        self.metrics().record(
            MetricKey::pe("gm", name, self.rank),
            self.cluster.now_ns().saturating_sub(issued),
        );
    }

    fn blocked(&mut self, since: u64, seq: u64) {
        if self.tracing() {
            let id = self.rec.next_id();
            let mut span = self.span(TraceSpanKind::GmBlock, id, self.app_span, since);
            span.seq = seq;
            self.rec.push(span);
        }
    }

    fn replica_get(&mut self, region: RegionId, block: u64) -> Option<Vec<u8>> {
        self.cluster.cache.as_ref()?.get(self.me(), region, block)
    }

    /// Requester-side half of the lease the home granted at serve time:
    /// install the fully fetched blocks, unless an invalidation has landed
    /// since dispatch (epoch mismatch) — then the bytes may already be
    /// stale and the lease stays data-less.
    fn replica_install<'d>(
        &mut self,
        req: ReqId,
        region: RegionId,
        blocks: impl Iterator<Item = (u64, &'d [u8])>,
    ) {
        let Some(cs) = self.cluster.cache.as_ref() else {
            return;
        };
        let dispatched = self.retry.get(&req.0).map(|s| s.epoch);
        let guard = self.cluster.install_guards[self.rank as usize].lock();
        if Some(*guard) == dispatched {
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
                self.incr("kernel", "rc_acquires");
            }
        }
    }

    /// The store write comes *first*: any replica leased after it already
    /// holds the new bytes, and every lease granted before it is in the
    /// holder set the round invalidates. The acks gate the writing handle.
    fn own_node_write(
        &mut self,
        reqs: &mut ReqIdGen,
        region: RegionId,
        offset: u64,
        data: &[u8],
    ) -> Vec<ReqId> {
        self.cluster.store.write(region, offset, data).unwrap();
        self.own_write_coherence(reqs, region, offset, data.len())
    }
}

/// Per-process context of the live engine: implements [`ParallelApi`] by
/// driving the shared [`GmClient`] through a [`LivePort`] — own-node ranges
/// go straight to the store (the linked-library fast path), remote ranges
/// become staged request messages that coalesce per home and travel as
/// real wire traffic.
pub struct LiveCtx {
    rank: u32,
    pid: GlobalPid,
    port: LivePort,
    /// The split-phase global-memory machinery.
    gm: GmClient,
    barrier_seq: u32,
    alloc_seq: usize,
    /// Reusable scratch for element-wise `GmArray` accessors.
    scratch: Vec<u8>,
}

impl LiveCtx {
    pub(super) fn new(
        rank: u32,
        cluster: Arc<LiveCluster>,
        transport: Arc<dyn Transport>,
    ) -> LiveCtx {
        let app_rx = Arc::clone(&cluster.app_inboxes[rank as usize]);
        let mut rec = if cluster.tracing {
            TraceRecorder::new(rank, TraceRole::App)
        } else {
            TraceRecorder::disabled(rank, TraceRole::App)
        };
        // The app root span doubles as this PE's trace id: every causal
        // chain the PE originates shares it.
        let app_span = rec.next_id();
        let app_start_ns = cluster.now_ns();
        LiveCtx {
            rank,
            pid: GlobalPid::new(NodeId(rank as u16), 1),
            port: LivePort {
                rank,
                cluster,
                transport,
                app_rx,
                stash: VecDeque::new(),
                retry: HashMap::new(),
                rec,
                trace: app_span,
                app_span,
                app_start_ns,
                req_spans: HashMap::new(),
            },
            gm: GmClient::new(DEFAULT_GM_WINDOW),
            barrier_seq: 0,
            alloc_seq: 0,
            scratch: Vec::new(),
        }
    }

    /// Complete all staged and in-flight split-phase work. Every blocking
    /// synchronization primitive fences first, so split-phase operations are
    /// always ordered before barriers, locks and atomics.
    fn gm_fence(&mut self) {
        self.gm.fence(&mut self.port);
    }

    /// One round trip to the coordinator on PE 0: send `enter`, block until
    /// `granted` accepts the answer, and record the wait as a `kind` span
    /// and a `sync/<metric>` sample. The answer is an acquire point.
    fn coordinate(
        &mut self,
        enter: Message,
        granted: impl FnMut(&Message) -> bool,
        kind: TraceSpanKind,
        seq: u64,
        metric: &'static str,
    ) {
        let port = &mut self.port;
        let t0 = port.cluster.now_ns();
        let wait_span = port.rec.next_id();
        let ctx = port.tracing().then_some(TraceCtx {
            trace: port.trace,
            parent: wait_span,
        });
        port.send_traced(0, &enter, ctx);
        port.await_msg(granted);
        if port.tracing() {
            let mut s = port.span(kind, wait_span, port.app_span, t0);
            s.peer = 0;
            s.seq = seq;
            port.rec.push(s);
        }
        port.metrics().record(
            MetricKey::pe("sync", metric, port.rank),
            port.cluster.now_ns().saturating_sub(t0),
        );
        port.replica_purge();
    }

    /// Called by the harness after the body returns: fence, then notify the
    /// coordinator so it can shut the kernels down once everyone is out.
    pub(super) fn finish(&mut self) {
        self.gm_fence();
        self.port.send(
            0,
            &Message::ExitNotice {
                pid: self.pid,
                status: 0,
            },
        );
    }

    /// Called by the harness however the body ended: close the app root
    /// span and park this thread's causal spans in the cluster sink, so an
    /// aborted run still yields a usable partial trace.
    pub(super) fn flush_trace(&mut self) {
        self.port.close_app_span();
        let spans = self.port.rec.take();
        self.port.cluster.flush_trace(self.rank, 0, spans);
    }
}

impl ParallelApi for LiveCtx {
    fn rank(&self) -> u32 {
        self.rank
    }

    fn nprocs(&self) -> usize {
        self.port.cluster.nprocs
    }

    fn compute(&mut self, _work: Work) {
        // The computation already ran for real; nothing to account.
    }

    fn gm_alloc(&mut self, len: usize, dist: Distribution) -> RegionId {
        self.gm_fence();
        let seq = self.alloc_seq;
        self.alloc_seq += 1;
        let cluster = &self.port.cluster;
        let mut table = cluster.allocs.lock();
        if let Some(&(id, existing)) = table.get(seq) {
            assert_eq!(existing, len, "collective allocation #{seq} size mismatch");
            return id;
        }
        assert_eq!(table.len(), seq, "collective allocations out of order");
        let id = cluster.store.alloc(len, dist);
        table.push((id, len));
        id
    }

    fn gm_read(&mut self, region: RegionId, offset: u64, len: usize) -> Vec<u8> {
        self.port.count_op("reads");
        self.gm.read(&mut self.port, region, offset, len)
    }

    fn gm_write(&mut self, region: RegionId, offset: u64, data: &[u8]) {
        self.port.count_op("writes");
        self.gm.write(&mut self.port, region, offset, data)
    }

    fn gm_read_into(&mut self, region: RegionId, offset: u64, out: &mut [u8]) {
        self.port.count_op("reads");
        self.gm.read_into(&mut self.port, region, offset, out)
    }

    fn gm_read_nb(&mut self, region: RegionId, offset: u64, len: usize) -> GmHandle {
        self.port.count_op("reads");
        self.gm.read_nb(&mut self.port, region, offset, len)
    }

    fn gm_write_nb(&mut self, region: RegionId, offset: u64, data: &[u8]) -> GmHandle {
        self.port.count_op("writes");
        self.gm.write_nb(&mut self.port, region, offset, data)
    }

    fn gm_wait(&mut self, handle: GmHandle) -> Option<Vec<u8>> {
        self.gm.wait(&mut self.port, handle)
    }

    fn gm_wait_all(&mut self) {
        self.gm.wait_all(&mut self.port)
    }

    fn take_scratch(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.scratch)
    }

    fn put_scratch(&mut self, buf: Vec<u8>) {
        self.scratch = buf;
    }

    fn gm_fetch_add(&mut self, region: RegionId, offset: u64, delta: i64) -> i64 {
        self.gm_fence();
        let port = &mut self.port;
        port.count_op("fetch_adds");
        let start = port.cluster.now_ns();
        let store = &port.cluster.store;
        let home = store
            .home_of(region, offset)
            .unwrap_or_else(|e| panic!("live rank {}: bad GM address: {e}", self.rank));
        let prev = if home == port.me() {
            let prev = store
                .fetch_add(region, offset, delta)
                .unwrap_or_else(|e| panic!("live rank {}: fetch_add failed: {e}", self.rank));
            // The invalidation round completes inline: collect every ack.
            let mut pending = port.own_write_coherence(self.gm.req_ids(), region, offset, 8);
            while !pending.is_empty() {
                let (ack, _) = port.await_msg(
                    |m| matches!(m, Message::GmInvalidateAck { req } if pending.contains(req)),
                );
                if let Message::GmInvalidateAck { req } = ack {
                    port.retry.remove(&req.0);
                    pending.retain(|r| *r != req);
                }
            }
            prev
        } else {
            port.replica_drop(region, offset, 8);
            let req = self.gm.req_ids().next();
            port.incr("kernel", "gm_request_msgs");
            let msg = Message::GmFetchAddReq {
                req,
                region,
                offset,
                delta,
            };
            let home = home.0 as u32;
            let ctx = port.open_req_span(req, home);
            port.send_armed(req, home, msg, ctx);
            let t_block = port.cluster.now_ns();
            let (resp, at) = port
                .await_msg(|m| matches!(m, Message::GmFetchAddResp { req: r, .. } if *r == req));
            port.request_done(req, SpanKind::GmFetchAdd, at);
            port.blocked(t_block, req.0);
            match resp {
                Message::GmFetchAddResp { prev, .. } => prev,
                _ => unreachable!(),
            }
        };
        port.metrics().record(
            MetricKey::pe("gm", "fetch_add_ns", self.rank),
            port.cluster.now_ns().saturating_sub(start),
        );
        prev
    }

    fn barrier(&mut self) {
        let id = AUTO_BARRIER_BASE + self.barrier_seq;
        self.barrier_seq += 1;
        self.gm_fence();
        let enter = Message::BarrierEnter {
            barrier: id,
            pid: self.pid,
        };
        self.coordinate(
            enter,
            |m| matches!(m, Message::BarrierRelease { barrier, .. } if *barrier == id),
            TraceSpanKind::BarrierWait,
            id as u64,
            "barrier_wait_ns",
        );
    }

    fn lock(&mut self, id: u32) {
        self.gm_fence();
        let req = self.gm.req_ids().next();
        let enter = Message::LockReq {
            req,
            lock: id,
            pid: self.pid,
        };
        self.coordinate(
            enter,
            |m| matches!(m, Message::LockGrant { req: r, .. } if *r == req),
            TraceSpanKind::LockWait,
            req.0,
            "lock_wait_ns",
        );
    }

    fn unlock(&mut self, id: u32) {
        self.gm_fence();
        self.port.send(
            0,
            &Message::UnlockReq {
                lock: id,
                pid: self.pid,
            },
        );
    }

    fn gm_release(&mut self) {
        // Making prior writes globally visible is exactly the fence: every
        // write ack (gated on its invalidations under WI) has landed.
        self.gm_fence();
    }

    fn gm_acquire(&mut self) {
        self.gm.acquire(&mut self.port);
    }
}

// ---------------------------------------------------------------------------
// Harness.
// ---------------------------------------------------------------------------

/// Unwind payload of an app thread stopped by the cluster abort: carried
/// via `resume_unwind` (so the panic hook stays silent) and swallowed by
/// the harness when joining, unlike a genuine application panic.
struct AbortUnwind;

/// Result of a live run.
#[derive(Debug, Clone)]
pub struct LiveRunResult {
    /// Wall-clock execution time.
    pub elapsed: Duration,
    /// Processing elements used.
    pub nprocs: usize,
    /// Which transport carried the run's messages.
    pub transport: TransportKind,
    /// Observability snapshot: per-rank GM/sync counters, kernel service
    /// stats, and wall-clock latency histograms (same schema as the
    /// simulator's).
    pub metrics: MetricsSnapshot,
    /// The rollup the telemetry plane rebuilt from the deltas that rode the
    /// transport to PE 0 (`Some` only for watched runs; matches `metrics`
    /// after a clean run).
    pub telemetry_rollup: Option<MetricsSnapshot>,
    /// Flight-recorder dump at run end (JSONL, oldest event first): the
    /// last `flight_capacity` wire sends and stalls. On an aborted run the
    /// equivalent post-mortem dump rides in [`RunError`] instead.
    pub flight_jsonl: String,
    /// Per-PE causal spans recorded when [`LiveRunConfig::tracing`] is on
    /// (empty otherwise): `trace_spans[pe]` holds that PE's app-thread
    /// spans followed by its kernel-thread spans, ready for the
    /// `dse-trace` assembler.
    pub trace_spans: Vec<Vec<TraceSpanRec>>,
}

/// Builder for live runs: the one entry point to the live engine.
///
/// Every knob the old `run_live*`/`try_run_live*` family spread across six
/// signatures is a chained setter here; `run` panics on failure, `try_run`
/// returns the structured [`RunError`].
///
/// ```
/// use dse_api::{collective, ParallelApi};
/// use dse_live::LiveRunner;
///
/// let result = LiveRunner::new(4).run(|ctx| {
///     let all = collective::all_gather(ctx, ctx.rank() as i64);
///     assert_eq!(all, vec![0, 1, 2, 3]);
/// });
/// assert_eq!(result.nprocs, 4);
/// ```
pub struct LiveRunner<'h> {
    nprocs: usize,
    cfg: LiveRunConfig,
    watch: Option<WatchSpec<'h>>,
}

impl<'h> LiveRunner<'h> {
    /// A run over `nprocs` PEs on the default configuration (in-process
    /// channel transport, no faults, no watch, cache off).
    pub fn new(nprocs: usize) -> LiveRunner<'h> {
        LiveRunner {
            nprocs,
            cfg: LiveRunConfig::default(),
            watch: None,
        }
    }

    /// Which wire carries the run's messages.
    pub fn transport(mut self, kind: TransportKind) -> Self {
        self.cfg.kind = kind;
        self
    }

    /// Deterministic fault injection applied to every endpoint.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.cfg.fault_plan = Some(plan);
        self
    }

    /// Retry/deadline budget for outstanding GM requests.
    pub fn gm_retry(mut self, policy: RetryPolicy) -> Self {
        self.cfg.gm_retry = policy;
        self
    }

    /// Flight-recorder ring size (0 disables post-mortem capture).
    pub fn flight_capacity(mut self, capacity: usize) -> Self {
        self.cfg.flight_capacity = capacity;
        self
    }

    /// Causal tracing on or off (see [`LiveRunConfig::tracing`]).
    pub fn tracing(mut self, on: bool) -> Self {
        self.cfg.tracing = on;
        self
    }

    /// Read-replica GM caching with the wire directory protocol (see
    /// [`LiveRunConfig::gm_cache`]).
    pub fn gm_cache(mut self, on: bool) -> Self {
        self.cfg.gm_cache = on;
        self
    }

    /// Coherence protocol for cached runs (see [`LiveRunConfig::gm_mode`]).
    pub fn gm_mode(mut self, mode: GmMode) -> Self {
        self.cfg.gm_mode = mode;
        self
    }

    /// Which engine drives the per-PE kernels (see
    /// [`LiveRunConfig::scheduler`]): `Threads` is the thread-per-PE
    /// reference implementation, `Tasks` multiplexes every kernel on a
    /// small worker pool so one process can run thousands of PEs.
    pub fn scheduler(mut self, kind: SchedulerKind) -> Self {
        self.cfg.scheduler = kind;
        self
    }

    /// Bound on a kernel's idle wait between events (see
    /// [`LiveRunConfig::kernel_tick`]).
    pub fn kernel_tick(mut self, tick: Duration) -> Self {
        self.cfg.kernel_tick = Some(tick);
        self
    }

    /// Replace the whole configuration at once (for callers that already
    /// assembled a [`LiveRunConfig`]).
    pub fn config(mut self, cfg: LiveRunConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Watch the run: each PE's kernel thread ships incremental telemetry
    /// deltas *over the transport* to PE 0 every `interval`; PE 0's kernel
    /// applies them to a [`ClusterAggregator`] and invokes `hook` with the
    /// aggregator and the elapsed wall clock in nanoseconds on each of its
    /// own ticks. The hook signature matches the simulator's epoch hook,
    /// so one rendering function (e.g. `dse_ssi::view::render_top`) serves
    /// both engines. After the kernels shut down, a final absolute round
    /// heals any deltas lost in the shutdown race and the resulting rollup
    /// lands in [`LiveRunResult::telemetry_rollup`].
    pub fn watch(
        mut self,
        interval: Duration,
        hook: &'h (dyn Fn(&ClusterAggregator, u64) + Send + Sync),
    ) -> Self {
        self.watch = Some((interval, hook));
        self
    }

    /// Run `body` as an SPMD program, panicking on a structured failure.
    pub fn run<F>(self, body: F) -> LiveRunResult
    where
        F: Fn(&mut LiveCtx) + Send + Sync,
    {
        self.try_run(body)
            .unwrap_or_else(|e| panic!("live run failed:\n{e}"))
    }

    /// Run `body` with structured failure reporting: a run that hits a
    /// transport fault, a GM deadline, or a dead kernel aborts
    /// cluster-wide (every thread joins) and returns a [`RunError`]
    /// carrying the per-PE failure report and the flight-recorder
    /// post-mortem instead of panicking.
    pub fn try_run<F>(self, body: F) -> Result<LiveRunResult, RunError>
    where
        F: Fn(&mut LiveCtx) + Send + Sync,
    {
        run_live_inner(self.cfg, self.nprocs, self.watch, body)
    }
}

fn run_live_inner<F>(
    cfg: LiveRunConfig,
    nprocs: usize,
    watch: Option<WatchSpec<'_>>,
    body: F,
) -> Result<LiveRunResult, RunError>
where
    F: Fn(&mut LiveCtx) + Send + Sync,
{
    assert!(nprocs > 0);
    let cluster = Arc::new(LiveCluster::with_config(nprocs, &cfg));
    let start = Instant::now();
    // The guard outlives the scope below: socket files are removed however
    // the run ends, including an unwinding abort.
    let (transports, _socket_dir) =
        match build_transports(cfg.kind, nprocs, cfg.fault_plan.as_ref()) {
            Ok(built) => built,
            Err(e) => {
                return Err(RunError {
                    failures: vec![PeFailure {
                        pe: 0,
                        role: FailureRole::Kernel,
                        kind: FailureKind::Mesh(e),
                    }],
                    flight_jsonl: cluster.flight.to_jsonl(),
                    elapsed: start.elapsed(),
                })
            }
        };
    let rollup = std::thread::scope(|scope| {
        let mut kernel_inputs: Vec<sched::KernelInput> = Vec::with_capacity(nprocs);
        let mut app_handles = Vec::with_capacity(nprocs);
        let abort = &cluster.abort;
        for (pe, transport) in transports.iter().enumerate() {
            let app_cluster = Arc::clone(&cluster);
            let app_transport = Arc::clone(transport);
            kernel_inputs.push((pe as u32, Arc::clone(transport)));
            let body = &body;
            let app_thread = move || {
                let mut ctx = LiveCtx::new(pe as u32, app_cluster, app_transport);
                let out = catch_unwind(AssertUnwindSafe(|| {
                    body(&mut ctx);
                    ctx.finish();
                }));
                ctx.flush_trace();
                if let Err(p) = out {
                    // A genuine app panic aborts the cluster so the
                    // kernels drain out instead of waiting for an
                    // ExitNotice that will never come; the payload still
                    // propagates through the harness join below.
                    if !p.is::<AbortUnwind>() {
                        abort.store(true, Ordering::Release);
                    }
                    resume_unwind(p);
                }
            };
            app_handles.push(match cluster.scheduler {
                SchedulerKind::Threads => scope.spawn(app_thread),
                // App bodies are blocking closures, so they keep dedicated
                // threads under both schedulers — but at many-PE scale the
                // default ~8 MiB stacks would dominate memory, so the task
                // scheduler shrinks them.
                SchedulerKind::Tasks => std::thread::Builder::new()
                    .stack_size(sched::APP_STACK)
                    .spawn_scoped(scope, app_thread)
                    .expect("spawn app thread"),
            });
        }
        // Kernels first: they stop only after a clean shutdown handshake
        // or a cluster abort, either of which also unblocks the apps.
        let mut trackers = Vec::with_capacity(nprocs);
        let mut agg = None;
        let mut propagate = None;
        match cluster.scheduler {
            SchedulerKind::Threads => {
                let kernel_handles: Vec<_> = kernel_inputs
                    .into_iter()
                    .map(|(pe, transport)| {
                        let kernel_cluster = Arc::clone(&cluster);
                        scope.spawn(move || {
                            live_kernel(pe, &kernel_cluster, &transport, watch, start)
                        })
                    })
                    .collect();
                for h in kernel_handles {
                    match h.join() {
                        Ok((tracker, a)) => {
                            trackers.push(tracker);
                            agg = agg.or(a);
                        }
                        Err(p) => {
                            // A kernel *bug* (transport failures return
                            // structured errors, they never unwind): latch
                            // the abort so the rest of the cluster drains,
                            // re-panic once every thread is down.
                            cluster.abort.store(true, Ordering::Release);
                            propagate.get_or_insert(p);
                        }
                    }
                }
            }
            SchedulerKind::Tasks => {
                match sched::run_kernels(&cluster, kernel_inputs, watch, start) {
                    Ok(results) => {
                        for (tracker, a) in results {
                            trackers.push(tracker);
                            agg = agg.or(a);
                        }
                    }
                    Err(p) => {
                        cluster.abort.store(true, Ordering::Release);
                        propagate.get_or_insert(p);
                    }
                }
            }
        }
        for h in app_handles {
            if let Err(p) = h.join() {
                if !p.is::<AbortUnwind>() {
                    propagate.get_or_insert(p);
                }
            }
        }
        if let Some(p) = propagate {
            resume_unwind(p);
        }
        if cluster.aborting() {
            // No rollup for an aborted run: the registry is mid-flight
            // and the caller gets the failure report instead.
            return None;
        }
        // Final absolute telemetry round: reproduce the registry exactly
        // through the same encode/decode codec the wire used, healing any
        // deltas the shutdown race dropped.
        watch.map(|(_, hook)| {
            let mut agg = agg.expect("watched run must produce an aggregator");
            let snap = cluster.metrics.snapshot();
            let now_ns = start.elapsed().as_nanos() as u64;
            for t in trackers.iter_mut() {
                let (seq, d) = t.absolute(&snap, &[]);
                let back = TelemetryDelta::decode(&d.encode()).expect("telemetry self-roundtrip");
                agg.apply(t.pe(), seq, now_ns, &back);
            }
            hook(&agg, now_ns);
            agg.rollup()
        })
    });
    let failures = std::mem::take(&mut *cluster.failures.lock());
    let flight_jsonl = cluster.flight.to_jsonl();
    if !failures.is_empty() {
        return Err(RunError {
            failures,
            flight_jsonl,
            elapsed: start.elapsed(),
        });
    }
    let mut sink = std::mem::take(&mut *cluster.trace_sink.lock());
    sink.sort_by_key(|(pe, role, _)| (*pe, *role));
    let mut trace_spans = vec![Vec::new(); nprocs];
    for (pe, _, spans) in sink {
        trace_spans[pe as usize].extend(spans);
    }
    Ok(LiveRunResult {
        elapsed: start.elapsed(),
        nprocs,
        transport: cfg.kind,
        metrics: cluster.metrics.snapshot(),
        telemetry_rollup: rollup,
        flight_jsonl,
        trace_spans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dse_api::{collective, GmArray, GmCounter};
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn live_barrier_and_gm_roundtrip() {
        LiveRunner::new(4).run(|ctx| {
            let arr = GmArray::<u64>::alloc(ctx, 4, Distribution::Blocked);
            arr.set(ctx, ctx.rank() as usize, ctx.rank() as u64 * 10);
            ctx.barrier();
            let all = arr.read(ctx, 0, 4);
            assert_eq!(all, vec![0, 10, 20, 30]);
        });
    }

    #[test]
    fn live_counter_is_exactly_once() {
        let total = AtomicU64::new(0);
        LiveRunner::new(4).run(|ctx| {
            let c = GmCounter::alloc(ctx);
            ctx.barrier();
            loop {
                let j = c.next(ctx);
                if j >= 100 {
                    break;
                }
                total.fetch_add(j as u64, Ordering::Relaxed);
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), (0..100u64).sum());
    }

    #[test]
    fn live_metrics_capture_gm_and_sync() {
        let r = LiveRunner::new(3).run(|ctx| {
            let arr = GmArray::<u64>::alloc(ctx, 3, Distribution::Blocked);
            arr.set(ctx, ctx.rank() as usize, 1);
            ctx.barrier();
            let _ = arr.read(ctx, 0, 3);
        });
        assert!(r.metrics.counter("gm", "writes", Some(0)).unwrap_or(0) >= 1);
        let h = r
            .metrics
            .histogram("sync", "barrier_wait_ns", Some(1))
            .expect("barrier histogram for rank 1");
        assert!(h.count() >= 1);
    }

    #[test]
    fn live_run_exchanges_wire_messages() {
        // The acceptance gate for the message-passing engine: a multi-PE
        // run must put real GM request messages on the transport.
        let r = LiveRunner::new(2).run(|ctx| {
            let arr = GmArray::<u64>::alloc(ctx, 8, Distribution::Blocked);
            arr.set(ctx, (ctx.rank() as usize + 5) % 8, 1);
            ctx.barrier();
            let _ = arr.read(ctx, 0, 8);
        });
        assert!(
            r.metrics.counter_sum_over_pes("kernel", "gm_request_msgs") > 0,
            "no GM request messages crossed the transport"
        );
        assert!(
            r.metrics.counter_sum_over_pes("kernel", "requests_served") > 0,
            "no kernel served a GM request"
        );
    }

    #[test]
    fn watched_rollup_matches_direct_snapshot() {
        let epochs = AtomicU64::new(0);
        let hook = |_agg: &ClusterAggregator, _now_ns: u64| {
            epochs.fetch_add(1, Ordering::SeqCst);
        };
        let r = LiveRunner::new(3)
            .watch(Duration::from_millis(1), &hook)
            .run(|ctx| {
                let arr = GmArray::<u64>::alloc(ctx, 3, Distribution::Blocked);
                arr.set(ctx, ctx.rank() as usize, 7);
                ctx.barrier();
                let _ = arr.read(ctx, 0, 3);
            });
        assert!(epochs.load(Ordering::SeqCst) >= 1, "hook never fired");
        let rollup = r.telemetry_rollup.expect("watched run produces a rollup");
        assert_eq!(
            rollup.to_jsonl(),
            r.metrics.to_jsonl(),
            "in-band rollup must reproduce the wall-clock registry exactly"
        );
    }

    #[test]
    fn unwatched_run_has_no_rollup() {
        let r = LiveRunner::new(2).run(|ctx| ctx.barrier());
        assert!(r.telemetry_rollup.is_none());
    }

    #[test]
    fn live_collectives() {
        LiveRunner::new(5).run(|ctx| {
            let s = collective::reduce_sum(ctx, 1.0);
            assert_eq!(s, 5.0);
            let g = collective::all_gather(ctx, ctx.rank() as i64);
            assert_eq!(g, vec![0, 1, 2, 3, 4]);
        });
    }

    #[test]
    fn live_locks_are_mutually_exclusive() {
        let inside = AtomicU64::new(0);
        LiveRunner::new(6).run(|ctx| {
            for _ in 0..50 {
                ctx.lock(3);
                let v = inside.fetch_add(1, Ordering::SeqCst);
                assert_eq!(v, 0, "two threads inside the critical section");
                inside.fetch_sub(1, Ordering::SeqCst);
                ctx.unlock(3);
            }
        });
    }

    #[test]
    #[should_panic(expected = "release of unknown lock 9")]
    fn live_unlock_unheld_panics() {
        LiveRunner::new(1).run(|ctx| {
            ctx.unlock(9);
        });
    }

    #[test]
    fn live_on_tcp_roundtrip() {
        let r = LiveRunner::new(3).transport(TransportKind::Tcp).run(|ctx| {
            let arr = GmArray::<u64>::alloc(ctx, 3, Distribution::Blocked);
            arr.set(ctx, ctx.rank() as usize, ctx.rank() as u64 + 1);
            ctx.barrier();
            let all = arr.read(ctx, 0, 3);
            assert_eq!(all, vec![1, 2, 3]);
        });
        assert_eq!(r.transport, TransportKind::Tcp);
        assert!(r.metrics.counter_sum_over_pes("kernel", "gm_request_msgs") > 0);
    }

    #[cfg(unix)]
    #[test]
    fn live_on_uds_roundtrip() {
        LiveRunner::new(2).transport(TransportKind::Uds).run(|ctx| {
            let c = GmCounter::alloc(ctx);
            ctx.barrier();
            let mine = c.next(ctx);
            assert!(mine < 2);
        });
    }

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
    fn injected_disconnect_yields_structured_error() {
        // Kill PE 1's endpoint mid-run: the run must abort cluster-wide
        // with a structured report instead of panicking or hanging.
        let cfg = LiveRunConfig {
            fault_plan: Some(FaultPlan::parse("seed=3,disconnect=1:8").unwrap()),
            ..LiveRunConfig::default()
        };
        let err = LiveRunner::new(3)
            .config(cfg)
            .try_run(|ctx| {
                let arr = GmArray::<u64>::alloc(ctx, 64, Distribution::Blocked);
                for round in 0..200 {
                    arr.set(ctx, (ctx.rank() as usize * 13 + round) % 64, round as u64);
                    ctx.barrier();
                }
            })
            .expect_err("a dead endpoint must fail the run");
        assert!(!err.failures.is_empty(), "report must name an observer");
        assert!(
            err.report().contains("first-hand failure"),
            "report must render"
        );
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
            let serve_id = dse_kernel::task::serve_span_id(rq.span, 0);
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
    fn tasks_scheduler_runs_barriers_locks_and_gm() {
        let total = AtomicU64::new(0);
        LiveRunner::new(8)
            .scheduler(SchedulerKind::Tasks)
            .run(|ctx| {
                let arr = GmArray::<u64>::alloc(ctx, 8, Distribution::Blocked);
                arr.set(ctx, ctx.rank() as usize, ctx.rank() as u64 * 3);
                ctx.barrier();
                let all = arr.read(ctx, 0, 8);
                assert_eq!(all, (0..8u64).map(|r| r * 3).collect::<Vec<_>>());
                let c = GmCounter::alloc(ctx);
                ctx.barrier();
                loop {
                    let j = c.next(ctx);
                    if j >= 40 {
                        break;
                    }
                    total.fetch_add(j as u64, Ordering::Relaxed);
                }
            });
        assert_eq!(total.load(Ordering::Relaxed), (0..40u64).sum());
    }

    #[test]
    fn tasks_scheduler_aborted_run_reports_failures() {
        // Kill PE 1's endpoint mid-run under the task scheduler: the abort
        // latch must drain the whole worker pool instead of hanging it.
        let err = LiveRunner::new(3)
            .scheduler(SchedulerKind::Tasks)
            .fault_plan(FaultPlan::parse("seed=3,disconnect=1:8").unwrap())
            .try_run(|ctx| {
                let arr = GmArray::<u64>::alloc(ctx, 64, Distribution::Blocked);
                for round in 0..200 {
                    arr.set(ctx, (ctx.rank() as usize * 13 + round) % 64, round as u64);
                    ctx.barrier();
                }
            })
            .expect_err("a dead endpoint must fail the run");
        assert!(!err.failures.is_empty());
    }

    // ----- LiveRunner builder edge cases -----

    #[test]
    fn builder_setters_round_trip_into_run_config() {
        let hook = |_: &ClusterAggregator, _: u64| {};
        let plan = FaultPlan::parse("seed=5,drop=10").unwrap();
        let retry = RetryPolicy {
            max_attempts: 9,
            base_delay: Duration::from_millis(3),
            max_delay: Duration::from_millis(30),
        };
        let r = LiveRunner::new(4)
            .transport(TransportKind::Tcp)
            .fault_plan(plan.clone())
            .gm_retry(retry)
            .flight_capacity(99)
            .tracing(true)
            .gm_cache(true)
            .gm_mode(GmMode::ReleaseConsistency)
            .scheduler(SchedulerKind::Tasks)
            .kernel_tick(Duration::from_millis(7))
            .watch(Duration::from_millis(40), &hook);
        assert_eq!(r.cfg.kind, TransportKind::Tcp);
        assert_eq!(r.cfg.fault_plan, Some(plan));
        assert_eq!(r.cfg.gm_retry.max_attempts, 9);
        assert_eq!(r.cfg.gm_retry.base_delay, Duration::from_millis(3));
        assert_eq!(r.cfg.flight_capacity, 99);
        assert!(r.cfg.tracing);
        assert!(r.cfg.gm_cache);
        assert_eq!(r.cfg.gm_mode, GmMode::ReleaseConsistency);
        assert_eq!(r.cfg.scheduler, SchedulerKind::Tasks);
        assert_eq!(r.cfg.kernel_tick, Some(Duration::from_millis(7)));
        assert!(r.watch.is_some());
        // `config` replaces the whole assembled configuration at once.
        let r = r.config(LiveRunConfig::default());
        assert_eq!(r.cfg.kind, TransportKind::Channel);
        assert_eq!(r.cfg.scheduler, SchedulerKind::Threads);
        assert_eq!(r.cfg.kernel_tick, None);
    }

    #[test]
    fn kernel_tick_defaults_per_scheduler_and_overrides() {
        let threads = LiveCluster::with_config(2, &LiveRunConfig::default());
        assert_eq!(threads.kernel_tick, THREADS_TICK);
        let tasks = LiveCluster::with_config(
            2,
            &LiveRunConfig {
                scheduler: SchedulerKind::Tasks,
                ..LiveRunConfig::default()
            },
        );
        assert_eq!(tasks.kernel_tick, TASKS_TICK);
        let explicit = LiveCluster::with_config(
            2,
            &LiveRunConfig {
                kernel_tick: Some(Duration::from_millis(2)),
                ..LiveRunConfig::default()
            },
        );
        assert_eq!(explicit.kernel_tick, Duration::from_millis(2));
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

    #[test]
    fn watch_composes_with_try_run() {
        let ticks = AtomicU64::new(0);
        let hook = |_: &ClusterAggregator, _: u64| {
            ticks.fetch_add(1, Ordering::Relaxed);
        };
        let r = LiveRunner::new(2)
            .watch(Duration::from_millis(5), &hook)
            .try_run(|ctx| {
                let c = GmCounter::alloc(ctx);
                ctx.barrier();
                while c.next(ctx) < 20 {}
            })
            .expect("watched try_run must succeed");
        // The final absolute round always fires the hook at least once and
        // produces a rollup that matches the registry.
        assert!(ticks.load(Ordering::Relaxed) >= 1);
        let rollup = r.telemetry_rollup.expect("watched run yields a rollup");
        assert_eq!(
            rollup.counter_sum_over_pes("kernel", "requests_served"),
            r.metrics.counter_sum_over_pes("kernel", "requests_served")
        );
    }
}
