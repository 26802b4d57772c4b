//! The live execution engine: the same Parallel API, driven by real wire
//! messages over a pluggable [`Transport`].
//!
//! Where the simulator answers "how long would this have taken on a 1999
//! cluster", the live engine *runs* the program — and it runs it the way
//! the paper's Fig. 3 describes. Each processor element hosts:
//!
//! * an **application thread** executing the rank's body through
//!   [`LiveCtx`], whose global-memory accesses take the own-node fast path
//!   when the range is homed locally and otherwise become encoded
//!   `GmReadReq`/`GmWriteReq`/`GmBatchReq` request messages to the home
//!   PE's kernel;
//! * a **kernel** — the linked-library DSE kernel's message loop, a
//!   [`KernelTask`] driven by a worker of the pool in [`sched`] — the sole
//!   consumer of the PE's transport endpoint. It services incoming GM
//!   requests against the global store, forwards responses to its own
//!   application thread, and (on PE 0) serves the barrier and lock calls
//!   that arrive over a wire, collects exits and ingests the telemetry
//!   plane behind `--watch` (`dse_kernel::telemetry`). [`SchedulerKind`]
//!   sizes the pool: one worker per PE, or one per core with many kernels
//!   sharing a worker.
//!
//! Barrier and lock state is the run's one ([`LiveCluster`]): PE 0's
//! application, and on the in-process channel with no fault plan every
//! PE's, calls the coordinator in place as a library call, and PE 0's
//! kernel serves everyone else's messages from the same state.
//!
//! The transport is chosen per run ([`TransportKind`]): an in-process
//! channel mesh, a framed TCP-over-loopback mesh, or Unix domain sockets —
//! identical program results on all of them, which is the portability claim
//! made mechanical.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use dse_kernel::gmem::GlobalStore;
use dse_kernel::task::{is_app_bound, KernelEnv, KernelTask, Live, Outbound, Requester};
use dse_kernel::{
    telemetry, BarrierCenter, CacheStore, EpochHook, GmMode, KernelCount, LockCenter, PeCounters,
    SchedulerKind, TelemetrySummary, Watch,
};
use dse_msg::{GlobalPid, Message, NodeId, TraceCtx};
use dse_obs::{
    ClusterAggregator, FlightEventKind, FlightRecorder, MetricsSnapshot, Registry, TraceRole,
    TraceSink, TraceSpanRec,
};
use dse_transport::{
    BlockingQueue, ChannelTransport, FaultPlan, FaultyTransport, RetryPolicy, SocketTransport,
    Transport, TransportError,
};

use crate::error::{abort_code, FailureKind, FailureRole, PeFailure, RunError};

mod ctx;
pub(crate) mod sched;

pub use ctx::{LiveCtx, LivePort};

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

/// Events the flight recorder keeps for the post-mortem: the last wire
/// sends and the deadline stall of an aborted run.
const FLIGHT_CAPACITY: usize = 256;

/// What every [`KernelEnv`] carries as its `install_guard`, which nothing
/// reads: a node's install epoch lives in the run's `CacheStore`.
static UNREAD_INSTALL_GUARD: Mutex<u64> = Mutex::new(0);

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
    /// How many workers drive the per-PE kernels: one per PE (`Threads`)
    /// or one per core, each multiplexing its share of the kernels
    /// (`Tasks`, for many-PE runs).
    pub scheduler: SchedulerKind,
}

impl Default for LiveRunConfig {
    fn default() -> LiveRunConfig {
        LiveRunConfig {
            kind: TransportKind::Channel,
            fault_plan: None,
            gm_retry: default_gm_retry(),
            tracing: false,
            gm_cache: false,
            gm_mode: GmMode::WriteInvalidate,
            scheduler: SchedulerKind::Threads,
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

/// Shared state of a live run: the home-partitioned global store, the
/// run's one barrier and lock state, and the wall-clock metrics registry.
/// Partition ownership is enforced by routing — a rank only touches bytes
/// homed elsewhere through request messages to the home PE's kernel
/// thread, never directly.
pub struct LiveCluster {
    nprocs: usize,
    store: GlobalStore,
    /// Barrier coordination: the run's one state, served by PE 0's kernel
    /// for the calls that arrive over a wire and driven in place by the
    /// PEs that call the coordinator themselves ([`LiveCluster::in_place`]).
    barriers: BarrierCenter<Requester>,
    /// Lock coordination, like `barriers`.
    locks: LockCenter<Requester>,
    /// The in-process channel with no fault plan: nothing between two PEs
    /// can be lost, so a kernel pushes app-bound answers straight into the
    /// destination's app inbox, and every PE coordinates in place.
    direct: bool,
    /// Wall-clock observability: the same registry the simulator uses,
    /// fed with `Instant`-measured nanoseconds instead of virtual time.
    metrics: Registry,
    /// The telemetry plane's one aggregator (`Some` only for watched runs).
    aggregator: Option<Mutex<ClusterAggregator>>,
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
    /// Per-thread causal span streams, parked here at thread end (also on
    /// abort, so the post-mortem trace is complete).
    trace_sink: TraceSink,
    /// Replica cache + sharing directory (`Some` only for cached runs).
    /// The per-node block maps and the directory live in one shared
    /// structure because the cluster is one address space, but every
    /// *protocol* action on them travels the wire.
    cache: Option<CacheStore>,
    /// Coherence protocol for cached runs.
    gm_mode: GmMode,
    /// Per-PE application-thread inboxes. The co-resident kernel is the
    /// usual producer; on a direct run remote kernels, and other PEs'
    /// coordination calls in place, push app-bound messages here directly,
    /// skipping the relay hop through the destination's kernel.
    app_inboxes: Vec<AppInbox>,
}

/// One PE's app-thread inbox: responses and coordination wakeups.
type AppInbox = Arc<BlockingQueue<(Message, Option<TraceCtx>)>>;

impl LiveCluster {
    fn with_config(nprocs: usize, cfg: &LiveRunConfig, watched: bool) -> LiveCluster {
        let metrics = Registry::new();
        for pe in 0..nprocs as u32 {
            PeCounters::new(&metrics, pe, None).register();
        }
        LiveCluster {
            nprocs,
            store: GlobalStore::new(nprocs),
            barriers: BarrierCenter::new(nprocs),
            locks: LockCenter::new(),
            direct: cfg.kind == TransportKind::Channel && cfg.fault_plan.is_none(),
            metrics,
            aggregator: watched.then(|| telemetry::aggregator(nprocs)),
            flight: FlightRecorder::with_capacity(FLIGHT_CAPACITY),
            failures: Mutex::new(Vec::new()),
            abort: AtomicBool::new(false),
            retry: cfg.gm_retry,
            t0: Instant::now(),
            tracing: cfg.tracing,
            trace_sink: TraceSink::default(),
            cache: cfg.gm_cache.then(|| CacheStore::new(nprocs)),
            gm_mode: cfg.gm_mode,
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

    /// Whether `pe`'s application calls the coordinator in place, on the
    /// run's state, rather than sending the call to PE 0's kernel: PE 0's
    /// always (it is the coordinator's node, as on the simulator), every
    /// PE's on a direct run.
    fn in_place(&self, pe: u32) -> bool {
        pe == 0 || self.direct
    }

    /// The kernel's delivery rule for a message `pe` sends to `to`: true
    /// when it goes straight into `to`'s app inbox instead of onto the
    /// wire. That is an app-bound message for `pe`'s own application —
    /// over the wire it would only loop back and be forwarded — and, on a
    /// direct run, one for any PE's application (counted as
    /// `kernel/app_direct_msgs`).
    fn to_app_inbox(&self, pe: u32, to: u32, msg: &Message) -> bool {
        if !is_app_bound(msg) || (to != pe && !self.direct) {
            return false;
        }
        if to != pe {
            PeCounters::new(&self.metrics, pe, None).count(KernelCount::AppDirect);
        }
        true
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

    /// Record an app thread's failure if it is the *first* observation, or
    /// if the thread saw it `first_hand` — a send it began before any abort
    /// was latched, whoever latched since: once the cluster is already
    /// aborting, an app dying at its next blocking point is a casualty of
    /// the abort, not a cause.
    fn note_app_failure(&self, pe: u32, kind: FailureKind, first_hand: bool) {
        if !self.abort.swap(true, Ordering::AcqRel) || first_hand {
            self.failures.lock().push(PeFailure {
                pe,
                role: FailureRole::App,
                kind,
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Kernel side: the per-PE message loop.
//
// The protocol logic itself lives in `dse-kernel`: GM service, directory
// coherence, barriers and locks in `KernelProtocol`, the machine the
// simulator's kernel runs too; exit collection, telemetry emission and
// causal spans in `task::KernelTask`, its sans-IO live driver consuming
// one event per `poll`. The one driver that supplies the IO around it is the
// worker pool in `sched`; what follows here is what that driver calls to
// put a task's outputs on the wire and to tear a kernel down.
// ---------------------------------------------------------------------------

type WatchSpec<'h> = (Duration, &'h EpochHook<'h>);

impl LiveCluster {
    /// A watched run's telemetry plane: `spec`'s interval and hook, and
    /// this cluster's aggregator.
    fn watch<'a>(&'a self, spec: Option<WatchSpec<'a>>) -> Option<Watch<'a>> {
        let ((interval, hook), aggregator) = spec.zip(self.aggregator.as_ref())?;
        Some(Watch {
            interval,
            hook,
            aggregator,
        })
    }

    /// PE 0's kernel as the host of a coordination call made in place: the
    /// run's barrier and lock state, PE 0's counters and the engine clock.
    fn coordinator(&self) -> Live<'_> {
        Live::sharing(self.kernel_env(0, self.t0), &self.barriers, &self.locks)
    }

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
            install_guard: &UNREAD_INSTALL_GUARD,
            engine_t0: self.t0,
            run_start: start,
        }
    }
}

thread_local! {
    /// Reused per-thread accumulator for [`play_outbound`]'s
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
        send_one(transport, to, msg, *ctx)
    } else {
        transport.send_batch(to, batch)
    };
    batch.clear();
    res.map_err(FailureKind::Transport)
}

fn send_one(
    transport: &dyn Transport,
    to: u32,
    msg: &Message,
    ctx: Option<TraceCtx>,
) -> Result<(), TransportError> {
    match ctx {
        Some(c) => transport.send_ctx(to, msg, c),
        None => transport.send(to, msg),
    }
}

/// Play what `pe` sends — a kernel task's outbox, or the answers of a
/// coordination call made in place — onto `pe`'s endpoint and the app
/// inboxes. Each wire send and replay goes into the flight recorder first.
/// Every message sent, to a wire or straight to an app inbox, is one of
/// `pe`'s `kernel/messages`, as on the simulator; a forward to `pe`'s own
/// application is not a send.
/// A failed [`Outbound::Wire`] send stops the play and fails the sender
/// (the kernel aborts on its first failed send); best-effort items and
/// replays never fail.
/// Charges, process starts and terminations are the simulator's and play
/// as nothing.
///
/// Consecutive [`Outbound::Wire`] items for the same destination are
/// grouped into one [`Transport::send_batch`] call, preserving order —
/// a batch is flushed before any send to a different destination or any
/// non-wire item, so the observable delivery order is unchanged.
///
/// An app-bound wire message goes by the delivery rule
/// ([`LiveCluster::to_app_inbox`]): for `pe`'s own application, and on a
/// direct run for any PE's (read responses, write acks, barrier releases,
/// lock grants), it is pushed straight into the destination's app inbox —
/// the receiving kernel would only have decoded and forwarded it, so the
/// push saves that relay wake-up. The requester-side install-epoch guard
/// already covers the one ordering this drops (a response racing an
/// invalidation to the same PE), and socket and fault-injected transports
/// keep the full wire path so loss, delay, and retransmission behavior
/// are untouched.
fn play_outbound(
    outbound: impl Iterator<Item = Outbound>,
    transport: &dyn Transport,
    cluster: &LiveCluster,
    pe: u32,
) -> Result<(), FailureKind> {
    let sent = PeCounters::new(&cluster.metrics, pe, None);
    WIRE_BATCH.with(|cell| {
        let batch = &mut *cell.borrow_mut();
        batch.clear();
        let mut batch_to: Option<u32> = None;
        for out in outbound {
            if let Outbound::Wire { to, msg, .. } | Outbound::Replay { to, msg, .. } = &out {
                let label = msg.label();
                let (to_pe, bytes) = (*to, msg.wire_len() as u64);
                sent.count(KernelCount::Sent(bytes as usize));
                let at = cluster.t0.elapsed().as_nanos() as u64;
                let kind = FlightEventKind::Bus {
                    label,
                    to_pe,
                    bytes,
                };
                cluster.flight.record(at, pe, kind);
            }
            match out {
                Outbound::Wire { to, msg, ctx, .. } | Outbound::Replay { to, msg, ctx }
                    if cluster.to_app_inbox(pe, to, &msg) =>
                {
                    if let Some(prev) = batch_to.take() {
                        ship_wire_batch(transport, prev, batch)?;
                    }
                    cluster.app_push(to, msg, ctx);
                }
                Outbound::Wire { to, msg, ctx, .. } => {
                    if batch_to != Some(to) {
                        if let Some(prev) = batch_to.take() {
                            ship_wire_batch(transport, prev, batch)?;
                        }
                        batch_to = Some(to);
                    }
                    batch.push((msg, ctx));
                }
                Outbound::Replay { to, msg, ctx } => {
                    if let Some(prev) = batch_to.take() {
                        ship_wire_batch(transport, prev, batch)?;
                    }
                    let _ = send_one(transport, to, &msg, ctx);
                }
                Outbound::WireBestEffort { to, msg } => {
                    sent.count(KernelCount::Sent(msg.wire_len()));
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
                Outbound::Charge(_) | Outbound::Spawn { .. } | Outbound::Terminate(_) => {}
            }
        }
        if let Some(to) = batch_to {
            ship_wire_batch(transport, to, batch)?;
        }
        Ok(())
    })
}

/// Teardown of one PE's kernel: flush the causal spans, convert a
/// first-hand failure into an `Abort` relay (non-zero PEs report to PE 0,
/// PE 0 broadcasts), wake the co-resident app thread, and release the
/// transport endpoint.
pub(crate) fn finish_kernel(
    pe: u32,
    cluster: &LiveCluster,
    transport: &dyn Transport,
    task: KernelTask<Live<'_>>,
    exit: Result<Option<Message>, FailureKind>,
) {
    let spans = task.finish();
    // Flush this kernel's causal spans whatever the exit path — an aborted
    // run's post-mortem trace is where they matter most.
    cluster.trace_sink.park(pe, TraceRole::Kernel, spans);
    let relay = match exit {
        Ok(None) => None,
        Ok(Some(frame)) => Some(frame),
        Err(kind) => {
            let code = match &kind {
                FailureKind::Transport(_) => abort_code::TRANSPORT,
                FailureKind::PeerProtocol { .. } => abort_code::PROTOCOL,
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
    /// Telemetry-plane results (`Some` only for watched runs): the rollup
    /// rebuilt from the deltas that rode the transport to PE 0 and the
    /// kernels' shutdown flushes (it matches `metrics` after a clean run),
    /// and every PE's emission health.
    pub telemetry: Option<TelemetrySummary>,
    /// Flight-recorder dump at run end (JSONL, oldest event first): the
    /// last 256 wire sends and stalls. On an aborted run the
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

    /// Size of the kernel worker pool (see [`LiveRunConfig::scheduler`]):
    /// `Threads` gives every PE's kernel its own worker, `Tasks` shares
    /// one worker per core so one process can run thousands of PEs.
    pub fn scheduler(mut self, kind: SchedulerKind) -> Self {
        self.cfg.scheduler = kind;
        self
    }

    /// Replace the whole configuration at once (for callers that already
    /// assembled a [`LiveRunConfig`]).
    pub fn config(mut self, cfg: LiveRunConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Watch the run: each PE's kernel ships incremental telemetry deltas
    /// *over the transport* to PE 0 every `interval`; PE 0's kernel applies
    /// them to the run's [`ClusterAggregator`] and invokes `hook` with the
    /// aggregator and the elapsed wall clock in nanoseconds each time its
    /// own delta lands. The hook and the rules are the simulator's
    /// (`dse_kernel::telemetry`), so one rendering function (e.g.
    /// `dse_ssi::view::render_top`) serves both engines. At shutdown every
    /// kernel flushes its PE's absolute state, healing deltas lost on the
    /// way; the last flush fires the hook once more, and the result lands
    /// in [`LiveRunResult::telemetry`].
    pub fn watch(mut self, interval: Duration, hook: &'h EpochHook<'h>) -> Self {
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
    let cluster = Arc::new(LiveCluster::with_config(nprocs, &cfg, watch.is_some()));
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
    let telemetry = std::thread::scope(|scope| {
        let mut app_handles = Vec::with_capacity(nprocs);
        let abort = &cluster.abort;
        for (pe, transport) in transports.iter().enumerate() {
            let app_cluster = Arc::clone(&cluster);
            let app_transport = Arc::clone(transport);
            let body = &body;
            let app_thread = move || {
                let port = LivePort::new(pe as u32, app_cluster, app_transport);
                let pid = GlobalPid::new(NodeId(pe as u16), 1);
                let mut ctx = LiveCtx::new(port, pe as u32, pid);
                let out = catch_unwind(AssertUnwindSafe(|| {
                    body(&mut ctx);
                    ctx.finish();
                }));
                ctx.port.flush_trace();
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
            // App bodies are blocking closures, so each keeps a dedicated
            // thread whatever the kernel pool's size.
            let mut builder = std::thread::Builder::new();
            if let Some(stack) = sched::app_stack(cfg.scheduler) {
                builder = builder.stack_size(stack);
            }
            app_handles.push(
                builder
                    .spawn_scoped(scope, app_thread)
                    .expect("spawn app thread"),
            );
        }
        // Kernels first: they stop only after a clean shutdown handshake
        // or a cluster abort, either of which also unblocks the apps.
        let watch = cluster.watch(watch);
        // A kernel *bug* (transport failures return structured errors, they
        // never unwind): the pool has latched the abort and drained;
        // re-panic once the app threads are down too.
        let mut propagate =
            sched::run_kernels(&cluster, cfg.scheduler, &transports, watch, start).err();
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
            // No telemetry for an aborted run: the registry is mid-flight
            // and the caller gets the failure report instead.
            return None;
        }
        cluster.aggregator.as_ref().map(TelemetrySummary::of)
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
    Ok(LiveRunResult {
        elapsed: start.elapsed(),
        nprocs,
        transport: cfg.kind,
        metrics: cluster.metrics.snapshot(),
        telemetry,
        flight_jsonl,
        trace_spans: cluster.trace_sink.take_streams(nprocs),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dse_api::{collective, GmArray, GmCounter, ParallelApi};
    use dse_kernel::Distribution;
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
        assert!(r.metrics.counter("kernel", "gm_ops", Some(0)).unwrap_or(0) >= 2);
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
        let rollup = r.telemetry.expect("watched run produces a rollup").rollup;
        assert_eq!(
            rollup.to_jsonl(),
            r.metrics.to_jsonl(),
            "in-band rollup must reproduce the wall-clock registry exactly"
        );
    }

    #[test]
    fn unwatched_run_has_no_rollup() {
        let r = LiveRunner::new(2).run(|ctx| ctx.barrier());
        assert!(r.telemetry.is_none());
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
        // On TCP, PE 0's calls in place and the others' messages to its
        // kernel share one lock state.
        for kind in [TransportKind::Channel, TransportKind::Tcp] {
            let inside = AtomicU64::new(0);
            LiveRunner::new(6).transport(kind).run(|ctx| {
                for _ in 0..50 {
                    ctx.lock(3);
                    let v = inside.fetch_add(1, Ordering::SeqCst);
                    assert_eq!(v, 0, "{kind:?}: two threads inside the critical section");
                    inside.fetch_sub(1, Ordering::SeqCst);
                    ctx.unlock(3);
                }
            });
        }
    }

    #[test]
    fn coordination_reaches_pe0s_kernel_only_over_a_wire() {
        const ROUNDS: u64 = 100;
        const SECTIONS: u64 = 50;
        for kind in BOTH_POOLS {
            for transport in [TransportKind::Channel, TransportKind::Tcp] {
                let r = LiveRunner::new(4)
                    .transport(transport)
                    .scheduler(kind)
                    .run(|ctx| {
                        for _ in 0..ROUNDS {
                            ctx.barrier();
                        }
                        for _ in 0..SECTIONS {
                            ctx.lock(1);
                            ctx.unlock(1);
                        }
                    });
                let m = &r.metrics;
                let count = |name, pe| m.counter("kernel", name, Some(pe)).unwrap_or(0);
                let label = format!("{kind:?} on {transport:?}");
                // `messages` is what a PE sent; the body moves no memory.
                // Every run sends four exit notices (one per application,
                // to PE 0's kernel), PE 0's kernel's four shutdowns, one
                // grant per lock section, 4 * SECTIONS, and per round a
                // release to each of the three earlier enterers. A call in
                // place counts on its caller: on the channel every PE's
                // call is in place, so only the total is the program's,
                // 8 + 4 * SECTIONS + 3 * ROUNDS = 508.
                let answers = 4 * SECTIONS + 3 * ROUNDS;
                if transport == TransportKind::Channel {
                    let total = m.counter_sum_over_pes("kernel", "messages");
                    assert_eq!(total, 8 + answers, "{label}");
                } else {
                    // Over a wire, PEs 1-3 each send one enter per round
                    // and a request and an unlock per section, and their
                    // exit notice: ROUNDS + 2 * SECTIONS + 1 = 201. PE 0
                    // sends every answer, plus the completer's own release
                    // in a round a wired enter completed (none to 100 of
                    // them), its exit notice and the shutdowns.
                    for pe in 1..4 {
                        assert_eq!(count("messages", pe), ROUNDS + 2 * SECTIONS + 1);
                    }
                    let pe0 = count("messages", 0);
                    let sent = 5 + answers..=5 + answers + ROUNDS;
                    assert!(sent.contains(&pe0), "{label}: PE 0 sent {pe0}");
                }
                assert_eq!(count("barrier_epochs", 0), ROUNDS, "{label}");
                assert_eq!(count("lock_grants", 0), 4 * SECTIONS, "{label}");
                for pe in 1..4 {
                    assert_eq!(count("barrier_epochs", pe), 0, "{label}");
                    assert_eq!(count("lock_grants", pe), 0, "{label}");
                }
            }
        }
    }

    const BOTH_POOLS: [SchedulerKind; 2] = [SchedulerKind::Threads, SchedulerKind::Tasks];

    /// At least `min` PEs and more than the host has cores, so that under
    /// `Tasks` some worker holds several kernels whatever machine runs the
    /// test.
    fn oversubscribed(min: usize) -> usize {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        min.max(cores + 1)
    }

    #[test]
    fn live_unlock_unheld_panics() {
        // PE 0 unlocks in place: the panic is its application thread's,
        // which latches the abort, and the harness re-raises its payload
        // once the pool has drained.
        for kind in BOTH_POOLS {
            let payload = catch_unwind(|| {
                LiveRunner::new(oversubscribed(1))
                    .scheduler(kind)
                    .run(|ctx| {
                        if ctx.rank() == 0 {
                            ctx.unlock(9);
                        }
                    });
            })
            .expect_err("unlocking an unheld lock must panic");
            let msg = payload.downcast_ref::<String>().expect("panic message");
            assert!(msg.contains("release of unknown lock 9"), "{kind:?}: {msg}");
        }
    }

    #[test]
    fn unlock_unheld_over_a_wire_panics_in_pe0s_kernel() {
        // PE 1's unlock reaches PE 0's kernel as a message: the panic is
        // inside a kernel poll, and the pool latches the abort, drains PE
        // 0's neighbours and re-raises the kernel's own payload.
        for kind in BOTH_POOLS {
            let payload = catch_unwind(|| {
                LiveRunner::new(oversubscribed(2))
                    .transport(TransportKind::Tcp)
                    .scheduler(kind)
                    .run(|ctx| {
                        if ctx.rank() == 1 {
                            ctx.unlock(9);
                        }
                    });
            })
            .expect_err("unlocking an unheld lock must panic");
            let msg = payload.downcast_ref::<String>();
            assert!(
                msg.is_some_and(|m| m.contains("release of unknown lock 9")),
                "{kind:?}: {msg:?}"
            );
        }
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
    fn each_scheduler_runs_barriers_locks_and_gm() {
        for kind in BOTH_POOLS {
            let total = AtomicU64::new(0);
            let n = oversubscribed(8);
            LiveRunner::new(n).scheduler(kind).run(|ctx| {
                let arr = GmArray::<u64>::alloc(ctx, n, Distribution::Blocked);
                arr.set(ctx, ctx.rank() as usize, ctx.rank() as u64 * 3);
                ctx.barrier();
                let all = arr.read(ctx, 0, n);
                assert_eq!(all, (0..n as u64).map(|r| r * 3).collect::<Vec<_>>());
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
            assert_eq!(total.load(Ordering::Relaxed), (0..40u64).sum(), "{kind:?}");
        }
    }

    #[test]
    fn each_scheduler_aborted_run_reports_failures() {
        // Kill PE 1's endpoint mid-run: the abort latch must drain the
        // whole worker pool, whatever its size, instead of hanging it.
        for kind in BOTH_POOLS {
            let err = LiveRunner::new(oversubscribed(3))
                .scheduler(kind)
                .fault_plan(FaultPlan::parse("seed=3,disconnect=1:8").unwrap())
                .try_run(|ctx| {
                    let arr = GmArray::<u64>::alloc(ctx, 64, Distribution::Blocked);
                    for round in 0..200 {
                        arr.set(ctx, (ctx.rank() as usize * 13 + round) % 64, round as u64);
                        ctx.barrier();
                    }
                })
                .expect_err("a dead endpoint must fail the run");
            assert!(!err.failures.is_empty(), "{kind:?}");
        }
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
            .tracing(true)
            .gm_cache(true)
            .gm_mode(GmMode::ReleaseConsistency)
            .scheduler(SchedulerKind::Tasks)
            .watch(Duration::from_millis(40), &hook);
        assert_eq!(r.cfg.kind, TransportKind::Tcp);
        assert_eq!(r.cfg.fault_plan, Some(plan));
        assert_eq!(r.cfg.gm_retry.max_attempts, 9);
        assert_eq!(r.cfg.gm_retry.base_delay, Duration::from_millis(3));
        assert!(r.cfg.tracing);
        assert!(r.cfg.gm_cache);
        assert_eq!(r.cfg.gm_mode, GmMode::ReleaseConsistency);
        assert_eq!(r.cfg.scheduler, SchedulerKind::Tasks);
        assert!(r.watch.is_some());
        // `config` replaces the whole assembled configuration at once.
        let r = r.config(LiveRunConfig::default());
        assert_eq!(r.cfg.kind, TransportKind::Channel);
        assert_eq!(r.cfg.scheduler, SchedulerKind::Threads);
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
        let rollup = r.telemetry.expect("watched run yields a rollup").rollup;
        assert_eq!(
            rollup.counter_sum_over_pes("kernel", "requests_served"),
            r.metrics.counter_sum_over_pes("kernel", "requests_served")
        );
    }
}
