//! The harness the live workloads share: one closed-loop client per PE
//! application thread, a fresh `LiveRunner` per repetition, every
//! operation timed from outside the runtime and every outcome checked.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use dse_api::ParallelApi;
use dse_live::{LiveCtx, LiveRunResult, LiveRunner, RetryPolicy, SchedulerKind, TransportKind};
use dse_obs::LogHistogram;

use crate::spans::{SpanId, SpanLog};
use crate::stats::{median, percentile_sorted};
use crate::sys::{self, Rusage};

/// Latency samples the clients of one repetition may keep between them;
/// split evenly, so a 64-PE run costs the memory of a 2-PE run.
const SAMPLE_BUDGET: usize = 1 << 20;
/// Operation spans the clients of one traced repetition keep between them
/// (each the first of its operations). The rest are counted in the
/// repetition span's note, not recorded: at 100k ops/s a span per
/// operation would make the trace file the benchmark's main output.
const OP_SPAN_BUDGET: usize = 4000;

/// A host stall of tens of milliseconds makes every client retransmit its
/// outstanding request at the default first-retry delay of 50 ms (seen as
/// `kernel.gm_retries` in 1 repetition of 48 on `tasks64`), and one
/// `tasks64` run in about twenty then lost a job. Retransmission is fault
/// handling, not what the benchmark measures, so its clusters wait a
/// second before the first retry; `kernel.gm_retries` still reports any.
const PATIENT_RETRY: RetryPolicy = RetryPolicy {
    max_attempts: 5,
    base_delay: Duration::from_secs(1),
    max_delay: Duration::from_secs(2),
};

/// How a workload's cluster is built.
#[derive(Clone, Copy)]
pub struct ClusterCfg {
    pub nprocs: usize,
    pub transport: TransportKind,
    pub scheduler: SchedulerKind,
    /// Run every thread of the cluster on one CPU. With more threads than
    /// cores, which threads share a core decides the speed and the
    /// scheduler decides that anew every few seconds; on one CPU the
    /// placement is always the same.
    pub one_cpu: bool,
}

/// How a workload's run is cut into repetitions and reduced.
#[derive(Clone, Copy)]
pub struct Pace {
    /// Time box of one repetition (fixed-work workloads ignore it).
    pub time_box: Duration,
    /// Report the best repetition; otherwise the median one.
    pub best: bool,
}

impl Pace {
    /// For a pinned cluster whose bottleneck is the CPU. The only thing
    /// that varies between repetitions is how much a neighbour on the host
    /// slows the CPU down, and that is one-sided: so many repetitions,
    /// short against the seconds a disturbance lasts and long against an
    /// operation, and the least disturbed one is reported.
    pub const SHORT_BEST: Pace = Pace {
        time_box: Duration::from_millis(300),
        best: true,
    };
    /// For a workload whose own scheduling (64 threads on 2 CPUs) or
    /// timers (a sleeping socket poller) decide how a repetition goes: the
    /// best of many short repetitions would be a lucky schedule, so few
    /// long ones that average over schedules, and their median.
    pub const LONG_MEDIAN: Pace = Pace {
        time_box: Duration::from_millis(1500),
        best: false,
    };
}

/// What one repetition is asked to do.
#[derive(Clone, Copy)]
pub struct RepPlan {
    /// Time box of a time-boxed workload (fixed-work workloads ignore it).
    pub time_box: Duration,
    /// Run with `LiveRunner::tracing(true)` and keep operation spans.
    pub traced: bool,
    /// Skip the measured loop: spawn, prepare, meet, tear down. Times the
    /// set-up alone.
    pub setup_only: bool,
}

/// One client's record of a repetition: per-kind latency samples, counts
/// and (traced repetitions) operation spans.
pub struct OpLog {
    lat_ns: Vec<Vec<u32>>,
    /// API-level operations completed (a burst of 8 reads counts 8).
    pub ops: u64,
    /// Operations whose outcome was wrong.
    pub failed: u64,
    /// Payload bytes moved.
    pub bytes: u64,
    spans: Vec<(u8, Instant, Instant)>,
    keep_spans: bool,
}

impl OpLog {
    /// A log for `kinds` operation kinds on a cluster of `nprocs`.
    pub fn new(kinds: usize, nprocs: usize) -> OpLog {
        let per_kind = SAMPLE_BUDGET / nprocs / kinds;
        OpLog {
            lat_ns: (0..kinds).map(|_| Vec::with_capacity(per_kind)).collect(),
            ops: 0,
            failed: 0,
            bytes: 0,
            spans: Vec::with_capacity(OP_SPAN_BUDGET / nprocs),
            keep_spans: false,
        }
    }

    fn reset(&mut self, keep_spans: bool) {
        self.lat_ns.iter_mut().for_each(Vec::clear);
        self.spans.clear();
        (self.ops, self.failed, self.bytes) = (0, 0, 0);
        self.keep_spans = keep_spans;
    }

    /// Record one completed timed call of `kind` covering `ops` API-level
    /// operations and `bytes` payload bytes. Never allocates: samples past
    /// the preallocated capacity are counted but not kept.
    pub fn record(&mut self, kind: usize, start: Instant, end: Instant, ops: u64, bytes: u64) {
        self.ops += ops;
        self.bytes += bytes;
        let samples = &mut self.lat_ns[kind];
        if samples.len() < samples.capacity() {
            samples.push((end - start).as_nanos().min(u32::MAX as u128) as u32);
        }
        if self.keep_spans && self.spans.len() < self.spans.capacity() {
            self.spans.push((kind as u8, start, end));
        }
    }
}

/// A live workload: what each client prepares, does inside the measured
/// window, and verifies after it.
pub trait LiveWorkload: Sync {
    /// Per-PE client state that outlives repetitions (generated inputs,
    /// buffers, the log).
    type Client: Send;

    fn cluster(&self) -> ClusterCfg;
    /// How long a time-boxed repetition runs and how a run reduces its
    /// repetitions to one value.
    fn pace(&self) -> Pace {
        Pace::SHORT_BEST
    }
    /// Names of the operation kinds, indexing [`OpLog::record`]'s `kind`.
    /// Kind 0 is the headline operation.
    fn kinds(&self) -> &'static [&'static str];
    /// Kind reported as the second end-to-end latency.
    fn second_kind(&self) -> usize;
    /// Report the headline kind's mean latency instead of its median.
    fn headline_is_mean(&self) -> bool {
        false
    }
    fn new_client(&self, pe: u32) -> Self::Client;
    fn log<'c>(&self, client: &'c mut Self::Client) -> &'c mut OpLog;
    /// Collective allocations and initial state; runs before the opening
    /// barrier, outside the measured window.
    fn prepare(&self, ctx: &mut LiveCtx, client: &mut Self::Client);
    /// The closed loop, inside the measured window.
    fn measured(&self, ctx: &mut LiveCtx, client: &mut Self::Client, plan: &RepPlan);
    /// Checks that need the whole cluster quiescent; runs after the
    /// closing barrier. Failures go to the client's log.
    fn verify(&self, _ctx: &mut LiveCtx, _client: &mut Self::Client) {}
    /// Cross-client checks after the run; returns failed operations.
    fn cross_check(&self, _clients: &mut [&mut Self::Client]) -> u64 {
        0
    }
}

/// When one client's measured window opened and closed, and what the
/// process had used at those instants (PE 0 samples for everyone).
#[derive(Clone, Copy)]
struct Window {
    ready: Instant,
    done: Instant,
    usage: Option<(Rusage, u64, Rusage, u64)>,
}

/// What one repetition measured, reduced to numbers: the latency samples
/// and the runner's result are dropped before the next repetition starts,
/// so the process's peak memory does not grow with the number of
/// repetitions.
pub struct Rep {
    pub traced: bool,
    /// The run completed and every client reported its window.
    pub completed: bool,
    /// Spawn until the first client is ready, plus the last client done
    /// until the runner returned.
    pub setup_s: f64,
    /// First client ready until last client done.
    pub window_s: f64,
    pub ops: u64,
    pub failed: u64,
    pub bytes: u64,
    /// Per kind, over all clients' samples: how many, and their median,
    /// 99th percentile and mean in microseconds.
    pub samples: Vec<usize>,
    pub p50_us: Vec<f64>,
    pub p99_us: Vec<f64>,
    pub mean_us: Vec<f64>,
    /// Process resource usage and allocations over PE 0's window.
    pub usage: Rusage,
    pub allocs: u64,
    /// Kernel counters summed over PEs, and the merged service-time median.
    pub requests_served: f64,
    pub gm_request_msgs: f64,
    pub app_direct_msgs: f64,
    pub gm_retries: f64,
    pub service_p50_ns: f64,
    /// Cluster-wide blame of a traced repetition.
    pub blame: Option<dse_trace::BlameRow>,
}

impl Rep {
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.window_s
    }
}

/// A workload with its per-PE clients, ready to run repetitions.
pub struct LiveBench<W: LiveWorkload> {
    pub workload: W,
    clients: Vec<Mutex<W::Client>>,
    /// All clients' samples of one kind, reused across repetitions.
    pooled: Vec<u32>,
}

impl<W: LiveWorkload> LiveBench<W> {
    pub fn new(workload: W) -> LiveBench<W> {
        let clients = (0..workload.cluster().nprocs as u32)
            .map(|pe| Mutex::new(workload.new_client(pe)))
            .collect();
        LiveBench {
            workload,
            clients,
            pooled: Vec::with_capacity(SAMPLE_BUDGET),
        }
    }

    /// Run one repetition on a fresh `LiveRunner`. A run the engine
    /// aborts (`RunError`) comes back as a repetition with one failed
    /// operation and `completed` false.
    pub fn rep(&mut self, plan: &RepPlan, spans: Option<(&mut SpanLog, SpanId)>) -> Rep {
        let w = &self.workload;
        let cfg = w.cluster();
        let windows: Vec<Mutex<Option<Window>>> =
            (0..cfg.nprocs).map(|_| Mutex::new(None)).collect();
        let mut rep_span = spans.map(|(log, parent)| {
            let name = if plan.traced {
                "repetition:traced"
            } else {
                "repetition"
            };
            let id = log.open(parent, name);
            (log, id)
        });
        let clients = &self.clients;
        let t0 = Instant::now();
        let outcome = LiveRunner::new(cfg.nprocs)
            .transport(cfg.transport)
            .scheduler(cfg.scheduler)
            .tracing(plan.traced)
            .gm_retry(PATIENT_RETRY)
            .try_run(|ctx| {
                let pe = ctx.rank() as usize;
                // A client is only ever locked by its own PE's thread.
                let mut client = clients[pe].lock().expect("client mutex poisoned");
                w.log(&mut client).reset(plan.traced);
                w.prepare(ctx, &mut client);
                ctx.barrier();
                let before = (pe == 0).then(|| (Rusage::now(), sys::allocs()));
                let ready = Instant::now();
                if !plan.setup_only {
                    w.measured(ctx, &mut client, plan);
                }
                let done = Instant::now();
                let usage = before.map(|(ru, al)| (ru, al, Rusage::now(), sys::allocs()));
                ctx.barrier();
                w.verify(ctx, &mut client);
                *windows[pe].lock().expect("window mutex poisoned") =
                    Some(Window { ready, done, usage });
            });
        let t1 = Instant::now();

        let kinds = w.kinds().len();
        let mut rep = Rep {
            traced: plan.traced,
            completed: false,
            setup_s: 0.0,
            window_s: 0.0,
            ops: 0,
            failed: 0,
            bytes: 0,
            samples: vec![0; kinds],
            p50_us: vec![0.0; kinds],
            p99_us: vec![0.0; kinds],
            mean_us: vec![0.0; kinds],
            usage: Rusage::default(),
            allocs: 0,
            requests_served: 0.0,
            gm_request_msgs: 0.0,
            app_direct_msgs: 0.0,
            gm_retries: 0.0,
            service_p50_ns: 0.0,
            blame: None,
        };
        let windows: Vec<Window> = windows
            .into_iter()
            .filter_map(|m| m.into_inner().expect("window mutex poisoned"))
            .collect();
        match outcome {
            Ok(run) if windows.len() == cfg.nprocs => {
                let first_ready = windows.iter().map(|w| w.ready).min().expect("nprocs > 0");
                let last_done = windows.iter().map(|w| w.done).max().expect("nprocs > 0");
                rep.completed = true;
                rep.setup_s = ((first_ready - t0) + (t1 - last_done)).as_secs_f64();
                rep.window_s = (last_done - first_ready).as_secs_f64();
                if let Some((ru0, al0, ru1, al1)) = windows[0].usage {
                    rep.usage = ru1.since(&ru0);
                    rep.allocs = al1 - al0;
                }
                let counter = |name| run.metrics.counter_sum_over_pes("kernel", name) as f64;
                rep.requests_served = counter("requests_served");
                rep.gm_request_msgs = counter("gm_request_msgs");
                rep.app_direct_msgs = counter("app_direct_msgs");
                rep.gm_retries = counter("gm_retries");
                rep.service_p50_ns = hist_p50(&run, "kernel", "service_ns");
                if plan.traced {
                    let trace = dse_trace::assemble(&run.trace_spans);
                    rep.blame = Some(dse_trace::blame(&trace).total());
                }
            }
            Ok(_) => rep.failed += 1,
            Err(e) => {
                eprintln!("live run aborted: {e}");
                rep.failed += 1;
            }
        }
        let mut guards: Vec<_> = self
            .clients
            .iter_mut()
            .map(|m| m.get_mut().expect("client mutex poisoned"))
            .collect();
        rep.failed += self.workload.cross_check(&mut guards);
        let mut unspanned = 0u64;
        for (pe, client) in guards.iter_mut().enumerate() {
            let log = self.workload.log(client);
            rep.ops += log.ops;
            rep.failed += log.failed;
            rep.bytes += log.bytes;
            if let Some((span_log, id)) = rep_span.as_mut() {
                let names = self.workload.kinds();
                for &(kind, start, end) in &log.spans {
                    let name = format!("op:{}", names[kind as usize]);
                    span_log.record(*id, &name, pe as u32, start, end);
                }
                unspanned += log.ops.saturating_sub(log.spans.len() as u64);
            }
        }
        for kind in 0..kinds {
            self.pooled.clear();
            for client in guards.iter_mut() {
                self.pooled
                    .extend_from_slice(&self.workload.log(client).lat_ns[kind]);
            }
            self.pooled.sort_unstable();
            rep.samples[kind] = self.pooled.len();
            rep.p50_us[kind] = percentile_sorted(&self.pooled, 0.5) / 1e3;
            rep.p99_us[kind] = percentile_sorted(&self.pooled, 0.99) / 1e3;
            if !self.pooled.is_empty() {
                let sum: f64 = self.pooled.iter().map(|&v| f64::from(v)).sum();
                rep.mean_us[kind] = sum / self.pooled.len() as f64 / 1e3;
            }
        }
        if let Some((span_log, id)) = rep_span {
            span_log.note(
                id,
                format!(
                    "ops {}, failed {}, window_s {}, operations without a span {}",
                    rep.ops, rep.failed, rep.window_s, unspanned
                ),
            );
            span_log.close(id);
        }
        rep
    }
}

/// One value of `f` for a run's repetitions, as `pace` says: the best
/// (the least disturbed repetition; see [`Pace::SHORT_BEST`] and the
/// README's measurements) or the median.
pub fn reduce(pace: Pace, reps: &[&Rep], higher_is_better: bool, f: impl Fn(&Rep) -> f64) -> f64 {
    let values = reps.iter().map(|r| f(r));
    match (pace.best, higher_is_better) {
        (false, _) => median(&values.collect::<Vec<_>>()),
        (true, true) => values.fold(0.0, f64::max),
        (true, false) => values.fold(f64::INFINITY, f64::min),
    }
}

/// The median over repetitions of `f`.
pub fn median_of(reps: &[&Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    median(&reps.iter().map(|r| f(r)).collect::<Vec<_>>())
}

/// Median of a per-PE histogram merged over a run's PEs.
fn hist_p50(run: &LiveRunResult, subsystem: &str, name: &str) -> f64 {
    let mut all = LogHistogram::new();
    for (key, h) in &run.metrics.histograms {
        if key.subsystem == subsystem && key.name == name {
            all.merge(h);
        }
    }
    if all.count() == 0 {
        0.0
    } else {
        all.p50() as f64
    }
}
