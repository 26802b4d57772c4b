//! The program harness: build a simulated cluster, invoke the parallel
//! processes, run to completion, and report.
//!
//! This is the paper's *parallel process invocation/termination* module made
//! executable: a launcher process on node 0 sends `InvokeReq` to every
//! node's kernel, the kernels fork the DSE processes, and the launcher's
//! clock from first invocation to last `ExitNotice` is the **execution
//! time** every figure plots.

use std::sync::Arc;

use dse_kernel::kernel::{AppFactory, SimKernel};
use dse_kernel::netpath::{hold_cpu, send_msg};
use dse_kernel::{ClusterShared, DseConfig, SimMsg, TelemetryHook, TelemetrySummary};
use dse_msg::{Message, NodeId, ReqIdGen};
use dse_obs::{BusInterval, ClusterAggregator, MetricKey, MetricsSnapshot, TraceSpanRec};
use dse_platform::{ClusterSpec, Platform, PAPER_MACHINES};
use dse_sim::{ProcCtx, SimDuration, SimReport, Simulator};

use crate::ctx::{DseCtx, SimPort};

/// Everything a completed run reports.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Execution time of the parallel application (launcher-observed).
    pub elapsed: SimDuration,
    /// Number of processors (DSE kernels) used.
    pub nprocs: usize,
    /// Platform id (`"sunos"`, `"aix"`, `"linux"`).
    pub platform_id: &'static str,
    /// Frames the interconnect carried.
    pub net_frames: u64,
    /// Wire bytes the interconnect carried (headers included).
    pub net_wire_bytes: u64,
    /// Collision/backoff rounds on the shared bus (0 for switched fabrics).
    pub net_collisions: u64,
    /// The engine's report (trace hash, resource usage, completions).
    pub report: SimReport,
    /// Observability metrics: named counters, gauges and latency
    /// histograms, the per-PE `kernel/*` counters among them.
    pub metrics: MetricsSnapshot,
    /// Per-PE causal spans in virtual time, recorded when
    /// `DseConfig::tracing` is on (empty otherwise), in the live engine's
    /// `LiveRunResult::trace_spans` shape: `trace_spans[pe]` holds that
    /// PE's application-process spans followed by its kernel's. Feed to the
    /// `dse-trace` assembler.
    pub trace_spans: Vec<Vec<TraceSpanRec>>,
    /// Per-interval shared-bus activity (empty for switched fabrics).
    pub bus_intervals: Vec<BusInterval>,
    /// Telemetry-plane results (`None` unless `DseConfig::telemetry` was
    /// enabled).
    pub telemetry: Option<TelemetrySummary>,
}

impl RunResult {
    /// Execution time in seconds.
    pub fn secs(&self) -> f64 {
        self.elapsed.as_secs_f64()
    }

    /// The metrics as JSON Lines (see DESIGN.md for the schema).
    pub fn metrics_jsonl(&self) -> String {
        self.metrics.to_jsonl()
    }

    /// The metrics as CSV.
    pub fn metrics_csv(&self) -> String {
        self.metrics.to_csv()
    }
}

/// A configured DSE program ready to run workloads.
#[derive(Clone)]
pub struct DseProgram {
    platform: Platform,
    machines: usize,
    machine_platforms: Option<Vec<Platform>>,
    config: DseConfig,
    telemetry_hook: Option<TelemetryHook>,
}

impl std::fmt::Debug for DseProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DseProgram")
            .field("platform", &self.platform)
            .field("machines", &self.machines)
            .field("machine_platforms", &self.machine_platforms)
            .field("config", &self.config)
            .field(
                "telemetry_hook",
                &self.telemetry_hook.as_ref().map(|_| "fn"),
            )
            .finish()
    }
}

impl DseProgram {
    /// A program on the given platform with the paper's 6-machine cluster
    /// and default (paper) configuration.
    pub fn new(platform: Platform) -> DseProgram {
        DseProgram {
            platform,
            machines: PAPER_MACHINES,
            machine_platforms: None,
            config: DseConfig::default(),
            telemetry_hook: None,
        }
    }

    /// A heterogeneous cluster: machine `m` runs `platforms[m]` (the
    /// paper's future-work direction of mixing UNIX platforms). The machine
    /// count equals the platform list length.
    pub fn heterogeneous(platforms: Vec<Platform>) -> DseProgram {
        assert!(!platforms.is_empty());
        DseProgram {
            platform: platforms[0].clone(),
            machines: platforms.len(),
            machine_platforms: Some(platforms),
            config: DseConfig::default(),
            telemetry_hook: None,
        }
    }

    /// Override the runtime configuration.
    pub fn with_config(mut self, config: DseConfig) -> DseProgram {
        self.config = config;
        self
    }

    /// Install a live-view hook, invoked each time a telemetry aggregation
    /// epoch completes (node 0's own loopback delta has been applied) and
    /// once more when the last kernel's shutdown flush has. Only fires when
    /// `DseConfig::telemetry` is enabled. The hook receives the aggregator
    /// and the virtual clock in nanoseconds.
    pub fn with_epoch_hook<F>(mut self, hook: F) -> DseProgram
    where
        F: Fn(&ClusterAggregator, u64) + Send + Sync + 'static,
    {
        self.telemetry_hook = Some(Arc::new(hook));
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &DseConfig {
        &self.config
    }

    /// Run `body` as an SPMD program over `nprocs` parallel processes and
    /// return the measured result. `body` is invoked once per rank with
    /// that rank's [`DseCtx`].
    pub fn run<F>(&self, nprocs: usize, body: F) -> RunResult
    where
        F: Fn(&mut DseCtx<'_>) + Send + Sync + 'static,
    {
        assert!(nprocs > 0, "need at least one processor");
        assert!(nprocs <= u16::MAX as usize, "too many processors");
        // `DseConfig` is the sole builder surface; the program-level count
        // only supplies the constructor defaults (paper cluster /
        // heterogeneous platform list).
        let machines = match self.config.machines {
            Some(m) => {
                assert!(m > 0, "machine count must be positive");
                m
            }
            None => self.machines,
        };
        let mut spec = ClusterSpec::with_machines(self.platform.clone(), machines, nprocs);
        spec.machine_platforms = self.machine_platforms.clone();
        let mut sim: Simulator<SimMsg> = Simulator::new();
        let cpus = (0..spec.machines_used())
            .map(|m| sim.add_resource(&format!("cpu{m}")))
            .collect();
        let mut shared = ClusterShared::new(spec, self.config.clone(), cpus);
        shared.epoch_hook = self.telemetry_hook.clone();
        let shared = Arc::new(shared);

        let body = Arc::new(body);
        let factory: AppFactory = {
            let shared = Arc::clone(&shared);
            Arc::new(move |rank, pid| {
                let shared = Arc::clone(&shared);
                let body = Arc::clone(&body);
                Box::new(move |pctx: &mut ProcCtx<SimMsg>| {
                    let mut dctx = DseCtx::new(SimPort::new(pctx, shared, pid), rank, pid);
                    body(&mut dctx);
                    dctx.finish();
                })
            })
        };

        let kernel_ids = (0..nprocs)
            .map(|n| {
                let kernel =
                    SimKernel::new(NodeId(n as u16), Arc::clone(&shared), Arc::clone(&factory));
                sim.spawn_component(&format!("kernel{n}"), kernel)
            })
            .collect();
        shared.set_kernels(kernel_ids);

        let launcher_shared = Arc::clone(&shared);
        let launcher = sim.spawn("launcher", move |lctx| {
            launcher_main(lctx, launcher_shared, nprocs)
        });
        shared.set_launcher(launcher);

        let report = sim.run();
        let elapsed = shared
            .elapsed
            .lock()
            .expect("launcher did not complete — parallel program hung");
        let (net_frames, net_wire_bytes, net_collisions, bus_intervals) = {
            let net = shared.network.lock();
            (
                net.total_frames(),
                net.total_wire_bytes(),
                net.total_collisions(),
                net.bus_intervals(),
            )
        };
        let mut metrics = shared.metrics.snapshot();
        // The event-loop total lives host-side in the simulator, outside any
        // PE's delta tracker, so it is absorbed into both the direct snapshot
        // and the telemetry rollup — keeping the two byte-identical.
        let engine_counters = [(
            MetricKey::global("sim", "events_processed"),
            report.stats.events,
        )];
        metrics.absorb_counters(engine_counters.iter().cloned());
        let telemetry = shared.config.telemetry.as_ref().map(|_| {
            let mut summary = TelemetrySummary::of(&shared.aggregator);
            summary
                .rollup
                .absorb_counters(engine_counters.iter().cloned());
            summary
        });
        RunResult {
            elapsed,
            nprocs,
            platform_id: shared.spec.platform.id,
            net_frames,
            net_wire_bytes,
            net_collisions,
            report,
            metrics,
            trace_spans: shared.trace_sink.take_streams(nprocs),
            bus_intervals,
            telemetry,
        }
    }
}

/// The launcher: invoke every rank, await acknowledgements and exits,
/// record the execution time, then shut the kernels down.
fn launcher_main(ctx: &mut ProcCtx<SimMsg>, shared: Arc<ClusterShared>, nprocs: usize) {
    let node0 = NodeId(0);
    let start = ctx.now();
    let mut reqs = ReqIdGen::new();
    for rank in 0..nprocs {
        let req = reqs.next();
        let msg = Message::InvokeReq {
            req,
            rank: rank as u32,
            args: Vec::new(),
        };
        let target = NodeId(rank as u16);
        let kproc = shared.kernel_of(target);
        let me = ctx.id();
        send_msg(ctx, &shared, node0, target, kproc, me, &msg, None);
    }
    let mut acks = 0;
    let mut exits = 0;
    while acks < nprocs || exits < nprocs {
        let env = match ctx.recv() {
            Some(e) => e,
            None => panic!(
                "simulation ended before all ranks finished: acks={acks} exits={exits} of {nprocs}"
            ),
        };
        let sm = env.msg;
        hold_cpu(
            ctx,
            &shared,
            node0,
            shared.cost(node0).msg_recv(sm.bytes.len()),
        );
        match Message::decode(&sm.bytes).expect("launcher got undecodable message") {
            Message::InvokeAck { .. } => acks += 1,
            Message::ExitNotice { status, pid } => {
                assert_eq!(status, 0, "rank {pid} exited with failure");
                exits += 1;
            }
            other => panic!("launcher got unexpected message {other:?}"),
        }
    }
    *shared.elapsed.lock() = Some(ctx.now() - start);
    // Post-measurement housekeeping: stop the kernels.
    let shutdown = Message::KernelShutdown.encode();
    for n in 0..nprocs {
        let k = shared.kernel_of(NodeId(n as u16));
        ctx.send(
            k,
            dse_sim::SimDuration::from_nanos(1),
            SimMsg {
                from_node: node0,
                reply_to: ctx.id(),
                bytes: shutdown.clone(),
                ctx: None,
            },
        );
    }
}
