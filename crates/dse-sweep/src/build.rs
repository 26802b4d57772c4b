//! The one front door from a [`RunSpec`] to a run, for `dse-run` and
//! `dse-sweep` alike.
//!
//! A sweep cell and a `dse-run` invocation are the same thing — one
//! expanded `RunSpec` — and [`launch`] is the only code that turns one
//! into an engine configuration and runs the application on it. The
//! value checks the spec parser applies, the app dispatch, the [`Answer`]
//! and the output-path probe live here too, so a new axis value lands on
//! the CLI and in the sweep at the same time.

use std::time::Duration;

use dse_api::{DseProgram, ParallelApi, RunResult};
use dse_apps::{
    dct, gauss_seidel, gauss_seidel_mp, knights, matmul, othello, run_captured, table_scan, Capture,
};
use dse_kernel::{DseConfig, GmMode, NetworkChoice, Organization, SchedulerKind, TelemetryConfig};
use dse_live::{
    FaultPlan, LiveCtx, LiveRunConfig, LiveRunResult, LiveRunner, RunError, TransportKind,
};
use dse_net::Protocol;
use dse_obs::{ClusterAggregator, TraceSpanRec};
use dse_platform::Platform;
use dse_sim::SimDuration;

use crate::spec::RunSpec;

/// The runnable applications, by CLI/spec name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppKind {
    Gauss,
    GaussMp,
    Dct,
    Othello,
    Matmul,
    Knights,
    Scan,
}

impl AppKind {
    /// Every app with its CLI/spec name, in canonical (usage-string) order.
    const NAMES: &'static [(AppKind, &'static str)] = &[
        (AppKind::Gauss, "gauss"),
        (AppKind::GaussMp, "gauss-mp"),
        (AppKind::Dct, "dct"),
        (AppKind::Othello, "othello"),
        (AppKind::Matmul, "matmul"),
        (AppKind::Knights, "knights"),
        (AppKind::Scan, "scan"),
    ];

    /// Parse a CLI/spec app name.
    pub fn parse(name: &str) -> Result<AppKind, String> {
        let known = AppKind::NAMES.iter().find(|(_, n)| *n == name);
        known.map(|(app, _)| *app).ok_or_else(|| {
            let names: Vec<&str> = AppKind::NAMES.iter().map(|(_, n)| *n).collect();
            format!(
                "unknown app '{name}' (expected one of {})",
                names.join(", ")
            )
        })
    }

    /// Whether the app runs on the live engine. `gauss-mp` is the explicit
    /// message-passing variant built on the simulator's user-message
    /// mailboxes and is sim-only.
    pub fn live_ok(&self) -> bool {
        !matches!(self, AppKind::GaussMp)
    }

    /// The size parameter the app reads (`n`, `block`, `depth` or `jobs`;
    /// `scan` has none). A spec multiplies a parameter axis only for the
    /// apps that read it.
    pub fn size_axis(&self) -> Option<&'static str> {
        match self {
            AppKind::Gauss | AppKind::GaussMp | AppKind::Matmul => Some("n"),
            AppKind::Dct => Some("block"),
            AppKind::Othello => Some("depth"),
            AppKind::Knights => Some("jobs"),
            AppKind::Scan => None,
        }
    }

    /// The engine-independent SPMD body of every app but `gauss-mp`
    /// (which [`launch`] dispatches itself): rank 0 returns the answer.
    fn body<A: ParallelApi>(&self, ctx: &mut A, p: &AppParams) -> Option<Answer> {
        match self {
            AppKind::Gauss | AppKind::GaussMp => {
                gauss_seidel::body(ctx, &p.gauss()).map(Answer::Gauss)
            }
            AppKind::Dct => dct::body(ctx, &p.dct()).map(Answer::Dct),
            AppKind::Othello => othello::body(ctx, &p.othello()).map(Answer::Othello),
            AppKind::Matmul => matmul::body(ctx, &p.matmul()).map(Answer::Matmul),
            AppKind::Knights => knights::body(ctx, &p.knights()).map(Answer::Knights),
            AppKind::Scan => table_scan::body(ctx).map(Answer::Scan),
        }
    }

    /// The sequential reference answer, for the apps whose parallel answer
    /// must equal it bit for bit. Gauss-Seidel's iterate depends on the
    /// partition, so it has none: its test is [`Answer::self_check`].
    pub fn reference(&self, p: &AppParams) -> Option<Answer> {
        match self {
            AppKind::Gauss | AppKind::GaussMp => None,
            AppKind::Dct => Some(Answer::Dct(dct::compress_sequential(&p.dct()))),
            AppKind::Othello => {
                let (mv, score, _) = othello::search_sequential(&p.othello());
                Some(Answer::Othello((mv, score)))
            }
            AppKind::Matmul => Some(Answer::Matmul(matmul::multiply_sequential(&p.matmul()))),
            AppKind::Knights => Some(Answer::Knights(
                knights::count_sequential(p.knights().board).0,
            )),
            AppKind::Scan => Some(Answer::Scan(table_scan::scan_sequential())),
        }
    }
}

/// Rank 0's answer, whichever app produced it.
#[derive(Debug, Clone)]
pub enum Answer {
    /// Gauss-Seidel (either variant): the solution vector.
    Gauss(gauss_seidel::Solution),
    /// DCT-II: the kept coefficients.
    Dct(dct::Compressed),
    /// Othello: best move and its score.
    Othello((u8, i32)),
    /// Matmul: the product matrix.
    Matmul(Vec<f64>),
    /// Knight's Tour: the tour count.
    Knights(u64),
    /// Table scan: the checksum.
    Scan(u64),
}

impl Answer {
    /// 16 hex digits over the answer's bits (FNV-1a): equal on both
    /// engines and on every PE count where the reference is sequential.
    pub fn digest(&self) -> String {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for b in bytes {
                h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        match self {
            Answer::Gauss(sol) => sol.x.iter().for_each(|v| eat(&v.to_bits().to_le_bytes())),
            Answer::Dct(out) => out.coeffs.iter().for_each(|c| eat(&c.to_le_bytes())),
            Answer::Othello((mv, score)) => {
                eat(&[*mv]);
                eat(&score.to_le_bytes());
            }
            Answer::Matmul(c) => c.iter().for_each(|v| eat(&v.to_bits().to_le_bytes())),
            Answer::Knights(n) | Answer::Scan(n) => eat(&n.to_le_bytes()),
        }
        format!("{h:016x}")
    }

    /// The acceptance test an answer carries in itself: a Gauss-Seidel
    /// solve must have converged.
    pub fn self_check(&self, p: &AppParams) -> Result<(), String> {
        match self {
            Answer::Gauss(sol) if sol.delta > p.gauss().eps => Err(format!(
                "solver did not converge: delta {:e} > eps {:e} after {} sweeps",
                sol.delta,
                p.gauss().eps,
                sol.iters
            )),
            _ => Ok(()),
        }
    }
}

/// What one launched run produced: the engine's own result and rank 0's
/// answer, or the live engine's structured abort. It lives here, not in
/// the engine crates, so `RunResult` and `LiveRunResult` keep the form
/// their direct callers (and the frozen `benchmark/`) compile against.
#[derive(Debug)]
pub enum Outcome {
    /// A completed simulated run.
    Sim(Box<RunResult>, Answer),
    /// A completed live run.
    Live(Box<LiveRunResult>, Answer),
    /// An aborted live run: the per-PE failure report and the
    /// flight-recorder post-mortem.
    Abort(Box<RunError>),
}

impl Outcome {
    /// The run's per-PE causal spans (empty when untraced or aborted).
    pub fn trace_spans(&self) -> &[Vec<TraceSpanRec>] {
        match self {
            Outcome::Sim(run, _) => &run.trace_spans,
            Outcome::Live(run, _) => &run.trace_spans,
            Outcome::Abort(_) => &[],
        }
    }
}

/// A watched run's telemetry interval in milliseconds and the hook each
/// aggregation epoch calls (the same hook on both engines).
pub type Watch = (u64, fn(&ClusterAggregator, u64));

/// Run one expanded cell on its engine: the one path from a [`RunSpec`]
/// to a run, for the sweep's rows, `dse-run --scenario` and `dse-run
/// <app>` alike. `tracing` records the causal spans; `watch` turns on the
/// telemetry plane. An error is a spec the parser did not validate.
pub fn launch(spec: &RunSpec, tracing: bool, watch: Option<Watch>) -> Result<Outcome, String> {
    let app = AppKind::parse(&spec.app)?;
    let p = spec.params;
    if spec.engine == "live" {
        if !app.live_ok() {
            return Err(format!(
                "app '{}' does not run on the live engine",
                spec.app
            ));
        }
        let mut runner = LiveRunner::new(spec.procs).config(live_config(spec, tracing)?);
        if let Some((ms, hook)) = &watch {
            runner = runner.watch(Duration::from_millis(*ms), hook);
        }
        let capture = Capture::new();
        let run = runner.try_run(|ctx: &mut LiveCtx| {
            if let Some(answer) = app.body(ctx, &p) {
                capture.set(answer);
            }
        });
        return Ok(match run {
            Ok(run) => Outcome::Live(Box::new(run), capture.take()),
            Err(err) => Outcome::Abort(Box::new(err)),
        });
    }
    let mut program = sim_program(spec, tracing, watch.map(|(ms, _)| ms))?;
    if let Some((_, hook)) = watch {
        program = program.with_epoch_hook(hook);
    }
    let (run, answer) = run_captured(&program, spec.procs, move |ctx| match app {
        AppKind::GaussMp => gauss_seidel_mp::body_mp(ctx, &p.gauss()).map(Answer::Gauss),
        _ => app.body(ctx, &p),
    });
    Ok(Outcome::Sim(Box::new(run), answer))
}

/// The simulated cluster a cell names, configured: `telemetry_ms` is the
/// telemetry plane's interval when the run is watched.
fn sim_program(
    spec: &RunSpec,
    tracing: bool,
    telemetry_ms: Option<u64>,
) -> Result<DseProgram, String> {
    let (platforms, machines) = cluster(spec)?;
    let mut config = DseConfig::paper()
        .with_gm_cache(spec.cache)
        .with_gm_mode(check_gm_mode(&spec.gm_mode)?)
        .with_network(check_network(&spec.network)?)
        .with_seed(spec.seed)
        .with_tracing(tracing)
        .with_machines(machines);
    config.organization = check_organization(&spec.organization)?;
    config.protocol = check_protocol(&spec.protocol)?;
    if spec.gm_window != 0 {
        config = config.with_gm_window(spec.gm_window);
    }
    if let Some(ms) = telemetry_ms {
        let interval = SimDuration::from_millis(ms);
        config = config.with_telemetry(TelemetryConfig::default().with_interval(interval));
    }
    let program = if let [one] = platforms.as_slice() {
        DseProgram::new(one.clone())
    } else {
        DseProgram::heterogeneous(platforms)
    };
    Ok(program.with_config(config))
}

/// The live engine's configuration for a cell: its wire, kernel pool,
/// cache, coherence mode and fault plan.
fn live_config(spec: &RunSpec, tracing: bool) -> Result<LiveRunConfig, String> {
    Ok(LiveRunConfig {
        kind: transport_kind(&spec.transport)?,
        fault_plan: fault_plan(spec)?,
        tracing,
        gm_cache: spec.cache,
        gm_mode: check_gm_mode(&spec.gm_mode)?,
        scheduler: check_scheduler(&spec.scheduler)?,
        ..LiveRunConfig::default()
    })
}

/// A live run's fault plan. A plan without `seed=` takes the run seed —
/// that is how repetitions of one cell vary a faulty mesh.
fn fault_plan(spec: &RunSpec) -> Result<Option<FaultPlan>, String> {
    let plan = match spec.fault_plan.as_str() {
        "" => return Ok(None),
        plan if plan.split(',').any(|t| t.trim_start().starts_with("seed=")) => plan.to_string(),
        plan => format!("seed={},{plan}", spec.seed),
    };
    FaultPlan::parse(&plan)
        .map(Some)
        .map_err(|e| format!("fault plan: {e}"))
}

/// A simulated run's machines: the platform of each, and how many there
/// are (a per-machine platform list is its own count).
pub fn cluster(spec: &RunSpec) -> Result<(Vec<Platform>, usize), String> {
    let platforms = platforms(&spec.platform)?;
    let machines = match platforms.len() {
        1 => spec.machines,
        n => n,
    };
    Ok((platforms, machines))
}

/// Application parameters shared by both binaries. Fields that an app
/// does not use are ignored by its dispatch (an expanded run holds 0
/// there).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AppParams {
    /// Gauss-Seidel system dimension / matmul matrix dimension.
    pub n: usize,
    /// DCT block size.
    pub block: usize,
    /// DCT image size override (`0` keeps the paper's 512).
    pub size: usize,
    /// Othello search depth.
    pub depth: u32,
    /// Knight's-Tour job count.
    pub jobs: usize,
}

impl Default for AppParams {
    fn default() -> AppParams {
        AppParams {
            n: 400,
            block: 8,
            size: 0,
            depth: 5,
            jobs: 16,
        }
    }
}

impl AppParams {
    fn gauss(&self) -> gauss_seidel::GaussSeidelParams {
        gauss_seidel::GaussSeidelParams::paper(self.n)
    }

    fn dct(&self) -> dct::DctParams {
        let mut params = dct::DctParams::paper(self.block);
        if self.size != 0 {
            params.size = self.size;
        }
        params
    }

    fn othello(&self) -> othello::OthelloParams {
        othello::OthelloParams::paper(self.depth)
    }

    fn matmul(&self) -> matmul::MatmulParams {
        matmul::MatmulParams::single(self.n.min(256))
    }

    fn knights(&self) -> knights::KnightsParams {
        knights::KnightsParams::paper(self.jobs)
    }
}

/// Validate an organization name.
pub fn check_organization(name: &str) -> Result<Organization, String> {
    match name {
        "linked" => Ok(Organization::LinkedLibrary),
        "legacy" => Ok(Organization::SeparateProcess),
        other => Err(format!("organization '{other}' is not linked or legacy")),
    }
}

/// Validate a protocol-stack name.
pub fn check_protocol(name: &str) -> Result<Protocol, String> {
    match name {
        "tcp" => Ok(Protocol::TcpIp),
        "udp" => Ok(Protocol::Udp),
        "raw" => Ok(Protocol::RawEthernet),
        other => Err(format!("protocol '{other}' is not tcp, udp or raw")),
    }
}

/// Validate a GM coherence-mode name.
pub fn check_gm_mode(name: &str) -> Result<GmMode, String> {
    match name {
        "wi" => Ok(GmMode::WriteInvalidate),
        "rc" => Ok(GmMode::ReleaseConsistency),
        other => Err(format!("gm_mode '{other}' is not wi or rc")),
    }
}

/// Validate a kernel-scheduler name (`threads` | `tasks`, live engine).
pub fn check_scheduler(name: &str) -> Result<SchedulerKind, String> {
    SchedulerKind::parse(name).ok_or_else(|| format!("scheduler '{name}' is not threads or tasks"))
}

/// Validate an interconnect name: the paper's 10 Mb/s shared-bus
/// Ethernet, or a switched 100 Mb/s fabric with 5 µs port latency.
pub fn check_network(name: &str) -> Result<NetworkChoice, String> {
    match name {
        "bus10" => Ok(NetworkChoice::SharedBus(10_000_000.0)),
        "switched100" => Ok(NetworkChoice::Switched(
            100_000_000.0,
            SimDuration::from_micros(5),
        )),
        other => Err(format!("network '{other}' is not bus10 or switched100")),
    }
}

/// Resolve a platform value: one preset id, or a `+`-joined list naming
/// the preset of each machine of a heterogeneous cluster
/// (`sunos+linux+sunos+linux` is four machines).
pub fn platforms(value: &str) -> Result<Vec<Platform>, String> {
    let by_id = |id: &str| Platform::by_id(id).ok_or_else(|| format!("unknown platform '{id}'"));
    value.split('+').map(by_id).collect()
}

/// Map a transport name to its kind, enforcing host support.
pub fn transport_kind(name: &str) -> Result<TransportKind, String> {
    match name {
        "channel" => Ok(TransportKind::Channel),
        "tcp" => Ok(TransportKind::Tcp),
        "uds" => {
            if cfg!(unix) {
                Ok(TransportKind::Uds)
            } else {
                Err("transport uds: Unix domain sockets need a Unix platform".into())
            }
        }
        other => Err(format!("transport '{other}' is not channel, tcp or uds")),
    }
}

/// Probe every requested output path for writability *before* the run, so
/// a typo'd directory fails in milliseconds instead of after minutes of
/// compute. The probe opens in append mode: an existing file is left
/// intact until the real (truncating) write at the end of the run.
pub fn validate_out_paths<'a>(
    outs: impl IntoIterator<Item = (&'a str, &'a str)>,
) -> Result<(), String> {
    for (path, what) in outs {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot write {what} to {path}: {e}"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_names_roundtrip() {
        for (app, name) in AppKind::NAMES {
            assert_eq!(AppKind::parse(name), Ok(*app));
        }
        assert!(AppKind::parse("warp").is_err());
        assert!(!AppKind::GaussMp.live_ok());
        assert!(AppKind::Gauss.live_ok());
    }

    fn cell(src: &str) -> RunSpec {
        crate::spec::expand(&crate::spec::parse_spec(src).unwrap()).remove(0)
    }

    #[test]
    fn launch_runs_one_cell_on_either_engine() {
        let sim = cell(
            "[[scenario]]\napp = \"matmul\"\nplatform = \"linux\"\norganization = \"legacy\"\n\
             protocol = \"udp\"\nnetwork = \"switched100\"\ncache = true\ngm_mode = \"rc\"\n\
             machines = 4\ngm_window = 8\nprocs = 2\nn = 16\n",
        );
        let want = AppKind::Matmul.reference(&sim.params).map(|a| a.digest());
        fn quiet(_: &ClusterAggregator, _: u64) {}
        match launch(&sim, true, Some((1, quiet))) {
            Ok(Outcome::Sim(run, answer)) => {
                assert_eq!(run.platform_id, "linux");
                assert_eq!(run.net_collisions, 0, "a switched fabric never collides");
                let kernel = |name| run.metrics.counter_sum_over_pes("kernel", name);
                assert!(kernel("cache_hits") + kernel("cache_misses") > 0);
                assert!(run.telemetry.is_some() && !run.trace_spans.is_empty());
                assert_eq!(Some(answer.digest()), want);
            }
            other => panic!("{other:?}"),
        }
        let live = cell(
            "[[scenario]]\napp = \"matmul\"\nengine = \"live\"\ntransport = \"tcp\"\n\
             scheduler = \"tasks\"\ncache = true\ngm_mode = \"rc\"\nprocs = 2\nn = 16\n",
        );
        match launch(&live, false, None) {
            Ok(Outcome::Live(run, answer)) => {
                assert_eq!(run.transport, TransportKind::Tcp);
                let kernel = |name| run.metrics.counter_sum_over_pes("kernel", name);
                assert!(kernel("dir_leases") > 0, "the directory served replicas");
                assert!(kernel("rc_acquires") > 0, "release consistency acquired");
                assert!(run.trace_spans.iter().all(Vec::is_empty), "untraced");
                assert_eq!(Some(answer.digest()), want);
            }
            other => panic!("{other:?}"),
        }
        // A per-machine platform list is its own machine count.
        let mixed = cell("[[scenario]]\nplatform = \"sunos+linux+sunos\"\n");
        assert_eq!(cluster(&mixed).map(|(_, machines)| machines), Ok(3));
        assert_eq!(cluster(&cell("[[scenario]]\nmachines = 4\n")).unwrap().1, 4);
        // A hand-built spec the parser never saw is an error, not a panic.
        let bad = RunSpec {
            app: "warp".into(),
            ..sim
        };
        assert!(launch(&bad, false, None).unwrap_err().contains("warp"));
        assert!(transport_kind("pigeon").is_err());
    }

    #[test]
    fn every_axis_reaches_the_engine_config() -> Result<(), String> {
        let sim = cell(
            "[[scenario]]\nplatform = \"linux\"\norganization = \"legacy\"\nprotocol = \"udp\"\n\
             network = \"switched100\"\ncache = true\ngm_mode = \"rc\"\nmachines = 4\n\
             gm_window = 8\nseeds = 42\n",
        );
        let program = sim_program(&sim, true, Some(10))?;
        let config = program.config();
        assert_eq!(config.organization, Organization::SeparateProcess);
        assert_eq!(config.protocol, Protocol::Udp);
        assert!(matches!(config.network, NetworkChoice::Switched(bps, _) if bps == 100e6));
        assert!(config.gm_cache && config.tracing);
        assert_eq!(config.gm_mode, GmMode::ReleaseConsistency);
        assert_eq!(config.machines, Some(4));
        assert_eq!(config.seed, 42);
        assert_eq!(config.gm_window, 8);
        let interval = config.telemetry.as_ref().map(|t| t.interval);
        assert_eq!(interval, Some(SimDuration::from_millis(10)));
        let live = cell(
            "[[scenario]]\nengine = \"live\"\ntransport = \"tcp\"\nscheduler = \"tasks\"\n\
             cache = true\ngm_mode = \"rc\"\nfault_plan = \"drop=10\"\nseeds = 7\n",
        );
        let cfg = live_config(&live, true)?;
        assert_eq!(cfg.kind, TransportKind::Tcp);
        assert_eq!(cfg.scheduler, SchedulerKind::Tasks);
        assert!(cfg.gm_cache && cfg.tracing);
        assert_eq!(cfg.gm_mode, GmMode::ReleaseConsistency);
        assert_eq!(cfg.fault_plan, FaultPlan::parse("seed=7,drop=10").ok());
        // The defaults: channel, one kernel worker per PE, no cache, no faults.
        let cfg = live_config(&cell("[[scenario]]\nengine = \"live\"\n"), false)?;
        let wire = (TransportKind::Channel, SchedulerKind::Threads);
        assert_eq!((cfg.kind, cfg.scheduler), wire);
        assert!(!cfg.gm_cache && cfg.fault_plan.is_none());
        Ok(())
    }

    #[test]
    fn answers_digest_and_check_themselves() {
        let p = AppParams::default();
        let scan = AppKind::Scan.reference(&p).map(|a| a.digest());
        assert_eq!(scan.as_ref().map(String::len), Some(16));
        assert_ne!(scan, Some(Answer::Scan(0).digest()));
        assert!(AppKind::Gauss.reference(&p).is_none());
        let solved = |delta| {
            Answer::Gauss(gauss_seidel::Solution {
                x: vec![1.0],
                iters: 3,
                delta,
            })
        };
        assert!(solved(0.0).self_check(&p).is_ok());
        let err = solved(1.0).self_check(&p).unwrap_err();
        assert!(err.contains("did not converge"), "{err}");
        for (app, _) in AppKind::NAMES {
            let axis = app.size_axis();
            assert_eq!(axis.is_none(), *app == AppKind::Scan, "{app:?}");
        }
    }

    #[test]
    fn gm_mode_names_validate() {
        assert_eq!(check_gm_mode("wi").unwrap(), GmMode::WriteInvalidate);
        assert_eq!(check_gm_mode("rc").unwrap(), GmMode::ReleaseConsistency);
        assert!(check_gm_mode("mesi").is_err());
    }

    #[test]
    fn live_seed_injected_only_when_plan_has_none() {
        let plan = |typed: &str| {
            fault_plan(&RunSpec {
                fault_plan: typed.into(),
                seed: 7,
                ..RunSpec::default()
            })
        };
        let parsed = |s| FaultPlan::parse(s).map(Some);
        assert_eq!(plan("drop=10"), parsed("seed=7,drop=10"));
        assert_eq!(plan("seed=3,drop=10"), parsed("seed=3,drop=10"));
        assert_eq!(plan(""), Ok(None));
        assert!(plan("frob=1").unwrap_err().starts_with("fault plan:"));
    }

    #[test]
    fn scheduler_names_validate() {
        assert_eq!(check_scheduler("threads").unwrap(), SchedulerKind::Threads);
        assert_eq!(check_scheduler("tasks").unwrap(), SchedulerKind::Tasks);
        assert!(check_scheduler("fibers").is_err());
    }

    #[test]
    fn out_path_probe_is_non_clobbering() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("target")
            .join("sweep-validate-test");
        std::fs::create_dir_all(&dir).unwrap();
        let keep = dir.join("keep.csv");
        std::fs::write(&keep, "old").unwrap();
        let keep_s = keep.to_string_lossy().into_owned();
        validate_out_paths([(keep_s.as_str(), "metrics (CSV)")]).unwrap();
        assert_eq!(std::fs::read_to_string(&keep).unwrap(), "old");
        let missing = dir.join("no-such-dir").join("f.jsonl");
        let missing_s = missing.to_string_lossy().into_owned();
        let err = validate_out_paths([(missing_s.as_str(), "flight recorder")]).unwrap_err();
        assert!(err.contains("cannot write flight recorder"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
