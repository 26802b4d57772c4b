//! Shared run-construction logic for `dse-run` and `dse-sweep`.
//!
//! Both binaries turn the same user-facing vocabulary (app, engine,
//! transport, platform, organization, protocol, GM options) into engine
//! configurations, and both probe output paths before spending minutes of
//! compute. Keeping the mapping here means a new axis value lands in the
//! CLI and the sweep harness at the same time — they cannot drift.

use dse_api::{DseProgram, ParallelApi, RunResult};
use dse_apps::{
    dct, gauss_seidel, gauss_seidel_mp, knights, matmul, othello, run_captured, table_scan, Capture,
};
use dse_kernel::{DseConfig, GmMode, NetworkChoice, Organization, SchedulerKind, TelemetryConfig};
use dse_live::{
    FaultPlan, LiveCtx, LiveRunConfig, LiveRunResult, LiveRunner, RunError, TransportKind,
};
use dse_net::Protocol;
use dse_platform::Platform;
use dse_sim::SimDuration;

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
    /// (which [`run_sim`] dispatches itself): rank 0 returns the answer.
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

/// Run `app` on the simulator; returns the measured run and rank 0's
/// answer.
pub fn run_sim(
    program: &DseProgram,
    app: AppKind,
    p: AppParams,
    procs: usize,
) -> (RunResult, Answer) {
    run_captured(program, procs, move |ctx| match app {
        AppKind::GaussMp => gauss_seidel_mp::body_mp(ctx, &p.gauss()).map(Answer::Gauss),
        _ => app.body(ctx, &p),
    })
}

/// Run `app` on the live engine; an aborted run is the structured error.
pub fn run_live(
    runner: LiveRunner<'_>,
    app: AppKind,
    p: AppParams,
) -> Result<(LiveRunResult, Answer), RunError> {
    let capture: Capture<Answer> = Capture::new();
    let run = runner.try_run(|ctx: &mut LiveCtx| {
        if let Some(answer) = app.body(ctx, &p) {
            capture.set(answer);
        }
    })?;
    Ok((run, capture.take()))
}

/// Application parameters shared by both binaries. Fields that an app
/// does not use are simply ignored by its dispatch.
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

/// Everything needed to build a simulated-run configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimSettings {
    /// Platform preset id (`sunos` | `aix` | `linux`), or a per-machine
    /// list of them (see [`platforms`]).
    pub platform: String,
    /// Software organization name.
    pub organization: String,
    /// Protocol-stack name.
    pub protocol: String,
    /// Interconnect name (`bus10` | `switched100`).
    pub network: String,
    /// Enable the GM cache.
    pub cache: bool,
    /// GM coherence mode (`wi` | `rc`), meaningful with the cache on.
    pub gm_mode: String,
    /// Physical machine count (a per-machine platform list brings its
    /// own).
    pub machines: usize,
    /// Record the execution trace.
    pub tracing: bool,
    /// Enable the in-band telemetry plane at this emission interval (ms).
    pub telemetry_ms: Option<u64>,
    /// Deterministic seed override.
    pub seed: Option<u64>,
    /// GM pipeline window (`0` keeps the engine default).
    pub gm_window: usize,
}

impl Default for SimSettings {
    fn default() -> SimSettings {
        SimSettings {
            platform: "sunos".into(),
            organization: "linked".into(),
            protocol: "tcp".into(),
            network: "bus10".into(),
            cache: false,
            gm_mode: "wi".into(),
            machines: 6,
            tracing: false,
            telemetry_ms: None,
            seed: None,
            gm_window: 0,
        }
    }
}

/// Build the configured program for a simulated run; also returns the
/// platform of machine 0 (the only one, unless `platform` is a list).
pub fn build_sim(settings: &SimSettings) -> Result<(Platform, DseProgram), String> {
    let platforms = platforms(&settings.platform)?;
    let mut config = DseConfig::paper()
        .with_gm_cache(settings.cache)
        .with_gm_mode(check_gm_mode(&settings.gm_mode)?)
        .with_network(check_network(&settings.network)?);
    config.organization = check_organization(&settings.organization)?;
    config.protocol = check_protocol(&settings.protocol)?;
    if let Some(interval_ms) = settings.telemetry_ms {
        let interval = SimDuration::from_millis(interval_ms);
        config = config.with_telemetry(TelemetryConfig::default().with_interval(interval));
    }
    if let Some(seed) = settings.seed {
        config = config.with_seed(seed);
    }
    if settings.gm_window != 0 {
        config = config.with_gm_window(settings.gm_window);
    }
    config = config.with_tracing(settings.tracing);
    let first = platforms[0].clone();
    let program = if platforms.len() == 1 {
        DseProgram::new(first.clone()).with_config(config.with_machines(settings.machines))
    } else {
        let machines = platforms.len();
        DseProgram::heterogeneous(platforms).with_config(config.with_machines(machines))
    };
    Ok((first, program))
}

/// Build the [`LiveRunConfig`] for a live run. When `seed` is given and
/// the fault plan does not pin its own seed, the run seed becomes the
/// plan seed — that is how sweep repetitions vary a faulty mesh.
pub fn build_live(
    transport: &str,
    fault_plan: Option<&str>,
    seed: Option<u64>,
    cache: bool,
    gm_mode: &str,
    scheduler: &str,
) -> Result<LiveRunConfig, String> {
    let kind = transport_kind(transport)?;
    let gm_mode = check_gm_mode(gm_mode)?;
    let scheduler = check_scheduler(scheduler)?;
    let fault_plan = match fault_plan.filter(|s| !s.is_empty()) {
        None => None,
        Some(spec) => {
            let effective = match seed {
                Some(seed) if !spec.split(',').any(|t| t.trim_start().starts_with("seed=")) => {
                    format!("seed={seed},{spec}")
                }
                _ => spec.to_string(),
            };
            Some(FaultPlan::parse(&effective).map_err(|e| format!("fault plan: {e}"))?)
        }
    };
    Ok(LiveRunConfig {
        kind,
        fault_plan,
        gm_cache: cache,
        gm_mode,
        scheduler,
        ..LiveRunConfig::default()
    })
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

    #[test]
    fn sim_settings_build_a_config() {
        let (platform, program) = build_sim(&SimSettings {
            platform: "linux".into(),
            organization: "legacy".into(),
            protocol: "udp".into(),
            network: "switched100".into(),
            cache: true,
            gm_mode: "rc".into(),
            machines: 4,
            tracing: true,
            telemetry_ms: Some(10),
            seed: Some(42),
            gm_window: 8,
        })
        .unwrap();
        let config = program.config();
        assert_eq!(platform.id, "linux");
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
        // A per-machine platform list is its own machine count.
        let mixed = SimSettings {
            platform: "sunos+linux+sunos".into(),
            ..SimSettings::default()
        };
        let machines = build_sim(&mixed).map(|(_, program)| program.config().machines);
        assert_eq!(machines, Ok(Some(3)));
    }

    #[test]
    fn bad_settings_rejected() {
        let s = SimSettings {
            platform: "amiga".into(),
            ..SimSettings::default()
        };
        assert!(build_sim(&s).unwrap_err().contains("unknown platform"));
        let s = SimSettings {
            organization: "flat".into(),
            ..SimSettings::default()
        };
        assert!(build_sim(&s).unwrap_err().contains("not linked or legacy"));
        let s = SimSettings {
            protocol: "ipx".into(),
            ..SimSettings::default()
        };
        assert!(build_sim(&s).unwrap_err().contains("not tcp, udp or raw"));
        let s = SimSettings {
            gm_mode: "mesi".into(),
            ..SimSettings::default()
        };
        assert!(build_sim(&s).unwrap_err().contains("not wi or rc"));
        let s = SimSettings {
            network: "token-ring".into(),
            ..SimSettings::default()
        };
        assert!(build_sim(&s)
            .unwrap_err()
            .contains("not bus10 or switched100"));
        assert!(transport_kind("pigeon").is_err());
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
        let cfg = build_live("channel", Some("drop=10"), Some(7), false, "wi", "threads").unwrap();
        let with_seed = FaultPlan::parse("seed=7,drop=10").unwrap();
        assert_eq!(cfg.fault_plan, Some(with_seed));
        let cfg = build_live(
            "channel",
            Some("seed=3,drop=10"),
            Some(7),
            false,
            "wi",
            "threads",
        )
        .unwrap();
        assert_eq!(
            cfg.fault_plan,
            Some(FaultPlan::parse("seed=3,drop=10").unwrap())
        );
        let cfg = build_live("channel", None, Some(7), false, "wi", "threads").unwrap();
        assert!(cfg.fault_plan.is_none());
        let cfg = build_live("tcp", Some(""), None, true, "rc", "threads").unwrap();
        assert!(cfg.fault_plan.is_none());
        assert_eq!(cfg.kind, TransportKind::Tcp);
        assert!(cfg.gm_cache);
        assert_eq!(cfg.gm_mode, GmMode::ReleaseConsistency);
        assert!(build_live("tcp", None, None, true, "moesi", "threads").is_err());
    }

    #[test]
    fn scheduler_names_validate_and_build() {
        assert_eq!(check_scheduler("threads").unwrap(), SchedulerKind::Threads);
        assert_eq!(check_scheduler("tasks").unwrap(), SchedulerKind::Tasks);
        assert!(check_scheduler("fibers").is_err());
        let cfg = build_live("channel", None, None, false, "wi", "tasks").unwrap();
        assert_eq!(cfg.scheduler, SchedulerKind::Tasks);
        assert!(build_live("channel", None, None, false, "wi", "fibers").is_err());
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
