//! `dse-run` — command-line front end to the DSE reproduction.
//!
//! Run any of the paper's workloads on any simulated platform and
//! configuration, and optionally print where the time went — the causal
//! blame table and critical path, in virtual time (`--critical-path`):
//!
//! ```sh
//! dse-run gauss   --platform sunos --procs 4 --n 600 --critical-path
//! dse-run dct     --platform linux --procs 8 --block 16 --critical-path
//! dse-run othello --platform aix   --procs 6 --depth 7
//! dse-run knights --platform sunos --procs 12 --jobs 16 --organization legacy
//! dse-run gauss-mp --procs 4 --n 400          # message-passing variant
//! ```
//!
//! Or run the same workload for real on the live engine, where each PE is
//! an OS thread and remote global-memory accesses are wire messages:
//!
//! ```sh
//! dse-run gauss --engine live --procs 4 --n 200
//! dse-run dct   --engine live --transport tcp --watch
//! ```

use std::time::Duration;

use dse::live::LiveRunner;
use dse_obs::{BusInterval, TraceSpanRec};
use dse_sweep::build::{self, Answer, AppKind, AppParams};
use dse_sweep::run::{execute_traced, References, RunStatus};

#[derive(Debug, Clone, PartialEq)]
struct Args {
    app: String,
    engine: String,
    transport: String,
    scheduler: String,
    platform: String,
    procs: usize,
    n: usize,
    block: usize,
    depth: u32,
    jobs: usize,
    organization: String,
    protocol: String,
    cache: bool,
    gm_mode: String,
    machines: usize,
    metrics_json: Option<String>,
    metrics_csv: Option<String>,
    trace_json: Option<String>,
    watch: bool,
    watch_ms: u64,
    flight_json: Option<String>,
    fault_plan: Option<String>,
    trace_dir: Option<String>,
    critical_path: bool,
    /// Flags the user actually typed, for meaningless-combination checks
    /// (a default value is fine; an explicit contradiction is an error).
    explicit: Vec<String>,
}

impl Args {
    /// The application parameters the size flags spell.
    fn params(&self) -> AppParams {
        AppParams {
            n: self.n,
            block: self.block,
            depth: self.depth,
            jobs: self.jobs,
            ..AppParams::default()
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: dse-run <gauss|gauss-mp|dct|othello|knights|matmul|scan> [options]
  --engine sim|live            execution engine           (default sim)
  --transport channel|tcp|uds  live engine wire           (default channel)
  --scheduler threads|tasks    live engine kernel driver: one OS thread
                               per PE, or poll-driven tasks on a worker
                               pool (for many-PE runs)    (default threads)
  --platform sunos|aix|linux   simulated platform, or one per machine
                               joined by '+' (sunos+linux) (default sunos)
  --procs N                    processors 1..12           (default 4)
  --machines N                 physical machines          (default 6)
  --n N                        Gauss-Seidel dimension     (default 400)
  --block B                    DCT block size             (default 8)
  --depth D                    Othello search depth       (default 5)
  --jobs J                     Knight's-Tour job count    (default 16)
  --organization linked|legacy software organization     (default linked)
  --protocol tcp|udp|raw       protocol stack             (default tcp)
  --cache                      enable the GM cache (both engines)
  --gm-mode wi|rc              cache coherence: write-invalidate or
                               release consistency        (default wi)
  --metrics-json PATH          write metrics as JSON Lines
  --metrics-csv PATH           write metrics as CSV
  --trace-json PATH            record causal spans, write a Chrome trace with
                               flow arrows (load in Perfetto)
  --watch                      print the live cluster top view each epoch
  --watch-ms MS                telemetry emission interval    (default 50)
  --flight-json PATH           write the flight-recorder ring, or the
                               post-mortem of an aborted run (JSONL; live engine)
  --fault-plan SPEC            inject deterministic transport faults (live engine)
                               e.g. seed=7,drop=10,dup=5,corrupt=3,delay=20:2,disconnect=2:40
  --trace-dir DIR              record causal spans, write per-PE streams, the
                               assembled cluster trace, blame table and critical path
  --critical-path              record causal spans, print the blame table and
                               critical path (virtual time on the simulator)

or run one cell of a sweep scenario spec (see dse-sweep):
  dse-run --scenario FILE            list the spec's cells
  dse-run --scenario FILE --cell ID  run every seed of that cell (add
                                     --critical-path for time, blame, path)"
    );
    std::process::exit(2)
}

/// Parse a full argument vector (without the program name). Returns a
/// descriptive error for unknown flags, missing values, or bad numbers so
/// the caller — and the unit tests — can check rejection behaviour.
fn parse_from(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        app: String::new(),
        engine: "sim".into(),
        transport: "channel".into(),
        scheduler: "threads".into(),
        platform: "sunos".into(),
        procs: 4,
        n: 400,
        block: 8,
        depth: 5,
        jobs: 16,
        organization: "linked".into(),
        protocol: "tcp".into(),
        cache: false,
        gm_mode: "wi".into(),
        machines: 6,
        metrics_json: None,
        metrics_csv: None,
        trace_json: None,
        watch: false,
        watch_ms: 50,
        flight_json: None,
        fault_plan: None,
        trace_dir: None,
        critical_path: false,
        explicit: Vec::new(),
    };
    let mut it = argv.iter();
    args.app = it.next().ok_or("missing application name")?.clone();
    if args.app == "--help" || args.app == "-h" {
        return Err("help".into());
    }
    while let Some(flag) = it.next() {
        args.explicit.push(flag.clone());
        let mut val = || -> Result<String, String> {
            it.next()
                .map(|s| s.to_string())
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        let num = |flag: &str, v: String| -> Result<usize, String> {
            v.parse()
                .map_err(|_| format!("flag {flag}: '{v}' is not a number"))
        };
        match flag.as_str() {
            "--engine" => args.engine = val()?,
            "--transport" => args.transport = val()?,
            "--scheduler" => args.scheduler = val()?,
            "--platform" => args.platform = val()?,
            "--procs" => args.procs = num(flag, val()?)?,
            "--machines" => args.machines = num(flag, val()?)?,
            "--n" => args.n = num(flag, val()?)?,
            "--block" => args.block = num(flag, val()?)?,
            "--depth" => args.depth = num(flag, val()?)? as u32,
            "--jobs" => args.jobs = num(flag, val()?)?,
            "--organization" => args.organization = val()?,
            "--protocol" => args.protocol = val()?,
            "--cache" => args.cache = true,
            "--gm-mode" => args.gm_mode = val()?,
            "--metrics-json" => args.metrics_json = Some(val()?),
            "--metrics-csv" => args.metrics_csv = Some(val()?),
            "--trace-json" => args.trace_json = Some(val()?),
            "--watch" => args.watch = true,
            "--watch-ms" => args.watch_ms = num(flag, val()?)? as u64,
            "--flight-json" => args.flight_json = Some(val()?),
            "--fault-plan" => args.fault_plan = Some(val()?),
            "--trace-dir" => args.trace_dir = Some(val()?),
            "--critical-path" => args.critical_path = true,
            "--help" | "-h" => return Err("help".into()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// Reject argument combinations that silently mean nothing. Defaults are
/// always fine; only flags the user explicitly typed can contradict the
/// chosen engine.
fn validate_engine_combos(args: &Args) -> Result<(), String> {
    match args.engine.as_str() {
        "sim" | "live" => {}
        other => return Err(format!("--engine: '{other}' is not sim or live")),
    }
    build::transport_kind(&args.transport).map_err(|e| format!("--{e}"))?;
    let explicit = |f: &str| args.explicit.iter().any(|e| e == f);
    if args.engine == "sim" && explicit("--transport") {
        return Err(
            "--transport chooses the live engine's wire; it has no effect with --engine sim \
             (add --engine live)"
                .into(),
        );
    }
    build::check_scheduler(&args.scheduler).map_err(|e| format!("--{e}"))?;
    if args.engine == "sim" && explicit("--scheduler") {
        return Err(
            "--scheduler picks the live engine's kernel driver; it has no effect with \
             --engine sim (add --engine live)"
                .into(),
        );
    }
    if args.engine == "sim" && explicit("--fault-plan") {
        return Err(
            "--fault-plan injects faults into the live engine's transport; it has no effect \
             with --engine sim (add --engine live)"
                .into(),
        );
    }
    if args.engine == "sim" && explicit("--flight-json") {
        return Err(
            "--flight-json writes the live engine's flight recorder; it has no effect with \
             --engine sim (add --engine live)"
                .into(),
        );
    }
    if let Some(spec) = &args.fault_plan {
        dse::live::FaultPlan::parse(spec).map_err(|e| format!("--fault-plan: {e}"))?;
    }
    if build::check_gm_mode(&args.gm_mode).is_err() {
        return Err(format!("--gm-mode: '{}' is not wi or rc", args.gm_mode));
    }
    if args.gm_mode == "rc" && !args.cache {
        return Err(
            "--gm-mode rc relaxes the GM cache's coherence protocol; it has no effect \
             without --cache"
                .into(),
        );
    }
    if args.engine == "live" {
        if args.app == "gauss-mp" {
            return Err(
                "gauss-mp is the explicit message-passing variant built on the simulator's \
                 user-message mailboxes; it does not run on the live engine (use gauss)"
                    .into(),
            );
        }
        // Everything that parameterizes the simulated 1999 cluster model is
        // meaningless when the program runs for real on host threads.
        const SIM_ONLY: &[&str] = &["--platform", "--machines", "--organization", "--protocol"];
        for f in SIM_ONLY {
            if explicit(f) {
                return Err(format!(
                    "{f} configures the simulated cluster model and has no meaning with \
                     --engine live"
                ));
            }
        }
        if args.procs == 0 {
            return Err("--procs: the live engine needs at least one processor".into());
        }
    }
    Ok(())
}

/// Probe every requested output path for writability *before* the run
/// (shared with `dse-sweep`; see [`build::validate_out_paths`]).
fn validate_out_paths(args: &Args) -> Result<(), String> {
    let outs = [
        (&args.metrics_json, "metrics (JSONL)"),
        (&args.metrics_csv, "metrics (CSV)"),
        (&args.trace_json, "Chrome trace"),
        (&args.flight_json, "flight recorder"),
    ];
    build::validate_out_paths(
        outs.iter()
            .filter_map(|(path, what)| path.as_deref().map(|p| (p, *what))),
    )
}

fn parse() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    parse_from(&argv).unwrap_or_else(|err| {
        if err != "help" {
            eprintln!("{err}");
        }
        usage()
    })
}

/// `dse-run --scenario FILE [--cell ID [--critical-path]]`: run one named
/// cell of a sweep spec in-process — every seed, sequentially — printing
/// the rows `dse-sweep` collects, each held to its sequential reference.
/// Every cell is traced, so `--critical-path` costs nothing more: it adds
/// each run's execution time, blame table and critical path. Without
/// `--cell`, list the spec's cells. Exits 1 if any run fails.
fn run_scenario_cli(argv: &[String]) -> ! {
    let usage = || -> ! {
        eprintln!("usage: dse-run --scenario FILE [--cell ID [--critical-path]]");
        std::process::exit(2)
    };
    let mut file = String::new();
    let mut cell: Option<String> = None;
    // What the trace report reads: the defaults, plus --critical-path.
    let mut args = parse_from(&["scenario".to_string()]).unwrap_or_else(|_| usage());
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--critical-path" => args.critical_path = true,
            "--scenario" => file = it.next().cloned().unwrap_or_else(|| usage()),
            "--cell" => cell = Some(it.next().cloned().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    let src = std::fs::read_to_string(&file).unwrap_or_else(|e| {
        eprintln!("cannot read {file}: {e}");
        std::process::exit(2);
    });
    let spec = dse_sweep::parse_spec(&src).unwrap_or_else(|e| {
        eprintln!("{file}: {e}");
        std::process::exit(2);
    });
    let runs = dse_sweep::expand(&spec);
    let Some(cell) = cell else {
        let mut cells: Vec<String> = runs.iter().map(|r| r.cell_id()).collect();
        cells.dedup();
        for c in &cells {
            println!("{c}");
        }
        println!("{} cells, {} runs", cells.len(), runs.len());
        std::process::exit(0);
    };
    let selected: Vec<_> = runs.iter().filter(|r| r.cell_id() == cell).collect();
    if selected.is_empty() {
        eprintln!("no cell '{cell}' in {file} (try --scenario {file} to list)");
        std::process::exit(2);
    }
    let mut references = References::default();
    let mut failed = false;
    for rs in selected {
        let (mut rec, trace_spans) = execute_traced(rs);
        references.verify(rs, &mut rec);
        println!("{}", rec.to_json_line());
        failed |= rec.status != RunStatus::Ok;
        if args.critical_path && !trace_spans.is_empty() {
            if rs.engine == "sim" {
                println!("execution time: {} s", rec.elapsed_ns as f64 / 1e9);
            }
            report_causal_trace(&args, &trace_spans, &[]);
        }
    }
    std::process::exit(i32::from(failed))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--scenario") {
        run_scenario_cli(&argv);
    }
    let args = parse();
    if let Err(e) = validate_engine_combos(&args) {
        eprintln!("{e}");
        std::process::exit(2);
    }
    if let Err(e) = validate_out_paths(&args) {
        eprintln!("{e}");
        std::process::exit(1);
    }
    let app = AppKind::parse(&args.app).unwrap_or_else(|e| {
        eprintln!("{e}");
        usage()
    });
    if args.engine == "live" {
        run_live_cli(&args, app);
    } else {
        run_sim_cli(&args, app);
    }
}

/// Run the selected workload on the live engine: real threads, the chosen
/// transport carrying every remote GM access, results printed exactly like
/// the simulator's so the two engines are directly comparable.
fn run_live_cli(args: &Args, app: AppKind) {
    let params = args.params();
    let mut cfg = build::build_live(
        &args.transport,
        args.fault_plan.as_deref(),
        None,
        args.cache,
        &args.gm_mode,
        &args.scheduler,
    )
    .expect("transport, fault plan, gm mode and scheduler validated at startup");
    cfg.tracing = wants_causal_trace(args);
    println!(
        "# {} on the live engine ({} transport, {} scheduler), {} processors",
        args.app, args.transport, args.scheduler, args.procs
    );
    if let Some(spec) = &args.fault_plan {
        println!("# fault plan: {spec}");
    }
    let hook = |agg: &dse::obs::ClusterAggregator, now_ns: u64| {
        println!("-- t={:.1}ms", now_ns as f64 / 1e6);
        print!("{}", dse::ssi::render_top(agg, now_ns));
    };
    let mut runner = LiveRunner::new(args.procs).config(cfg.clone());
    if args.watch {
        runner = runner.watch(Duration::from_millis(args.watch_ms), &hook);
    }
    // An aborted run prints the per-PE failure report, writes the
    // flight-recorder post-mortem if `--flight-json` asked for one, and
    // exits with status 1.
    let (run, answer) = build::run_live(runner, app, params).unwrap_or_else(|err| {
        eprint!("{}", err.report());
        if let Some(path) = &args.flight_json {
            match std::fs::write(path, &err.flight_jsonl) {
                Ok(()) => eprintln!("flight recorder post-mortem written to {path}"),
                Err(e) => eprintln!("cannot write flight recorder to {path}: {e}"),
            }
        }
        std::process::exit(1);
    });
    println!("{}", describe(app, &params, &answer));
    println!(
        "wall time: {:?}   gm request messages: {}   requests served: {}",
        run.elapsed,
        run.metrics
            .counter_sum_over_pes("kernel", "gm_request_msgs"),
        run.metrics
            .counter_sum_over_pes("kernel", "requests_served"),
    );
    if args.cache {
        print_directory(&run.metrics, &args.gm_mode);
    }
    if let Some(path) = &args.metrics_json {
        write_out(path, "metrics (JSONL)", run.metrics.to_jsonl());
    }
    if let Some(path) = &args.metrics_csv {
        write_out(path, "metrics (CSV)", run.metrics.to_csv());
    }
    if let Some(path) = &args.flight_json {
        write_out(path, "flight recorder", run.flight_jsonl.clone());
    }
    if cfg.tracing {
        report_causal_trace(args, &run.trace_spans, &[]);
    }
}

/// The GM cache's directory counters, summed over PEs (either engine's
/// metrics carry them).
fn print_directory(metrics: &dse_obs::MetricsSnapshot, gm_mode: &str) {
    let c = |name: &str| metrics.counter_sum_over_pes("kernel", name);
    println!(
        "directory: {} hits / {} misses / {} leases / {} invals",
        c("dir_hits"),
        c("dir_misses"),
        c("dir_leases"),
        c("dir_invals"),
    );
    if gm_mode == "rc" {
        println!(
            "rc: {} deferred invalidations / {} acquires",
            c("rc_deferred_invals"),
            c("rc_acquires"),
        );
    }
}

/// Write an export the run was asked for; a failure is exit status 1.
fn write_out(path: &str, what: &str, data: String) {
    if let Err(e) = std::fs::write(path, data) {
        eprintln!("cannot write {what} to {path}: {e}");
        std::process::exit(1);
    }
    println!("{what} written to {path}");
}

/// Whether a flag asked for the run's causal spans.
fn wants_causal_trace(args: &Args) -> bool {
    args.trace_dir.is_some() || args.critical_path || args.trace_json.is_some()
}

/// Assemble a run's causal trace — either engine's — print the blame table
/// (and critical path under `--critical-path`), write the Chrome trace
/// `--trace-json` names, and populate `--trace-dir` with the per-PE
/// streams plus every derived artifact. A simulated run adds `bus`, its
/// bus samples, to the Chrome traces. The path is walked and the Chrome
/// trace rendered only for a flag that prints or writes them. The canonical
/// files are what the CI determinism smoke diffs across two live runs; a
/// simulated run's raw files repeat to the byte.
fn report_causal_trace(args: &Args, trace_spans: &[Vec<TraceSpanRec>], bus: &[BusInterval]) {
    let t = dse_trace::assemble(trace_spans);
    println!(
        "causal trace: {} spans, {}/{} gm chains linked ({:.1}%)",
        t.spans().len(),
        t.links.gm_linked,
        t.links.gm_reqs,
        t.links.gm_link_ratio() * 100.0
    );
    let blame = dse_trace::blame(&t).render();
    print!("{blame}");
    let dir = args.trace_dir.as_deref().map(std::path::Path::new);
    let path = (args.critical_path || dir.is_some()).then(|| dse_trace::critical_path(&t));
    if let (true, Some(path)) = (args.critical_path, &path) {
        print!("{}", path.render(40));
    }
    let chrome = (args.trace_json.is_some() || dir.is_some())
        .then(|| dse_trace::chrome_flow_json_with(&t, bus));
    if let (Some(file), Some(chrome)) = (&args.trace_json, &chrome) {
        if let Err(e) = std::fs::write(file, chrome) {
            eprintln!("cannot write Chrome trace to {file}: {e}");
            std::process::exit(1);
        }
        println!("Chrome trace written to {file}");
    }
    let (Some(dir), Some(path), Some(chrome)) = (dir, path, chrome) else {
        return;
    };
    if let Err(e) = dse_trace::write_trace_dir(dir, trace_spans) {
        eprintln!("cannot write trace streams: {e}");
        std::process::exit(1);
    }
    let canonical = t.canonical();
    let outs: [(&str, String); 5] = [
        ("cluster.trace.json", chrome),
        ("blame.txt", blame),
        ("critical_path.txt", path.render(usize::MAX)),
        ("canonical.trace.jsonl", canonical.to_jsonl()),
        (
            "canonical.critical_path.txt",
            dse_trace::critical_path(&canonical).render(usize::MAX),
        ),
    ];
    for (name, data) in outs {
        let p = dir.join(name);
        if let Err(e) = std::fs::write(&p, data) {
            eprintln!("cannot write {}: {e}", p.display());
            std::process::exit(1);
        }
    }
    println!(
        "trace streams + assembly ({} PEs) written to {}",
        trace_spans.len(),
        dir.display()
    );
}

/// What the run answered, in the words of its application.
fn describe(app: AppKind, p: &AppParams, answer: &Answer) -> String {
    match answer {
        Answer::Gauss(sol) => format!(
            "solved N={}{} in {} sweeps, final delta {:.2e}",
            p.n,
            if app == AppKind::GaussMp {
                " (message passing)"
            } else {
                ""
            },
            sol.iters,
            sol.delta
        ),
        Answer::Dct(out) => format!(
            "compressed {0}x{0} image, {1} coefficients kept",
            out.size,
            out.coeffs.len()
        ),
        Answer::Othello((mv, score)) => format!(
            "depth {}: best move {}{} score {:+}",
            p.depth,
            (b'a' + mv % 8) as char,
            mv / 8 + 1,
            score
        ),
        Answer::Matmul(c) => format!(
            "multiplied {0}x{0} matrices, C[0]={1:.4}",
            c.len().isqrt(),
            c[0]
        ),
        Answer::Knights(count) => format!("counted {count} tours ({} jobs)", p.jobs),
        Answer::Scan(sum) => format!("scanned the shared table, checksum {sum}"),
    }
}

fn run_sim_cli(args: &Args, app: AppKind) {
    let params = args.params();
    let settings = build::SimSettings {
        platform: args.platform.clone(),
        organization: args.organization.clone(),
        protocol: args.protocol.clone(),
        cache: args.cache,
        gm_mode: args.gm_mode.clone(),
        machines: args.machines,
        tracing: wants_causal_trace(args),
        telemetry_ms: args.watch.then_some(args.watch_ms),
        ..build::SimSettings::default()
    };
    let (platform, mut program) = build::build_sim(&settings).unwrap_or_else(|e| {
        eprintln!("{e}");
        usage()
    });
    if args.watch {
        program = program.with_epoch_hook(|agg, now_ns| {
            println!("-- t={:.1}ms", now_ns as f64 / 1e6);
            print!("{}", dse::ssi::render_top(agg, now_ns));
        });
    }

    println!(
        "# {} on {} ({}), {} processors / {} machines",
        args.app,
        platform.os,
        platform.machine,
        args.procs,
        program.config().machines.unwrap_or(args.machines)
    );
    let (run, answer) = build::run_sim(&program, app, params, args.procs);
    println!("{}", describe(app, &params, &answer));

    println!(
        "execution time: {}   messages: {}   wire bytes: {}   collisions: {}",
        run.elapsed, run.stats.messages, run.net_wire_bytes, run.net_collisions
    );
    if args.cache {
        println!(
            "cache: {} hits / {} misses / {} invalidations",
            run.stats.cache_hits, run.stats.cache_misses, run.stats.cache_invalidations
        );
        print_directory(&run.metrics, &args.gm_mode);
    }
    if let Some(path) = &args.metrics_json {
        write_out(path, "metrics (JSONL)", run.metrics_jsonl());
    }
    if let Some(path) = &args.metrics_csv {
        write_out(path, "metrics (CSV)", run.metrics_csv());
    }
    if wants_causal_trace(args) {
        report_causal_trace(args, &run.trace_spans, &run.bus_intervals);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn defaults_fill_in() {
        let a = parse_from(&argv("gauss")).unwrap();
        assert_eq!(a.app, "gauss");
        assert_eq!(a.platform, "sunos");
        assert_eq!(a.procs, 4);
        assert_eq!(a.machines, 6);
        assert!(!a.cache);
        assert_eq!(a.metrics_json, None);
        assert_eq!(a.trace_json, None);
    }

    #[test]
    fn all_flags_parse() {
        let a = parse_from(&argv(
            "dct --platform linux --procs 8 --machines 4 --n 128 --block 16              --depth 7 --jobs 32 --organization legacy --protocol udp --cache",
        ))
        .unwrap();
        assert_eq!(a.platform, "linux");
        assert_eq!(a.procs, 8);
        assert_eq!(a.machines, 4);
        assert_eq!(a.n, 128);
        assert_eq!(a.block, 16);
        assert_eq!(a.depth, 7);
        assert_eq!(a.jobs, 32);
        assert_eq!(a.organization, "legacy");
        assert_eq!(a.protocol, "udp");
        assert!(a.cache);
    }

    #[test]
    fn observability_flags_parse() {
        let a = parse_from(&argv(
            "gauss --metrics-json m.jsonl --metrics-csv m.csv --trace-json t.json",
        ))
        .unwrap();
        assert_eq!(a.metrics_json.as_deref(), Some("m.jsonl"));
        assert_eq!(a.metrics_csv.as_deref(), Some("m.csv"));
        assert_eq!(a.trace_json.as_deref(), Some("t.json"));
    }

    #[test]
    fn watch_flags_parse_with_defaults() {
        let a = parse_from(&argv("gauss")).unwrap();
        assert!(!a.watch);
        assert_eq!(a.watch_ms, 50);
        assert_eq!(a.flight_json, None);
        let a = parse_from(&argv("gauss --watch --watch-ms 5 --flight-json f.jsonl")).unwrap();
        assert!(a.watch);
        assert_eq!(a.watch_ms, 5);
        assert_eq!(a.flight_json.as_deref(), Some("f.jsonl"));
    }

    #[test]
    fn out_path_validation_probes_before_the_run() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("target")
            .join("dse-run-validate-test");
        std::fs::create_dir_all(&dir).unwrap();
        let mut a = parse_from(&argv("gauss")).unwrap();
        assert!(validate_out_paths(&a).is_ok(), "no paths: nothing to probe");
        a.metrics_json = Some(dir.join("m.jsonl").to_string_lossy().into_owned());
        assert!(validate_out_paths(&a).is_ok());
        // The probe must not clobber existing content before the run.
        let existing = dir.join("keep.csv");
        std::fs::write(&existing, "old").unwrap();
        a.metrics_csv = Some(existing.to_string_lossy().into_owned());
        assert!(validate_out_paths(&a).is_ok());
        assert_eq!(std::fs::read_to_string(&existing).unwrap(), "old");
        // A missing parent directory is rejected with a clear message.
        a.flight_json = Some(
            dir.join("no-such-dir")
                .join("f.jsonl")
                .to_string_lossy()
                .into_owned(),
        );
        let err = validate_out_paths(&a).unwrap_err();
        assert!(err.contains("cannot write flight recorder"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn engine_and_transport_flags_parse() {
        let a = parse_from(&argv("gauss")).unwrap();
        assert_eq!(a.engine, "sim");
        assert_eq!(a.transport, "channel");
        let a = parse_from(&argv("gauss --engine live --transport tcp")).unwrap();
        assert_eq!(a.engine, "live");
        assert_eq!(a.transport, "tcp");
        assert!(validate_engine_combos(&a).is_ok());
    }

    #[test]
    fn bad_engine_or_transport_rejected() {
        let a = parse_from(&argv("gauss --engine warp")).unwrap();
        let err = validate_engine_combos(&a).unwrap_err();
        assert!(err.contains("not sim or live"), "{err}");
        let a = parse_from(&argv("gauss --engine live --transport pigeon")).unwrap();
        let err = validate_engine_combos(&a).unwrap_err();
        assert!(err.contains("not channel, tcp or uds"), "{err}");
    }

    #[test]
    fn transport_with_sim_engine_rejected() {
        let a = parse_from(&argv("gauss --transport tcp")).unwrap();
        let err = validate_engine_combos(&a).unwrap_err();
        assert!(err.contains("no effect with --engine sim"), "{err}");
        // The default transport value is fine — only the explicit flag errs.
        let a = parse_from(&argv("gauss")).unwrap();
        assert!(validate_engine_combos(&a).is_ok());
    }

    #[test]
    fn sim_model_flags_with_live_engine_rejected() {
        for flags in [
            "--platform linux",
            "--machines 4",
            "--organization legacy",
            "--protocol udp",
        ] {
            let a = parse_from(&argv(&format!("gauss --engine live {flags}"))).unwrap();
            let err = validate_engine_combos(&a).unwrap_err();
            assert!(
                err.contains("no meaning with --engine live"),
                "{flags}: {err}"
            );
        }
        // Observability outputs, the watch view, the flight recorder and the
        // GM cache all work on the live engine.
        let a = parse_from(&argv(
            "gauss --engine live --watch --watch-ms 10 --metrics-json m.jsonl --metrics-csv m.csv \
             --flight-json f.jsonl --cache",
        ))
        .unwrap();
        assert!(validate_engine_combos(&a).is_ok());
    }

    #[test]
    fn scheduler_flag_parses_and_requires_live_engine() {
        let a = parse_from(&argv("gauss")).unwrap();
        assert_eq!(a.scheduler, "threads");
        let a = parse_from(&argv("gauss --engine live --scheduler tasks")).unwrap();
        assert_eq!(a.scheduler, "tasks");
        assert!(validate_engine_combos(&a).is_ok());
        let a = parse_from(&argv("gauss --scheduler tasks")).unwrap();
        let err = validate_engine_combos(&a).unwrap_err();
        assert!(err.contains("no effect with --engine sim"), "{err}");
        let a = parse_from(&argv("gauss --engine live --scheduler fibers")).unwrap();
        let err = validate_engine_combos(&a).unwrap_err();
        assert!(err.contains("not threads or tasks"), "{err}");
    }

    #[test]
    fn gm_mode_parses_and_validates() {
        let a = parse_from(&argv("gauss")).unwrap();
        assert_eq!(a.gm_mode, "wi");
        for engine in ["sim", "live"] {
            let a = parse_from(&argv(&format!(
                "gauss --engine {engine} --cache --gm-mode rc"
            )))
            .unwrap();
            assert_eq!(a.gm_mode, "rc");
            assert!(validate_engine_combos(&a).is_ok(), "{engine}");
        }
        let a = parse_from(&argv("gauss --cache --gm-mode mesi")).unwrap();
        let err = validate_engine_combos(&a).unwrap_err();
        assert!(err.contains("not wi or rc"), "{err}");
    }

    #[test]
    fn gm_mode_rc_without_cache_rejected() {
        let a = parse_from(&argv("gauss --gm-mode rc")).unwrap();
        let err = validate_engine_combos(&a).unwrap_err();
        assert!(err.contains("without --cache"), "{err}");
        // wi is the default protocol; stating it without the cache is fine.
        let a = parse_from(&argv("gauss --gm-mode wi")).unwrap();
        assert!(validate_engine_combos(&a).is_ok());
    }

    #[test]
    fn flight_json_requires_live_engine() {
        let a = parse_from(&argv("gauss --engine live --flight-json f.jsonl")).unwrap();
        assert!(validate_engine_combos(&a).is_ok());
        let a = parse_from(&argv("gauss --flight-json f.jsonl")).unwrap();
        let err = validate_engine_combos(&a).unwrap_err();
        assert!(err.contains("no effect with --engine sim"), "{err}");
    }

    #[test]
    fn fault_plan_parses_and_requires_live_engine() {
        let a = parse_from(&argv("gauss --engine live --fault-plan seed=7,drop=10")).unwrap();
        assert_eq!(a.fault_plan.as_deref(), Some("seed=7,drop=10"));
        assert!(validate_engine_combos(&a).is_ok());
        let a = parse_from(&argv("gauss --fault-plan seed=7,drop=10")).unwrap();
        let err = validate_engine_combos(&a).unwrap_err();
        assert!(err.contains("no effect with --engine sim"), "{err}");
    }

    #[test]
    fn bad_fault_plan_spec_rejected() {
        let a = parse_from(&argv("gauss --engine live --fault-plan frob=1")).unwrap();
        let err = validate_engine_combos(&a).unwrap_err();
        assert!(err.starts_with("--fault-plan:"), "{err}");
    }

    #[test]
    fn causal_trace_flags_parse_and_work_on_both_engines() {
        for engine in ["sim", "live"] {
            let a = parse_from(&argv(&format!(
                "gauss --engine {engine} --trace-dir traces/g --critical-path --trace-json t.json"
            )))
            .unwrap();
            assert_eq!(a.trace_dir.as_deref(), Some("traces/g"));
            assert!(a.critical_path);
            assert!(validate_engine_combos(&a).is_ok(), "{engine}");
            assert!(wants_causal_trace(&a));
            // Each alone also asks for the spans (--critical-path prints
            // without writing).
            for flags in [
                "--trace-dir traces/g",
                "--critical-path",
                "--trace-json t.json",
            ] {
                let a = parse_from(&argv(&format!("gauss --engine {engine} {flags}"))).unwrap();
                assert!(validate_engine_combos(&a).is_ok(), "{engine} {flags}");
                assert!(wants_causal_trace(&a), "{engine} {flags}");
            }
        }
        // No flag, no spans.
        assert!(!wants_causal_trace(&parse_from(&argv("gauss")).unwrap()));
    }

    #[test]
    fn gauss_mp_on_live_engine_rejected() {
        let a = parse_from(&argv("gauss-mp --engine live")).unwrap();
        let err = validate_engine_combos(&a).unwrap_err();
        assert!(err.contains("does not run on the live engine"), "{err}");
        let a = parse_from(&argv("gauss-mp")).unwrap();
        assert!(validate_engine_combos(&a).is_ok());
    }

    #[test]
    fn unknown_flag_rejected() {
        let err = parse_from(&argv("gauss --frobnicate")).unwrap_err();
        assert!(err.contains("unknown flag --frobnicate"), "{err}");
        // The simulator scheduler's own timeline is gone, flag and all.
        let err = parse_from(&argv("gauss --trace")).unwrap_err();
        assert!(err.contains("unknown flag --trace"), "{err}");
    }

    #[test]
    fn missing_value_rejected() {
        let err = parse_from(&argv("gauss --metrics-json")).unwrap_err();
        assert!(err.contains("needs a value"), "{err}");
    }

    #[test]
    fn bad_number_rejected() {
        let err = parse_from(&argv("gauss --procs many")).unwrap_err();
        assert!(err.contains("not a number"), "{err}");
    }

    #[test]
    fn missing_app_rejected() {
        let err = parse_from(&[]).unwrap_err();
        assert!(err.contains("missing application"), "{err}");
    }
}
