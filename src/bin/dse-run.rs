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
//!
//! A run is a one-cell sweep spec. Every flag but the output flags is a
//! `[[scenario]]` key (`--gm-mode` is `gm_mode`) holding one value, and the
//! flags go through `dse-sweep`'s scenario parse, validation and expansion
//! at the paper seed. A flag whose value the expansion pins away — a
//! live-engine key on the simulator, a simulated-cluster key on the live
//! engine, `--gm-mode rc` without `--cache`, a size the app does not read
//! — is an error that names it. The run itself goes through
//! `dse_sweep::launch`, the path every sweep row takes.

use std::time::Instant;

use dse::kernel::DseConfig;
use dse_obs::{BusInterval, ClusterAggregator, TraceSpanRec};
use dse_sweep::build::{self, Answer, Outcome};
use dse_sweep::run::{record, References, RunStatus};
use dse_sweep::toml::{Table, Value};
use dse_sweep::RunSpec;

/// The output flags: what to print and write besides the run itself.
#[derive(Debug, Default)]
struct Outputs {
    metrics_json: Option<String>,
    metrics_csv: Option<String>,
    trace_json: Option<String>,
    flight_json: Option<String>,
    trace_dir: Option<String>,
    critical_path: bool,
    /// `--watch`'s telemetry interval in milliseconds.
    watch: Option<u64>,
}

impl Outputs {
    /// Whether a flag asked for the run's causal spans.
    fn wants_trace(&self) -> bool {
        self.trace_dir.is_some() || self.critical_path || self.trace_json.is_some()
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: dse-run <gauss|gauss-mp|dct|othello|knights|matmul|scan> [options]

A run is a one-cell sweep spec at the paper seed: each option but the
outputs is a [[scenario]] key (see dse-sweep; --gm-mode is gm_mode) with one
value. An option the run pins to another value is an error: a live-engine
key with the simulator, a cluster key with the live engine, --gm-mode
without --cache, a size the app does not read.
  --engine sim|live            execution engine           (default sim)
  --procs N                    processors 1..65535        (default 4)
  --cache                      enable the GM cache (both engines)
  --gm-mode wi|rc              cache coherence: write-invalidate or
                               release consistency        (default wi)
  --transport channel|tcp|uds  live engine wire           (default channel)
  --scheduler threads|tasks    live engine kernel workers: one per PE, or
                               a pool for many-PE runs    (default threads)
  --fault-plan SPEC            inject deterministic transport faults (live
                               engine; without seed= the run seed is used)
                               e.g. seed=7,drop=10,dup=5,corrupt=3,delay=20:2,disconnect=2:40
  --platform sunos|aix|linux   simulated platform, or one per machine
                               joined by '+' (sunos+linux) (default sunos)
  --machines N                 physical machines          (default 6)
  --organization linked|legacy software organization     (default linked)
  --protocol tcp|udp|raw       protocol stack             (default tcp)
  --network bus10|switched100  interconnect               (default bus10)
  --gm-window W                split-phase GM window      (default 0: engine's)
  --n N                        gauss, gauss-mp, matmul dimension (default 400)
  --block B                    dct block size             (default 8)
  --size S                     dct image size             (default 0: 512)
  --depth D                    othello search depth       (default 5)
  --jobs J                     knights job count          (default 16)
outputs:
  --metrics-json PATH          write metrics as JSON Lines
  --metrics-csv PATH           write metrics as CSV
  --trace-json PATH            record causal spans, write a Chrome trace with
                               flow arrows (load in Perfetto)
  --watch                      print the live cluster top view each epoch
  --watch-ms MS                telemetry emission interval    (default 50)
  --flight-json PATH           write the flight-recorder ring, or the
                               post-mortem of an aborted run (JSONL; live engine)
  --trace-dir DIR              record causal spans, write per-PE streams, the
                               assembled cluster trace, blame table and critical path
  --critical-path              record causal spans, print the blame table and
                               critical path (virtual time on the simulator)

or run one cell of a sweep scenario spec (see dse-sweep):
  dse-run --scenario FILE            list the spec's cells
  dse-run --scenario FILE --cell ID  run every seed of that cell (add
                                     --critical-path for blame and path)"
    );
    std::process::exit(2)
}

/// Parse a full argument vector (without the program name) into the one
/// run it describes and the outputs it asks for. Returns a descriptive
/// error for unknown flags, missing values, bad values and flags the run
/// pins, so the caller — and the unit tests — can check rejection.
fn parse_from(argv: &[String]) -> Result<(RunSpec, Outputs), String> {
    let mut it = argv.iter();
    let app = it.next().ok_or("missing application name")?;
    if app == "--help" || app == "-h" {
        return Err("help".into());
    }
    let mut keys = Table::from([("app".to_string(), Value::Str(app.clone()))]);
    let mut outs = Outputs::default();
    let (mut watch, mut watch_ms) = (false, "50".to_string());
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match flag.as_str() {
            "--metrics-json" => outs.metrics_json = Some(val()?),
            "--metrics-csv" => outs.metrics_csv = Some(val()?),
            "--trace-json" => outs.trace_json = Some(val()?),
            "--flight-json" => outs.flight_json = Some(val()?),
            "--trace-dir" => outs.trace_dir = Some(val()?),
            "--critical-path" => outs.critical_path = true,
            "--watch" => watch = true,
            "--watch-ms" => watch_ms = val()?,
            "--help" | "-h" => return Err("help".into()),
            _ => {
                // Every axis a run holds is a flag, spelled with dashes,
                // except the positional app and what a one-cell spec
                // fixes itself.
                let key = match flag.strip_prefix("--") {
                    Some(name) if !name.contains('_') => name.replace('-', "_"),
                    _ => return Err(format!("unknown flag {flag}")),
                };
                let axis = RunSpec::default().axis(&key).is_some();
                if !axis || ["scenario", "app", "seed"].contains(&key.as_str()) {
                    return Err(format!("unknown flag {flag}"));
                }
                // `--cache` is bare; a value that reads as an integer is one.
                let value = match key.as_str() {
                    "cache" => Value::Bool(true),
                    _ => val().map(|v| v.parse().map_or(Value::Str(v), Value::Int))?,
                };
                keys.insert(key, value);
            }
        }
    }
    match watch_ms.parse() {
        Ok(0) | Err(_) => return Err(format!("--watch-ms: '{watch_ms}' is not a positive number")),
        Ok(ms) => outs.watch = watch.then_some(ms),
    }
    let run = dse_sweep::one_cell(&keys, DseConfig::paper().seed)?;
    for (key, value) in &keys {
        let typed = match value {
            Value::Str(s) => s.clone(),
            Value::Int(n) => n.to_string(),
            Value::Bool(b) => b.to_string(),
            Value::Array(_) => unreachable!("a flag holds one value"),
        };
        let held = run.axis(key).unwrap_or_default();
        if held != typed {
            return Err(format!(
                "--{} {typed} has no effect on a {} run with --engine {} and {} \
                 (the run holds {key} = '{held}')",
                key.replace('_', "-"),
                run.app,
                run.engine,
                if run.cache { "--cache" } else { "no --cache" },
            ));
        }
    }
    if run.engine == "sim" && outs.flight_json.is_some() {
        return Err(
            "--flight-json writes the live engine's flight recorder; it has no effect with \
             --engine sim (add --engine live)"
                .into(),
        );
    }
    Ok((run, outs))
}

/// Probe every requested output path for writability *before* the run
/// (shared with `dse-sweep`; see [`build::validate_out_paths`]).
fn validate_out_paths(outs: &Outputs) -> Result<(), String> {
    let paths = [
        (&outs.metrics_json, "metrics (JSONL)"),
        (&outs.metrics_csv, "metrics (CSV)"),
        (&outs.trace_json, "Chrome trace"),
        (&outs.flight_json, "flight recorder"),
    ];
    build::validate_out_paths(
        paths
            .iter()
            .filter_map(|(path, what)| path.as_deref().map(|p| (p, *what))),
    )
}

/// `dse-run --scenario FILE [--cell ID [--critical-path]]`: run one named
/// cell of a sweep spec in-process — every seed, sequentially — printing
/// what each run printed as `dse-run <app>` and then the row `dse-sweep`
/// collects, held to its sequential reference. Every cell is traced, so
/// `--critical-path` costs nothing more: it adds each run's blame table
/// and critical path. Without `--cell`, list the spec's cells. Exits 1 if
/// any run fails.
fn run_scenario_cli(argv: &[String]) -> ! {
    let usage = || -> ! {
        eprintln!("usage: dse-run --scenario FILE [--cell ID [--critical-path]]");
        std::process::exit(2)
    };
    let (mut file, mut cell, mut outs) = (String::new(), None, Outputs::default());
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--critical-path" => outs.critical_path = true,
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
        let started = Instant::now();
        let outcome = start(rs, true, &outs);
        let mut row = record(rs, &outcome, started.elapsed().as_nanos() as u64);
        references.verify(rs, &mut row);
        report(rs, &outcome, &outs);
        println!("{}", row.to_json_line());
        failed |= row.status != RunStatus::Ok;
    }
    std::process::exit(i32::from(failed))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--scenario") {
        run_scenario_cli(&argv);
    }
    let (run, outs) = parse_from(&argv).unwrap_or_else(|err| {
        if err != "help" {
            eprintln!("{err}");
        }
        usage()
    });
    if let Err(e) = validate_out_paths(&outs) {
        eprintln!("{e}");
        std::process::exit(1);
    }
    let outcome = start(&run, outs.wants_trace(), &outs);
    if !report(&run, &outcome, &outs) {
        std::process::exit(1);
    }
}

/// Print the run's heading, then launch it — under `--watch`, with the
/// cluster top view printed each telemetry epoch.
fn start(rs: &RunSpec, tracing: bool, outs: &Outputs) -> Outcome {
    let launched = heading(rs).and_then(|heading| {
        println!("{heading}");
        let watch = outs.watch.map(|ms| -> build::Watch { (ms, top) });
        build::launch(rs, tracing, watch)
    });
    launched.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

/// What runs where: the engine, and the simulated cluster or the live
/// engine's wire, scheduler and fault plan.
fn heading(rs: &RunSpec) -> Result<String, String> {
    if rs.engine == "live" {
        let mut heading = format!(
            "# {} on the live engine ({} transport, {} scheduler), {} processors",
            rs.app, rs.transport, rs.scheduler, rs.procs
        );
        if !rs.fault_plan.is_empty() {
            heading += &format!("\n# fault plan: {}", rs.fault_plan);
        }
        return Ok(heading);
    }
    let (platforms, machines) = build::cluster(rs)?;
    Ok(format!(
        "# {} on {} ({}), {} processors / {} machines",
        rs.app, platforms[0].os, platforms[0].machine, rs.procs, machines
    ))
}

/// The `--watch` epoch hook, the same on both engines.
fn top(agg: &ClusterAggregator, now_ns: u64) {
    println!("-- t={:.1}ms", now_ns as f64 / 1e6);
    print!("{}", dse::ssi::render_top(agg, now_ns));
}

/// Print what the run answered and what it cost, and write the exports
/// the flags ask for: one printer for both engines. An aborted live run
/// prints its per-PE failure report, writes the flight-recorder
/// post-mortem if `--flight-json` asked for one, and returns false.
fn report(rs: &RunSpec, outcome: &Outcome, outs: &Outputs) -> bool {
    let (metrics, answer, cost, bus) = match outcome {
        Outcome::Sim(run, answer) => (
            &run.metrics,
            answer,
            format!(
                "execution time: {}   messages: {}   wire bytes: {}   collisions: {}",
                run.elapsed,
                run.metrics.counter_sum_over_pes("kernel", "messages"),
                run.net_wire_bytes,
                run.net_collisions
            ),
            &run.bus_intervals[..],
        ),
        Outcome::Live(run, answer) => (
            &run.metrics,
            answer,
            format!(
                "wall time: {:?}   gm request messages: {}   requests served: {}",
                run.elapsed,
                run.metrics
                    .counter_sum_over_pes("kernel", "gm_request_msgs"),
                run.metrics
                    .counter_sum_over_pes("kernel", "requests_served"),
            ),
            &[][..],
        ),
        Outcome::Abort(err) => {
            eprint!("{}", err.report());
            if let Some(path) = &outs.flight_json {
                match std::fs::write(path, &err.flight_jsonl) {
                    Ok(()) => eprintln!("flight recorder post-mortem written to {path}"),
                    Err(e) => eprintln!("cannot write flight recorder to {path}: {e}"),
                }
            }
            return false;
        }
    };
    println!("{}", describe(rs, answer));
    println!("{cost}");
    if rs.cache {
        print_cache(metrics, &rs.gm_mode);
    }
    if let Some(path) = &outs.metrics_json {
        write_out(path, "metrics (JSONL)", metrics.to_jsonl());
    }
    if let Some(path) = &outs.metrics_csv {
        write_out(path, "metrics (CSV)", metrics.to_csv());
    }
    if let (Some(path), Outcome::Live(run, _)) = (&outs.flight_json, outcome) {
        write_out(path, "flight recorder", run.flight_jsonl.clone());
    }
    if outs.wants_trace() {
        report_causal_trace(outs, outcome.trace_spans(), bus);
    }
    true
}

/// The GM cache's counters and its directory's, summed over PEs (either
/// engine's metrics carry them).
fn print_cache(metrics: &dse_obs::MetricsSnapshot, gm_mode: &str) {
    let c = |name: &str| metrics.counter_sum_over_pes("kernel", name);
    println!(
        "cache: {} hits / {} misses / {} invalidations",
        c("cache_hits"),
        c("cache_misses"),
        c("cache_invalidations"),
    );
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

/// Assemble a run's causal trace — either engine's — print the blame table
/// (and critical path under `--critical-path`), write the Chrome trace
/// `--trace-json` names, and populate `--trace-dir` with the per-PE
/// streams plus every derived artifact. A simulated run adds `bus`, its
/// bus samples, to the Chrome traces. The path is walked and the Chrome
/// trace rendered only for a flag that prints or writes them. The canonical
/// files are what the CI determinism smoke diffs across two live runs; a
/// simulated run's raw files repeat to the byte.
fn report_causal_trace(outs: &Outputs, trace_spans: &[Vec<TraceSpanRec>], bus: &[BusInterval]) {
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
    let dir = outs.trace_dir.as_deref().map(std::path::Path::new);
    let path = (outs.critical_path || dir.is_some()).then(|| dse_trace::critical_path(&t));
    if let (true, Some(path)) = (outs.critical_path, &path) {
        print!("{}", path.render(40));
    }
    let chrome = (outs.trace_json.is_some() || dir.is_some())
        .then(|| dse_trace::chrome_flow_json_with(&t, bus));
    if let (Some(file), Some(chrome)) = (&outs.trace_json, &chrome) {
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
fn describe(rs: &RunSpec, answer: &Answer) -> String {
    let p = &rs.params;
    match answer {
        Answer::Gauss(sol) => format!(
            "solved N={}{} in {} sweeps, final delta {:.2e}",
            p.n,
            if rs.app == "gauss-mp" {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<(RunSpec, Outputs), String> {
        parse_from(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    fn run(s: &str) -> RunSpec {
        parse(s).unwrap().0
    }

    fn outs(s: &str) -> Outputs {
        parse(s).unwrap().1
    }

    fn err(s: &str) -> String {
        parse(s).unwrap_err()
    }

    /// The pinned-flag error for `flag`.
    fn pinned(s: &str, flag: &str) {
        let err = err(s);
        assert!(
            err.starts_with(&format!("{flag} ")) && err.contains("has no effect on a"),
            "{s}: {err}"
        );
    }

    #[test]
    fn defaults_fill_in() {
        let (a, o) = parse("gauss").unwrap();
        assert_eq!(a.app, "gauss");
        assert_eq!(a.engine, "sim");
        assert_eq!(a.platform, "sunos");
        assert_eq!(a.procs, 4);
        assert_eq!(a.machines, 6);
        assert_eq!(a.params.n, 400);
        assert!(!a.cache);
        assert_eq!(a.gm_mode, "wi");
        // The seed figures.toml pins, so a figure point and its CLI run agree.
        assert_eq!(a.seed, DseConfig::paper().seed);
        assert_eq!(a.seed, 6_166_937);
        assert_eq!(o.metrics_json, None);
        assert_eq!(o.trace_json, None);
    }

    #[test]
    fn all_flags_parse() {
        let a = run(
            "dct --platform linux --procs 8 --machines 4 --block 16 --size 128 \
             --organization legacy --protocol udp --network switched100 --gm-window 8 --cache",
        );
        assert_eq!(a.platform, "linux");
        assert_eq!(a.procs, 8);
        assert_eq!(a.machines, 4);
        assert_eq!((a.params.block, a.params.size), (16, 128));
        assert_eq!(a.organization, "legacy");
        assert_eq!(a.protocol, "udp");
        assert_eq!(a.network, "switched100");
        assert_eq!(a.gm_window, 8);
        assert!(a.cache);
        let a = run("othello --depth 7");
        assert_eq!(a.params.depth, 7);
        let a = run("knights --jobs 32");
        assert_eq!(a.params.jobs, 32);
        let a = run("matmul --n 128");
        assert_eq!(a.params.n, 128);
        // A size the app does not read is pinned like any other key.
        pinned("dct --n 64", "--n");
        // Even at another app's default: the run holds no N at all.
        pinned("dct --n 400", "--n");
        pinned("gauss --block 8", "--block");
        pinned("gauss --size 128", "--size");
        pinned("knights --depth 7", "--depth");
        pinned("knights --depth 5", "--depth");
        // A per-machine platform list is its own machine count.
        pinned("gauss --platform sunos+linux --machines 4", "--machines");
    }

    #[test]
    fn observability_flags_parse() {
        let o = outs("gauss --metrics-json m.jsonl --metrics-csv m.csv --trace-json t.json");
        assert_eq!(o.metrics_json.as_deref(), Some("m.jsonl"));
        assert_eq!(o.metrics_csv.as_deref(), Some("m.csv"));
        assert_eq!(o.trace_json.as_deref(), Some("t.json"));
    }

    #[test]
    fn watch_flags_parse_with_defaults() {
        let o = outs("gauss");
        assert_eq!(o.watch, None);
        assert_eq!(o.flight_json, None);
        assert_eq!(outs("gauss --watch").watch, Some(50));
        let o = outs("gauss --engine live --watch --watch-ms 5 --flight-json f.jsonl");
        assert_eq!(o.watch, Some(5));
        assert_eq!(o.flight_json.as_deref(), Some("f.jsonl"));
        // A zero interval would tick forever: rejected, watched or not.
        for s in [
            "gauss --watch --watch-ms 0",
            "gauss --watch-ms 0",
            "gauss --watch-ms x",
        ] {
            assert!(err(s).contains("not a positive number"), "{s}");
        }
    }

    #[test]
    fn out_path_validation_probes_before_the_run() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("target")
            .join("dse-run-validate-test");
        std::fs::create_dir_all(&dir).unwrap();
        let mut o = Outputs::default();
        assert!(validate_out_paths(&o).is_ok(), "no paths: nothing to probe");
        o.metrics_json = Some(dir.join("m.jsonl").to_string_lossy().into_owned());
        assert!(validate_out_paths(&o).is_ok());
        // The probe must not clobber existing content before the run.
        let existing = dir.join("keep.csv");
        std::fs::write(&existing, "old").unwrap();
        o.metrics_csv = Some(existing.to_string_lossy().into_owned());
        assert!(validate_out_paths(&o).is_ok());
        assert_eq!(std::fs::read_to_string(&existing).unwrap(), "old");
        // A missing parent directory is rejected with a clear message.
        o.flight_json = Some(
            dir.join("no-such-dir")
                .join("f.jsonl")
                .to_string_lossy()
                .into_owned(),
        );
        let err = validate_out_paths(&o).unwrap_err();
        assert!(err.contains("cannot write flight recorder"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn engine_and_transport_flags_parse() {
        let a = run("gauss");
        assert_eq!(a.engine, "sim");
        assert_eq!(a.transport, "", "a simulated run holds no wire");
        let a = run("gauss --engine live");
        assert_eq!((a.transport.as_str(), a.platform.as_str()), ("channel", ""));
        let a = run("gauss --engine live --transport tcp");
        assert_eq!(a.engine, "live");
        assert_eq!(a.transport, "tcp");
    }

    #[test]
    fn bad_engine_or_transport_rejected() {
        let e = err("gauss --engine warp");
        assert!(e.contains("not sim or live"), "{e}");
        let e = err("gauss --engine live --transport pigeon");
        assert!(e.contains("not channel, tcp or uds"), "{e}");
    }

    #[test]
    fn transport_with_sim_engine_rejected() {
        pinned("gauss --transport tcp", "--transport");
        // Even at the live engine's default: the flag means nothing here.
        pinned("gauss --transport channel", "--transport");
        assert!(parse("gauss").is_ok());
    }

    #[test]
    fn sim_model_flags_with_live_engine_rejected() {
        for (flag, value) in [
            ("--platform", "linux"),
            ("--machines", "4"),
            ("--organization", "legacy"),
            ("--protocol", "udp"),
            ("--network", "switched100"),
            ("--gm-window", "8"),
        ] {
            pinned(&format!("gauss --engine live {flag} {value}"), flag);
        }
        // Observability outputs, the watch view, the flight recorder and the
        // GM cache all work on the live engine.
        assert!(parse(
            "gauss --engine live --watch --watch-ms 10 --metrics-json m.jsonl --metrics-csv m.csv \
             --flight-json f.jsonl --cache",
        )
        .is_ok());
    }

    #[test]
    fn scheduler_flag_parses_and_requires_live_engine() {
        assert_eq!(run("gauss --engine live").scheduler, "threads");
        assert_eq!(
            run("gauss --engine live --scheduler tasks").scheduler,
            "tasks"
        );
        pinned("gauss --scheduler tasks", "--scheduler");
        let e = err("gauss --engine live --scheduler fibers");
        assert!(e.contains("not threads or tasks"), "{e}");
    }

    #[test]
    fn gm_mode_parses_and_validates() {
        assert_eq!(run("gauss").gm_mode, "wi");
        for engine in ["sim", "live"] {
            let a = run(&format!("gauss --engine {engine} --cache --gm-mode rc"));
            assert_eq!(a.gm_mode, "rc", "{engine}");
        }
        let e = err("gauss --cache --gm-mode mesi");
        assert!(e.contains("not wi or rc"), "{e}");
    }

    #[test]
    fn gm_mode_rc_without_cache_rejected() {
        pinned("gauss --gm-mode rc", "--gm-mode");
        assert!(err("gauss --gm-mode rc").contains("no --cache"));
        // wi is the default protocol; stating it without the cache is fine.
        assert!(parse("gauss --gm-mode wi").is_ok());
    }

    #[test]
    fn flight_json_requires_live_engine() {
        assert!(parse("gauss --engine live --flight-json f.jsonl").is_ok());
        let e = err("gauss --flight-json f.jsonl");
        assert!(e.contains("no effect with --engine sim"), "{e}");
    }

    #[test]
    fn fault_plan_parses_and_requires_live_engine() {
        let a = run("gauss --engine live --fault-plan seed=7,drop=10");
        assert_eq!(a.fault_plan, "seed=7,drop=10");
        pinned("gauss --fault-plan seed=7,drop=10", "--fault-plan");
    }

    #[test]
    fn bad_fault_plan_spec_rejected() {
        let e = err("gauss --engine live --fault-plan frob=1");
        assert!(e.contains("fault_plan:"), "{e}");
    }

    #[test]
    fn causal_trace_flags_parse_and_work_on_both_engines() {
        for engine in ["sim", "live"] {
            let o = outs(&format!(
                "gauss --engine {engine} --trace-dir traces/g --critical-path --trace-json t.json"
            ));
            assert_eq!(o.trace_dir.as_deref(), Some("traces/g"));
            assert!(o.critical_path);
            assert!(o.wants_trace());
            // Each alone also asks for the spans (--critical-path prints
            // without writing).
            for flags in [
                "--trace-dir traces/g",
                "--critical-path",
                "--trace-json t.json",
            ] {
                let o = outs(&format!("gauss --engine {engine} {flags}"));
                assert!(o.wants_trace(), "{engine} {flags}");
            }
        }
        // No flag, no spans.
        assert!(!outs("gauss").wants_trace());
    }

    #[test]
    fn gauss_mp_on_live_engine_rejected() {
        let e = err("gauss-mp --engine live");
        assert!(e.contains("does not run on the live engine"), "{e}");
        assert!(parse("gauss-mp").is_ok());
    }

    #[test]
    fn unknown_flag_rejected() {
        // The simulator scheduler's own timeline is gone, flag and all; the
        // spec keys a one-cell run fixes itself are not flags either.
        for flag in [
            "--frobnicate",
            "--trace",
            "--app",
            "--seed",
            "--seeds",
            "--name",
            // A key is spelled with dashes only.
            "--gm_mode",
            "--fault_plan",
        ] {
            let e = err(&format!("gauss {flag} 1"));
            assert!(e.contains(&format!("unknown flag {flag}")), "{e}");
        }
    }

    #[test]
    fn missing_value_rejected() {
        for s in ["gauss --metrics-json", "gauss --procs"] {
            assert!(err(s).contains("needs a value"), "{s}");
        }
    }

    #[test]
    fn bad_number_rejected() {
        let e = err("gauss --procs many");
        assert!(e.contains("procs: expected non-negative integer"), "{e}");
        // The spec's own bounds, which the old hand-written checks lacked.
        assert!(err("gauss --procs 0").contains("procs must be positive"));
        assert!(err("gauss --machines 0").contains("machines must be positive"));
        assert!(err("gauss --procs 70000").contains("at most 65535"));
    }

    #[test]
    fn missing_app_rejected() {
        assert!(err("").contains("missing application"));
        assert!(err("warp").contains("unknown app 'warp'"));
    }
}
