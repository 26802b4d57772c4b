//! The repository benchmark.
//!
//! ```text
//! dse-benchmark --workload W --seed N --seconds S --trace 0|1
//!     one run of one workload; the last line of standard output is the
//!     result as one JSON object (end-to-end metrics for --trace 0,
//!     per-layer metrics for --trace 1, which also writes the span file)
//! dse-benchmark all [--sets K] [--seed N] [--seconds S] [--out FILE]
//!     every workload, each run a fresh child process: K untraced sets,
//!     then one traced run per workload; writes results.json and, from
//!     three sets on, holds every spread against its bound
//! dse-benchmark compare A.json B.json
//!     one row per (workload, metric); exits 1 if any pair regressed
//! dse-benchmark spec
//!     prints BENCHMARK.json
//! ```
//!
//! Everything is measured from outside, by timing calls into the crates'
//! public functions; no file outside this directory belongs to it.

mod compare;
mod gen;
mod gm;
mod json;
mod layers;
mod live;
mod run;
mod sim;
mod spans;
mod spec;
mod stats;
mod sync;
mod sys;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use json::RunResult;

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("spec") => {
            print!("{}", spec::benchmark_json());
            Ok(true)
        }
        Some("compare") => compare_files(&args[1..]),
        Some("all") => all(&args[1..]),
        Some(_) => one(&args),
        None => Err(usage()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("dse-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

fn usage() -> String {
    "usage: dse-benchmark --workload W --seed N --seconds S --trace 0|1 \
     | all [--sets K] [--seed N] [--seconds S] [--out FILE] \
     | compare A.json B.json | spec"
        .to_string()
}

/// `--key value` pairs; anything else is an error.
fn flags(args: &[String]) -> Result<Vec<(&str, &str)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let name = key
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {key:?}\n{}", usage()))?;
        let value = it
            .next()
            .ok_or_else(|| format!("{key} needs a value\n{}", usage()))?;
        out.push((name, value.as_str()));
    }
    Ok(out)
}

fn number<T: std::str::FromStr>(name: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("--{name}: {value:?} is not a valid number"))
}

/// Where span files and results go: `DSE_BENCH_OUT` (set by `run.sh` to
/// `out/` beside it) or `benchmark/out` under the working directory.
fn out_dir() -> PathBuf {
    std::env::var_os("DSE_BENCH_OUT").map_or_else(|| PathBuf::from("benchmark/out"), PathBuf::from)
}

/// One run of one workload; prints the table, then the result line.
fn one(args: &[String]) -> Result<bool, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, None, 0u8);
    for (name, value) in flags(args)? {
        match name {
            "workload" => workload = Some(value.to_string()),
            "seed" => seed = number(name, value)?,
            "seconds" => seconds = Some(number::<f64>(name, value)?),
            "trace" => trace = number(name, value)?,
            _ => return Err(format!("unknown flag --{name}\n{}", usage())),
        }
    }
    let seconds = seconds.unwrap_or(spec::RUN_SECONDS as f64);
    if !(seconds > 0.0 && seconds <= 60.0) || trace > 1 {
        return Err("--seconds must be in (0, 60] and --trace 0 or 1".to_string());
    }
    let args = run::RunArgs {
        workload: workload.ok_or_else(usage)?,
        seed,
        seconds,
        traced: trace == 1,
    };
    let result = run::run(&args, &out_dir())?;
    print_metrics(&args.workload, &result);
    println!("{}", result.to_line());
    Ok(result.correct)
}

/// Every metric of a result by name, with its unit.
fn print_metrics(workload: &str, result: &RunResult) {
    for (name, value, unit) in &result.metrics {
        println!("{workload:<10} {name:<34} {value:>18.6} {unit}");
    }
}

fn compare_files(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err(usage());
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|doc| compare::samples(&doc).map_err(|e| format!("{path}: {e}")))
    };
    Ok(!compare::compare(&load(a)?, &load(b)?))
}

/// Run one workload in a fresh child process, so peak memory and resource
/// usage are that workload's alone, and parse its result line.
fn child(workload: &str, seed: u64, seconds: f64, trace: u8) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", &trace.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or("");
    RunResult::from_line(line).map_err(|e| {
        format!(
            "{workload} (seed {seed}, trace {trace}) ended with {} and no result: {e}",
            output.status
        )
    })
}

/// Every workload, `sets` untraced sets then one traced run each.
fn all(args: &[String]) -> Result<bool, String> {
    let (mut sets, mut seed, mut seconds) = (1u64, 1u64, spec::RUN_SECONDS as f64);
    let mut out = out_dir().join("results.json");
    for (name, value) in flags(args)? {
        match name {
            "sets" => sets = number(name, value)?,
            "seed" => seed = number(name, value)?,
            "seconds" => seconds = number(name, value)?,
            "out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag --{name}\n{}", usage())),
        }
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut runs: Vec<String> = Vec::new();
    let mut ok = true;
    let mut record = |workload: &str, seed: u64, trace: u8| -> Result<(), String> {
        let result = child(workload, seed, seconds, trace)?;
        print_metrics(workload, &result);
        if !result.correct {
            println!(
                "{workload:<10} FAILED: {} of {} operations",
                result.failed, result.attempted
            );
            ok = false;
        }
        runs.push(format!(
            "{{\"workload\": {}, \"seed\": {seed}, \"trace\": {trace}, \"result\": {}}}",
            json::string(workload),
            result.to_line()
        ));
        Ok(())
    };
    // Each set uses another seed, as the acceptance driver does.
    for set in 0..sets {
        for w in spec::WORKLOADS {
            record(w.name, seed + set, 0)?;
        }
    }
    for w in spec::WORKLOADS {
        record(w.name, seed, 1)?;
    }
    let doc = format!(
        "{{\"nproc\": {nproc}, \"seconds\": {}, \"sets\": {sets}, \"runs\": [\n{}\n]}}\n",
        json::number(seconds),
        runs.join(",\n")
    );
    write_file(&out, &doc)?;
    println!("results written to {}", out.display());
    if sets >= 3 {
        ok &= steady(&compare::samples(&doc)?);
    }
    Ok(ok)
}

fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, contents).map_err(|e| format!("{}: {e}", path.display()))
}

/// The repeatability rule: over the sets just run, the distance between
/// the first and third quartile of every end-to-end metric, as a share of
/// its median, must stay within the metric's bound (`setup_s` is reported
/// but, as in the acceptance driver, not held to it). A metric that fails
/// is to be lengthened — more repetitions, never shorter boxes — and only
/// then demoted to a per-layer metric.
fn steady(samples: &compare::Samples) -> bool {
    println!(
        "{:<10} {:<12} {:>16} {:>9} {:>6}  steadiness",
        "workload", "metric", "median", "spread", "bound"
    );
    let mut all_within = true;
    for w in spec::WORKLOADS {
        for m in spec::END_TO_END {
            let Some(values) = samples.get(&(w.name.to_string(), m.name.to_string())) else {
                continue;
            };
            let spread = stats::iqr_share(values).unwrap_or(f64::INFINITY);
            let verdict = if spread < m.bound / 3.0 {
                "steady"
            } else if spread <= m.bound {
                "within bound, above a third of it"
            } else if m.name == "setup_s" {
                "wide (not held to its bound)"
            } else {
                all_within = false;
                "UNSTEADY: wider than its bound"
            };
            println!(
                "{:<10} {:<12} {:>16.6} {:>8.2}% {:>5.0}%  {verdict}",
                w.name,
                m.name,
                stats::median(values),
                spread * 100.0,
                m.bound * 100.0
            );
        }
    }
    all_within
}
