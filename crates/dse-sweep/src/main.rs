//! `dse-sweep` — run a scenario-spec matrix in parallel, aggregate the
//! per-run metrics, and optionally gate on a committed baseline.
//!
//! ```sh
//! dse-sweep --spec bench_results/sweep_full.toml --out target/sweep
//! dse-sweep --spec bench_results/sweep_full.toml --out target/sweep \
//!     --baseline bench_results/BENCH_sweep.jsonl   # exit 1 on any exact difference
//! dse-sweep --spec spec.toml --list                # print the matrix, run nothing
//! dse-sweep --spec bench_results/figures.toml --out target/figures
//!                  # Figs. 4-21 + ablations: one CSV per `[[figure]]`, then the checks
//! ```
//!
//! The hidden `run-one` mode is the child-process entry the executor
//! uses: it re-derives one `RunSpec` from `(spec file, index)`, executes
//! it in-process, and prints the row as a single JSON line.

use std::path::{Path, PathBuf};

use dse_sweep::run::csv_header;
use dse_sweep::{
    agg, build, checks, exec, execute_run, expand, parse_spec, pivot, References, RunRecord,
    RunSpec, RunStatus, SweepSpec,
};

fn usage() -> ! {
    eprintln!(
        "usage: dse-sweep --spec FILE --out DIR [options]
  --spec FILE       TOML scenario spec (required)
  --out DIR         output directory for rows + aggregates (required unless --list)
  --jobs N          concurrent runs                  (default: one per core)
  --baseline FILE   canonical.jsonl of an earlier sweep: exit 1 when a run is
                    not ok or a column that repeats exactly differs from it
  --list            print the expanded run matrix and exit"
    );
    std::process::exit(2)
}

fn fail(msg: &str) -> ! {
    eprintln!("dse-sweep: {msg}");
    std::process::exit(2)
}

struct Args {
    spec: PathBuf,
    out: PathBuf,
    jobs: usize,
    baseline: Option<PathBuf>,
    list: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        spec: PathBuf::new(),
        out: PathBuf::new(),
        jobs: 0,
        baseline: None,
        list: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut val = || -> Result<&String, String> {
            it.next()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match flag.as_str() {
            "--spec" => args.spec = PathBuf::from(val()?),
            "--out" => args.out = PathBuf::from(val()?),
            "--jobs" => {
                args.jobs = val()?
                    .parse()
                    .map_err(|_| "--jobs: not a number".to_string())?
            }
            "--baseline" => args.baseline = Some(PathBuf::from(val()?)),
            "--list" => args.list = true,
            "--help" | "-h" => return Err("help".into()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.spec.as_os_str().is_empty() {
        return Err("--spec is required".into());
    }
    if args.out.as_os_str().is_empty() && !args.list {
        return Err("--out is required".into());
    }
    Ok(args)
}

fn load_spec(path: &Path) -> dse_sweep::SweepSpec {
    let src = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", path.display())));
    parse_spec(&src).unwrap_or_else(|e| fail(&format!("{}: {e}", path.display())))
}

/// The rows of a `canonical.jsonl`, read before anything runs so a wrong
/// file costs no sweep.
fn load_baseline(path: &Path) -> Vec<RunRecord> {
    let src = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", path.display())));
    let row = |(i, line)| {
        RunRecord::from_json_line(line)
            .unwrap_or_else(|e| fail(&format!("{}:{}: {e}", path.display(), i + 1)))
    };
    src.lines().enumerate().map(row).collect()
}

/// The figure half of a sweep: the paper's two tables, one CSV per
/// declared figure, then the shape checks over the figures and the
/// mechanism checks over the rows. Returns whether the sweep stands as a
/// reproduction: false only when the spec declares every one of
/// Figs. 4–21 and a figure could not be drawn or a check failed (a
/// partial spec may not exercise every shape, so it only reports).
fn figures(spec: &SweepSpec, runs: &[RunSpec], rows: &[RunRecord], out_dir: &Path) -> bool {
    println!("{}", dse_platform::table1());
    println!("{}", dse_platform::table2(12));
    let cells: Vec<(&RunSpec, &RunRecord)> = runs.iter().zip(rows).collect();
    let mut undrawn = 0;
    let mut shape = Vec::new();
    for decl in &spec.figures {
        let path = out_dir.join(format!("{}.csv", decl.id));
        let drawn = pivot(decl, &cells).and_then(|fig| {
            std::fs::write(&path, fig.to_csv())
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            Ok(fig)
        });
        match drawn {
            Ok(_) if decl.check.is_empty() => {}
            Ok(fig) => shape.extend(checks::run_shape_check(&decl.check, &fig)),
            Err(e) => {
                undrawn += 1;
                println!("figure {}: not drawn — {e}", decl.id);
            }
        }
    }
    let mechanism = checks::mechanism_checks(&cells);
    let mut sound = undrawn == 0;
    for (title, list) in [
        ("Shape checks (paper-reported behaviours)", &shape),
        ("Mechanism checks (blame shares)", &mechanism),
    ] {
        let (text, passed) = checks::render_checks(list);
        println!(
            "== {title} ==\n{text}== {passed} / {} checks passed ==",
            list.len()
        );
        sound &= passed == list.len();
    }
    let drawn = spec.figures.len() - undrawn;
    println!("figures: {drawn} CSV(s) in {}", out_dir.display());
    let every_figure = (4..=21).all(|k| {
        let ids = [format!("fig{k}"), format!("fig{k}-speedup")];
        spec.figures.iter().any(|f| ids.contains(&f.id))
    });
    if !sound && !every_figure {
        println!("note: the spec does not declare every one of Figs. 4-21, so this only reports");
    }
    sound || !every_figure
}

/// Hidden child mode: `dse-sweep run-one --spec FILE --index I`.
fn run_one(argv: &[String]) -> ! {
    let mut spec_path: Option<PathBuf> = None;
    let mut index: Option<usize> = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match (flag.as_str(), it.next()) {
            ("--spec", Some(v)) => spec_path = Some(PathBuf::from(v)),
            ("--index", Some(v)) => index = v.parse().ok(),
            _ => fail("run-one: expected --spec FILE --index I"),
        }
    }
    let (Some(spec_path), Some(index)) = (spec_path, index) else {
        fail("run-one: expected --spec FILE --index I");
    };
    let spec = load_spec(&spec_path);
    let runs = expand(&spec);
    let Some(run_spec) = runs.get(index) else {
        fail(&format!(
            "run-one: index {index} out of range ({} runs)",
            runs.len()
        ));
    };
    let record = execute_run(run_spec);
    println!("{}", record.to_json_line());
    std::process::exit(if record.status == RunStatus::Ok { 0 } else { 1 })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("run-one") {
        run_one(&argv[1..]);
    }
    let args = parse_args(&argv).unwrap_or_else(|err| {
        if err != "help" {
            eprintln!("{err}");
        }
        usage()
    });
    let spec = load_spec(&args.spec);
    let runs = expand(&spec);
    if runs.is_empty() {
        fail("the spec expands to zero runs");
    }
    if args.list {
        for r in &runs {
            println!("{:>4}  {}  seed={}", r.idx, r.cell_id(), r.seed);
        }
        println!("{} runs", runs.len());
        return;
    }
    let baseline = args.baseline.as_deref().map(load_baseline);
    let out_dir = args.out;
    std::fs::create_dir_all(&out_dir)
        .unwrap_or_else(|e| fail(&format!("cannot create {}: {e}", out_dir.display())));
    let out_path = |name: &str| out_dir.join(name);
    let outs = [
        ("runs.jsonl", "per-run rows (JSONL)"),
        ("runs.csv", "per-run rows (CSV)"),
        ("canonical.jsonl", "canonical rows (the baseline format)"),
        ("summary.txt", "aggregate table"),
    ];
    let paths: Vec<(String, &str)> = outs
        .iter()
        .map(|(name, what)| (out_path(name).to_string_lossy().into_owned(), *what))
        .collect();
    build::validate_out_paths(paths.iter().map(|(p, w)| (p.as_str(), *w)))
        .unwrap_or_else(|e| fail(&e));

    let exe = std::env::current_exe()
        .unwrap_or_else(|e| fail(&format!("cannot locate own executable: {e}")));
    let total = runs.len();
    eprintln!(
        "# sweep '{}': {} runs, {} concurrent",
        spec.name,
        total,
        if args.jobs == 0 {
            exec::default_jobs()
        } else {
            args.jobs
        }
    );
    let mut done = 0usize;
    let mut rows = exec::run_matrix(&exe, &args.spec, &runs, args.jobs, |rec| {
        done += 1;
        eprintln!(
            "[{done}/{total}] {} seed={} {} {:.0}ms",
            rec.cell,
            rec.seed,
            rec.status.name(),
            rec.wall_ns as f64 / 1e6
        );
    });
    let mut references = References::default();
    for (run, row) in runs.iter().zip(&mut rows) {
        references.verify(run, row);
    }

    let lines = |line: fn(&RunRecord) -> String| -> String {
        rows.iter().map(|r| line(r) + "\n").collect()
    };
    let table = agg::render_table(&agg::aggregate(&rows));
    let write = |name: &str, data: &str| {
        let path = out_path(name);
        std::fs::write(&path, data)
            .unwrap_or_else(|e| fail(&format!("cannot write {}: {e}", path.display())));
    };
    write("runs.jsonl", &lines(RunRecord::to_json_line));
    write(
        "runs.csv",
        &(csv_header() + "\n" + &lines(RunRecord::to_csv_line)),
    );
    write("canonical.jsonl", &lines(RunRecord::canonical_line));
    write("summary.txt", &table);
    println!("{table}");

    let mut exit = 0;
    if !spec.figures.is_empty() && !figures(&spec, &runs, &rows, &out_dir) {
        exit = 1;
    }
    if let Some(baseline) = &baseline {
        let verdict = agg::gate(&rows, baseline);
        print!("{}", verdict.report);
        if !verdict.pass {
            exit = 1;
        }
    }
    println!("rows: {}  outputs: {}", rows.len(), out_dir.display());
    std::process::exit(exit);
}
