//! End-to-end tests that drive the real `dse-sweep` binary: outputs,
//! cross-process determinism of the canonical rows, the exact gate's
//! exit codes and report, and the hard per-run timeout.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use dse_sweep::run::RunRecord;

const BIN: &str = env!("CARGO_BIN_EXE_dse-sweep");

const SPEC: &str = r#"
[sweep]
name = "e2e"
timeout_ms = 60000
seeds = [1, 2]

[[scenario]]
name = "m"
app = "matmul"
engine = "sim"
platform = "sunos"
procs = [2]
n = 12

[[scenario]]
name = "l"
app = "matmul"
engine = "live"
procs = [2]
n = 12
"#;

const SIM_CELL: &str = "m.matmul.sim.sunos.w0.c0.p2";
const LIVE_CELL: &str = "l.matmul.live.channel.p2";

/// Fresh scratch directory, unique per test so the suite can run with
/// any test-thread count.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dse-sweep-e2e-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn sweep(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .output()
        .expect("spawn dse-sweep")
}

fn write_spec(dir: &Path, body: &str) -> PathBuf {
    let path = dir.join("spec.toml");
    std::fs::write(&path, body).unwrap();
    path
}

fn read_rows(file: &Path) -> Vec<RunRecord> {
    let jsonl = std::fs::read_to_string(file).unwrap();
    jsonl
        .lines()
        .map(|l| RunRecord::from_json_line(l).unwrap())
        .collect()
}

/// Sweep `spec` into `dir/<tag>`, gating on `baseline` when given;
/// returns the exit code, standard output and the output directory.
fn run_sweep(
    dir: &Path,
    spec: &Path,
    tag: &str,
    baseline: Option<&Path>,
) -> (i32, String, PathBuf) {
    let out = dir.join(tag);
    let mut args = vec![
        "--spec",
        spec.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
    ];
    if let Some(baseline) = baseline {
        args.extend(["--baseline", baseline.to_str().unwrap()]);
    }
    let res = sweep(&args);
    let code = res.status.code().expect("dse-sweep was not killed");
    (code, String::from_utf8_lossy(&res.stdout).into_owned(), out)
}

#[test]
fn end_to_end_outputs_and_cross_process_determinism() {
    let dir = scratch("outputs");
    let spec = write_spec(&dir, SPEC);
    let (code, stdout, out_a) = run_sweep(&dir, &spec, "a", None);
    assert_eq!(code, 0, "{stdout}");
    let (code, stdout, out_b) = run_sweep(&dir, &spec, "b", None);
    assert_eq!(code, 0, "{stdout}");

    for name in ["runs.jsonl", "runs.csv", "canonical.jsonl", "summary.txt"] {
        assert!(out_a.join(name).exists(), "missing output {name}");
    }
    let csv = std::fs::read_to_string(out_a.join("runs.csv")).unwrap();
    assert_eq!(csv.lines().count(), 5, "header + one row per run");

    let rows = read_rows(&out_a.join("runs.jsonl"));
    assert_eq!(rows.len(), 4);
    for row in &rows {
        assert_eq!(row.status.name(), "ok", "note: {}", row.note);
        assert!(row.gm_ops > 0, "run recorded no GM ops");
    }
    for row in rows.iter().filter(|r| r.cell == SIM_CELL) {
        assert!(row.events > 0, "sim run recorded no events");
        assert!(row.virtual_ns > 0);
    }

    // Same spec + seed => byte-identical canonical rows, even across
    // separate parent processes.
    let canon = |out: &Path| std::fs::read_to_string(out.join("canonical.jsonl")).unwrap();
    assert_eq!(canon(&out_a), canon(&out_b));
    let lines: Vec<String> = rows.iter().map(|r| r.canonical_line() + "\n").collect();
    assert_eq!(canon(&out_a), lines.concat());
}

#[test]
fn gate_exit_codes_follow_the_baseline() {
    let dir = scratch("gate");
    let spec = write_spec(&dir, SPEC);
    let (code, stdout, out) = run_sweep(&dir, &spec, "out", None);
    assert_eq!(code, 0, "{stdout}");
    let own = out.join("canonical.jsonl");
    let rows = read_rows(&own);
    // Gate a second sweep on a doctored copy of the first one's rows.
    let gate_on = |tag: &str, doctor: &dyn Fn(&mut Vec<RunRecord>)| -> (i32, String) {
        let mut rows = rows.clone();
        doctor(&mut rows);
        let lines: Vec<String> = rows.iter().map(|r| r.to_json_line() + "\n").collect();
        let baseline = dir.join(format!("{tag}.jsonl"));
        std::fs::write(&baseline, lines.concat()).unwrap();
        let (code, stdout, _) = run_sweep(&dir, &spec, tag, Some(&baseline));
        (code, stdout)
    };
    let sim = rows
        .iter()
        .position(|r| r.cell == SIM_CELL && r.seed == 2)
        .unwrap();
    let live = rows.iter().position(|r| r.cell == LIVE_CELL).unwrap();

    // (i) A sweep matches its own canonical rows from another process.
    let (code, stdout, _) = run_sweep(&dir, &spec, "own", Some(&own));
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("gate: PASS — 4 row(s)"), "{stdout}");

    // (ii) One exact column of one row off by one: exit 1, and the report
    // names the cell, the seed and the column.
    let (code, stdout) = gate_on("events", &|rows| rows[sim].events += 1);
    assert_eq!(code, 1, "{stdout}");
    let events = rows[sim].events;
    let want = format!("{SIM_CELL} seed=2 events: {} → {events}\n", events + 1);
    assert!(stdout.contains(&want), "{stdout}");
    assert!(stdout.contains("gate: FAIL — 1 difference(s)"), "{stdout}");

    let hash = u64::from_str_radix(&rows[sim].trace_hash, 16).unwrap();
    let off_by_one = format!("{:016x}", hash.wrapping_add(1));
    let (code, stdout) = gate_on("hash", &|rows| rows[sim].trace_hash = off_by_one.clone());
    assert_eq!(code, 1, "{stdout}");
    let want = format!(
        "{SIM_CELL} seed=2 trace_hash: {off_by_one} → {}\n",
        rows[sim].trace_hash
    );
    assert!(stdout.contains(&want), "{stdout}");

    // (iii) Columns that do not repeat on the row's engine are not compared.
    let (code, stdout) = gate_on("inexact", &|rows| {
        rows[sim].wall_ns += 1_000_000;
        rows[live].wall_ns += 1_000_000;
        rows[live].p50_ns += 1;
        rows[live].gm_request_msgs += 1;
    });
    assert_eq!(code, 0, "{stdout}");

    // (iv) Rows on one side only are reported, not gated.
    let (code, stdout) = gate_on("sides", &|rows| {
        rows[sim].seed = 99;
    });
    assert_eq!(code, 0, "{stdout}");
    assert!(
        stdout.contains(&format!("{SIM_CELL} seed=2: not in the baseline")),
        "{stdout}"
    );
    assert!(
        stdout.contains(&format!("{SIM_CELL} seed=99: baseline row not run")),
        "{stdout}"
    );
    assert!(stdout.contains("gate: PASS — 3 row(s)"), "{stdout}");

    // A baseline that is not canonical rows is a usage error, not a pass.
    let junk = dir.join("junk.jsonl");
    std::fs::write(&junk, "{\"schema\": \"dse-sweep/v1\"}\n").unwrap();
    let (code, _, _) = run_sweep(&dir, &spec, "junk", Some(&junk));
    assert_eq!(code, 2);
}

#[test]
fn per_run_timeout_kills_the_child() {
    let dir = scratch("timeout");
    // 1 ms is shorter than child-process startup, so the run can only
    // ever end as a timeout — no flakiness on slow machines.
    let spec = write_spec(
        &dir,
        r#"
[sweep]
name = "slow"
timeout_ms = 1
seeds = [1]

[[scenario]]
name = "g"
app = "gauss"
engine = "sim"
procs = [4]
n = 400
"#,
    );
    let (code, stdout, out) = run_sweep(&dir, &spec, "out", None);
    assert_eq!(code, 0, "timeouts are recorded, not fatal: {stdout}");
    let rows = read_rows(&out.join("runs.jsonl"));
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].status.name(), "timeout");

    // (v) Under the gate a run that is not ok fails the sweep, even
    // against a baseline that holds the same failure.
    let (code, stdout, _) = run_sweep(&dir, &spec, "gated", Some(&out.join("canonical.jsonl")));
    assert_eq!(code, 1, "{stdout}");
    let want = "g.gauss.sim.sunos.w0.c0.p4 seed=1 status: timeout";
    assert!(stdout.contains(want), "{stdout}");
}

#[test]
fn list_mode_prints_the_matrix_without_running() {
    let dir = scratch("list");
    let spec = write_spec(&dir, SPEC);
    let res = sweep(&["--spec", spec.to_str().unwrap(), "--list"]);
    assert!(res.status.success());
    let stdout = String::from_utf8_lossy(&res.stdout);
    assert!(stdout.contains("m.matmul.sim.sunos.w0.c0.p2"), "{stdout}");
    assert!(stdout.contains("4 runs"), "{stdout}");
}

#[test]
fn figure_specs_write_csvs_and_fail_the_sweep_only_when_they_declare_every_figure() {
    let dir = scratch("figures");
    // One curve, and a shape check that has nothing to look at on it.
    let figure = |id: &str, rest: &str| {
        format!(
            "\n[[figure]]\nid = \"{id}\"\nfrom = \"m\"\nwhere = [\"seed=1\"]\nx = \"procs\"\n\
             series = \"n\"\n{rest}"
        )
    };
    let speed = figure(
        "speed",
        "label = \"N={}\"\nvalue = \"speedup\"\ncheck = \"dct\"\n",
    );
    let partial = format!("{SPEC}{speed}").replace("procs = [2]", "procs = [1, 2]");
    let spec = write_spec(&dir, &partial);
    let (code, stdout, out) = run_sweep(&dir, &spec, "partial", None);
    assert_eq!(code, 0, "a partial spec only reports: {stdout}");
    for line in [
        "[FAIL] speed: dct shape — no series '4x4'",
        "== 0 / 1 checks passed ==",
        "so this only reports",
        "== Table 2: machines vs processors",
    ] {
        assert!(stdout.contains(line), "{line}: {stdout}");
    }
    // The curve is the rows' launcher-observed times, T(1) / T(p).
    let rows = read_rows(&out.join("runs.jsonl"));
    assert!(rows
        .iter()
        .all(|r| r.result.len() == 16 && r.result == rows[0].result));
    let secs = |procs| {
        let row = rows
            .iter()
            .find(|r| (r.seed, r.engine.as_str(), r.procs) == (1, "sim", procs));
        row.map_or(f64::NAN, |r| r.elapsed_ns as f64 / 1e9)
    };
    let csv = std::fs::read_to_string(out.join("speed.csv")).unwrap();
    assert_eq!(csv, format!("procs,N=12\n1,1\n2,{}\n", secs(1) / secs(2)));

    // The same spec, declaring Figs. 4-21: the failed check fails the sweep.
    let every: String = (4..=21).map(|k| figure(&format!("fig{k}"), "")).collect();
    let spec = write_spec(&dir, &format!("{partial}{every}"));
    let (code, stdout, out) = run_sweep(&dir, &spec, "complete", None);
    assert_eq!(code, 1, "{stdout}");
    assert!(stdout.contains("[FAIL] speed: dct shape — "), "{stdout}");
    assert!(!stdout.contains("only reports"), "{stdout}");
    assert!(stdout.contains("figures: 19 CSV(s)") && out.join("fig21.csv").exists());

    // A figure that cannot be drawn is named, and is not written.
    let spec = write_spec(&dir, &partial.replace("seed=1", "seed=9"));
    let (code, stdout, out) = run_sweep(&dir, &spec, "undrawn", None);
    assert_eq!(code, 0, "{stdout}");
    let why = "figure speed: not drawn — no row matches the declaration";
    assert!(
        stdout.contains(why) && !out.join("speed.csv").exists(),
        "{stdout}"
    );
}
