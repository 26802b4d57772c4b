//! `dse-run` driven as a binary: the front door's exit codes, and a run
//! typed as flags against the same cell replayed from a spec.

use std::process::{Command, Output};

fn dse_run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dse-run"))
        .args(args)
        .output()
        .expect("dse-run starts")
}

fn stdout_line(out: &Output, prefix: &str) -> String {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().find(|l| l.starts_with(prefix));
    line.unwrap_or_else(|| panic!("no '{prefix}' line in:\n{stdout}"))
        .to_string()
}

#[test]
fn usage_errors_exit_2_and_name_the_flag() {
    for (args, says) in [
        // Each of the first three died on an engine assertion (exit 101).
        ("gauss --procs 0", "procs must be positive"),
        ("gauss --machines 0", "machines must be positive"),
        ("gauss --procs 70000", "procs must be at most 65535"),
        // A zero interval ticked forever on either engine.
        ("gauss --procs 2 --n 16 --watch --watch-ms 0", "--watch-ms"),
        (
            "gauss --engine live --procs 2 --n 16 --watch --watch-ms 0",
            "--watch-ms",
        ),
        // A flag the run pins, one per engine.
        ("gauss --transport tcp", "--transport tcp has no effect"),
        (
            "gauss --engine live --platform linux",
            "--platform linux has no effect",
        ),
        // A size the app does not read, even at another app's default.
        ("dct --n 400", "--n 400 has no effect"),
        ("gauss --gm_mode rc", "unknown flag --gm_mode"),
        ("gauss --flight-json f.jsonl", "--flight-json"),
    ] {
        let out = dse_run(&args.split_whitespace().collect::<Vec<_>>());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args}: {stderr}");
        assert!(stderr.contains(says), "{args}: {stderr}");
    }
}

#[test]
fn flags_and_a_one_cell_spec_run_the_same_cell() {
    let spec = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("dse_run_one_cell.toml");
    std::fs::write(
        &spec,
        "[sweep]\nseeds = [6166937]\n[[scenario]]\nname = \"m\"\napp = \"matmul\"\nprocs = 2\nn = 16\n",
    )
    .unwrap();
    let typed = dse_run(&["matmul", "--procs", "2", "--n", "16"]);
    assert!(typed.status.success());
    let replayed = dse_run(&[
        "--scenario",
        spec.to_str().unwrap(),
        "--cell",
        "m.matmul.sim.sunos.w0.c0.p2",
    ]);
    assert!(replayed.status.success());
    let time = stdout_line(&typed, "execution time:");
    assert_eq!(time, stdout_line(&replayed, "execution time:"));
    assert!(time.contains("messages: ") && time.contains("collisions: "));
    let row = stdout_line(&replayed, "{");
    assert!(row.contains("\"status\":\"ok\""), "{row}");
}
