//! Parallel run-matrix executor.
//!
//! Each run executes in a child process (the `dse-sweep run-one` hidden
//! mode re-invokes the current executable), which buys two things an
//! in-process thread pool cannot: a *hard* per-run timeout — the parent
//! kills the child at its deadline no matter where it is stuck — and
//! isolation, so one aborting or crashing run cannot take the whole
//! sweep down. Children are scheduled onto a bounded number of slots and
//! their single-line JSON rows are collected in matrix order.

use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::run::{RunRecord, RunStatus};
use crate::spec::RunSpec;

/// Default number of concurrent runs: one per host core.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// One child in flight.
struct Slot {
    run: usize,
    child: Child,
    deadline: Instant,
}

/// Execute every run of the matrix by re-invoking `exe` in `run-one`
/// mode against `spec_path`. `jobs` children run concurrently (0 means
/// one per core). `progress` fires once per completed run, in completion
/// order. Returns rows in matrix order.
pub fn run_matrix(
    exe: &Path,
    spec_path: &Path,
    runs: &[RunSpec],
    jobs: usize,
    mut progress: impl FnMut(&RunRecord),
) -> Vec<RunRecord> {
    let jobs = if jobs == 0 { default_jobs() } else { jobs }.max(1);
    let mut rows: Vec<Option<RunRecord>> = vec![None; runs.len()];
    let mut next = 0usize;
    let mut slots: Vec<Slot> = Vec::with_capacity(jobs);
    while next < runs.len() || !slots.is_empty() {
        // Fill free slots.
        while slots.len() < jobs && next < runs.len() {
            let spec = &runs[next];
            match spawn_one(exe, spec_path, spec) {
                Ok(child) => slots.push(Slot {
                    run: next,
                    child,
                    deadline: Instant::now() + Duration::from_millis(spec.timeout_ms),
                }),
                Err(e) => {
                    let rec = RunRecord::failed(spec, RunStatus::Error, e);
                    progress(&rec);
                    rows[next] = Some(rec);
                }
            }
            next += 1;
        }
        // Poll children.
        let mut i = 0;
        while i < slots.len() {
            let done = match slots[i].child.try_wait() {
                Ok(Some(_)) => true,
                Ok(None) => {
                    if Instant::now() >= slots[i].deadline {
                        let _ = slots[i].child.kill();
                        let _ = slots[i].child.wait();
                        let slot = slots.swap_remove(i);
                        let spec = &runs[slot.run];
                        let mut rec = RunRecord::failed(
                            spec,
                            RunStatus::Timeout,
                            format!("killed at the {}ms deadline", spec.timeout_ms),
                        );
                        rec.wall_ns = spec.timeout_ms * 1_000_000;
                        progress(&rec);
                        rows[slot.run] = Some(rec);
                        continue;
                    }
                    false
                }
                Err(e) => {
                    let slot = slots.swap_remove(i);
                    let rec = RunRecord::failed(
                        &runs[slot.run],
                        RunStatus::Error,
                        format!("wait failed: {e}"),
                    );
                    progress(&rec);
                    rows[slot.run] = Some(rec);
                    continue;
                }
            };
            if !done {
                i += 1;
                continue;
            }
            let slot = slots.swap_remove(i);
            let spec = &runs[slot.run];
            let rec = collect_child(spec, slot.child);
            progress(&rec);
            rows[slot.run] = Some(rec);
        }
        if !slots.is_empty() {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    rows.into_iter()
        .map(|r| r.expect("every run recorded"))
        .collect()
}

fn spawn_one(exe: &Path, spec_path: &Path, spec: &RunSpec) -> Result<Child, String> {
    Command::new(exe)
        .arg("run-one")
        .arg("--spec")
        .arg(spec_path)
        .arg("--index")
        .arg(spec.idx.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", exe.display()))
}

/// Harvest an exited child: its last stdout line is the row.
fn collect_child(spec: &RunSpec, child: Child) -> RunRecord {
    let out = match child.wait_with_output() {
        Ok(out) => out,
        Err(e) => return RunRecord::failed(spec, RunStatus::Error, format!("wait failed: {e}")),
    };
    let stdout = String::from_utf8_lossy(&out.stdout);
    let row_line = stdout.lines().rev().find(|l| l.starts_with('{'));
    match row_line.map(RunRecord::from_json_line) {
        Some(Ok(rec)) => rec,
        Some(Err(e)) => RunRecord::failed(spec, RunStatus::Error, format!("bad row: {e}")),
        None => {
            let stderr = String::from_utf8_lossy(&out.stderr);
            let detail = stderr.lines().last().unwrap_or("no output").to_string();
            RunRecord::failed(
                spec,
                RunStatus::Error,
                format!("child exited {} without a row: {detail}", out.status),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }
}
