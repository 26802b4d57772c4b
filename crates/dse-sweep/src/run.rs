//! In-process execution of one expanded [`RunSpec`], producing one
//! columnar [`RunRecord`] row from the run's metrics snapshot.

use std::time::Instant;

use dse_api::{DseProgram, RunResult};
use dse_apps::{dct, gauss_seidel, gauss_seidel_mp, knights, matmul, othello};
use dse_live::{LiveCtx, LiveRunResult, LiveRunner};
use dse_obs::{LogHistogram, MetricsSnapshot};

use crate::build::{self, AppKind, SimSettings};
use crate::json::{self, Value};
use crate::spec::RunSpec;

/// Terminal status of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// Completed normally.
    Ok,
    /// The live engine aborted (structured failure report).
    Abort,
    /// The harness failed to execute the run (bad spec, crashed child).
    Error,
    /// The parent killed the run at its hard deadline.
    Timeout,
}

impl RunStatus {
    /// Canonical lowercase name.
    pub fn name(&self) -> &'static str {
        match self {
            RunStatus::Ok => "ok",
            RunStatus::Abort => "abort",
            RunStatus::Error => "error",
            RunStatus::Timeout => "timeout",
        }
    }

    /// Parse a canonical name.
    pub fn parse(s: &str) -> Option<RunStatus> {
        match s {
            "ok" => Some(RunStatus::Ok),
            "abort" => Some(RunStatus::Abort),
            "error" => Some(RunStatus::Error),
            "timeout" => Some(RunStatus::Timeout),
            _ => None,
        }
    }
}

/// One per-run metrics row. Serialized as a single JSONL line (and a CSV
/// line with the same columns); the aggregate layer groups rows by
/// `cell` and folds the seeds of each cell into one summary.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Matrix index.
    pub idx: usize,
    /// Cell id (all axes except the seed).
    pub cell: String,
    /// Axes, echoed for columnar analysis.
    pub scenario: String,
    pub app: String,
    pub engine: String,
    pub transport: String,
    pub scheduler: String,
    pub platform: String,
    pub procs: usize,
    pub gm_window: usize,
    pub cache: bool,
    pub gm_mode: String,
    pub fault_plan: String,
    pub seed: u64,
    /// Outcome.
    pub status: RunStatus,
    /// Failure detail (empty on success).
    pub note: String,
    /// Host wall-clock nanoseconds for the run.
    pub wall_ns: u64,
    /// Virtual nanoseconds (sim runs; 0 on live runs).
    pub virtual_ns: u64,
    /// Simulator heap events processed (sim runs; 0 on live runs).
    pub events: u64,
    /// Global-memory operations (reads + writes + fetch-adds), all PEs.
    pub gm_ops: u64,
    /// GM request messages that crossed the wire / simulated network.
    pub gm_request_msgs: u64,
    /// GM retransmits (live runs under fault plans).
    pub retries: u64,
    /// Merged GM latency p50 across PEs (ns; virtual on sim runs).
    pub p50_ns: u64,
    /// Merged GM latency p99 across PEs (ns; virtual on sim runs).
    pub p99_ns: u64,
    /// Merged GM latency p99.9 across PEs (ns; virtual on sim runs).
    pub p999_ns: u64,
    /// p50 of the time an application spent blocked per GM wait, merged
    /// across PEs (live runs only; 0 on sim rows): a request's latency
    /// less this is the requester's own client code.
    pub blocked_p50_ns: u64,
    /// Causal-blame decomposition of the run's wall clock, summed over
    /// PEs (live runs only; 0 on sim rows). The six columns partition
    /// each PE's app-span wall time, so
    /// `compute + serve + net + retry + barrier + lock` equals the sum
    /// of per-PE app-span durations.
    pub blame_compute_ns: u64,
    pub blame_serve_ns: u64,
    pub blame_net_ns: u64,
    pub blame_retry_ns: u64,
    pub blame_barrier_ns: u64,
    pub blame_lock_ns: u64,
}

/// CSV header matching [`RunRecord::to_csv_line`].
pub const CSV_HEADER: &str = "idx,cell,scenario,app,engine,transport,scheduler,platform,procs,\
gm_window,cache,gm_mode,fault_plan,seed,status,note,wall_ns,virtual_ns,events,gm_ops,\
gm_request_msgs,retries,p50_ns,p99_ns,p999_ns,blocked_p50_ns,blame_compute_ns,blame_serve_ns,\
blame_net_ns,blame_retry_ns,blame_barrier_ns,blame_lock_ns";

impl RunRecord {
    /// A failure row for a run that produced no metrics.
    pub fn failed(spec: &RunSpec, status: RunStatus, note: impl Into<String>) -> RunRecord {
        RunRecord {
            idx: spec.idx,
            cell: spec.cell_id(),
            scenario: spec.scenario.clone(),
            app: spec.app.clone(),
            engine: spec.engine.clone(),
            transport: spec.transport.clone(),
            scheduler: spec.scheduler.clone(),
            platform: spec.platform.clone(),
            procs: spec.procs,
            gm_window: spec.gm_window,
            cache: spec.cache,
            gm_mode: spec.gm_mode.clone(),
            fault_plan: spec.fault_plan.clone(),
            seed: spec.seed,
            status,
            note: note.into(),
            wall_ns: 0,
            virtual_ns: 0,
            events: 0,
            gm_ops: 0,
            gm_request_msgs: 0,
            retries: 0,
            p50_ns: 0,
            p99_ns: 0,
            p999_ns: 0,
            blocked_p50_ns: 0,
            blame_compute_ns: 0,
            blame_serve_ns: 0,
            blame_net_ns: 0,
            blame_retry_ns: 0,
            blame_barrier_ns: 0,
            blame_lock_ns: 0,
        }
    }

    /// Serialize as one JSON line.
    pub fn to_json_line(&self) -> String {
        format!(
            concat!(
                "{{\"idx\":{},\"cell\":\"{}\",\"scenario\":\"{}\",\"app\":\"{}\",",
                "\"engine\":\"{}\",\"transport\":\"{}\",\"scheduler\":\"{}\",",
                "\"platform\":\"{}\",\"procs\":{},",
                "\"gm_window\":{},\"cache\":{},\"gm_mode\":\"{}\",\"fault_plan\":\"{}\",\"seed\":{},",
                "\"status\":\"{}\",\"note\":\"{}\",\"wall_ns\":{},\"virtual_ns\":{},",
                "\"events\":{},\"gm_ops\":{},\"gm_request_msgs\":{},\"retries\":{},",
                "\"p50_ns\":{},\"p99_ns\":{},\"p999_ns\":{},\"blocked_p50_ns\":{},",
                "\"blame_compute_ns\":{},\"blame_serve_ns\":{},\"blame_net_ns\":{},",
                "\"blame_retry_ns\":{},\"blame_barrier_ns\":{},\"blame_lock_ns\":{}}}"
            ),
            self.idx,
            json::escape(&self.cell),
            json::escape(&self.scenario),
            json::escape(&self.app),
            json::escape(&self.engine),
            json::escape(&self.transport),
            json::escape(&self.scheduler),
            json::escape(&self.platform),
            self.procs,
            self.gm_window,
            self.cache,
            json::escape(&self.gm_mode),
            json::escape(&self.fault_plan),
            self.seed,
            self.status.name(),
            json::escape(&self.note),
            self.wall_ns,
            self.virtual_ns,
            self.events,
            self.gm_ops,
            self.gm_request_msgs,
            self.retries,
            self.p50_ns,
            self.p99_ns,
            self.p999_ns,
            self.blocked_p50_ns,
            self.blame_compute_ns,
            self.blame_serve_ns,
            self.blame_net_ns,
            self.blame_retry_ns,
            self.blame_barrier_ns,
            self.blame_lock_ns,
        )
    }

    /// The canonical form of the row: every wall-clock-derived field
    /// zeroed. Two runs of the same sim spec and seed must produce
    /// byte-identical canonical lines (the determinism test relies on
    /// this); live rows additionally zero their wall-clock latency
    /// quantiles and blame columns.
    pub fn canonical_line(&self) -> String {
        let mut c = self.clone();
        c.wall_ns = 0;
        if c.engine == "live" {
            c.p50_ns = 0;
            c.p99_ns = 0;
            c.p999_ns = 0;
            c.blocked_p50_ns = 0;
            c.blame_compute_ns = 0;
            c.blame_serve_ns = 0;
            c.blame_net_ns = 0;
            c.blame_retry_ns = 0;
            c.blame_barrier_ns = 0;
            c.blame_lock_ns = 0;
        }
        c.to_json_line()
    }

    /// Serialize as one CSV line (columns per [`CSV_HEADER`]).
    pub fn to_csv_line(&self) -> String {
        let csv = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            self.idx,
            csv(&self.cell),
            csv(&self.scenario),
            csv(&self.app),
            self.engine,
            self.transport,
            self.scheduler,
            self.platform,
            self.procs,
            self.gm_window,
            self.cache,
            self.gm_mode,
            csv(&self.fault_plan),
            self.seed,
            self.status.name(),
            csv(&self.note),
            self.wall_ns,
            self.virtual_ns,
            self.events,
            self.gm_ops,
            self.gm_request_msgs,
            self.retries,
            self.p50_ns,
            self.p99_ns,
            self.p999_ns,
            self.blocked_p50_ns,
            self.blame_compute_ns,
            self.blame_serve_ns,
            self.blame_net_ns,
            self.blame_retry_ns,
            self.blame_barrier_ns,
            self.blame_lock_ns,
        )
    }

    /// Parse a row back from its JSON line.
    pub fn from_json_line(line: &str) -> Result<RunRecord, String> {
        let v = json::parse(line)?;
        let s = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("row missing string field '{key}'"))
        };
        let n = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("row missing numeric field '{key}'"))
        };
        let status_name = s("status")?;
        let engine = s("engine")?;
        Ok(RunRecord {
            idx: n("idx")? as usize,
            cell: s("cell")?,
            scenario: s("scenario")?,
            app: s("app")?,
            transport: s("transport")?,
            // Rows written before the scheduler axis existed all ran the
            // thread-per-PE engine; sim rows leave the field empty.
            scheduler: v
                .get("scheduler")
                .and_then(Value::as_str)
                .unwrap_or(if engine == "live" { "threads" } else { "" })
                .to_string(),
            engine,
            platform: s("platform")?,
            procs: n("procs")? as usize,
            gm_window: n("gm_window")? as usize,
            cache: v
                .get("cache")
                .and_then(Value::as_bool)
                .ok_or("row missing boolean field 'cache'")?,
            // Rows written before the coherence axis existed default to
            // write-invalidate, the mode those rows actually ran under.
            gm_mode: v
                .get("gm_mode")
                .and_then(Value::as_str)
                .unwrap_or("wi")
                .to_string(),
            fault_plan: s("fault_plan")?,
            seed: n("seed")?,
            status: RunStatus::parse(&status_name)
                .ok_or_else(|| format!("unknown status '{status_name}'"))?,
            note: s("note")?,
            wall_ns: n("wall_ns")?,
            virtual_ns: n("virtual_ns")?,
            events: n("events")?,
            gm_ops: n("gm_ops")?,
            gm_request_msgs: n("gm_request_msgs")?,
            retries: n("retries")?,
            p50_ns: n("p50_ns")?,
            p99_ns: n("p99_ns")?,
            p999_ns: n("p999_ns")?,
            // Rows written before the column existed recorded no waits.
            blocked_p50_ns: n("blocked_p50_ns").unwrap_or(0),
            blame_compute_ns: n("blame_compute_ns")?,
            blame_serve_ns: n("blame_serve_ns")?,
            blame_net_ns: n("blame_net_ns")?,
            blame_retry_ns: n("blame_retry_ns")?,
            blame_barrier_ns: n("blame_barrier_ns")?,
            blame_lock_ns: n("blame_lock_ns")?,
        })
    }
}

/// Merge every `gm/*_ns` operation-latency histogram across PEs and return
/// `(p50, p99, p99.9)` — the latency columns of the row — and the p50 of
/// `gm/blocked_ns`, which times waits inside those operations, not
/// operations, and gets its own column.
fn gm_latency_quantiles(metrics: &MetricsSnapshot) -> (u64, u64, u64, u64) {
    let mut merged = LogHistogram::new();
    let mut blocked = LogHistogram::new();
    for (key, hist) in &metrics.histograms {
        if key.subsystem == "gm" && key.name == "blocked_ns" {
            blocked.merge(hist);
        } else if key.subsystem == "gm" && key.name.ends_with("_ns") {
            merged.merge(hist);
        }
    }
    (merged.p50(), merged.p99(), merged.p999(), blocked.p50())
}

/// Sum the kernel counters that constitute "GM operations" on the sim
/// engine, where reads/writes are split by locality.
fn sim_gm_ops(metrics: &MetricsSnapshot) -> u64 {
    [
        "gm_local_reads",
        "gm_remote_reads",
        "gm_local_writes",
        "gm_remote_writes",
        "fetch_adds",
    ]
    .iter()
    .map(|name| metrics.counter_sum_over_pes("kernel", name))
    .sum()
}

/// Execute one run in-process and produce its row. Aborted live runs
/// yield a row with `status = abort`; spec-level failures yield
/// `status = error`. Timeouts are enforced by the parent process, not
/// here.
pub fn execute_run(spec: &RunSpec) -> RunRecord {
    let app = match AppKind::parse(&spec.app) {
        Ok(app) => app,
        Err(e) => return RunRecord::failed(spec, RunStatus::Error, e),
    };
    if spec.engine == "sim" {
        execute_sim(spec, app)
    } else {
        execute_live(spec, app)
    }
}

fn execute_sim(spec: &RunSpec, app: AppKind) -> RunRecord {
    let settings = SimSettings {
        platform: spec.platform.clone(),
        organization: spec.organization.clone(),
        protocol: spec.protocol.clone(),
        cache: spec.cache,
        gm_mode: spec.gm_mode.clone(),
        machines: spec.machines,
        tracing: false,
        telemetry_ms: None,
        seed: Some(spec.seed),
        gm_window: spec.gm_window,
    };
    let (platform, config) = match build::build_sim(&settings) {
        Ok(v) => v,
        Err(e) => return RunRecord::failed(spec, RunStatus::Error, e),
    };
    let program = DseProgram::new(platform).with_config(config);
    let p = &spec.params;
    let started = Instant::now();
    let run: RunResult = match app {
        AppKind::Gauss => {
            let params = gauss_seidel::GaussSeidelParams::paper(p.n);
            gauss_seidel::solve_parallel(&program, spec.procs, params).0
        }
        AppKind::GaussMp => {
            let params = gauss_seidel::GaussSeidelParams::paper(p.n);
            gauss_seidel_mp::solve_parallel_mp(&program, spec.procs, params).0
        }
        AppKind::Dct => {
            let mut params = dct::DctParams::paper(p.block);
            if p.size != 0 {
                params.size = p.size;
            }
            dct::compress_parallel(&program, spec.procs, params).0
        }
        AppKind::Othello => {
            let params = othello::OthelloParams::paper(p.depth);
            othello::search_parallel(&program, spec.procs, params).0
        }
        AppKind::Matmul => {
            let params = matmul::MatmulParams::single(p.n.min(256));
            matmul::multiply_parallel(&program, spec.procs, params).0
        }
        AppKind::Knights => {
            let params = knights::KnightsParams::paper(p.jobs);
            knights::count_parallel(&program, spec.procs, params).0
        }
    };
    let wall_ns = started.elapsed().as_nanos() as u64;
    let (p50_ns, p99_ns, p999_ns, _) = gm_latency_quantiles(&run.metrics);
    RunRecord {
        wall_ns,
        virtual_ns: run.report.end_time.as_nanos(),
        events: run
            .metrics
            .counter("sim", "events_processed", None)
            .unwrap_or(0),
        gm_ops: sim_gm_ops(&run.metrics),
        gm_request_msgs: run
            .metrics
            .counter_sum_over_pes("kernel", "gm_request_msgs"),
        retries: run.metrics.counter_sum_over_pes("kernel", "gm_retries"),
        p50_ns,
        p99_ns,
        p999_ns,
        status: RunStatus::Ok,
        note: String::new(),
        ..RunRecord::failed(spec, RunStatus::Ok, "")
    }
}

fn execute_live(spec: &RunSpec, app: AppKind) -> RunRecord {
    if !app.live_ok() {
        return RunRecord::failed(
            spec,
            RunStatus::Error,
            format!("app '{}' does not run on the live engine", spec.app),
        );
    }
    let mut cfg = match build::build_live(
        &spec.transport,
        Some(spec.fault_plan.as_str()),
        Some(spec.seed),
        spec.cache,
        &spec.gm_mode,
        &spec.scheduler,
    ) {
        Ok(cfg) => cfg,
        Err(e) => return RunRecord::failed(spec, RunStatus::Error, e),
    };
    // Always trace live cells: the row's blame columns decompose the
    // run's wall clock, so every sweep shows *where* a cell's time went.
    cfg.tracing = true;
    let p = spec.params;
    let runner = LiveRunner::new(spec.procs).config(cfg);
    let started = Instant::now();
    let outcome: Result<LiveRunResult, _> = match app {
        AppKind::Gauss => {
            let params = gauss_seidel::GaussSeidelParams::paper(p.n);
            runner.try_run(move |ctx: &mut LiveCtx| {
                gauss_seidel::body(ctx, &params);
            })
        }
        AppKind::Dct => {
            let mut params = dct::DctParams::paper(p.block);
            if p.size != 0 {
                params.size = p.size;
            }
            runner.try_run(move |ctx: &mut LiveCtx| {
                dct::body(ctx, &params);
            })
        }
        AppKind::Othello => {
            let params = othello::OthelloParams::paper(p.depth);
            runner.try_run(move |ctx: &mut LiveCtx| {
                othello::body(ctx, &params);
            })
        }
        AppKind::Matmul => {
            let params = matmul::MatmulParams::single(p.n.min(256));
            runner.try_run(move |ctx: &mut LiveCtx| {
                matmul::body(ctx, &params);
            })
        }
        AppKind::Knights => {
            let params = knights::KnightsParams::paper(p.jobs);
            runner.try_run(move |ctx: &mut LiveCtx| {
                knights::body(ctx, &params);
            })
        }
        AppKind::GaussMp => unreachable!("rejected above"),
    };
    let wall_ns = started.elapsed().as_nanos() as u64;
    match outcome {
        Ok(run) => {
            let (p50_ns, p99_ns, p999_ns, blocked_p50_ns) = gm_latency_quantiles(&run.metrics);
            let blame = dse_trace::blame(&dse_trace::assemble(&run.trace_spans)).total();
            RunRecord {
                wall_ns,
                events: 0,
                gm_ops: run.metrics.counter_sum_over_pes("kernel", "gm_ops"),
                gm_request_msgs: run
                    .metrics
                    .counter_sum_over_pes("kernel", "gm_request_msgs"),
                retries: run.metrics.counter_sum_over_pes("kernel", "gm_retries"),
                p50_ns,
                p99_ns,
                p999_ns,
                blocked_p50_ns,
                blame_compute_ns: blame.compute_ns,
                blame_serve_ns: blame.serve_ns,
                blame_net_ns: blame.net_ns,
                blame_retry_ns: blame.retry_ns,
                blame_barrier_ns: blame.barrier_ns,
                blame_lock_ns: blame.lock_ns,
                status: RunStatus::Ok,
                note: String::new(),
                ..RunRecord::failed(spec, RunStatus::Ok, "")
            }
        }
        Err(err) => {
            let mut rec = RunRecord::failed(
                spec,
                RunStatus::Abort,
                err.report().lines().next().unwrap_or("aborted").to_string(),
            );
            rec.wall_ns = wall_ns;
            rec
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{expand, parse_spec};

    fn tiny_sim_spec() -> RunSpec {
        let spec =
            parse_spec("[[scenario]]\nname = \"t\"\napp = \"matmul\"\nprocs = [2]\nn = 16\n")
                .unwrap();
        expand(&spec).remove(0)
    }

    #[test]
    fn sim_run_produces_a_complete_row() {
        let rs = tiny_sim_spec();
        let row = execute_run(&rs);
        assert_eq!(row.status, RunStatus::Ok, "{}", row.note);
        assert!(row.events > 0, "sim/events_processed must be counted");
        assert!(row.gm_ops > 0);
        assert!(row.virtual_ns > 0);
        assert!(row.wall_ns > 0);
        assert_eq!(row.cell, "t.matmul.sim.sunos.w0.c0.p2");
    }

    #[test]
    fn live_run_produces_gm_ops() {
        let spec = parse_spec(
            "[[scenario]]\nname = \"l\"\napp = \"matmul\"\nengine = \"live\"\nprocs = [2]\nn = 16\n",
        )
        .unwrap();
        let rs = expand(&spec).remove(0);
        let row = execute_run(&rs);
        assert_eq!(row.status, RunStatus::Ok, "{}", row.note);
        assert!(
            row.gm_ops > 0,
            "kernel/gm_ops must be counted on the live path"
        );
        assert_eq!(row.virtual_ns, 0);
        // Live cells always trace, so the blame decomposition is
        // populated and partitions the PEs' app-span wall time.
        let parts = row.blame_compute_ns
            + row.blame_serve_ns
            + row.blame_net_ns
            + row.blame_retry_ns
            + row.blame_barrier_ns
            + row.blame_lock_ns;
        assert!(parts > 0, "blame columns must be populated on live rows");
        assert!(row.blame_compute_ns > 0);
        assert!(row.p999_ns >= row.p99_ns);
        // A remote operation includes the wait for its answer, and rows
        // from before the column existed still parse.
        assert!(row.blocked_p50_ns > 0 && row.blocked_p50_ns <= row.p999_ns);
        let line = row.to_json_line();
        let legacy = line.replace(&format!("\"blocked_p50_ns\":{},", row.blocked_p50_ns), "");
        assert_ne!(legacy, line);
        assert_eq!(
            RunRecord::from_json_line(&legacy).unwrap().blocked_p50_ns,
            0
        );
    }

    #[test]
    fn live_tasks_scheduler_row_and_legacy_parse_default() {
        let spec = parse_spec(
            "[[scenario]]\nname = \"l\"\napp = \"matmul\"\nengine = \"live\"\nprocs = [2]\n\
             n = 16\nscheduler = \"tasks\"\n",
        )
        .unwrap();
        let rs = expand(&spec).remove(0);
        assert_eq!(rs.cell_id(), "l.matmul.live.channel.tasks.p2");
        let row = execute_run(&rs);
        assert_eq!(row.status, RunStatus::Ok, "{}", row.note);
        assert_eq!(row.scheduler, "tasks");
        assert!(row.gm_ops > 0);
        // Rows serialized before the scheduler axis existed parse with the
        // scheduler those rows actually ran under.
        let legacy = row.to_json_line().replace("\"scheduler\":\"tasks\",", "");
        let back = RunRecord::from_json_line(&legacy).unwrap();
        assert_eq!(back.scheduler, "threads");
    }

    #[test]
    fn rows_roundtrip_through_json() {
        let rs = tiny_sim_spec();
        let row = execute_run(&rs);
        let back = RunRecord::from_json_line(&row.to_json_line()).unwrap();
        assert_eq!(back, row);
        // Canonical form zeroes the wall clock but keeps everything else.
        let canon = RunRecord::from_json_line(&row.canonical_line()).unwrap();
        assert_eq!(canon.wall_ns, 0);
        assert_eq!(canon.events, row.events);
    }

    #[test]
    fn same_seed_sim_rows_are_byte_identical() {
        let rs = tiny_sim_spec();
        let a = execute_run(&rs).canonical_line();
        let b = execute_run(&rs).canonical_line();
        assert_eq!(a, b);
    }

    #[test]
    fn csv_line_has_header_arity() {
        let rs = tiny_sim_spec();
        let row = execute_run(&rs);
        assert_eq!(
            row.to_csv_line().split(',').count(),
            CSV_HEADER.split(',').count()
        );
    }
}
