//! In-process execution of one expanded [`RunSpec`], producing one
//! columnar [`RunRecord`] row from the run's metrics snapshot.

use std::collections::HashMap;
use std::time::Instant;

use dse_obs::{LogHistogram, MetricsSnapshot};

use crate::build::{self, AppKind, Outcome};
use crate::json::{self, Value};
use crate::spec::RunSpec;

/// Terminal status of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum RunStatus {
    /// Completed normally.
    Ok,
    /// The live engine aborted (structured failure report).
    Abort,
    /// The harness failed to execute the run (bad spec, crashed child).
    /// The default, so a row nobody filled in never reads as a success.
    #[default]
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

impl std::fmt::Display for RunStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// On which engine a column repeats to the bit for the same spec and
/// seed. The gate compares exactly the columns that are exact on a row's
/// engine; the canonical form of a row zeroes the others.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exact {
    /// Host time, or a count that depends on it: information only.
    Never,
    /// Exact on simulated rows.
    Sim,
    /// Exact on simulated and live rows.
    Both,
}

impl Exact {
    /// Whether the column is exact on a row of `engine`.
    pub fn on(self, engine: &str) -> bool {
        match self {
            Exact::Never => false,
            Exact::Sim => engine == "sim",
            Exact::Both => true,
        }
    }
}

/// One entry of the column table ([`COLUMNS`]).
#[derive(Debug, Clone, Copy)]
pub struct Column {
    /// Key in a JSONL row and title in the CSV header.
    pub name: &'static str,
    /// Where the column is exact.
    pub exact: Exact,
    /// Whether JSON writes the value as a string.
    quoted: bool,
}

/// A column's value type: written with `to_string`, read back here.
/// `Default` is the value a column takes where it is zeroed.
trait Field: Sized + Default + ToString {
    /// Whether JSON writes the value as a string.
    const QUOTED: bool = false;
    fn read(v: &Value) -> Option<Self>;
}

impl Field for u64 {
    fn read(v: &Value) -> Option<u64> {
        v.as_u64()
    }
}

impl Field for usize {
    fn read(v: &Value) -> Option<usize> {
        v.as_u64().map(|n| n as usize)
    }
}

impl Field for bool {
    fn read(v: &Value) -> Option<bool> {
        v.as_bool()
    }
}

impl Field for String {
    const QUOTED: bool = true;
    fn read(v: &Value) -> Option<String> {
        v.as_str().map(str::to_string)
    }
}

impl Field for RunStatus {
    const QUOTED: bool = true;
    fn read(v: &Value) -> Option<RunStatus> {
        v.as_str().and_then(RunStatus::parse)
    }
}

/// Declares the row: each column once, with its type and where it is
/// exact. The struct, the column table, the JSONL and CSV writers, the
/// parser and the canonical form all follow from this list.
macro_rules! columns {
    ($( $(#[$doc:meta])* $name:ident: $ty:ty, $exact:ident; )*) => {
        /// One per-run metrics row. Serialized as a single JSONL line (and
        /// a CSV line with the same columns); the aggregate layer groups
        /// rows by `cell` and folds the seeds of each cell into one summary.
        #[derive(Debug, Clone, Default, PartialEq)]
        pub struct RunRecord {
            $( $(#[$doc])* pub $name: $ty, )*
        }

        /// The column table, in row order.
        pub const COLUMNS: &[Column] = &[
            $( Column {
                name: stringify!($name),
                exact: Exact::$exact,
                quoted: <$ty as Field>::QUOTED,
            }, )*
        ];

        impl RunRecord {
            /// Every value as text, in [`COLUMNS`] order.
            fn texts(&self) -> Vec<String> {
                vec![$( self.$name.to_string(), )*]
            }

            /// Parse a row back from its JSON line. A row without one of
            /// the declared columns is an error that names the column.
            pub fn from_json_line(line: &str) -> Result<RunRecord, String> {
                let v = json::parse(line)?;
                Ok(RunRecord {
                    $( $name: v
                        .get(stringify!($name))
                        .and_then(Field::read)
                        .ok_or(concat!("row has no valid '", stringify!($name), "' column"))?, )*
                })
            }
        }
    };
}

columns! {
    /// Cell id (all axes except the seed). With the seed it names the run:
    /// a row carries no matrix index, so adding a seed or a scenario to a
    /// spec moves no baseline row.
    cell: String, Both;
    /// Axes, echoed for columnar analysis.
    scenario: String, Both;
    app: String, Both;
    engine: String, Both;
    transport: String, Both;
    scheduler: String, Both;
    platform: String, Both;
    procs: usize, Both;
    gm_window: usize, Both;
    cache: bool, Both;
    gm_mode: String, Both;
    fault_plan: String, Both;
    seed: u64, Both;
    /// Outcome: `ok` means the run completed *and* its answer passed the
    /// application's acceptance test.
    status: RunStatus, Both;
    /// Digest of rank 0's answer, 16 hex digits (solution bits, kept
    /// coefficients, best move + score, tour count, product matrix,
    /// checksum): the sim and the live row of one cell carry the same one.
    /// Empty when the run produced no answer.
    result: String, Both;
    /// Failure detail (empty on success).
    note: String, Never;
    /// Host wall-clock nanoseconds for the run.
    wall_ns: u64, Never;
    /// Virtual nanoseconds until the last event (sim runs; 0 on live
    /// runs).
    virtual_ns: u64, Sim;
    /// Virtual nanoseconds of the parallel application as its launcher
    /// observes them — the execution time the paper's figures plot (sim
    /// runs; 0 on live runs).
    elapsed_ns: u64, Sim;
    /// Simulator events processed (sim runs; 0 on live runs).
    events: u64, Sim;
    /// Of `events`: wakes that resumed another process's thread, one OS
    /// context switch each (`SimStats::handoffs`).
    handoffs: u64, Sim;
    /// Of `events`: wakes completed in place without going through the
    /// event heap (`SimStats::inline_wakes`).
    inline_wakes: u64, Sim;
    /// Order-sensitive digest of the whole event sequence, 16 hex digits
    /// (a string: JSON numbers hold 53 bits). Empty on live rows.
    trace_hash: String, Sim;
    /// Frames the simulated interconnect carried.
    net_frames: u64, Sim;
    /// Collision/backoff rounds on the simulated shared bus.
    net_collisions: u64, Sim;
    /// Global-memory operations, all PEs: one per read, write or
    /// fetch-add entry-point call (`kernel/gm_ops`), counted by the shared
    /// client on both engines.
    gm_ops: u64, Both;
    /// GM request messages that crossed the wire / simulated network.
    /// On live rows coalescing depends on arrival timing, so the count
    /// does not repeat.
    gm_request_msgs: u64, Sim;
    /// GM retransmits (live runs under fault plans).
    retries: u64, Both;
    /// Merged GM latency p50 across PEs (ns; virtual on sim runs).
    p50_ns: u64, Sim;
    /// Merged GM latency p99 across PEs (ns; virtual on sim runs).
    p99_ns: u64, Sim;
    /// Merged GM latency p99.9 across PEs (ns; virtual on sim runs).
    p999_ns: u64, Sim;
    /// p50 of the time an application spent blocked per GM wait, merged
    /// across PEs (ns; virtual on sim runs): a request's latency less this
    /// is the requester's own client code.
    blocked_p50_ns: u64, Sim;
    /// Causal-blame decomposition of the run's clock, summed over PEs:
    /// virtual time on sim rows, where it repeats to the nanosecond, wall
    /// time on live rows. The seven columns partition each PE's app-span
    /// time, so `compute + cpu_queue + serve + net + retry + barrier +
    /// lock` equals the sum of per-PE app-span durations (`cpu_queue` is 0
    /// on live rows, `retry` on sim rows).
    blame_compute_ns: u64, Sim;
    blame_cpu_queue_ns: u64, Sim;
    blame_serve_ns: u64, Sim;
    blame_net_ns: u64, Sim;
    blame_retry_ns: u64, Sim;
    blame_barrier_ns: u64, Sim;
    blame_lock_ns: u64, Sim;
}

impl RunRecord {
    /// The summed app-span time the blame columns partition.
    pub fn app_span_ns(&self) -> u64 {
        self.blame_compute_ns
            + self.blame_cpu_queue_ns
            + self.blame_serve_ns
            + self.blame_net_ns
            + self.blame_retry_ns
            + self.blame_barrier_ns
            + self.blame_lock_ns
    }

    /// A failure row for a run that produced no metrics.
    pub fn failed(spec: &RunSpec, status: RunStatus, note: impl Into<String>) -> RunRecord {
        RunRecord {
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
            ..RunRecord::default()
        }
    }

    /// Serialize as one JSON line.
    pub fn to_json_line(&self) -> String {
        json_line(self.texts())
    }

    /// The canonical form of the row, which is what a baseline holds:
    /// every column that is not exact on the row's engine zeroed. Two runs
    /// of the same spec and seed produce byte-identical canonical lines.
    pub fn canonical_line(&self) -> String {
        let values = self.texts().into_iter().zip(RunRecord::default().texts());
        let kept = COLUMNS.iter().zip(values).map(|(col, (text, zero))| {
            if col.exact.on(&self.engine) {
                text
            } else {
                zero
            }
        });
        json_line(kept.collect())
    }

    /// Serialize as one CSV line (columns per [`csv_header`]).
    pub fn to_csv_line(&self) -> String {
        let quote = |s: String| {
            if s.contains([',', '"']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s
            }
        };
        let fields: Vec<String> = self.texts().into_iter().map(quote).collect();
        fields.join(",")
    }

    /// Where this row differs from its `baseline` row in a column that is
    /// exact on its engine: `(column, was, now)`.
    pub fn exact_diffs(&self, baseline: &RunRecord) -> Vec<(&'static str, String, String)> {
        let pairs = baseline.texts().into_iter().zip(self.texts());
        COLUMNS
            .iter()
            .zip(pairs)
            .filter(|(col, (was, now))| col.exact.on(&self.engine) && was != now)
            .map(|(col, (was, now))| (col.name, was, now))
            .collect()
    }
}

/// One JSON object with `texts` as the values of [`COLUMNS`].
fn json_line(texts: Vec<String>) -> String {
    let members: Vec<String> = COLUMNS
        .iter()
        .zip(texts)
        .map(|(col, text)| {
            if col.quoted {
                format!("\"{}\":\"{}\"", col.name, json::escape(&text))
            } else {
                format!("\"{}\":{text}", col.name)
            }
        })
        .collect();
    format!("{{{}}}", members.join(","))
}

/// CSV header matching [`RunRecord::to_csv_line`].
pub fn csv_header() -> String {
    let names: Vec<&str> = COLUMNS.iter().map(|col| col.name).collect();
    names.join(",")
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

/// Execute one run in-process and produce its row. Aborted live runs
/// yield a row with `status = abort`; spec-level failures and an answer
/// that fails the application's own acceptance test yield `status =
/// error`. Answers that have a sequential reference are compared with it
/// by [`References`]. Timeouts are enforced by the parent process, not
/// here.
pub fn execute_run(spec: &RunSpec) -> RunRecord {
    let started = Instant::now();
    // Every cell traces: the blame columns say where its time went, and
    // recording moves nothing else in the row.
    match build::launch(spec, true, None) {
        Ok(outcome) => record(spec, &outcome, started.elapsed().as_nanos() as u64),
        Err(e) => RunRecord::failed(spec, RunStatus::Error, e),
    }
}

/// The row of one launched run, either engine: ok unless the answer fails
/// its own acceptance test, with the blame columns filled from the spans
/// and the simulator's exact counters on sim rows.
pub fn record(spec: &RunSpec, outcome: &Outcome, wall_ns: u64) -> RunRecord {
    let (metrics, answer) = match outcome {
        Outcome::Sim(run, answer) => (&run.metrics, answer),
        Outcome::Live(run, answer) => (&run.metrics, answer),
        Outcome::Abort(err) => {
            let note = err.report().lines().next().unwrap_or("aborted").to_string();
            return RunRecord {
                wall_ns,
                ..RunRecord::failed(spec, RunStatus::Abort, note)
            };
        }
    };
    let blame = dse_trace::blame(&dse_trace::assemble(outcome.trace_spans())).total();
    let (status, note) = match answer.self_check(&spec.params) {
        Ok(()) => (RunStatus::Ok, String::new()),
        Err(e) => (RunStatus::Error, e),
    };
    let (p50_ns, p99_ns, p999_ns, blocked_p50_ns) = gm_latency_quantiles(metrics);
    let kernel = |name| metrics.counter_sum_over_pes("kernel", name);
    let row = RunRecord {
        result: answer.digest(),
        wall_ns,
        gm_ops: kernel("gm_ops"),
        gm_request_msgs: kernel("gm_request_msgs"),
        retries: kernel("gm_retries"),
        p50_ns,
        p99_ns,
        p999_ns,
        blocked_p50_ns,
        blame_compute_ns: blame.compute_ns,
        blame_cpu_queue_ns: blame.cpu_queue_ns,
        blame_serve_ns: blame.serve_ns,
        blame_net_ns: blame.net_ns,
        blame_retry_ns: blame.retry_ns,
        blame_barrier_ns: blame.barrier_ns,
        blame_lock_ns: blame.lock_ns,
        ..RunRecord::failed(spec, status, note)
    };
    let Outcome::Sim(run, _) = outcome else {
        return row;
    };
    let stats = &run.report.stats;
    RunRecord {
        virtual_ns: run.report.end_time.as_nanos(),
        elapsed_ns: run.elapsed.as_nanos(),
        events: stats.events,
        handoffs: stats.handoffs,
        inline_wakes: stats.inline_wakes,
        trace_hash: format!("{:016x}", run.report.trace_hash),
        net_frames: run.net_frames,
        net_collisions: run.net_collisions,
        ..row
    }
}

/// Sequential reference answers, each computed once however many rows
/// share it (a figure's curve over 12 processor counts has one).
#[derive(Debug, Default)]
pub struct References(HashMap<(String, build::AppParams), Option<String>>);

impl References {
    /// Hold an ok row to its application's sequential reference: a digest
    /// that differs makes the row `error`, with both digests in the note.
    /// Apps without a reference (Gauss-Seidel tests itself) pass through.
    pub fn verify(&mut self, spec: &RunSpec, row: &mut RunRecord) {
        if row.status != RunStatus::Ok {
            return;
        }
        let reference = || {
            let app = AppKind::parse(&spec.app).ok()?;
            Some(app.reference(&spec.params)?.digest())
        };
        let want = self
            .0
            .entry((spec.app.clone(), spec.params))
            .or_insert_with(reference);
        if let Some(want) = want.as_ref().filter(|want| **want != row.result) {
            row.status = RunStatus::Error;
            row.note = format!(
                "result {} differs from the sequential reference {want}",
                row.result
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{expand, parse_spec};
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn first_run(spec: &str) -> RunSpec {
        expand(&parse_spec(spec).unwrap()).remove(0)
    }

    fn tiny_sim_spec() -> RunSpec {
        first_run("[[scenario]]\nname = \"t\"\napp = \"matmul\"\nprocs = [2]\nn = 16\n")
    }

    #[test]
    fn sim_run_produces_a_complete_row() {
        let row = execute_run(&tiny_sim_spec());
        assert_eq!(row.status, RunStatus::Ok, "{}", row.note);
        assert!(row.events > 0 && row.events >= row.handoffs + row.inline_wakes);
        assert!(row.handoffs > 0);
        assert_eq!(row.trace_hash.len(), 16);
        assert!(row.net_frames > 0);
        assert!(row.gm_ops > 0);
        assert!(row.virtual_ns > 0);
        assert!(row.wall_ns > 0);
        assert_eq!(row.cell, "t.matmul.sim.sunos.w0.c0.p2");
        // Sim cells always trace: blame partitions the ranks' virtual time,
        // and nothing is ever retransmitted on the simulated wire.
        assert!(row.blame_compute_ns > 0 && row.blame_net_ns > 0);
        assert_eq!(row.blame_retry_ns, 0);
    }

    #[test]
    fn live_run_produces_gm_ops() {
        let row = execute_run(&first_run(
            "[[scenario]]\nname = \"l\"\napp = \"matmul\"\nengine = \"live\"\nprocs = [2]\nn = 16\n",
        ));
        assert_eq!(row.status, RunStatus::Ok, "{}", row.note);
        assert!(
            row.gm_ops > 0,
            "kernel/gm_ops must be counted on the live path"
        );
        assert_eq!(row.virtual_ns, 0);
        // Live cells always trace, so the blame decomposition is
        // populated and partitions the PEs' app-span wall time.
        assert!(row.blame_compute_ns > 0);
        assert_eq!(row.blame_cpu_queue_ns, 0, "a live rank's CPU is the host's");
        assert!(row.p999_ns >= row.p99_ns);
        // A remote operation includes the wait for its answer.
        assert!(row.blocked_p50_ns > 0 && row.blocked_p50_ns <= row.p999_ns);
    }

    #[test]
    fn live_tasks_scheduler_row() {
        let rs = first_run(
            "[[scenario]]\nname = \"l\"\napp = \"matmul\"\nengine = \"live\"\nprocs = [2]\n\
             n = 16\nscheduler = \"tasks\"\n",
        );
        assert_eq!(rs.cell_id(), "l.matmul.live.channel.tasks.p2");
        let row = execute_run(&rs);
        assert_eq!(row.status, RunStatus::Ok, "{}", row.note);
        assert_eq!(row.scheduler, "tasks");
        assert!(row.gm_ops > 0);
    }

    #[test]
    fn both_engines_answer_with_the_reference_digest_and_a_wrong_answer_is_an_error() {
        let sim = tiny_sim_spec();
        let live = first_run(
            "[[scenario]]\nname = \"t\"\napp = \"matmul\"\nengine = \"live\"\nprocs = [2]\nn = 16\n",
        );
        let want = AppKind::Matmul.reference(&sim.params).map(|a| a.digest());
        let mut references = References::default();
        for rs in [&sim, &live] {
            let mut row = execute_run(rs);
            references.verify(rs, &mut row);
            assert_eq!(row.status, RunStatus::Ok, "{}", row.note);
            assert_eq!(Some(&row.result), want.as_ref(), "{}", rs.engine);
        }
        // The launcher's clock stops before the kernels are shut down.
        let mut row = execute_run(&sim);
        assert!(row.elapsed_ns > 0 && row.elapsed_ns < row.virtual_ns);
        row.result = "0".repeat(16);
        references.verify(&sim, &mut row);
        assert_eq!(row.status, RunStatus::Error);
        assert!(row.note.contains("differs from the sequential reference"));
        // Gauss-Seidel has no sequential reference: its row stands as run.
        let gauss = first_run("[[scenario]]\nname = \"g\"\nprocs = [2]\nn = 32\n");
        let mut row = execute_run(&gauss);
        references.verify(&gauss, &mut row);
        assert_eq!((row.status, row.result.len()), (RunStatus::Ok, 16));
    }

    #[test]
    fn same_seed_sim_rows_are_byte_identical() {
        let rs = tiny_sim_spec();
        let a = execute_run(&rs).canonical_line();
        let b = execute_run(&rs).canonical_line();
        assert_eq!(a, b);
    }

    #[test]
    fn a_row_missing_a_column_is_an_error_that_names_it() {
        let line = RunRecord::failed(&tiny_sim_spec(), RunStatus::Ok, "").to_json_line();
        for col in COLUMNS {
            let cut = line.find(&format!("\"{}\":", col.name)).unwrap();
            let end = line[cut..].find([',', '}']).unwrap() + cut;
            let without = format!("{}\"x\":0{}", &line[..cut], &line[end..]);
            let err = RunRecord::from_json_line(&without).unwrap_err();
            assert!(err.contains(&format!("'{}'", col.name)), "{err}");
        }
        let bad = line.replace("\"status\":\"ok\"", "\"status\":\"fine\"");
        assert!(RunRecord::from_json_line(&bad)
            .unwrap_err()
            .contains("'status'"));
    }

    /// A row with a random value in every column, built from the column
    /// table alone so a new column is covered without touching the test.
    fn random_row() -> impl Strategy<Value = RunRecord> {
        const WORDS: &[&str] = &[
            "",
            "plain",
            "a,b",
            "q\"uote",
            "back\\slash",
            "line\nbreak",
            "µs",
        ];
        vec(any::<u64>(), COLUMNS.len()..COLUMNS.len() + 1).prop_map(|picks| {
            let zero = RunRecord::default().texts();
            let members: Vec<String> = COLUMNS
                .iter()
                .zip(zero.iter().zip(picks))
                .map(|(col, (zero, pick))| {
                    let pick = pick as usize;
                    let value = match col.name {
                        "status" => {
                            format!("\"{}\"", ["ok", "abort", "error", "timeout"][pick % 4])
                        }
                        "engine" => format!("\"{}\"", ["sim", "live"][pick % 2]),
                        _ if col.quoted => {
                            format!("\"{}\"", json::escape(WORDS[pick % WORDS.len()]))
                        }
                        _ if zero == "false" => (pick % 2 == 1).to_string(),
                        _ => (pick >> 11).to_string(),
                    };
                    format!("\"{}\":{value}", col.name)
                })
                .collect();
            RunRecord::from_json_line(&format!("{{{}}}", members.join(","))).unwrap()
        })
    }

    /// Fields of a CSV line, honouring quoted fields.
    fn csv_arity(line: &str) -> usize {
        let mut quoted = false;
        let mut fields = 1;
        for c in line.chars() {
            match c {
                '"' => quoted = !quoted,
                ',' if !quoted => fields += 1,
                _ => {}
            }
        }
        fields
    }

    proptest! {
        #[test]
        fn rows_roundtrip_through_json(row in random_row()) {
            let line = row.to_json_line();
            let back = RunRecord::from_json_line(&line).unwrap();
            prop_assert_eq!(&back, &row);
            prop_assert_eq!(back.to_json_line(), line);
        }

        #[test]
        fn csv_line_has_header_arity(row in random_row()) {
            prop_assert_eq!(csv_header().split(',').count(), COLUMNS.len());
            prop_assert_eq!(csv_arity(&row.to_csv_line()), COLUMNS.len());
        }

        #[test]
        fn canonical_zeroes_exactly_the_inexact_columns(row in random_row()) {
            let canon = RunRecord::from_json_line(&row.canonical_line()).unwrap();
            let zero = RunRecord::default().texts();
            for (i, col) in COLUMNS.iter().enumerate() {
                let kept = col.exact.on(&row.engine);
                let want = if kept { &row.texts()[i] } else { &zero[i] };
                prop_assert_eq!(&canon.texts()[i], want, "column {}", col.name);
            }
            // What the gate compares is what the canonical form keeps.
            prop_assert!(row.exact_diffs(&canon).is_empty());
            prop_assert_eq!(canon.canonical_line(), row.canonical_line());
        }
    }
}
