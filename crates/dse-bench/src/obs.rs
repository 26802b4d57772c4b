//! Observability probe: one fully instrumented reference run, exported in
//! every supported format.
//!
//! The figure harness calls this (under `--metrics`) to drop a metrics
//! JSONL/CSV pair and a Chrome trace next to the CSV figures, so a sweep
//! leaves behind not just the curves but a drill-down artifact for one
//! representative run per platform.

use dse_api::{DseConfig, DseProgram, Platform};
use dse_apps::gauss_seidel;
use dse_trace::{assemble, chrome_flow_json_with, EngineTracks};

/// The export bundle of one instrumented run.
pub struct ObsProbe {
    /// Metrics as JSON Lines.
    pub metrics_jsonl: String,
    /// Metrics as CSV.
    pub metrics_csv: String,
    /// Chrome trace-event JSON (load in Perfetto / chrome://tracing).
    pub chrome_trace: String,
}

/// Run the paper's Gauss-Seidel workload (N=200) on `procs` processors of
/// `platform` with tracing enabled and return all observability exports.
pub fn observability_probe(platform: &Platform, procs: usize) -> ObsProbe {
    let program =
        DseProgram::new(platform.clone()).with_config(DseConfig::paper().with_tracing(true));
    let params = gauss_seidel::GaussSeidelParams::paper(200);
    let (run, _) = gauss_seidel::solve_parallel(&program, procs, params);
    ObsProbe {
        metrics_jsonl: run.metrics_jsonl(),
        metrics_csv: run.metrics_csv(),
        chrome_trace: chrome_flow_json_with(
            &assemble(&run.trace_spans),
            &EngineTracks::of(&run.report, &run.bus_intervals),
        ),
    }
}
