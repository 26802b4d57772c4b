//! # dse-trace — trace analysis for DSE runs, on both engines
//!
//! The paper explains its curves with narratives — "communication frequency
//! is high", "the machine load increases in proportion to the number of
//! kernels", "small computation granularity" — and this crate makes those
//! narratives measurable.
//!
//! **The causal trace** is one model for the simulator and the live
//! engine. A traced run (`DseConfig::with_tracing(true)`,
//! `LiveRunner::tracing(true)`) yields one stream of `dse_obs::TraceSpanRec`
//! per PE — `RunResult::trace_spans`, `LiveRunResult::trace_spans`, or the
//! `pe*.trace.jsonl` files of `dse-run --trace-dir` — in virtual time or
//! wall time. [`assemble`] / [`load_trace_dir`] merge the streams into one
//! indexed [`ClusterTrace`], and on top of it
//!
//! * [`blame`] attributes every PE's clock across compute / CPU queue /
//!   serve / net / retry / barrier / lock, summing to 100% by construction;
//! * [`critical_path`] walks the chain of spans that bounded the run,
//!   hopping PEs at barriers and through home-kernel serves;
//! * [`chrome_flow_json`] exports the trace with cross-PE flow arrows — the
//!   one Chrome exporter; [`chrome_flow_json_with`] appends a simulated
//!   run's bus counters;
//! * [`ClusterTrace::canonical`] strips timing nondeterminism so CI can
//!   diff two live runs byte-for-byte (two simulated runs agree raw).
//!
//! There is no other timeline: time a simulated process or kernel spent
//! queued for its machine's CPU is a span of the same model (`cpu_queue`)
//! and a column of the same table. See `examples/trace_breakdown.rs` for
//! the DCT fine-vs-coarse grain story told from the blame table.

#![warn(missing_docs)]

mod blame;
mod cluster;
mod flow;

pub use blame::{blame, critical_path, BlameRow, BlameTable, CriticalPath, PathStep};
pub use cluster::{
    assemble, load_trace_dir, trace_file_name, write_trace_dir, ClusterTrace, LinkStats,
};
pub use flow::{chrome_flow_json, chrome_flow_json_with, PID_APP, PID_KERNEL, PID_NET};
