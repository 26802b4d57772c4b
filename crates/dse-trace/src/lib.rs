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
//! * [`blame`] attributes every PE's clock across compute / serve / net /
//!   retry / barrier / lock, summing to 100% by construction;
//! * [`critical_path`] walks the chain of spans that bounded the run,
//!   hopping PEs at barriers and through home-kernel serves;
//! * [`chrome_flow_json`] exports the trace with cross-PE flow arrows — the
//!   one Chrome exporter; [`chrome_flow_json_with`] appends a simulated
//!   run's process timeline and bus counters ([`EngineTracks`]);
//! * [`ClusterTrace::canonical`] strips timing nondeterminism so CI can
//!   diff two live runs byte-for-byte (two simulated runs agree raw).
//!
//! **The scheduler's timeline** is the simulator's own: `dse-sim` records
//! what each simulated *process* spent its virtual time on, and
//!
//! * [`analyze`] classifies it into compute / CPU queueing / communication
//!   wait / sleep ([`ProcBreakdown`]);
//! * [`gantt`] renders an ASCII timeline of the whole cluster.
//!
//! It has no request/response correlation and is not part of the span
//! model; it is the only source of per-process CPU-queue time. See
//! `examples/trace_breakdown.rs` for the DCT fine-vs-coarse grain story
//! told by both.

#![warn(missing_docs)]

mod blame;
mod breakdown;
mod cluster;
mod flow;
mod gantt;

pub use blame::{blame, critical_path, BlameRow, BlameTable, CriticalPath, PathStep};
pub use breakdown::{analyze, ProcBreakdown, TraceAnalysis};
pub use cluster::{
    assemble, load_trace_dir, trace_file_name, write_trace_dir, ClusterTrace, LinkStats,
};
pub use flow::{
    chrome_flow_json, chrome_flow_json_with, EngineTracks, PID_APP, PID_KERNEL, PID_NET, PID_PROCS,
};
pub use gantt::gantt;
