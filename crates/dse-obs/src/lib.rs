//! Cluster-wide observability for the DSE runtime.
//!
//! The paper evaluates its cluster environment with aggregate timings; to
//! reason about *why* a configuration behaves the way it does, this crate
//! adds the instrumentation layer the runtime crates hook into:
//!
//! * [`Registry`] — named counters, gauges and log-bucketed latency
//!   [`LogHistogram`]s keyed by PE / machine / subsystem,
//! * [`BusSampler`] — per-interval bus utilization / collision / queue
//!   samples on the engine clock,
//! * exporters — JSONL/CSV metric dumps ([`MetricsSnapshot::to_jsonl`] /
//!   [`MetricsSnapshot::to_csv`]); the one Chrome trace exporter is
//!   `dse_trace::chrome_flow_json`, over the causal spans below,
//! * the telemetry plane — [`DeltaTracker`] / [`TelemetryDelta`] /
//!   [`ClusterAggregator`] ship per-PE metric deltas in-band over the DSE
//!   message layer and rebuild the cluster rollup at PE0,
//! * [`FlightRecorder`] — the live engine's fixed-size ring of recent wire
//!   sends and deadline stalls, dumped post-mortem when a run aborts,
//! * the causal-trace plane — [`TraceRecorder`] / [`TraceSpanRec`], the one
//!   message-level span model of both engines: per-PE causal spans
//!   (request → serve → redeem, barrier and lock rounds) whose ids travel
//!   beside each message (the wire trace-context extension live, a field
//!   of the simulator's envelope); the `dse-trace` assembler rebuilds the
//!   cluster-wide trace from the per-PE streams.
//!
//! Everything is engine-neutral — the crate depends on neither engine:
//! values are plain `u64` nanoseconds, whether they come from the
//! simulator's virtual clock or the live engine's wall clock. All exports
//! iterate ordered containers so a fixed-seed simulation produces
//! byte-identical files.

#![warn(missing_docs)]

mod aggregate;
mod flight;
mod hist;
mod interval;
mod jsonl;
mod registry;
mod trace;
mod util;

pub use aggregate::{
    ClusterAggregator, DeltaTracker, HistDelta, NodeStatus, TelemetryDelta, MAX_INLINE_NAMES,
};
pub use flight::{FlightEvent, FlightEventKind, FlightRecorder, SpanKind};
pub use hist::LogHistogram;
pub use interval::{BusInterval, BusSampler, DEFAULT_BIN_NS};
pub use jsonl::{metrics_csv, metrics_jsonl};
pub use registry::{MetricKey, MetricsSnapshot, Registry};
pub use trace::{
    derived_span_id, parse_trace_jsonl, serve_span_id, TraceRecorder, TraceRole, TraceSink,
    TraceSpanKind, TraceSpanRec, NO_PEER,
};
pub use util::{escape_json_into, us_from_ns};
