//! # dse-api — the DSE Parallel API library
//!
//! The user-facing half of the paper's software organization (Fig. 3): the
//! **parallel application programming interface library** that the parallel
//! application links together with the kernel library into one process.
//!
//! * [`DseProgram`] — configure a cluster (platform, machine count, runtime
//!   config) and [`DseProgram::run`] an SPMD body over `p` processors;
//! * [`ApiCtx`] — the per-process API, written once over a [`GmPort`]:
//!   global-memory access, barriers, locks, atomic counters, computation
//!   charging. [`DseCtx`] is its simulator instantiation (over [`SimPort`]),
//!   which adds virtual time, point-to-point messages and named barriers;
//!   `dse_live::LiveCtx` is the live one;
//! * [`GmClient`] — the split-phase global-memory requester (staging,
//!   coalescing, batching, the in-flight window, handles), defined once and
//!   driven by both engines through the same [`GmPort`];
//! * [`RequesterSpans`] — the requester side of the causal trace, defined
//!   once the same way and stamped by each engine's port with its own
//!   clock;
//! * [`GmArray`]/[`GmCounter`] — typed views over distributed regions;
//! * [`collective`] — broadcast/gather/reduce conveniences built from the
//!   same primitives an application would use by hand.
//!
//! ```
//! use dse_api::{collective, DseProgram, ParallelApi};
//! use dse_platform::Platform;
//!
//! let result = DseProgram::new(Platform::linux_pentium2()).run(4, |ctx| {
//!     let rank_sum = collective::reduce_sum(ctx, ctx.rank() as f64);
//!     assert_eq!(rank_sum, 0.0 + 1.0 + 2.0 + 3.0);
//! });
//! assert!(result.secs() > 0.0);
//! ```

#![warn(missing_docs)]

// The fake port under `tests/support` names this crate the way the
// integration tests do.
#[cfg(test)]
extern crate self as dse_api;

mod api;
pub mod collective;
mod ctx;
mod gm_client;
mod program;
mod region;
mod req_spans;

#[cfg(test)]
#[path = "../tests/support/fake_port.rs"]
mod fake_port;

pub use api::ParallelApi;
pub use ctx::{ApiCtx, DseCtx, SimPort, UserMsg, AUTO_BARRIER_BASE};
pub use dse_kernel::TelemetrySummary;
pub use gm_client::{GmClient, GmHandle, GmPort, GmProtocolError, Unanswered};
pub use program::{DseProgram, RunResult};
pub use region::{GmArray, GmCounter, GmElem};
pub use req_spans::{Arrival, RequesterSpans, SentReq};

// Re-export the vocabulary callers need alongside the API.
pub use dse_kernel::{
    Distribution, DseConfig, GmCount, NetworkChoice, Organization, TelemetryConfig,
};
pub use dse_msg::{GlobalPid, NodeId, RegionId};
pub use dse_platform::{ClusterSpec, Platform, Work};
pub use dse_sim::{SimDuration, SimTime};
