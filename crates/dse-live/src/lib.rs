//! # dse-live — the real-thread DSE execution engine
//!
//! The counterpart of the simulated cluster: [`LiveRunner`] executes the
//! same [`dse_api::ParallelApi`] application bodies on real OS threads with
//! real synchronization and wall-clock timing. One application source, two
//! engines — the portability the paper's design argues for, demonstrated
//! mechanically by the cross-engine equivalence tests in `tests/`. The
//! Parallel API library is not reimplemented here: [`LiveCtx`] is
//! `dse-api`'s [`dse_api::ApiCtx`] — the context, the
//! [`dse_api::GmClient`] and the body of every operation the simulator
//! runs — over [`LivePort`], this crate's port onto the transport.

#![warn(missing_docs)]

mod engine;
mod error;

pub use dse_kernel::{GmMode, SchedulerKind};
pub use dse_transport::{FaultPlan, RetryPolicy};
pub use engine::{
    LiveCluster, LiveCtx, LivePort, LiveRunConfig, LiveRunResult, LiveRunner, TransportKind,
};
pub use error::{FailureKind, FailureRole, PeFailure, RunError};
