//! # dse-kernel — the DSE Parallel Processing Library
//!
//! This crate is the paper's **parallel processing library** (Fig. 2/3): the
//! DSE kernel implemented as a library that the parallel application links
//! against, comprising
//!
//! * the **serving-side protocol** ([`protocol`] — GM request service with
//!   the home's directory step, response gates, barrier and lock fan-out:
//!   one state machine behind a [`KernelPort`], driven by both engines'
//!   kernels) and its **counters** ([`counters`] — one mapping from what
//!   either engine's ports count to the `kernel/*` metric series),
//! * the **parallel process management module** and the simulated kernel
//!   ([`kernel`] — a passive simulation component, no thread of its own:
//!   invocation, termination, telemetry ticks; the simulator's port), and
//!   the live engine's kernel ([`task`] — the sans-IO `KernelTask` and the
//!   live port), both feeding one in-band **telemetry plane**
//!   ([`telemetry`] — tick deltas, ingest on PE 0, shutdown flush, one
//!   aggregator per run),
//! * the **global memory management module** ([`gmem`] — home-partitioned
//!   regions, reads/writes/atomics),
//! * the **message exchange mechanism** ([`netpath`] + [`simmsg`] — own-node
//!   fast path, same-machine loopback, LAN with protocol and bus costs),
//! * cluster-wide synchronization ([`sync`] — barriers and locks,
//!   coordinated by node 0),
//! * and the combined [`cost`] model (platform × protocol × organization),
//!   including the legacy separate-kernel-process organization for the
//!   paper's "substantial enhancement" comparison.
//!
//! The user-facing Parallel API lives in `dse-api`; this crate deliberately
//! knows nothing about it (the kernel receives application bodies through
//! the opaque [`kernel::AppFactory`]).

#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod cost;
pub mod counters;
pub mod dedup;
pub mod directory;
pub mod gmem;
pub mod home_spans;
pub mod kernel;
pub mod netpath;
pub mod protocol;
pub mod service;
pub mod shared;
pub mod simmsg;
pub mod sync;
pub mod task;
pub mod telemetry;

pub use cache::{CacheStore, CACHE_BLOCK};
pub use config::{
    DseConfig, GmMode, NetworkChoice, Organization, SchedulerKind, TelemetryConfig,
    DEFAULT_GM_WINDOW,
};
pub use cost::CostModel;
pub use counters::{Count, GmCount, KernelCount, PeCounters, KERNEL_COUNTERS};
pub use dedup::{dedup_key, DedupCache};
pub use directory::{Directory, Sharers};
pub use gmem::{Distribution, GlobalStore, GmError};
pub use home_spans::{HomeSpans, Origin};
pub use kernel::{AppBody, AppFactory, SimKernel, SimKernelPort};
pub use protocol::{Gates, KernelPort, KernelProtocol, KERNEL_TXN_BASE};
pub use service::{serve_gm, GmServiceHooks, NoHooks, Served};
pub use shared::{ClusterShared, TelemetryHook};
pub use simmsg::SimMsg;
pub use sync::{BarrierCenter, BarrierOutcome, LockCenter, LockOutcome, Party, UnlockOutcome};
pub use task::{is_app_bound, KernelEnv, KernelEvent, KernelTask, Outbound, Progress, Watch};
pub use telemetry::{EpochHook, Telemetry, TelemetrySummary};
