//! # dse — a portable cluster computing environment with single-system-image support
//!
//! A full reproduction, as a Rust library, of the system described in
//! *"Towards a Portable Cluster Computing Environment Supporting Single
//! System Image"* (Asazu, Apduhan, Arita; ICPP Workshops 1999): the **DSE**
//! (Distributed Supercomputing Environment) — a user-level, shared-memory
//! cluster runtime in its revised linked-library organization, together
//! with everything needed to rerun the paper's evaluation.
//!
//! ## Crate map
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`sim`] | `dse-sim` | deterministic direct-execution discrete-event engine |
//! | [`platform`] | `dse-platform` | Table 1 platform cost models + Table 2 cluster rules |
//! | [`msg`] | `dse-msg` | wire format of the message exchange mechanism |
//! | [`net`] | `dse-net` | CSMA/CD bus Ethernet, switched fabric, protocol stacks |
//! | [`kernel`] | `dse-kernel` | the parallel processing library (DSE kernel) |
//! | [`api`] | `dse-api` | the parallel API library (`DseProgram`, `DseCtx`) |
//! | [`ssi`] | `dse-ssi` | single-system-image services (process table, names, placement) |
//! | [`live`] | `dse-live` | the same API on real OS threads |
//! | [`apps`] | `dse-apps` | the paper's four workloads |
//!
//! ## Quickstart
//!
//! ```
//! use dse::prelude::*;
//!
//! // Run an SPMD program on a simulated 4-processor SparcStation cluster.
//! let result = DseProgram::new(Platform::sunos_sparc()).run(4, |ctx| {
//!     let table = GmArray::<f64>::alloc(ctx, 4, Distribution::Blocked);
//!     table.set(ctx, ctx.rank() as usize, ctx.rank() as f64 * 2.0);
//!     ctx.barrier();
//!     let all = table.read(ctx, 0, 4);
//!     assert_eq!(all, vec![0.0, 2.0, 4.0, 6.0]);
//! });
//! println!("simulated execution time: {}", result.elapsed);
//! ```
//!
//! Global-memory accesses can also be issued split-phase — start several
//! transfers, let the runtime coalesce and pipeline them, redeem the
//! handles when the data is needed:
//!
//! ```
//! use dse::prelude::*;
//!
//! DseProgram::new(Platform::sunos_sparc()).run(4, |ctx| {
//!     let table = GmArray::<u64>::alloc(ctx, 8, Distribution::Blocked);
//!     table.set(ctx, ctx.rank() as usize, 10 + ctx.rank() as u64);
//!     ctx.barrier();
//!     let handles: Vec<GmHandle> = (0..4)
//!         .map(|i| ctx.gm_read_nb(table.region(), i * 8, 8))
//!         .collect();
//!     for (i, h) in handles.into_iter().enumerate() {
//!         let bytes = ctx.gm_wait(h).expect("reads carry data");
//!         assert_eq!(u64::from_le_bytes(bytes.try_into().unwrap()), 10 + i as u64);
//!     }
//! });
//! ```

pub use dse_api as api;
pub use dse_apps as apps;
pub use dse_kernel as kernel;
pub use dse_live as live;
pub use dse_msg as msg;
pub use dse_net as net;
pub use dse_obs as obs;
pub use dse_platform as platform;
pub use dse_sim as sim;
pub use dse_ssi as ssi;

/// The names most programs need.
pub mod prelude {
    pub use dse_api::{
        collective, Distribution, DseConfig, DseCtx, DseProgram, GmArray, GmCounter, GmHandle,
        NetworkChoice, Organization, ParallelApi, Platform, RunResult, SimDuration,
        TelemetryConfig, TelemetrySummary, Work,
    };
    pub use dse_live::{GmMode, LiveRunner, SchedulerKind, TransportKind};
    pub use dse_ssi::{render_top, top_rows, ClusterView, PlacementPolicy, Placer};
}
