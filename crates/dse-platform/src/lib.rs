//! # dse-platform — platform cost models and cluster composition
//!
//! The paper evaluates DSE on three UNIX platforms (Table 1) and constructs
//! *virtual clusters* by running several DSE kernels per machine when more
//! than six processors are requested (Table 2). This crate captures both:
//!
//! * [`Platform`] — machine + OS cost parameters (compute rate, syscall,
//!   context switch, signal delivery, TCP/IP protocol processing), with the
//!   three presets [`Platform::sunos_sparc`], [`Platform::aix_rs6000`] and
//!   [`Platform::linux_pentium2`];
//! * [`Work`] — machine-independent computation descriptions that
//!   applications emit and platforms price;
//! * [`ClusterSpec`] — machine counts and kernel placement, reproducing the
//!   round-robin virtual-cluster rule.

#![warn(missing_docs)]

mod cluster;
mod platform;
mod work;

pub use cluster::{table1, table2, ClusterSpec, PAPER_MACHINES};
pub use platform::{CpuParams, OsParams, Platform};
pub use work::Work;
