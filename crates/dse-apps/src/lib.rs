//! # dse-apps — the paper's evaluation workloads
//!
//! Four parallel applications, each in sequential-reference and DSE-parallel
//! form, exactly as §4 of the paper evaluates them:
//!
//! * [`gauss_seidel`] — N-dimensional simultaneous linear equations (§4.1);
//! * [`dct`] — two-dimensional Discrete Cosine Transform image compression
//!   at block sizes 4/8/16/32 and 25% coefficient retention (§4.2);
//! * [`othello`] — parallel game-tree search at depths 3..8 (§4.3);
//! * [`knights`] — Knight's-Tour enumeration with configurable job
//!   granularity (§4.4).
//!
//! Beside them, two workloads the extensions use: [`matmul`] and
//! [`table_scan`] (the read-mostly sharing the GM cache is measured on).
//!
//! Every parallel implementation performs the *real* computation (results
//! are asserted against the sequential reference) while charging analytic
//! work to the simulated platform, so figure timings and answer correctness
//! come from the same execution.

#![warn(missing_docs)]

pub mod common;
pub mod dct;
pub mod gauss_seidel;
pub mod gauss_seidel_mp;
pub mod image;
pub mod knights;
pub mod matmul;
pub mod othello;
pub mod table_scan;

pub use common::{run_captured, Capture};
