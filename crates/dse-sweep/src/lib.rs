//! `dse-sweep` — parallel scenario sweep harness for the DSE
//! reproduction.
//!
//! The paper's evaluation is a matrix of figures (apps × platforms × PE
//! counts); this crate is the machinery that reproduces such matrices at
//! will. A TOML scenario spec ([`spec`]) expands into a flat run matrix,
//! an executor ([`exec`]) fans the runs across host cores in child
//! processes with hard per-run timeouts, each run streams its `dse-obs`
//! metrics snapshot into one columnar row ([`run`]), and an aggregation
//! layer ([`agg`]) folds rows into per-cell summaries, renders the text
//! table, and compares the columns that repeat exactly with a committed
//! baseline of canonical rows for the CI regression gate.
//!
//! The [`build`] module is shared with `dse-run`, so the CLI and the
//! sweep harness construct engine configurations identically.

pub mod agg;
pub mod build;
pub mod exec;
pub mod json;
pub mod run;
pub mod spec;
pub mod toml;

pub use agg::{aggregate, gate, render_table, CellSummary};
pub use build::{AppKind, AppParams, SimSettings};
pub use run::{execute_run, RunRecord, RunStatus};
pub use spec::{expand, parse_spec, RunSpec, SweepSpec};
