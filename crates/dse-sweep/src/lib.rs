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
//! baseline of canonical rows for the CI regression gate. A spec that
//! declares figures (`bench_results/figures.toml`: Figs. 4–21 and the six
//! ablations) has its rows pivoted into the figure CSVs ([`figure`]) and
//! held to the paper's findings ([`checks`]).
//!
//! `dse-run` is the same machinery at one cell: its flags are the
//! `[[scenario]]` keys, parsed, validated and expanded by [`spec`] into
//! one [`RunSpec`], and every run — a sweep row, `dse-run --scenario`,
//! `dse-run <app>` — goes through [`build::launch`] on either engine.

pub mod agg;
pub mod build;
pub mod checks;
pub mod exec;
pub mod figure;
pub mod json;
pub mod run;
pub mod spec;
pub mod toml;

pub use agg::{aggregate, gate, render_table, CellSummary};
pub use build::{launch, AppKind, AppParams, Outcome};
pub use figure::{pivot, Figure, Series};
pub use run::{execute_run, References, RunRecord, RunStatus};
pub use spec::{expand, one_cell, parse_spec, FigureSpec, RunSpec, SweepSpec};
