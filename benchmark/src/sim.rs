//! The `sim_fine` workload: five fine-grain applications on the simulated
//! 8-processor SunOS cluster. The simulator runs one process thread at a
//! time, so the whole process is pinned to one CPU (see `main.rs`): left
//! unpinned, the hand-off between its threads costs ten times more
//! whenever the scheduler spreads them over cores, and run time turns
//! bimodal.

use std::time::Instant;

use dse_api::{DseConfig, DseProgram, Platform, RunResult};
use dse_apps::gauss_seidel::{self, GaussSeidelParams, RefreshMode};
use dse_apps::{dct, knights, othello};

use crate::gen;
use crate::spans::{SpanId, SpanLog};

/// Simulated processors of every application run.
pub const PROCS: usize = 8;
/// Gauss-Seidel sweeps per run. The convergence test is disabled, so the
/// simulated work is the same whatever system the seed generates.
const GAUSS_SWEEPS: usize = 8;

/// Index of the application whose host time is the headline latency.
pub const GAUSS_BLOCKING: usize = 0;
/// Index of the application whose host time is the second latency.
pub const KNIGHTS: usize = 2;
pub const APP_NAMES: [&str; 5] = [
    "gauss_row_blocking",
    "gauss_row_pipelined",
    "knights_256_jobs",
    "dct_block4",
    "othello_depth5",
];

/// What one simulated application run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct AppRun {
    pub wall_s: f64,
    pub events: u64,
    pub inline_wakes: u64,
    pub virtual_ns: u64,
    pub trace_hash: u64,
    pub net_frames: u64,
    pub net_collisions: u64,
    /// The application's answer matched its reference.
    pub ok: bool,
}

impl AppRun {
    /// Everything about the run that must repeat exactly.
    pub fn fingerprint(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.events,
            self.virtual_ns,
            self.trace_hash,
            self.net_frames,
            self.net_collisions,
        )
    }
}

/// The five applications with their inputs and reference answers.
pub struct SimApps {
    gauss: GaussSeidelParams,
    gauss_sys: gauss_seidel::System,
    dct: dct::DctParams,
    dct_ref: dct::Compressed,
    knights: knights::KnightsParams,
    knights_ref: u64,
    othello: othello::OthelloParams,
    othello_ref: (u8, i32),
}

impl SimApps {
    /// Generate inputs from `seed` and compute the sequential references.
    /// The seed picks the linear system and the image; the Othello
    /// position stays the paper's, because the size of a game tree — the
    /// amount of simulated work — depends on the position.
    pub fn new(seed: u64) -> SimApps {
        let (gauss_seed, image_seed) = gen::app_seeds(seed);
        let gauss = GaussSeidelParams {
            eps: -1.0,
            max_iters: GAUSS_SWEEPS,
            seed: gauss_seed,
            ..GaussSeidelParams::paper(400)
        };
        let dct = dct::DctParams {
            seed: image_seed,
            ..dct::DctParams::paper(4)
        };
        let othello = othello::OthelloParams::paper(5);
        let (mv, score, _nodes) = othello::search_sequential(&othello);
        SimApps {
            gauss,
            gauss_sys: gauss_seidel::generate(&gauss),
            dct,
            dct_ref: dct::compress_sequential(&dct),
            knights: knights::KnightsParams::paper(256),
            knights_ref: knights::count_sequential(5).0,
            othello,
            othello_ref: (mv, score),
        }
    }

    /// Run the five applications once. `spans` gets one span per
    /// application run.
    pub fn rep(&self, tracing: bool, mut spans: Option<(&mut SpanLog, SpanId)>) -> Vec<AppRun> {
        let program = DseProgram::new(Platform::sunos_sparc())
            .with_config(DseConfig::default().with_tracing(tracing));
        let mut gauss_first: Option<Vec<f64>> = None;
        let mut out = Vec::with_capacity(APP_NAMES.len());
        for (i, name) in APP_NAMES.iter().enumerate() {
            let span = spans
                .as_mut()
                .map(|(log, parent)| log.open(*parent, format!("app:{name}")));
            let t0 = Instant::now();
            let (run, ok) = match i {
                0 | 1 => {
                    let mode = if i == 0 {
                        RefreshMode::RowBlocking
                    } else {
                        RefreshMode::RowPipelined
                    };
                    let (run, sol) =
                        gauss_seidel::solve_parallel_with(&program, PROCS, self.gauss, mode);
                    // Both refresh modes read the same values, so their
                    // solutions agree to the last bit; and eight sweeps of
                    // a strongly diagonally dominant system are a solution.
                    let same = gauss_first.get_or_insert_with(|| sol.x.clone()) == &sol.x;
                    let solved = gauss_seidel::residual(&self.gauss_sys, &sol.x) < 1e-6;
                    (run, same && solved && sol.iters == GAUSS_SWEEPS)
                }
                2 => {
                    let (run, tours) = knights::count_parallel(&program, PROCS, self.knights);
                    (run, tours == self.knights_ref)
                }
                3 => {
                    let (run, out) = dct::compress_parallel(&program, PROCS, self.dct);
                    (run, out == self.dct_ref)
                }
                _ => {
                    let (run, best) = othello::search_parallel(&program, PROCS, self.othello);
                    (run, best == self.othello_ref)
                }
            };
            let wall_s = t0.elapsed().as_secs_f64();
            if let (Some((log, _)), Some(id)) = (spans.as_mut(), span) {
                log.note(id, format!("events {}", run.report.stats.events));
                log.close(id);
            }
            out.push(app_run(&run, wall_s, ok));
        }
        out
    }

    /// Build and tear down the simulated cluster around a program that
    /// does nothing but meet at one barrier: the simulator's set-up cost.
    pub fn setup_once() -> f64 {
        let t0 = Instant::now();
        DseProgram::new(Platform::sunos_sparc()).run(PROCS, |ctx| ctx.barrier());
        t0.elapsed().as_secs_f64()
    }
}

fn app_run(run: &RunResult, wall_s: f64, ok: bool) -> AppRun {
    AppRun {
        wall_s,
        events: run.report.stats.events,
        inline_wakes: run.report.stats.inline_wakes,
        virtual_ns: run.elapsed.as_nanos(),
        trace_hash: run.report.trace_hash,
        net_frames: run.net_frames,
        net_collisions: run.net_collisions,
        ok,
    }
}
