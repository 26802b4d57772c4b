//! Gauss-Seidel iterative solution of simultaneous linear equations (§4.1).
//!
//! The paper's first workload: solve `Ax = b` for an N-dimensional system,
//! N swept from 100 to 900. Parallelization follows the classic DSE shared-
//! memory scheme: the solution vector lives in global memory with a blocked
//! distribution (each rank's slice is homed on its own node); every
//! iteration a rank refreshes the full vector (remote slices become GM read
//! requests to the other nodes — the fine-grain communication the paper
//! discusses), sweeps its own rows Gauss-Seidel-style, writes its slice
//! back (own-node fast path) and synchronizes. Convergence is detected with
//! a max-norm reduction.
//!
//! With more than one rank the sweep is block-hybrid (Gauss-Seidel within a
//! rank's rows, Jacobi across ranks), the standard distributed variant; the
//! generated systems are strongly diagonally dominant so convergence is
//! fast and essentially iteration-count-identical across `p`.

use dse_api::{Distribution, DseProgram, GmArray, GmHandle, NodeId, ParallelApi, RunResult, Work};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::run_captured;

/// Problem description.
#[derive(Debug, Clone, Copy)]
pub struct GaussSeidelParams {
    /// System dimension N.
    pub n: usize,
    /// Convergence threshold on the max-norm of the update.
    pub eps: f64,
    /// Iteration cap (safety net; dominant systems converge far earlier).
    pub max_iters: usize,
    /// Seed for the generated system.
    pub seed: u64,
}

impl GaussSeidelParams {
    /// The paper's sweep point for dimension `n`.
    pub fn paper(n: usize) -> GaussSeidelParams {
        GaussSeidelParams {
            n,
            eps: 1e-8,
            max_iters: 200,
            seed: 0xA11CE,
        }
    }
}

/// A generated system `Ax = b` (row-major `a`, strongly diagonally
/// dominant, entries in `[-1, 1)` off the diagonal), or a band of its rows.
pub struct System {
    /// Dimension.
    pub n: usize,
    /// Index of the first row held; 0 for a whole system.
    pub first_row: usize,
    /// Row-major coefficients of the rows held.
    pub a: Vec<f64>,
    /// Right-hand side of the rows held.
    pub b: Vec<f64>,
}

/// Deterministically generate the system for `params`.
pub fn generate(params: &GaussSeidelParams) -> System {
    generate_rows(params, 0, params.n)
}

/// Rows `[lo, hi)` of the system [`generate`] returns. The generator's
/// stream is consumed in full, so the values are identical; only the rows
/// a rank sweeps are stored (a whole 400×400 system is 1.28 MB, and the
/// allocator caches that much again in every rank thread's arena).
pub fn generate_rows(params: &GaussSeidelParams, lo: usize, hi: usize) -> System {
    let n = params.n;
    let mut rng = StdRng::seed_from_u64(params.seed ^ n as u64);
    let mut a = vec![0.0f64; (hi - lo) * n];
    let mut b = vec![0.0f64; hi - lo];
    for i in 0..n {
        let held = (lo..hi).contains(&i);
        let mut row_sum = 0.0;
        for j in 0..n {
            if i != j {
                let v: f64 = rng.gen_range(-1.0..1.0);
                row_sum += v.abs();
                if held {
                    a[(i - lo) * n + j] = v;
                }
            }
        }
        let rhs = rng.gen_range(-10.0..10.0);
        if held {
            // Strong dominance: block-hybrid sweeps converge like the pure one.
            a[(i - lo) * n + i] = 2.0 * row_sum + 1.0;
            b[i - lo] = rhs;
        }
    }
    System {
        n,
        first_row: lo,
        a,
        b,
    }
}

/// Result of a solve.
#[derive(Debug, Clone)]
pub struct Solution {
    /// The solution vector.
    pub x: Vec<f64>,
    /// Iterations executed.
    pub iters: usize,
    /// Final max-norm of the update.
    pub delta: f64,
}

/// Sweep rows `[lo, hi)` (which `sys` must hold) once in place; returns
/// the local max update.
pub(crate) fn sweep_rows(sys: &System, x: &mut [f64], lo: usize, hi: usize) -> f64 {
    let n = sys.n;
    let mut delta: f64 = 0.0;
    for i in lo..hi {
        let r = i - sys.first_row;
        let mut sum = sys.b[r];
        let row = &sys.a[r * n..(r + 1) * n];
        for (j, (&a, &xj)) in row.iter().zip(x.iter()).enumerate() {
            if j != i {
                sum -= a * xj;
            }
        }
        let new = sum / row[i];
        delta = delta.max((new - x[i]).abs());
        x[i] = new;
    }
    delta
}

/// Reference sequential Gauss-Seidel.
pub fn solve_sequential(params: &GaussSeidelParams) -> Solution {
    let sys = generate(params);
    let mut x = vec![0.0f64; sys.n];
    let mut iters = 0;
    let mut delta = f64::INFINITY;
    while iters < params.max_iters && delta > params.eps {
        delta = sweep_rows(&sys, &mut x, 0, sys.n);
        iters += 1;
    }
    Solution { x, iters, delta }
}

/// Residual max-norm `||Ax - b||_inf` over the rows `sys` holds
/// (verification helper).
pub fn residual(sys: &System, x: &[f64]) -> f64 {
    let n = sys.n;
    let mut r: f64 = 0.0;
    for (k, &b) in sys.b.iter().enumerate() {
        let mut s = -b;
        let row = &sys.a[k * n..(k + 1) * n];
        for (&a, &xj) in row.iter().zip(x.iter()) {
            s += a * xj;
        }
        r = r.max(s.abs());
    }
    r
}

/// Rows owned by `rank` under the blocked distribution (matches the GM
/// blocked home mapping for an N-element f64 array).
pub fn rows_of(n: usize, nprocs: usize, rank: usize) -> (usize, usize) {
    let chunk = n.div_ceil(nprocs);
    let lo = (rank * chunk).min(n);
    let hi = ((rank + 1) * chunk).min(n);
    (lo, hi)
}

/// Work charged for sweeping one row of an N-dimensional system.
fn row_work(n: usize) -> Work {
    // One multiply-subtract per column plus the divide — and, just as
    // importantly, the row of A streams in from memory (dense sweeps are
    // memory-bandwidth-bound on every one of these machines).
    Work::flops(2 * n as u64 + 10) + Work::mem_bytes(8 * n as u64)
}

/// Convergence is tested every this many sweeps (amortizing the global
/// reduction, standard practice for stationary iterations).
pub const CHECK_EVERY: usize = 4;

/// How each rank refreshes the shared solution vector at the top of a
/// sweep. Every mode reads exactly the same values — solutions are
/// bit-identical — but the GM traffic they generate differs, which is what
/// the split-phase benchmark measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefreshMode {
    /// One bulk `gm_read` of the whole vector (the original body).
    Bulk,
    /// Row-at-a-time blocking reads of every remote element: the
    /// fine-grain request/response pattern the paper's plain GM semantics
    /// force (one request message per remote row).
    RowBlocking,
    /// The same row-at-a-time reads issued split-phase: all rows are
    /// requested with `gm_read_nb` before the first `gm_wait`, so the
    /// runtime coalesces adjacent rows with the same home into one
    /// batched request and pipelines the rest.
    RowPipelined,
}

/// The engine-independent SPMD body: every rank executes this; rank 0
/// returns the solution. Equivalent to [`body_with`] in [`RefreshMode::Bulk`].
pub fn body<A: ParallelApi>(ctx: &mut A, params: &GaussSeidelParams) -> Option<Solution> {
    body_with(ctx, params, RefreshMode::Bulk)
}

/// [`body`] with an explicit vector-refresh strategy.
pub fn body_with<A: ParallelApi>(
    ctx: &mut A,
    params: &GaussSeidelParams,
    mode: RefreshMode,
) -> Option<Solution> {
    let n = params.n;
    let p = ctx.nprocs();
    let rank = ctx.rank() as usize;
    let (lo, hi) = rows_of(n, p, rank);
    let sys = generate_rows(params, lo, hi);
    // The shared solution vector: blocked over nodes so each rank's slice
    // is homed locally (GmArray aligns home chunks to element boundaries
    // with the same ceil(n/p) rule as rows_of).
    let gx = GmArray::<f64>::alloc(ctx, n, Distribution::Blocked);
    // Pre-allocated reduction scratch: per-rank deltas (own slot local)
    // and the master's verdict cell.
    let gdeltas = GmArray::<f64>::alloc(ctx, p, Distribution::Blocked);
    let gverdict = GmArray::<f64>::alloc(ctx, 1, Distribution::OnNode(NodeId(0)));
    ctx.barrier();
    let mut x = vec![0.0f64; n];
    let mut iters = 0;
    let mut delta = f64::INFINITY;
    let mut local_delta: f64 = 0.0;
    while iters < params.max_iters && delta > params.eps {
        // Refresh the full vector: own slice is a local read, every other
        // slice is a request to its home node.
        match mode {
            RefreshMode::Bulk => {
                let fresh = gx.read(ctx, 0, n);
                x.copy_from_slice(&fresh);
            }
            RefreshMode::RowBlocking => {
                if hi > lo {
                    gx.read_into(ctx, lo, &mut x[lo..hi]);
                }
                for i in (0..lo).chain(hi..n) {
                    gx.read_into(ctx, i, &mut x[i..i + 1]);
                }
            }
            RefreshMode::RowPipelined => {
                if hi > lo {
                    gx.read_into(ctx, lo, &mut x[lo..hi]);
                }
                let mut pending: Vec<(usize, GmHandle)> = Vec::with_capacity(n - (hi - lo));
                for i in (0..lo).chain(hi..n) {
                    pending.push((i, ctx.gm_read_nb(gx.region(), (i * 8) as u64, 8)));
                }
                for (i, h) in pending {
                    let bytes = ctx.gm_wait(h).expect("split-phase read carries data");
                    x[i] = f64::from_le_bytes(bytes.as_slice().try_into().unwrap());
                }
            }
        }
        // Everyone must finish reading iteration k before anyone writes
        // iteration k+1 (BSP discipline: engine-independent results).
        ctx.barrier();
        // Sweep my rows (real computation + charged work).
        local_delta = local_delta.max(sweep_rows(&sys, &mut x, lo, hi));
        ctx.compute(row_work(n) * (hi - lo) as u64);
        // Publish my slice (own-node fast path).
        if hi > lo {
            gx.write(ctx, lo, &x[lo..hi]);
        }
        ctx.barrier();
        iters += 1;
        // Periodic global convergence decision (max over the interval).
        if iters.is_multiple_of(CHECK_EVERY) || iters == params.max_iters {
            gdeltas.set(ctx, rank, local_delta);
            local_delta = 0.0;
            ctx.barrier();
            if rank == 0 {
                let all = gdeltas.read(ctx, 0, p);
                let max = all.into_iter().fold(0.0f64, f64::max);
                ctx.compute(Work::flops(2 * p as u64));
                gverdict.set(ctx, 0, max);
            }
            ctx.barrier();
            delta = gverdict.get(ctx, 0);
        }
    }
    ctx.barrier();
    if ctx.rank() == 0 {
        let x = gx.read(ctx, 0, n);
        Some(Solution { x, iters, delta })
    } else {
        None
    }
}

/// Run the parallel solver on a configured program; returns the measured
/// run and the solution (captured from rank 0).
pub fn solve_parallel(
    program: &DseProgram,
    nprocs: usize,
    params: GaussSeidelParams,
) -> (RunResult, Solution) {
    solve_parallel_with(program, nprocs, params, RefreshMode::Bulk)
}

/// [`solve_parallel`] with an explicit vector-refresh strategy.
pub fn solve_parallel_with(
    program: &DseProgram,
    nprocs: usize,
    params: GaussSeidelParams,
    mode: RefreshMode,
) -> (RunResult, Solution) {
    run_captured(program, nprocs, move |ctx| body_with(ctx, &params, mode))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dse_api::Platform;

    #[test]
    fn sequential_converges_and_solves() {
        let params = GaussSeidelParams::paper(50);
        let sol = solve_sequential(&params);
        assert!(sol.iters < params.max_iters, "did not converge");
        let sys = generate(&params);
        assert!(residual(&sys, &sol.x) < 1e-6, "residual too large");
    }

    #[test]
    fn generation_is_deterministic() {
        let p = GaussSeidelParams::paper(20);
        let a = generate(&p);
        let b = generate(&p);
        assert_eq!(a.a, b.a);
        assert_eq!(a.b, b.b);
    }

    #[test]
    fn a_band_holds_the_whole_systems_rows() {
        let p = GaussSeidelParams::paper(23);
        let whole = generate(&p);
        let n = p.n;
        for rank in 0..4 {
            let (lo, hi) = rows_of(n, 4, rank);
            let band = generate_rows(&p, lo, hi);
            assert_eq!(band.first_row, lo);
            assert_eq!(band.a, whole.a[lo * n..hi * n]);
            assert_eq!(band.b, whole.b[lo..hi]);
            // Sweeping the band's rows is sweeping the same rows of the whole.
            let (mut x, mut y) = (vec![1.0; n], vec![1.0; n]);
            let d = sweep_rows(&band, &mut x, lo, hi);
            assert_eq!(d.to_bits(), sweep_rows(&whole, &mut y, lo, hi).to_bits());
            assert_eq!(x, y);
        }
    }

    #[test]
    fn rows_partition_exactly() {
        for n in [10, 100, 97] {
            for p in 1..=12 {
                let mut covered = 0;
                for r in 0..p {
                    let (lo, hi) = rows_of(n, p, r);
                    assert!(lo <= hi);
                    covered += hi - lo;
                }
                assert_eq!(covered, n, "n={n} p={p}");
                assert_eq!(rows_of(n, p, 0).0, 0);
                assert_eq!(rows_of(n, p, p - 1).1, n);
            }
        }
    }

    #[test]
    fn parallel_matches_reference() {
        let params = GaussSeidelParams::paper(60);
        let program = DseProgram::new(Platform::linux_pentium2());
        let (run, sol) = solve_parallel(&program, 3, params);
        assert!(run.secs() > 0.0);
        assert!(sol.delta <= params.eps);
        let sys = generate(&params);
        assert!(residual(&sys, &sol.x) < 1e-6, "parallel residual too large");
    }

    #[test]
    fn refresh_modes_are_bit_identical() {
        // All three refresh strategies read the same values, so the
        // solutions must match to the last bit — only the GM traffic (and
        // hence the simulated time) may differ.
        let params = GaussSeidelParams::paper(48);
        let program = DseProgram::new(Platform::linux_pentium2());
        let (bulk_run, bulk) = solve_parallel_with(&program, 3, params, RefreshMode::Bulk);
        let (block_run, blocking) =
            solve_parallel_with(&program, 3, params, RefreshMode::RowBlocking);
        let (pipe_run, pipelined) =
            solve_parallel_with(&program, 3, params, RefreshMode::RowPipelined);
        assert_eq!(bulk.x, blocking.x);
        assert_eq!(bulk.x, pipelined.x);
        assert_eq!(bulk.iters, blocking.iters);
        assert_eq!(bulk.iters, pipelined.iters);
        // Row-wise blocking pays one request per remote row; split-phase
        // coalescing must claw most of that back.
        assert!(pipe_run.secs() < block_run.secs());
        assert!(bulk_run.secs() > 0.0);
    }

    #[test]
    fn single_rank_parallel_matches_sequential_sweeps() {
        // The parallel solver tests convergence every CHECK_EVERY sweeps,
        // so at p=1 it performs the same sweeps as the sequential solver,
        // possibly rounded up to the next check point.
        let params = GaussSeidelParams::paper(40);
        let program = DseProgram::new(Platform::sunos_sparc());
        let (_, psol) = solve_parallel(&program, 1, params);
        let ssol = solve_sequential(&params);
        assert!(psol.iters >= ssol.iters);
        // The windowed check reports the max delta over the last
        // CHECK_EVERY sweeps, so convergence can be detected up to one
        // window late (plus rounding to the window boundary).
        assert!(psol.iters <= ssol.iters + 2 * CHECK_EVERY);
        let sys = generate(&params);
        assert!(residual(&sys, &psol.x) < 1e-6);
        assert!(psol.delta <= params.eps);
    }
}
