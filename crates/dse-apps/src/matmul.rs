//! Blocked matrix multiplication — an extension workload beyond the paper.
//!
//! `C = A × B` with the classic DSE data placement: each rank generates its
//! own row strip of `A` locally, `B` is master-held global memory every
//! rank fetches through the DSM, and each rank publishes its strip of `C`
//! to its locally-homed slice. A clean demonstration of the global-memory
//! API on a dense kernel, and a second workload (besides the lookup-table
//! ablation) where the optional GM cache pays off when the multiply is
//! iterated.

use dse_api::{Distribution, DseProgram, GmArray, NodeId, ParallelApi, RunResult, Work};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::run_captured;
use crate::gauss_seidel::rows_of;

/// Problem description.
#[derive(Debug, Clone, Copy)]
pub struct MatmulParams {
    /// Matrix dimension N (square matrices).
    pub n: usize,
    /// Number of repeated multiplies (iterating re-reads `B`, which is
    /// where the GM cache shows).
    pub reps: usize,
    /// Seed for the generated matrices.
    pub seed: u64,
}

impl MatmulParams {
    /// A single multiply of dimension `n`.
    pub fn single(n: usize) -> MatmulParams {
        MatmulParams {
            n,
            reps: 1,
            seed: 0x3A7,
        }
    }
}

/// Deterministically generate row `i` of `A` (each rank builds its own
/// strip without communication).
pub fn gen_row_a(params: &MatmulParams, i: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(params.seed ^ (i as u64) << 17);
    (0..params.n).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

/// Deterministically generate all of `B` (column-major-agnostic row-major).
pub fn gen_b(params: &MatmulParams) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(params.seed.wrapping_mul(0x9E3779B97F4A7C15));
    (0..params.n * params.n)
        .map(|_| rng.gen_range(-1.0..1.0))
        .collect()
}

/// Sequential reference multiply (one rep; reps multiply the work, not the
/// result, since A and B are fixed).
pub fn multiply_sequential(params: &MatmulParams) -> Vec<f64> {
    let n = params.n;
    let b = gen_b(params);
    let mut c = vec![0.0f64; n * n];
    for i in 0..n {
        let a_row = gen_row_a(params, i);
        for k in 0..n {
            let aik = a_row[k];
            let brow = &b[k * n..(k + 1) * n];
            let crow = &mut c[i * n..(i + 1) * n];
            for (cv, &bv) in crow.iter_mut().zip(brow) {
                *cv += aik * bv;
            }
        }
    }
    c
}

/// Work charged per output row per rep: 2N² flops plus streaming B once.
fn row_work(n: usize) -> Work {
    Work::flops(2 * (n * n) as u64) + Work::mem_bytes(8 * (n * n) as u64 / 8)
}

/// The engine-independent SPMD body; rank 0 returns `C`.
pub fn body<A: ParallelApi>(ctx: &mut A, params: &MatmulParams) -> Option<Vec<f64>> {
    let n = params.n;
    let p = ctx.nprocs();
    let rank = ctx.rank() as usize;
    let (lo, hi) = rows_of(n, p, rank);
    let gb = GmArray::<f64>::alloc(ctx, n * n, Distribution::OnNode(NodeId(0)));
    let gc = GmArray::<f64>::alloc(
        ctx,
        n * n,
        Distribution::BlockedBy {
            chunk: n.div_ceil(p) * n * 8,
        },
    );
    if ctx.rank() == 0 {
        gb.write(ctx, 0, &gen_b(params));
    }
    ctx.barrier();
    let mut c_strip = vec![0.0f64; (hi - lo) * n];
    for _rep in 0..params.reps.max(1) {
        // Fetch B through the DSM once per rep (with the GM cache enabled,
        // reps after the first are served from the local block cache).
        let b = gb.read(ctx, 0, n * n);
        c_strip.iter_mut().for_each(|v| *v = 0.0);
        for i in lo..hi {
            let a_row = gen_row_a(params, i);
            for k in 0..n {
                let aik = a_row[k];
                let brow = &b[k * n..(k + 1) * n];
                let crow = &mut c_strip[(i - lo) * n..(i - lo + 1) * n];
                for (cv, &bv) in crow.iter_mut().zip(brow) {
                    *cv += aik * bv;
                }
            }
            ctx.compute(row_work(n));
        }
    }
    if hi > lo {
        gc.write(ctx, lo * n, &c_strip);
    }
    ctx.barrier();
    if ctx.rank() == 0 {
        Some(gc.read(ctx, 0, n * n))
    } else {
        None
    }
}

/// Run the parallel multiply; returns the measured run and `C`.
pub fn multiply_parallel(
    program: &DseProgram,
    nprocs: usize,
    params: MatmulParams,
) -> (RunResult, Vec<f64>) {
    run_captured(program, nprocs, move |ctx| body(ctx, &params))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dse_api::{DseConfig, Platform};

    #[test]
    fn parallel_matches_sequential() {
        let params = MatmulParams::single(24);
        let want = multiply_sequential(&params);
        let program = DseProgram::new(Platform::linux_pentium2());
        let (_, got) = multiply_parallel(&program, 3, params);
        assert_eq!(got, want, "bitwise: same order of operations");
    }

    #[test]
    fn single_rank_matches_too() {
        let params = MatmulParams::single(16);
        let want = multiply_sequential(&params);
        let program = DseProgram::new(Platform::sunos_sparc());
        let (_, got) = multiply_parallel(&program, 1, params);
        assert_eq!(got, want);
    }

    #[test]
    fn cache_accelerates_iterated_multiplies() {
        // Re-reading B each rep hits the cache; the second run must be
        // substantially faster than the uncached one.
        let params = MatmulParams {
            n: 64,
            reps: 4,
            seed: 0x3A7,
        };
        let plain = DseProgram::new(Platform::sunos_sparc());
        let cached = DseProgram::new(Platform::sunos_sparc())
            .with_config(DseConfig::paper().with_gm_cache(true));
        let (tp, cp) = multiply_parallel(&plain, 3, params);
        let (tc, cc) = multiply_parallel(&cached, 3, params);
        assert_eq!(cp, cc, "cache must not change the result");
        assert!(
            tc.elapsed.as_nanos() * 3 < tp.elapsed.as_nanos() * 2,
            "cached {} vs plain {}",
            tc.elapsed,
            tp.elapsed
        );
        assert!(tc.metrics.counter_sum_over_pes("kernel", "cache_hits") > 0);
    }

    #[test]
    fn result_is_numerically_sane() {
        let params = MatmulParams::single(12);
        let c = multiply_sequential(&params);
        // Entries of A×B with A,B uniform in [-1,1): |c_ij| <= n.
        assert!(c.iter().all(|v| v.abs() <= params.n as f64));
        assert!(c.iter().any(|v| v.abs() > 1e-6), "all zeros is wrong");
    }
}
