//! Message-passing Gauss-Seidel: the PVM/MPI-style baseline.
//!
//! The paper positions DSE's shared-memory model against the portable
//! message-passing environments of the day (PVM \[5], MPI \[6]). This module
//! implements the *same* solver in explicit message-passing style — each
//! rank pushes its slice directly to every other rank instead of publishing
//! it in global memory for others to fetch — so the two programming models
//! can be compared on identical substrate (ablation A5).
//!
//! The numerical organization matches `gauss_seidel::body` exactly (refresh
//! from iteration k, sweep, publish, converge every `CHECK_EVERY` sweeps),
//! so the computed solutions are bit-identical; only the communication
//! pattern differs: one data message per (sender, receiver) pair per
//! iteration, versus the DSM's request/response pair per fetched slice.

use dse_api::{DseCtx, DseProgram, ParallelApi, RunResult, Work};

use crate::common::run_captured;
use crate::gauss_seidel::{
    generate_rows, rows_of, sweep_rows, GaussSeidelParams, Solution, CHECK_EVERY,
};

/// Tag space: slice exchanges use the iteration number; control messages
/// live above these bases.
const TAG_DELTA: u32 = 1 << 20;
const TAG_VERDICT: u32 = 1 << 21;
const TAG_RESULT: u32 = 1 << 22;

fn encode_f64s(values: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 8);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn decode_f64s(bytes: &[u8]) -> Vec<f64> {
    bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

/// Work charged for one row sweep (identical to the DSM version's charge).
fn row_work(n: usize) -> Work {
    Work::flops(2 * n as u64 + 10) + Work::mem_bytes(8 * n as u64)
}

/// The SPMD body in message-passing style; rank 0 returns the solution.
pub fn body_mp(ctx: &mut DseCtx<'_>, params: &GaussSeidelParams) -> Option<Solution> {
    let n = params.n;
    let p = ctx.nprocs();
    let rank = ctx.rank() as usize;
    let (lo, hi) = rows_of(n, p, rank);
    let sys = generate_rows(params, lo, hi);
    // Make sure every rank is registered before the first send.
    ctx.barrier();
    let mut x = vec![0.0f64; n];
    let mut iters: usize = 0;
    let mut delta = f64::INFINITY;
    let mut local_delta: f64 = 0.0;
    while iters < params.max_iters && delta > params.eps {
        let tag = iters as u32;
        // Publish my current slice directly to every other rank.
        if hi > lo {
            let payload = encode_f64s(&x[lo..hi]);
            for r in 0..p {
                if r != rank {
                    ctx.send_to(ctx.pid_of_rank(r as u32), tag, payload.clone());
                }
            }
        }
        // Collect every other rank's slice for this iteration.
        for _ in 0..p - 1 {
            let msg = ctx.recv_user(Some(tag));
            let from_rank = msg.from.node().0 as usize;
            let (flo, fhi) = rows_of(n, p, from_rank);
            let vals = decode_f64s(&msg.data);
            assert_eq!(vals.len(), fhi - flo, "short slice from rank {from_rank}");
            x[flo..fhi].copy_from_slice(&vals);
        }
        // Sweep my rows.
        local_delta = local_delta.max(sweep_rows(&sys, &mut x, lo, hi));
        ctx.compute(row_work(n) * (hi - lo) as u64);
        iters += 1;
        // Periodic convergence: deltas to rank 0, verdict comes back.
        if iters.is_multiple_of(CHECK_EVERY) || iters == params.max_iters {
            let tag_d = TAG_DELTA + iters as u32;
            let tag_v = TAG_VERDICT + iters as u32;
            if rank == 0 {
                let mut max = local_delta;
                for _ in 0..p - 1 {
                    let m = ctx.recv_user(Some(tag_d));
                    max = max.max(f64::from_le_bytes(m.data.try_into().unwrap()));
                }
                ctx.compute(Work::flops(2 * p as u64));
                let verdict = max.to_le_bytes().to_vec();
                for r in 1..p {
                    ctx.send_to(ctx.pid_of_rank(r as u32), tag_v, verdict.clone());
                }
                delta = max;
            } else {
                ctx.send_to(
                    ctx.pid_of_rank(0),
                    tag_d,
                    local_delta.to_le_bytes().to_vec(),
                );
                let m = ctx.recv_user(Some(tag_v));
                delta = f64::from_le_bytes(m.data.try_into().unwrap());
            }
            local_delta = 0.0;
        }
    }
    // Gather the final vector at rank 0.
    if rank == 0 {
        for _ in 0..p - 1 {
            let m = ctx.recv_user(Some(TAG_RESULT));
            let from_rank = m.from.node().0 as usize;
            let (flo, fhi) = rows_of(n, p, from_rank);
            x[flo..fhi].copy_from_slice(&decode_f64s(&m.data));
        }
        Some(Solution { x, iters, delta })
    } else {
        if hi > lo {
            ctx.send_to(ctx.pid_of_rank(0), TAG_RESULT, encode_f64s(&x[lo..hi]));
        } else {
            ctx.send_to(ctx.pid_of_rank(0), TAG_RESULT, Vec::new());
        }
        None
    }
}

/// Run the message-passing solver; returns the measured run and solution.
pub fn solve_parallel_mp(
    program: &DseProgram,
    nprocs: usize,
    params: GaussSeidelParams,
) -> (RunResult, Solution) {
    run_captured(program, nprocs, move |ctx| body_mp(ctx, &params))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gauss_seidel::{generate, residual, solve_parallel, solve_sequential};
    use dse_api::Platform;

    #[test]
    fn mp_solver_converges_and_is_correct() {
        let params = GaussSeidelParams::paper(60);
        let program = DseProgram::new(Platform::linux_pentium2());
        let (run, sol) = solve_parallel_mp(&program, 3, params);
        assert!(sol.delta <= params.eps);
        assert!(run.secs() > 0.0);
        let sys = generate(&params);
        assert!(residual(&sys, &sol.x) < 1e-6);
        // No global-memory traffic at all in the MP version (the barrier
        // and the user messages are the only runtime services used).
        let kernel = |name| run.metrics.counter_sum_over_pes("kernel", name);
        assert_eq!(kernel("gm_remote_reads"), 0);
        assert_eq!(kernel("gm_remote_writes"), 0);
    }

    #[test]
    fn mp_and_dsm_solutions_are_identical() {
        let params = GaussSeidelParams::paper(80);
        let program = DseProgram::new(Platform::sunos_sparc());
        let (_, dsm) = solve_parallel(&program, 4, params);
        let (_, mp) = solve_parallel_mp(&program, 4, params);
        assert_eq!(dsm.iters, mp.iters);
        assert_eq!(dsm.x, mp.x, "same numerical organization, same bits");
    }

    #[test]
    fn mp_single_rank_matches_sequential_sweeps() {
        let params = GaussSeidelParams::paper(40);
        let program = DseProgram::new(Platform::aix_rs6000());
        let (_, mp) = solve_parallel_mp(&program, 1, params);
        let seq = solve_sequential(&params);
        assert!(mp.iters >= seq.iters);
        assert!(mp.delta <= params.eps);
    }
}
