//! Collective operations built from global memory + barriers.
//!
//! These are conveniences, not primitives: each is implemented with the
//! same GM reads/writes and barrier traffic an application would issue by
//! hand, so their cost in the simulator is the honest cost of the pattern.

use dse_kernel::Distribution;
use dse_msg::NodeId;

use crate::api::ParallelApi;
use crate::region::{GmArray, GmElem};

/// Broadcast `data` from rank 0 to every rank. All ranks must pass a slice
/// of the same length; only rank 0's contents are used. Returns the
/// broadcast values.
pub fn broadcast<T: GmElem>(ctx: &mut impl ParallelApi, data: &[T]) -> Vec<T> {
    let scratch = GmArray::<T>::alloc(ctx, data.len(), Distribution::OnNode(NodeId(0)));
    if ctx.rank() == 0 {
        scratch.write(ctx, 0, data);
    }
    ctx.barrier();
    // Split-phase get: issue, then redeem. On the simulated engine this
    // rides the request pipeline, so a caller interleaving other
    // non-blocking operations gets them coalesced onto the same wire trip.
    let h = ctx.gm_read_nb(scratch.region(), 0, data.len() * T::SIZE);
    let bytes = ctx.gm_wait(h).expect("broadcast read carries data");
    let out = bytes.chunks_exact(T::SIZE).map(|c| T::read_le(c)).collect();
    ctx.barrier();
    out
}

/// Gather one value from every rank; every rank receives the full vector,
/// indexed by rank.
pub fn all_gather<T: GmElem>(ctx: &mut impl ParallelApi, value: T) -> Vec<T> {
    let n = ctx.nprocs();
    let slots = GmArray::<T>::alloc(ctx, n, Distribution::OnNode(NodeId(0)));
    // The contribution is a split-phase put; the barrier below fences it,
    // so visibility for the gathering reads is unchanged.
    let mut buf = vec![0u8; T::SIZE];
    value.write_le(&mut buf);
    let h = ctx.gm_write_nb(slots.region(), (ctx.rank() as usize * T::SIZE) as u64, &buf);
    ctx.gm_wait(h);
    ctx.barrier();
    let h = ctx.gm_read_nb(slots.region(), 0, n * T::SIZE);
    let bytes = ctx.gm_wait(h).expect("all_gather read carries data");
    let out = bytes.chunks_exact(T::SIZE).map(|c| T::read_le(c)).collect();
    ctx.barrier();
    out
}

/// Reduce one `f64` per rank with `op` (associative, commutative); every
/// rank receives the result.
pub fn reduce_f64(ctx: &mut impl ParallelApi, value: f64, op: impl Fn(f64, f64) -> f64) -> f64 {
    let parts = all_gather(ctx, value);
    let mut acc = parts[0];
    for &v in &parts[1..] {
        acc = op(acc, v);
    }
    acc
}

/// Sum reduction over one `f64` per rank.
///
/// ```
/// use dse_api::{collective, DseProgram, ParallelApi, Platform};
///
/// DseProgram::new(Platform::aix_rs6000()).run(4, |ctx| {
///     let sum = collective::reduce_sum(ctx, (ctx.rank() + 1) as f64);
///     assert_eq!(sum, 1.0 + 2.0 + 3.0 + 4.0);
/// });
/// ```
pub fn reduce_sum(ctx: &mut impl ParallelApi, value: f64) -> f64 {
    reduce_f64(ctx, value, |a, b| a + b)
}

/// Max reduction over one `f64` per rank.
pub fn reduce_max(ctx: &mut impl ParallelApi, value: f64) -> f64 {
    reduce_f64(ctx, value, f64::max)
}

/// Sum reduction over one `i64` per rank.
pub fn reduce_sum_i64(ctx: &mut impl ParallelApi, value: i64) -> i64 {
    let parts = all_gather(ctx, value);
    parts.iter().sum()
}
