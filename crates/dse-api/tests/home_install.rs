//! Where a leased block's data goes, on the simulator (the live engine runs
//! the same client and kernel code): the home records the lease when it
//! *serves* the read, and the requester installs the bytes when it takes
//! the answer, only if its node's install epoch has not moved since the
//! read was sent. So a read issued before the first one is waited on
//! misses, and an invalidation that lands between the serve and the
//! completion refuses the install.

use std::sync::Arc;

use dse_api::{
    Distribution, DseConfig, DseCtx, DseProgram, GmHandle, NodeId, ParallelApi, Platform, RegionId,
    RunResult, Work,
};
use dse_kernel::ClusterShared;

const BLOCK: usize = 512;

/// A cached run over three nodes, each homing one block of the region
/// `body` is handed.
fn run(body: impl Fn(&mut DseCtx<'_>, RegionId) + Send + Sync + 'static) -> RunResult {
    let config = DseConfig::paper().with_gm_cache(true);
    DseProgram::new(Platform::linux_pentium2())
        .with_config(config)
        .run(3, move |ctx| {
            let region = ctx.gm_alloc(3 * BLOCK, Distribution::BlockedBy { chunk: BLOCK });
            ctx.barrier();
            body(ctx, region);
            ctx.barrier();
        })
}

/// `pe`'s `kernel/name` counter.
fn counter(shared: &ClusterShared, pe: u32, name: &str) -> u64 {
    let snap = shared.metrics.snapshot();
    snap.counter("kernel", name, Some(pe)).unwrap_or(0)
}

/// Put a split-phase read of node 2's whole block on the wire and let the
/// home serve it, leaving its answer unread: the handle.
fn block_read_served_not_taken(ctx: &mut DseCtx<'_>, region: RegionId) -> GmHandle {
    let block = ctx.gm_read_nb(region, 2 * BLOCK as u64, BLOCK);
    // A blocking read of eight bytes homed on node 1 flushes both.
    ctx.gm_read(region, BLOCK as u64, 8);
    // Long enough for node 2 to have served the block.
    ctx.compute(Work::flops(50_000_000));
    assert_eq!(counter(ctx.shared(), 2, "gm_remote_reads"), 1);
    block
}

#[test]
fn a_second_overlapping_read_misses_before_the_first_is_waited_on() {
    let r = run(|ctx, region| {
        if ctx.rank() != 0 {
            return;
        }
        let block = block_read_served_not_taken(ctx, region);
        let shared = Arc::clone(ctx.shared());
        // The home recorded the lease and installed nothing.
        let holders = shared
            .cache
            .peek_holders(region, 2 * BLOCK as u64, BLOCK, NodeId(2));
        assert_eq!(holders, [NodeId(0)]);
        assert!(shared.cache.get(NodeId(0), region, 2).is_none());
        let requests = counter(&shared, 0, "gm_request_msgs");
        let again = ctx.gm_read_nb(region, 2 * BLOCK as u64 + 16, 64);
        assert_eq!(ctx.gm_wait(again), Some(vec![0; 64]));
        assert_eq!(counter(&shared, 0, "cache_hits"), 0, "no replica yet");
        assert_eq!(counter(&shared, 0, "gm_request_msgs"), requests + 1);
        // Taking the first answer installs the block; now it serves alone.
        assert_eq!(ctx.gm_wait(block), Some(vec![0; BLOCK]));
        assert!(shared.cache.get(NodeId(0), region, 2).is_some());
        assert_eq!(ctx.gm_read(region, 2 * BLOCK as u64 + 16, 64), vec![0; 64]);
        assert_eq!(counter(&shared, 0, "gm_request_msgs"), requests + 1);
    });
    assert_eq!(r.metrics.counter_sum_over_pes("kernel", "cache_hits"), 1);
}

#[test]
fn an_invalidation_between_serve_and_completion_refuses_the_install() {
    let r = run(|ctx, region| match ctx.rank() {
        0 => {
            let block = block_read_served_not_taken(ctx, region);
            let shared = Arc::clone(ctx.shared());
            // Meanwhile node 2 wrote its block, and node 0's kernel dropped
            // the lease the read was given: the epoch moved.
            assert_eq!(counter(&shared, 0, "dir_invals"), 1);
            assert_eq!(shared.cache.epoch(NodeId(0)), 1);
            // The answer is the bytes the home read before the write, and
            // they are not installed.
            assert_eq!(ctx.gm_wait(block), Some(vec![0; BLOCK]));
            assert!(shared.cache.get(NodeId(0), region, 2).is_none());
            assert_eq!(ctx.gm_read(region, 2 * BLOCK as u64, 2), [7, 7]);
        }
        2 => {
            // After node 2 served rank 0's read, before rank 0 takes it.
            ctx.compute(Work::flops(10_000_000));
            assert_eq!(counter(ctx.shared(), 2, "gm_remote_reads"), 1);
            ctx.gm_write(region, 2 * BLOCK as u64, &[7; 8]);
        }
        _ => {}
    });
    let sum = |name| r.metrics.counter_sum_over_pes("kernel", name);
    assert_eq!((sum("invalidation_rounds"), sum("cache_hits")), (1, 0));
}
