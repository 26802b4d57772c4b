//! The simulator's side of the one place the two kernel ports differ in
//! what a program can observe (`KernelPort::lease`): the simulated home
//! installs a leased block in the requester's replica cache when it
//! *serves* the read, so a later overlapping read hits the replica even
//! though the first one has not been waited on yet. (The live home only
//! records the lease; the requester installs on completion, and the same
//! second read misses there.)

use std::sync::Arc;

use dse_api::{Distribution, DseConfig, DseProgram, NodeId, ParallelApi, Platform, Work};

const BLOCK: usize = 512;

#[test]
fn a_second_overlapping_read_hits_before_the_first_is_waited_on() {
    let config = DseConfig::paper().with_gm_cache(true);
    let r = DseProgram::new(Platform::linux_pentium2())
        .with_config(config)
        .run(3, |ctx| {
            let region = ctx.gm_alloc(3 * BLOCK, Distribution::BlockedBy { chunk: BLOCK });
            ctx.barrier();
            if ctx.rank() == 0 {
                // Two split-phase reads: eight bytes homed on node 1, then
                // node 2's whole block.
                let small = ctx.gm_read_nb(region, BLOCK as u64, 8);
                let block = ctx.gm_read_nb(region, 2 * BLOCK as u64, BLOCK);
                // Waiting on the small one puts both on the wire, and its
                // answer is back first.
                ctx.gm_wait(small);
                // Long enough for node 2 to have served the block.
                ctx.compute(Work::flops(50_000_000));
                // Node 2 has served the block and installed it in node 0's
                // replica cache, yet rank 0 has not redeemed the handle.
                let shared = Arc::clone(ctx.shared());
                let counter =
                    |pe, name| shared.metrics.snapshot().counter("kernel", name, Some(pe));
                assert_eq!(counter(2, "gm_remote_reads"), Some(1));
                assert!(
                    shared.cache.get(NodeId(0), region, 2).is_some(),
                    "the home installed the block before its answer was read"
                );
                let node0 = || (counter(0, "cache_hits"), counter(0, "gm_request_msgs"));
                let (hits, requests) = node0();
                let again = ctx.gm_read_nb(region, 2 * BLOCK as u64 + 16, 64);
                assert_eq!(
                    node0(),
                    (hits.map(|h| h + 1), requests),
                    "served from the replica the home installed: no request"
                );
                assert_eq!(ctx.gm_wait(again), Some(vec![0; 64]));
                assert_eq!(ctx.gm_wait(block), Some(vec![0; BLOCK]));
            }
            ctx.barrier();
        });
    assert_eq!(r.metrics.counter_sum_over_pes("kernel", "cache_hits"), 1);
}
