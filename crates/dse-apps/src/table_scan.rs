//! Read-mostly shared-table scan (the GM-cache ablation's workload).
//!
//! Not one of the paper's four applications: a table homed on node 0 is
//! written once and then scanned in full, repeatedly, by every rank. With
//! the paper's plain request/response global memory every pass crosses
//! the wire; with the GM cache extension only the first one does.

use dse_api::{Distribution, GmArray, NodeId, ParallelApi, Work};

/// Table entries (`u64` each).
const ENTRIES: usize = 4096;
/// Full passes every rank makes over the table.
const PASSES: u64 = 10;

fn entry(i: usize) -> u64 {
    i as u64 * 7
}

/// Sequential reference: the checksum one rank accumulates.
pub fn scan_sequential() -> u64 {
    (0..ENTRIES).map(entry).sum::<u64>().wrapping_mul(PASSES)
}

/// The engine-independent SPMD body; rank 0 returns its checksum (every
/// rank accumulates the same one).
pub fn body<A: ParallelApi>(ctx: &mut A) -> Option<u64> {
    let table = GmArray::<u64>::alloc(ctx, ENTRIES, Distribution::OnNode(NodeId(0)));
    if ctx.rank() == 0 {
        let vals: Vec<u64> = (0..ENTRIES).map(entry).collect();
        table.write(ctx, 0, &vals);
    }
    ctx.barrier();
    let mut acc = 0u64;
    for _ in 0..PASSES {
        let v = table.read(ctx, 0, ENTRIES);
        acc = acc.wrapping_add(v.iter().sum::<u64>());
        ctx.compute(Work::iops(ENTRIES as u64 * 4));
    }
    ctx.barrier();
    (ctx.rank() == 0).then_some(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::run_captured;
    use dse_api::{DseConfig, DseProgram, Platform};

    #[test]
    fn parallel_checksum_equals_the_reference_and_the_cache_pays_off() {
        let run = |cache: bool| {
            let config = DseConfig::paper().with_gm_cache(cache);
            let program = DseProgram::new(Platform::sunos_sparc()).with_config(config);
            let (run, sum) = run_captured(&program, 3, |ctx| body(ctx));
            assert_eq!(sum, scan_sequential());
            run.elapsed
        };
        assert!(run(true) < run(false));
    }
}
