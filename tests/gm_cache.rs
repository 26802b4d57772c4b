//! The optional global-memory cache (read-replicate / write-invalidate):
//! correctness under sharing, hit accounting, and its performance
//! signature (helps read-mostly workloads, taxes write-heavy ones).

use dse::apps::{gauss_seidel, knights};
use dse::msg::NodeId;
use dse::prelude::*;

fn cached() -> DseConfig {
    DseConfig::paper().with_gm_cache(true)
}

#[test]
fn repeated_remote_reads_hit_after_first_touch() {
    let result = DseProgram::new(Platform::sunos_sparc())
        .with_config(cached())
        .run(2, |ctx| {
            let arr = GmArray::<u64>::alloc(ctx, 512, Distribution::OnNode(NodeId(0)));
            if ctx.rank() == 0 {
                let vals: Vec<u64> = (0..512).map(|i| i * 3).collect();
                arr.write(ctx, 0, &vals);
            }
            ctx.barrier();
            if ctx.rank() == 1 {
                for _ in 0..10 {
                    let all = arr.read(ctx, 0, 512);
                    assert_eq!(all[100], 300);
                }
            }
            ctx.barrier();
        });
    let kernel = |name| result.metrics.counter_sum_over_pes("kernel", name);
    let (hits, misses) = (kernel("cache_hits"), kernel("cache_misses"));
    assert!(hits > misses, "hits {hits} misses {misses}");
}

#[test]
fn writes_invalidate_stale_copies() {
    DseProgram::new(Platform::linux_pentium2())
        .with_config(cached())
        .run(3, |ctx| {
            let arr = GmArray::<u64>::alloc(ctx, 256, Distribution::OnNode(NodeId(0)));
            // Phase 1: everyone reads (and caches) the zeroed table.
            let v = arr.read(ctx, 0, 256);
            assert!(v.iter().all(|&x| x == 0));
            ctx.barrier();
            // Phase 2: rank 2 overwrites it (remote write → home-kernel
            // invalidation transaction).
            if ctx.rank() == 2 {
                let vals: Vec<u64> = (0..256).map(|i| i + 1).collect();
                arr.write(ctx, 0, &vals);
            }
            ctx.barrier();
            // Phase 3: every rank must see the new values, cached or not.
            let v = arr.read(ctx, 0, 256);
            for (i, &x) in v.iter().enumerate() {
                assert_eq!(x, i as u64 + 1, "rank {} saw stale data", ctx.rank());
            }
            ctx.barrier();
        });
}

#[test]
fn local_writes_also_invalidate() {
    DseProgram::new(Platform::aix_rs6000())
        .with_config(cached())
        .run(2, |ctx| {
            let arr = GmArray::<u64>::alloc(ctx, 128, Distribution::OnNode(NodeId(0)));
            // Rank 1 caches the block.
            if ctx.rank() == 1 {
                let _ = arr.read(ctx, 0, 128);
            }
            ctx.barrier();
            // Rank 0 writes through the own-node fast path.
            if ctx.rank() == 0 {
                arr.set(ctx, 5, 99);
            }
            ctx.barrier();
            if ctx.rank() == 1 {
                assert_eq!(arr.get(ctx, 5), 99, "own-node write left a stale copy");
            }
            ctx.barrier();
        });
}

#[test]
fn apps_unchanged_under_cache() {
    // Every workload computes identical results with the cache enabled.
    let program = DseProgram::new(Platform::sunos_sparc()).with_config(cached());
    let gs = gauss_seidel::GaussSeidelParams::paper(60);
    let (_, sol) = gauss_seidel::solve_parallel(&program, 3, gs);
    let reference = {
        let plain = DseProgram::new(Platform::sunos_sparc());
        gauss_seidel::solve_parallel(&plain, 3, gs).1
    };
    assert_eq!(sol.x, reference.x);

    let (_, count) = knights::count_parallel(&program, 4, knights::KnightsParams::paper(16));
    assert_eq!(count, 304);
}

#[test]
fn cache_helps_read_mostly_sharing() {
    // All ranks repeatedly scan a table homed on node 0: with the cache
    // only the first pass pays the wire.
    let body = |ctx: &mut DseCtx<'_>| {
        let arr = GmArray::<u64>::alloc(ctx, 2048, Distribution::OnNode(NodeId(0)));
        ctx.barrier();
        for _ in 0..8 {
            let v = arr.read(ctx, 0, 2048);
            assert_eq!(v.len(), 2048);
            ctx.compute(Work::iops(2048));
        }
        ctx.barrier();
    };
    let plain = DseProgram::new(Platform::sunos_sparc()).run(4, body);
    let with_cache = DseProgram::new(Platform::sunos_sparc())
        .with_config(cached())
        .run(4, body);
    assert!(
        with_cache.elapsed.as_nanos() * 2 < plain.elapsed.as_nanos(),
        "cache should at least halve a read-mostly workload: {} vs {}",
        with_cache.elapsed,
        plain.elapsed
    );
}

#[test]
fn cache_taxes_write_heavy_sharing() {
    // Ranks alternately read and rewrite the same shared block: every
    // write now pays invalidation round trips.
    let body = |ctx: &mut DseCtx<'_>| {
        let arr = GmArray::<u64>::alloc(ctx, 64, Distribution::OnNode(NodeId(0)));
        ctx.barrier();
        for round in 0..6 {
            let _ = arr.read(ctx, 0, 64);
            ctx.barrier();
            if round % ctx.nprocs() == ctx.rank() as usize % ctx.nprocs() {
                arr.set(ctx, 0, round as u64);
            }
            ctx.barrier();
        }
    };
    let plain = DseProgram::new(Platform::sunos_sparc()).run(4, body);
    let with_cache = DseProgram::new(Platform::sunos_sparc())
        .with_config(cached())
        .run(4, body);
    assert!(
        with_cache.elapsed >= plain.elapsed,
        "invalidation traffic should not be free: {} vs {}",
        with_cache.elapsed,
        plain.elapsed
    );
}
