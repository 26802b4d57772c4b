//! Coherence-mode portability: turning the GM cache on — under either
//! coherence protocol — must never change a workload's answer, only its
//! traffic. Write-invalidate keeps replicas coherent eagerly; release
//! consistency defers invalidation to sync points, and every app in the
//! suite synchronizes (barriers, locks) before reading shared writes, so
//! its results match WI bit for bit on both engines.

use dse::apps::{dct, gauss_seidel, knights, matmul, othello};
use dse::live::{GmMode, LiveRunner};
use dse::prelude::*;
use std::sync::Mutex;

fn config(mode: GmMode) -> DseConfig {
    DseConfig::paper().with_gm_cache(true).with_gm_mode(mode)
}

/// Run a body on the live engine with the cache on under `mode` and
/// capture rank 0's result.
fn live_cached<T: Send + 'static>(
    mode: GmMode,
    nprocs: usize,
    body: impl Fn(&mut dse::live::LiveCtx) -> Option<T> + Send + Sync,
) -> T {
    let slot: Mutex<Option<T>> = Mutex::new(None);
    LiveRunner::new(nprocs)
        .gm_cache(true)
        .gm_mode(mode)
        .run(|ctx| {
            if let Some(v) = body(ctx) {
                *slot.lock().unwrap() = Some(v);
            }
        });
    slot.into_inner().unwrap().expect("rank 0 result")
}

#[test]
fn sim_cache_and_modes_preserve_gauss_seidel() {
    let params = gauss_seidel::GaussSeidelParams::paper(80);
    let base = DseProgram::new(Platform::sunos_sparc());
    let (_, plain) = gauss_seidel::solve_parallel(&base, 3, params);
    for mode in [GmMode::WriteInvalidate, GmMode::ReleaseConsistency] {
        let prog = DseProgram::new(Platform::sunos_sparc()).with_config(config(mode));
        let (_, sol) = gauss_seidel::solve_parallel(&prog, 3, params);
        assert_eq!(plain.iters, sol.iters, "{mode:?}");
        assert_eq!(plain.x, sol.x, "{mode:?}");
    }
}

#[test]
fn sim_cache_and_modes_preserve_dct() {
    let params = dct::DctParams {
        size: 128,
        block: 8,
        keep: 0.25,
        seed: 3,
    };
    let (_, plain) =
        dct::compress_parallel(&DseProgram::new(Platform::linux_pentium2()), 4, params);
    assert_eq!(plain, dct::compress_sequential(&params));
    for mode in [GmMode::WriteInvalidate, GmMode::ReleaseConsistency] {
        let prog = DseProgram::new(Platform::linux_pentium2()).with_config(config(mode));
        let (_, out) = dct::compress_parallel(&prog, 4, params);
        assert_eq!(plain, out, "{mode:?}");
    }
}

#[test]
fn sim_cache_and_modes_preserve_othello() {
    let params = othello::OthelloParams::paper(4);
    let (_, plain) = othello::search_parallel(&DseProgram::new(Platform::aix_rs6000()), 3, params);
    for mode in [GmMode::WriteInvalidate, GmMode::ReleaseConsistency] {
        let prog = DseProgram::new(Platform::aix_rs6000()).with_config(config(mode));
        let (_, best) = othello::search_parallel(&prog, 3, params);
        assert_eq!(plain, best, "{mode:?}");
    }
}

#[test]
fn sim_cache_and_modes_preserve_knights() {
    let params = knights::KnightsParams::paper(16);
    let (_, plain) = knights::count_parallel(&DseProgram::new(Platform::sunos_sparc()), 4, params);
    assert_eq!(plain, 304);
    for mode in [GmMode::WriteInvalidate, GmMode::ReleaseConsistency] {
        let prog = DseProgram::new(Platform::sunos_sparc()).with_config(config(mode));
        let (_, count) = knights::count_parallel(&prog, 4, params);
        assert_eq!(plain, count, "{mode:?}");
    }
}

#[test]
fn sim_cache_and_modes_preserve_matmul() {
    let params = matmul::MatmulParams::single(20);
    let (_, plain) =
        matmul::multiply_parallel(&DseProgram::new(Platform::sunos_sparc()), 3, params);
    assert_eq!(plain, matmul::multiply_sequential(&params));
    for mode in [GmMode::WriteInvalidate, GmMode::ReleaseConsistency] {
        let prog = DseProgram::new(Platform::sunos_sparc()).with_config(config(mode));
        let (_, c) = matmul::multiply_parallel(&prog, 3, params);
        assert_eq!(plain, c, "{mode:?}");
    }
}

#[test]
fn live_cache_and_modes_preserve_gauss_seidel() {
    let params = gauss_seidel::GaussSeidelParams::paper(80);
    let (_, sim_sol) =
        gauss_seidel::solve_parallel(&DseProgram::new(Platform::sunos_sparc()), 3, params);
    for mode in [GmMode::WriteInvalidate, GmMode::ReleaseConsistency] {
        let sol = live_cached(mode, 3, |ctx| gauss_seidel::body(ctx, &params));
        assert_eq!(sim_sol.iters, sol.iters, "{mode:?}");
        assert_eq!(sim_sol.x, sol.x, "{mode:?}");
    }
}

#[test]
fn live_cache_and_modes_preserve_dct() {
    let params = dct::DctParams {
        size: 128,
        block: 8,
        keep: 0.25,
        seed: 3,
    };
    let (_, sim_out) =
        dct::compress_parallel(&DseProgram::new(Platform::linux_pentium2()), 4, params);
    for mode in [GmMode::WriteInvalidate, GmMode::ReleaseConsistency] {
        let out = live_cached(mode, 4, |ctx| dct::body(ctx, &params));
        assert_eq!(sim_out, out, "{mode:?}");
    }
}

/// Rank 1 caches block 0 (homed on node 0); then rank 0 writes its first
/// eight bytes after `flops` of computation while rank 2 reads the block.
/// Rank 2's read after the next barrier must see the write whichever way
/// the write and the read's lease interleave: a lease granted before the
/// store write puts rank 2 among the sharers the write invalidates, and one
/// granted after it carries the new bytes. Rank 2 returns what it read.
fn write_races_a_lease(ctx: &mut impl ParallelApi, flops: u64) -> Option<Vec<u8>> {
    const BLOCK: usize = 512;
    let region = ctx.gm_alloc(3 * BLOCK, Distribution::BlockedBy { chunk: BLOCK });
    ctx.barrier();
    if ctx.rank() == 1 {
        ctx.gm_read(region, 0, BLOCK);
    }
    ctx.barrier();
    match ctx.rank() {
        0 => {
            ctx.compute(Work::flops(flops));
            ctx.gm_write(region, 0, &[7; 8]);
        }
        2 => {
            ctx.gm_read(region, 0, BLOCK);
        }
        _ => {}
    }
    ctx.barrier();
    (ctx.rank() == 2).then(|| ctx.gm_read(region, 0, 2))
}

#[test]
fn an_own_node_write_racing_a_lease_is_seen_after_the_barrier_on_both_engines() {
    for flops in [0, 1_000, 5_000] {
        let slot = std::sync::Arc::new(Mutex::new(None));
        let out = std::sync::Arc::clone(&slot);
        DseProgram::new(Platform::linux_pentium2())
            .with_config(config(GmMode::WriteInvalidate))
            .run(3, move |ctx| {
                if let Some(v) = write_races_a_lease(ctx, flops) {
                    *out.lock().unwrap() = Some(v);
                }
            });
        let sim = slot.lock().unwrap().take();
        assert_eq!(sim, Some(vec![7, 7]), "simulator, {flops} flops");
        for _ in 0..4 {
            let live = live_cached(GmMode::WriteInvalidate, 3, |ctx| {
                write_races_a_lease(ctx, flops)
            });
            assert_eq!(live, [7, 7], "live, {flops} flops");
        }
    }
}
