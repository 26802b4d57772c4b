//! Quickstart: write one SPMD program, run it on a simulated 1999 cluster
//! *and* on real threads, and look at the single-system image of it.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use dse::prelude::*;

/// The program: every rank fills its slice of a shared table, then rank 0
/// sums it. Written once against `ParallelApi`, it runs on both engines.
fn program<A: ParallelApi>(ctx: &mut A) -> Option<f64> {
    let n = 1_000;
    let table = GmArray::<f64>::alloc(ctx, n, Distribution::Blocked);
    let p = ctx.nprocs();
    let chunk = n.div_ceil(p);
    let rank = ctx.rank() as usize;
    let lo = (rank * chunk).min(n);
    let hi = ((rank + 1) * chunk).min(n);
    let mine: Vec<f64> = (lo..hi).map(|i| (i as f64).sqrt()).collect();
    // Real work happens in Rust; `compute` tells the simulated platform
    // how much machine time it represents.
    ctx.compute(Work::flops(30 * (hi - lo) as u64));
    table.write(ctx, lo, &mine);
    ctx.barrier();
    if ctx.rank() == 0 {
        let all = table.read(ctx, 0, n);
        Some(all.iter().sum())
    } else {
        None
    }
}

fn main() {
    println!("--- simulated cluster (SunOS / SparcStation, 10 Mbps Ethernet) ---");
    for p in [1, 2, 4, 8] {
        let result = DseProgram::new(Platform::sunos_sparc()).run(p, |ctx| {
            if let Some(sum) = program(ctx) {
                println!("  rank 0 computed sum = {sum:.3}");
            }
        });
        println!(
            "  p={p:>2}: simulated time {}  (messages: {}, wire bytes: {})",
            result.elapsed,
            result.metrics.counter_sum_over_pes("kernel", "messages"),
            result.net_wire_bytes
        );
    }

    println!("--- same program on real threads (live engine) ---");
    let live = LiveRunner::new(4).run(|ctx| {
        if let Some(sum) = program(ctx) {
            println!("  rank 0 computed sum = {sum:.3}");
        }
    });
    println!("  p=4: wall-clock {:?}", live.elapsed);
}
