//! Where did the time go? — the paper's explanations, measured.
//!
//! Runs the DCT workload at fine (4×4) and coarse (32×32) grain with
//! tracing, and prints the blame table of each run: every rank's virtual
//! time split into compute, CPU queue, home-kernel service, wire, barrier
//! and lock. The fine-grain run drowns in communication wait; the
//! coarse-grain run computes.
//!
//! ```sh
//! cargo run --release --example trace_breakdown
//! ```

use dse::apps::dct::{compress_parallel, DctParams};
use dse::prelude::*;
use dse_trace::{assemble, blame};

fn show(block: usize) {
    let params = DctParams {
        size: 256,
        block,
        keep: 0.25,
        seed: 7,
    };
    let program =
        DseProgram::new(Platform::sunos_sparc()).with_config(DseConfig::paper().with_tracing(true));
    let (run, _) = compress_parallel(&program, 4, params);
    println!(
        "=== DCT {block}x{block} on 4 processors (simulated {}) ===",
        run.elapsed
    );
    let table = blame(&assemble(&run.trace_spans));
    println!("blame, virtual time (per rank, % of its own clock):");
    print!("{}", table.render());
    let all = table.total();
    let pct = |ns: u64| ns as f64 * 100.0 / all.wall_ns as f64;
    println!(
        "ranks aggregate: {:.0}% compute, {:.0}% cpu-queue, {:.0}% gm wait\n",
        pct(all.compute_ns),
        pct(all.cpu_queue_ns),
        pct(all.gm_wait_ns())
    );
}

fn main() {
    show(4);
    show(32);
    println!("4x4: many tiny tasks, each a fetch-add + image read + result");
    println!("write — the ranks mostly wait on messages (the paper's");
    println!("\"communication frequency\"). 32x32: the same bytes in a few");
    println!("big tasks — the ranks compute. The blame table says whom they");
    println!("wait for: `serve` is a home kernel at work on the rank's request,");
    println!("`queue` is that kernel (or the rank itself) waiting for a CPU a");
    println!("co-resident rank's compute slice holds, `net` is the request and");
    println!("its answer on the wire.");
}
