//! Where did the time go? — the paper's explanations, measured.
//!
//! Runs the DCT workload at fine (4×4) and coarse (32×32) grain with
//! tracing, and prints what the two trace readers say of each run: the
//! scheduler's per-process time breakdown with an ASCII cluster timeline,
//! and under it the causal blame table — every rank's virtual time split
//! into compute, home-kernel service, wire, barrier and lock. The
//! fine-grain run drowns in communication wait; the coarse-grain run
//! computes.
//!
//! ```sh
//! cargo run --release --example trace_breakdown
//! ```

use dse::apps::dct::{compress_parallel, DctParams};
use dse::prelude::*;
use dse_trace::{analyze, assemble, blame, gantt};

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
    let trace = run.report.trace.as_ref().expect("tracing enabled");
    let analysis = analyze(trace, run.report.end_time);
    println!(
        "=== DCT {block}x{block} on 4 processors (simulated {}) ===",
        run.elapsed
    );
    print!("{}", analysis.render());
    let (c, q, r) = analysis.group_fractions("rank");
    println!(
        "worker ranks aggregate: {:.0}% compute, {:.0}% cpu-queue, {:.0}% recv-wait",
        c * 100.0,
        q * 100.0,
        r * 100.0
    );
    println!("{}", gantt(trace, run.report.end_time, 72));
    println!("blame, virtual time (per rank, % of its own clock):");
    println!("{}", blame(&assemble(&run.trace_spans)).render());
}

fn main() {
    show(4);
    show(32);
    println!("4x4: many tiny tasks, each a fetch-add + image read + result");
    println!("write — the ranks mostly wait on messages (the paper's");
    println!("\"communication frequency\"). 32x32: the same bytes in a few");
    println!("big tasks — the ranks compute. The blame table says whom they");
    println!("wait for: `serve` is a home kernel at work on the rank's request");
    println!("(queued behind its co-resident rank's compute slices included),");
    println!("`net` is the request and its answer on the wire.");
}
