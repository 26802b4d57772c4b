//! The live engine end to end: a 4-PE Gauss-Seidel solve where every
//! remote global-memory access is a real wire message, run twice — once on
//! the in-process channel transport and once over framed TCP on loopback —
//! and checked for identical results.
//!
//! This is also the CI smoke test for the transport stack: it exits
//! nonzero if the engines disagree, if no GM request ever crossed the
//! wire, or (via the CI-level `timeout`) if the shutdown handshake hangs.
//!
//! ```sh
//! cargo run --release --example live_engine
//! ```

use std::sync::Mutex;

use dse::apps::gauss_seidel::{self, GaussSeidelParams, Solution};
use dse::live::{LiveRunResult, LiveRunner, TransportKind};

fn solve_on(kind: TransportKind, params: &GaussSeidelParams) -> (LiveRunResult, Solution) {
    let slot: Mutex<Option<Solution>> = Mutex::new(None);
    let run = LiveRunner::new(4).transport(kind).run(|ctx| {
        if let Some(sol) = gauss_seidel::body(ctx, params) {
            *slot.lock().unwrap() = Some(sol);
        }
    });
    let sol = slot.into_inner().unwrap().expect("rank 0 solution");
    (run, sol)
}

fn main() {
    let params = GaussSeidelParams::paper(120);
    println!("Gauss-Seidel N={} on 4 live PEs, twice:", params.n);
    let mut reference: Option<Solution> = None;
    for kind in [TransportKind::Channel, TransportKind::Tcp] {
        let (run, sol) = solve_on(kind, &params);
        let reqs = run
            .metrics
            .counter_sum_over_pes("kernel", "gm_request_msgs");
        let served = run
            .metrics
            .counter_sum_over_pes("kernel", "requests_served");
        println!(
            "{:<8} {} sweeps, delta {:.2e}, wall {:?}, {} GM request messages, {} served",
            kind.name(),
            sol.iters,
            sol.delta,
            run.elapsed,
            reqs,
            served
        );
        assert!(reqs > 0, "{}: no GM request crossed the wire", kind.name());
        // A kernel serves every message it handles: each GM request, each
        // barrier entry that reaches PE 0's kernel over a wire (one per
        // wait of PEs 1-3 on TCP; on the channel every PE enters in place)
        // and each rank's exit notice.
        let wired = match kind {
            TransportKind::Channel => 0..0,
            _ => 1..4,
        };
        let waits: u64 = wired
            .filter_map(|pe| run.metrics.histogram("sync", "barrier_wait_ns", Some(pe)))
            .map(|h| h.count())
            .sum();
        let exits = 4;
        assert_eq!(
            reqs + waits + exits,
            served,
            "{}: requests lost in flight",
            kind.name()
        );
        match &reference {
            None => reference = Some(sol),
            Some(first) => {
                assert_eq!(first.iters, sol.iters, "engines disagree on sweep count");
                assert_eq!(first.x, sol.x, "engines disagree on the solution");
            }
        }
    }
    println!("channel and TCP transports agree bit-for-bit.");
}
