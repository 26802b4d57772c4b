//! Split-phase GM benchmark: the paper's Gauss-Seidel solver refreshed
//! row-at-a-time, blocking vs split-phase, on the paper's 10 Mbps
//! shared-bus cluster.
//!
//! Both variants read exactly the same rows — the solutions are
//! bit-identical — but the blocking variant pays one request/response
//! round trip per remote row while the split-phase variant issues every
//! row with `gm_read_nb` first, letting the runtime coalesce adjacent
//! rows with the same home into batched requests and pipeline the rest.
//! The example asserts the tentpole acceptance bar (at least 20 % fewer
//! GM request messages and a lower simulated runtime) and prints the
//! JSON document committed as `bench_results/gm_pipeline.json`:
//!
//! ```sh
//! cargo run --release --example gm_pipeline > bench_results/gm_pipeline.json
//! ```
//!
//! A second section benchmarks the directory-based GM cache on a
//! read-mostly shared-table workload (scattered single-element lookups
//! against a home-node table with a trickle of writes): the cache must
//! cut GM request messages measurably versus running uncached, and
//! release consistency must cut invalidation rounds by at least 30 %
//! versus write-invalidate while producing the identical checksum.

use std::sync::{Arc, Mutex};

use dse::apps::gauss_seidel::{self, GaussSeidelParams, RefreshMode};
use dse::prelude::*;

/// A run's cluster-wide total of the `kernel/<name>` counter.
fn kernel(run: &RunResult, name: &str) -> u64 {
    run.metrics.counter_sum_over_pes("kernel", name)
}

struct ModeResult {
    label: &'static str,
    elapsed_ns: u64,
    gm_request_msgs: u64,
    gm_coalesced: u64,
    net_frames: u64,
    x: Vec<f64>,
}

fn run_mode(program: &DseProgram, procs: usize, mode: RefreshMode) -> ModeResult {
    let params = GaussSeidelParams::paper(240);
    let (run, sol) = gauss_seidel::solve_parallel_with(program, procs, params, mode);
    assert!(sol.delta <= params.eps, "{mode:?} did not converge");
    ModeResult {
        label: match mode {
            RefreshMode::Bulk => "bulk",
            RefreshMode::RowBlocking => "row-blocking",
            RefreshMode::RowPipelined => "row-pipelined",
        },
        elapsed_ns: run.elapsed.as_nanos(),
        gm_request_msgs: kernel(&run, "gm_request_msgs"),
        gm_coalesced: kernel(&run, "gm_coalesced"),
        net_frames: run.net_frames,
        x: sol.x,
    }
}

struct CoherenceResult {
    label: &'static str,
    elapsed_ns: u64,
    gm_request_msgs: u64,
    invalidation_rounds: u64,
    dir_hits: u64,
    dir_invals: u64,
    rc_deferred_invals: u64,
    checksum: i64,
}

/// Read-mostly shared table: a 1024-entry table homed on node 0, six
/// rounds of (rank 0 scatters 16 updates) → barrier → (every rank
/// refreshes the whole table, then does 512 scattered single-element
/// lookups) → barrier. All coherence modes must compute the same
/// checksum; they differ only in traffic.
fn run_coherence(label: &'static str, procs: usize, config: DseConfig) -> CoherenceResult {
    const TABLE: usize = 1024;
    const ROUNDS: u64 = 6;
    let total = Arc::new(Mutex::new(0i64));
    let run = DseProgram::new(Platform::sunos_sparc())
        .with_config(config)
        .run(procs, {
            let total = Arc::clone(&total);
            move |ctx| {
                let table =
                    GmArray::<u64>::alloc(ctx, TABLE, Distribution::OnNode(dse::msg::NodeId(0)));
                let sum = GmCounter::alloc(ctx);
                let me = ctx.rank() as u64;
                ctx.barrier();
                let mut local = 0u64;
                for round in 0..ROUNDS {
                    if ctx.rank() == 0 {
                        for i in 0..16u64 {
                            let idx = (i * 61 + round * 17) as usize % TABLE;
                            table.set(ctx, idx, round * 1000 + i);
                        }
                    }
                    ctx.barrier();
                    // Whole-table refresh: block-covering reads are what take
                    // a directory lease and install a local replica...
                    let snap = table.read(ctx, 0, TABLE);
                    local = snap
                        .iter()
                        .fold(local, |acc, &v| acc.wrapping_mul(31).wrapping_add(v));
                    // ...which the scattered lookups are then served from.
                    for k in 0..512u64 {
                        let idx = (k * 31 + me) as usize % TABLE;
                        local = local.wrapping_mul(31).wrapping_add(table.get(ctx, idx));
                    }
                    ctx.barrier();
                }
                sum.fetch_add(ctx, local as i64);
                ctx.barrier();
                if ctx.rank() == 0 {
                    *total.lock().unwrap() = sum.load(ctx);
                }
            }
        });
    let checksum = *total.lock().unwrap();
    CoherenceResult {
        label,
        elapsed_ns: run.elapsed.as_nanos(),
        gm_request_msgs: kernel(&run, "gm_request_msgs"),
        invalidation_rounds: kernel(&run, "invalidation_rounds"),
        dir_hits: kernel(&run, "dir_hits"),
        dir_invals: kernel(&run, "dir_invals"),
        rc_deferred_invals: kernel(&run, "rc_deferred_invals"),
        checksum,
    }
}

fn main() {
    let procs = 4;
    let program = DseProgram::new(Platform::sunos_sparc()).with_config(DseConfig::paper());
    let modes = [
        RefreshMode::RowBlocking,
        RefreshMode::RowPipelined,
        RefreshMode::Bulk,
    ];
    let results: Vec<ModeResult> = modes
        .iter()
        .map(|&m| run_mode(&program, procs, m))
        .collect();
    let blocking = &results[0];
    let pipelined = &results[1];
    assert_eq!(
        blocking.x, pipelined.x,
        "refresh modes must produce bit-identical solutions"
    );
    assert_eq!(results[2].x, pipelined.x);
    let msg_reduction_pct = (blocking.gm_request_msgs - pipelined.gm_request_msgs) as f64 * 100.0
        / blocking.gm_request_msgs as f64;
    let speedup = blocking.elapsed_ns as f64 / pipelined.elapsed_ns as f64;
    println!("{{");
    println!("  \"workload\": \"gauss-seidel N=240, row-wise refresh, SunOS/SPARC, {procs} PEs\",");
    println!("  \"network\": \"paper 10 Mbps shared-bus Ethernet\",");
    println!("  \"modes\": [");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        println!(
            "    {{\"mode\": \"{}\", \"elapsed_ns\": {}, \"gm_request_msgs\": {}, \
             \"gm_coalesced\": {}, \"net_frames\": {}}}{comma}",
            r.label, r.elapsed_ns, r.gm_request_msgs, r.gm_coalesced, r.net_frames
        );
    }
    println!("  ],");
    println!("  \"request_msg_reduction_pct\": {msg_reduction_pct:.2},");
    println!("  \"pipelined_speedup_vs_blocking\": {speedup:.3},");

    let coherence = [
        run_coherence("uncached", procs, DseConfig::paper()),
        run_coherence("cached-wi", procs, DseConfig::paper().with_gm_cache(true)),
        run_coherence(
            "cached-rc",
            procs,
            DseConfig::paper()
                .with_gm_cache(true)
                .with_gm_mode(dse::live::GmMode::ReleaseConsistency),
        ),
    ];
    let (uncached, wi, rc) = (&coherence[0], &coherence[1], &coherence[2]);
    let cache_msg_reduction_pct = (uncached.gm_request_msgs - wi.gm_request_msgs) as f64 * 100.0
        / uncached.gm_request_msgs as f64;
    let inval_round_reduction_pct = (wi.invalidation_rounds - rc.invalidation_rounds) as f64
        * 100.0
        / wi.invalidation_rounds as f64;
    println!(
        "  \"coherence_workload\": \"shared-table lookups, 1024 entries, 6 rounds, {procs} PEs\","
    );
    println!("  \"coherence\": [");
    for (i, r) in coherence.iter().enumerate() {
        let comma = if i + 1 < coherence.len() { "," } else { "" };
        println!(
            "    {{\"mode\": \"{}\", \"elapsed_ns\": {}, \"gm_request_msgs\": {}, \
             \"invalidation_rounds\": {}, \"dir_hits\": {}, \"dir_invals\": {}, \
             \"rc_deferred_invals\": {}}}{comma}",
            r.label,
            r.elapsed_ns,
            r.gm_request_msgs,
            r.invalidation_rounds,
            r.dir_hits,
            r.dir_invals,
            r.rc_deferred_invals
        );
    }
    println!("  ],");
    println!("  \"cache_request_msg_reduction_pct\": {cache_msg_reduction_pct:.2},");
    println!("  \"rc_invalidation_round_reduction_pct\": {inval_round_reduction_pct:.2}");
    println!("}}");
    assert!(
        msg_reduction_pct >= 20.0,
        "split-phase must cut GM request messages by >= 20% (got {msg_reduction_pct:.2}%)"
    );
    assert!(
        pipelined.elapsed_ns < blocking.elapsed_ns,
        "split-phase must lower the simulated runtime"
    );
    assert!(
        pipelined.gm_coalesced > 0,
        "row-pipelined refresh must exercise write coalescing"
    );
    assert_eq!(
        uncached.checksum, wi.checksum,
        "the cache must not change results"
    );
    assert_eq!(
        uncached.checksum, rc.checksum,
        "release consistency must not change results at sync points"
    );
    assert!(
        wi.dir_hits > 0 && wi.dir_invals > 0,
        "write-invalidate must exercise the directory (hits {}, invals {})",
        wi.dir_hits,
        wi.dir_invals
    );
    assert!(
        cache_msg_reduction_pct >= 20.0,
        "the directory cache must measurably cut GM request messages on a read-mostly \
         workload (got {cache_msg_reduction_pct:.2}%)"
    );
    assert!(
        rc.rc_deferred_invals > 0,
        "release consistency must defer invalidations on shared blocks"
    );
    assert!(
        inval_round_reduction_pct >= 30.0,
        "release consistency must cut invalidation rounds by >= 30% \
         (got {inval_round_reduction_pct:.2}%)"
    );
}
