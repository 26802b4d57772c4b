//! Full-stack integration: the complete runtime (kernels, global memory,
//! network, synchronization) under each workload, configuration and
//! platform, with determinism and correctness asserted end to end.

use dse::apps::{dct, gauss_seidel, knights, othello};
use dse::net::Protocol;
use dse::prelude::*;

#[test]
fn every_app_on_every_platform() {
    for platform in Platform::all() {
        let program = DseProgram::new(platform.clone());

        let gs = gauss_seidel::GaussSeidelParams::paper(60);
        let (run, sol) = gauss_seidel::solve_parallel(&program, 3, gs);
        assert!(sol.delta <= gs.eps, "{}: solver", platform.id);
        assert!(run.secs() > 0.0);

        let dp = dct::DctParams {
            size: 64,
            block: 8,
            keep: 0.25,
            seed: 1,
        };
        let (_, out) = dct::compress_parallel(&program, 3, dp);
        assert_eq!(out, dct::compress_sequential(&dp), "{}: dct", platform.id);

        let op = othello::OthelloParams::paper(3);
        let (mv, v, _) = othello::search_sequential(&op);
        let (_, best) = othello::search_parallel(&program, 3, op);
        assert_eq!(best, (mv, v), "{}: othello", platform.id);

        let kp = knights::KnightsParams::paper(16);
        let (_, count) = knights::count_parallel(&program, 3, kp);
        assert_eq!(count, 304, "{}: knights", platform.id);
    }
}

#[test]
fn platforms_are_ranked_by_speed() {
    // The same sequential workload must be fastest on the Pentium II and
    // slowest on the SparcStation (Table 1 generations).
    let params = gauss_seidel::GaussSeidelParams::paper(200);
    let times: Vec<f64> = Platform::all()
        .into_iter()
        .map(|pl| {
            gauss_seidel::solve_parallel(&DseProgram::new(pl), 1, params)
                .0
                .secs()
        })
        .collect();
    assert!(
        times[0] > times[1] && times[1] > times[2],
        "expected sunos > aix > linux, got {times:?}"
    );
}

#[test]
fn runs_are_deterministic_across_repetition() {
    let run = || {
        let program = DseProgram::new(Platform::aix_rs6000());
        let params = dct::DctParams {
            size: 64,
            block: 8,
            keep: 0.25,
            seed: 9,
        };
        let (r, out) = dct::compress_parallel(&program, 5, params);
        (r.elapsed, r.report.trace_hash, r.net_frames, out)
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
}

#[test]
fn legacy_organization_is_correct_but_slower() {
    let params = gauss_seidel::GaussSeidelParams::paper(120);
    let new = DseProgram::new(Platform::sunos_sparc());
    let old = DseProgram::new(Platform::sunos_sparc()).with_config(DseConfig::legacy());
    let (rn, sn) = gauss_seidel::solve_parallel(&new, 4, params);
    let (ro, so) = gauss_seidel::solve_parallel(&old, 4, params);
    // Same computation, same answer...
    assert_eq!(sn.x, so.x);
    // ...but the separate-process kernel pays IPC on every interaction.
    assert!(
        ro.elapsed > rn.elapsed,
        "legacy {:?} should exceed linked {:?}",
        ro.elapsed,
        rn.elapsed
    );
}

#[test]
fn protocol_and_network_choices_preserve_results() {
    let params = knights::KnightsParams::paper(16);
    let mut times = Vec::new();
    for (name, config) in [
        ("tcp", DseConfig::paper()),
        ("udp", DseConfig::paper().with_protocol(Protocol::Udp)),
        (
            "raw",
            DseConfig::paper().with_protocol(Protocol::RawEthernet),
        ),
        (
            "switched",
            DseConfig::paper().with_network(NetworkChoice::Switched(
                100_000_000.0,
                dse::sim::SimDuration::from_micros(5),
            )),
        ),
    ] {
        let program = DseProgram::new(Platform::linux_pentium2()).with_config(config);
        let (run, count) = knights::count_parallel(&program, 4, params);
        assert_eq!(count, 304, "{name}");
        times.push((name, run.secs()));
    }
    // All correct; the switched fabric reports zero collisions.
    let program =
        DseProgram::new(Platform::linux_pentium2()).with_config(DseConfig::paper().with_network(
            NetworkChoice::Switched(100_000_000.0, dse::sim::SimDuration::from_micros(5)),
        ));
    let (run, _) = knights::count_parallel(&program, 6, params);
    assert_eq!(run.net_collisions, 0);
}

#[test]
fn seeds_change_timing_but_not_results() {
    // A bursty all-to-all workload: barrier releases synchronize the ranks'
    // sends, so the bus actually contends and the seed-driven backoff
    // jitter lands on the critical path.
    let params = gauss_seidel::GaussSeidelParams::paper(200);
    let mut elapsed = Vec::new();
    let mut xs = Vec::new();
    for seed in [1u64, 2, 3] {
        let program = DseProgram::new(Platform::sunos_sparc())
            .with_config(DseConfig::paper().with_seed(seed));
        let (run, sol) = gauss_seidel::solve_parallel(&program, 6, params);
        assert!(run.net_collisions > 0, "expected contention");
        elapsed.push(run.elapsed);
        xs.push(sol.x);
    }
    // Different backoff jitter must actually perturb the timing...
    assert!(
        elapsed[0] != elapsed[1] || elapsed[1] != elapsed[2],
        "seeds should perturb contention timing: {elapsed:?}"
    );
    // ...while the computed answers are timing-independent.
    assert_eq!(xs[0], xs[1]);
    assert_eq!(xs[1], xs[2]);
}

#[test]
fn run_result_accounting_is_consistent() {
    let params = dct::DctParams {
        size: 64,
        block: 16,
        keep: 0.25,
        seed: 2,
    };
    let program = DseProgram::new(Platform::sunos_sparc());
    let (run, _) = dct::compress_parallel(&program, 4, params);
    assert_eq!(run.nprocs, 4);
    assert_eq!(run.platform_id, "sunos");
    let kernel = |name| run.metrics.counter_sum_over_pes("kernel", name);
    assert_eq!(kernel("invokes"), 4);
    assert!(kernel("messages") > 0);
    assert!(run.net_wire_bytes > 0);
    assert!(run.net_frames > 0);
    // Every parallel process completed and the kernels drained.
    assert!(run.report.completed.iter().any(|n| n == "launcher"));
    assert_eq!(
        run.report
            .completed
            .iter()
            .filter(|n| n.starts_with("rank"))
            .count(),
        4
    );
}

#[test]
fn twelve_processors_on_six_machines_works() {
    let params = knights::KnightsParams::paper(64);
    let program = DseProgram::new(Platform::linux_pentium2());
    let (run, count) = knights::count_parallel(&program, 12, params);
    assert_eq!(count, 304);
    assert_eq!(run.nprocs, 12);
}

#[test]
fn cooperative_termination_stops_workers_early() {
    use dse::apps::knights;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    // Rank 0 finds "enough" results and asks the others to stop; they poll
    // the termination flag between jobs and exit early.
    let jobs_done = Arc::new(AtomicU64::new(0));
    let jd = Arc::clone(&jobs_done);
    DseProgram::new(Platform::linux_pentium2()).run(3, move |ctx| {
        let counter = dse::prelude::GmCounter::alloc(ctx);
        ctx.barrier();
        if ctx.rank() == 0 {
            // Let everyone start, then cancel ranks 1 and 2.
            ctx.compute(dse::prelude::Work::iops(1_000_000));
            for r in 1..3 {
                ctx.terminate(ctx.pid_of_rank(r));
            }
        } else {
            let pfx = knights::prefixes(5, 6);
            loop {
                if ctx.termination_requested() {
                    break;
                }
                let j = counter.next(ctx);
                if j as usize >= pfx.len() {
                    break;
                }
                let mut nodes = 0;
                let _ = knights::count_from(5, pfx[j as usize], &mut nodes);
                ctx.compute(dse::prelude::Work::iops(nodes * 260));
                jd.fetch_add(1, Ordering::SeqCst);
            }
        }
        ctx.barrier();
    });
    let done = jobs_done.load(Ordering::SeqCst);
    assert!(done > 0, "workers should have started");
    assert!(done < 256, "termination should cut the run short: {done}");
}
