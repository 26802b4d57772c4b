//! End-to-end smoke tests of the simulated DSE runtime.

use dse_api::{
    collective, Distribution, DseProgram, GmArray, GmCounter, ParallelApi, Platform, Work,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[test]
fn single_rank_runs() {
    let r = DseProgram::new(Platform::linux_pentium2()).run(1, |ctx| {
        ctx.compute(Work::flops(1_000_000));
    });
    assert_eq!(r.nprocs, 1);
    assert!(r.secs() > 0.0);
}

/// The kernel is a library call, not a thread: a simulated PE costs one
/// host thread (its application process), plus one launcher per run.
#[test]
fn an_n_pe_run_has_n_plus_one_process_threads() {
    for n in [1, 4, 8] {
        let r = DseProgram::new(Platform::sunos_sparc()).run(n, |ctx| ctx.barrier());
        let stats = &r.report.stats;
        assert_eq!(stats.threads, n as u64 + 1, "applications + launcher");
        assert_eq!(
            stats.spawns,
            2 * n as u64 + 1,
            "and a kernel component per PE"
        );
        for k in 0..n {
            assert!(r.report.completed_named(&format!("kernel{k}")));
        }
    }
}

#[test]
fn barrier_synchronizes_all_ranks() {
    let hits = Arc::new(AtomicU64::new(0));
    let h = hits.clone();
    let r = DseProgram::new(Platform::sunos_sparc()).run(4, move |ctx| {
        h.fetch_add(1, Ordering::SeqCst);
        ctx.barrier();
        ctx.barrier();
    });
    assert_eq!(hits.load(Ordering::SeqCst), 4);
    assert_eq!(
        r.metrics.counter_sum_over_pes("kernel", "barrier_epochs"),
        2
    );
}

#[test]
fn gm_array_blocked_read_write() {
    let r = DseProgram::new(Platform::aix_rs6000()).run(3, |ctx| {
        let arr = GmArray::<f64>::alloc(ctx, 30, Distribution::Blocked);
        let rank = ctx.rank() as usize;
        // Each rank writes its 10-element slice.
        let vals: Vec<f64> = (0..10).map(|i| (rank * 10 + i) as f64).collect();
        arr.write(ctx, rank * 10, &vals);
        ctx.barrier();
        // Everyone reads everything and checks.
        let all = arr.read(ctx, 0, 30);
        for (i, v) in all.iter().enumerate() {
            assert_eq!(*v, i as f64);
        }
    });
    let kernel = |name| r.metrics.counter_sum_over_pes("kernel", name);
    assert!(kernel("gm_remote_reads") > 0, "remote traffic expected");
    assert!(kernel("gm_local_writes") > 0, "local fast path expected");
}

#[test]
fn counter_distributes_unique_jobs() {
    let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
    let s = seen.clone();
    DseProgram::new(Platform::linux_pentium2()).run(4, move |ctx| {
        let counter = GmCounter::alloc(ctx);
        ctx.barrier();
        loop {
            let job = counter.next(ctx);
            if job >= 20 {
                break;
            }
            s.lock().unwrap().push(job);
        }
    });
    let mut jobs = seen.lock().unwrap().clone();
    jobs.sort_unstable();
    assert_eq!(jobs, (0..20).collect::<Vec<i64>>());
}

#[test]
fn collectives_work() {
    DseProgram::new(Platform::sunos_sparc()).run(5, |ctx| {
        let sum = collective::reduce_sum(ctx, (ctx.rank() + 1) as f64);
        assert_eq!(sum, 15.0);
        let all = collective::all_gather(ctx, ctx.rank() as i64);
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
        let data = if ctx.rank() == 0 {
            vec![7.0, 8.0]
        } else {
            vec![0.0, 0.0]
        };
        let bc = collective::broadcast(ctx, &data);
        assert_eq!(bc, vec![7.0, 8.0]);
    });
}

#[test]
fn locks_serialize_critical_sections() {
    let log = Arc::new(std::sync::Mutex::new(Vec::new()));
    let l = log.clone();
    DseProgram::new(Platform::linux_pentium2()).run(3, move |ctx| {
        ctx.barrier();
        ctx.lock(1);
        l.lock().unwrap().push((ctx.rank(), "in"));
        ctx.compute(Work::iops(100_000));
        l.lock().unwrap().push((ctx.rank(), "out"));
        ctx.unlock(1);
    });
    let log = log.lock().unwrap();
    assert_eq!(log.len(), 6);
    for pair in log.chunks(2) {
        assert_eq!(
            pair[0].0, pair[1].0,
            "critical sections interleaved: {log:?}"
        );
        assert_eq!(pair[0].1, "in");
        assert_eq!(pair[1].1, "out");
    }
}

#[test]
fn user_messages_point_to_point() {
    DseProgram::new(Platform::aix_rs6000()).run(2, |ctx| {
        ctx.barrier(); // ensure both ranks are registered
        if ctx.rank() == 0 {
            ctx.send_to(ctx.pid_of_rank(1), 42, vec![1, 2, 3]);
        } else {
            let m = ctx.recv_user(Some(42));
            assert_eq!(m.data, vec![1, 2, 3]);
            assert_eq!(m.from, ctx.pid_of_rank(0));
        }
    });
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        DseProgram::new(Platform::sunos_sparc()).run(6, |ctx| {
            let arr = GmArray::<u64>::alloc(ctx, 600, Distribution::Cyclic { block: 64 });
            let vals: Vec<u64> = (0..100).map(|i| (ctx.rank() as u64) * 1000 + i).collect();
            arr.write(ctx, ctx.rank() as usize * 100, &vals);
            ctx.barrier();
            let _ = arr.read(ctx, 0, 600);
            ctx.compute(Work::flops(50_000));
        })
    };
    let a = run();
    let b = run();
    assert_eq!(a.elapsed, b.elapsed);
    assert_eq!(a.report.trace_hash, b.report.trace_hash);
    assert_eq!(a.net_frames, b.net_frames);
}

#[test]
fn virtual_cluster_shares_machines() {
    // 8 processors on 6 machines: co-located ranks share a CPU, so the same
    // total compute takes longer per rank than with 6 fully parallel ranks.
    let work = move |ctx: &mut dse_api::DseCtx<'_>| {
        ctx.compute(Work::flops(10_000_000));
    };
    let r6 = DseProgram::new(Platform::linux_pentium2()).run(6, work);
    let r8 = DseProgram::new(Platform::linux_pentium2()).run(8, work);
    assert!(
        r8.secs() > r6.secs(),
        "8 procs on 6 machines ({}) should be slower than 6 on 6 ({})",
        r8.secs(),
        r6.secs()
    );
}
