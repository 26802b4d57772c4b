//! Acceptance tests for cluster-wide causal tracing, on both engines: every
//! workload's GM request spans link requester → home serve → requester
//! redemption, every barrier and lock wait finds its release or grant, the
//! blame decomposition accounts for the whole clock of every PE, and
//! turning tracing on does not perturb the application's answer. The
//! engine is one more input: the live bodies run through `ParallelApi`, the
//! simulated ones through the same applications' `*_parallel` harnesses,
//! and one check reads both traces.
//!
//! The simulator is held to more, because its clock is virtual: every chain
//! links (there is no "≥ 99 %"), recording moves no event, no nanosecond
//! and no metric, two traced runs agree to the byte, nothing is ever
//! retransmitted — and its `cpu_queue` spans account for every nanosecond
//! its scheduler made anyone wait for a CPU.

use std::sync::Mutex;

use dse::apps::gauss_seidel::{self, RefreshMode};
use dse::apps::{dct, knights, matmul, othello};
use dse::live::{LiveCtx, LiveRunner, TransportKind};
use dse::obs::{TraceSpanKind, TraceSpanRec};
use dse::platform::ClusterSpec;
use dse::prelude::*;
use dse_trace::{assemble, blame, critical_path};

/// A traced run's spans and answer, with the engine that made them.
struct Traced<T> {
    engine: &'static str,
    trace_spans: Vec<Vec<TraceSpanRec>>,
    answer: T,
}

/// Run a body on the channel-live engine, with or without tracing, and
/// capture rank 0's result alongside the run's spans.
fn live_run<T: Send>(
    nprocs: usize,
    tracing: bool,
    body: impl Fn(&mut LiveCtx) -> Option<T> + Send + Sync,
) -> Traced<T> {
    let slot: Mutex<Option<T>> = Mutex::new(None);
    let run = LiveRunner::new(nprocs)
        .transport(TransportKind::Channel)
        .tracing(tracing)
        .try_run(|ctx| {
            if let Some(v) = body(ctx) {
                *slot.lock().unwrap() = Some(v);
            }
        })
        .expect("live run completes");
    Traced {
        engine: "live",
        trace_spans: run.trace_spans,
        answer: slot.into_inner().unwrap().expect("rank 0 result"),
    }
}

/// Everything about a simulated run that repeats to the bit.
fn exact(run: &RunResult) -> (u64, u64, u64, u64, u64, u64, u64, String) {
    let stats = &run.report.stats;
    (
        stats.events,
        stats.handoffs,
        stats.inline_wakes,
        run.elapsed.as_nanos(),
        run.report.trace_hash,
        run.net_frames,
        run.net_collisions,
        run.metrics_jsonl(),
    )
}

/// The raw artifacts `dse-run --trace-dir` writes from a run's spans.
fn artifacts(trace_spans: &[Vec<TraceSpanRec>]) -> Vec<String> {
    let trace = assemble(trace_spans);
    let mut out: Vec<String> = trace_spans
        .iter()
        .map(|stream| {
            let mut jsonl = String::new();
            stream.iter().for_each(|s| s.write_jsonl(&mut jsonl));
            jsonl
        })
        .collect();
    out.push(blame(&trace).render());
    out.push(critical_path(&trace).render(usize::MAX));
    out
}

/// Run one of an application's `*_parallel` harnesses on the simulator
/// three times — untraced, traced, traced — and hold the simulator to what
/// a virtual clock promises.
fn sim_run<T: PartialEq + std::fmt::Debug>(
    name: &str,
    parallel: impl Fn(&DseProgram) -> (RunResult, T),
) -> Traced<T> {
    let program = |tracing| {
        DseProgram::new(Platform::sunos_sparc())
            .with_config(DseConfig::paper().with_tracing(tracing))
    };
    let (plain, answer_off) = parallel(&program(false));
    let (traced, answer) = parallel(&program(true));
    let (again, _) = parallel(&program(true));
    assert_eq!(answer, answer_off, "{name}: tracing perturbed the answer");
    assert!(plain.trace_spans.iter().all(Vec::is_empty), "{name}");
    assert_eq!(
        exact(&traced),
        exact(&plain),
        "{name}: recording must be free in virtual time"
    );
    assert_eq!(
        artifacts(&traced.trace_spans),
        artifacts(&again.trace_spans),
        "{name}: two traced runs must agree to the byte"
    );
    let spans = traced.trace_spans.iter().flatten();
    let replayed = |s: &TraceSpanRec| s.dedup || s.retries > 0;
    assert_eq!(spans.filter(|s| replayed(s)).count(), 0, "{name}");
    Traced {
        engine: "sim",
        trace_spans: traced.trace_spans,
        answer,
    }
}

/// The acceptance check on one traced run of either engine.
fn check_trace<T>(name: &str, nprocs: usize, run: &Traced<T>) {
    let name = format!("{name} ({})", run.engine);
    let trace = assemble(&run.trace_spans);
    assert_eq!(trace.nprocs, nprocs, "{name}: every PE contributes spans");
    let links = trace.links;
    assert!(links.gm_reqs > 0, "{name}: the workload issues GM requests");
    // A live response can still be in flight when its requester is told
    // to stop; a simulated one cannot.
    let linked_enough = match run.engine {
        "sim" => links.gm_linked == links.gm_reqs,
        _ => links.gm_link_ratio() >= 0.99,
    };
    assert!(
        linked_enough,
        "{name}: only {}/{} GM chains linked",
        links.gm_linked, links.gm_reqs
    );
    assert!(links.barrier_waits > 0, "{name}: the workload synchronizes");
    assert_eq!(
        (links.barrier_linked, links.lock_linked),
        (links.barrier_waits, links.lock_waits),
        "{name}: every barrier and lock wait must match a release or grant"
    );

    // The blame table partitions each PE's app-span clock exactly:
    // compute + cpu_queue + serve + net + retry + barrier + lock == wall,
    // per PE.
    let table = blame(&trace);
    assert_eq!(table.rows.len(), nprocs, "{name}: one blame row per PE");
    for row in &table.rows {
        let parts = row.compute_ns
            + row.cpu_queue_ns
            + row.serve_ns
            + row.net_ns
            + row.retry_ns
            + row.barrier_ns
            + row.lock_ns;
        assert_eq!(
            parts, row.wall_ns,
            "{name}: blame on pe{} accounts for {parts} of {} wall ns",
            row.pe, row.wall_ns
        );
        assert!(row.wall_ns > 0, "{name}: pe{} app span is empty", row.pe);
        match run.engine {
            "sim" => assert_eq!(row.retry_ns, 0, "{name}: nothing is retransmitted"),
            _ => assert_eq!(row.cpu_queue_ns, 0, "{name}: the host's CPUs queue unseen"),
        }
    }
    // The walk ends, and explains no more than the run took.
    let path = critical_path(&trace);
    let app_end = |pe| trace.app_span(pe).map_or(0, |a| a.end_ns);
    let last = (0..nprocs as u32).map(app_end).max().unwrap();
    let waits = trace.spans().iter().filter(|s| {
        matches!(
            s.kind,
            TraceSpanKind::GmBlock | TraceSpanKind::BarrierWait | TraceSpanKind::LockWait
        )
    });
    assert!(path.steps.len() <= 4 * waits.count() + 1, "{name}");
    assert_eq!(path.steps.last().map(|s| s.end_ns), Some(last), "{name}");
}

/// The per-app acceptance check, on both engines: the traces link and
/// blame accounts for the clock, and the result is bit-identical to an
/// untraced run's.
fn check_app<T: Send + PartialEq + std::fmt::Debug>(
    name: &str,
    nprocs: usize,
    body: impl Fn(&mut LiveCtx) -> Option<T> + Send + Sync,
    parallel: impl Fn(&DseProgram) -> (RunResult, T),
) {
    let traced = live_run(nprocs, true, &body);
    let untraced = live_run(nprocs, false, &body);
    assert_eq!(
        traced.answer, untraced.answer,
        "{name}: tracing must not perturb the application result"
    );
    assert!(
        untraced.trace_spans.iter().all(Vec::is_empty),
        "{name}: untraced runs must record no spans"
    );
    check_trace(name, nprocs, &traced);
    let simulated = sim_run(name, parallel);
    check_trace(name, nprocs, &simulated);
    assert_eq!(
        simulated.answer, traced.answer,
        "{name}: one program, one answer"
    );
}

#[test]
fn gauss_traces_link_and_blame_accounts_wall() {
    let params = gauss_seidel::GaussSeidelParams::paper(40);
    let answer = |s: gauss_seidel::Solution| (s.iters, s.x);
    check_app(
        "gauss",
        3,
        move |ctx| gauss_seidel::body(ctx, &params).map(answer),
        |program| {
            let (run, sol) = gauss_seidel::solve_parallel(program, 3, params);
            (run, answer(sol))
        },
    );
    // The two fine-grain refreshes of the benchmark's `sim_fine`: one
    // blocking request per remote row, and the same rows split-phase.
    for mode in [RefreshMode::RowBlocking, RefreshMode::RowPipelined] {
        let name = format!("gauss {mode:?}");
        let run = sim_run(&name, |program| {
            let (run, sol) = gauss_seidel::solve_parallel_with(program, 3, params, mode);
            (run, answer(sol))
        });
        check_trace(&name, 3, &run);
    }
}

/// The virtual cluster: 12 ranks and their kernels on 6 CPUs. What the
/// engine booked as waiting on each CPU (`ResourceStats::waited`) is what
/// the `cpu_queue` spans of the PEs placed there add up to — every hold of
/// a rank or a kernel is recorded. Machine 0 also hosts the launcher, which
/// records no spans, so there the spans may fall short.
#[test]
fn cpu_queue_spans_sum_to_what_the_scheduler_made_each_cpu_wait() {
    let (procs, machines) = (12, 6);
    let config = DseConfig::paper()
        .with_tracing(true)
        .with_machines(machines);
    let program = DseProgram::new(Platform::sunos_sparc()).with_config(config);
    let params = gauss_seidel::GaussSeidelParams::paper(48);
    let (run, _) = gauss_seidel::solve_parallel(&program, procs, params);
    let place = ClusterSpec::with_machines(Platform::sunos_sparc(), machines, procs).place();
    let mut queued = vec![0u64; machines];
    for s in run.trace_spans.iter().flatten() {
        if s.kind == TraceSpanKind::CpuQueue {
            queued[place[s.pe as usize]] += s.dur_ns();
        }
    }
    let waited: Vec<u64> = run
        .report
        .resources
        .iter()
        .map(|r| r.waited.as_nanos())
        .collect();
    assert_eq!(waited.len(), machines);
    assert!(
        queued[0] > 0 && queued[0] <= waited[0],
        "{queued:?} {waited:?}"
    );
    assert_eq!(queued[1..], waited[1..], "machines without the launcher");
    assert!(
        waited[1..].iter().all(|&w| w > 0),
        "two ranks share each CPU"
    );
    // And the table shows it: ranks that share a CPU queue for it.
    let table = blame(&assemble(&run.trace_spans));
    assert!(table.rows.iter().all(|r| r.cpu_queue_ns > 0));
}

#[test]
fn dct_traces_link_and_blame_accounts_wall() {
    let params = dct::DctParams {
        size: 64,
        block: 8,
        keep: 0.25,
        seed: 3,
    };
    check_app(
        "dct",
        3,
        move |ctx| dct::body(ctx, &params),
        |program| dct::compress_parallel(program, 3, params),
    );
}

#[test]
fn othello_traces_link_and_blame_accounts_wall() {
    let params = othello::OthelloParams::paper(3);
    check_app(
        "othello",
        3,
        move |ctx| othello::body(ctx, &params),
        |program| othello::search_parallel(program, 3, params),
    );
}

#[test]
fn matmul_traces_link_and_blame_accounts_wall() {
    let params = matmul::MatmulParams::single(16);
    check_app(
        "matmul",
        3,
        move |ctx| matmul::body(ctx, &params),
        |program| matmul::multiply_parallel(program, 3, params),
    );
}

#[test]
fn knights_traces_link_and_blame_accounts_wall() {
    let params = knights::KnightsParams::paper(8);
    check_app(
        "knights",
        3,
        move |ctx| knights::body(ctx, &params),
        |program| knights::count_parallel(program, 3, params),
    );
}
