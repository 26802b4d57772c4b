//! The failure-domain matrix: every workload, every wire, under injected
//! transport faults.
//!
//! Recoverable faults (dropped and duplicated GM messages) must be fully
//! absorbed by the live engine's retry/dedup machinery — the run completes
//! with results bit-identical to a clean run. Fatal faults (an endpoint
//! disconnecting mid-run) must abort the whole cluster with a structured
//! [`RunError`] carrying first-hand failure observations and a
//! flight-recorder post-mortem — never a hang, never a panic, never a
//! leaked socket directory. Every run executes under a hard timeout so a
//! regression to the old block-forever behaviour fails fast instead of
//! wedging the test suite.

use std::sync::mpsc::RecvTimeoutError;
use std::sync::Mutex;
use std::time::Duration;

use dse::apps::{dct, gauss_seidel, knights, matmul, othello};
use dse::live::{FaultPlan, LiveCtx, LiveRunner, RunError, TransportKind};

/// Hard wall-clock ceiling for one test's worth of runs. A fault-injected
/// run that cannot finish must abort within its retry deadline, so even
/// the slowest matrix entry stays far under this.
const TEST_TIMEOUT: Duration = Duration::from_secs(120);

/// Run `f` on a watchdog thread; panic if it neither returns nor panics
/// within [`TEST_TIMEOUT`] (the hang this PR exists to prevent).
fn with_timeout<T: Send + 'static>(label: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(TEST_TIMEOUT) {
        Ok(v) => {
            let _ = worker.join();
            v
        }
        Err(RecvTimeoutError::Disconnected) => match worker.join() {
            Err(p) => std::panic::resume_unwind(p),
            Ok(()) => unreachable!("worker exited without sending"),
        },
        Err(RecvTimeoutError::Timeout) => {
            panic!("{label}: live engine hung past {TEST_TIMEOUT:?} instead of finishing/aborting")
        }
    }
}

/// Run a body on the live engine over `kind` with an optional fault plan,
/// capturing rank 0's result or the structured abort.
fn try_capture<T: Send>(
    kind: TransportKind,
    plan: Option<&str>,
    nprocs: usize,
    body: impl Fn(&mut LiveCtx) -> Option<T> + Send + Sync,
) -> Result<T, RunError> {
    try_capture_on(LiveRunner::new(nprocs), kind, plan, body)
}

/// [`try_capture`] on a runner configured beyond its PE count.
fn try_capture_on<T: Send>(
    runner: LiveRunner,
    kind: TransportKind,
    plan: Option<&str>,
    body: impl Fn(&mut LiveCtx) -> Option<T> + Send + Sync,
) -> Result<T, RunError> {
    let mut runner = runner.transport(kind);
    if let Some(s) = plan {
        runner = runner.fault_plan(FaultPlan::parse(s).expect("test plan parses"));
    }
    let slot: Mutex<Option<T>> = Mutex::new(None);
    runner.try_run(|ctx| {
        if let Some(v) = body(ctx) {
            *slot.lock().unwrap() = Some(v);
        }
    })?;
    Ok(slot.into_inner().unwrap().expect("rank 0 result"))
}

/// The recoverable half of the matrix for one app: a clean baseline on
/// the channel wire, then {drop, dup, drop+dup+delay} × {channel, tcp},
/// each required to reproduce the baseline exactly.
fn recoverable_matrix<T: Send + PartialEq + std::fmt::Debug>(
    label: &str,
    nprocs: usize,
    body: impl Fn(&mut LiveCtx) -> Option<T> + Send + Sync,
) {
    recoverable_matrix_on(label, || LiveRunner::new(nprocs), body)
}

/// [`recoverable_matrix`] on runners `runner` configures.
fn recoverable_matrix_on<T: Send + PartialEq + std::fmt::Debug>(
    label: &str,
    runner: impl Fn() -> LiveRunner<'static>,
    body: impl Fn(&mut LiveCtx) -> Option<T> + Send + Sync,
) {
    let baseline = try_capture_on(runner(), TransportKind::Channel, None, &body)
        .unwrap_or_else(|e| panic!("{label} clean baseline failed:\n{e}"));
    let plans = [
        "seed=11,drop=40",
        "seed=12,dup=80",
        "seed=13,drop=30,dup=30,delay=30:1",
    ];
    for kind in [TransportKind::Channel, TransportKind::Tcp] {
        for plan in plans {
            let faulted = try_capture_on(runner(), kind, Some(plan), &body).unwrap_or_else(|e| {
                panic!("{label} on {kind:?} under `{plan}` should recover, but aborted:\n{e}")
            });
            assert_eq!(
                baseline, faulted,
                "{label} on {kind:?} under `{plan}`: result diverged from the clean run"
            );
        }
    }
}

#[test]
fn gauss_seidel_absorbs_recoverable_faults() {
    with_timeout("gauss", || {
        let params = gauss_seidel::GaussSeidelParams::paper(24);
        recoverable_matrix("gauss", 3, |ctx| {
            gauss_seidel::body(ctx, &params).map(|s| (s.iters, s.x))
        });
    });
}

/// The replica cache under the same faults, write-invalidate: a
/// retransmitted read must not install bytes an invalidation raced (the
/// install-epoch check), a home replays a leased read's answer from its
/// dedup cache, and own-node writes retransmit their invalidations.
#[test]
fn cached_gauss_seidel_absorbs_recoverable_faults() {
    with_timeout("cached gauss", || {
        let params = gauss_seidel::GaussSeidelParams::paper(24);
        let cached = || LiveRunner::new(3).gm_cache(true);
        recoverable_matrix_on("cached gauss", cached, |ctx| {
            gauss_seidel::body(ctx, &params).map(|s| (s.iters, s.x))
        });
    });
}

#[test]
fn dct_absorbs_recoverable_faults() {
    with_timeout("dct", || {
        let params = dct::DctParams {
            size: 32,
            block: 8,
            keep: 0.25,
            seed: 3,
        };
        recoverable_matrix("dct", 4, |ctx| dct::body(ctx, &params));
    });
}

#[test]
fn othello_absorbs_recoverable_faults() {
    with_timeout("othello", || {
        let params = othello::OthelloParams::paper(2);
        recoverable_matrix("othello", 3, |ctx| othello::body(ctx, &params));
    });
}

#[test]
fn knights_absorbs_recoverable_faults() {
    with_timeout("knights", || {
        let params = knights::KnightsParams::paper(6);
        recoverable_matrix("knights", 3, |ctx| knights::body(ctx, &params));
    });
}

#[test]
fn matmul_absorbs_recoverable_faults() {
    with_timeout("matmul", || {
        let params = matmul::MatmulParams::single(12);
        recoverable_matrix("matmul", 3, |ctx| matmul::body(ctx, &params));
    });
}

/// Assert the structured-abort contract shared by every fatal-fault test:
/// first-hand observations present, a readable report, and a non-empty
/// flight-recorder post-mortem.
fn assert_structured_abort(label: &str, err: &RunError) {
    assert!(
        !err.failures.is_empty(),
        "{label}: abort carried no first-hand failures"
    );
    assert!(
        err.report().contains("first-hand failure"),
        "{label}: report missing failure summary:\n{}",
        err.report()
    );
    assert!(
        !err.flight_jsonl.is_empty(),
        "{label}: flight recorder captured nothing before the abort"
    );
}

#[test]
fn channel_disconnect_aborts_with_structured_error() {
    with_timeout("channel disconnect", || {
        let params = gauss_seidel::GaussSeidelParams::paper(40);
        let err = try_capture(
            TransportKind::Channel,
            Some("seed=3,disconnect=1:8"),
            3,
            |ctx| gauss_seidel::body(ctx, &params),
        )
        .expect_err("a severed endpoint cannot complete the run");
        assert_structured_abort("channel disconnect", &err);
    });
}

/// The acceptance scenario: a single peer disconnecting mid-run in a 4-PE
/// TCP Gauss-Seidel solve aborts the whole cluster within the retry
/// deadline, with the per-PE report and post-mortem intact.
#[test]
fn tcp_gauss_seidel_disconnect_aborts_within_deadline() {
    with_timeout("tcp disconnect", || {
        let params = gauss_seidel::GaussSeidelParams::paper(48);
        let err = try_capture(
            TransportKind::Tcp,
            Some("seed=7,disconnect=2:25"),
            4,
            |ctx| gauss_seidel::body(ctx, &params),
        )
        .expect_err("a severed endpoint cannot complete the run");
        assert_structured_abort("tcp disconnect", &err);
        // The severed endpoint itself must be among the first-hand
        // observers — its own kernel or app saw the transport close.
        assert!(
            err.failures.iter().any(|f| f.pe == 2),
            "PE 2 disconnected but never reported first-hand:\n{}",
            err.report()
        );
    });
}

#[cfg(unix)]
#[test]
fn uds_disconnect_leaves_no_socket_directories() {
    with_timeout("uds disconnect", || {
        let prefix = format!("dse-live-{}-", std::process::id());
        let socket_dirs = |prefix: &str| -> usize {
            std::fs::read_dir(std::env::temp_dir())
                .unwrap()
                .filter_map(|e| e.ok())
                .filter(|e| e.file_name().to_string_lossy().starts_with(prefix))
                .count()
        };
        let before = socket_dirs(&prefix);
        let params = gauss_seidel::GaussSeidelParams::paper(40);
        let err = try_capture(
            TransportKind::Uds,
            Some("seed=5,disconnect=1:10"),
            3,
            |ctx| gauss_seidel::body(ctx, &params),
        )
        .expect_err("a severed endpoint cannot complete the run");
        assert_structured_abort("uds disconnect", &err);
        assert_eq!(
            socket_dirs(&prefix),
            before,
            "aborted UDS run leaked its socket directory"
        );
    });
}

/// Corrupt telemetry is a recoverable fault on the observability plane:
/// the kernel drops the undecodable delta, counts it, and the application
/// result is untouched.
#[test]
fn corrupt_telemetry_is_dropped_and_counted() {
    with_timeout("corrupt telemetry", || {
        let params = gauss_seidel::GaussSeidelParams::paper(64);
        let baseline = try_capture(TransportKind::Channel, None, 3, |ctx| {
            gauss_seidel::body(ctx, &params).map(|s| (s.iters, s.x))
        })
        .expect("clean baseline");
        let slot: Mutex<Option<(usize, Vec<f64>)>> = Mutex::new(None);
        let hook = |_agg: &dse::obs::ClusterAggregator, _now_ns: u64| {};
        let run = LiveRunner::new(3)
            .transport(TransportKind::Channel)
            .fault_plan(FaultPlan::parse("seed=9,corrupt=1000").unwrap())
            .watch(Duration::from_millis(1), &hook)
            .try_run(|ctx| {
                if let Some(s) = gauss_seidel::body(ctx, &params) {
                    *slot.lock().unwrap() = Some((s.iters, s.x));
                }
            })
            .expect("corrupt telemetry must not abort the run");
        assert_eq!(
            slot.into_inner().unwrap().expect("rank 0 result"),
            baseline,
            "telemetry corruption leaked into application results"
        );
        assert!(
            run.metrics
                .counter_sum_over_pes("kernel", "telemetry_corrupt")
                > 0,
            "no corrupt telemetry delta was ever counted"
        );
    });
}
