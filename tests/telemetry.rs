//! Integration tests for the in-band telemetry plane.
//!
//! The tentpole claim: PE0's aggregator, fed *only* by `Telemetry`
//! messages shipped over the same simulated network as every other
//! runtime message, reconstructs the direct registry snapshot exactly.
//! Plus: the epoch hook drives the live top view, the plane never keeps a
//! hung program alive — its ticks stop once nothing but ticks is left, so
//! the run ends as it does with telemetry off — and the live engine's plane
//! is the same one, with the same result and the same hook rule.

use dse::apps::gauss_seidel::{self, GaussSeidelParams};
use dse::obs::MetricsSnapshot;
use dse::prelude::*;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

fn telemetry_config(interval_ms: u64) -> DseConfig {
    DseConfig::paper().with_telemetry(
        TelemetryConfig::default().with_interval(SimDuration::from_millis(interval_ms)),
    )
}

#[test]
fn in_band_rollup_matches_direct_snapshot_exactly() {
    let program = DseProgram::new(Platform::sunos_sparc()).with_config(telemetry_config(5));
    let (run, sol) = gauss_seidel::solve_parallel(&program, 6, GaussSeidelParams::paper(120));
    assert!(sol.iters > 0);
    let tel = run.telemetry.expect("telemetry enabled");
    // The aggregator heard only in-band deltas, yet its rollup reproduces
    // the direct registry snapshot byte for byte.
    assert_eq!(tel.rollup.to_jsonl(), run.metrics.to_jsonl());
    assert!(
        tel.rollup
            .counter("kernel", "telemetry_in", Some(0))
            .unwrap_or(0)
            > 0,
        "aggregation was fed by in-band messages"
    );
    assert!(
        tel.nodes.iter().all(|n| n.finalized),
        "every PE shipped its absolute flush at shutdown: {:?}",
        tel.nodes
    );
    assert!(
        tel.nodes.iter().all(|n| n.gaps == 0 && n.stale_drops == 0),
        "{:#?}",
        tel.nodes
    );
}

#[test]
fn telemetry_off_leaves_run_result_untouched() {
    let program = DseProgram::new(Platform::sunos_sparc());
    let (run, _) = gauss_seidel::solve_parallel(&program, 4, GaussSeidelParams::paper(80));
    assert!(run.telemetry.is_none());
    assert_eq!(run.metrics.counter("kernel", "telemetry_in", Some(0)), None);
}

#[test]
fn epoch_hook_feeds_the_live_top_view() {
    let epochs = Arc::new(AtomicUsize::new(0));
    let last = Arc::new(Mutex::new(String::new()));
    let (e2, l2) = (Arc::clone(&epochs), Arc::clone(&last));
    let program = DseProgram::new(Platform::sunos_sparc())
        .with_config(telemetry_config(2))
        .with_epoch_hook(move |agg, now_ns| {
            e2.fetch_add(1, Ordering::SeqCst);
            *l2.lock().unwrap() = render_top(agg, now_ns);
        });
    let (run, _) = gauss_seidel::solve_parallel(&program, 3, GaussSeidelParams::paper(80));
    assert!(run.telemetry.is_some());
    assert!(epochs.load(Ordering::SeqCst) > 0, "epoch hook fired");
    let text = last.lock().unwrap().clone();
    assert!(text.starts_with("NODE"), "{text}");
    assert_eq!(text.lines().count(), 4, "header + one row per PE:\n{text}");
}

/// Epoch-hook calls seen, and whether the last one saw every PE finalized.
#[derive(Default)]
struct HookLog {
    calls: AtomicUsize,
    last_saw_all_final: AtomicBool,
}

impl HookLog {
    fn note(&self, agg: &dse::obs::ClusterAggregator) {
        self.calls.fetch_add(1, Ordering::SeqCst);
        let all = agg.nodes().iter().all(|n| n.finalized);
        self.last_saw_all_final.store(all, Ordering::SeqCst);
    }

    /// What both engines promise of a clean watched run's plane.
    fn check(&self, engine: &str, metrics: &MetricsSnapshot, tel: &TelemetrySummary) {
        assert_eq!(tel.rollup.to_jsonl(), metrics.to_jsonl(), "{engine}");
        assert!(
            tel.nodes.iter().all(|n| n.finalized),
            "{engine}: {:?}",
            tel.nodes
        );
        let heard = tel.rollup.counter("kernel", "telemetry_in", Some(0));
        assert!(heard.unwrap_or(0) > 0, "{engine}: PE 0 applied no delta");
        assert!(
            self.calls.load(Ordering::SeqCst) > 0,
            "{engine}: no hook call"
        );
        assert!(
            self.last_saw_all_final.load(Ordering::SeqCst),
            "{engine}: the last hook call came before the final flush"
        );
    }
}

#[test]
fn both_engines_run_one_plane() {
    let params = GaussSeidelParams::paper(80);
    let sim_log = Arc::new(HookLog::default());
    let log = Arc::clone(&sim_log);
    let program = DseProgram::new(Platform::sunos_sparc())
        .with_config(telemetry_config(2))
        .with_epoch_hook(move |agg, _| log.note(agg));
    let (run, _) = gauss_seidel::solve_parallel(&program, 3, params);
    let tel = run.telemetry.as_ref().expect("telemetry enabled");
    sim_log.check("sim", &run.metrics, tel);

    // Live deltas are best-effort, so gaps are allowed; the flushes heal.
    // A wall-clock solve of this size can end inside one interval, before
    // any kernel has emitted, so each rank stays up for a few intervals
    // after it: PE 0 then has in-band deltas to apply before shutdown.
    let live_log = HookLog::default();
    let hook = |agg: &dse::obs::ClusterAggregator, _: u64| live_log.note(agg);
    let run = LiveRunner::new(3)
        .transport(TransportKind::Channel)
        .watch(Duration::from_millis(2), &hook)
        .run(|ctx| {
            gauss_seidel::body(ctx, &params);
            std::thread::sleep(Duration::from_millis(10));
        });
    let tel = run.telemetry.as_ref().expect("watched run");
    live_log.check("live", &run.metrics, tel);
}

/// Run a 2-rank program whose rank 0 waits for a user message nobody
/// sends, on its own thread; return its panic message, or fail if it has
/// not ended within `limit`.
fn hung_run_panic(config: DseConfig, limit: Duration) -> String {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let program = DseProgram::new(Platform::sunos_sparc()).with_config(config);
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            program.run(2, |ctx| {
                if ctx.rank() == 0 {
                    ctx.recv_user(Some(7));
                } else {
                    ctx.compute(Work::flops(10_000_000));
                }
            })
        }));
        let msg = outcome
            .err()
            .map(|p| p.downcast::<String>().map(|s| *s).unwrap_or_default());
        let _ = tx.send(msg);
    });
    // A run still going at the limit cannot be joined; it is left behind.
    let outcome = rx.recv_timeout(limit);
    if outcome.is_ok() {
        worker
            .join()
            .expect("the run's panic was caught on its thread");
    }
    match outcome {
        Ok(Some(msg)) => msg,
        Ok(None) => panic!("a program blocked on an unsent message completed"),
        Err(_) => panic!("the hung program was still running after {limit:?}"),
    }
}

#[test]
fn a_hung_program_ends_with_the_launcher_panic_with_telemetry_off_and_on() {
    for config in [DseConfig::paper(), telemetry_config(2)] {
        let on = config.telemetry.is_some();
        let msg = hung_run_panic(config, Duration::from_secs(60));
        assert!(
            msg.contains("simulation ended before all ranks finished"),
            "telemetry {on}: {msg}"
        );
    }
}
