//! Integration tests for the in-band telemetry plane.
//!
//! The tentpole claim: PE0's aggregator, fed *only* by `Telemetry`
//! messages shipped over the same simulated network as every other
//! runtime message, reconstructs the direct registry snapshot exactly.
//! Plus: the epoch hook drives the live top view, and a lost GM response
//! trips the stall watchdog and dumps the flight recorder.

use dse::apps::gauss_seidel::{self, GaussSeidelParams};
use dse::obs::SpanKind;
use dse::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

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
    assert!(tel.stalls.is_empty(), "healthy run has no stalls");
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

#[test]
fn lost_gm_response_trips_the_watchdog_and_dumps_the_flight_ring() {
    let config = DseConfig::paper().with_telemetry(
        TelemetryConfig::default()
            .with_interval(SimDuration::from_millis(2))
            .with_watchdog_deadline(SimDuration::from_millis(10))
            .with_flight_capacity(128),
    );
    let program = DseProgram::new(Platform::sunos_sparc()).with_config(config);
    let run = program.run(2, |ctx| {
        if ctx.rank() == 1 {
            // Forge a GM read whose response never arrives: enter it in the
            // watchdog's in-flight set by hand, then keep the cluster busy
            // past the deadline.
            let inflight = ctx.shared().inflight.as_ref();
            inflight.expect("a watchdog is configured").open(
                SpanKind::GmRead,
                1,
                0xDEAD,
                ctx.now().as_nanos(),
            );
        }
        ctx.compute(Work::flops(10_000_000));
        ctx.barrier();
    });
    let tel = run.telemetry.expect("telemetry enabled");
    assert!(
        tel.stalls
            .iter()
            .any(|s| s.kind == SpanKind::GmRead && s.pe == 1 && s.seq == 0xDEAD),
        "watchdog flagged the lost response: {:?}",
        tel.stalls
    );
    let dump = tel.flight_jsonl.expect("flight dump");
    assert!(dump.contains("\"type\":\"stall\""), "{dump}");
    assert!(dump.contains("\"seq\":57005"), "0xDEAD in the dump");
    assert!(
        run.metrics
            .counter("kernel", "gm_stalls", Some(1))
            .unwrap_or(0)
            >= 1,
        "stall counter booked against the stalled PE"
    );
}
