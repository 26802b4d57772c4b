//! Golden regression pins outside `tests/figures_smoke.rs`'s cut of the
//! figure matrix (which compares every value it produces with the committed
//! CSVs). Every run is deterministic, so these change only when the cost
//! models or the runtime's message patterns change — if you changed those
//! *intentionally*, update the pin and regenerate the figure CSVs
//! (bench_results/README.md); if you didn't, you just caught a regression.

use dse_api::{DseConfig, DseProgram, Platform};
use dse_apps::{knights, othello};

#[test]
fn pin_knights_linux_p6() {
    // fig21.csv, 16_Jobs at p = 6.
    let program = DseProgram::new(Platform::linux_pentium2());
    let (run, count) = knights::count_parallel(&program, 6, knights::KnightsParams::paper(16));
    assert_eq!((count, run.elapsed.as_nanos()), (304, 515_336_862));
}

#[test]
fn pin_othello_legacy_vs_linked_gap() {
    // The organization gap itself is a stable, meaningful quantity.
    let params = othello::OthelloParams::paper(4);
    let linked = DseProgram::new(Platform::aix_rs6000());
    let legacy = DseProgram::new(Platform::aix_rs6000()).with_config(DseConfig::legacy());
    let (tl, _) = othello::search_parallel(&linked, 3, params);
    let (tg, _) = othello::search_parallel(&legacy, 3, params);
    assert!(tg.elapsed > tl.elapsed);
    // Gap must be substantial (legacy pays IPC per interaction) and bounded
    // (it is an overhead, not a different algorithm).
    let ratio = tg.elapsed.as_nanos() as f64 / tl.elapsed.as_nanos() as f64;
    assert!(
        (1.02..3.0).contains(&ratio),
        "organization overhead ratio {ratio:.3} out of expected band"
    );
}
