//! The committed sweep baseline agrees with itself across engines: every
//! cell run on both engines has the same answer and the same number of
//! global-memory operations, since `kernel/gm_ops` has one definition (one
//! per read, write or fetch-add entry-point call, counted by the shared
//! client) whichever engine ran it.

use std::collections::HashMap;

use dse_sweep::RunRecord;

#[test]
fn cells_on_both_engines_agree_on_answer_and_gm_ops() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../bench_results/BENCH_sweep.jsonl"
    );
    let text = std::fs::read_to_string(path).expect("the committed baseline");
    let rows: Vec<RunRecord> = text
        .lines()
        .map(|line| RunRecord::from_json_line(line).expect("a baseline row"))
        .collect();
    let key = |r: &RunRecord| {
        let cell = (r.scenario.clone(), r.app.clone(), r.procs, r.cache);
        (cell, r.gm_mode.clone(), r.fault_plan.clone(), r.seed)
    };
    let sim: HashMap<_, &RunRecord> = rows
        .iter()
        .filter(|r| r.engine == "sim")
        .map(|r| (key(r), r))
        .collect();
    let mut pairs = 0;
    for live in rows.iter().filter(|r| r.engine == "live") {
        let Some(sim) = sim.get(&key(live)) else {
            continue;
        };
        assert_eq!(sim.result, live.result, "{} vs {}", sim.cell, live.cell);
        assert_eq!(sim.gm_ops, live.gm_ops, "{} vs {}", sim.cell, live.cell);
        pairs += 1;
    }
    assert!(pairs >= 30, "only {pairs} cells ran on both engines");
}
