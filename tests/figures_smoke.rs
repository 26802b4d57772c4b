//! Smoke-run of the figure path: `bench_results/figures.toml` itself, every
//! axis cut down (two platforms, 1/2/4 processors, two or three sizes per
//! application), run in-process through `execute_run` and the pivot. The
//! figure declarations under test are the ones the full run uses, and every
//! value produced here must equal the same cell of the committed CSV, so
//! the quick test and the full run cannot drift apart.

use std::sync::OnceLock;

use dse_sweep::checks::run_shape_check;
use dse_sweep::{execute_run, expand, parse_spec, pivot, Figure, References, RunRecord, RunStatus};

const SPEC: &str = include_str!("../bench_results/figures.toml");

/// The figures the cut-down spec can still draw, pivoted from one run of
/// its cells (shared by every test of this file; two threads).
fn figures() -> &'static [Figure] {
    static FIGURES: OnceLock<Vec<Figure>> = OnceLock::new();
    FIGURES.get_or_init(|| {
        let mut spec = parse_spec(SPEC).expect("bench_results/figures.toml parses");
        assert_eq!(
            spec.seeds,
            [dse::prelude::DseConfig::paper().seed],
            "the figures run at the paper seed"
        );
        for sc in &mut spec.scenarios {
            sc.platforms.retain(|p| p == "sunos" || p == "linux");
            sc.procs.retain(|p| [1, 2, 4].contains(p));
            sc.ns.retain(|n| [100, 200, 400].contains(n));
            sc.blocks.retain(|b| [4, 16].contains(b));
            sc.depths.retain(|d| [3, 5].contains(d));
            sc.jobs.retain(|j| [4, 16, 256].contains(j));
        }
        // A scenario cut to nothing (the odd processor counts, the
        // four-machine mixes) takes its figures' rows with it.
        spec.scenarios
            .retain(|sc| !(sc.platforms.is_empty() || sc.procs.is_empty() || sc.jobs.is_empty()));
        let runs = expand(&spec);
        let (front, back) = runs.split_at(runs.len() / 2);
        let mut rows: Vec<RunRecord> = std::thread::scope(|s| {
            let front = s.spawn(|| front.iter().map(execute_run).collect::<Vec<_>>());
            let back: Vec<_> = back.iter().map(execute_run).collect();
            let mut rows = front.join().expect("the first half of the cells ran");
            rows.extend(back);
            rows
        });
        let mut references = References::default();
        for (run, row) in runs.iter().zip(&mut rows) {
            references.verify(run, row);
            assert_eq!(row.status, RunStatus::Ok, "{}: {}", row.cell, row.note);
        }
        let cells: Vec<_> = runs.iter().zip(&rows).collect();
        let drawn = spec
            .figures
            .iter()
            .filter_map(|decl| match pivot(decl, &cells) {
                Ok(fig) => Some(fig),
                Err(e) => {
                    assert!(e.contains("no row matches"), "{}: {e}", decl.id);
                    None
                }
            });
        drawn.collect()
    })
}

fn figure(id: &str) -> &'static Figure {
    let found = figures().iter().find(|f| f.id == id);
    found.unwrap_or_else(|| panic!("the cut-down spec draws no {id}"))
}

fn labels(fig: &Figure) -> Vec<&str> {
    fig.series.iter().map(|s| s.label.as_str()).collect()
}

fn assert_checks_pass(name: &str, fig: &Figure, expected: usize) {
    let results = run_shape_check(name, fig);
    assert_eq!(results.len(), expected, "{results:?}");
    for c in &results {
        assert!(c.pass, "{}: {}", c.name, c.detail);
    }
}

#[test]
fn every_value_equals_the_same_cell_of_the_committed_csv() {
    // Everything but AIX and the four-machine mixes is drawn.
    let ids: Vec<&str> = figures().iter().map(|f| f.id.as_str()).collect();
    assert_eq!(ids.len(), 21, "{ids:?}");
    assert!(!ids
        .iter()
        .any(|id| ["fig6", "fig20", "ablation-hetero"].contains(id)));
    let mut compared = 0;
    for fig in figures() {
        let path = format!(
            "{}/bench_results/{}.csv",
            env!("CARGO_MANIFEST_DIR"),
            fig.id
        );
        let committed = std::fs::read_to_string(&path).expect("a committed CSV per figure");
        let table: Vec<Vec<&str>> = committed.lines().map(|l| l.split(',').collect()).collect();
        assert_eq!(table[0][0], fig.xlabel, "{}", fig.id);
        for series in &fig.series {
            let column = table[0].iter().position(|h| *h == series.label);
            let column = column.unwrap_or_else(|| panic!("{}: no column {}", fig.id, series.label));
            for (x, y) in &series.points {
                let row = table.iter().find(|row| row[0] == x.to_string());
                let row = row.unwrap_or_else(|| panic!("{}: no row x = {x}", fig.id));
                assert_eq!(
                    row[column],
                    y.to_string(),
                    "{} {} x={x}",
                    fig.id,
                    series.label
                );
                compared += 1;
            }
        }
    }
    assert!(compared > 100, "{compared} values compared");
}

#[test]
fn gauss_figures_well_formed() {
    let (time_fig, speed_fig) = (figure("fig4"), figure("fig5"));
    assert_eq!(labels(time_fig), ["1", "2", "4"]);
    assert_eq!(labels(speed_fig), ["N=100", "N=200", "N=400"]);
    // Golden pin: Gauss-Seidel N = 200 on four SparcStations, 356,604,870 ns.
    let at = |p: &str, n| time_fig.series_named(p).and_then(|s| s.y_at(n));
    assert_eq!(at("4", 200.0), Some(0.35660487));
    // Speedup at p=1 is 1.0 by construction.
    for s in &speed_fig.series {
        assert_eq!(s.y_at(1.0), Some(1.0), "series {}", s.label);
    }
    // All times positive.
    for s in &time_fig.series {
        assert!(s.points.iter().all(|&(_, y)| y > 0.0));
    }
}

#[test]
fn dct_figures_well_formed() {
    let (time_fig, speed_fig) = (figure("fig14"), figure("fig15"));
    assert_eq!(labels(speed_fig), labels(time_fig));
    let csv = time_fig.to_csv();
    assert!(csv.starts_with("procs,4x4,16x16\n1,"), "{csv}");
    assert_eq!(csv.lines().count(), 1 + 3);
}

#[test]
fn othello_figures_well_formed() {
    assert_eq!(labels(figure("fig18-time")), ["Depth3", "Depth5"]);
    let speed_fig = figure("fig18-speedup");
    assert!(speed_fig
        .to_csv()
        .starts_with("procs,Depth3,Depth5\n1,1,1\n"));
}

#[test]
fn knights_figures_well_formed_and_checked() {
    assert_eq!(labels(figure("fig19")), ["4_Jobs", "16_Jobs", "256_Jobs"]);
    // Up to four processors the two comparisons at scale can be made;
    // "4 jobs flat past 4 procs" needs the full run.
    assert_checks_pass("knights", figure("fig19-speedup"), 2);
}

#[test]
fn ablation_org_quick_check() {
    let fig = figure("ablation-org-sunos");
    assert_eq!(labels(fig), ["linked-library", "separate-process"]);
    assert_checks_pass("org", fig, 1);
    // Two scenarios and two series axes behind one figure.
    let proto = figure("ablation-proto-sunos");
    let want = ["tcp-bus10", "udp-bus10", "raw-bus10", "tcp-switched100"];
    assert_eq!(labels(proto), want);
    assert_checks_pass("proto", proto, 2);
}

#[test]
fn tables_render() {
    let t1 = dse_platform::table1();
    assert!(["SparcStation", "AIX", "Linux"]
        .iter()
        .all(|m| t1.contains(m)));
    let t2 = dse_platform::table2(12);
    // Virtual-cluster rule visible: 7 processors → 6 machines, 2 kernels.
    assert!(t2.lines().any(|l| {
        let f: Vec<&str> = l.split_whitespace().collect();
        f.first() == Some(&"7") && f.get(1) == Some(&"6") && f.get(2) == Some(&"2")
    }));
}
