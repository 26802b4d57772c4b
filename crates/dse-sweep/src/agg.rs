//! Aggregation: fold per-run rows into per-cell summaries, render the
//! text table, and compare a sweep's exact columns with a committed
//! baseline for the CI gate.

use std::collections::BTreeMap;

use crate::run::{RunRecord, RunStatus};

/// Per-cell summary across that cell's seeds. Every mean is over the
/// cell's ok runs.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSummary {
    /// Cell id (all axes except the seed).
    pub cell: String,
    /// Whether the cell ran on the simulator.
    pub sim: bool,
    /// Total runs of the cell.
    pub runs: usize,
    /// Runs that completed normally.
    pub ok: usize,
    /// Mean virtual nanoseconds (0 for live cells).
    pub virtual_ns: f64,
    /// Mean simulator events (0 for live cells).
    pub events: f64,
    /// Thread hand-offs per simulator event (0 for live cells).
    pub handoffs_per_event: f64,
    /// Mean GM operations.
    pub gm_ops: f64,
    /// GM retransmits, summed over all runs.
    pub retries: u64,
    /// Mean wall-clock nanoseconds.
    pub wall_ns: f64,
    /// Mean simulator events per wall-clock second (sim cells).
    pub events_per_sec: f64,
    /// Mean GM operations per wall-clock second.
    pub gm_ops_per_sec: f64,
    /// Mean merged GM latency p50 (ns).
    pub p50_ns: f64,
    /// Mean merged GM latency p99 (ns).
    pub p99_ns: f64,
    /// Mean merged GM latency p99.9 (ns) — the SLO tail.
    pub p999_ns: f64,
    /// Where the cell's time went.
    pub blame_pct: BlamePct,
}

/// Blame columns as percent of the summed app-span time — virtual on sim
/// cells, wall on live ones (what is left of 100 is retransmission).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BlamePct {
    /// Holding a CPU outside every wait.
    pub compute: f64,
    /// Queued for a CPU (sim cells).
    pub queue: f64,
    /// A home kernel serving inside a GM wait.
    pub serve: f64,
    /// The rest of the GM waits: on the wire.
    pub net: f64,
    /// In barrier rounds.
    pub barrier: f64,
    /// Waiting for cluster locks.
    pub lock: f64,
}

/// Group rows by cell id and fold each group into its summary, sorted by
/// cell id. Rate metrics are per-run rates averaged over the cell's ok
/// runs (not totals divided by total time), so one slow seed cannot hide
/// behind a fast one.
pub fn aggregate(rows: &[RunRecord]) -> Vec<CellSummary> {
    let mut groups: BTreeMap<&str, Vec<&RunRecord>> = BTreeMap::new();
    for row in rows {
        groups.entry(row.cell.as_str()).or_default().push(row);
    }
    groups
        .into_iter()
        .map(|(cell, rows)| {
            let ok: Vec<&&RunRecord> = rows.iter().filter(|r| r.status == RunStatus::Ok).collect();
            let sum = |f: &dyn Fn(&RunRecord) -> u64| ok.iter().map(|r| f(r)).sum::<u64>() as f64;
            let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
            let mean = |f: &dyn Fn(&RunRecord) -> f64| -> f64 {
                ratio(ok.iter().map(|r| f(r)).sum(), ok.len() as f64)
            };
            let rate = |count: &dyn Fn(&RunRecord) -> u64| -> f64 {
                mean(&|r| ratio(count(r) as f64, r.wall_ns as f64 / 1e9))
            };
            let app_wall = sum(&|r| r.app_span_ns());
            let pct = |part: &dyn Fn(&RunRecord) -> u64| ratio(sum(part) * 100.0, app_wall);
            CellSummary {
                cell: cell.to_string(),
                sim: rows[0].engine == "sim",
                runs: rows.len(),
                ok: ok.len(),
                virtual_ns: mean(&|r| r.virtual_ns as f64),
                events: mean(&|r| r.events as f64),
                handoffs_per_event: ratio(sum(&|r| r.handoffs), sum(&|r| r.events)),
                gm_ops: mean(&|r| r.gm_ops as f64),
                retries: rows.iter().map(|r| r.retries).sum(),
                wall_ns: mean(&|r| r.wall_ns as f64),
                events_per_sec: rate(&|r| r.events),
                gm_ops_per_sec: rate(&|r| r.gm_ops),
                p50_ns: mean(&|r| r.p50_ns as f64),
                p99_ns: mean(&|r| r.p99_ns as f64),
                p999_ns: mean(&|r| r.p999_ns as f64),
                blame_pct: BlamePct {
                    compute: pct(&|r| r.blame_compute_ns),
                    queue: pct(&|r| r.blame_cpu_queue_ns),
                    serve: pct(&|r| r.blame_serve_ns),
                    net: pct(&|r| r.blame_net_ns),
                    barrier: pct(&|r| r.blame_barrier_ns),
                    lock: pct(&|r| r.blame_lock_ns),
                },
            }
        })
        .collect()
}

fn human_rate(v: f64) -> String {
    if v >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1}k", v / 1e3)
    } else {
        format!("{v:.0}")
    }
}

/// The value, or `-` where the column does not apply to the cell's engine.
fn only(applies: bool, value: String) -> String {
    if applies {
        value
    } else {
        "-".into()
    }
}

type TableColumn = (&'static str, fn(&CellSummary) -> String);

/// Columns the gate compares (`RunRecord` columns that are exact on the
/// cell's engine, folded over its seeds).
const EXACT: &[TableColumn] = &[
    ("virtual ms", |c| {
        only(c.sim, format!("{:.1}", c.virtual_ns / 1e6))
    }),
    ("events", |c| only(c.sim, format!("{:.0}", c.events))),
    ("handoffs/event", |c| {
        only(c.sim, format!("{:.3}", c.handoffs_per_event))
    }),
    ("gm_ops", |c| format!("{:.0}", c.gm_ops)),
    ("retries", |c| c.retries.to_string()),
];

/// Host-time columns: information, never compared. (The latency
/// quantiles and the blame shares are virtual on sim cells, where the row
/// columns behind them are compared.)
const INFO: &[TableColumn] = &[
    ("wall ms", |c| format!("{:.1}", c.wall_ns / 1e6)),
    ("ev/s", |c| only(c.sim, human_rate(c.events_per_sec))),
    ("gmop/s", |c| human_rate(c.gm_ops_per_sec)),
    ("p50 us", |c| format!("{:.1}", c.p50_ns / 1e3)),
    ("p99 us", |c| format!("{:.1}", c.p99_ns / 1e3)),
    ("p999 us", |c| format!("{:.1}", c.p999_ns / 1e3)),
    ("compute%", |c| format!("{:.0}", c.blame_pct.compute)),
    ("queue%", |c| {
        only(c.sim, format!("{:.0}", c.blame_pct.queue))
    }),
    ("serve%", |c| format!("{:.0}", c.blame_pct.serve)),
    ("net%", |c| format!("{:.0}", c.blame_pct.net)),
    ("barrier%", |c| format!("{:.0}", c.blame_pct.barrier)),
    ("lock%", |c| format!("{:.0}", c.blame_pct.lock)),
];

/// Render the aggregate table: the cell and its run counts, the exact
/// columns, then the informational ones under an `(info)` rule.
pub fn render_table(cells: &[CellSummary]) -> String {
    let ident: &[TableColumn] = &[
        ("cell", |c| c.cell.clone()),
        ("runs", |c| c.runs.to_string()),
        ("ok", |c| c.ok.to_string()),
    ];
    let groups = [("", ident), ("exact ", EXACT), ("(info) ", INFO)];
    let columns: Vec<&TableColumn> = groups.iter().flat_map(|(_, cols)| cols.iter()).collect();
    let mut table: Vec<Vec<String>> =
        vec![columns.iter().map(|(name, _)| name.to_string()).collect()];
    for c in cells {
        table.push(columns.iter().map(|(_, value)| value(c)).collect());
    }
    let widths: Vec<usize> = (0..columns.len())
        .map(|j| table.iter().map(|row| row[j].len()).max().unwrap_or(0))
        .collect();
    let mut rule = String::new();
    let mut first = 0;
    for (label, cols) in groups {
        let span = widths[first..first + cols.len()].iter().sum::<usize>() + 2 * (cols.len() - 1);
        rule.push_str(&format!("{label:-<span$}  "));
        first += cols.len();
    }
    let mut out = String::new();
    for (i, row) in table.iter().enumerate() {
        let mut line = String::new();
        for (j, (cell, w)) in row.iter().zip(&widths).enumerate() {
            if j == 0 {
                line.push_str(&format!("{cell:<w$}"));
            } else {
                line.push_str(&format!("  {cell:>w$}"));
            }
        }
        out.push_str(line.trim_end());
        out.push('\n');
        if i == 0 {
            out.push_str(rule.trim_end());
            out.push('\n');
        }
    }
    out
}

/// Outcome of comparing a sweep with a baseline.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// One line per finding, then the verdict.
    pub report: String,
    /// Whether the sweep matches the baseline and every run is ok.
    pub pass: bool,
}

/// Compare a sweep with a baseline of canonical rows, matched by
/// `(cell, seed)`. The gate fails on any run that is not ok and on any
/// difference in a column that is exact on the row's engine, each
/// reported as `cell seed column: was → now`. Rows on one side only are
/// reported and not gated.
pub fn gate(rows: &[RunRecord], baseline: &[RunRecord]) -> Verdict {
    let key = |r: &RunRecord| (r.cell.clone(), r.seed);
    let mut base: BTreeMap<(String, u64), &RunRecord> =
        baseline.iter().map(|b| (key(b), b)).collect();
    let mut report = String::new();
    let (mut failures, mut unmatched) = (0usize, 0usize);
    for row in rows {
        let was = base.remove(&key(row));
        let at = format!("{} seed={}", row.cell, row.seed);
        if row.status != RunStatus::Ok {
            failures += 1;
            report.push_str(&format!("{at} status: {} ({})\n", row.status, row.note));
        } else if let Some(was) = was {
            for (column, was, now) in row.exact_diffs(was) {
                failures += 1;
                report.push_str(&format!("{at} {column}: {was} → {now}\n"));
            }
        } else {
            unmatched += 1;
            report.push_str(&format!("{at}: not in the baseline (not gated)\n"));
        }
    }
    for b in base.values() {
        report.push_str(&format!(
            "{} seed={}: baseline row not run (not gated)\n",
            b.cell, b.seed
        ));
    }
    let compared = rows.len() - unmatched;
    let pass = failures == 0;
    report.push_str(&if pass {
        format!("gate: PASS — {compared} row(s) match the baseline exactly\n")
    } else {
        format!("gate: FAIL — {failures} difference(s), {compared} row(s) compared\n")
    });
    Verdict { report, pass }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{expand, parse_spec};

    /// Hand-built fixture: two cells x two seeds, fully deterministic.
    fn fixture_rows() -> Vec<RunRecord> {
        let spec = parse_spec(
            "[sweep]\nseeds = [1, 2]\n[[scenario]]\nname = \"fx\"\napp = [\"gauss\", \"dct\"]\nprocs = [2]\n",
        )
        .unwrap();
        expand(&spec)
            .iter()
            .map(|rs| {
                let mut rec = RunRecord::failed(rs, RunStatus::Ok, "");
                rec.wall_ns = 2_000_000_000; // 2s
                rec.virtual_ns = 1_000_000_000;
                rec.events = 1000 * (rs.idx as u64 + 1);
                rec.handoffs = rec.events / 4;
                rec.gm_ops = 500;
                rec.p50_ns = 1000;
                rec.p99_ns = 9000;
                rec.p999_ns = 12000;
                rec
            })
            .collect()
    }

    #[test]
    fn aggregate_folds_seeds_per_cell() {
        let rows = fixture_rows();
        let cells = aggregate(&rows);
        assert_eq!(cells.len(), 2, "two apps -> two cells");
        let gauss = cells.iter().find(|c| c.cell.contains("gauss")).unwrap();
        assert_eq!(gauss.runs, 2);
        assert_eq!(gauss.ok, 2);
        // gauss rows are idx 0 and 1: (1000 + 2000)/2 events over 2s each.
        assert!((gauss.events - 1500.0).abs() < 1e-9);
        assert!((gauss.events_per_sec - 750.0).abs() < 1e-9);
        assert!((gauss.handoffs_per_event - 0.25).abs() < 1e-9);
        assert!((gauss.gm_ops_per_sec - 250.0).abs() < 1e-9);
        assert!((gauss.wall_ns - 2e9).abs() < 1e-9);
    }

    #[test]
    fn failed_runs_are_counted_not_averaged() {
        let mut rows = fixture_rows();
        rows[1].status = RunStatus::Timeout;
        rows[1].events = 0;
        rows[1].wall_ns = 0;
        let cells = aggregate(&rows);
        let gauss = cells.iter().find(|c| c.cell.contains("gauss")).unwrap();
        assert_eq!((gauss.runs, gauss.ok), (2, 1));
        // The rate is the mean over ok runs only.
        assert!((gauss.events_per_sec - 500.0).abs() < 1e-9);
    }

    #[test]
    fn blame_shares_are_percent_of_the_app_span_wall() {
        let mut rows = fixture_rows();
        for row in &mut rows {
            row.engine = "live".into();
            row.blame_compute_ns = 600;
            row.blame_net_ns = 300;
            row.blame_retry_ns = 100;
        }
        let cells = aggregate(&rows);
        assert!(!cells[0].sim);
        let want = BlamePct {
            compute: 60.0,
            net: 30.0,
            ..BlamePct::default()
        };
        assert_eq!(cells[0].blame_pct, want);
        let table = render_table(&cells);
        assert!(
            table.contains("compute%") && table.contains(" 60 "),
            "{table}"
        );
    }

    #[test]
    fn gate_compares_exact_columns_and_locates_each_finding() {
        let rows = fixture_rows();
        // Columns that do not repeat are not compared.
        let mut baseline = rows.clone();
        for b in &mut baseline {
            b.wall_ns *= 3;
            b.note = "other".into();
        }
        let verdict = gate(&rows, &baseline);
        assert!(verdict.pass, "{}", verdict.report);
        assert!(verdict
            .report
            .ends_with("gate: PASS — 4 row(s) match the baseline exactly\n"));

        // An exact column off by one, and a run that failed.
        baseline[2].events -= 1;
        let mut now = rows.clone();
        now[0].status = RunStatus::Abort;
        now[0].note = "peer gone".into();
        let verdict = gate(&now, &baseline);
        assert!(!verdict.pass);
        let (cell, events) = (&rows[2].cell, rows[2].events);
        let want = format!("{cell} seed=1 events: {} → {events}\n", events - 1);
        assert!(verdict.report.contains(&want), "{}", verdict.report);
        let want = format!("{} seed=1 status: abort (peer gone)\n", rows[0].cell);
        assert!(verdict.report.contains(&want), "{}", verdict.report);
        assert!(verdict.report.contains("gate: FAIL — 2 difference(s)"));

        // Rows on one side only are reported, not gated.
        let new_run = gate(&rows, &rows[1..]);
        assert!(new_run.pass && new_run.report.contains("seed=1: not in the baseline"));
        let dropped = gate(&rows[1..], &rows);
        assert!(dropped.pass && dropped.report.contains("seed=1: baseline row not run"));
    }

    #[test]
    fn table_renders_every_cell_under_its_group() {
        let cells = aggregate(&fixture_rows());
        let table = render_table(&cells);
        let mut lines = table.lines();
        let (header, rule) = (lines.next().unwrap(), lines.next().unwrap());
        // The rule names each group where its first column starts.
        assert!(
            header.find(" ok") < rule.find("exact")
                && rule.find("exact") <= header.find("virtual ms")
        );
        assert!(
            header.find("retries") < rule.find("(info)")
                && rule.find("(info)") <= header.find("wall ms")
        );
        for c in &cells {
            assert!(table.contains(&c.cell));
        }
    }
}
