//! Figures: the pivot from sweep rows to the paper's curves, and their
//! CSV form.
//!
//! A [`FigureSpec`] names rows (scenarios + a filter), an x axis and the
//! axes that tell series apart; [`pivot`] turns the rows into a
//! [`Figure`]. One row can feed any number of figures — Gauss-Seidel
//! N = 400 on SunOS is a point of Fig. 4, a curve of Fig. 5 and the
//! reference column of three ablations — so each cell runs once.

use std::fmt::Write as _;

use crate::run::{RunRecord, RunStatus};
use crate::spec::{FigureSpec, RunSpec};

/// One plotted line.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label (e.g. `"4x4"`, `"Depth6"`, `"N=500"`).
    pub label: String,
    /// `(x, y)` points in x order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Build from a label and points.
    pub fn new(label: impl Into<String>, points: Vec<(f64, f64)>) -> Series {
        Series {
            label: label.into(),
            points,
        }
    }

    /// The y value at a given x, if present.
    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|(px, _)| (*px - x).abs() < 1e-9)
            .map(|&(_, y)| y)
    }

    /// The maximum y over all points.
    pub fn y_max(&self) -> f64 {
        self.points.iter().map(|&(_, y)| y).fold(f64::MIN, f64::max)
    }

    /// The x of the maximum y.
    pub fn argmax_x(&self) -> f64 {
        let max = |acc: (f64, f64), &(x, y): &(f64, f64)| if y > acc.1 { (x, y) } else { acc };
        self.points.iter().fold((f64::NAN, f64::MIN), max).0
    }
}

/// One reproduced figure (or one-axis table).
#[derive(Debug, Clone)]
pub struct Figure {
    /// Identifier matching the paper, e.g. `"fig5"`.
    pub id: String,
    /// X-axis label (the CSV's first header).
    pub xlabel: String,
    /// The plotted lines.
    pub series: Vec<Series>,
}

impl Figure {
    /// Find a series by label.
    pub fn series_named(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }

    /// Serialize as CSV: `x,<label>,<label>,...` rows.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{}", self.xlabel);
        for s in &self.series {
            let _ = write!(out, ",{}", s.label);
        }
        out.push('\n');
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|&(x, _)| x))
            .collect();
        xs.sort_by(f64::total_cmp);
        xs.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        for x in xs {
            let _ = write!(out, "{x}");
            for s in &self.series {
                match s.y_at(x) {
                    Some(y) => {
                        let _ = write!(out, ",{y}");
                    }
                    None => out.push(','),
                }
            }
            out.push('\n');
        }
        out
    }
}

/// Turn execution-time series into speed-up series against the y at
/// `base_x` within each series (the paper's "speed improvement ratio":
/// T(1 processor) / T(p)).
pub fn speedup_against_base(times: &[Series], base_x: f64) -> Result<Vec<Series>, String> {
    times
        .iter()
        .map(|s| {
            let base = s
                .y_at(base_x)
                .ok_or_else(|| format!("series '{}' has no point at x = {base_x}", s.label))?;
            let points = s.points.iter().map(|&(x, y)| (x, base / y)).collect();
            Ok(Series::new(s.label.clone(), points))
        })
        .collect()
}

/// Build the figure `decl` declares from a sweep's `(run, row)` pairs:
/// the rows of its scenarios, in `from` order, that match its filter. A
/// row that is not ok, an x that is not a number, two rows on one point
/// and a declaration that selects nothing are errors.
pub fn pivot(decl: &FigureSpec, cells: &[(&RunSpec, &RunRecord)]) -> Result<Figure, String> {
    let mut series: Vec<(Vec<String>, Series)> = Vec::new();
    let selected = decl.from.iter().flat_map(|scenario| {
        let matches = move |(run, _): &&(&RunSpec, &RunRecord)| {
            run.scenario == *scenario
                && decl
                    .filter
                    .iter()
                    .all(|(axis, want)| run.axis(axis).as_ref() == Some(want))
        };
        cells.iter().filter(matches)
    });
    for (run, row) in selected {
        if row.status != RunStatus::Ok {
            return Err(format!("{} is {}: {}", row.cell, row.status, row.note));
        }
        let axis = |name: &String| {
            run.axis(name)
                .ok_or_else(|| format!("'{name}' is not an axis"))
        };
        let x: f64 = axis(&decl.x)?
            .parse()
            .map_err(|_| format!("{}: x axis '{}' is not a number", row.cell, decl.x))?;
        let key = decl
            .series
            .iter()
            .map(axis)
            .collect::<Result<Vec<_>, _>>()?;
        let at = match series.iter().position(|(k, _)| *k == key) {
            Some(at) => at,
            None => {
                let label = match decl.labels.get(series.len()) {
                    Some(label) => label.clone(),
                    None if !decl.labels.is_empty() => {
                        return Err(format!("more series than the {} labels", decl.labels.len()))
                    }
                    None => key
                        .iter()
                        .fold(decl.label.clone(), |label, v| label.replacen("{}", v, 1)),
                };
                series.push((key, Series::new(label, Vec::new())));
                series.len() - 1
            }
        };
        let points = &mut series[at].1.points;
        if points.iter().any(|&(px, _)| px == x) {
            return Err(format!("{} is a second row at x = {x}", row.cell));
        }
        points.push((x, row.elapsed_ns as f64 / 1e9));
    }
    if series.is_empty() {
        return Err("no row matches the declaration".into());
    }
    let mut series: Vec<Series> = series.into_iter().map(|(_, s)| s).collect();
    for s in &mut series {
        s.points.sort_by(|a, b| a.0.total_cmp(&b.0));
    }
    if decl.speedup {
        series = speedup_against_base(&series, 1.0)?;
    }
    Ok(Figure {
        id: decl.id.clone(),
        xlabel: decl.xlabel.clone(),
        series,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{expand, parse_spec};

    fn fig() -> Figure {
        Figure {
            id: "t".into(),
            xlabel: "x".into(),
            series: vec![
                Series::new("a", vec![(1.0, 10.0), (2.0, 5.0)]),
                Series::new("b", vec![(1.0, 8.0)]),
            ],
        }
    }

    #[test]
    fn csv_shape() {
        let csv = fig().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "x,a,b");
        assert_eq!(lines[1], "1,10,8");
        assert_eq!(lines[2], "2,5,");
    }

    #[test]
    fn speedup_from_base() -> Result<(), String> {
        let s = vec![Series::new("n", vec![(1.0, 10.0), (2.0, 5.0), (4.0, 4.0)])];
        let sp = speedup_against_base(&s, 1.0)?;
        assert_eq!(sp[0].points, vec![(1.0, 1.0), (2.0, 2.0), (4.0, 2.5)]);
        let err = speedup_against_base(&s, 3.0).unwrap_err();
        assert!(err.contains("'n' has no point at x = 3"), "{err}");
        Ok(())
    }

    #[test]
    fn series_stats() {
        let s = Series::new("s", vec![(1.0, 1.0), (2.0, 9.0), (3.0, 4.0)]);
        assert_eq!(s.y_max(), 9.0);
        assert_eq!(s.argmax_x(), 2.0);
        assert_eq!(s.y_at(3.0), Some(4.0));
        assert_eq!(s.y_at(5.0), None);
    }

    const SPEC: &str = r#"
[[scenario]]
name = "base"
app = "gauss"
procs = [2, 1]
n = [100, 400]

[[scenario]]
name = "old"
app = "gauss"
procs = [1, 2]
organization = "legacy"

[[figure]]
id = "time"
from = ["base"]
x = "n"
xlabel = "N"
series = "procs"

[[figure]]
id = "speed"
from = ["base"]
x = "procs"
series = "n"
label = "N={}"
value = "speedup"

[[figure]]
id = "org"
from = ["base", "old"]
where = ["n=400"]
x = "procs"
series = ["organization", "protocol"]
labels = ["new", "old"]
"#;

    /// The spec's figures and runs, with rows whose time is a function of
    /// the run so the pivot's arithmetic shows: `T = n / procs` seconds,
    /// doubled on `legacy`.
    struct Sweep(Vec<FigureSpec>, Vec<RunSpec>, Vec<RunRecord>);

    impl Sweep {
        fn new() -> Result<Sweep, String> {
            let spec = parse_spec(SPEC)?;
            let runs = expand(&spec);
            let row = |run: &RunSpec| {
                let slow = if run.organization == "legacy" { 2 } else { 1 };
                RunRecord {
                    elapsed_ns: (run.params.n / run.procs * slow) as u64 * 1_000_000_000,
                    ..RunRecord::failed(run, RunStatus::Ok, "")
                }
            };
            let rows = runs.iter().map(row).collect();
            Ok(Sweep(spec.figures, runs, rows))
        }

        fn csv(&self, decl: &FigureSpec) -> Result<String, String> {
            let cells: Vec<_> = self.1.iter().zip(&self.2).collect();
            pivot(decl, &cells).map(|f| f.to_csv())
        }
    }

    #[test]
    fn one_set_of_rows_pivots_into_every_declared_figure() -> Result<(), String> {
        let sweep = Sweep::new()?;
        let csv = |i: usize| sweep.csv(&sweep.0[i]);
        // Series in order of appearance, points in x order.
        assert_eq!(csv(0)?, "N,2,1\n100,50,100\n400,200,400\n");
        assert_eq!(csv(1)?, "procs,N=100,N=400\n1,1,1\n2,2,2\n");
        // Two scenarios, one filter, two series axes, explicit labels.
        assert_eq!(csv(2)?, "procs,new,old\n1,400,800\n2,200,400\n");
        Ok(())
    }

    #[test]
    fn a_pivot_that_cannot_be_drawn_says_why() -> Result<(), String> {
        let mut sweep = Sweep::new()?;
        let mut decl = sweep.0[2].clone();
        decl.labels.pop();
        let err = sweep.csv(&decl).unwrap_err();
        assert!(err.contains("more series than the 1 labels"), "{err}");
        decl.filter = vec![("n".into(), "999".into())];
        let err = sweep.csv(&decl).unwrap_err();
        assert!(err.contains("no row matches"), "{err}");
        // x = procs over both sizes: two rows per point.
        decl = sweep.0[1].clone();
        decl.series = vec!["app".into()];
        let err = sweep.csv(&decl).unwrap_err();
        assert!(err.contains("is a second row at x = 2"), "{err}");
        decl.x = "platform".into();
        let err = sweep.csv(&decl).unwrap_err();
        assert!(err.contains("'platform' is not a number"), "{err}");
        sweep.2[0].status = RunStatus::Timeout;
        let err = sweep.csv(&sweep.0[0]).unwrap_err();
        assert!(err.contains("is timeout"), "{err}");
        Ok(())
    }
}
