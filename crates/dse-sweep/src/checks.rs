//! Mechanical checks on a figure sweep: does each reproduced figure show
//! the qualitative behaviour the paper reports (*shape* checks, over the
//! pivoted figures), and does the time go where EXPERIMENTS.md says it
//! goes (*mechanism* checks, over the rows' blame columns)? These are the
//! "reproduction passed" criteria recorded in EXPERIMENTS.md.
//!
//! A check that cannot find a series it looks at fails and says which; a
//! shorter x axis only moves the point a check is evaluated at.

use crate::figure::{Figure, Series};
use crate::run::{RunRecord, RunStatus};
use crate::spec::RunSpec;

/// Outcome of one check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether the reproduced data shows it.
    pub pass: bool,
    /// Supporting numbers.
    pub detail: String,
}

impl Check {
    fn of(name: impl Into<String>, pass: bool, detail: String) -> Check {
        Check {
            name: name.into(),
            pass,
            detail,
        }
    }
}

/// What a shape check returns: its checks, named without the figure id
/// (the caller prefixes it), or what it looked for and did not find.
type Checks = Result<Vec<Check>, String>;

fn series<'a>(fig: &'a Figure, label: &str) -> Result<&'a Series, String> {
    fig.series_named(label)
        .ok_or_else(|| format!("no series '{label}'"))
}

fn at(fig: &Figure, label: &str, x: f64) -> Result<f64, String> {
    series(fig, label)?
        .y_at(x)
        .ok_or_else(|| format!("series '{label}' has no point at x = {x}"))
}

/// The first and last series of a figure with at least two.
fn ends(fig: &Figure) -> Result<(&Series, &Series), String> {
    match fig.series.as_slice() {
        [first, .., last] => Ok((first, last)),
        _ => Err("fewer than two series".into()),
    }
}

/// The largest x every series reaches.
fn max_common_x(fig: &Figure) -> f64 {
    fig.series
        .iter()
        .map(|s| s.points.iter().map(|&(x, _)| x).fold(f64::MIN, f64::max))
        .fold(f64::MAX, f64::min)
}

/// §4.1: the smallest N degrades with more processors; the largest speeds
/// up to the mid-range and declines past 6 processors (virtual-cluster
/// overload).
fn check_gauss(fig: &Figure) -> Checks {
    let (small, large) = ends(fig)?;
    let (lo, hi) = (small.y_max(), large.y_max());
    let (lo_n, hi_n) = (&small.label, &large.label);
    let best_p = large.argmax_x();
    let mut checks = vec![
        Check::of(
            "small N gains little",
            lo < 2.0,
            format!("max speedup for {lo_n} = {lo:.2}"),
        ),
        Check::of(
            "large N speeds up",
            hi > 1.6 && hi > lo + 0.4,
            format!("max speedup for {hi_n} = {hi:.2} (vs {lo_n} = {lo:.2})"),
        ),
        Check::of(
            "peak in 3..=8 processors",
            (3.0..=8.0).contains(&best_p),
            format!("{hi_n} peaks at p={best_p}"),
        ),
    ];
    if let Some(at12) = large.y_at(12.0) {
        checks.push(Check::of(
            "declines past 6 (virtual cluster)",
            at12 < hi * 0.95,
            format!("{hi_n}: peak {hi:.2} vs p=12 {at12:.2}"),
        ));
    }
    Ok(checks)
}

/// §4.2: block 4×4 shows no useful speedup; larger blocks speed up, bigger
/// is better at high processor counts.
fn check_dct(fig: &Figure) -> Checks {
    // Evaluate at the physical-cluster peak (the paper's headline region);
    // past 6 processors the virtual-cluster dip sets in.
    let p = max_common_x(fig).min(6.0);
    // The LAN is 10 Mbps on every platform while the CPUs differ by ~7x,
    // so the faster machines necessarily see compressed speedups (the
    // *pattern* — larger block, better scaling — is what the paper claims
    // holds everywhere).
    let (t16, t32) = match fig.id.as_str() {
        "fig11" => (1.7, 2.4), // SunOS/SparcStation: slow CPU, strong scaling
        "fig13" => (1.3, 1.8), // AIX/RS6000
        _ => (1.15, 1.4),      // Linux/Pentium-II: fastest CPU, weakest ratio
    };
    let s4 = at(fig, "4x4", p)?;
    let s16 = at(fig, "16x16", p)?;
    let s32 = at(fig, "32x32", p)?;
    Ok(vec![
        Check::of(
            "4x4 gains little",
            s4 < 1.6,
            format!("speedup(4x4, p={p}) = {s4:.2}"),
        ),
        Check::of(
            "large blocks speed up",
            s16 > t16 && s32 > t32,
            format!("speedup(16)={s16:.2} (>{t16}) speedup(32)={s32:.2} (>{t32}) at p={p}"),
        ),
        Check::of(
            "bigger block >= smaller",
            s32 >= s16 * 0.9 && s16 > s4,
            format!("s32={s32:.2} s16={s16:.2} s4={s4:.2}"),
        ),
    ])
}

/// §4.3: the shallowest depth shows no improvement; the deepest does.
fn check_othello(fig: &Figure) -> Checks {
    let p = max_common_x(fig).min(8.0);
    let (shallow, deep) = ends(fig)?;
    let (s, d) = (at(fig, &shallow.label, p)?, at(fig, &deep.label, p)?);
    Ok(vec![
        Check::of(
            "depth 3 flat",
            s < 1.5,
            format!("speedup({}, p={p}) = {s:.2}", shallow.label),
        ),
        Check::of(
            "deep search speeds up",
            d > 1.8 && d > s,
            format!("speedup({}, p={p}) = {d:.2}", deep.label),
        ),
    ])
}

/// §4.4: a mid job count is most efficient; very few jobs go flat once
/// processors exceed the job count; very many jobs are the least efficient
/// at scale (communication frequency + collisions).
fn check_knights(fig: &Figure) -> Checks {
    // Compare at the physical-cluster peak: past 6 processors co-location
    // compresses all series together.
    let p = max_common_x(fig).min(6.0);
    let s4 = at(fig, "4_Jobs", p)?;
    let s16 = at(fig, "16_Jobs", p)?;
    let s256 = at(fig, "256_Jobs", p)?;
    let mut checks = vec![
        Check::of(
            "16 jobs beats 4 jobs at scale",
            s16 > s4,
            format!("s16={s16:.2} s4={s4:.2} at p={p}"),
        ),
        Check::of(
            "16 jobs beats 256 jobs",
            s16 > s256,
            format!("s16={s16:.2} s256={s256:.2} at p={p}"),
        ),
    ];
    let tail = series(fig, "4_Jobs")?.points.iter().filter(|p| p.0 > 4.0);
    let tail_max = tail.map(|&(_, y)| y).fold(f64::MIN, f64::max);
    if tail_max > f64::MIN {
        let at4 = at(fig, "4_Jobs", 4.0)?;
        checks.push(Check::of(
            "4 jobs flat past 4 procs",
            tail_max <= at4 * 1.15,
            format!("speedup(4_Jobs, p=4)={at4:.2}, max beyond={tail_max:.2}"),
        ));
    }
    Ok(checks)
}

/// A1: the legacy separate-process organization must be slower everywhere.
fn check_org(fig: &Figure) -> Checks {
    let new = series(fig, "linked-library")?;
    let old = series(fig, "separate-process")?;
    let slower = |&(x, y): &(f64, f64)| old.y_at(x).is_some_and(|o| o > y);
    let first = |s: &Series| s.points.first().map_or(f64::NAN, |&(_, y)| y);
    Ok(vec![Check::of(
        "legacy slower at every p",
        new.points.iter().all(slower),
        format!("new p=1 {:.3}s vs old p=1 {:.3}s", first(new), first(old)),
    )])
}

/// A2: lighter stacks and the switched fabric must not be slower than
/// TCP/IP on the bus at scale.
fn check_proto(fig: &Figure) -> Checks {
    let p = max_common_x(fig).min(8.0);
    let tcp = at(fig, "tcp-bus10", p)?;
    let raw = at(fig, "raw-bus10", p)?;
    let sw = at(fig, "tcp-switched100", p)?;
    Ok(vec![
        Check::of(
            "raw Ethernet faster than TCP",
            raw < tcp,
            format!("raw={raw:.3}s tcp={tcp:.3}s at p={p}"),
        ),
        Check::of(
            "switched 100Mb faster than bus 10Mb",
            sw < tcp,
            format!("switched={sw:.3}s bus={tcp:.3}s at p={p}"),
        ),
    ])
}

/// A6: the mixed cluster must land between the pure clusters, closer to
/// the fast one (dynamic tasking).
fn check_hetero(fig: &Figure) -> Checks {
    let p = max_common_x(fig);
    let slow = at(fig, "all-sparc", p)?;
    let fast = at(fig, "all-pentium2", p)?;
    let mixed = at(fig, "mixed", p)?;
    Ok(vec![Check::of(
        "mixed cluster between pure clusters",
        fast <= mixed && mixed <= slow,
        format!("fast {fast:.3}s <= mixed {mixed:.3}s <= slow {slow:.3}s at p={p}"),
    )])
}

/// A5: explicit message passing avoids the DSM's request round trips, so
/// it must not be slower at scale — DSE trades this overhead for the
/// shared-memory programming model.
fn check_model(fig: &Figure) -> Checks {
    let p = max_common_x(fig).min(6.0);
    let td = at(fig, "dsm", p)?;
    let tm = at(fig, "message-passing", p)?;
    Ok(vec![Check::of(
        "message passing at least as fast at scale",
        tm <= td * 1.05,
        format!("mp {tm:.3}s vs dsm {td:.3}s at p={p}"),
    )])
}

/// A4: the cache must win clearly on the read-mostly workload at scale.
fn check_cache(fig: &Figure) -> Checks {
    let p = max_common_x(fig).min(6.0);
    let tp = at(fig, "request-response", p)?;
    let tc = at(fig, "gm-cache", p)?;
    Ok(vec![Check::of(
        "cache wins on read-mostly sharing",
        tc * 2.0 < tp,
        format!("cached {tc:.3}s vs plain {tp:.3}s at p={p}"),
    )])
}

/// A3: with 12 real machines there is no co-location penalty at p=12.
fn check_vcluster(fig: &Figure) -> Checks {
    let p = max_common_x(fig);
    let t6 = at(fig, "6-machines", p)?;
    let t12 = at(fig, "12-machines", p)?;
    let detail = format!("6 machines {t6:.3}s vs 12 machines {t12:.3}s");
    Ok(vec![if p <= 6.0 {
        Check::of("needs p>6 to bite", true, detail)
    } else {
        Check::of(format!("co-location costs time at p={p}"), t12 < t6, detail)
    }])
}

/// The shape check a `[[figure]]` block names with `check = "..."`.
pub fn shape_check(name: &str) -> Option<fn(&Figure) -> Checks> {
    Some(match name {
        "gauss" => check_gauss,
        "dct" => check_dct,
        "othello" => check_othello,
        "knights" => check_knights,
        "org" => check_org,
        "proto" => check_proto,
        "vcluster" => check_vcluster,
        "cache" => check_cache,
        "model" => check_model,
        "hetero" => check_hetero,
        _ => return None,
    })
}

/// Run shape check `name` on `fig`; every check is named `<figure id>:
/// <what>`. A check that cannot be evaluated is one failed check that
/// says what it looked for.
pub fn run_shape_check(name: &str, fig: &Figure) -> Vec<Check> {
    let missing = |what: String| vec![Check::of(format!("{name} shape"), false, what)];
    let mut checks = match shape_check(name) {
        Some(check) => check(fig).unwrap_or_else(missing),
        None => missing(format!("'{name}' is not a shape check")),
    };
    for check in &mut checks {
        check.name = format!("{}: {}", fig.id, check.name);
    }
    checks
}

/// Share of `part` in the app-span time of `app` at the given size (N, or
/// jobs for knights) and processor count on the paper's SunOS cluster.
fn blame_share(
    cells: &[(&RunSpec, &RunRecord)],
    (app, size, procs): (&str, usize, usize),
    part: fn(&RunRecord) -> u64,
) -> Result<f64, String> {
    let wanted = |(run, row): &&(&RunSpec, &RunRecord)| {
        let run_size = match app {
            "knights" => run.params.jobs,
            _ => run.params.n,
        };
        let paper_cluster = run.platform == "sunos"
            && run.machines == dse_platform::PAPER_MACHINES
            && (run.organization.as_str(), run.protocol.as_str()) == ("linked", "tcp")
            && run.network == "bus10"
            && !run.cache;
        (run.app.as_str(), run_size, run.procs) == (app, size, procs)
            && paper_cluster
            && row.status == RunStatus::Ok
    };
    let (_, row) = cells
        .iter()
        .find(wanted)
        .ok_or_else(|| format!("no ok row for {app} {size} on sunos at p={procs}"))?;
    Ok(part(row) as f64 / row.app_span_ns().max(1) as f64)
}

/// The narratives EXPERIMENTS.md reads off the blame table, as
/// assertions over the sweep's rows: *why* the curves bend. Each holds
/// when the first share is the smaller one.
pub fn mechanism_checks(cells: &[(&RunSpec, &RunRecord)]) -> Vec<Check> {
    let share = |cell, part| blame_share(cells, cell, part);
    let net = |procs| share(("knights", 256, procs), |r| r.blame_net_ns);
    let queue = |cell| share(cell, |r| r.blame_cpu_queue_ns);
    let pct = |v: f64| format!("{:.1} %", v * 100.0);
    let smaller = |name: &str, a: Result<f64, String>, b: Result<f64, String>| {
        let name = format!("mechanism: {name}");
        match (a, b) {
            (Ok(a), Ok(b)) => Check::of(name, a < b, format!("{} vs {}", pct(a), pct(b))),
            (Err(e), _) | (_, Err(e)) => Check::of(name, false, e),
        }
    };
    vec![
        smaller(
            "gauss-sunos p=4 computes a smaller share at N=100 than at N=900",
            share(("gauss", 100, 4), |r| r.blame_compute_ns),
            share(("gauss", 900, 4), |r| r.blame_compute_ns),
        ),
        smaller(
            "gauss-sunos N=900 barrier share grows from p=6 to p=12",
            share(("gauss", 900, 6), |r| r.blame_barrier_ns),
            share(("gauss", 900, 12), |r| r.blame_barrier_ns),
        ),
        smaller(
            "gauss-sunos N=900 cpu_queue share at p=6 is below p=8's and p=12's (ranks share CPUs past 6)",
            queue(("gauss", 900, 6)),
            queue(("gauss", 900, 8)).and_then(|a| queue(("gauss", 900, 12)).map(|b| a.min(b))),
        ),
        smaller(
            "knights-sunos 256 jobs is not wire-bound (net share < 5 % at p=4 and p=12)",
            net(4).and_then(|a| net(12).map(|b| a.max(b))),
            Ok(0.05),
        ),
        smaller(
            "knights-sunos 256 jobs home-kernel serve share grows from p=4 to p=12",
            share(("knights", 256, 4), |r| r.blame_serve_ns),
            share(("knights", 256, 12), |r| r.blame_serve_ns),
        ),
        smaller(
            "knights-sunos 256 jobs cpu_queue share shrinks from p=4 to p=12 (the wait moves into node 0's inbox)",
            queue(("knights", 256, 12)),
            queue(("knights", 256, 4)),
        ),
    ]
}

/// Render a check list; returns `(text, passed)`.
pub fn render_checks(checks: &[Check]) -> (String, usize) {
    let mut out = String::new();
    for c in checks {
        out.push_str(&format!(
            "  [{}] {} — {}\n",
            if c.pass { "PASS" } else { "FAIL" },
            c.name,
            c.detail
        ));
    }
    (out, checks.iter().filter(|c| c.pass).count())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A figure of `(label, points)` curves over `procs`.
    fn fig(id: &str, curves: &[(&str, &[(f64, f64)])]) -> Figure {
        let line = |(label, points): &(&str, &[(f64, f64)])| Series::new(*label, points.to_vec());
        Figure {
            id: id.into(),
            xlabel: "procs".into(),
            series: curves.iter().map(line).collect(),
        }
    }

    #[test]
    fn gauss_check_passes_on_paper_shape() {
        let small = [(1.0, 1.0), (4.0, 0.3), (12.0, 0.1)];
        let large = [(1.0, 1.0), (4.0, 2.7), (6.0, 2.5), (12.0, 1.4)];
        let f = fig("fig5", &[("N=100", &small), ("N=900", &large)]);
        let checks = run_shape_check("gauss", &f);
        assert_eq!(checks.len(), 4);
        assert!(checks.iter().all(|c| c.pass), "{checks:?}");
    }

    #[test]
    fn gauss_check_fails_on_wrong_shape() {
        // Speedup that keeps growing past 6 violates the virtual-cluster claim.
        let small = [(1.0, 1.0), (4.0, 0.5), (12.0, 0.2)];
        let large = [(1.0, 1.0), (4.0, 2.0), (6.0, 3.0), (12.0, 5.0)];
        let f = fig("fig5", &[("N=100", &small), ("N=900", &large)]);
        assert!(run_shape_check("gauss", &f).iter().any(|c| !c.pass));
    }

    #[test]
    fn dct_check_thresholds_are_platform_aware() {
        let curves: [(&str, &[(f64, f64)]); 3] = [
            ("4x4", &[(1.0, 1.0), (6.0, 0.9)]),
            ("16x16", &[(1.0, 1.0), (6.0, 1.2)]),
            ("32x32", &[(1.0, 1.0), (6.0, 1.5)]),
        ];
        // 1.2/1.5 passes the Linux thresholds but not the SunOS ones.
        let checks = |id| run_shape_check("dct", &fig(id, &curves));
        assert!(checks("fig15").iter().all(|c| c.pass));
        assert!(checks("fig11").iter().any(|c| !c.pass));
    }

    #[test]
    fn knights_check_flags_flat_16_jobs() {
        let curves: [(&str, &[(f64, f64)]); 3] = [
            ("4_Jobs", &[(1.0, 1.0), (4.0, 3.6), (6.0, 3.5)]),
            ("16_Jobs", &[(1.0, 1.0), (4.0, 2.0), (6.0, 2.0)]),
            ("256_Jobs", &[(1.0, 1.0), (4.0, 2.5), (6.0, 2.5)]),
        ];
        // 16 jobs losing to 4 jobs fails the "most efficient" claim.
        let checks = run_shape_check("knights", &fig("fig19-speedup", &curves));
        assert!(checks.iter().any(|c| !c.pass));
    }

    #[test]
    fn a_check_with_nothing_to_look_at_fails_and_says_what_is_missing() {
        let f = fig("fig11", &[("4x4", &[(1.0, 1.0), (6.0, 0.9)])]);
        for (name, what) in [
            ("dct", "no series '16x16'"),
            ("gauss", "fewer than two series"),
            ("org", "no series 'linked-library'"),
            ("frobnicate", "is not a shape check"),
        ] {
            let checks = run_shape_check(name, &f);
            assert_eq!(checks.len(), 1, "{name}");
            assert!(!checks[0].pass && checks[0].name.starts_with("fig11: "));
            assert!(checks[0].detail.contains(what), "{:?}", checks[0]);
        }
    }

    #[test]
    fn mechanism_checks_read_blame_shares_off_the_rows() {
        // The paper's SunOS cluster; (compute, cpu_queue, serve, net,
        // barrier) per mille of each cell's time.
        let cell = |app: &str, size: usize, procs: usize, blame: [u64; 5]| {
            let run = RunSpec {
                app: app.into(),
                platform: "sunos".into(),
                procs,
                machines: 6,
                organization: "linked".into(),
                protocol: "tcp".into(),
                network: "bus10".into(),
                ..RunSpec::default()
            };
            let row = RunRecord {
                blame_compute_ns: blame[0],
                blame_cpu_queue_ns: blame[1],
                blame_serve_ns: blame[2],
                blame_net_ns: blame[3],
                blame_barrier_ns: blame[4],
                ..RunRecord::failed(&run, RunStatus::Ok, "")
            };
            let mut run = run;
            (run.params.n, run.params.jobs) = (size, size);
            (run, row)
        };
        let cells = [
            cell("gauss", 100, 4, [186, 0, 100, 138, 576]),
            cell("gauss", 900, 4, [700, 18, 50, 84, 148]),
            cell("gauss", 900, 6, [575, 25, 50, 75, 275]),
            cell("gauss", 900, 8, [250, 150, 50, 150, 400]),
            cell("gauss", 900, 12, [320, 80, 50, 31, 519]),
            cell("knights", 256, 4, [557, 203, 208, 17, 15]),
            cell("knights", 256, 12, [183, 119, 676, 6, 16]),
        ];
        let pairs: Vec<_> = cells.iter().map(|(run, row)| (run, row)).collect();
        let checks = mechanism_checks(&pairs);
        assert_eq!(checks.len(), 6);
        assert!(checks.iter().all(|c| c.pass), "{checks:?}");
        assert!(checks[0].detail.contains("18.6 % vs 70.0 %"), "{checks:?}");
        assert!(checks[2].detail.contains("2.5 % vs 8.0 %"), "{checks:?}");
        // Without the rows past p=6 every check but the first has nothing
        // to compare, and says so.
        let checks = mechanism_checks(&pairs[..3]);
        let failed: Vec<_> = checks.iter().filter(|c| !c.pass).collect();
        assert_eq!(failed.len(), 5, "{checks:?}");
        let missing = "no ok row for gauss 900 on sunos at p=12";
        assert!(failed[0].detail.contains(missing), "{checks:?}");
    }

    #[test]
    fn render_checks_reports_pass_and_fail() {
        let checks = vec![
            Check::of("a", true, "ok".into()),
            Check::of("b", false, "bad".into()),
        ];
        let (text, passed) = render_checks(&checks);
        assert_eq!(passed, 1);
        assert!(text.contains("[PASS] a"));
        assert!(text.contains("[FAIL] b"));
    }
}
