//! One run of one workload: repetitions, the reduction to metrics, and —
//! in a traced run — the spans, the blame shares and the layer probes.
//!
//! A run is many repetitions. Each repetition reports medians over its
//! own samples; the run reports its best or its median repetition, as the
//! workload's `live::Pace` says.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::gm;
use crate::json::RunResult;
use crate::layers;
use crate::live::{median_of, reduce, LiveBench, LiveWorkload, Rep, RepPlan};
use crate::sim::{self, AppRun, SimApps};
use crate::spans::{SpanId, SpanLog};
use crate::spec;
use crate::stats::median;
use crate::sync;
use crate::sys::{self, Rusage};

/// Share of a traced run's seconds spent in the workload itself; the layer
/// probes get the rest.
const TRACED_WORKLOAD_SHARE: f64 = 0.35;
/// Set-ups timed on their own after each measured repetition, so that
/// they spread over the whole run as the repetitions do.
const SETUPS_PER_REP: usize = 4;

/// What the command line asked for.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

/// Named values on their way to the result line.
#[derive(Default)]
struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Record a metric. A name the contract does not list is a defect of
    /// the benchmark and stops the run: it would otherwise vanish silently.
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            spec::END_TO_END.iter().any(|m| m.name == name)
                || spec::PER_LAYER.iter().any(|m| m.name == name),
            "metric {name} is not in BENCHMARK.json"
        );
        self.0.insert(name, value);
    }

    /// Every metric the contract names for this kind of run, in its order.
    /// A per-layer metric the workload does not exercise reads 0; a missing
    /// end-to-end metric is a defect and fails the run.
    fn finish(self, traced: bool) -> Result<Vec<(String, f64, String)>, String> {
        if traced {
            Ok(spec::PER_LAYER
                .iter()
                .map(|m| {
                    let v = self.0.get(m.name).copied().unwrap_or(0.0);
                    (m.name.to_string(), v, m.unit.to_string())
                })
                .collect())
        } else {
            spec::END_TO_END
                .iter()
                .map(|m| match self.0.get(m.name) {
                    Some(&v) if v.is_finite() && v > 0.0 => {
                        Ok((m.name.to_string(), v, m.unit.to_string()))
                    }
                    other => Err(format!("end-to-end metric {} is {other:?}", m.name)),
                })
                .collect()
        }
    }
}

/// Run the workload `args` names and reduce it to the result the driver
/// reads. `out_dir` receives the span file of a traced run.
pub fn run(args: &RunArgs, out_dir: &Path) -> Result<RunResult, String> {
    let mut spans = SpanLog::new();
    let root = spans.open(0, format!("workload:{}", args.workload));
    let mut metrics = Metrics::default();
    let seed = args.seed;
    let (attempted, failed) = match args.workload.as_str() {
        "gm_small" => live(
            gm::Small::gm_small(seed),
            args,
            &mut metrics,
            &mut spans,
            root,
        ),
        "uds_small" => live(
            gm::Small::uds_small(seed),
            args,
            &mut metrics,
            &mut spans,
            root,
        ),
        "tasks64" => live(
            gm::Small::tasks64(seed),
            args,
            &mut metrics,
            &mut spans,
            root,
        ),
        "gm_bulk" => live(gm::Bulk::new(seed), args, &mut metrics, &mut spans, root),
        "sync" => live(sync::Sync, args, &mut metrics, &mut spans, root),
        "sim_fine" => simulated(args, &mut metrics, &mut spans, root),
        other => return Err(format!("unknown workload {other:?}")),
    };
    spans.close(root);
    if args.traced {
        let layers_span = spans.open(0, "layers");
        let budget = Duration::from_secs_f64(args.seconds * (1.0 - TRACED_WORKLOAD_SHARE));
        for (name, value) in layers::run_all(budget, seed, &mut spans, layers_span) {
            metrics.set(name, value);
        }
        spans.close(layers_span);
        let path = out_dir.join(format!("trace-{}.json", args.workload));
        spans
            .write_json(&path, &args.workload, seed)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("{} spans written to {}", spans.len(), path.display());
    } else {
        metrics.set("peak_rss_mb", Rusage::now().max_rss_kib as f64 / 1024.0);
    }
    Ok(RunResult {
        correct: failed == 0 && attempted > 0,
        attempted: attempted.max(1),
        failed,
        metrics: metrics.finish(args.traced)?,
    })
}

/// Run a live workload's repetitions and fill in its metrics; returns
/// operations attempted and failed.
fn live<W: LiveWorkload>(
    workload: W,
    args: &RunArgs,
    metrics: &mut Metrics,
    spans: &mut SpanLog,
    root: SpanId,
) -> (u64, u64) {
    let one_cpu = workload.cluster().one_cpu;
    let pace = workload.pace();
    let mut bench = LiveBench::new(workload);
    let mut reps: Vec<Rep> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    let mut repetitions = || {
        let plan = |traced, setup_only| RepPlan {
            time_box: pace.time_box,
            traced,
            setup_only,
        };
        // One repetition first pays for page faults, lazy initialisation
        // and cold caches; it is not measured.
        let warm_up = bench.rep(&plan(false, false), None);
        let started = Instant::now();
        if args.traced {
            // Untraced and traced repetitions alternate, so a disturbance
            // hits both kinds.
            let budget = args.seconds * TRACED_WORKLOAD_SHARE;
            while started.elapsed().as_secs_f64() < budget || reps.len() < 2 {
                for traced in [false, true] {
                    reps.push(bench.rep(&plan(traced, false), Some((&mut *spans, root))));
                }
            }
        } else {
            while started.elapsed().as_secs_f64() < args.seconds || reps.len() < 3 {
                reps.push(bench.rep(&plan(false, false), None));
                // Set-up alone, several times; their median is `setup_s`.
                for _ in 0..SETUPS_PER_REP {
                    setups.push(bench.rep(&plan(false, true), None).setup_s);
                }
            }
        }
        warm_up
    };
    let warm_up = if one_cpu {
        sys::pinned(&args.workload, repetitions)
    } else {
        repetitions()
    };

    let second = bench.workload.second_kind();
    let headline = |r: &Rep| {
        if bench.workload.headline_is_mean() {
            r.mean_us[0]
        } else {
            r.p50_us[0]
        }
    };
    for (i, r) in reps.iter().enumerate() {
        eprintln!(
            "{} rep {i}{}: {} ops ({} failed) in {:.3} s = {:.0}/s, p50 {:.2} us (mean {:.2}) over \
             {} samples, second p50 {:.2} us over {} samples, set-up {:.4} s, {} retries",
            args.workload,
            if r.traced { " traced" } else { "" },
            r.ops,
            r.failed,
            r.window_s,
            r.ops_per_s(),
            r.p50_us[0],
            r.mean_us[0],
            r.samples[0],
            r.p50_us[second],
            r.samples[second],
            r.setup_s,
            r.gm_retries,
        );
    }
    let attempted = warm_up.ops + reps.iter().map(|r| r.ops).sum::<u64>();
    let failed = warm_up.failed + reps.iter().map(|r| r.failed).sum::<u64>();
    // An aborted repetition has no window and no place in a statistic.
    let completed = |traced: bool| -> Vec<&Rep> {
        reps.iter()
            .filter(|r| r.traced == traced && r.completed)
            .collect()
    };
    let plain = completed(false);
    if plain.is_empty() {
        return (attempted, failed.max(1));
    }
    if !args.traced {
        metrics.set("ops_per_s", reduce(pace, &plain, true, Rep::ops_per_s));
        metrics.set("op_lat_us", reduce(pace, &plain, false, headline));
        metrics.set(
            "op2_lat_us",
            reduce(pace, &plain, false, |r| r.p50_us[second]),
        );
        setups.extend(plain.iter().map(|r| r.setup_s));
        metrics.set("setup_s", median(&setups));
        return (attempted, failed);
    }

    let w = &bench.workload;
    let kind = |name: &str| w.kinds().iter().position(|k| *k == name);
    let p50 = |name: &str| kind(name).map_or(0.0, |k| reduce(pace, &plain, false, |r| r.p50_us[k]));
    metrics.set(
        "live.read_p99_us",
        kind("read").map_or(0.0, |k| median_of(&plain, |r| r.p99_us[k])),
    );
    metrics.set("live.write_p50_us", p50("write"));
    metrics.set("live.fetch_add_p50_us", p50("fetch_add"));
    metrics.set("live.nb_burst8_us", p50("burst8"));
    metrics.set(
        "live.mb_per_s",
        reduce(pace, &plain, true, |r| r.bytes as f64 / 1e6 / r.window_s),
    );
    metrics.set(
        "live.mean_over_p50",
        median_of(&plain, |r| {
            if r.p50_us[0] > 0.0 {
                r.mean_us[0] / r.p50_us[0]
            } else {
                0.0
            }
        }),
    );
    let per_op = |f: fn(&Rep) -> f64| median_of(&plain, |r| f(r) / r.ops.max(1) as f64);
    metrics.set(
        "live.vol_ctxsw_per_op",
        per_op(|r| r.usage.vol_ctxsw as f64),
    );
    metrics.set(
        "live.invol_ctxsw_per_op",
        per_op(|r| r.usage.invol_ctxsw as f64),
    );
    metrics.set("live.cpu_us_per_op", per_op(|r| r.usage.cpu_us as f64));
    metrics.set("live.allocs_per_op", per_op(|r| r.allocs as f64));
    metrics.set(
        "kernel.requests_served",
        median_of(&plain, |r| r.requests_served),
    );
    metrics.set(
        "kernel.gm_request_msgs",
        median_of(&plain, |r| r.gm_request_msgs),
    );
    metrics.set(
        "kernel.app_direct_msgs",
        median_of(&plain, |r| r.app_direct_msgs),
    );
    metrics.set("kernel.gm_retries", median_of(&plain, |r| r.gm_retries));
    metrics.set(
        "kernel.service_p50_ns",
        median_of(&plain, |r| r.service_p50_ns),
    );

    let traced = completed(true);
    if !traced.is_empty() {
        let (base, with) = (
            reduce(pace, &plain, true, Rep::ops_per_s),
            reduce(pace, &traced, true, Rep::ops_per_s),
        );
        metrics.set("obs.trace_overhead_pct", (base - with) / base * 100.0);
        let share = |part: fn(&dse_trace::BlameRow) -> u64| {
            median_of(&traced, |r| {
                r.blame
                    .map_or(0.0, |b| part(&b) as f64 / b.wall_ns.max(1) as f64)
            })
        };
        metrics.set("blame.compute_share", share(|b| b.compute_ns));
        metrics.set("blame.serve_share", share(|b| b.serve_ns));
        metrics.set("blame.net_share", share(|b| b.net_ns));
        metrics.set("blame.barrier_share", share(|b| b.barrier_ns));
        metrics.set("blame.lock_share", share(|b| b.lock_ns));
        metrics.set("blame.retry_share", share(|b| b.retry_ns));
    }
    (attempted, failed)
}

/// Run the simulator workload's repetitions and fill in its metrics;
/// returns application runs attempted and failed.
fn simulated(
    args: &RunArgs,
    metrics: &mut Metrics,
    spans: &mut SpanLog,
    root: SpanId,
) -> (u64, u64) {
    let apps = SimApps::new(args.seed);
    let mut setups: Vec<f64> = Vec::new();
    let mut reps: Vec<(bool, Vec<AppRun>)> = Vec::new();
    // Only one simulated process is ever runnable, so the simulator's
    // threads share one CPU; the layer probes afterwards run unpinned.
    sys::pinned("sim_fine", || {
        // The first repetition warms up and is not measured.
        let warm_up = apps.rep(false, None);
        let started = Instant::now();
        if args.traced {
            for tracing in [false, true] {
                let name = if tracing {
                    "repetition:traced"
                } else {
                    "repetition"
                };
                let id = spans.open(root, name);
                reps.push((tracing, apps.rep(tracing, Some((&mut *spans, id)))));
                spans.close(id);
            }
        } else {
            while started.elapsed().as_secs_f64() < args.seconds || reps.len() < 3 {
                reps.push((false, apps.rep(false, None)));
                setups.extend((0..SETUPS_PER_REP).map(|_| SimApps::setup_once()));
            }
        }
        reps.insert(0, (false, warm_up));
    });
    for (i, (tracing, rep)) in reps.iter().enumerate() {
        let walls: Vec<String> = rep
            .iter()
            .map(|a| format!("{:.1}", a.wall_s * 1e3))
            .collect();
        eprintln!(
            "sim_fine rep {i}{}: {} events, wall ms per application {}",
            if *tracing { " traced" } else { "" },
            rep.iter().map(|a| a.events).sum::<u64>(),
            walls.join(" ")
        );
    }

    // Every run must give the reference answer, and a deterministic
    // simulator must repeat its event sequence exactly.
    let first = &reps[0].1;
    let mut failed = 0u64;
    for (tracing, rep) in &reps {
        for (run, reference) in rep.iter().zip(first) {
            let repeats = *tracing || run.fingerprint() == reference.fingerprint();
            failed += u64::from(!run.ok || !repeats);
        }
    }
    let attempted = (reps.len() * sim::APP_NAMES.len()) as u64;

    // The best wall time of each application over the untraced, measured
    // repetitions: the least disturbed run of that application.
    let best_wall = |tracing: bool| -> Vec<f64> {
        (0..sim::APP_NAMES.len())
            .map(|app| {
                reps.iter()
                    .skip(1)
                    .filter(|(t, _)| *t == tracing)
                    .map(|(_, rep)| rep[app].wall_s)
                    .fold(f64::INFINITY, f64::min)
            })
            .collect()
    };
    let plain = best_wall(false);
    let sum = |f: fn(&AppRun) -> u64| first.iter().map(f).sum::<u64>() as f64;
    if !args.traced {
        metrics.set("ops_per_s", sum(|a| a.events) / plain.iter().sum::<f64>());
        metrics.set("op_lat_us", plain[sim::GAUSS_BLOCKING] * 1e6);
        metrics.set("op2_lat_us", plain[sim::KNIGHTS] * 1e6);
        metrics.set("setup_s", median(&setups));
        return (attempted, failed);
    }
    metrics.set("sim.events", sum(|a| a.events));
    metrics.set(
        "sim.inline_wake_share",
        sum(|a| a.inline_wakes) / sum(|a| a.events),
    );
    metrics.set("sim.virtual_ns", sum(|a| a.virtual_ns));
    metrics.set("net.frames", sum(|a| a.net_frames));
    metrics.set("net.collisions", sum(|a| a.net_collisions));
    let (base, with) = (
        plain.iter().sum::<f64>(),
        best_wall(true).iter().sum::<f64>(),
    );
    metrics.set("obs.trace_overhead_pct", (with - base) / base * 100.0);
    (attempted, failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_result_holds_exactly_the_contracts_metrics() {
        let mut m = Metrics::default();
        for e in spec::END_TO_END {
            m.set(e.name, 1.5);
        }
        m.set("msg.encode_small_ns", 20.0);
        let names = |v: Vec<(String, f64, String)>| -> Vec<String> {
            v.into_iter().map(|(n, _, _)| n).collect()
        };
        let e2e: Vec<&str> = spec::END_TO_END.iter().map(|e| e.name).collect();
        assert_eq!(names(m.finish(false).unwrap()), e2e);

        // A traced run reports every per-layer metric, unexercised ones as 0.
        let mut m = Metrics::default();
        m.set("msg.encode_small_ns", 20.0);
        let layers = m.finish(true).unwrap();
        assert_eq!(layers.len(), spec::PER_LAYER.len());
        assert_eq!(layers[0], ("msg.encode_small_ns".into(), 20.0, "ns".into()));
        assert_eq!(layers[1].1, 0.0);

        // A missing or zero end-to-end metric fails the run.
        assert!(Metrics::default().finish(false).is_err());
        let mut m = Metrics::default();
        for e in spec::END_TO_END {
            m.set(e.name, 0.0);
        }
        assert!(m.finish(false).is_err());
    }

    #[test]
    #[should_panic(expected = "not in BENCHMARK.json")]
    fn a_metric_outside_the_contract_stops_the_run() {
        Metrics::default().set("made.up_ns", 1.0);
    }
}
