//! Portability, mechanically: each workload's single SPMD body produces
//! identical results on the deterministic simulated cluster and on the
//! real-thread live engine — and on the live engine the answer is the same
//! whichever wire carries the messages (in-process channel or framed TCP
//! over loopback), which is the paper's portability claim for the
//! transport layer.

//! A third axis rides the same claim: the live engine's two kernel
//! drivers — one OS thread per PE, or every PE's kernel as a poll-driven
//! task on a small worker pool — share one protocol state machine, so
//! every workload is bit-identical across `SchedulerKind` too.

use dse::apps::{dct, gauss_seidel, knights, othello};
use dse::live::{LiveRunner, SchedulerKind, TransportKind};
use dse::prelude::*;
use std::sync::Mutex;

/// Run a body on the live engine over `kind` under `sched` and capture
/// rank 0's result.
fn live_capture_with<T: Send + 'static>(
    kind: TransportKind,
    sched: SchedulerKind,
    nprocs: usize,
    body: impl Fn(&mut dse::live::LiveCtx) -> Option<T> + Send + Sync,
) -> T {
    let slot: Mutex<Option<T>> = Mutex::new(None);
    LiveRunner::new(nprocs)
        .transport(kind)
        .scheduler(sched)
        .run(|ctx| {
            if let Some(v) = body(ctx) {
                *slot.lock().unwrap() = Some(v);
            }
        });
    slot.into_inner().unwrap().expect("rank 0 result")
}

/// Run a body on the live engine over `kind` and capture rank 0's result.
fn live_capture_on<T: Send + 'static>(
    kind: TransportKind,
    nprocs: usize,
    body: impl Fn(&mut dse::live::LiveCtx) -> Option<T> + Send + Sync,
) -> T {
    live_capture_with(kind, SchedulerKind::Threads, nprocs, body)
}

fn live_capture<T: Send + 'static>(
    nprocs: usize,
    body: impl Fn(&mut dse::live::LiveCtx) -> Option<T> + Send + Sync,
) -> T {
    live_capture_on(TransportKind::Channel, nprocs, body)
}

#[test]
fn gauss_seidel_same_on_both_engines() {
    let params = gauss_seidel::GaussSeidelParams::paper(80);
    let program = DseProgram::new(Platform::sunos_sparc());
    let (_, sim_sol) = gauss_seidel::solve_parallel(&program, 3, params);
    let live_sol = live_capture(3, |ctx| gauss_seidel::body(ctx, &params));
    // Both engines execute the same sweeps in the same barrier structure,
    // so results agree exactly.
    assert_eq!(sim_sol.iters, live_sol.iters);
    assert_eq!(sim_sol.x, live_sol.x);
    let tcp_sol = live_capture_on(TransportKind::Tcp, 3, |ctx| {
        gauss_seidel::body(ctx, &params)
    });
    assert_eq!(sim_sol.iters, tcp_sol.iters);
    assert_eq!(sim_sol.x, tcp_sol.x);
}

#[test]
fn dct_same_on_both_engines() {
    let params = dct::DctParams {
        size: 128,
        block: 8,
        keep: 0.25,
        seed: 3,
    };
    let program = DseProgram::new(Platform::linux_pentium2());
    let (_, sim_out) = dct::compress_parallel(&program, 4, params);
    let live_out = live_capture(4, |ctx| dct::body(ctx, &params));
    assert_eq!(sim_out, live_out);
    assert_eq!(sim_out, dct::compress_sequential(&params));
    let tcp_out = live_capture_on(TransportKind::Tcp, 4, |ctx| dct::body(ctx, &params));
    assert_eq!(sim_out, tcp_out);
}

#[test]
fn othello_same_on_both_engines() {
    let params = othello::OthelloParams::paper(4);
    let program = DseProgram::new(Platform::aix_rs6000());
    let (_, sim_best) = othello::search_parallel(&program, 3, params);
    let live_best = live_capture(3, |ctx| othello::body(ctx, &params));
    assert_eq!(sim_best, live_best);
    let (mv, v, _) = othello::search_sequential(&params);
    assert_eq!(sim_best, (mv, v));
    let tcp_best = live_capture_on(TransportKind::Tcp, 3, |ctx| othello::body(ctx, &params));
    assert_eq!(sim_best, tcp_best);
}

#[test]
fn knights_same_on_both_engines() {
    let params = knights::KnightsParams::paper(16);
    let program = DseProgram::new(Platform::sunos_sparc());
    let (_, sim_count) = knights::count_parallel(&program, 4, params);
    let live_count = live_capture(4, |ctx| knights::body(ctx, &params));
    assert_eq!(sim_count, live_count);
    assert_eq!(sim_count, 304);
    let tcp_count = live_capture_on(TransportKind::Tcp, 4, |ctx| knights::body(ctx, &params));
    assert_eq!(sim_count, tcp_count);
}

#[test]
fn matmul_same_on_both_engines() {
    use dse::apps::matmul;
    let params = matmul::MatmulParams::single(20);
    let program = DseProgram::new(Platform::sunos_sparc());
    let (_, sim_c) = matmul::multiply_parallel(&program, 3, params);
    let live_c = live_capture(3, |ctx| matmul::body(ctx, &params));
    assert_eq!(sim_c, live_c);
    assert_eq!(sim_c, matmul::multiply_sequential(&params));
    let tcp_c = live_capture_on(TransportKind::Tcp, 3, |ctx| matmul::body(ctx, &params));
    assert_eq!(sim_c, tcp_c);
}

/// The tentpole cross-engine claim for the task scheduler: every app's
/// answer is bit-identical whether the per-PE kernels run as dedicated
/// threads or as poll-driven tasks multiplexed on the worker pool. Both
/// drivers feed the same kernel state machine, so any divergence here is
/// an event-delivery bug, not a protocol one.
#[test]
fn all_apps_identical_across_kernel_schedulers() {
    let tasks =
        |nprocs, body: &(dyn Fn(&mut dse::live::LiveCtx) -> Option<Vec<u8>> + Send + Sync)| {
            live_capture_with(TransportKind::Channel, SchedulerKind::Tasks, nprocs, body)
        };
    let threads =
        |nprocs, body: &(dyn Fn(&mut dse::live::LiveCtx) -> Option<Vec<u8>> + Send + Sync)| {
            live_capture_with(TransportKind::Channel, SchedulerKind::Threads, nprocs, body)
        };

    let gs = gauss_seidel::GaussSeidelParams::paper(60);
    let gauss_body = move |ctx: &mut dse::live::LiveCtx| {
        gauss_seidel::body(ctx, &gs).map(|sol| {
            let mut bytes = sol.iters.to_le_bytes().to_vec();
            bytes.extend(sol.x.iter().flat_map(|v| v.to_le_bytes()));
            bytes
        })
    };
    assert_eq!(threads(3, &gauss_body), tasks(3, &gauss_body), "gauss");

    let dp = dct::DctParams {
        size: 64,
        block: 8,
        keep: 0.25,
        seed: 3,
    };
    let dct_body = move |ctx: &mut dse::live::LiveCtx| {
        dct::body(ctx, &dp).map(|out| format!("{out:?}").into_bytes())
    };
    assert_eq!(threads(4, &dct_body), tasks(4, &dct_body), "dct");

    let op = othello::OthelloParams::paper(3);
    let oth_body = move |ctx: &mut dse::live::LiveCtx| {
        othello::body(ctx, &op).map(|best| format!("{best:?}").into_bytes())
    };
    assert_eq!(threads(3, &oth_body), tasks(3, &oth_body), "othello");

    let kp = knights::KnightsParams::paper(16);
    let kn_body = move |ctx: &mut dse::live::LiveCtx| {
        knights::body(ctx, &kp).map(|count| count.to_le_bytes().to_vec())
    };
    assert_eq!(threads(4, &kn_body), tasks(4, &kn_body), "knights");

    let mp = dse::apps::matmul::MatmulParams::single(16);
    let mm_body = move |ctx: &mut dse::live::LiveCtx| {
        dse::apps::matmul::body(ctx, &mp)
            .map(|c| c.iter().flat_map(|v| v.to_le_bytes()).collect::<Vec<u8>>())
    };
    assert_eq!(threads(3, &mm_body), tasks(3, &mm_body), "matmul");
}

#[cfg(unix)]
#[test]
fn gauss_seidel_same_on_unix_sockets() {
    let params = gauss_seidel::GaussSeidelParams::paper(40);
    let channel_sol = live_capture(2, |ctx| gauss_seidel::body(ctx, &params));
    let uds_sol = live_capture_on(TransportKind::Uds, 2, |ctx| {
        gauss_seidel::body(ctx, &params)
    });
    assert_eq!(channel_sol.iters, uds_sol.iters);
    assert_eq!(channel_sol.x, uds_sol.x);
}

/// A fourth: both engines record one span model, so the *structure* of a
/// run's causal trace is the program's, not the engine's. On an uncached,
/// blocking cell the canonical traces hold the same spans per PE and kind.
#[test]
fn gauss_seidel_trace_structure_same_on_both_engines() {
    use dse::obs::TraceSpanKind::{self, *};
    use std::collections::BTreeMap;

    let params = gauss_seidel::GaussSeidelParams::paper(48);
    let program =
        DseProgram::new(Platform::sunos_sparc()).with_config(DseConfig::paper().with_tracing(true));
    let (sim, _) = gauss_seidel::solve_parallel(&program, 4, params);
    let live = LiveRunner::new(4)
        .transport(TransportKind::Channel)
        .tracing(true)
        .try_run(|ctx| {
            gauss_seidel::body(ctx, &params);
        })
        .expect("live run completes");

    type Counts = BTreeMap<(u32, TraceSpanKind), usize>;
    let counts = |trace_spans: &[Vec<dse::obs::TraceSpanRec>]| -> Counts {
        let canonical = dse_trace::assemble(trace_spans).canonical();
        let mut counts = Counts::new();
        for s in canonical.spans() {
            *counts.entry((s.pe, s.kind)).or_default() += 1;
        }
        counts
    };
    let (sim_counts, live_counts) = (counts(&sim.trace_spans), counts(&live.trace_spans));
    let of = |counts: &Counts, pe, kind| counts.get(&(pe, kind)).copied().unwrap_or(0);

    for pe in 0..4 {
        // Synchronization is the program's: one wait per barrier the rank
        // entered, on PE 0 one release per round, and no lock taken. Node
        // 0's application enters a barrier through the linked library on
        // the simulator and through its own kernel's inbox live, and does
        // its kernel's duty itself in the first case — the spans are the
        // same ones either way.
        for kind in [App, BarrierWait, BarrierRelease, LockWait, LockGrant] {
            let (s, l) = (of(&sim_counts, pe, kind), of(&live_counts, pe, kind));
            assert_eq!(s, l, "pe{pe} {kind:?}: sim {s}, live {l}");
        }
        assert_eq!(of(&sim_counts, pe, App), 1);
        assert!(of(&sim_counts, pe, BarrierWait) > 0);
        let rounds = if pe == 0 {
            of(&sim_counts, 0, BarrierWait)
        } else {
            0
        };
        assert_eq!(of(&sim_counts, pe, BarrierRelease), rounds, "pe{pe}");

        // Every request message is one gm_req span, redeemed once where it
        // was sent; the shared GmClient sends the same ones on both engines.
        let sent = |counter: Option<u64>| counter.unwrap_or(0) as usize;
        let sim_sent = sent(sim.metrics.counter("kernel", "gm_request_msgs", Some(pe)));
        let live_sent = sent(live.metrics.counter("kernel", "gm_request_msgs", Some(pe)));
        for (counts, sent) in [(&sim_counts, sim_sent), (&live_counts, live_sent)] {
            assert_eq!(of(counts, pe, GmReq), sent, "pe{pe}");
            assert_eq!(of(counts, pe, Redeem), sent, "pe{pe}");
        }
        assert_eq!(sim_sent, live_sent, "pe{pe}");
        assert!(sim_sent > 0, "pe{pe} reads its neighbours' rows");
        assert_eq!(of(&sim_counts, pe, Serve), of(&live_counts, pe, Serve));
    }
    // ... and served once at its home.
    for counts in [&sim_counts, &live_counts] {
        let total = |kind| (0..4).map(|pe| of(counts, pe, kind)).sum::<usize>();
        assert_eq!(total(Serve), total(GmReq));
    }
    // What the canonical form keeps is the same set of kinds: a blocking
    // wait per request, nothing retried.
    assert_eq!(
        sim_counts.keys().collect::<Vec<_>>(),
        live_counts.keys().collect::<Vec<_>>()
    );
    assert_eq!(sim_counts, live_counts);
}

/// A fifth: both engines count into one store through one mapping, so on
/// an uncached cell every PE's global-memory and barrier counters are the
/// program's, not the engine's.
#[test]
fn gauss_seidel_counts_the_same_on_both_engines() {
    let params = gauss_seidel::GaussSeidelParams::paper(48);
    let program = DseProgram::new(Platform::sunos_sparc());
    let (sim, _) = gauss_seidel::solve_parallel(&program, 4, params);
    let live = LiveRunner::new(4)
        .transport(TransportKind::Channel)
        .run(|ctx| {
            gauss_seidel::body(ctx, &params);
        });
    for pe in 0..4 {
        for name in [
            "gm_local_reads",
            "gm_remote_reads",
            "gm_local_writes",
            "gm_remote_writes",
            "gm_bytes_read",
            "gm_bytes_written",
            "barrier_epochs",
        ] {
            let sim_n = sim.metrics.counter("kernel", name, Some(pe));
            let live_n = live.metrics.counter("kernel", name, Some(pe));
            assert_eq!(sim_n, live_n, "pe{pe} {name}");
        }
    }
    let total = |name| sim.metrics.counter_sum_over_pes("kernel", name);
    assert!(total("gm_local_reads") > 0 && total("gm_remote_reads") > 0);
    assert!(total("gm_local_writes") > 0 && total("barrier_epochs") > 0);
}

/// A remote fetch-add is a request like any other on both engines: one
/// `gm_request_msgs` on the PE that sent it, one `fetch_adds` at its home.
#[test]
fn a_remote_fetch_add_is_one_request_on_both_engines() {
    fn body(ctx: &mut impl ParallelApi) {
        // One cell per PE: PE 1 adds to PE 0's.
        let cell = ctx.gm_alloc(16, Distribution::Blocked);
        ctx.barrier();
        if ctx.rank() == 1 {
            assert_eq!(ctx.gm_fetch_add(cell, 0, 5), 0);
        }
        ctx.barrier();
    }
    let sim = DseProgram::new(Platform::sunos_sparc()).run(2, |ctx| body(ctx));
    let live = LiveRunner::new(2).run(body);
    for pe in 0..2 {
        for name in ["gm_request_msgs", "fetch_adds"] {
            let sim_n = sim.metrics.counter("kernel", name, Some(pe));
            let live_n = live.metrics.counter("kernel", name, Some(pe));
            let want = (pe == 1 && name == "gm_request_msgs") || (pe == 0 && name == "fetch_adds");
            assert_eq!(sim_n, Some(want as u64), "pe{pe} {name}");
            assert_eq!(sim_n, live_n, "pe{pe} {name}");
        }
    }
}

/// The synchronization counters of every app, as cluster totals. The apps
/// that use atomics hand out jobs through a shared counter, so which rank
/// takes which job, and with it most per-PE counts, depends on timing: only
/// totals are the program's. (No app takes a lock; both engines must say
/// so.)
#[test]
fn every_app_counts_the_same_synchronization_on_both_engines() {
    use dse::apps::matmul;
    use dse::obs::MetricsSnapshot;

    fn totals(metrics: &MetricsSnapshot) -> [u64; 3] {
        ["fetch_adds", "barrier_epochs", "lock_grants"]
            .map(|name| metrics.counter_sum_over_pes("kernel", name))
    }
    fn live(nprocs: usize, body: impl Fn(&mut dse::live::LiveCtx) + Send + Sync) -> [u64; 3] {
        totals(&LiveRunner::new(nprocs).run(body).metrics)
    }
    let program = DseProgram::new(Platform::sunos_sparc());

    let gs = gauss_seidel::GaussSeidelParams::paper(48);
    let (sim, _) = gauss_seidel::solve_parallel(&program, 3, gs);
    let gauss = live(3, |ctx| {
        gauss_seidel::body(ctx, &gs);
    });
    assert_eq!(totals(&sim.metrics), gauss, "gauss");

    let dp = dct::DctParams {
        size: 64,
        block: 8,
        keep: 0.25,
        seed: 3,
    };
    let (sim, _) = dct::compress_parallel(&program, 4, dp);
    assert_eq!(
        totals(&sim.metrics),
        live(4, |ctx| {
            dct::body(ctx, &dp);
        }),
        "dct"
    );

    let op = othello::OthelloParams::paper(3);
    let (sim, _) = othello::search_parallel(&program, 3, op);
    assert_eq!(
        totals(&sim.metrics),
        live(3, |ctx| {
            othello::body(ctx, &op);
        }),
        "othello"
    );

    let kp = knights::KnightsParams::paper(16);
    let (sim, _) = knights::count_parallel(&program, 4, kp);
    let knights = live(4, |ctx| {
        knights::body(ctx, &kp);
    });
    assert_eq!(totals(&sim.metrics), knights, "knights");

    let mp = matmul::MatmulParams::single(16);
    let (sim, _) = matmul::multiply_parallel(&program, 3, mp);
    assert_eq!(
        totals(&sim.metrics),
        live(3, |ctx| {
            matmul::body(ctx, &mp);
        }),
        "matmul"
    );

    assert!(gauss[1] > 0, "gauss synchronizes with barriers");
    assert!(knights[0] > 0, "knights takes jobs with fetch-adds");
}

/// A sixth: the requester's series are recorded once, in the shared client,
/// against each engine's clock, so both engines keep the same series with
/// one sample per request, atomic on the wire and barrier wait, and one
/// `kernel/gm_ops` per entry-point call. Gauss-Seidel uncached blocks on
/// every refresh and is compared PE by PE. DCT hands out strips of an image
/// node 0 holds with fetch-adds, so which rank takes which strip is timing:
/// its totals are compared, and per PE the samples must be one per request.
#[test]
fn requester_series_are_the_same_on_both_engines() {
    use dse::obs::MetricsSnapshot;
    use std::collections::BTreeMap;

    const NPROCS: usize = 4;
    /// The `gm/*` and `sync/*` histograms of PE `pe` (all PEs for `None`),
    /// with their sample counts, and its `kernel/gm_ops`.
    fn series(metrics: &MetricsSnapshot, pe: Option<u32>) -> BTreeMap<&str, u64> {
        let mut out = BTreeMap::new();
        for (k, h) in &metrics.histograms {
            if pe.is_none_or(|pe| k.pe == Some(pe)) && matches!(k.subsystem, "gm" | "sync") {
                *out.entry(k.name).or_default() += h.count();
            }
        }
        out.insert(
            "gm_ops",
            match pe {
                Some(pe) => metrics.counter("kernel", "gm_ops", Some(pe)).unwrap_or(0),
                None => metrics.counter_sum_over_pes("kernel", "gm_ops"),
            },
        );
        out
    }
    let program = DseProgram::new(Platform::sunos_sparc());

    let gs = gauss_seidel::GaussSeidelParams::paper(48);
    let (sim, _) = gauss_seidel::solve_parallel(&program, NPROCS, gs);
    let live = LiveRunner::new(NPROCS).run(|ctx| {
        gauss_seidel::body(ctx, &gs);
    });
    for pe in 0..NPROCS as u32 {
        let (s, l) = (
            series(&sim.metrics, Some(pe)),
            series(&live.metrics, Some(pe)),
        );
        assert!(
            s["blocked_ns"] > 0 && s["remote_read_ns"] > 0,
            "pe{pe}: {s:?}"
        );
        assert_eq!(s.keys().collect::<Vec<_>>(), l.keys().collect::<Vec<_>>());
        for name in ["remote_read_ns", "barrier_wait_ns", "gm_ops"] {
            assert_eq!(s[name], l[name], "gauss pe{pe} {name}");
        }
    }

    let dp = dct::DctParams {
        size: 64,
        block: 8,
        keep: 0.25,
        seed: 3,
    };
    let (sim, _) = dct::compress_parallel(&program, NPROCS, dp);
    let live = LiveRunner::new(NPROCS).run(|ctx| {
        dct::body(ctx, &dp);
    });
    for metrics in [&sim.metrics, &live.metrics] {
        // Node 0's own accesses and atomics are no requests.
        let own = series(metrics, Some(0));
        assert!(["remote_read_ns", "remote_write_ns", "fetch_add_ns"]
            .iter()
            .all(|name| !own.contains_key(name)));
        for pe in 1..NPROCS as u32 {
            // Per strip taken: one fetch-add, one read, one write, each on
            // the wire; then the fetch-add that finds none left.
            let s = series(metrics, Some(pe));
            let at = |name| s.get(name).copied().unwrap_or(0);
            assert_eq!(
                at("fetch_add_ns"),
                at("remote_read_ns") + 1,
                "pe{pe}: {s:?}"
            );
            assert_eq!(at("remote_write_ns"), at("remote_read_ns"), "pe{pe}: {s:?}");
            assert_eq!(at("gm_ops"), 3 * at("remote_read_ns") + 1, "pe{pe}: {s:?}");
            assert!(at("blocked_ns") >= at("fetch_add_ns"), "pe{pe}: {s:?}");
        }
    }
    let (s, l) = (series(&sim.metrics, None), series(&live.metrics, None));
    for name in ["gm_ops", "barrier_wait_ns"] {
        assert_eq!(s[name], l[name], "dct {name}");
    }
}
