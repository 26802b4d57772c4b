//! The requester side of the causal trace is defined once
//! (`RequesterSpans`) and stamped by each engine's port: one scripted
//! program through the simulator's port and through the live engine's must
//! therefore leave the same spans — kinds, ids, parents, peers, `seq` — in
//! everything but their times, one clock being virtual and the other the
//! wall. The home side (`HomeSpans`, derived ids) must agree likewise.
//! What only one engine can have is left out of the comparison: the
//! simulator's `cpu_queue` spans (a live process queues for the host's
//! CPUs, where nothing sees it; their ids are derived, so they move no
//! other span's), as a live run's `retry_backoff` would be.
//!
//! The script keeps to what repeats on real threads: each rank has one
//! request in flight at a time, or one batch to one home, so answers cannot
//! overtake each other.

use std::collections::BTreeSet;

use dse_api::{Distribution, DseConfig, DseProgram, GmArray, GmCounter, ParallelApi, Platform};
use dse_live::{LiveRunner, TransportKind};
use dse_obs::{TraceSpanKind, TraceSpanRec};

const RANKS: usize = 3;
/// Elements each rank homes.
const PER: usize = 16;

/// Every kind of wait the API has, from every rank.
fn script(ctx: &mut impl ParallelApi) {
    let me = ctx.rank() as usize;
    let next = (me + 1) % RANKS;
    let table = GmArray::<u64>::alloc(ctx, RANKS * PER, Distribution::Blocked);
    let tickets = GmCounter::alloc(ctx);
    table.set(ctx, me * PER, me as u64 + 1); // own node: no message
    ctx.barrier();
    // One blocking read and one blocking write, each a request of its own.
    assert_eq!(table.get(ctx, next * PER), next as u64 + 1);
    table.set(ctx, next * PER + 1, 40 + me as u64);
    // Two split-phase reads of one home that do not touch: one batch, and
    // only the first wait blocks.
    let region = table.region();
    let a = ctx.gm_read_nb(region, (next * PER * 8) as u64, 8);
    let b = ctx.gm_read_nb(region, ((next * PER + 4) * 8) as u64, 8);
    assert!(ctx.gm_wait(a).is_some() && ctx.gm_wait(b).is_some());
    // An atomic on a cell node 0 homes, then a contended critical section.
    tickets.next(ctx);
    ctx.lock(7);
    let seen = table.get(ctx, next * PER + 2);
    table.set(ctx, next * PER + 2, seen + 1);
    ctx.unlock(7);
    ctx.barrier();
    assert_eq!(table.get(ctx, next * PER + 1), 40 + me as u64);
}

/// A span without its times.
fn timeless(s: &TraceSpanRec) -> TraceSpanRec {
    TraceSpanRec {
        start_ns: 0,
        end_ns: 0,
        ..*s
    }
}

fn is_kernel_side(s: &TraceSpanRec) -> bool {
    matches!(
        s.kind,
        TraceSpanKind::Serve | TraceSpanKind::BarrierRelease | TraceSpanKind::LockGrant
    )
}

/// One PE's spans as the two engines must agree on them — all but the
/// `cpu_queue` ones: the application's in program order, and the kernel's
/// as a set (which requester a live
/// kernel hears first is timing — and so is whose enter completes a barrier
/// round, which is all a release span's trace, parent and peer say).
type PeSpans = (Vec<TraceSpanRec>, BTreeSet<String>);

fn comparable(trace_spans: &[Vec<TraceSpanRec>]) -> Vec<PeSpans> {
    let of_kernel = |s: &TraceSpanRec| {
        let mut s = timeless(s);
        if s.kind == TraceSpanKind::BarrierRelease {
            (s.trace, s.parent, s.peer) = (0, 0, 0);
        }
        format!("{s:?}")
    };
    trace_spans
        .iter()
        .map(|stream| {
            let shared = stream.iter().filter(|s| s.kind != TraceSpanKind::CpuQueue);
            let (kernel, app): (Vec<_>, Vec<_>) = shared.partition(|s| is_kernel_side(s));
            let app = app.into_iter().map(timeless).collect();
            (app, kernel.into_iter().map(of_kernel).collect())
        })
        .collect()
}

#[test]
fn one_script_leaves_the_same_spans_on_both_engines() {
    let config = DseConfig::paper().with_tracing(true);
    let sim = DseProgram::new(Platform::linux_pentium2())
        .with_config(config)
        .run(RANKS, |ctx| script(ctx));
    let live = LiveRunner::new(RANKS)
        .transport(TransportKind::Channel)
        .tracing(true)
        .try_run(script)
        .expect("live run completes");
    let queued = |run: &[Vec<TraceSpanRec>]| {
        let spans = run.iter().flatten();
        spans.filter(|s| s.kind == TraceSpanKind::CpuQueue).count()
    };
    assert!(
        queued(&sim.trace_spans) > 0,
        "a rank shares a CPU with its kernel"
    );
    assert_eq!(queued(&live.trace_spans), 0);
    let (sim, live) = (comparable(&sim.trace_spans), comparable(&live.trace_spans));
    for (pe, (sim, live)) in sim.iter().zip(&live).enumerate() {
        assert_eq!(sim.0, live.0, "pe{pe}: application spans");
        assert_eq!(sim.1, live.1, "pe{pe}: kernel spans");
    }
    // And the script did leave every kind of span there is to compare.
    let count = |kind| -> usize {
        let of_kind = |s: &&TraceSpanRec| s.kind == kind;
        sim.iter()
            .map(|(app, _)| app.iter().filter(of_kind).count())
            .sum()
    };
    // Per rank: read, write, batch, read, write, read — and the atomic,
    // except on rank 0, which homes it.
    assert_eq!(count(TraceSpanKind::GmReq), 6 * RANKS + (RANKS - 1));
    assert_eq!(count(TraceSpanKind::Redeem), count(TraceSpanKind::GmReq));
    assert_eq!(count(TraceSpanKind::GmBlock), count(TraceSpanKind::GmReq));
    assert_eq!(count(TraceSpanKind::LockWait), RANKS);
    assert_eq!(count(TraceSpanKind::App), RANKS);
    // Two barriers in the script, and the allocations' own.
    assert!(count(TraceSpanKind::BarrierWait) >= 2 * RANKS);
    let kernel_spans: usize = sim.iter().map(|(_, kernel)| kernel.len()).sum();
    let rounds = count(TraceSpanKind::BarrierWait) / RANKS;
    assert_eq!(
        kernel_spans,
        count(TraceSpanKind::GmReq) + RANKS + rounds,
        "a serve per request, a grant per lock wait, a release per round"
    );
}
