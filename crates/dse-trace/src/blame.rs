//! Wall-clock attribution over an assembled cluster trace: the blame
//! table and the cross-PE critical path.
//!
//! The blame table answers "where did each PE's wall clock go" with an
//! accounting that sums to exactly 100% by construction: every app
//! nanosecond is compute unless a recorded wait span covers it, and every
//! GM-wait nanosecond is net transit unless a home's serve span covers it
//! (requests fanned out to several homes are served side by side, so it is
//! the covered time that counts, not the spans' sum) or the requester's
//! retry backoff claims it. Time queued for a CPU (`cpu_queue` spans, the
//! simulator's) is taken out of whichever of compute, serve and net it
//! fell in and shown on its own. The critical path answers "which
//! chain of spans actually bounded the run": starting from the
//! last-finishing PE it walks backwards through wait spans, hopping PEs
//! at barriers (to the straggler that held the round) and at GM waits
//! (through the home kernel's serve span). Both analyses are pure
//! functions of the trace, so the CI determinism smoke can diff their
//! rendered output byte-for-byte, and both read the trace through the
//! index built when it was assembled: one pass over the spans for the
//! table, one look at each wait for the path.

use std::collections::HashMap;
use std::fmt::Write as _;

use dse_obs::{TraceSpanKind, NO_PEER};

use crate::cluster::ClusterTrace;

/// Where one PE's wall clock went, in nanoseconds.
///
/// Invariant:
/// `compute + cpu_queue + serve + net + retry + barrier + lock == wall`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BlameRow {
    /// PE the row describes.
    pub pe: u32,
    /// App-thread lifetime (the root span's duration).
    pub wall_ns: u64,
    /// Time not covered by any wait span, holding the CPU.
    pub compute_ns: u64,
    /// Time queued for a CPU: the process itself outside every wait, and,
    /// inside a GM wait, the process on its receive path or a home kernel
    /// serving it. Always 0 on the live engine, whose CPUs are the host's.
    pub cpu_queue_ns: u64,
    /// GM-wait time during which a home kernel was serving this PE and
    /// nobody was queued.
    pub serve_ns: u64,
    /// GM-wait time in flight on the wire (the unexplained remainder).
    pub net_ns: u64,
    /// GM-wait time spent in retransmit backoff.
    pub retry_ns: u64,
    /// Time blocked in barrier rounds.
    pub barrier_ns: u64,
    /// Time blocked waiting for cluster locks.
    pub lock_ns: u64,
}

impl BlameRow {
    /// Total GM-wait time (serve + net + retry).
    pub fn gm_wait_ns(&self) -> u64 {
        self.serve_ns + self.net_ns + self.retry_ns
    }
}

/// Per-PE blame rows plus the cluster total.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BlameTable {
    /// One row per PE, ascending.
    pub rows: Vec<BlameRow>,
}

impl BlameTable {
    /// Sum of all rows (the cluster-wide attribution).
    pub fn total(&self) -> BlameRow {
        let mut t = BlameRow::default();
        for r in &self.rows {
            t.wall_ns += r.wall_ns;
            t.compute_ns += r.compute_ns;
            t.cpu_queue_ns += r.cpu_queue_ns;
            t.serve_ns += r.serve_ns;
            t.net_ns += r.net_ns;
            t.retry_ns += r.retry_ns;
            t.barrier_ns += r.barrier_ns;
            t.lock_ns += r.lock_ns;
        }
        t
    }

    /// Render as a fixed-width ASCII table (percentages of each row's
    /// wall clock; deterministic bytes for deterministic inputs).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "pe    wall_us   compute%    queue%    serve%      net%    retry%  barrier%     lock%\n",
        );
        let mut line = |tag: &str, r: &BlameRow| {
            let pct = |v: u64| {
                if r.wall_ns == 0 {
                    0.0
                } else {
                    v as f64 * 100.0 / r.wall_ns as f64
                }
            };
            let _ = writeln!(
                out,
                "{tag:<4}{:>10.1}{:>10.1}{:>10.1}{:>10.1}{:>10.1}{:>10.1}{:>10.1}{:>10.1}",
                r.wall_ns as f64 / 1_000.0,
                pct(r.compute_ns),
                pct(r.cpu_queue_ns),
                pct(r.serve_ns),
                pct(r.net_ns),
                pct(r.retry_ns),
                pct(r.barrier_ns),
                pct(r.lock_ns),
            );
        };
        for r in &self.rows {
            line(&r.pe.to_string(), r);
        }
        line("all", &self.total());
        out
    }
}

/// Attribute every PE's wall clock across compute / CPU queue / serve /
/// net / retry / barrier / lock. See [`BlameRow`] for the exact invariant.
pub fn blame(trace: &ClusterTrace) -> BlameTable {
    /// What one PE's row is computed from.
    #[derive(Default, Clone)]
    struct Waits {
        barrier: u64,
        lock: u64,
        retry: u64,
        /// When the app was blocked on GM completions.
        blocks: Vec<(u64, u64)>,
        /// When some home kernel was serving one of its requests.
        serves: Vec<(u64, u64)>,
        /// When the app was in a barrier or lock wait.
        syncs: Vec<(u64, u64)>,
        /// When the app itself was queued for its CPU.
        own_queue: Vec<(u64, u64)>,
        /// When a home kernel working for it was queued for its CPU.
        home_queue: Vec<(u64, u64)>,
    }
    let mut waits = vec![Waits::default(); trace.nprocs];
    for s in trace.spans() {
        // A serve, or a kernel's queueing, counts for the PE it was for,
        // the rest for their own.
        let pe = match s.kind {
            TraceSpanKind::Serve => s.peer,
            TraceSpanKind::CpuQueue if s.peer != NO_PEER => s.peer,
            _ => s.pe,
        };
        let Some(w) = waits.get_mut(pe as usize) else {
            continue;
        };
        // (An interval is never negative, whatever a clock did.)
        let interval = (s.start_ns, s.end_ns.max(s.start_ns));
        match s.kind {
            TraceSpanKind::BarrierWait => {
                w.barrier += s.dur_ns();
                w.syncs.push(interval);
            }
            TraceSpanKind::LockWait => {
                w.lock += s.dur_ns();
                w.syncs.push(interval);
            }
            TraceSpanKind::CpuQueue if s.peer == NO_PEER => w.own_queue.push(interval),
            TraceSpanKind::CpuQueue => w.home_queue.push(interval),
            TraceSpanKind::RetryBackoff => w.retry += s.dur_ns(),
            TraceSpanKind::GmBlock => w.blocks.push(interval),
            TraceSpanKind::Serve if !s.dedup => w.serves.push(interval),
            _ => {}
        }
    }
    let mut rows = Vec::new();
    for (pe, w) in (0..trace.nprocs as u32).zip(waits) {
        let Some(app) = trace.app_span(pe) else {
            continue;
        };
        let wall = app.dur_ns();
        let (blocks, serves) = (union(w.blocks), union(w.serves));
        // Clamp in sequence so the row always accounts for exactly the
        // wall clock even if a clock hiccup over-reports a wait.
        let barrier = w.barrier.min(wall);
        let lock = w.lock.min(wall - barrier);
        let gm = measure(&blocks).min(wall - barrier - lock);
        let compute = wall - barrier - lock - gm;
        // Inside the GM wait: the time a home was serving (spans at other
        // PEs naming this PE as the requester), then local retry backoff,
        // then whatever is left was wire transit + kernel queueing.
        let served = intersect(&blocks, &serves);
        let serve = measure(&served).min(gm);
        let retry = w.retry.min(gm - serve);
        let net = gm - serve - retry;
        // Queued for a CPU, each nanosecond once whoever queued. Under a
        // serve it was the home kernel or the requester's own receive
        // path, and comes out of serve; in the rest of a GM wait only the
        // requester's own counts, and comes out of net; outside every wait
        // the process was queued where it would have computed. (A barrier
        // or lock wait keeps what was queued inside it.)
        let own = union(w.own_queue);
        let any = union([own.as_slice(), &w.home_queue].concat());
        let q_serve = overlap(&served, &any).min(serve);
        let q_net = (overlap(&blocks, &own) - overlap(&served, &own)).min(net);
        let waits = union([blocks, w.syncs].concat());
        let q_compute = (measure(&own) - overlap(&waits, &own)).min(compute);
        rows.push(BlameRow {
            pe,
            wall_ns: wall,
            compute_ns: compute - q_compute,
            cpu_queue_ns: q_compute + q_serve + q_net,
            serve_ns: serve - q_serve,
            net_ns: net - q_net,
            retry_ns: retry,
            barrier_ns: barrier,
            lock_ns: lock,
        });
    }
    BlameTable { rows }
}

/// The intervals of `spans` merged into disjoint ones, in time order.
fn union(mut spans: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    spans.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(spans.len());
    for (start, end) in spans {
        match out.last_mut() {
            Some(last) if start <= last.1 => last.1 = last.1.max(end),
            _ => out.push((start, end)),
        }
    }
    out
}

/// Total length of disjoint intervals.
fn measure(disjoint: &[(u64, u64)]) -> u64 {
    disjoint.iter().map(|(start, end)| end - start).sum()
}

/// What two sets of disjoint, ordered intervals have in common, as such a
/// set.
fn intersect(a: &[(u64, u64)], b: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let (mut i, mut j, mut out) = (0, 0, Vec::new());
    while let (Some(x), Some(y)) = (a.get(i), b.get(j)) {
        let (start, end) = (x.0.max(y.0), x.1.min(y.1));
        if start < end {
            out.push((start, end));
        }
        if x.1 <= y.1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    out
}

/// Time two sets of disjoint, ordered intervals have in common.
fn overlap(a: &[(u64, u64)], b: &[(u64, u64)]) -> u64 {
    measure(&intersect(a, b))
}

/// One hop of the critical path, chronological.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathStep {
    /// PE the time was spent on.
    pub pe: u32,
    /// What the time was (`compute`, `serve`, `net`, a wait label, ...).
    pub what: &'static str,
    /// Step start, engine clock (ns).
    pub start_ns: u64,
    /// Step end, engine clock (ns).
    pub end_ns: u64,
    /// Correlation id of the span behind the step (0 = none).
    pub seq: u64,
}

impl PathStep {
    /// Step duration.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The chain of spans that bounded the run end-to-end.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CriticalPath {
    /// Steps in chronological order.
    pub steps: Vec<PathStep>,
}

impl CriticalPath {
    /// Total time covered by the path.
    pub fn total_ns(&self) -> u64 {
        self.steps.iter().map(|s| s.dur_ns()).sum()
    }

    /// Per-label totals, in first-appearance order.
    pub fn totals(&self) -> Vec<(&'static str, u64)> {
        let mut order: Vec<&'static str> = Vec::new();
        let mut acc: HashMap<&'static str, u64> = HashMap::new();
        for s in &self.steps {
            if !acc.contains_key(s.what) {
                order.push(s.what);
            }
            *acc.entry(s.what).or_insert(0) += s.dur_ns();
        }
        order.into_iter().map(|w| (w, acc[w])).collect()
    }

    /// Render the path (last `max_steps` hops) plus the per-label rollup.
    pub fn render(&self, max_steps: usize) -> String {
        let mut out = String::new();
        let total = self.total_ns().max(1);
        out.push_str("critical path (chronological):\n");
        let skip = self.steps.len().saturating_sub(max_steps);
        if skip > 0 {
            let _ = writeln!(out, "  ... {skip} earlier steps elided ...");
        }
        for s in &self.steps[skip..] {
            let _ = writeln!(
                out,
                "  pe{:<3} {:<14} {:>12} ns  seq={}",
                s.pe,
                s.what,
                s.dur_ns(),
                s.seq
            );
        }
        out.push_str("by kind:\n");
        for (what, ns) in self.totals() {
            let _ = writeln!(
                out,
                "  {:<14} {:>12} ns {:>6.1}%",
                what,
                ns,
                ns as f64 * 100.0 / total as f64
            );
        }
        out
    }
}

/// Walk the critical path of an assembled trace.
///
/// Start from the app span that finished last, then repeatedly: attribute
/// the gap back to the previous wait on the current PE as compute, then
/// explain the wait — a barrier hops to the straggler whose late arrival
/// released the round, a GM wait routes through the home kernel's serve
/// span (net → serve → net), a lock charges the coordinator's grant. Ties
/// break on `(end, start, span)` so equal traces yield equal paths.
///
/// The walk only moves back in time, so each PE's waits are taken off the
/// end of its list: one the cursor has passed, or that was just explained,
/// is never looked at again — a zero-length wait, routine on a virtual
/// clock, is one step like any other.
pub fn critical_path(trace: &ClusterTrace) -> CriticalPath {
    let mut rev: Vec<PathStep> = Vec::new();
    let apps = (0..trace.nprocs as u32).filter_map(|pe| trace.app_span(pe));
    let Some(root) = apps.max_by_key(|s| (s.end_ns, s.pe)) else {
        return CriticalPath::default();
    };
    let mut waits: Vec<_> = (0..trace.nprocs as u32)
        .map(|pe| trace.waits_of(pe).rev().peekable())
        .collect();
    let mut step = |pe, what, start_ns, end_ns, seq| {
        rev.push(PathStep {
            pe,
            what,
            start_ns,
            end_ns,
            seq,
        })
    };
    let mut pe = root.pe;
    let mut cursor = root.end_ns;
    loop {
        let floor = trace.app_span(pe).map_or(0, |a| a.start_ns);
        let mine = &mut waits[pe as usize];
        while mine
            .peek()
            .is_some_and(|w| w.end_ns > cursor || w.start_ns < floor)
        {
            mine.next();
        }
        let Some(w) = mine.next() else {
            step(pe, "compute", floor.min(cursor), cursor, 0);
            break;
        };
        if cursor > w.end_ns {
            step(pe, "compute", w.end_ns, cursor, 0);
        }
        cursor = w.start_ns;
        match w.kind {
            TraceSpanKind::BarrierWait => {
                step(pe, "barrier_wait", w.start_ns, w.end_ns, w.seq);
                // The round ended when its last waiter arrived: jump to
                // that PE at its arrival time.
                if let Some(s2) = trace.straggler_of(w.seq) {
                    if s2.pe != pe && s2.start_ns < w.end_ns {
                        (pe, cursor) = (s2.pe, s2.start_ns);
                    }
                }
            }
            // Route the wait through the home's serve span when the chain
            // linked: net out, serve, net back.
            TraceSpanKind::GmBlock => match trace.serve_inside(pe, w) {
                Some(sv) => {
                    step(pe, "net", sv.end_ns, w.end_ns, sv.seq);
                    step(sv.pe, "serve", sv.start_ns, sv.end_ns, sv.seq);
                    step(pe, "net", w.start_ns, sv.start_ns, sv.seq);
                }
                None => step(pe, "gm_wait", w.start_ns, w.end_ns, w.seq),
            },
            _ => step(pe, "lock_wait", w.start_ns, w.end_ns, w.seq),
        }
        let floor = trace.app_span(pe).map_or(0, |a| a.start_ns);
        if cursor <= floor {
            break;
        }
    }
    rev.reverse();
    CriticalPath { steps: rev }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::assemble;
    use dse_obs::serve_span_id;
    use dse_obs::TraceSpanRec;

    fn rec(
        kind: TraceSpanKind,
        trace: u64,
        id: u64,
        parent: u64,
        pe: u32,
        start: u64,
        end: u64,
    ) -> TraceSpanRec {
        TraceSpanRec::new(kind, trace, id, parent, pe, start, end)
    }

    /// Two PEs: PE0 computes 0..100, blocks on GM 100..200 (serve on PE1
    /// 130..170), computes 200..300, barrier-waits 300..400. PE1 computes
    /// 0..390 (the straggler), barrier-waits 390..400.
    fn two_pe_trace() -> ClusterTrace {
        let mut pe0 = vec![rec(TraceSpanKind::App, 1, 1, 0, 0, 0, 400)];
        let mut req = rec(TraceSpanKind::GmReq, 1, 2, 1, 0, 100, 200);
        req.seq = 5;
        req.peer = 1;
        pe0.push(req);
        let mut blk = rec(TraceSpanKind::GmBlock, 1, 3, 1, 0, 100, 200);
        blk.seq = 5;
        pe0.push(blk);
        let sid = serve_span_id(2, 0);
        let mut rdm = rec(TraceSpanKind::Redeem, 1, 4, sid, 0, 195, 200);
        rdm.seq = 5;
        pe0.push(rdm);
        let mut bw0 = rec(TraceSpanKind::BarrierWait, 1, 5, 1, 0, 300, 400);
        bw0.seq = 11;
        pe0.push(bw0);

        let mut pe1 = vec![rec(TraceSpanKind::App, 10, 10, 0, 1, 0, 400)];
        let mut sv = rec(TraceSpanKind::Serve, 1, sid, 2, 1, 130, 170);
        sv.peer = 0;
        sv.seq = 5;
        pe1.push(sv);
        let mut bw1 = rec(TraceSpanKind::BarrierWait, 10, 11, 10, 1, 390, 400);
        bw1.seq = 11;
        pe1.push(bw1);
        let mut rel = rec(TraceSpanKind::BarrierRelease, 10, 12, 11, 0, 300, 400);
        rel.seq = 11;
        pe1.push(rel);
        assemble(&[pe0, pe1])
    }

    /// The columns of `r`, which must add up to its wall clock.
    fn columns_sum(r: &BlameRow) -> u64 {
        let waits = r.serve_ns + r.net_ns + r.retry_ns + r.barrier_ns + r.lock_ns;
        r.compute_ns + r.cpu_queue_ns + waits
    }

    #[test]
    fn blame_accounts_for_every_nanosecond() {
        let t = two_pe_trace();
        let b = blame(&t);
        assert_eq!(b.rows.len(), 2);
        for r in &b.rows {
            assert_eq!(columns_sum(r), r.wall_ns, "pe{}'s whole wall clock", r.pe);
            assert_eq!(r.cpu_queue_ns, 0, "a live-shaped trace has no CPU queue");
        }
        let r0 = &b.rows[0];
        assert_eq!(r0.wall_ns, 400);
        assert_eq!(r0.barrier_ns, 100);
        assert_eq!(r0.serve_ns, 40, "PE1's serve span claims 40ns");
        assert_eq!(r0.net_ns, 60, "the rest of the block is transit");
        assert_eq!(r0.compute_ns, 200);
        let r1 = &b.rows[1];
        assert_eq!(r1.compute_ns, 390);
        assert_eq!(r1.barrier_ns, 10);
        let table = b.render();
        assert!(table.starts_with("pe "), "{table}");
        assert!(table.contains("all"), "{table}");
    }

    #[test]
    fn serve_is_the_time_a_home_was_serving_not_the_sum_of_the_spans() {
        // PE0 blocks 100..200 on a read fanned out to PEs 1 and 2, which
        // serve it side by side (120..160 and 140..180); a third serve,
        // 250..290, answers a split-phase request PE0 never waited for.
        let mut pe0 = vec![rec(TraceSpanKind::App, 1, 1, 0, 0, 0, 300)];
        pe0.push(rec(TraceSpanKind::GmBlock, 1, 2, 1, 0, 100, 200));
        let serve = |id, pe, start, end| {
            let mut sv = rec(TraceSpanKind::Serve, 1, id, 1, pe, start, end);
            sv.peer = 0;
            sv
        };
        let pe1 = vec![serve(10, 1, 120, 160), serve(12, 1, 250, 290)];
        let pe2 = vec![serve(11, 2, 140, 180)];
        let r0 = blame(&assemble(&[pe0, pe1, pe2])).rows[0];
        assert_eq!((r0.serve_ns, r0.net_ns, r0.compute_ns), (60, 40, 200));
    }

    /// `two_pe_trace` as the simulator records it: PE0 also queued for its
    /// CPU 20..50 (computing), 120..135 under no serve and 160..180 across
    /// the serve's end (its receive path, inside the GM wait) and 310..330
    /// (inside the barrier wait); PE1's kernel queued 125..150 serving
    /// PE0, and 250..260 doing so when PE0 was not waiting.
    fn queued_trace() -> ClusterTrace {
        let mut spans = two_pe_trace().spans().to_vec();
        let mut id = 100;
        let mut queue = |pe, peer, start, end| {
            id += 1;
            let mut q = rec(TraceSpanKind::CpuQueue, 1, id, 1, pe, start, end);
            q.peer = peer;
            spans.push(q);
        };
        for (start, end) in [(20, 50), (120, 135), (160, 180), (310, 330)] {
            queue(0, NO_PEER, start, end);
        }
        queue(1, 0, 125, 150);
        queue(1, 0, 250, 260);
        ClusterTrace::build(spans, 2)
    }

    #[test]
    fn cpu_queue_comes_out_of_where_it_fell_and_rows_still_sum_to_wall() {
        let (plain, queued) = (blame(&two_pe_trace()), blame(&queued_trace()));
        for (p, q) in plain.rows.iter().zip(&queued.rows) {
            assert_eq!(columns_sum(q), q.wall_ns);
            assert_eq!(
                (q.barrier_ns, q.lock_ns, q.retry_ns),
                (p.barrier_ns, p.lock_ns, p.retry_ns)
            );
        }
        let r0 = queued.rows[0];
        // Compute 200 less 20..50. Serve 130..170 less the kernel's
        // 130..150 — of which PE0 itself was queued 130..135 too: a union,
        // counted once — and PE0's own 160..170. Net 100..130 + 170..200
        // less PE0's own 120..130 and 170..180 — the kernel's 125..130,
        // before the request arrived, is not PE0's.
        assert_eq!((r0.compute_ns, r0.serve_ns, r0.net_ns), (170, 10, 40));
        assert_eq!(r0.cpu_queue_ns, 30 + 30 + 20);
        assert_eq!(queued.rows[1], plain.rows[1], "PE1's app never queued");
        assert!(queued.render().contains("queue%"));
    }

    #[test]
    fn critical_path_hops_to_the_straggler_and_through_the_serve() {
        let t = two_pe_trace();
        let p = critical_path(&t);
        // Last finisher is PE1 (tie on end, max pe). PE1's wait starts at
        // 390 after pure compute: the path should be pe1 compute then the
        // final barrier wait — no hop back to PE0.
        let labels: Vec<(u32, &str)> = p.steps.iter().map(|s| (s.pe, s.what)).collect();
        assert_eq!(
            labels,
            vec![(1, "compute"), (1, "barrier_wait")],
            "{:?}",
            p.steps
        );
        assert_eq!(p.steps[0].dur_ns(), 390);
        // Remove PE1's straggler wait: now PE0 finishes last and its path
        // routes through the GM serve on PE1.
        let mut spans = t.spans().to_vec();
        spans.retain(|s| !(s.kind == TraceSpanKind::BarrierWait && s.pe == 1));
        spans.retain(|s| !(s.kind == TraceSpanKind::App && s.pe == 1));
        let t2 = ClusterTrace::build(spans, 2);
        let p2 = critical_path(&t2);
        let labels: Vec<(u32, &str)> = p2.steps.iter().map(|s| (s.pe, s.what)).collect();
        assert_eq!(
            labels,
            vec![
                (0, "compute"),
                (0, "net"),
                (1, "serve"),
                (0, "net"),
                (0, "compute"),
                (0, "barrier_wait"),
            ],
            "{:?}",
            p2.steps
        );
        assert_eq!(p2.total_ns(), 400, "path covers the whole run");
        let rendered = p2.render(10);
        assert!(rendered.contains("critical path"), "{rendered}");
        assert!(rendered.contains("serve"), "{rendered}");
    }

    /// One PE whose app span is `0..end` and whose GM blocks are `waits`.
    fn one_pe_trace(end: u64, waits: impl Iterator<Item = (u64, u64)>) -> ClusterTrace {
        let mut pe0 = vec![rec(TraceSpanKind::App, 1, 1, 0, 0, 0, end)];
        for (i, (from, to)) in waits.enumerate() {
            pe0.push(rec(TraceSpanKind::GmBlock, 1, 2 + i as u64, 1, 0, from, to));
        }
        assemble(&[pe0])
    }

    #[test]
    fn a_zero_length_wait_is_one_step() {
        // An answer that was already there: the wait begins and ends at
        // the same instant of a virtual clock. The walk must move past it.
        let p = critical_path(&one_pe_trace(100, [(50, 50)].into_iter()));
        let steps: Vec<_> = p
            .steps
            .iter()
            .map(|s| (s.what, s.start_ns, s.end_ns))
            .collect();
        assert_eq!(
            steps,
            [
                ("compute", 0, 50),
                ("gm_wait", 50, 50),
                ("compute", 50, 100)
            ]
        );
        // Two at one instant are two steps, each taken once.
        let p = critical_path(&one_pe_trace(100, [(50, 50), (50, 50)].into_iter()));
        let whats: Vec<_> = p.steps.iter().map(|s| s.what).collect();
        assert_eq!(whats, ["compute", "gm_wait", "gm_wait", "compute"]);
    }

    #[test]
    fn the_path_is_linear_in_the_waits_it_explains() {
        // n waits of 4 ns, 10 ns apart: compute, then wait and compute n
        // times over.
        let n = 50_000u64;
        let t = one_pe_trace(10 * n + 10, (0..n).map(|i| (10 * i + 3, 10 * i + 7)));
        let p = critical_path(&t);
        assert_eq!(p.steps.len() as u64, 2 * n + 1);
        assert_eq!(p.total_ns(), 10 * n + 10, "the path covers the whole run");
        assert_eq!(blame(&t).rows[0].net_ns, 4 * n);
    }

    #[test]
    fn render_caps_steps_but_keeps_totals() {
        let t = two_pe_trace();
        let p = critical_path(&t);
        let r = p.render(1);
        assert!(r.contains("elided"), "{r}");
        assert!(r.contains("by kind:"), "{r}");
    }
}
