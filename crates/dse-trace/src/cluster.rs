//! Cross-PE trace assembly: merge per-PE causal span streams into one
//! cluster-wide trace.
//!
//! Each PE of a traced run — live or simulated — yields the spans its
//! application and its kernel recorded (`dse_obs::TraceRecorder`) as one
//! stream. Alone, a stream only shows what *that* PE did; the causality
//! lives in the ids that travelled beside the messages (the frame
//! trace-context extension live, a field of the simulator's envelope).
//! [`assemble`] merges the streams, indexes the id graph once, and measures
//! how well the run linked up ([`LinkStats`]); the blame/critical-path
//! analyses and the Chrome flow export all work on the assembled
//! [`ClusterTrace`] through that index, so none of them rescans the trace
//! per span.
//!
//! The assembled span order is a deterministic function of the span set
//! (sort by `(trace, start, end, pe, span)`), never of arrival order, so
//! identical runs assemble to identical traces. For byte-level diffing
//! across *re-executions* — where wall-clock timestamps and response
//! arrival order differ — [`ClusterTrace::canonical`] strips the
//! nondeterminism: timestamps collapse to unit durations, replayed serves,
//! retry and CPU-queue spans drop out, and every span id is renumbered in canonical
//! order (redeem-span ids mint in response-arrival order, so raw ids
//! differ run to run even when the span set does not).

use std::collections::HashMap;
use std::fs;
use std::path::Path;

use dse_obs::{parse_trace_jsonl, serve_span_id, TraceSpanKind, TraceSpanRec};

/// File name of PE `pe`'s stream inside a trace directory.
pub fn trace_file_name(pe: u32) -> String {
    format!("pe{pe}.trace.jsonl")
}

/// Write one stream per PE into `dir` (created if missing).
pub fn write_trace_dir(dir: &Path, per_pe: &[Vec<TraceSpanRec>]) -> Result<(), String> {
    fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    for (pe, spans) in per_pe.iter().enumerate() {
        let mut out = String::new();
        for s in spans {
            s.write_jsonl(&mut out);
        }
        let path = dir.join(trace_file_name(pe as u32));
        fs::write(&path, out).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(())
}

/// Load every `pe*.trace.jsonl` stream from `dir`, indexed by PE.
pub fn load_trace_dir(dir: &Path) -> Result<Vec<Vec<TraceSpanRec>>, String> {
    let mut streams: Vec<(u32, Vec<TraceSpanRec>)> = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read {}: {e}", dir.display()))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let Some(pe) = name
            .strip_prefix("pe")
            .and_then(|r| r.strip_suffix(".trace.jsonl"))
            .and_then(|n| n.parse::<u32>().ok())
        else {
            continue;
        };
        let text = fs::read_to_string(entry.path())
            .map_err(|e| format!("read {}: {e}", entry.path().display()))?;
        let spans = parse_trace_jsonl(&text).map_err(|e| format!("{name}: {e}"))?;
        streams.push((pe, spans));
    }
    if streams.is_empty() {
        return Err(format!("no pe*.trace.jsonl streams in {}", dir.display()));
    }
    streams.sort_by_key(|(pe, _)| *pe);
    let nprocs = streams.last().unwrap().0 as usize + 1;
    let mut per_pe = vec![Vec::new(); nprocs];
    for (pe, spans) in streams {
        per_pe[pe as usize] = spans;
    }
    Ok(per_pe)
}

/// How completely the causal graph linked up, per [`assemble`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkStats {
    /// GM request spans in the trace.
    pub gm_reqs: usize,
    /// Requests whose full requester → home serve → requester redeem
    /// chain is present.
    pub gm_linked: usize,
    /// Barrier wait spans with a matching release span.
    pub barrier_linked: usize,
    /// Barrier wait spans total.
    pub barrier_waits: usize,
    /// Lock wait spans with a matching grant span.
    pub lock_linked: usize,
    /// Lock wait spans total.
    pub lock_waits: usize,
}

impl LinkStats {
    /// Linked fraction of GM request chains (1.0 when there were none).
    pub fn gm_link_ratio(&self) -> f64 {
        if self.gm_reqs == 0 {
            1.0
        } else {
            self.gm_linked as f64 / self.gm_reqs as f64
        }
    }
}

/// True for the spans an application thread spends blocked.
pub(crate) fn is_wait(kind: TraceSpanKind) -> bool {
    matches!(
        kind,
        TraceSpanKind::BarrierWait | TraceSpanKind::LockWait | TraceSpanKind::GmBlock
    )
}

/// Positions into a trace's spans, built once when it is assembled. Where
/// several spans answer one key the first in assembled order is kept.
#[derive(Debug, Clone, Default)]
struct Index {
    /// Root app span of each PE.
    app: Vec<Option<usize>>,
    /// Each PE's wait spans, ordered by `(end, start, span)`.
    waits: Vec<Vec<usize>>,
    /// The serve spans answering each requester PE, ordered alike.
    serves: Vec<Vec<usize>>,
    /// Per barrier `seq`: the wait that began last, by `(start, pe, span)`.
    stragglers: HashMap<u64, usize>,
    serve_by_id: HashMap<u64, usize>,
    redeem_by_parent: HashMap<u64, usize>,
    release_by_seq: HashMap<u64, usize>,
    /// Lock grants by `(requesting PE, seq)`: request ids are per process.
    grant_by_req: HashMap<(u32, u64), usize>,
}

impl Index {
    fn build(spans: &[TraceSpanRec], nprocs: usize) -> Index {
        let mut ix = Index {
            app: vec![None; nprocs],
            waits: vec![Vec::new(); nprocs],
            serves: vec![Vec::new(); nprocs],
            ..Index::default()
        };
        for (i, s) in spans.iter().enumerate() {
            let pe = s.pe as usize;
            match s.kind {
                TraceSpanKind::App => {
                    ix.app[pe].get_or_insert(i);
                }
                TraceSpanKind::Serve => {
                    ix.serve_by_id.entry(s.span).or_insert(i);
                    if let Some(for_pe) = ix.serves.get_mut(s.peer as usize) {
                        for_pe.push(i);
                    }
                }
                TraceSpanKind::Redeem => {
                    ix.redeem_by_parent.entry(s.parent).or_insert(i);
                }
                TraceSpanKind::BarrierRelease => {
                    ix.release_by_seq.entry(s.seq).or_insert(i);
                }
                TraceSpanKind::LockGrant => {
                    ix.grant_by_req.entry((s.peer, s.seq)).or_insert(i);
                }
                TraceSpanKind::BarrierWait => {
                    let last = ix.stragglers.entry(s.seq).or_insert(i);
                    let key = |s: &TraceSpanRec| (s.start_ns, s.pe, s.span);
                    if key(s) >= key(&spans[*last]) {
                        *last = i;
                    }
                }
                _ => {}
            }
            if is_wait(s.kind) {
                ix.waits[pe].push(i);
            }
        }
        let by_end = |&i: &usize| (spans[i].end_ns, spans[i].start_ns, spans[i].span);
        for list in ix.waits.iter_mut().chain(ix.serves.iter_mut()) {
            list.sort_by_key(by_end);
        }
        ix
    }
}

/// The assembled cluster-wide causal trace.
#[derive(Debug, Clone)]
pub struct ClusterTrace {
    /// Every span of the run, in deterministic assembled order (private:
    /// the index holds positions into it).
    spans: Vec<TraceSpanRec>,
    /// PEs covered (`max pe + 1`).
    pub nprocs: usize,
    /// Cross-PE linkage coverage.
    pub links: LinkStats,
    index: Index,
}

impl ClusterTrace {
    /// A trace over `spans`, kept in the order given.
    pub(crate) fn build(spans: Vec<TraceSpanRec>, nprocs: usize) -> ClusterTrace {
        let index = Index::build(&spans, nprocs);
        let mut trace = ClusterTrace {
            spans,
            nprocs,
            links: LinkStats::default(),
            index,
        };
        trace.links = trace.link_stats();
        trace
    }

    /// Every span of the run, in deterministic assembled order.
    pub fn spans(&self) -> &[TraceSpanRec] {
        &self.spans
    }

    /// Root app span of PE `pe`, if the stream recorded one.
    pub fn app_span(&self, pe: u32) -> Option<&TraceSpanRec> {
        let at = *self.index.app.get(pe as usize)?;
        at.map(|i| &self.spans[i])
    }

    fn first<K: std::hash::Hash + Eq>(
        &self,
        by: &HashMap<K, usize>,
        key: K,
    ) -> Option<&TraceSpanRec> {
        by.get(&key).map(|&i| &self.spans[i])
    }

    /// The serve span answering the request rooted at `req_span`: the
    /// fresh one, or — the redeem may have linked to a dedup replay
    /// instead — one of the first few replays, whichever assembled first.
    pub(crate) fn serve_of(&self, req_span: u64) -> Option<&TraceSpanRec> {
        let at = (0..4u32)
            .filter_map(|r| self.index.serve_by_id.get(&serve_span_id(req_span, r)))
            .min()?;
        Some(&self.spans[*at])
    }

    /// The redeem span whose parent is the serve span `serve`.
    pub(crate) fn redeem_of(&self, serve: u64) -> Option<&TraceSpanRec> {
        self.first(&self.index.redeem_by_parent, serve)
    }

    /// The coordinator's release or grant span that answered the barrier or
    /// lock wait `wait`.
    pub(crate) fn answer_of(&self, wait: &TraceSpanRec) -> Option<&TraceSpanRec> {
        match wait.kind {
            TraceSpanKind::BarrierWait => self.first(&self.index.release_by_seq, wait.seq),
            TraceSpanKind::LockWait => self.first(&self.index.grant_by_req, (wait.pe, wait.seq)),
            _ => None,
        }
    }

    /// PE `pe`'s wait spans, ordered by `(end, start, span)`.
    pub(crate) fn waits_of(&self, pe: u32) -> impl DoubleEndedIterator<Item = &TraceSpanRec> {
        let list = self.index.waits.get(pe as usize);
        list.into_iter().flatten().map(|&i| &self.spans[i])
    }

    /// The latest serve span for requester `pe` that lies inside `wait`,
    /// by `(end, start, span)`.
    pub(crate) fn serve_inside(&self, pe: u32, wait: &TraceSpanRec) -> Option<&TraceSpanRec> {
        let list = self.index.serves.get(pe as usize)?;
        let ended = list.partition_point(|&i| self.spans[i].end_ns <= wait.end_ns);
        list[..ended]
            .iter()
            .rev()
            .map(|&i| &self.spans[i])
            .take_while(|s| s.end_ns >= wait.start_ns)
            .find(|s| s.start_ns >= wait.start_ns)
    }

    /// The wait span of barrier `seq` that began last: the straggler whose
    /// arrival released the round.
    pub(crate) fn straggler_of(&self, seq: u64) -> Option<&TraceSpanRec> {
        self.first(&self.index.stragglers, seq)
    }

    fn link_stats(&self) -> LinkStats {
        let mut st = LinkStats::default();
        for s in &self.spans {
            match s.kind {
                TraceSpanKind::GmReq => {
                    st.gm_reqs += 1;
                    // The serve id is derivable on this side too. The redeem
                    // may have linked to a dedup replay of the serve rather
                    // than the fresh one, so probe the first few indices.
                    let linked = (0..4u32).any(|r| {
                        let id = serve_span_id(s.span, r);
                        self.index.serve_by_id.contains_key(&id)
                            && self.index.redeem_by_parent.contains_key(&id)
                    });
                    st.gm_linked += linked as usize;
                }
                TraceSpanKind::BarrierWait => {
                    st.barrier_waits += 1;
                    st.barrier_linked += self.answer_of(s).is_some() as usize;
                }
                TraceSpanKind::LockWait => {
                    st.lock_waits += 1;
                    st.lock_linked += self.answer_of(s).is_some() as usize;
                }
                _ => {}
            }
        }
        st
    }

    /// Render the assembled trace as one JSONL stream.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            s.write_jsonl(&mut out);
        }
        out
    }

    /// The canonical form of this trace: a deterministic function of the
    /// causal *structure*, byte-identical across re-executions of the
    /// same program.
    ///
    /// * replayed serves (`dedup`), retry-backoff and CPU-queue spans are
    ///   dropped — whether a retransmit happened, or who found a CPU
    ///   busy, is timing, not structure;
    /// * `retries` counters reset for the same reason;
    /// * each barrier release re-parents onto its highest-rank waiter
    ///   (the raw parent is whichever enter arrived last);
    /// * timestamps collapse to `0..1`;
    /// * span ids are renumbered `1..n` in canonical sort order and every
    ///   `trace`/`parent` reference is remapped (a reference to a dropped
    ///   span becomes 0).
    pub fn canonical(&self) -> ClusterTrace {
        let mut spans: Vec<TraceSpanRec> = self
            .spans
            .iter()
            .filter(|s| {
                let timing = [TraceSpanKind::RetryBackoff, TraceSpanKind::CpuQueue];
                !s.dedup && !timing.contains(&s.kind)
            })
            .copied()
            .collect();
        // Highest-rank waiter per barrier: a release's raw trace/parent/
        // peer all name whichever enter arrived last, which is timing.
        let mut wait_of: HashMap<u64, (u64, u64, u32)> = HashMap::new();
        for s in &spans {
            if s.kind == TraceSpanKind::BarrierWait {
                let e = wait_of.entry(s.seq).or_insert((s.span, s.trace, s.pe));
                if s.pe >= e.2 {
                    *e = (s.span, s.trace, s.pe);
                }
            }
        }
        for s in spans.iter_mut() {
            s.retries = 0;
            if s.kind == TraceSpanKind::BarrierRelease {
                if let Some((span, trace, pe)) = wait_of.get(&s.seq) {
                    s.parent = *span;
                    s.trace = *trace;
                    s.peer = *pe;
                }
            }
        }
        spans.sort_by_key(canonical_key);
        let renumber: HashMap<u64, u64> = spans
            .iter()
            .enumerate()
            .map(|(i, s)| (s.span, i as u64 + 1))
            .collect();
        let remap = |id: u64| renumber.get(&id).copied().unwrap_or(0);
        for s in spans.iter_mut() {
            s.span = remap(s.span);
            s.parent = remap(s.parent);
            s.trace = remap(s.trace);
            s.start_ns = 0;
            s.end_ns = 1;
        }
        ClusterTrace::build(spans, self.nprocs)
    }
}

/// Run-independent sort key: never timestamps, never raw span ids except
/// as a final tie-break within one PE's deterministic program order.
fn canonical_key(s: &TraceSpanRec) -> (u32, usize, u64, u32, u64) {
    let kind_idx = TraceSpanKind::ALL
        .iter()
        .position(|k| *k == s.kind)
        .unwrap_or(usize::MAX);
    // `span` as the last component: within one (pe, kind, seq, peer)
    // cell only same-thread mints can collide (e.g. fence gm_block spans,
    // all seq 0), and those mint in program order — deterministic.
    (s.pe, kind_idx, s.seq, s.peer, s.span)
}

/// Merge per-PE span streams into one [`ClusterTrace`].
///
/// Sort order is `(trace, start_ns, end_ns, pe, span)`: causally related
/// spans group by trace and read chronologically within it, and the order
/// is a pure function of the span set.
pub fn assemble(per_pe: &[Vec<TraceSpanRec>]) -> ClusterTrace {
    let mut spans: Vec<TraceSpanRec> = per_pe.iter().flatten().copied().collect();
    spans.sort_by_key(|s| (s.trace, s.start_ns, s.end_ns, s.pe, s.span));
    let nprocs = per_pe
        .len()
        .max(spans.iter().map(|s| s.pe as usize + 1).max().unwrap_or(0));
    ClusterTrace::build(spans, nprocs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: TraceSpanKind, trace: u64, id: u64, parent: u64, pe: u32) -> TraceSpanRec {
        TraceSpanRec::new(kind, trace, id, parent, pe, 10, 20)
    }

    fn linked_chain() -> Vec<Vec<TraceSpanRec>> {
        // PE0 requests from PE1: app -> gm_req -> serve(1) -> redeem(0).
        let app = span(TraceSpanKind::App, 100, 100, 0, 0);
        let mut req = span(TraceSpanKind::GmReq, 100, 101, 100, 0);
        req.seq = 7;
        let sid = serve_span_id(101, 0);
        let mut serve = span(TraceSpanKind::Serve, 100, sid, 101, 1);
        serve.peer = 0;
        let mut redeem = span(TraceSpanKind::Redeem, 100, 102, sid, 0);
        redeem.seq = 7;
        vec![vec![app, req, redeem], vec![serve]]
    }

    #[test]
    fn assemble_links_full_gm_chains() {
        let t = assemble(&linked_chain());
        assert_eq!(t.nprocs, 2);
        assert_eq!(t.links.gm_reqs, 1);
        assert_eq!(t.links.gm_linked, 1);
        assert_eq!(t.links.gm_link_ratio(), 1.0);
        // Breaking the chain (no redeem) must show up as unlinked.
        let mut broken = linked_chain();
        broken[0].retain(|s| s.kind != TraceSpanKind::Redeem);
        let t = assemble(&broken);
        assert_eq!(t.links.gm_linked, 0);
    }

    #[test]
    fn trace_dir_roundtrip() {
        let dir = std::env::temp_dir().join(format!("dse-trace-rt-{}", std::process::id()));
        let per_pe = linked_chain();
        write_trace_dir(&dir, &per_pe).unwrap();
        let back = load_trace_dir(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(back.len(), 2);
        assert_eq!(assemble(&back).to_jsonl(), assemble(&per_pe).to_jsonl());
    }

    #[test]
    fn canonical_is_invariant_to_ids_timing_and_replays() {
        // Same causal structure, different raw ids / timestamps / replay
        // noise must canonicalize to identical bytes.
        let a = assemble(&linked_chain());
        let mut shifted = linked_chain();
        for stream in shifted.iter_mut() {
            for s in stream.iter_mut() {
                s.start_ns += 5_000;
                s.end_ns += 7_000;
            }
        }
        // A dedup replay, a retry span and a CPU queue: timing artifacts,
        // dropped.
        shifted[0].push(span(TraceSpanKind::CpuQueue, 100, 104, 100, 0));
        let mut replay = span(TraceSpanKind::Serve, 100, serve_span_id(101, 1), 101, 1);
        replay.dedup = true;
        replay.peer = 0;
        shifted[1].push(replay);
        let mut retry = span(TraceSpanKind::RetryBackoff, 100, 103, 101, 0);
        retry.seq = 7;
        shifted[0].push(retry);
        let b = assemble(&shifted);
        assert_eq!(a.canonical().to_jsonl(), b.canonical().to_jsonl());
        // Canonical output is normalized: ids small, times unit.
        let c = a.canonical();
        assert!(c.spans.iter().all(|s| s.span <= c.spans.len() as u64));
        assert!(c.spans.iter().all(|s| s.start_ns == 0 && s.end_ns == 1));
    }

    #[test]
    fn canonical_reparents_barrier_release_to_highest_rank_waiter() {
        let mut w0 = span(TraceSpanKind::BarrierWait, 100, 100, 1, 0);
        w0.seq = 9;
        let mut w1 = span(TraceSpanKind::BarrierWait, 200, 200, 2, 1);
        w1.seq = 9;
        // Raw parent points at PE0's wait (PE0 arrived last this run).
        let mut rel = span(TraceSpanKind::BarrierRelease, 100, 300, 100, 0);
        rel.seq = 9;
        let a = assemble(&[vec![w0, rel], vec![w1]]);
        let c = a.canonical();
        let rel_c = c
            .spans
            .iter()
            .find(|s| s.kind == TraceSpanKind::BarrierRelease)
            .unwrap();
        let w1_c = c
            .spans
            .iter()
            .find(|s| s.kind == TraceSpanKind::BarrierWait && s.pe == 1)
            .unwrap();
        assert_eq!(rel_c.parent, w1_c.span, "release re-homed onto PE1's wait");
    }
}
