//! Causal trace spans: the per-PE record stream behind cluster tracing.
//!
//! The metrics registry answers "how much"; the causal trace answers
//! "because of what". Every hop of a GM operation — the requester
//! dispatching, the wire transit, the home kernel serving, the response
//! being redeemed, plus barrier and lock rounds through PE0 — emits one
//! [`TraceSpanRec`] into the emitting thread's [`TraceRecorder`]. Each PE
//! writes its records as JSONL; the `dse-trace` assembler merges the
//! per-PE streams back into one causally-linked cluster trace using the
//! `trace`/`span`/`parent` ids, which travel across the wire in the frame
//! trace-context extension (`dse_msg::TraceCtx`).
//!
//! Span ids must be unique cluster-wide *and* deterministic (the CI
//! determinism smoke diffs two seeded runs byte-for-byte), so they are
//! never random: ids minted locally pack `(pe, role, counter)`
//! ([`TraceRecorder::next_id`]); ids that both sides of the wire must
//! agree on are derived by hashing ids they already share
//! ([`derived_span_id`]).

use std::fmt::Write as _;

use parking_lot::Mutex;

/// What a causal span measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TraceSpanKind {
    /// A PE's whole app-thread lifetime (the per-PE trace root).
    App,
    /// A GM request on the requester, dispatch to completion.
    GmReq,
    /// The app thread blocked waiting on outstanding GM completions.
    GmBlock,
    /// The home kernel serving one GM request (incl. dedup replays).
    Serve,
    /// The requester kernel redeeming a GM response into the app.
    Redeem,
    /// Elapsed retransmit backoff inside a GM request.
    RetryBackoff,
    /// The app thread inside a barrier, waiting for release.
    BarrierWait,
    /// The PE0 coordinator completing a barrier round.
    BarrierRelease,
    /// The app thread waiting for a cluster lock grant.
    LockWait,
    /// The PE0 coordinator granting a cluster lock.
    LockGrant,
    /// A process or kernel queued for its machine's CPU, request to grant
    /// (simulator only; `peer` is [`NO_PEER`] on the app's own lane, the
    /// PE being served on a kernel's).
    CpuQueue,
}

impl TraceSpanKind {
    /// Every kind, in serialization order.
    pub const ALL: [TraceSpanKind; 11] = [
        TraceSpanKind::App,
        TraceSpanKind::GmReq,
        TraceSpanKind::GmBlock,
        TraceSpanKind::Serve,
        TraceSpanKind::Redeem,
        TraceSpanKind::RetryBackoff,
        TraceSpanKind::BarrierWait,
        TraceSpanKind::BarrierRelease,
        TraceSpanKind::LockWait,
        TraceSpanKind::LockGrant,
        TraceSpanKind::CpuQueue,
    ];

    /// Stable wire label, used in the JSONL stream and blame table.
    pub fn label(self) -> &'static str {
        match self {
            TraceSpanKind::App => "app",
            TraceSpanKind::GmReq => "gm_req",
            TraceSpanKind::GmBlock => "gm_block",
            TraceSpanKind::Serve => "serve",
            TraceSpanKind::Redeem => "redeem",
            TraceSpanKind::RetryBackoff => "retry_backoff",
            TraceSpanKind::BarrierWait => "barrier_wait",
            TraceSpanKind::BarrierRelease => "barrier_release",
            TraceSpanKind::LockWait => "lock_wait",
            TraceSpanKind::LockGrant => "lock_grant",
            TraceSpanKind::CpuQueue => "cpu_queue",
        }
    }

    /// Inverse of [`Self::label`].
    pub fn parse(s: &str) -> Option<TraceSpanKind> {
        TraceSpanKind::ALL.iter().copied().find(|k| k.label() == s)
    }
}

/// `peer` value meaning "no peer PE involved".
pub const NO_PEER: u32 = u32::MAX;

/// One closed causal span, as written to the per-PE trace JSONL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSpanRec {
    /// Trace id: all spans of one causal chain share it.
    pub trace: u64,
    /// This span's id, unique cluster-wide.
    pub span: u64,
    /// Parent span id (0 = root of its trace).
    pub parent: u64,
    /// PE the span executed on.
    pub pe: u32,
    /// What the span measures.
    pub kind: TraceSpanKind,
    /// Start, engine clock (ns).
    pub start_ns: u64,
    /// End, engine clock (ns).
    pub end_ns: u64,
    /// Remote PE involved ([`NO_PEER`] when none).
    pub peer: u32,
    /// Payload bytes moved (0 when n/a).
    pub bytes: u64,
    /// Correlation id: GM request / barrier / lock sequence (0 when n/a).
    pub seq: u64,
    /// Serve spans: true when answered from the dedup cache (a replay).
    pub dedup: bool,
    /// GmReq spans: retransmits sent before completion.
    pub retries: u32,
}

impl TraceSpanRec {
    /// A span with the required fields set and the optional attributes
    /// (`peer`/`bytes`/`seq`/`dedup`/`retries`) at their "absent" values.
    pub fn new(
        kind: TraceSpanKind,
        trace: u64,
        span: u64,
        parent: u64,
        pe: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> TraceSpanRec {
        TraceSpanRec {
            trace,
            span,
            parent,
            pe,
            kind,
            start_ns,
            end_ns,
            peer: NO_PEER,
            bytes: 0,
            seq: 0,
            dedup: false,
            retries: 0,
        }
    }

    /// Span duration in nanoseconds (0 if the clock went backwards).
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Append this span as one JSONL line (with trailing newline). Fields
    /// are emitted in a fixed order so equal spans produce equal bytes.
    pub fn write_jsonl(&self, out: &mut String) {
        let _ = writeln!(
            out,
            "{{\"trace\":{},\"span\":{},\"parent\":{},\"pe\":{},\"kind\":\"{}\",\
             \"start_ns\":{},\"end_ns\":{},\"peer\":{},\"bytes\":{},\"seq\":{},\
             \"dedup\":{},\"retries\":{}}}",
            self.trace,
            self.span,
            self.parent,
            self.pe,
            self.kind.label(),
            self.start_ns,
            self.end_ns,
            self.peer,
            self.bytes,
            self.seq,
            self.dedup,
            self.retries,
        );
    }

    /// Parse one line produced by [`Self::write_jsonl`]. The parser is
    /// strict about field order — the format is ours on both ends.
    pub fn parse_line(line: &str) -> Result<TraceSpanRec, String> {
        let mut cur = Cursor { s: line.trim() };
        cur.tag("{\"trace\":")?;
        let trace = cur.u64()?;
        cur.tag(",\"span\":")?;
        let span = cur.u64()?;
        cur.tag(",\"parent\":")?;
        let parent = cur.u64()?;
        cur.tag(",\"pe\":")?;
        let pe = cur.u64()? as u32;
        cur.tag(",\"kind\":\"")?;
        let kind_s = cur.until_quote()?;
        let kind =
            TraceSpanKind::parse(kind_s).ok_or_else(|| format!("unknown span kind '{kind_s}'"))?;
        cur.tag(",\"start_ns\":")?;
        let start_ns = cur.u64()?;
        cur.tag(",\"end_ns\":")?;
        let end_ns = cur.u64()?;
        cur.tag(",\"peer\":")?;
        let peer = cur.u64()? as u32;
        cur.tag(",\"bytes\":")?;
        let bytes = cur.u64()?;
        cur.tag(",\"seq\":")?;
        let seq = cur.u64()?;
        cur.tag(",\"dedup\":")?;
        let dedup = cur.bool()?;
        cur.tag(",\"retries\":")?;
        let retries = cur.u64()? as u32;
        cur.tag("}")?;
        if !cur.s.is_empty() {
            return Err(format!("trailing bytes after span record: '{}'", cur.s));
        }
        Ok(TraceSpanRec {
            trace,
            span,
            parent,
            pe,
            kind,
            start_ns,
            end_ns,
            peer,
            bytes,
            seq,
            dedup,
            retries,
        })
    }
}

/// Parse a whole per-PE trace stream (blank lines ignored).
pub fn parse_trace_jsonl(text: &str) -> Result<Vec<TraceSpanRec>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(TraceSpanRec::parse_line(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(out)
}

struct Cursor<'a> {
    s: &'a str,
}

impl<'a> Cursor<'a> {
    fn tag(&mut self, t: &str) -> Result<(), String> {
        match self.s.strip_prefix(t) {
            Some(rest) => {
                self.s = rest;
                Ok(())
            }
            None => Err(format!("expected '{t}' at '{}'", trunc(self.s))),
        }
    }

    fn u64(&mut self) -> Result<u64, String> {
        let end = self
            .s
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(self.s.len());
        if end == 0 {
            return Err(format!("expected number at '{}'", trunc(self.s)));
        }
        let v = self.s[..end]
            .parse()
            .map_err(|e| format!("bad number: {e}"))?;
        self.s = &self.s[end..];
        Ok(v)
    }

    fn bool(&mut self) -> Result<bool, String> {
        if self.tag("true").is_ok() {
            Ok(true)
        } else if self.tag("false").is_ok() {
            Ok(false)
        } else {
            Err(format!("expected bool at '{}'", trunc(self.s)))
        }
    }

    fn until_quote(&mut self) -> Result<&'a str, String> {
        let end = self
            .s
            .find('"')
            .ok_or_else(|| format!("unterminated string at '{}'", trunc(self.s)))?;
        let v = &self.s[..end];
        self.s = &self.s[end + 1..];
        Ok(v)
    }
}

fn trunc(s: &str) -> &str {
    &s[..s.len().min(24)]
}

/// Which thread on a PE is minting span ids; part of the id space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceRole {
    /// The application thread.
    App,
    /// The kernel (message-loop) thread.
    Kernel,
}

/// Deterministic span-id mint plus buffer for one emitting thread.
///
/// Ids pack `(pe+1, role, counter)` into a `u64` — bit 63 clear — so two
/// recorders on different `(pe, role)` pairs can never collide, and the
/// same run always mints the same ids in the same order. Recording into a
/// disabled recorder is a no-op so instrumentation hooks can stay in hot
/// paths unconditionally.
#[derive(Debug)]
pub struct TraceRecorder {
    pe: u32,
    role: TraceRole,
    enabled: bool,
    next: u64,
    spans: Vec<TraceSpanRec>,
}

impl TraceRecorder {
    /// An enabled recorder for thread `(pe, role)`.
    pub fn new(pe: u32, role: TraceRole) -> TraceRecorder {
        TraceRecorder {
            pe,
            role,
            enabled: true,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// A disabled recorder: ids still mint, pushes are dropped.
    pub fn disabled(pe: u32, role: TraceRole) -> TraceRecorder {
        TraceRecorder {
            enabled: false,
            ..TraceRecorder::new(pe, role)
        }
    }

    /// True when pushed spans are kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// PE this recorder belongs to.
    pub fn pe(&self) -> u32 {
        self.pe
    }

    /// Mint the next deterministic span id for this thread.
    pub fn next_id(&mut self) -> u64 {
        self.next += 1;
        ((self.pe as u64 + 1) << 40) | (self.role_bit() << 39) | self.next
    }

    fn role_bit(&self) -> u64 {
        match self.role {
            TraceRole::App => 0,
            TraceRole::Kernel => 1,
        }
    }

    /// The id of the `cpu_queue` span of this thread asking for its CPU at
    /// `asked_ns` and getting it at `granted_ns`: derived, not minted, so
    /// the spans a simulated run shares with a live one carry the same ids
    /// whether or not anything queued. (A CPU is granted to one holder at
    /// a time, so the four values never repeat.)
    pub fn cpu_queue_id(&self, asked_ns: u64, granted_ns: u64) -> u64 {
        let who = ((self.pe as u64) << 16) | (self.role_bit() << 8) | 4;
        derived_span_id(asked_ns ^ granted_ns.rotate_left(32), who)
    }

    /// Keep a closed span (dropped when disabled).
    pub fn push(&mut self, rec: TraceSpanRec) {
        if self.enabled {
            self.spans.push(rec);
        }
    }

    /// Drain the buffered spans (recorder stays usable).
    pub fn take(&mut self) -> Vec<TraceSpanRec> {
        std::mem::take(&mut self.spans)
    }
}

/// Where a run's threads park the spans they recorded, when they end
/// (also on abort, so a post-mortem trace is complete).
#[derive(Debug, Default)]
pub struct TraceSink {
    /// `(pe, role, spans)`.
    parked: Mutex<Vec<(u32, TraceRole, Vec<TraceSpanRec>)>>,
}

impl TraceSink {
    /// Park what the `role` thread of `pe` recorded.
    pub fn park(&self, pe: u32, role: TraceRole, spans: Vec<TraceSpanRec>) {
        if !spans.is_empty() {
            self.parked.lock().push((pe, role, spans));
        }
    }

    /// Drain the sink into one stream per PE: the application's spans, then
    /// the kernel's, each as parked.
    pub fn take_streams(&self, nprocs: usize) -> Vec<Vec<TraceSpanRec>> {
        let mut parked = std::mem::take(&mut *self.parked.lock());
        parked.sort_by_key(|(pe, role, _)| (*pe, *role == TraceRole::Kernel));
        let mut streams = vec![Vec::new(); nprocs];
        for (pe, _, spans) in parked {
            streams[pe as usize].extend(spans);
        }
        streams
    }
}

/// Derive a span id both wire endpoints can compute without an extra
/// round-trip: hash ids they already share (e.g. the GM request's root
/// span id and the dedup replay index). Bit 63 is forced on, so derived
/// ids never collide with [`TraceRecorder::next_id`] mints.
pub fn derived_span_id(seed: u64, salt: u64) -> u64 {
    splitmix64(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15)) | (1 << 63)
}

/// Serve span for the `replay`-th answer (0 = fresh) to the request whose
/// root span is `parent`: the home kernel mints it, the requester's
/// redemption names it as parent, and the assembler recomputes it to link
/// the two.
pub fn serve_span_id(parent: u64, replay: u32) -> u64 {
    derived_span_id(parent, 1 | ((replay as u64) << 8))
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_roundtrips_through_jsonl() {
        for (i, kind) in TraceSpanKind::ALL.iter().enumerate() {
            let mut rec = TraceSpanRec::new(*kind, 77, 1000 + i as u64, 3, 2, 10, 250);
            rec.peer = 4;
            rec.bytes = 64;
            rec.seq = 9;
            rec.dedup = i % 2 == 0;
            rec.retries = i as u32;
            let mut line = String::new();
            rec.write_jsonl(&mut line);
            assert!(line.ends_with('\n'));
            let back = TraceSpanRec::parse_line(&line).unwrap();
            assert_eq!(back, rec);
            assert_eq!(TraceSpanKind::parse(kind.label()), Some(*kind));
        }
    }

    #[test]
    fn stream_parse_skips_blank_lines_and_reports_position() {
        let a = TraceSpanRec::new(TraceSpanKind::GmReq, 1, 2, 0, 0, 5, 9);
        let b = TraceSpanRec::new(TraceSpanKind::Serve, 1, 3, 2, 1, 6, 8);
        let mut text = String::new();
        a.write_jsonl(&mut text);
        text.push('\n');
        b.write_jsonl(&mut text);
        let spans = parse_trace_jsonl(&text).unwrap();
        assert_eq!(spans, vec![a, b]);

        let err = parse_trace_jsonl("{\"trace\":1,\"span\":oops").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
        let err = TraceSpanRec::parse_line(
            "{\"trace\":1,\"span\":2,\"parent\":0,\"pe\":0,\"kind\":\"nope\",\
             \"start_ns\":0,\"end_ns\":0,\"peer\":0,\"bytes\":0,\"seq\":0,\
             \"dedup\":false,\"retries\":0}",
        )
        .unwrap_err();
        assert!(err.contains("unknown span kind"), "{err}");
    }

    #[test]
    fn recorder_ids_are_deterministic_and_disjoint_across_threads() {
        let mut app0 = TraceRecorder::new(0, TraceRole::App);
        let mut krn0 = TraceRecorder::new(0, TraceRole::Kernel);
        let mut app1 = TraceRecorder::new(1, TraceRole::App);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            for r in [&mut app0, &mut krn0, &mut app1] {
                let id = r.next_id();
                assert!(seen.insert(id), "duplicate span id {id:#x}");
                assert_eq!(id >> 63, 0, "minted ids keep bit 63 clear");
            }
        }
        // Re-minting from a fresh recorder replays the same sequence.
        let mut again = TraceRecorder::new(0, TraceRole::App);
        assert_eq!(again.next_id(), (1u64 << 40) | 1);
        assert_eq!(again.next_id(), (1u64 << 40) | 2);
    }

    #[test]
    fn derived_ids_are_stable_and_marked() {
        let a = derived_span_id(0xdead_beef, 0);
        let b = derived_span_id(0xdead_beef, 0);
        let c = derived_span_id(0xdead_beef, 1);
        assert_eq!(a, b, "same inputs, same id");
        assert_ne!(a, c, "different replay index, different id");
        assert_eq!(a >> 63, 1, "derived ids carry bit 63");
    }

    #[test]
    fn disabled_recorder_drops_pushes_but_still_mints() {
        let mut r = TraceRecorder::disabled(3, TraceRole::Kernel);
        assert!(!r.enabled());
        let id = r.next_id();
        r.push(TraceSpanRec::new(TraceSpanKind::Serve, 1, id, 0, 3, 0, 1));
        assert!(r.take().is_empty());
    }

    #[test]
    fn take_drains_the_recorder_and_the_sink_orders_streams_by_role() {
        let mut r = TraceRecorder::new(2, TraceRole::App);
        let id = r.next_id();
        let rec = TraceSpanRec::new(TraceSpanKind::BarrierWait, 5, id, 0, 2, 100, 900);
        r.push(rec);
        assert_eq!(r.take(), vec![rec]);
        assert!(r.take().is_empty(), "take drains");
        // Whichever thread ends first, a PE's stream is app then kernel.
        let serve = TraceSpanRec::new(TraceSpanKind::Serve, 5, 9, 0, 2, 100, 200);
        let sink = TraceSink::default();
        sink.park(2, TraceRole::Kernel, vec![serve]);
        sink.park(2, TraceRole::App, vec![rec]);
        sink.park(0, TraceRole::App, Vec::new());
        let streams = sink.take_streams(3);
        assert_eq!(streams, [vec![], vec![], vec![rec, serve]]);
        assert!(sink.take_streams(3).iter().all(Vec::is_empty));
    }
}
