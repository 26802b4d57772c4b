//! Stall watchdog: flags GM requests with no response past a deadline.
//!
//! The watchdog runs on the aggregating kernel (node 0) as part of the
//! telemetry plane. Each telemetry tick it polls the [`InFlight`] set —
//! the unanswered global-memory requests (read / write / fetch-add /
//! batch) of every requester, which exists only on runs that configure a
//! watchdog — and flags any that has been open longer than the configured
//! deadline. A request is flagged at most once: the watchdog remembers the
//! `(kind, pe, seq)` keys it has already reported, so a stuck request
//! produces exactly one [`StallReport`] even though the watchdog keeps
//! polling.
//!
//! Barrier and lock waits are deliberately *not* watched: they legitimately
//! stay open for as long as the application makes them (a barrier waits for
//! the slowest PE), so a deadline on them would only produce noise. GM
//! requests, by contrast, are bounded by kernel service plus wire time —
//! one still open past a quarter second of cluster time means a lost
//! response or a wedged kernel.

use std::collections::{HashMap, HashSet};

use parking_lot::Mutex;

use dse_obs::SpanKind;

/// The GM requests put on the wire and not yet answered, by
/// `(kind, requesting PE, request id)`, with the time each was issued. A
/// requester enters its request when it sends it and removes it when the
/// answer arrives; the watchdog is the only reader.
#[derive(Debug, Default)]
pub struct InFlight {
    open: Mutex<HashMap<(SpanKind, u32, u64), u64>>,
}

impl InFlight {
    /// `pe` issued request `seq` at `now_ns`.
    pub fn open(&self, kind: SpanKind, pe: u32, seq: u64, now_ns: u64) {
        self.open.lock().insert((kind, pe, seq), now_ns);
    }

    /// `pe`'s request `seq` was answered.
    pub fn close(&self, kind: SpanKind, pe: u32, seq: u64) {
        self.open.lock().remove(&(kind, pe, seq));
    }

    /// The unanswered requests as `(open_ns, pe, seq, kind)`, sorted, so
    /// iteration order is deterministic.
    pub fn unanswered(&self) -> Vec<(u64, u32, u64, SpanKind)> {
        let open = self.open.lock();
        let mut v: Vec<_> = open
            .iter()
            .map(|(&(kind, pe, seq), &open_ns)| (open_ns, pe, seq, kind))
            .collect();
        v.sort_unstable();
        v
    }
}

/// One flagged GM request: open past the watchdog deadline with no response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallReport {
    /// Request kind (always one of the GM kinds).
    pub kind: SpanKind,
    /// PE that issued the request.
    pub pe: u32,
    /// Request sequence number (a `gm_req` span's `seq` in the causal trace).
    pub seq: u64,
    /// When the request was issued (engine clock, ns).
    pub open_ns: u64,
    /// When the watchdog flagged it (engine clock, ns).
    pub flagged_ns: u64,
}

impl StallReport {
    /// How long the request had been waiting when flagged.
    pub fn waited_ns(&self) -> u64 {
        self.flagged_ns.saturating_sub(self.open_ns)
    }
}

/// Polls the in-flight set and reports GM requests stuck past a deadline.
#[derive(Debug)]
pub struct StallWatchdog {
    deadline_ns: u64,
    flagged: HashSet<(SpanKind, u32, u64)>,
    total_flagged: u64,
    escalate_after: Option<u32>,
    escalated: bool,
}

impl StallWatchdog {
    /// Watchdog with the given deadline in engine-clock nanoseconds.
    pub fn new(deadline_ns: u64) -> StallWatchdog {
        StallWatchdog {
            deadline_ns,
            flagged: HashSet::new(),
            total_flagged: 0,
            escalate_after: None,
            escalated: false,
        }
    }

    /// Arm escalation: once `after` distinct stalls have been flagged over
    /// the run, [`StallWatchdog::take_escalation`] fires (once). `None`
    /// leaves escalation off.
    pub fn with_escalation(mut self, after: Option<u32>) -> StallWatchdog {
        self.escalate_after = after;
        self
    }

    /// The configured deadline in nanoseconds.
    pub fn deadline_ns(&self) -> u64 {
        self.deadline_ns
    }

    /// Distinct stalls flagged over the whole run (pruning does not forget
    /// them).
    pub fn total_flagged(&self) -> u64 {
        self.total_flagged
    }

    /// Currently remembered flag keys — requests flagged and still open.
    /// Bounded by the number of open GM requests, not run length.
    pub fn flagged_backlog(&self) -> usize {
        self.flagged.len()
    }

    /// True exactly once: when the run's distinct-stall count crosses the
    /// escalation threshold. The caller decides what escalation means
    /// (metric, flight dump, abort).
    pub fn take_escalation(&mut self) -> bool {
        match self.escalate_after {
            Some(n) if !self.escalated && self.total_flagged >= u64::from(n) => {
                self.escalated = true;
                true
            }
            _ => false,
        }
    }

    /// Poll the in-flight set at time `now_ns`; returns newly flagged
    /// stalls (deterministic order: by open time, then PE, then sequence
    /// number, inherited from [`InFlight::unanswered`]).
    pub fn check(&mut self, now_ns: u64, inflight: &InFlight) -> Vec<StallReport> {
        let opens = inflight.unanswered();
        // Prune memory of requests that have since been answered: sequence
        // numbers are never reused, so an answered request can't be
        // re-flagged, and keeping its key would grow the set without bound
        // on long runs.
        if !self.flagged.is_empty() {
            let still_open: HashSet<(SpanKind, u32, u64)> = opens
                .iter()
                .map(|&(_, pe, seq, kind)| (kind, pe, seq))
                .collect();
            self.flagged.retain(|k| still_open.contains(k));
        }
        let mut out = Vec::new();
        for (open_ns, pe, seq, kind) in opens {
            if !matches!(
                kind,
                SpanKind::GmRead | SpanKind::GmWrite | SpanKind::GmFetchAdd | SpanKind::GmBatch
            ) {
                continue;
            }
            if now_ns.saturating_sub(open_ns) <= self.deadline_ns {
                continue;
            }
            if self.flagged.insert((kind, pe, seq)) {
                self.total_flagged += 1;
                out.push(StallReport {
                    kind,
                    pe,
                    seq,
                    open_ns,
                    flagged_ns: now_ns,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_overdue_gm_requests_once() {
        let inflight = InFlight::default();
        inflight.open(SpanKind::GmRead, 2, 7, 1_000);
        inflight.open(SpanKind::GmWrite, 1, 9, 500);
        let mut wd = StallWatchdog::new(10_000);

        // Nothing overdue yet.
        assert!(wd.check(5_000, &inflight).is_empty());

        // Only the older request is past deadline at t=11_000.
        let first = wd.check(11_000, &inflight);
        assert_eq!(first.len(), 1);
        assert_eq!(
            (first[0].kind, first[0].pe, first[0].seq),
            (SpanKind::GmWrite, 1, 9)
        );
        assert_eq!(first[0].waited_ns(), 10_500);

        // Next poll flags the read but never re-reports the write.
        let second = wd.check(20_000, &inflight);
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].kind, SpanKind::GmRead);
        assert!(wd.check(30_000, &inflight).is_empty());
    }

    #[test]
    fn sync_spans_are_not_watched() {
        let inflight = InFlight::default();
        inflight.open(SpanKind::Barrier, 0, 1, 0);
        inflight.open(SpanKind::Lock, 3, 2, 0);
        let mut wd = StallWatchdog::new(100);
        assert!(wd.check(1_000_000, &inflight).is_empty());
    }

    #[test]
    fn closed_spans_stop_being_candidates() {
        let inflight = InFlight::default();
        inflight.open(SpanKind::GmFetchAdd, 0, 3, 0);
        inflight.close(SpanKind::GmFetchAdd, 0, 3);
        let mut wd = StallWatchdog::new(10);
        assert!(wd.check(1_000, &inflight).is_empty());
    }

    #[test]
    fn flag_memory_is_pruned_when_spans_close() {
        let inflight = InFlight::default();
        let mut wd = StallWatchdog::new(10);
        // A long run of slow requests, each eventually answered: the flag
        // set must not accumulate one entry per request forever.
        for seq in 0..100u64 {
            inflight.open(SpanKind::GmRead, 1, seq, seq * 1_000);
            let flagged = wd.check(seq * 1_000 + 500_000, &inflight);
            assert_eq!(flagged.len(), 1, "request {seq} should flag once");
            inflight.close(SpanKind::GmRead, 1, seq);
        }
        assert_eq!(wd.total_flagged(), 100);
        // One more poll prunes the last closed span's key.
        assert!(wd.check(200_000_000, &inflight).is_empty());
        assert_eq!(wd.flagged_backlog(), 0, "closed spans must be pruned");
    }

    #[test]
    fn escalation_fires_once_at_threshold() {
        let inflight = InFlight::default();
        let mut wd = StallWatchdog::new(10).with_escalation(Some(2));
        inflight.open(SpanKind::GmRead, 0, 1, 0);
        wd.check(1_000, &inflight);
        assert!(!wd.take_escalation(), "below threshold");
        inflight.open(SpanKind::GmWrite, 1, 2, 0);
        wd.check(2_000, &inflight);
        assert!(wd.take_escalation(), "threshold crossed");
        assert!(!wd.take_escalation(), "fires only once");
        // Unarmed watchdogs never escalate.
        let mut off = StallWatchdog::new(10);
        off.check(1_000, &inflight);
        assert!(!off.take_escalation());
    }
}
