//! Counters and reports produced by a simulation run.

use crate::time::{SimDuration, SimTime};

/// Aggregate event-loop counters.
#[derive(Debug, Clone, Default)]
pub struct SimStats {
    /// Events processed (wakeups + deliveries), including stale ones and
    /// wakes completed inline on the process thread.
    pub events: u64,
    /// Of `events`: wakes that completed inline — on the yielding process
    /// thread, or for a passive component on whichever thread was
    /// dispatching — because no earlier event was queued, so they never
    /// went through the heap.
    pub inline_wakes: u64,
    /// Wakes dispatched on one process's thread that resumed another
    /// process's thread: one OS context switch each. Every other event was
    /// handled without a switch. (The run thread starting the first process
    /// and releasing blocked ones at shutdown is not counted.)
    pub handoffs: u64,
    /// Messages sent between processes.
    pub sends: u64,
    /// Messages delivered into inboxes (or directly to blocked receivers).
    pub delivers: u64,
    /// Processes spawned over the whole run (including pre-run spawns and
    /// passive components).
    pub spawns: u64,
    /// Of `spawns`: processes that got an OS thread (every one that is not
    /// a passive component).
    pub threads: u64,
    /// Messages dropped because the destination had already exited.
    pub dropped: u64,
}

/// Usage statistics for one FCFS resource.
#[derive(Debug, Clone, Default)]
pub struct ResourceStats {
    /// Human-readable resource name.
    pub name: String,
    /// Total time the resource was held.
    pub busy: SimDuration,
    /// Total time acquirers spent queued behind earlier holders.
    pub waited: SimDuration,
    /// Number of acquisitions.
    pub acquisitions: u64,
}

impl ResourceStats {
    /// Utilization over the run `[0, 1]`, given the run's end time.
    pub fn utilization(&self, end: SimTime) -> f64 {
        if end == SimTime::ZERO {
            return 0.0;
        }
        self.busy.as_secs_f64() / end.as_secs_f64()
    }
}

/// Final report for a completed simulation.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Virtual time of the last processed event.
    pub end_time: SimTime,
    /// Event-loop counters.
    pub stats: SimStats,
    /// Per-resource usage, indexed by `ResourceId::index()`.
    pub resources: Vec<ResourceStats>,
    /// Names of processes that ran to completion.
    pub completed: Vec<String>,
    /// Names of processes still blocked in `recv` when events ran out
    /// (server loops are expected here; application processes are not).
    pub blocked_at_end: Vec<String>,
    /// Order-sensitive digest of the whole event sequence; two runs of the
    /// same program with the same seed must produce equal hashes.
    pub trace_hash: u64,
}

impl SimReport {
    /// True if a process with the given name completed.
    pub fn completed_named(&self, name: &str) -> bool {
        self.completed.iter().any(|n| n == name)
    }
}

/// Incremental FNV-1a digest used for the determinism trace hash.
#[derive(Debug, Clone)]
pub(crate) struct TraceHasher {
    state: u64,
}

impl TraceHasher {
    pub(crate) fn new() -> Self {
        TraceHasher {
            state: 0xcbf2_9ce4_8422_2325,
        }
    }

    #[inline]
    pub(crate) fn mix(&mut self, value: u64) {
        for b in value.to_le_bytes() {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(0x1000_0000_01b3);
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_hash_is_order_sensitive() {
        let mut a = TraceHasher::new();
        a.mix(1);
        a.mix(2);
        let mut b = TraceHasher::new();
        b.mix(2);
        b.mix(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn utilization_zero_end_time() {
        let rs = ResourceStats::default();
        assert_eq!(rs.utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    fn utilization_half() {
        let rs = ResourceStats {
            name: "cpu".into(),
            busy: SimDuration::from_secs(1),
            waited: SimDuration::ZERO,
            acquisitions: 1,
        };
        let u = rs.utilization(SimTime::from_nanos(2_000_000_000));
        assert!((u - 0.5).abs() < 1e-12);
    }
}
