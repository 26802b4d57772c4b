//! The protocol's counters: what both engines count, and the one mapping
//! from a count to the `kernel/*` series of the run's metrics registry
//! (DESIGN.md §5m/§5n).
//!
//! There is one store. The serving side's ports hand a [`KernelCount`], and
//! the requester's shared client code a [`GmCount`], to the counting PE's
//! [`PeCounters`], which adds it to that PE's series in the run's
//! `dse_obs::Registry`; the client records its latency samples and its
//! in-flight gauge through the same handle. Every name of
//! [`KERNEL_COUNTERS`] is registered at zero for every PE when a cluster is
//! built, so an export, a telemetry flush and the SSI node table list all
//! of them whether the run moved them or not.

use dse_obs::{MetricKey, Registry};

/// The `kernel/*` counters every PE has on either engine, registered at
/// zero when a cluster is built. Only the simulator counts `Sent` (the wire
/// model's `messages`, `message_bytes`) and `Invoke` (the launcher's
/// `invokes`); the live kernel's own `messages` counts the frames it
/// handled.
pub const KERNEL_COUNTERS: [&str; 25] = [
    "gm_local_reads",
    "gm_remote_reads",
    "gm_local_writes",
    "gm_remote_writes",
    "gm_bytes_read",
    "gm_bytes_written",
    "fetch_adds",
    "messages",
    "message_bytes",
    "barrier_epochs",
    "lock_grants",
    "invokes",
    "cache_hits",
    "cache_misses",
    "cache_invalidations",
    "gm_request_msgs",
    "gm_coalesced",
    "invalidation_rounds",
    "dir_hits",
    "dir_misses",
    "dir_leases",
    "dir_invals",
    "rc_deferred_invals",
    "rc_acquires",
    "gm_ops",
];

/// A counter the serving side bumps: the protocol through
/// [`KernelPort::count`](crate::KernelPort::count), the simulator's
/// kernel driver for what only it models (`Sent`, `Invoke`), and the
/// telemetry plane's ingest (`TelemetryIn`, `TelemetryCorrupt`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelCount {
    /// A remote read of this many bytes was served.
    RemoteRead(usize),
    /// A remote write of this many bytes was served.
    RemoteWrite(usize),
    /// A remote fetch-add was served.
    FetchAdd,
    /// This many blocks were leased to a reader that did not hold them.
    DirLeases(u64),
    /// A `GmInvalidate` addressed to this node was applied.
    DirInval,
    /// Release consistency left the sharers of a written range in place.
    RcDeferred,
    /// Write-invalidate found this many sharers of a written range.
    InvalidationRound(usize),
    /// A barrier round completed.
    BarrierEpoch,
    /// A lock was granted (at once, or handed over by a release).
    LockGrant,
    /// A runtime message of this many encoded bytes was sent (simulator).
    Sent(usize),
    /// A parallel process was started (simulator).
    Invoke,
    /// A telemetry delta was applied at the aggregator. Neither telemetry
    /// count is one of [`KERNEL_COUNTERS`]: only a watched run moves them.
    TelemetryIn,
    /// A telemetry delta named another PE than its sender, or did not
    /// decode, and was dropped.
    TelemetryCorrupt,
}

/// A counter the requester side bumps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GmCount {
    /// The application called a read, write or fetch-add entry point.
    Op,
    /// An own-node read of this many bytes.
    LocalRead(usize),
    /// An own-node write of this many bytes.
    LocalWrite(usize),
    /// An own-node fetch-add.
    LocalFetchAdd,
    /// A read (or part of one) served from an installed replica.
    ReplicaHit,
    /// A cacheable block that had to be fetched from its home.
    ReplicaMiss,
    /// A segment merged into an already staged one instead of becoming a
    /// request of its own.
    Coalesced,
    /// A GM request message was put on the wire.
    RequestMsg,
    /// Release consistency dropped this node's replicas at an acquire point.
    RcAcquire,
    /// A request went on the wire again. `gm_retries` is not one of
    /// [`KERNEL_COUNTERS`]: only a wire that loses messages moves it.
    Retry,
}

/// A count either side hands over: the counters it moves, and by how much.
pub trait Count: Copy {
    /// Call `add` with each `kernel/*` counter this count moves and the
    /// amount it moves it by.
    fn each(self, add: impl FnMut(&'static str, u64));
}

impl Count for KernelCount {
    fn each(self, mut add: impl FnMut(&'static str, u64)) {
        match self {
            KernelCount::RemoteRead(bytes) => {
                add("gm_remote_reads", 1);
                add("gm_bytes_read", bytes as u64);
            }
            KernelCount::RemoteWrite(bytes) => {
                add("gm_remote_writes", 1);
                add("gm_bytes_written", bytes as u64);
            }
            KernelCount::FetchAdd => add("fetch_adds", 1),
            KernelCount::DirLeases(n) => add("dir_leases", n),
            KernelCount::DirInval => add("dir_invals", 1),
            KernelCount::RcDeferred => add("rc_deferred_invals", 1),
            KernelCount::InvalidationRound(holders) => {
                add("invalidation_rounds", 1);
                add("cache_invalidations", holders as u64);
            }
            KernelCount::BarrierEpoch => add("barrier_epochs", 1),
            KernelCount::LockGrant => add("lock_grants", 1),
            KernelCount::Sent(bytes) => {
                add("messages", 1);
                add("message_bytes", bytes as u64);
            }
            KernelCount::Invoke => add("invokes", 1),
            KernelCount::TelemetryIn => add("telemetry_in", 1),
            KernelCount::TelemetryCorrupt => add("telemetry_corrupt", 1),
        }
    }
}

impl Count for GmCount {
    fn each(self, mut add: impl FnMut(&'static str, u64)) {
        match self {
            GmCount::Op => add("gm_ops", 1),
            GmCount::LocalRead(bytes) => {
                add("gm_local_reads", 1);
                add("gm_bytes_read", bytes as u64);
            }
            GmCount::LocalWrite(bytes) => {
                add("gm_local_writes", 1);
                add("gm_bytes_written", bytes as u64);
            }
            GmCount::LocalFetchAdd => add("fetch_adds", 1),
            GmCount::ReplicaHit => {
                add("cache_hits", 1);
                add("dir_hits", 1);
            }
            GmCount::ReplicaMiss => {
                add("cache_misses", 1);
                add("dir_misses", 1);
            }
            GmCount::Coalesced => add("gm_coalesced", 1),
            GmCount::RequestMsg => add("gm_request_msgs", 1),
            GmCount::RcAcquire => add("rc_acquires", 1),
            GmCount::Retry => add("gm_retries", 1),
        }
    }
}

/// One PE's series in a run's registry: its `kernel/*` counters and gauges,
/// and the requester's latency histograms. The simulator's `kernel/*`
/// series carry the machine hosting the PE; a histogram, and every series
/// of the live engine, carries none.
#[derive(Clone, Copy)]
pub struct PeCounters<'a> {
    metrics: &'a Registry,
    pe: u32,
    machine: Option<u32>,
}

impl<'a> PeCounters<'a> {
    /// PE `pe`'s counters in `metrics`, tagged with `machine` if given.
    pub fn new(metrics: &'a Registry, pe: u32, machine: Option<u32>) -> PeCounters<'a> {
        PeCounters {
            metrics,
            pe,
            machine,
        }
    }

    fn key(self, name: &'static str) -> MetricKey {
        MetricKey {
            machine: self.machine,
            ..MetricKey::pe("kernel", name, self.pe)
        }
    }

    /// Register every name of [`KERNEL_COUNTERS`] at zero.
    pub fn register(self) {
        for name in KERNEL_COUNTERS {
            self.metrics.add(self.key(name), 0);
        }
    }

    /// Add `what` to the counters it moves.
    pub fn count(self, what: impl Count) {
        what.each(|name, n| self.metrics.add(self.key(name), n));
    }

    /// Raise the `kernel/name` gauge to `value` if it is below.
    pub fn gauge_max(self, name: &'static str, value: u64) {
        self.metrics.gauge_max(self.key(name), value);
    }

    /// Add a sample of `value` to the `subsystem/name` histogram.
    pub fn record(self, subsystem: &'static str, name: &'static str, value: u64) {
        self.metrics
            .record(MetricKey::pe(subsystem, name, self.pe), value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use GmCount as G;
    use KernelCount as K;

    /// The counters `what` moves in a fresh registry and their values, in
    /// name order.
    fn moved(what: impl Count) -> Vec<(&'static str, u64)> {
        let reg = Registry::new();
        PeCounters::new(&reg, 1, None).count(what);
        let snap = reg.snapshot();
        snap.counters
            .iter()
            .map(|(k, v)| {
                assert_eq!((k.subsystem, k.pe, k.machine), ("kernel", Some(1), None));
                (k.name, *v)
            })
            .collect()
    }

    #[test]
    fn each_count_moves_exactly_the_names_design_lists() {
        let mut seen = Vec::new();
        let mut check = |got: Vec<(&'static str, u64)>, want: &[(&'static str, u64)]| {
            assert_eq!(got, want);
            seen.extend(got.into_iter().map(|(name, _)| name));
        };
        check(
            moved(K::RemoteRead(3)),
            &[("gm_bytes_read", 3), ("gm_remote_reads", 1)],
        );
        check(
            moved(K::RemoteWrite(5)),
            &[("gm_bytes_written", 5), ("gm_remote_writes", 1)],
        );
        check(moved(K::FetchAdd), &[("fetch_adds", 1)]);
        check(moved(K::DirLeases(7)), &[("dir_leases", 7)]);
        check(moved(K::DirInval), &[("dir_invals", 1)]);
        check(moved(K::RcDeferred), &[("rc_deferred_invals", 1)]);
        check(
            moved(K::InvalidationRound(2)),
            &[("cache_invalidations", 2), ("invalidation_rounds", 1)],
        );
        check(moved(K::BarrierEpoch), &[("barrier_epochs", 1)]);
        check(moved(K::LockGrant), &[("lock_grants", 1)]);
        check(
            moved(K::Sent(11)),
            &[("message_bytes", 11), ("messages", 1)],
        );
        check(moved(K::Invoke), &[("invokes", 1)]);
        check(
            moved(G::LocalRead(13)),
            &[("gm_bytes_read", 13), ("gm_local_reads", 1)],
        );
        check(
            moved(G::LocalWrite(17)),
            &[("gm_bytes_written", 17), ("gm_local_writes", 1)],
        );
        check(moved(G::LocalFetchAdd), &[("fetch_adds", 1)]);
        check(moved(G::ReplicaHit), &[("cache_hits", 1), ("dir_hits", 1)]);
        check(
            moved(G::ReplicaMiss),
            &[("cache_misses", 1), ("dir_misses", 1)],
        );
        check(moved(G::Coalesced), &[("gm_coalesced", 1)]);
        check(moved(G::RequestMsg), &[("gm_request_msgs", 1)]);
        check(moved(G::RcAcquire), &[("rc_acquires", 1)]);
        check(moved(G::Op), &[("gm_ops", 1)]);
        // Between them the counts move every listed name, and no other
        // but the retransmit and telemetry counts.
        assert_eq!(moved(G::Retry), [("gm_retries", 1)]);
        assert_eq!(moved(K::TelemetryIn), [("telemetry_in", 1)]);
        assert_eq!(moved(K::TelemetryCorrupt), [("telemetry_corrupt", 1)]);
        seen.sort_unstable();
        seen.dedup();
        let mut list = KERNEL_COUNTERS.to_vec();
        list.sort_unstable();
        assert_eq!(seen, list);
    }

    #[test]
    fn registration_lists_every_name_at_zero_on_the_pes_machine() {
        let reg = Registry::new();
        let pe = PeCounters::new(&reg, 2, Some(1));
        pe.register();
        pe.count(G::LocalRead(8));
        pe.gauge_max("gm_inflight", 3);
        pe.record("gm", "blocked_ns", 5);
        let snap = reg.snapshot();
        assert_eq!(snap.counters.len(), KERNEL_COUNTERS.len());
        assert!(snap.counters.iter().all(|(k, _)| k.machine == Some(1)));
        assert!(snap.gauges.iter().all(|(k, _)| k.machine == Some(1)));
        let (key, hist) = &snap.histograms[0];
        assert_eq!((key.pe, key.machine, hist.count()), (Some(2), None, 1));
        assert_eq!(snap.counter("kernel", "gm_bytes_read", Some(2)), Some(8));
        assert_eq!(snap.counter("kernel", "invokes", Some(2)), Some(0));
    }
}
