//! The protocol's counters: what both engines count, and the one mapping
//! from a count to the `kernel/*` series of the run's metrics registry
//! (DESIGN.md §5m/§5n).
//!
//! There is one store. The serving side's ports hand a [`KernelCount`], and
//! the requester's shared client code a [`GmCount`], to the counting PE's
//! [`PeCounters`], which adds it to that PE's series in the run's
//! `dse_obs::Registry`; the client records its latency samples and its
//! in-flight gauge through the same handle. Each of these series is a slot
//! of `LAYOUT`, given to a PE when it is registered and indexed by the
//! count's variant, so a count is one atomic add. Every name of
//! [`KERNEL_COUNTERS`] is registered at zero for every PE when a cluster is
//! built, so an export, a telemetry flush and the SSI node table list all
//! of them whether the run moved them or not.

use dse_obs::{MetricKey, PeSlots, Registry, SlotLayout, SlotSeries};

/// The `kernel/*` counters every PE has on either engine, registered at
/// zero when a cluster is built. `messages` and `message_bytes` are the
/// runtime messages a node sent (`Sent`) on both engines; only the
/// simulator counts `Invoke` (the launcher's `invokes`).
pub const KERNEL_COUNTERS: [&str; 25] = {
    let mut names = [""; 25];
    let mut i = 0;
    while i < names.len() {
        names[i] = COUNTERS[i].name;
        i += 1;
    }
    names
};

/// A `kernel/*` counter a PE keeps in a slot: the [`KERNEL_COUNTERS`] in
/// their order, then the ones only some runs move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// `gm_local_reads`.
    GmLocalReads,
    /// `gm_remote_reads`.
    GmRemoteReads,
    /// `gm_local_writes`.
    GmLocalWrites,
    /// `gm_remote_writes`.
    GmRemoteWrites,
    /// `gm_bytes_read`.
    GmBytesRead,
    /// `gm_bytes_written`.
    GmBytesWritten,
    /// `fetch_adds`.
    FetchAdds,
    /// `messages`.
    Messages,
    /// `message_bytes`.
    MessageBytes,
    /// `barrier_epochs`.
    BarrierEpochs,
    /// `lock_grants`.
    LockGrants,
    /// `invokes`.
    Invokes,
    /// `cache_hits`.
    CacheHits,
    /// `cache_misses`.
    CacheMisses,
    /// `cache_invalidations`.
    CacheInvalidations,
    /// `gm_request_msgs`.
    GmRequestMsgs,
    /// `gm_coalesced`.
    GmCoalesced,
    /// `invalidation_rounds`.
    InvalidationRounds,
    /// `dir_hits`.
    DirHits,
    /// `dir_misses`.
    DirMisses,
    /// `dir_leases`.
    DirLeases,
    /// `dir_invals`.
    DirInvals,
    /// `rc_deferred_invals`.
    RcDeferredInvals,
    /// `rc_acquires`.
    RcAcquires,
    /// `gm_ops`.
    GmOps,
    /// `requests_served`.
    RequestsServed,
    /// `app_direct_msgs`.
    AppDirectMsgs,
    /// `gm_dup_requests`.
    GmDupRequests,
    /// `gm_deadline_trips`.
    GmDeadlineTrips,
    /// `gm_retries`.
    GmRetries,
    /// `telemetry_in`.
    TelemetryIn,
    /// `telemetry_corrupt`.
    TelemetryCorrupt,
}

/// A per-operation histogram a PE keeps in a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sample {
    /// `gm/remote_read_ns`.
    RemoteRead,
    /// `gm/remote_write_ns`.
    RemoteWrite,
    /// `gm/fetch_add_ns`.
    FetchAdd,
    /// `gm/batch_ns`.
    Batch,
    /// `gm/blocked_ns`.
    Blocked,
    /// `sync/barrier_wait_ns`.
    BarrierWait,
    /// `sync/lock_wait_ns`.
    LockWait,
    /// `kernel/service_ns`.
    Service,
}

/// A `kernel/*` series, on the PE's machine.
const fn kernel(name: &'static str) -> SlotSeries {
    SlotSeries {
        subsystem: "kernel",
        name,
        on_machine: true,
    }
}

/// A requester's series, on no machine.
const fn requester(subsystem: &'static str, name: &'static str) -> SlotSeries {
    SlotSeries {
        subsystem,
        name,
        on_machine: false,
    }
}

/// The series of [`Counter`], by variant.
const COUNTERS: [SlotSeries; 32] = [
    kernel("gm_local_reads"),
    kernel("gm_remote_reads"),
    kernel("gm_local_writes"),
    kernel("gm_remote_writes"),
    kernel("gm_bytes_read"),
    kernel("gm_bytes_written"),
    kernel("fetch_adds"),
    kernel("messages"),
    kernel("message_bytes"),
    kernel("barrier_epochs"),
    kernel("lock_grants"),
    kernel("invokes"),
    kernel("cache_hits"),
    kernel("cache_misses"),
    kernel("cache_invalidations"),
    kernel("gm_request_msgs"),
    kernel("gm_coalesced"),
    kernel("invalidation_rounds"),
    kernel("dir_hits"),
    kernel("dir_misses"),
    kernel("dir_leases"),
    kernel("dir_invals"),
    kernel("rc_deferred_invals"),
    kernel("rc_acquires"),
    kernel("gm_ops"),
    kernel("requests_served"),
    kernel("app_direct_msgs"),
    kernel("gm_dup_requests"),
    kernel("gm_deadline_trips"),
    kernel("gm_retries"),
    kernel("telemetry_in"),
    kernel("telemetry_corrupt"),
];

/// The one gauge: the requester's in-flight high-water mark.
const INFLIGHT: [SlotSeries; 1] = [kernel("gm_inflight")];

/// The series of [`Sample`], by variant.
const SAMPLES: [SlotSeries; 8] = [
    requester("gm", "remote_read_ns"),
    requester("gm", "remote_write_ns"),
    requester("gm", "fetch_add_ns"),
    requester("gm", "batch_ns"),
    requester("gm", "blocked_ns"),
    requester("sync", "barrier_wait_ns"),
    requester("sync", "lock_wait_ns"),
    kernel("service_ns"),
];

/// What every PE of a cluster keeps in slots of its own.
static LAYOUT: SlotLayout = SlotLayout {
    counters: &COUNTERS,
    gauges: &INFLIGHT,
    histograms: &SAMPLES,
};

/// A counter the serving side bumps: the protocol through
/// [`KernelPort::count`](crate::KernelPort::count), each engine's send
/// path (`Sent`, `AppDirect`), the driver (`DupRequest`), the simulator's
/// launcher (`Invoke`), and the telemetry plane's ingest (`TelemetryIn`,
/// `TelemetryCorrupt`).
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
    /// A runtime message of this many encoded bytes was sent.
    Sent(usize),
    /// A message for another PE's application went straight into its
    /// inbox (live direct run). Not one of [`KERNEL_COUNTERS`].
    AppDirect,
    /// A retransmitted request was answered from the dedup cache. Not one
    /// of [`KERNEL_COUNTERS`].
    DupRequest,
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
    /// A request ran out of retries past its deadline (live). Not one of
    /// [`KERNEL_COUNTERS`].
    DeadlineTrip,
}

/// A count either side hands over: the counters it moves, and by how much.
pub trait Count: Copy {
    /// Call `add` with each counter this count moves and the amount it
    /// moves it by.
    fn each(self, add: impl FnMut(Counter, u64));
}

impl Count for KernelCount {
    fn each(self, mut add: impl FnMut(Counter, u64)) {
        use Counter as C;
        match self {
            KernelCount::RemoteRead(bytes) => {
                add(C::GmRemoteReads, 1);
                add(C::GmBytesRead, bytes as u64);
            }
            KernelCount::RemoteWrite(bytes) => {
                add(C::GmRemoteWrites, 1);
                add(C::GmBytesWritten, bytes as u64);
            }
            KernelCount::FetchAdd => add(C::FetchAdds, 1),
            KernelCount::DirLeases(n) => add(C::DirLeases, n),
            KernelCount::DirInval => add(C::DirInvals, 1),
            KernelCount::RcDeferred => add(C::RcDeferredInvals, 1),
            KernelCount::InvalidationRound(holders) => {
                add(C::InvalidationRounds, 1);
                add(C::CacheInvalidations, holders as u64);
            }
            KernelCount::BarrierEpoch => add(C::BarrierEpochs, 1),
            KernelCount::LockGrant => add(C::LockGrants, 1),
            KernelCount::Sent(bytes) => {
                add(C::Messages, 1);
                add(C::MessageBytes, bytes as u64);
            }
            KernelCount::AppDirect => add(C::AppDirectMsgs, 1),
            KernelCount::DupRequest => add(C::GmDupRequests, 1),
            KernelCount::Invoke => add(C::Invokes, 1),
            KernelCount::TelemetryIn => add(C::TelemetryIn, 1),
            KernelCount::TelemetryCorrupt => add(C::TelemetryCorrupt, 1),
        }
    }
}

impl Count for GmCount {
    fn each(self, mut add: impl FnMut(Counter, u64)) {
        use Counter as C;
        match self {
            GmCount::Op => add(C::GmOps, 1),
            GmCount::LocalRead(bytes) => {
                add(C::GmLocalReads, 1);
                add(C::GmBytesRead, bytes as u64);
            }
            GmCount::LocalWrite(bytes) => {
                add(C::GmLocalWrites, 1);
                add(C::GmBytesWritten, bytes as u64);
            }
            GmCount::LocalFetchAdd => add(C::FetchAdds, 1),
            GmCount::ReplicaHit => {
                add(C::CacheHits, 1);
                add(C::DirHits, 1);
            }
            GmCount::ReplicaMiss => {
                add(C::CacheMisses, 1);
                add(C::DirMisses, 1);
            }
            GmCount::Coalesced => add(C::GmCoalesced, 1),
            GmCount::RequestMsg => add(C::GmRequestMsgs, 1),
            GmCount::RcAcquire => add(C::RcAcquires, 1),
            GmCount::Retry => add(C::GmRetries, 1),
            GmCount::DeadlineTrip => add(C::GmDeadlineTrips, 1),
        }
    }
}

/// One PE's series in a run's registry: its `kernel/*` counters and gauge,
/// and its per-operation histograms. A registered PE's are its slots,
/// resolved when the handle is made; a PE of a registry no cluster built
/// (a kernel task run alone) counts through the registry's map, to the same
/// keys. The `kernel/*` series of a PE registered on a machine carry it;
/// the requester's `gm/*` and `sync/*` histograms carry none.
#[derive(Clone, Copy)]
pub struct PeCounters<'a> {
    metrics: &'a Registry,
    pe: u32,
    machine: Option<u32>,
    slots: Option<&'a PeSlots>,
}

impl<'a> PeCounters<'a> {
    /// PE `pe`'s counters in `metrics`, tagged with `machine` if given.
    pub fn new(metrics: &'a Registry, pe: u32, machine: Option<u32>) -> PeCounters<'a> {
        let slots = metrics.slots(pe);
        debug_assert!(slots.is_none_or(|s| s.machine() == machine));
        PeCounters {
            metrics,
            pe,
            machine,
            slots,
        }
    }

    /// The key of `series` on this PE, for a registry that gave it no slots.
    fn key(self, series: &SlotSeries) -> MetricKey {
        MetricKey {
            machine: self.machine.filter(|_| series.on_machine),
            ..MetricKey::pe(series.subsystem, series.name, self.pe)
        }
    }

    /// Give the PE its slots and register every name of
    /// [`KERNEL_COUNTERS`] at zero.
    pub fn register(self) {
        let slots = self.metrics.register_pe(self.pe, self.machine, &LAYOUT);
        let pe = PeCounters { slots, ..self };
        for i in 0..KERNEL_COUNTERS.len() {
            pe.add(i, 0);
        }
    }

    /// Add `n` to counter `i` of [`COUNTERS`].
    fn add(self, i: usize, n: u64) {
        match self.slots {
            Some(slots) => slots.add(i, n),
            None => self.metrics.add(self.key(&COUNTERS[i]), n),
        }
    }

    /// Add `what` to the counters it moves.
    pub fn count(self, what: impl Count) {
        what.each(|c, n| self.add(c as usize, n));
    }

    /// One message served in `service_ns`: a `kernel/requests_served` and
    /// a `kernel/service_ns` sample.
    pub fn served(self, service_ns: u64) {
        self.add(Counter::RequestsServed as usize, 1);
        self.record(Sample::Service, service_ns);
    }

    /// Raise the `kernel/gm_inflight` gauge to `value` if it is below.
    pub fn inflight(self, value: u64) {
        match self.slots {
            Some(slots) => slots.gauge_max(0, value),
            None => self.metrics.gauge_max(self.key(&INFLIGHT[0]), value),
        }
    }

    /// Add a sample of `value` to `what`'s histogram.
    pub fn record(self, what: Sample, value: u64) {
        match self.slots {
            Some(slots) => slots.record(what as usize, value),
            None => self
                .metrics
                .record(self.key(&SAMPLES[what as usize]), value),
        }
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
        // but the retransmit, direct-delivery and telemetry counts.
        assert_eq!(moved(G::Retry), [("gm_retries", 1)]);
        assert_eq!(moved(G::DeadlineTrip), [("gm_deadline_trips", 1)]);
        assert_eq!(moved(K::AppDirect), [("app_direct_msgs", 1)]);
        assert_eq!(moved(K::DupRequest), [("gm_dup_requests", 1)]);
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
        PeCounters::new(&reg, 2, Some(1)).register();
        let pe = PeCounters::new(&reg, 2, Some(1));
        pe.count(G::LocalRead(8));
        pe.inflight(3);
        pe.record(Sample::Blocked, 5);
        pe.served(7);
        let snap = reg.snapshot();
        assert_eq!(snap.counters.len(), KERNEL_COUNTERS.len() + 1);
        assert!(snap.counters.iter().all(|(k, _)| k.machine == Some(1)));
        assert!(snap.gauges.iter().all(|(k, _)| k.machine == Some(1)));
        let hists: Vec<_> = snap
            .histograms
            .iter()
            .map(|(k, h)| (k.name, k.machine, h.count()))
            .collect();
        assert_eq!(hists, [("blocked_ns", None, 1), ("service_ns", Some(1), 1)]);
        assert_eq!(snap.counter("kernel", "gm_bytes_read", Some(2)), Some(8));
        assert_eq!(snap.counter("kernel", "invokes", Some(2)), Some(0));
        assert_eq!(snap.counter("kernel", "requests_served", Some(2)), Some(1));
        // The same counts through a registry that gave the PE no slots land
        // on the same keys.
        let map = Registry::new();
        for name in KERNEL_COUNTERS {
            map.add(MetricKey::pe("kernel", name, 2).on_machine(1), 0);
        }
        let pe = PeCounters::new(&map, 2, Some(1));
        pe.count(G::LocalRead(8));
        pe.inflight(3);
        pe.record(Sample::Blocked, 5);
        pe.served(7);
        assert_eq!(map.snapshot(), snap);
    }
}
