//! The in-band telemetry plane, one module for both kernel drivers
//! (DESIGN.md §5c).
//!
//! Every kernel keeps a [`Telemetry`]: its PE's [`DeltaTracker`] and the
//! run's epoch hook. On each tick the driver asks it for the PE's
//! [`Telemetry::delta`] and ships that `Message::Telemetry` to PE 0 the way
//! the engine sends anything; PE 0's kernel hands what arrives to
//! [`Telemetry::ingest`]; at `KernelShutdown` each kernel lands its PE's
//! absolute state with [`Telemetry::flush`]. All of it goes into one
//! [`ClusterAggregator`] per run ([`aggregator`]), which sits beside the
//! metrics registry and which the driver passes in. Only the pacing of
//! ticks is the engine's: a virtual-time timer on the simulator's kernel
//! component, the wall clock against the last emission on the live task.
//!
//! The hook fires when PE 0's own delta has been applied — it was emitted
//! last in its round, so every older delta of the round has been too —
//! and once more when the last PE's shutdown flush lands, on the final
//! aggregator.

use std::ops::Deref;

use parking_lot::Mutex;

use dse_msg::Message;
use dse_obs::{
    ClusterAggregator, DeltaTracker, MetricsSnapshot, NodeStatus, Registry, TelemetryDelta,
};

use crate::counters::{KernelCount, PeCounters};

/// What the epoch hook is: called with the aggregator and the engine clock
/// in nanoseconds (virtual on the simulator, wall on the live engine).
pub type EpochHook<'a> = dyn Fn(&ClusterAggregator, u64) + Send + Sync + 'a;

/// A run's one aggregator, expecting `npes` emitting PEs.
pub fn aggregator(npes: usize) -> Mutex<ClusterAggregator> {
    Mutex::new(ClusterAggregator::new(npes))
}

/// Telemetry-plane results of a run, on either engine.
#[derive(Debug, Clone)]
pub struct TelemetrySummary {
    /// The cluster rollup rebuilt purely from in-band `Telemetry` deltas
    /// and the shutdown flushes. On a clean shutdown it matches the run's
    /// registry snapshot byte for byte.
    pub rollup: MetricsSnapshot,
    /// Aggregator-side health of every emitting PE (sequence numbers,
    /// gaps, stale drops, last-heard time, finalized).
    pub nodes: Vec<NodeStatus>,
}

impl TelemetrySummary {
    /// What `aggregator` holds now.
    pub fn of(aggregator: &Mutex<ClusterAggregator>) -> TelemetrySummary {
        let agg = aggregator.lock();
        TelemetrySummary {
            rollup: agg.rollup(),
            nodes: agg.nodes().to_vec(),
        }
    }
}

/// One kernel's share of the telemetry plane: its PE's delta tracker and
/// the run's epoch hook, if one is installed.
pub struct Telemetry<H> {
    tracker: DeltaTracker,
    hook: Option<H>,
}

impl<H: Deref<Target: Fn(&ClusterAggregator, u64)>> Telemetry<H> {
    /// The plane of PE `pe`'s kernel. PE 0's tracker also ships the
    /// cluster-global series.
    pub fn new(pe: u32, hook: Option<H>) -> Telemetry<H> {
        Telemetry {
            tracker: DeltaTracker::new(pe, pe == 0),
            hook,
        }
    }

    /// This tick's delta for PE 0, or `None` when nothing changed. PE 0
    /// always emits: its own delta is the heartbeat that closes each
    /// aggregation epoch and keeps the staleness clock going.
    pub fn delta(&mut self, metrics: &Registry) -> Option<Message> {
        let pe = self.tracker.pe();
        let snap = self.tracker.snapshot(metrics);
        let (seq, d) = self.tracker.delta(&snap, pe == 0)?;
        let payload = d.encode();
        Some(Message::Telemetry { pe, seq, payload })
    }

    /// Apply a `Telemetry` message that PE `from` sent to this kernel,
    /// counting it in `counters`. A delta speaks only for the PE that sent
    /// it: the aggregator grows its node table up to the PE a delta names,
    /// so one that names another PE is dropped, charged to no sequence. A
    /// payload that does not decode is a lost emission, a sequence gap —
    /// the plane degrades, the run does not. Both count
    /// `kernel/telemetry_corrupt`; an applied delta counts
    /// `kernel/telemetry_in`.
    pub fn ingest(
        &self,
        aggregator: &Mutex<ClusterAggregator>,
        counters: PeCounters<'_>,
        from: u32,
        msg: Message,
        now_ns: u64,
    ) {
        let Message::Telemetry { pe, seq, payload } = msg else {
            return;
        };
        let mut agg = aggregator.lock();
        if pe != from || !land(&mut agg, pe, seq, &payload, now_ns) {
            counters.count(KernelCount::TelemetryCorrupt);
            return;
        }
        counters.count(KernelCount::TelemetryIn);
        if pe == self.tracker.pe() {
            self.fire(&agg, now_ns);
        }
    }

    /// Shutdown flush: apply this PE's absolute state straight to the
    /// aggregator, which marks the node finalized. The wire cannot carry it
    /// (the aggregating kernel exits on the same shutdown wave and late
    /// messages would be dropped), but it crosses the encode/decode path
    /// the wire uses, so the rollup stays a pure product of the in-band
    /// codec. The flush that finalizes the last node fires the hook.
    pub fn flush(&mut self, agg: &Mutex<ClusterAggregator>, metrics: &Registry, now_ns: u64) {
        let snap = self.tracker.snapshot(metrics);
        let (seq, d) = self.tracker.absolute(&snap);
        let mut agg = agg.lock();
        land(&mut agg, self.tracker.pe(), seq, &d.encode(), now_ns);
        if agg.nodes().iter().all(|n| n.finalized) {
            self.fire(&agg, now_ns);
        }
    }

    fn fire(&self, agg: &ClusterAggregator, now_ns: u64) {
        if let Some(hook) = &self.hook {
            hook(agg, now_ns);
        }
    }
}

/// Decode `payload` and apply it as PE `pe`'s emission `seq`, or note the
/// emission as lost if it does not decode. Returns whether it applied.
fn land(agg: &mut ClusterAggregator, pe: u32, seq: u32, payload: &[u8], now_ns: u64) -> bool {
    let delta = TelemetryDelta::decode(payload).ok();
    match &delta {
        Some(d) => agg.apply(pe, seq, now_ns, d),
        None => agg.note_corrupt(pe, seq, now_ns),
    }
    delta.is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    use dse_obs::MetricKey;

    /// Hook calls seen, and whether the last one saw every node finalized.
    #[derive(Default)]
    struct Seen {
        calls: AtomicUsize,
        all_final: AtomicBool,
    }

    impl Seen {
        fn hook(&self) -> impl Fn(&ClusterAggregator, u64) + Send + Sync + '_ {
            |agg, _| {
                self.calls.fetch_add(1, Ordering::SeqCst);
                let done = agg.nodes().iter().all(|n| n.finalized);
                self.all_final.store(done, Ordering::SeqCst);
            }
        }

        fn calls(&self) -> usize {
            self.calls.load(Ordering::SeqCst)
        }
    }

    fn counter(metrics: &Registry, name: &str) -> Option<u64> {
        metrics.snapshot().counter("kernel", name, Some(0))
    }

    /// A `Telemetry` message from PE `pe` carrying `payload`.
    fn telemetry(pe: u32, seq: u32, payload: Vec<u8>) -> Message {
        Message::Telemetry { pe, seq, payload }
    }

    #[test]
    fn a_delta_naming_another_pe_is_dropped_and_counted() {
        let (agg, metrics) = (aggregator(2), Registry::new());
        let seen = Seen::default();
        let hook = seen.hook();
        let pe0 = Telemetry::new(0, Some(&hook as &EpochHook));
        let forged = telemetry(u32::MAX, 1, TelemetryDelta::default().encode());
        pe0.ingest(&agg, PeCounters::new(&metrics, 0, None), 1, forged, 5);
        assert_eq!(agg.lock().nodes().len(), 2, "the node table grew");
        assert_eq!(counter(&metrics, "telemetry_corrupt"), Some(1));
        assert_eq!(counter(&metrics, "telemetry_in"), None);
        assert_eq!(seen.calls(), 0);
    }

    #[test]
    fn a_payload_that_does_not_decode_is_a_counted_gap() {
        let (agg, metrics) = (aggregator(2), Registry::new());
        let pe0: Telemetry<&EpochHook> = Telemetry::new(0, None);
        let bad = telemetry(1, 2, vec![0xff, 0xff, 0xff]);
        pe0.ingest(&agg, PeCounters::new(&metrics, 0, None), 1, bad, 5);
        let node = agg.lock().nodes()[1].clone();
        assert_eq!((node.gaps, node.last_seq, node.deltas_applied), (2, 2, 0));
        assert_eq!(counter(&metrics, "telemetry_corrupt"), Some(1));
        assert_eq!(counter(&metrics, "telemetry_in"), None);
    }

    #[test]
    fn only_pe0s_own_delta_fires_the_hook() -> Result<(), &'static str> {
        let (agg, metrics) = (aggregator(2), Registry::new());
        let seen = Seen::default();
        let hook = seen.hook();
        let mut pe0 = Telemetry::new(0, Some(&hook as &EpochHook));
        let mut pe1: Telemetry<&EpochHook> = Telemetry::new(1, None);
        let counters = PeCounters::new(&metrics, 0, None);
        metrics.add(MetricKey::pe("kernel", "messages", 1), 3);
        let foreign = pe1.delta(&metrics).ok_or("PE 1 changed")?;
        pe0.ingest(&agg, counters, 1, foreign, 5);
        assert_eq!(seen.calls(), 0, "a foreign delta closes no epoch");
        let own = pe0.delta(&metrics).ok_or("PE 0 always emits")?;
        pe0.ingest(&agg, counters, 0, own, 6);
        assert_eq!(seen.calls(), 1);
        assert_eq!(counter(&metrics, "telemetry_in"), Some(2));
        let rollup = agg.lock().rollup();
        assert_eq!(rollup.counter("kernel", "messages", Some(1)), Some(3));
        Ok(())
    }

    #[test]
    fn flush_finalizes_the_node_and_reproduces_its_series() -> Result<(), &'static str> {
        let (agg, metrics) = (aggregator(2), Registry::new());
        let seen = Seen::default();
        let hook = seen.hook();
        let mut pe0 = Telemetry::new(0, Some(&hook as &EpochHook));
        let mut pe1 = Telemetry::new(1, Some(&hook as &EpochHook));
        PeCounters::new(&metrics, 1, Some(1)).register();
        PeCounters::new(&metrics, 1, Some(1)).count(KernelCount::RemoteRead(8));
        metrics.gauge_max(MetricKey::pe("kernel", "gm_inflight", 1), 4);
        metrics.record(MetricKey::pe("gm", "remote_read_ns", 1), 1_234);
        // An incremental delta lands first; later changes reach the
        // aggregator only through the flush.
        let early = pe1.delta(&metrics).ok_or("PE 1 changed")?;
        pe0.ingest(&agg, PeCounters::new(&metrics, 0, None), 1, early, 5);
        metrics.record(MetricKey::pe("gm", "remote_read_ns", 1), 99);
        PeCounters::new(&metrics, 1, Some(1)).count(KernelCount::FetchAdd);
        pe1.flush(&agg, &metrics, 9);
        let node = agg.lock().nodes()[1].clone();
        assert!(node.finalized && node.gaps == 0 && node.stale_drops == 0);
        // Nothing of PE 0's has landed yet: the rollup is PE 1's series.
        assert_eq!(
            agg.lock().rollup().to_jsonl(),
            metrics.snapshot_pe(1, false).to_jsonl()
        );
        assert_eq!(seen.calls(), 0, "PE 0 is not finalized yet");
        pe0.flush(&agg, &metrics, 10);
        assert_eq!(seen.calls(), 1, "the last flush fires the hook");
        assert!(seen.all_final.load(Ordering::SeqCst));
        Ok(())
    }
}
