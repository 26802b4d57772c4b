//! Named metrics registry keyed by subsystem / metric name / PE / machine.
//!
//! Keys are `Copy` pairs of `&'static str` so hot-path updates never
//! allocate; storage is `BTreeMap` so snapshots and exports iterate in a
//! deterministic order regardless of insertion history.
//!
//! Every PE's kernel and application thread update the one registry of a
//! run, so it is sharded by PE: an update locks only the shard its key
//! lives in, and a snapshot merges the shards back into one key-sorted
//! copy.

use std::collections::BTreeMap;

use parking_lot::Mutex;

use crate::hist::LogHistogram;
use crate::jsonl;

/// Identity of one metric series.
///
/// `pe`/`machine` are `None` for cluster-global series. Ordering (and thus
/// export order) is subsystem, then name, then pe, then machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Emitting subsystem, e.g. `"kernel"`, `"net"`, `"gm"`, `"api"`.
    pub subsystem: &'static str,
    /// Metric name, e.g. `"remote_read_ns"`.
    pub name: &'static str,
    /// Processor element (node id) the series belongs to, if per-PE.
    pub pe: Option<u32>,
    /// Machine the PE lives on, if known.
    pub machine: Option<u32>,
}

impl MetricKey {
    /// A cluster-global series.
    pub fn global(subsystem: &'static str, name: &'static str) -> MetricKey {
        MetricKey {
            subsystem,
            name,
            pe: None,
            machine: None,
        }
    }

    /// A per-PE series.
    pub fn pe(subsystem: &'static str, name: &'static str, pe: u32) -> MetricKey {
        MetricKey {
            subsystem,
            name,
            pe: Some(pe),
            machine: None,
        }
    }

    /// Attach the machine hosting this PE.
    pub fn on_machine(mut self, machine: u32) -> MetricKey {
        self.machine = Some(machine);
        self
    }
}

/// Shards of per-PE series: PE `pe`'s series live in shard `pe % SHARDS`.
/// Fixed rather than sized per run: `Registry::new` takes no PE count, an
/// unused shard allocates nothing, and two PEs share a lock only when they
/// are a multiple of 64 apart.
const SHARDS: usize = 64;

/// The series of one shard.
#[derive(Debug, Default)]
struct Shard {
    counters: BTreeMap<MetricKey, u64>,
    gauges: BTreeMap<MetricKey, u64>,
    histograms: BTreeMap<MetricKey, LogHistogram>,
}

/// Thread-safe metrics registry shared by every kernel/PE in a run.
///
/// Works identically under the simulator (virtual-time samples) and the
/// live engine (wall-clock samples): values are plain `u64`s and the
/// registry never looks at a clock itself.
#[derive(Debug)]
pub struct Registry {
    /// `SHARDS` per-PE shards, then one for the cluster-global series. A
    /// key lives in exactly one shard, so merging them loses nothing.
    shards: Box<[Mutex<Shard>]>,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry {
            shards: (0..=SHARDS).map(|_| Mutex::default()).collect(),
        }
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The shard holding `pe`'s series (`None`: the global ones).
    fn shard(&self, pe: Option<u32>) -> &Mutex<Shard> {
        &self.shards[pe.map_or(SHARDS, |pe| pe as usize % SHARDS)]
    }

    /// Add `delta` to a counter (creating it at zero).
    pub fn add(&self, key: MetricKey, delta: u64) {
        let mut shard = self.shard(key.pe).lock();
        *shard.counters.entry(key).or_insert(0) += delta;
    }

    /// Increment a counter by one.
    pub fn incr(&self, key: MetricKey) {
        self.add(key, 1);
    }

    /// Set a gauge to `value` (last write wins).
    pub fn set_gauge(&self, key: MetricKey, value: u64) {
        self.shard(key.pe).lock().gauges.insert(key, value);
    }

    /// Raise a gauge to `value` if it is below it (high-water mark).
    pub fn gauge_max(&self, key: MetricKey, value: u64) {
        let mut shard = self.shard(key.pe).lock();
        let g = shard.gauges.entry(key).or_insert(0);
        *g = (*g).max(value);
    }

    /// Record one sample into a histogram (creating it empty).
    pub fn record(&self, key: MetricKey, value: u64) {
        let mut shard = self.shard(key.pe).lock();
        shard.histograms.entry(key).or_default().record(value);
    }

    /// Copy out everything, sorted by key. Shards are copied one at a time,
    /// so a snapshot taken while other threads update is exact per PE, not
    /// across PEs.
    pub fn snapshot(&self) -> MetricsSnapshot {
        merge(self.shards.iter(), |_| true)
    }

    /// Copy out `pe`'s series only, plus the cluster-global ones when
    /// `include_global` is set, sorted by key: what one PE's telemetry
    /// tracker ships, without copying every other PE's series.
    pub fn snapshot_pe(&self, pe: u32, include_global: bool) -> MetricsSnapshot {
        let global = include_global.then(|| self.shard(None));
        merge(std::iter::once(self.shard(Some(pe))).chain(global), |k| {
            k.pe.is_none_or(|p| p == pe)
        })
    }
}

/// The series of `shards` that `keep` accepts, as one key-sorted snapshot.
fn merge<'a>(
    shards: impl Iterator<Item = &'a Mutex<Shard>>,
    keep: impl Fn(&MetricKey) -> bool,
) -> MetricsSnapshot {
    let mut s = MetricsSnapshot::default();
    for shard in shards {
        let shard = shard.lock();
        pick(&mut s.counters, &shard.counters, &keep);
        pick(&mut s.gauges, &shard.gauges, &keep);
        pick(&mut s.histograms, &shard.histograms, &keep);
    }
    s.counters.sort_unstable_by_key(|(k, _)| *k);
    s.gauges.sort_unstable_by_key(|(k, _)| *k);
    s.histograms.sort_unstable_by_key(|(k, _)| *k);
    s
}

/// Append the series of `from` that `keep` accepts to `into`.
fn pick<V: Clone>(
    into: &mut Vec<(MetricKey, V)>,
    from: &BTreeMap<MetricKey, V>,
    keep: &impl Fn(&MetricKey) -> bool,
) {
    into.extend(
        from.iter()
            .filter(|(k, _)| keep(k))
            .map(|(k, v)| (*k, v.clone())),
    );
}

/// An owned, ordered copy of a [`Registry`] at one point in time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotone counters, sorted by key.
    pub counters: Vec<(MetricKey, u64)>,
    /// Point-in-time gauges, sorted by key.
    pub gauges: Vec<(MetricKey, u64)>,
    /// Latency/size histograms, sorted by key.
    pub histograms: Vec<(MetricKey, LogHistogram)>,
}

impl MetricsSnapshot {
    /// Look up a counter.
    pub fn counter(&self, subsystem: &str, name: &str, pe: Option<u32>) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k.subsystem == subsystem && k.name == name && k.pe == pe)
            .map(|(_, v)| *v)
    }

    /// Look up a gauge.
    pub fn gauge(&self, subsystem: &str, name: &str, pe: Option<u32>) -> Option<u64> {
        self.gauges
            .iter()
            .find(|(k, _)| k.subsystem == subsystem && k.name == name && k.pe == pe)
            .map(|(_, v)| *v)
    }

    /// Look up a histogram.
    pub fn histogram(&self, subsystem: &str, name: &str, pe: Option<u32>) -> Option<&LogHistogram> {
        self.histograms
            .iter()
            .find(|(k, _)| k.subsystem == subsystem && k.name == name && k.pe == pe)
            .map(|(_, h)| h)
    }

    /// Sum a counter across all PEs (ignores the global series if present).
    pub fn counter_sum_over_pes(&self, subsystem: &str, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.subsystem == subsystem && k.name == name && k.pe.is_some())
            .map(|(_, v)| *v)
            .sum()
    }

    /// Append extra counters kept outside the registry (e.g. the
    /// simulator's event-loop total) keeping the snapshot sorted and
    /// deterministic. Duplicate keys accumulate.
    pub fn absorb_counters(&mut self, extra: impl IntoIterator<Item = (MetricKey, u64)>) {
        let mut map: BTreeMap<MetricKey, u64> = self.counters.iter().copied().collect();
        for (k, v) in extra {
            *map.entry(k).or_insert(0) += v;
        }
        self.counters = map.into_iter().collect();
    }

    /// Serialize as JSON Lines (one object per metric; see DESIGN.md for
    /// the schema). Deterministic: ordered by key, integers only.
    pub fn to_jsonl(&self) -> String {
        jsonl::metrics_jsonl(self)
    }

    /// Serialize as CSV (`kind,subsystem,name,pe,machine,value,...`).
    pub fn to_csv(&self) -> String {
        jsonl::metrics_csv(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_sort() {
        let r = Registry::new();
        r.add(MetricKey::pe("net", "frames", 1), 2);
        r.incr(MetricKey::pe("net", "frames", 0));
        r.add(MetricKey::pe("net", "frames", 1), 3);
        r.add(MetricKey::global("net", "frames"), 10);
        let s = r.snapshot();
        assert_eq!(s.counter("net", "frames", Some(1)), Some(5));
        assert_eq!(s.counter("net", "frames", Some(0)), Some(1));
        assert_eq!(s.counter("net", "frames", None), Some(10));
        assert_eq!(s.counter_sum_over_pes("net", "frames"), 6);
        // Global (pe=None) sorts before per-PE entries of the same name.
        let keys: Vec<_> = s.counters.iter().map(|(k, _)| k.pe).collect();
        assert_eq!(keys, vec![None, Some(0), Some(1)]);
    }

    #[test]
    fn gauges_and_histograms() {
        let r = Registry::new();
        r.set_gauge(MetricKey::global("net", "queue_depth"), 4);
        r.gauge_max(MetricKey::global("net", "queue_depth_max"), 2);
        r.gauge_max(MetricKey::global("net", "queue_depth_max"), 7);
        r.gauge_max(MetricKey::global("net", "queue_depth_max"), 5);
        r.record(MetricKey::pe("gm", "remote_read_ns", 0), 100);
        r.record(MetricKey::pe("gm", "remote_read_ns", 0), 300);
        let s = r.snapshot();
        assert_eq!(s.gauges[0].1, 4);
        assert_eq!(s.gauges[1].1, 7);
        let h = s.histogram("gm", "remote_read_ns", Some(0)).unwrap();
        assert_eq!(h.count(), 2);
        assert!(h.p50() >= 100 && h.p99() <= 300);
    }

    #[test]
    fn absorb_counters_merges_sorted() {
        let r = Registry::new();
        r.add(MetricKey::pe("kernel", "messages", 1), 1);
        let mut s = r.snapshot();
        s.absorb_counters(vec![
            (MetricKey::pe("kernel", "messages", 0), 4),
            (MetricKey::pe("kernel", "messages", 1), 2),
        ]);
        assert_eq!(s.counter("kernel", "messages", Some(0)), Some(4));
        assert_eq!(s.counter("kernel", "messages", Some(1)), Some(3));
        assert!(s.counters.windows(2).all(|w| w[0].0 < w[1].0));
    }
}
