//! Named metrics registry keyed by subsystem / metric name / PE / machine.
//!
//! Keys are `Copy` pairs of `&'static str` so hot-path updates never
//! allocate; storage is `BTreeMap` so snapshots and exports iterate in a
//! deterministic order regardless of insertion history.
//!
//! Every PE's kernel and application thread update the one registry of a
//! run. A registered PE's per-operation series (a [`SlotLayout`] named at
//! registration) live in slots of its own, resolved once: a count is one
//! relaxed atomic add. Every other series is a map entry, sharded by PE so
//! an update locks only the shard its key lives in. A snapshot folds the
//! slots and the shards back into one key-sorted copy.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::OnceLock;

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

/// A series every registered PE keeps in a slot of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotSeries {
    /// Emitting subsystem.
    pub subsystem: &'static str,
    /// Metric name.
    pub name: &'static str,
    /// Whether the series carries the machine its PE was registered on.
    pub on_machine: bool,
}

/// The series a registered PE keeps in slots, one list per kind: a slot's
/// index is its series' position in its list. A list holds at most 64
/// series, each (subsystem, name) once.
#[derive(Debug)]
pub struct SlotLayout {
    /// Counter series.
    pub counters: &'static [SlotSeries],
    /// Gauge series.
    pub gauges: &'static [SlotSeries],
    /// Histogram series.
    pub histograms: &'static [SlotSeries],
}

/// One registered PE's slots: a count is one relaxed atomic add, a gauge
/// one atomic `fetch_max`, a sample one lock of that histogram's own
/// mutex. Nothing here is shared with another PE.
#[derive(Debug)]
pub struct PeSlots {
    pe: u32,
    machine: Option<u32>,
    /// Bit `i`: counter `i` exists (registered at zero, or written).
    counters_present: AtomicU64,
    /// Bit `i`: gauge `i` exists.
    gauges_present: AtomicU64,
    counters: Box<[AtomicU64]>,
    gauges: Box<[AtomicU64]>,
    histograms: Box<[Mutex<LogHistogram>]>,
}

/// Mark slot `i` of `present` as existing (the store is skipped once it is).
/// Relaxed throughout: a slot holds a statistic and publishes no other
/// data, so a snapshot racing an update may only miss that update.
fn mark(present: &AtomicU64, i: usize) {
    let bit = 1 << i;
    if present.load(Relaxed) & bit == 0 {
        present.fetch_or(bit, Relaxed);
    }
}

impl PeSlots {
    fn new(pe: u32, machine: Option<u32>, layout: &SlotLayout) -> PeSlots {
        let atomics = |n: usize| (0..n).map(|_| AtomicU64::new(0)).collect();
        PeSlots {
            pe,
            machine,
            counters_present: AtomicU64::new(0),
            gauges_present: AtomicU64::new(0),
            counters: atomics(layout.counters.len()),
            gauges: atomics(layout.gauges.len()),
            histograms: (0..layout.histograms.len())
                .map(|_| Mutex::default())
                .collect(),
        }
    }

    /// The machine the PE was registered on.
    pub fn machine(&self) -> Option<u32> {
        self.machine
    }

    /// Add `delta` to counter `i` (creating it at zero).
    pub fn add(&self, i: usize, delta: u64) {
        mark(&self.counters_present, i);
        self.counters[i].fetch_add(delta, Relaxed);
    }

    /// Raise gauge `i` to `value` if it is below it.
    pub fn gauge_max(&self, i: usize, value: u64) {
        mark(&self.gauges_present, i);
        self.gauges[i].fetch_max(value, Relaxed);
    }

    /// Set gauge `i` to `value`.
    fn set_gauge(&self, i: usize, value: u64) {
        mark(&self.gauges_present, i);
        self.gauges[i].store(value, Relaxed);
    }

    /// Record one sample into histogram `i`.
    pub fn record(&self, i: usize, value: u64) {
        self.histograms[i].lock().record(value);
    }

    /// Counter `i`, if it exists.
    fn counter(&self, i: usize) -> Option<u64> {
        let present = self.counters_present.load(Relaxed) & 1 << i != 0;
        present.then(|| self.counters[i].load(Relaxed))
    }

    /// Gauge `i`, if it exists.
    fn gauge(&self, i: usize) -> Option<u64> {
        let present = self.gauges_present.load(Relaxed) & 1 << i != 0;
        present.then(|| self.gauges[i].load(Relaxed))
    }

    /// A copy of histogram `i`, if it has a sample.
    fn histogram(&self, i: usize) -> Option<LogHistogram> {
        let h = self.histograms[i].lock();
        (h.count() > 0).then(|| h.clone())
    }

    /// The key of `series` on this PE.
    fn key(&self, series: &SlotSeries) -> MetricKey {
        MetricKey {
            machine: self.machine.filter(|_| series.on_machine),
            ..MetricKey::pe(series.subsystem, series.name, self.pe)
        }
    }
}

/// PEs per chunk of the slot table, and chunks: PEs `0..CHUNK * CHUNK` can
/// be registered; a PE past them keeps its series in the map.
const CHUNK: usize = 256;

/// The slots of a registry's registered PEs, made at the first
/// registration.
#[derive(Debug)]
struct Slots {
    layout: &'static SlotLayout,
    /// Each kind's slot indices (counters, gauges, histograms), in key
    /// order.
    order: [Box<[usize]>; 3],
    /// PE `pe`'s slots are `chunks[pe / CHUNK][pe % CHUNK]`; a chunk is
    /// allocated when its first PE registers.
    chunks: Box<[OnceLock<Chunk>]>,
}

/// `CHUNK` PEs' slots, each made when its PE registers.
type Chunk = Box<[OnceLock<Box<PeSlots>>]>;

impl Slots {
    fn new(layout: &'static SlotLayout) -> Slots {
        let order = |list: &[SlotSeries]| -> Box<[usize]> {
            assert!(list.len() <= 64, "more than 64 slots of one kind");
            let mut order: Vec<usize> = (0..list.len()).collect();
            order.sort_by_key(|&i| (list[i].subsystem, list[i].name));
            order.into()
        };
        Slots {
            layout,
            order: [
                order(layout.counters),
                order(layout.gauges),
                order(layout.histograms),
            ],
            chunks: (0..CHUNK).map(|_| OnceLock::new()).collect(),
        }
    }

    fn cell(&self, pe: u32) -> Option<&OnceLock<Box<PeSlots>>> {
        let pe = pe as usize;
        let chunk = self.chunks.get(pe / CHUNK)?;
        let chunk = chunk.get_or_init(|| (0..CHUNK).map(|_| OnceLock::new()).collect());
        Some(&chunk[pe % CHUNK])
    }

    fn get(&self, pe: u32) -> Option<&PeSlots> {
        let pe = pe as usize;
        let chunk = self.chunks.get(pe / CHUNK)?.get()?;
        chunk[pe % CHUNK].get().map(|s| &**s)
    }

    /// Every registered PE's slots, in PE order.
    fn registered(&self) -> Vec<&PeSlots> {
        let chunks = self.chunks.iter().filter_map(OnceLock::get);
        chunks
            .flat_map(|c| c.iter().filter_map(|s| s.get().map(|s| &**s)))
            .collect()
    }

    /// The slot `key` lives in on `slots`, if it is one: its index in the
    /// `kind`'s list (0 counters, 1 gauges, 2 histograms).
    fn find(&self, slots: &PeSlots, kind: usize, key: &MetricKey) -> Option<usize> {
        let list = self.lists()[kind];
        let at = self.order[kind]
            .binary_search_by(|&i| {
                (list[i].subsystem, list[i].name).cmp(&(key.subsystem, key.name))
            })
            .ok()?;
        let i = self.order[kind][at];
        (slots.key(&list[i]) == *key).then_some(i)
    }

    fn lists(&self) -> [&'static [SlotSeries]; 3] {
        let l = self.layout;
        [l.counters, l.gauges, l.histograms]
    }

    /// The series of `kind` that `pes` (in PE order) hold, in key order:
    /// series by series, PE by PE.
    fn entries<V>(
        &self,
        kind: usize,
        pes: &[&PeSlots],
        value: impl Fn(&PeSlots, usize) -> Option<V>,
    ) -> Vec<(MetricKey, V)> {
        let list = self.lists()[kind];
        let mut out = Vec::new();
        for &i in self.order[kind].iter() {
            for p in pes {
                if let Some(v) = value(p, i) {
                    out.push((p.key(&list[i]), v));
                }
            }
        }
        out
    }

    /// Fold the slots of `pes` (in PE order) into `s`, each kind in one
    /// merge with the map's sorted series.
    fn fold_into(&self, s: &mut MetricsSnapshot, pes: &[&PeSlots]) {
        merge_sorted(&mut s.counters, self.entries(0, pes, PeSlots::counter));
        merge_sorted(&mut s.gauges, self.entries(1, pes, PeSlots::gauge));
        merge_sorted(&mut s.histograms, self.entries(2, pes, PeSlots::histogram));
    }
}

/// Merge the key-sorted `from` into the key-sorted `into`; no key is in
/// both.
fn merge_sorted<V>(into: &mut Vec<(MetricKey, V)>, from: Vec<(MetricKey, V)>) {
    if from.is_empty() {
        return;
    }
    let mut a = std::mem::take(into).into_iter().peekable();
    let mut b = from.into_iter().peekable();
    let mut out = Vec::with_capacity(a.len() + b.len());
    while let (Some(x), Some(y)) = (a.peek(), b.peek()) {
        let next = if x.0 < y.0 { a.next() } else { b.next() };
        out.extend(next);
    }
    out.extend(a);
    out.extend(b);
    *into = out;
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
    /// The registered PEs' slots; a key with a slot is in no shard.
    slots: OnceLock<Slots>,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry {
            shards: (0..=SHARDS).map(|_| Mutex::default()).collect(),
            slots: OnceLock::new(),
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

    /// Give PE `pe` a slot for each series of `layout`, tagged with
    /// `machine`; series of `pe` the map already holds move into their
    /// slots. Every registration in one registry names the same layout.
    /// Returns the PE's slots (its first registration's, if it had one), or
    /// `None` for a PE past the slot table, whose series stay in the map.
    pub fn register_pe(
        &self,
        pe: u32,
        machine: Option<u32>,
        layout: &'static SlotLayout,
    ) -> Option<&PeSlots> {
        let slots = self.slots.get_or_init(|| Slots::new(layout));
        assert!(std::ptr::eq(slots.layout, layout), "a second slot layout");
        let cell = slots.cell(pe)?;
        // Under the shard lock, so no update of `pe`'s series through the
        // map lands between the adoption below and the slots' arrival.
        let mut shard = self.shard(Some(pe)).lock();
        if let Some(old) = cell.get() {
            return Some(old);
        }
        let new = &**cell.get_or_init(|| Box::new(PeSlots::new(pe, machine, layout)));
        let slot = |kind, k: &MetricKey| slots.find(new, kind, k);
        shard
            .counters
            .retain(|k, v| slot(0, k).map(|i| new.add(i, *v)).is_none());
        shard
            .gauges
            .retain(|k, v| slot(1, k).map(|i| new.set_gauge(i, *v)).is_none());
        shard.histograms.retain(|k, h| {
            let to = slot(2, k).map(|i| new.histograms[i].lock().merge(h));
            to.is_none()
        });
        Some(new)
    }

    /// `pe`'s slots, if it is registered.
    pub fn slots(&self, pe: u32) -> Option<&PeSlots> {
        self.slots.get()?.get(pe)
    }

    /// The slot of `key` (of `kind`: 0 counters, 1 gauges, 2 histograms),
    /// if its PE is registered and it is one of the layout's series.
    fn slot(&self, kind: usize, key: &MetricKey) -> Option<(&PeSlots, usize)> {
        let slots = self.slots.get()?;
        let pe = slots.get(key.pe?)?;
        Some((pe, slots.find(pe, kind, key)?))
    }

    /// Add `delta` to a counter (creating it at zero).
    pub fn add(&self, key: MetricKey, delta: u64) {
        let mut shard = self.shard(key.pe).lock();
        match self.slot(0, &key) {
            Some((pe, i)) => pe.add(i, delta),
            None => *shard.counters.entry(key).or_insert(0) += delta,
        }
    }

    /// Increment a counter by one.
    pub fn incr(&self, key: MetricKey) {
        self.add(key, 1);
    }

    /// Set a gauge to `value` (last write wins).
    pub fn set_gauge(&self, key: MetricKey, value: u64) {
        let mut shard = self.shard(key.pe).lock();
        match self.slot(1, &key) {
            Some((pe, i)) => pe.set_gauge(i, value),
            None => {
                shard.gauges.insert(key, value);
            }
        }
    }

    /// Raise a gauge to `value` if it is below it (high-water mark).
    pub fn gauge_max(&self, key: MetricKey, value: u64) {
        let mut shard = self.shard(key.pe).lock();
        match self.slot(1, &key) {
            Some((pe, i)) => pe.gauge_max(i, value),
            None => {
                let g = shard.gauges.entry(key).or_insert(0);
                *g = (*g).max(value);
            }
        }
    }

    /// Record one sample into a histogram (creating it empty).
    pub fn record(&self, key: MetricKey, value: u64) {
        let mut shard = self.shard(key.pe).lock();
        match self.slot(2, &key) {
            Some((pe, i)) => pe.record(i, value),
            None => shard.histograms.entry(key).or_default().record(value),
        }
    }

    /// Copy out everything, sorted by key. Shards and slots are copied one
    /// at a time, so a snapshot taken while other threads update is exact
    /// per series, not across series.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut s = merge(self.shards.iter(), |_| true);
        if let Some(slots) = self.slots.get() {
            slots.fold_into(&mut s, &slots.registered());
        }
        s
    }

    /// Copy out `pe`'s series only, plus the cluster-global ones when
    /// `include_global` is set, sorted by key: what one PE's telemetry
    /// tracker ships, without copying every other PE's series.
    pub fn snapshot_pe(&self, pe: u32, include_global: bool) -> MetricsSnapshot {
        let global = include_global.then(|| self.shard(None));
        let mut s = merge(std::iter::once(self.shard(Some(pe))).chain(global), |k| {
            k.pe.is_none_or(|p| p == pe)
        });
        if let Some((slots, own)) = self.slots.get().and_then(|s| Some((s, s.get(pe)?))) {
            slots.fold_into(&mut s, &[own]);
        }
        s
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
