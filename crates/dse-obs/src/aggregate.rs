//! In-band telemetry aggregation: ship per-PE metric *deltas* over the DSE
//! message layer and rebuild a cluster-wide rollup at the aggregating PE.
//!
//! The flow has three pieces:
//!
//! * [`DeltaTracker`] — lives in each PE's kernel loop. Against the shared
//!   [`Registry`](crate::Registry) snapshot it computes what changed since
//!   the previous emission (counter increments, gauge updates, histogram
//!   *bucket* increments) and assigns a per-PE sequence number.
//! * [`TelemetryDelta`] — the emission itself, with a compact binary
//!   encoding ([`TelemetryDelta::encode`]) carried as the opaque payload of
//!   `Message::Telemetry`.
//! * [`ClusterAggregator`] — lives at PE0. Applies decoded deltas in
//!   arrival order, detects sequence gaps (lost deltas) and stale
//!   out-of-order arrivals, tracks per-node staleness, and can replay the
//!   accumulated state as an ordinary
//!   [`MetricsSnapshot`](crate::MetricsSnapshot) rollup at any time.
//!
//! Deltas are normally incremental. A delta with `absolute == true`
//! replaces the aggregator's state for every key it carries — each kernel
//! ships one absolute delta when it shuts down, which self-heals any
//! incremental loss and makes the final rollup exactly equal to a direct
//! registry snapshot.
//!
//! Everything here is engine-neutral: timestamps are plain `u64`
//! nanoseconds from whichever clock drives the run (simulator virtual time
//! or live wall time).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Mutex, OnceLock};

use dse_msg::{CodecError, Reader, Writer};

use crate::hist::{LogHistogram, LAST_BUCKET};
use crate::registry::{MetricKey, MetricsSnapshot, Registry};

/// Version byte leading every encoded delta: LEB128 varints for every
/// integer and a static string table for the built-in metric names, so
/// the telemetry plane's bus footprint stays a small fraction of the
/// paper's 10 Mbps shared Ethernet. Both ends of the wire are always the
/// same build and no payload is ever stored, so a reader accepts its own
/// version only; the byte moves whenever the name table does.
const FORMAT_VERSION: u8 = 5;

/// Metric names known at build time ship as a one-byte table index; names
/// outside the table fall back to an inline string (index 0 escape). The
/// order is wire format: a change to it bumps [`FORMAT_VERSION`].
const STATIC_NAMES: &[&str] = &[
    // subsystems
    "kernel",
    "gm",
    "net",
    "sync",
    // the protocol's `kernel/*` counters (dse-kernel's `KERNEL_COUNTERS`)
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
    // kernel service metrics
    "requests_served",
    "service_ns",
    "telemetry_in",
    // network path
    "lan_msgs",
    "loopback_msgs",
    "wire_latency_ns",
    // GM request latency spans
    "remote_read_ns",
    "remote_write_ns",
    "fetch_add_ns",
    // synchronization waits
    "barrier_wait_ns",
    "lock_wait_ns",
    // split-phase GM pipeline (`KERNEL_COUNTERS` continued)
    "gm_request_msgs",
    "gm_coalesced",
    "invalidation_rounds",
    "gm_inflight",
    "batch_ns",
    // failure-domain hardening: GM request retry/deadline and corrupt-frame
    // accounting on the live wire path
    "gm_retries",
    "gm_deadline_trips",
    "gm_dup_requests",
    "telemetry_corrupt",
    // sweep-harness throughput counters
    "sim",
    "events_processed",
    "gm_ops",
    // GM coherence directory and release consistency
    "dir_hits",
    "dir_misses",
    "dir_leases",
    "dir_invals",
    "rc_deferred_invals",
    "rc_acquires",
];

/// How many distinct inline metric names one process accepts from
/// telemetry frames. Each is leaked to live in a [`MetricKey`]; a run uses
/// a few dozen names outside the static name table, so a frame that would
/// take the pool past this bound is corrupt.
pub const MAX_INLINE_NAMES: usize = 256;

/// Longest inline metric name a frame may carry.
const MAX_NAME_LEN: usize = 64;

/// Whether `s` is an ASCII identifier short enough to be a metric name.
fn is_metric_name(s: &[u8]) -> bool {
    let ident = |c: &u8| c.is_ascii_alphanumeric() || *c == b'_';
    s.len() <= MAX_NAME_LEN
        && s.first().is_some_and(|c| !c.is_ascii_digit() && ident(c))
        && s.iter().all(ident)
}

/// Intern a decoded metric name so it can live in a [`MetricKey`]'s
/// `&'static str` fields, or `None` when it is new and the pool already
/// holds [`MAX_INLINE_NAMES`].
fn intern(s: &str) -> Option<&'static str> {
    static POOL: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
    let mut pool = POOL
        .get_or_init(|| Mutex::new(BTreeSet::new()))
        .lock()
        .expect("intern pool poisoned");
    if let Some(&hit) = pool.get(s) {
        return Some(hit);
    }
    if pool.len() >= MAX_INLINE_NAMES {
        return None;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    pool.insert(leaked);
    Some(leaked)
}

fn write_str(w: &mut Writer, s: &str) {
    match STATIC_NAMES.iter().position(|&n| n == s) {
        Some(i) => w.uvar(i as u64 + 1),
        None => {
            w.uvar(0);
            w.bytes(s.as_bytes());
        }
    }
}

fn write_opt_u32(w: &mut Writer, v: Option<u32>) {
    w.uvar(v.map(|x| u64::from(x) + 1).unwrap_or(0));
}

fn write_key(w: &mut Writer, k: &MetricKey) {
    write_str(w, k.subsystem);
    write_str(w, k.name);
    write_opt_u32(w, k.pe);
    write_opt_u32(w, k.machine);
}

fn read_str(r: &mut Reader) -> Result<&'static str, CodecError> {
    let idx = r.uvar()?;
    if idx != 0 {
        return STATIC_NAMES
            .get(idx as usize - 1)
            .copied()
            .ok_or(CodecError::BadLength(idx));
    }
    let raw = r.bytes()?;
    let len = raw.len() as u64;
    // Metric names are short ASCII identifiers, and the pool is bounded:
    // anything else, or a new name the full pool has no room for, is a
    // corrupt frame.
    match std::str::from_utf8(&raw) {
        Ok(s) if is_metric_name(&raw) => intern(s).ok_or(CodecError::BadLength(len)),
        _ => Err(CodecError::BadLength(len)),
    }
}

fn read_opt_u32(r: &mut Reader) -> Result<Option<u32>, CodecError> {
    let v = r.uvar()?;
    if v == 0 {
        return Ok(None);
    }
    u32::try_from(v - 1)
        .map(Some)
        .map_err(|_| CodecError::BadLength(v))
}

fn read_key(r: &mut Reader) -> Result<MetricKey, CodecError> {
    let subsystem = read_str(r)?;
    let name = read_str(r)?;
    let pe = read_opt_u32(r)?;
    let machine = read_opt_u32(r)?;
    Ok(MetricKey {
        subsystem,
        name,
        pe,
        machine,
    })
}

/// What changed in one histogram since the previous emission.
///
/// Buckets are shipped by *internal bucket index* with their count
/// increment; `count`/`sum` are increments too, while `min`/`max` are the
/// absolute extremes over the series' whole history (a per-PE series has a
/// single writer, so the latest extremes are always authoritative).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistDelta {
    /// `(bucket index, count increment)`, increasing index order.
    pub buckets: Vec<(u32, u64)>,
    /// Sample-count increment.
    pub count: u64,
    /// Sample-sum increment.
    pub sum: u64,
    /// Absolute minimum of the series so far.
    pub min: u64,
    /// Absolute maximum of the series so far.
    pub max: u64,
}

/// One telemetry emission: everything a PE's metrics changed by (or, when
/// `absolute`, their full current values) since its previous emission.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TelemetryDelta {
    /// `true` for a full-state emission that replaces (rather than
    /// accumulates into) the aggregator's entries for the carried keys.
    pub absolute: bool,
    /// Counter increments (or absolute values), sorted by key.
    pub counters: Vec<(MetricKey, u64)>,
    /// Gauge snapshots (always absolute values), sorted by key.
    pub gauges: Vec<(MetricKey, u64)>,
    /// Histogram bucket increments (or absolute contents), sorted by key.
    pub hists: Vec<(MetricKey, HistDelta)>,
}

impl TelemetryDelta {
    /// True when the delta carries no changes at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }

    /// Encode into the compact wire payload carried by `Message::Telemetry`.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u8(FORMAT_VERSION);
        w.u8(self.absolute as u8);
        w.uvar(self.counters.len() as u64);
        for (k, v) in &self.counters {
            write_key(&mut w, k);
            w.uvar(*v);
        }
        w.uvar(self.gauges.len() as u64);
        for (k, v) in &self.gauges {
            write_key(&mut w, k);
            w.uvar(*v);
        }
        w.uvar(self.hists.len() as u64);
        for (k, h) in &self.hists {
            write_key(&mut w, k);
            w.uvar(h.buckets.len() as u64);
            for (i, c) in &h.buckets {
                w.uvar(u64::from(*i));
                w.uvar(*c);
            }
            w.uvar(h.count);
            w.uvar(h.sum);
            w.uvar(h.min);
            w.uvar(h.max);
        }
        w.finish()
    }

    /// Decode a payload previously produced by [`TelemetryDelta::encode`].
    pub fn decode(buf: &[u8]) -> Result<TelemetryDelta, CodecError> {
        let mut r = Reader::new(buf);
        let version = r.u8()?;
        if version != FORMAT_VERSION {
            return Err(CodecError::BadTag(version));
        }
        let absolute = r.u8()? != 0;
        let n = r.uvar()? as usize;
        let mut counters = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let k = read_key(&mut r)?;
            counters.push((k, r.uvar()?));
        }
        let n = r.uvar()? as usize;
        let mut gauges = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let k = read_key(&mut r)?;
            gauges.push((k, r.uvar()?));
        }
        let n = r.uvar()? as usize;
        let mut hists = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let k = read_key(&mut r)?;
            let nb = r.uvar()? as usize;
            let mut buckets = Vec::with_capacity(nb.min(1024));
            for _ in 0..nb {
                // No sample lands above the last bucket; a larger index
                // would make the aggregator grow the histogram to fit it.
                let i = r.uvar()?;
                if i > LAST_BUCKET as u64 {
                    return Err(CodecError::BadLength(i));
                }
                buckets.push((i as u32, r.uvar()?));
            }
            hists.push((
                k,
                HistDelta {
                    buckets,
                    count: r.uvar()?,
                    sum: r.uvar()?,
                    min: r.uvar()?,
                    max: r.uvar()?,
                },
            ));
        }
        r.expect_end()?;
        Ok(TelemetryDelta {
            absolute,
            counters,
            gauges,
            hists,
        })
    }
}

/// Bucket-level difference between a series' current histogram and the
/// tracker's baseline; `None` when no samples were added.
fn hist_delta(cur: &LogHistogram, base: Option<&LogHistogram>) -> Option<HistDelta> {
    let (cur_count, cur_sum, cur_min, cur_max) = cur.totals_raw();
    let (base_count, base_sum) = base.map(|b| (b.count(), b.sum())).unwrap_or((0, 0));
    if cur_count == base_count {
        return None;
    }
    let base_buckets: &[u64] = base.map(|b| b.bucket_counts()).unwrap_or(&[]);
    let mut buckets = Vec::new();
    for (i, &c) in cur.bucket_counts().iter().enumerate() {
        let prev = base_buckets.get(i).copied().unwrap_or(0);
        if c > prev {
            buckets.push((i as u32, c - prev));
        }
    }
    Some(HistDelta {
        buckets,
        count: cur_count - base_count,
        sum: cur_sum.saturating_sub(base_sum),
        min: cur_min,
        max: cur_max,
    })
}

/// Rebuild a histogram from an absolute [`HistDelta`] (full contents).
fn hist_from_absolute(d: &HistDelta) -> LogHistogram {
    let mut h = LogHistogram::new();
    for (i, c) in &d.buckets {
        h.add_bucket_raw(*i as usize, *c);
    }
    h.add_totals_raw(d.count, d.sum, d.min, d.max);
    h
}

/// Per-PE emission state: remembers what was last shipped so the next
/// emission carries only the difference.
///
/// A tracker for PE `p` ships exactly the series with `key.pe == Some(p)`;
/// the tracker driven on the aggregating PE additionally ships
/// cluster-global series (`key.pe == None`) when built with
/// `include_global`, so every series has exactly one shipper.
#[derive(Debug)]
pub struct DeltaTracker {
    pe: u32,
    include_global: bool,
    seq: u32,
    counters: BTreeMap<MetricKey, u64>,
    gauges: BTreeMap<MetricKey, u64>,
    hists: BTreeMap<MetricKey, LogHistogram>,
}

impl DeltaTracker {
    /// A fresh tracker for `pe`. Set `include_global` on exactly one PE
    /// (by convention the aggregating PE0) so cluster-global series are
    /// shipped once.
    pub fn new(pe: u32, include_global: bool) -> DeltaTracker {
        DeltaTracker {
            pe,
            include_global,
            seq: 0,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            hists: BTreeMap::new(),
        }
    }

    /// The PE this tracker emits for.
    pub fn pe(&self) -> u32 {
        self.pe
    }

    /// Sequence number of the most recent emission (0 = none yet).
    pub fn last_seq(&self) -> u32 {
        self.seq
    }

    /// The registry series this tracker ships, and no others: what to pass
    /// to [`DeltaTracker::delta`] and [`DeltaTracker::absolute`] on a tick.
    pub fn snapshot(&self, registry: &Registry) -> MetricsSnapshot {
        registry.snapshot_pe(self.pe, self.include_global)
    }

    fn relevant(&self, k: &MetricKey) -> bool {
        k.pe == Some(self.pe) || (self.include_global && k.pe.is_none())
    }

    /// The tracker's filtered view of the registry snapshot.
    #[allow(clippy::type_complexity)]
    fn view(
        &self,
        snap: &MetricsSnapshot,
    ) -> (
        BTreeMap<MetricKey, u64>,
        BTreeMap<MetricKey, u64>,
        BTreeMap<MetricKey, LogHistogram>,
    ) {
        let counters = snap
            .counters
            .iter()
            .filter(|(k, _)| self.relevant(k))
            .copied()
            .collect();
        let gauges = snap
            .gauges
            .iter()
            .filter(|(k, _)| self.relevant(k))
            .copied()
            .collect();
        let hists = snap
            .histograms
            .iter()
            .filter(|(k, _)| self.relevant(k))
            .map(|(k, h)| (*k, h.clone()))
            .collect();
        (counters, gauges, hists)
    }

    /// Compute the incremental delta since the previous emission.
    ///
    /// Returns `None` (and leaves the baseline untouched) when nothing
    /// changed and `force` is false; `force` emits an empty heartbeat so
    /// the aggregator's staleness clock still advances. On emission the
    /// sequence number increments.
    pub fn delta(&mut self, snap: &MetricsSnapshot, force: bool) -> Option<(u32, TelemetryDelta)> {
        let (counters, gauges, hists) = self.view(snap);
        let mut d = TelemetryDelta::default();
        for (k, v) in &counters {
            let base = self.counters.get(k).copied().unwrap_or(0);
            if *v > base {
                d.counters.push((*k, *v - base));
            }
        }
        for (k, v) in &gauges {
            if self.gauges.get(k) != Some(v) {
                d.gauges.push((*k, *v));
            }
        }
        for (k, h) in &hists {
            if let Some(hd) = hist_delta(h, self.hists.get(k)) {
                d.hists.push((*k, hd));
            }
        }
        if d.is_empty() && !force {
            return None;
        }
        self.counters = counters;
        self.gauges = gauges;
        self.hists = hists;
        self.seq += 1;
        Some((self.seq, d))
    }

    /// Compute a full-state (absolute) emission: every relevant series at
    /// its current value, zero-valued counters included.
    /// Applied at the aggregator it *replaces* state per key, so it heals
    /// any lost incremental deltas; each kernel ships one at shutdown.
    pub fn absolute(&mut self, snap: &MetricsSnapshot) -> (u32, TelemetryDelta) {
        let (counters, gauges, hists) = self.view(snap);
        let d = TelemetryDelta {
            absolute: true,
            counters: counters.iter().map(|(k, v)| (*k, *v)).collect(),
            gauges: gauges.iter().map(|(k, v)| (*k, *v)).collect(),
            hists: hists
                .iter()
                .filter(|(_, h)| h.count() > 0)
                .map(|(k, h)| {
                    let (count, sum, min, max) = h.totals_raw();
                    (
                        *k,
                        HistDelta {
                            buckets: h
                                .bucket_counts()
                                .iter()
                                .enumerate()
                                .filter(|(_, &c)| c > 0)
                                .map(|(i, &c)| (i as u32, c))
                                .collect(),
                            count,
                            sum,
                            min,
                            max,
                        },
                    )
                })
                .collect(),
        };
        self.counters = counters;
        self.gauges = gauges;
        self.hists = hists;
        self.seq += 1;
        (self.seq, d)
    }
}

/// Aggregator-side health of one emitting PE.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeStatus {
    /// The emitting PE.
    pub pe: u32,
    /// Deltas applied (incremental + absolute).
    pub deltas_applied: u64,
    /// Highest sequence number applied (0 = nothing heard yet).
    pub last_seq: u32,
    /// Deltas known lost: sequence numbers skipped over by later arrivals.
    pub gaps: u64,
    /// Stale incremental deltas dropped because a newer (or absolute)
    /// delta had already been applied.
    pub stale_drops: u64,
    /// Engine clock (ns) of the most recent applied delta.
    pub last_heard_ns: Option<u64>,
    /// True once an absolute (shutdown) delta arrived; the node's rollup
    /// contribution is final.
    pub finalized: bool,
}

impl NodeStatus {
    fn new(pe: u32) -> NodeStatus {
        NodeStatus {
            pe,
            deltas_applied: 0,
            last_seq: 0,
            gaps: 0,
            stale_drops: 0,
            last_heard_ns: None,
            finalized: false,
        }
    }
}

/// The PE0-side rollup: applies per-PE [`TelemetryDelta`]s as they arrive
/// and reconstructs the cluster-wide metric state.
#[derive(Debug, Default)]
pub struct ClusterAggregator {
    counters: BTreeMap<MetricKey, u64>,
    gauges: BTreeMap<MetricKey, u64>,
    hists: BTreeMap<MetricKey, LogHistogram>,
    nodes: Vec<NodeStatus>,
}

impl ClusterAggregator {
    /// An empty aggregator expecting `npes` emitting PEs.
    pub fn new(npes: usize) -> ClusterAggregator {
        ClusterAggregator {
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            hists: BTreeMap::new(),
            nodes: (0..npes as u32).map(NodeStatus::new).collect(),
        }
    }

    /// Apply one decoded delta from `pe` at engine time `now_ns`.
    ///
    /// Incremental deltas accumulate; a delta whose sequence number skips
    /// ahead records the skipped emissions as `gaps`, and one at or below
    /// the last applied sequence is dropped as stale (it would double-count
    /// state already covered). Absolute deltas replace per key and mark the
    /// node finalized; incremental deltas still in flight when the node's
    /// absolute flush lands are dropped silently (the flush covers them),
    /// not counted as anomalies.
    pub fn apply(&mut self, pe: u32, seq: u32, now_ns: u64, delta: &TelemetryDelta) {
        if pe as usize >= self.nodes.len() {
            let have = self.nodes.len() as u32;
            self.nodes.extend((have..=pe).map(NodeStatus::new));
        }
        let ns = &mut self.nodes[pe as usize];
        if !delta.absolute {
            if seq <= ns.last_seq {
                // After the node's absolute flush, late in-flight
                // incremental deltas are expected (the flush already
                // covers their state) — only pre-finalize duplicates
                // count as an anomaly.
                if !ns.finalized {
                    ns.stale_drops += 1;
                }
                return;
            }
            if seq > ns.last_seq + 1 {
                ns.gaps += (seq - ns.last_seq - 1) as u64;
            }
        }
        ns.last_seq = ns.last_seq.max(seq);
        ns.deltas_applied += 1;
        ns.last_heard_ns = Some(now_ns);
        if delta.absolute {
            ns.finalized = true;
            for (k, v) in &delta.counters {
                self.counters.insert(*k, *v);
            }
            for (k, v) in &delta.gauges {
                self.gauges.insert(*k, *v);
            }
            for (k, h) in &delta.hists {
                self.hists.insert(*k, hist_from_absolute(h));
            }
        } else {
            for (k, v) in &delta.counters {
                *self.counters.entry(*k).or_insert(0) += v;
            }
            for (k, v) in &delta.gauges {
                self.gauges.insert(*k, *v);
            }
            for (k, h) in &delta.hists {
                let slot = self.hists.entry(*k).or_default();
                for (i, c) in &h.buckets {
                    slot.add_bucket_raw(*i as usize, *c);
                }
                slot.add_totals_raw(h.count, h.sum, h.min, h.max);
            }
        }
    }

    /// Record a telemetry frame from `pe` at sequence `seq` that arrived
    /// but could not be decoded (corrupt or truncated payload). The
    /// emission is lost exactly like a dropped delta, so it counts as a
    /// sequence gap — and it consumes its sequence number, so the next
    /// intact delta does not re-count it. A later delta or the final
    /// absolute flush covers the missing state.
    pub fn note_corrupt(&mut self, pe: u32, seq: u32, now_ns: u64) {
        if pe as usize >= self.nodes.len() {
            let have = self.nodes.len() as u32;
            self.nodes.extend((have..=pe).map(NodeStatus::new));
        }
        let ns = &mut self.nodes[pe as usize];
        if seq <= ns.last_seq {
            // Duplicate of an already-accounted emission: nothing new lost.
            return;
        }
        // Skipped emissions before this one, plus the undecodable one.
        ns.gaps += u64::from(seq - ns.last_seq);
        ns.last_seq = seq;
        ns.last_heard_ns = Some(now_ns);
    }

    /// The reconstructed cluster-wide state as an ordinary snapshot,
    /// ordered like a direct [`Registry`](crate::Registry) snapshot.
    pub fn rollup(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.iter().map(|(k, v)| (*k, *v)).collect(),
            gauges: self.gauges.iter().map(|(k, v)| (*k, *v)).collect(),
            histograms: self.hists.iter().map(|(k, h)| (*k, h.clone())).collect(),
        }
    }

    /// Per-PE emission health, indexed by PE.
    pub fn nodes(&self) -> &[NodeStatus] {
        &self.nodes
    }

    /// PEs that are not finalized and have not been heard from within
    /// `deadline_ns` of `now_ns` (never-heard PEs are always stale).
    pub fn stale_pes(&self, now_ns: u64, deadline_ns: u64) -> Vec<u32> {
        self.nodes
            .iter()
            .filter(|n| {
                !n.finalized
                    && n.last_heard_ns
                        .is_none_or(|t| now_ns.saturating_sub(t) > deadline_ns)
            })
            .map(|n| n.pe)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_registry() -> Registry {
        let r = Registry::new();
        r.add(MetricKey::pe("net", "lan_msgs", 0).on_machine(0), 3);
        r.add(MetricKey::pe("net", "lan_msgs", 1).on_machine(1), 5);
        r.set_gauge(MetricKey::global("net", "queue_depth_max"), 7);
        r.record(MetricKey::pe("gm", "remote_read_ns", 1), 120);
        r.record(MetricKey::pe("gm", "remote_read_ns", 1), 90_000);
        r
    }

    #[test]
    fn encode_decode_roundtrip() {
        let reg = sample_registry();
        let mut t = DeltaTracker::new(1, false);
        let (seq, d) = t.delta(&reg.snapshot(), false).unwrap();
        assert_eq!(seq, 1);
        assert!(!d.is_empty());
        let back = TelemetryDelta::decode(&d.encode()).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn unknown_version_rejected() {
        let reg = sample_registry();
        let mut t = DeltaTracker::new(0, true);
        let (_, d) = t.delta(&reg.snapshot(), false).unwrap();
        let mut buf = d.encode();
        buf[0] = 9;
        assert_eq!(TelemetryDelta::decode(&buf), Err(CodecError::BadTag(9)));
    }

    #[test]
    fn v3_names_resolve_via_static_table() {
        // The new counters must ride the string table (index form), not the
        // inline-string escape, and round-trip exactly.
        let d = TelemetryDelta {
            absolute: false,
            counters: vec![
                (MetricKey::global("sim", "events_processed"), 41),
                (MetricKey::pe("kernel", "gm_ops", 2), 17),
            ],
            gauges: Vec::new(),
            hists: Vec::new(),
        };
        let wire = d.encode();
        let back = TelemetryDelta::decode(&wire).unwrap();
        assert_eq!(back, d);
        // Inline strings are escaped with a 0 index then length+bytes; the
        // table hit encodes as a single nonzero varint. None of the new
        // names should appear as raw bytes in the payload.
        for name in ["events_processed", "gm_ops"] {
            assert!(
                !wire.windows(name.len()).any(|w| w == name.as_bytes()),
                "{name} was inline-encoded instead of using the static table"
            );
        }
    }

    #[test]
    fn v4_directory_names_resolve_via_static_table() {
        // The coherence counters introduced with format v4 must ride the
        // string table, not the inline-string escape.
        let d = TelemetryDelta {
            absolute: false,
            counters: vec![
                (MetricKey::pe("kernel", "dir_hits", 0), 9),
                (MetricKey::pe("kernel", "dir_misses", 0), 4),
                (MetricKey::pe("kernel", "dir_leases", 1), 6),
                (MetricKey::pe("kernel", "dir_invals", 1), 2),
                (MetricKey::pe("kernel", "rc_deferred_invals", 2), 3),
                (MetricKey::pe("kernel", "rc_acquires", 2), 8),
            ],
            gauges: Vec::new(),
            hists: Vec::new(),
        };
        let wire = d.encode();
        assert_eq!(TelemetryDelta::decode(&wire).unwrap(), d);
        for name in [
            "dir_hits",
            "dir_misses",
            "dir_leases",
            "dir_invals",
            "rc_deferred_invals",
            "rc_acquires",
        ] {
            assert!(
                !wire.windows(name.len()).any(|w| w == name.as_bytes()),
                "{name} was inline-encoded instead of using the static table"
            );
        }
    }

    /// A frame carrying one histogram whose one bucket has index `index`.
    fn one_bucket(index: u32) -> Vec<u8> {
        let hist = HistDelta {
            buckets: vec![(index, 1)],
            count: 1,
            sum: 1,
            min: 1,
            max: 1,
        };
        TelemetryDelta {
            hists: vec![(MetricKey::pe("gm", "remote_read_ns", 0), hist)],
            ..TelemetryDelta::default()
        }
        .encode()
    }

    #[test]
    fn a_bucket_index_no_sample_can_have_is_a_corrupt_frame() {
        assert!(TelemetryDelta::decode(&one_bucket(LAST_BUCKET as u32)).is_ok());
        assert_eq!(
            TelemetryDelta::decode(&one_bucket(4_000_000_000)),
            Err(CodecError::BadLength(4_000_000_000))
        );
    }

    #[test]
    fn an_inline_name_must_be_a_short_ascii_identifier() {
        let frame = |name: &'static str| {
            TelemetryDelta {
                counters: vec![(MetricKey::pe("kernel", name, 0), 1)],
                ..TelemetryDelta::default()
            }
            .encode()
        };
        assert!(TelemetryDelta::decode(&frame("_inline_name_9")).is_ok());
        let long: &'static str = Box::leak("n".repeat(65).into_boxed_str());
        for bad in ["", "9lives", "two words", "dot.ted", "caf\u{e9}", long] {
            assert!(TelemetryDelta::decode(&frame(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn tracker_filters_by_pe_and_global_flag() {
        let reg = sample_registry();
        let snap = reg.snapshot();
        let mut t1 = DeltaTracker::new(1, false);
        let (_, d1) = t1.delta(&snap, false).unwrap();
        assert!(d1.counters.iter().all(|(k, _)| k.pe == Some(1)));
        assert!(d1.gauges.is_empty(), "globals belong to the aggregator PE");
        let mut t0 = DeltaTracker::new(0, true);
        let (_, d0) = t0.delta(&snap, false).unwrap();
        assert_eq!(d0.gauges.len(), 1);
        assert!(d0.counters.iter().all(|(k, _)| k.pe == Some(0)));
    }

    #[test]
    fn own_pe_snapshot_ships_the_same_bytes_as_the_whole_registry() {
        let reg = sample_registry();
        // PE 65 shares PE 1's shard; neither may ship the other's series.
        reg.add(MetricKey::pe("net", "lan_msgs", 65), 2);
        reg.record(MetricKey::pe("gm", "remote_read_ns", 65), 40);
        let pes = [0, 1, 65];
        let mut whole: Vec<_> = pes.iter().map(|&p| DeltaTracker::new(p, p == 0)).collect();
        let mut own: Vec<_> = pes.iter().map(|&p| DeltaTracker::new(p, p == 0)).collect();
        for round in 0..2u64 {
            let snap = reg.snapshot();
            for (w, o) in whole.iter_mut().zip(&mut own) {
                let a = w.delta(&snap, true).map(|(s, d)| (s, d.encode()));
                let b = o
                    .delta(&o.snapshot(&reg), true)
                    .map(|(s, d)| (s, d.encode()));
                assert_eq!(a, b, "PE {} round {round}", w.pe());
                let (a, b) = (w.absolute(&snap), o.absolute(&o.snapshot(&reg)));
                assert_eq!(a.1.encode(), b.1.encode(), "PE {} round {round}", w.pe());
            }
            reg.add(MetricKey::pe("net", "lan_msgs", 1).on_machine(1), round + 1);
            reg.record(MetricKey::pe("gm", "remote_read_ns", 65), 7);
            reg.set_gauge(MetricKey::global("net", "queue_depth_max"), 20 + round);
        }
    }

    #[test]
    fn incremental_deltas_rebuild_the_snapshot() {
        let reg = sample_registry();
        let mut trackers: Vec<_> = (0..2).map(|p| DeltaTracker::new(p, p == 0)).collect();
        let mut agg = ClusterAggregator::new(2);
        let tick = |trackers: &mut Vec<DeltaTracker>, agg: &mut ClusterAggregator, now| {
            let snap = reg.snapshot();
            for t in trackers.iter_mut() {
                if let Some((seq, d)) = t.delta(&snap, false) {
                    let wire = d.encode();
                    let back = TelemetryDelta::decode(&wire).unwrap();
                    agg.apply(t.pe(), seq, now, &back);
                }
            }
        };
        tick(&mut trackers, &mut agg, 1_000);
        reg.add(MetricKey::pe("net", "lan_msgs", 1).on_machine(1), 4);
        reg.record(MetricKey::pe("gm", "remote_read_ns", 1), 64);
        reg.set_gauge(MetricKey::global("net", "queue_depth_max"), 11);
        tick(&mut trackers, &mut agg, 2_000);
        assert_eq!(agg.rollup(), reg.snapshot());
        assert_eq!(agg.nodes()[1].deltas_applied, 2);
        assert_eq!(agg.nodes()[1].gaps, 0);
        assert_eq!(agg.nodes()[1].last_heard_ns, Some(2_000));
    }

    #[test]
    fn quiet_tracker_skips_unless_forced() {
        let reg = sample_registry();
        let mut t = DeltaTracker::new(1, false);
        assert!(t.delta(&reg.snapshot(), false).is_some());
        assert!(t.delta(&reg.snapshot(), false).is_none());
        let (seq, d) = t.delta(&reg.snapshot(), true).unwrap();
        assert_eq!(seq, 2);
        assert!(d.is_empty(), "forced heartbeat is empty");
    }

    #[test]
    fn absolute_keeps_zero_counters() {
        let reg = Registry::new();
        reg.add(MetricKey::pe("kernel", "messages", 0), 5);
        reg.add(MetricKey::pe("kernel", "invokes", 0), 0);
        let mut t = DeltaTracker::new(0, true);
        let (seq, d) = t.absolute(&reg.snapshot());
        assert_eq!(seq, 1);
        assert!(d.absolute);
        let find = |name: &str| {
            d.counters
                .iter()
                .find(|(k, _)| k.name == name)
                .map(|(_, v)| *v)
        };
        assert_eq!(find("messages"), Some(5));
        assert_eq!(find("invokes"), Some(0), "absolute keeps zero counters");
    }

    #[test]
    fn gap_and_stale_detection() {
        let mut agg = ClusterAggregator::new(2);
        let d = TelemetryDelta {
            absolute: false,
            counters: vec![(MetricKey::pe("net", "lan_msgs", 1), 1)],
            gauges: vec![],
            hists: vec![],
        };
        agg.apply(1, 1, 100, &d);
        agg.apply(1, 4, 200, &d); // seqs 2 and 3 lost
        assert_eq!(agg.nodes()[1].gaps, 2);
        agg.apply(1, 3, 250, &d); // late arrival: stale, must not double-count
        assert_eq!(agg.nodes()[1].stale_drops, 1);
        assert_eq!(
            agg.rollup().counter("net", "lan_msgs", Some(1)),
            Some(2),
            "stale delta must not be applied"
        );
    }

    #[test]
    fn corrupt_frames_count_as_gaps_without_double_counting() {
        let mut agg = ClusterAggregator::new(2);
        let d = TelemetryDelta {
            absolute: false,
            counters: vec![(MetricKey::pe("net", "lan_msgs", 1), 1)],
            gauges: vec![],
            hists: vec![],
        };
        agg.apply(1, 1, 100, &d);
        // Emission 2 arrives undecodable: one gap, sequence consumed.
        agg.note_corrupt(1, 2, 150);
        assert_eq!(agg.nodes()[1].gaps, 1);
        assert_eq!(agg.nodes()[1].last_heard_ns, Some(150));
        // The next intact delta is in sequence — no re-count.
        agg.apply(1, 3, 200, &d);
        assert_eq!(agg.nodes()[1].gaps, 1);
        assert_eq!(agg.nodes()[1].stale_drops, 0);
        // A duplicated corrupt frame adds nothing new.
        agg.note_corrupt(1, 2, 250);
        assert_eq!(agg.nodes()[1].gaps, 1);
        // A corrupt frame that also skips emissions counts them all.
        agg.note_corrupt(1, 6, 300);
        assert_eq!(agg.nodes()[1].gaps, 4);
    }

    #[test]
    fn absolute_heals_lost_deltas() {
        let reg = sample_registry();
        let mut t = DeltaTracker::new(1, false);
        let mut agg = ClusterAggregator::new(2);
        let (s1, d1) = t.delta(&reg.snapshot(), false).unwrap();
        agg.apply(1, s1, 10, &d1);
        // A second incremental is emitted but lost on the wire.
        reg.add(MetricKey::pe("net", "lan_msgs", 1).on_machine(1), 9);
        let _lost = t.delta(&reg.snapshot(), false).unwrap();
        // Shutdown flush: absolute state repairs the aggregator exactly.
        reg.record(MetricKey::pe("gm", "remote_read_ns", 1), 7);
        let (s3, d3) = t.absolute(&reg.snapshot());
        let back = TelemetryDelta::decode(&d3.encode()).unwrap();
        agg.apply(1, s3, 30, &back);
        let roll = agg.rollup();
        let direct = reg.snapshot();
        let only_pe1 = |s: &MetricsSnapshot| MetricsSnapshot {
            counters: s
                .counters
                .iter()
                .filter(|(k, _)| k.pe == Some(1))
                .copied()
                .collect(),
            gauges: s
                .gauges
                .iter()
                .filter(|(k, _)| k.pe == Some(1))
                .copied()
                .collect(),
            histograms: s
                .histograms
                .iter()
                .filter(|(k, _)| k.pe == Some(1))
                .cloned()
                .collect(),
        };
        assert_eq!(only_pe1(&roll), only_pe1(&direct));
        assert!(agg.nodes()[1].finalized);
    }

    #[test]
    fn staleness_tracking() {
        let mut agg = ClusterAggregator::new(3);
        let empty = TelemetryDelta::default();
        agg.apply(0, 1, 1_000, &empty);
        agg.apply(
            2,
            1,
            5_000,
            &TelemetryDelta {
                absolute: true,
                ..TelemetryDelta::default()
            },
        );
        // At t=10_000 with a 4_000ns deadline: PE0 last heard 9_000 ago
        // (stale), PE1 never heard (stale), PE2 finalized (never stale).
        assert_eq!(agg.stale_pes(10_000, 4_000), vec![0, 1]);
        assert_eq!(agg.stale_pes(1_500, 4_000), vec![1]);
    }
}
