//! The registry against a plain model: any mix of updates over global
//! series, PEs past the shard count and registered PEs (whose per-operation
//! series live in slots, counted through `dse_kernel::PeCounters`)
//! snapshots and exports exactly what a single `BTreeMap` per kind would
//! hold, and concurrent updates to PEs that share shards or slots lose
//! nothing.

use std::collections::BTreeMap;
use std::sync::Barrier;

use dse_kernel::{GmCount, KernelCount, PeCounters, Sample, KERNEL_COUNTERS};
use dse_obs::{LogHistogram, MetricKey, MetricsSnapshot, Registry};
use proptest::prelude::*;

/// Names the map API writes: two of them are also slot series of a
/// registered PE (on its machine, for the `kernel/*` ones), one only the
/// map holds.
const NAMES: [(&str, &str); 4] = [
    ("kernel", "messages"),
    ("kernel", "gm_inflight"),
    ("gm", "remote_read_ns"),
    ("net", "queue_depth"),
];

/// The PEs a cluster would register, and the one machine tag among them.
const REGISTERED: [u32; 4] = [0, 3, 64, 130];

fn machine_of(pe: u32) -> Option<u32> {
    (pe == 3).then_some(2)
}

/// PEs the `PeCounters` ops use: the registered ones and three that never
/// are.
const COUNTING: [u32; 7] = [0, 1, 3, 64, 65, 130, 199];

/// The per-operation histograms, with the series each one is.
const SAMPLES: [(Sample, &str, &str); 8] = [
    (Sample::RemoteRead, "gm", "remote_read_ns"),
    (Sample::RemoteWrite, "gm", "remote_write_ns"),
    (Sample::FetchAdd, "gm", "fetch_add_ns"),
    (Sample::Batch, "gm", "batch_ns"),
    (Sample::Blocked, "gm", "blocked_ns"),
    (Sample::BarrierWait, "sync", "barrier_wait_ns"),
    (Sample::LockWait, "sync", "lock_wait_ns"),
    (Sample::Service, "kernel", "service_ns"),
];

/// A count through `PeCounters`, and the `kernel/*` counters it moves by
/// how much: registered-at-zero names and names only some runs move.
#[derive(Debug, Clone, Copy)]
enum Counted {
    RemoteRead(usize),
    Sent(usize),
    DupRequest,
    TelemetryIn,
    Retry,
    ReplicaHit,
}

impl Counted {
    fn moves(self) -> Vec<(&'static str, u64)> {
        match self {
            Counted::RemoteRead(n) => vec![("gm_remote_reads", 1), ("gm_bytes_read", n as u64)],
            Counted::Sent(n) => vec![("messages", 1), ("message_bytes", n as u64)],
            Counted::DupRequest => vec![("gm_dup_requests", 1)],
            Counted::TelemetryIn => vec![("telemetry_in", 1)],
            Counted::Retry => vec![("gm_retries", 1)],
            Counted::ReplicaHit => vec![("cache_hits", 1), ("dir_hits", 1)],
        }
    }

    fn count(self, pe: PeCounters<'_>) {
        match self {
            Counted::RemoteRead(n) => pe.count(KernelCount::RemoteRead(n)),
            Counted::Sent(n) => pe.count(KernelCount::Sent(n)),
            Counted::DupRequest => pe.count(KernelCount::DupRequest),
            Counted::TelemetryIn => pe.count(KernelCount::TelemetryIn),
            Counted::Retry => pe.count(GmCount::Retry),
            Counted::ReplicaHit => pe.count(GmCount::ReplicaHit),
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Add(MetricKey, u64),
    Incr(MetricKey),
    SetGauge(MetricKey, u64),
    GaugeMax(MetricKey, u64),
    Record(MetricKey, u64),
    /// `PeCounters::register` of a PE of `REGISTERED`.
    Register(u32),
    /// The rest go through `PeCounters` of a PE of `COUNTING`.
    Count(u32, Counted),
    Served(u32, u64),
    Inflight(u32, u64),
    Sample(u32, usize, u64),
}

/// A global series one time in four, otherwise one of PEs 0..200 (more
/// than three times the shard count), sometimes with a machine.
fn arb_key() -> impl Strategy<Value = MetricKey> {
    (0usize..NAMES.len(), 0u32..4, 0u32..200, 0u32..3).prop_map(|(n, sel, pe, machine)| {
        let (subsystem, name) = NAMES[n];
        let key = match sel {
            0 => MetricKey::global(subsystem, name),
            _ => MetricKey::pe(subsystem, name, pe),
        };
        match machine {
            0 => key,
            m => key.on_machine(m),
        }
    })
}

fn arb_counted() -> impl Strategy<Value = Counted> {
    (0u32..6, 0usize..5_000).prop_map(|(kind, n)| match kind {
        0 => Counted::RemoteRead(n),
        1 => Counted::Sent(n),
        2 => Counted::DupRequest,
        3 => Counted::TelemetryIn,
        4 => Counted::Retry,
        _ => Counted::ReplicaHit,
    })
}

fn arb_op() -> impl Strategy<Value = Op> {
    let pe = (0usize..COUNTING.len()).prop_map(|i| COUNTING[i]);
    let registered = (0usize..REGISTERED.len()).prop_map(|i| REGISTERED[i]);
    (
        (0u32..10, arb_key(), 0u64..100_000),
        (pe, registered, arb_counted(), 0usize..SAMPLES.len()),
    )
        .prop_map(|((kind, key, v), (pe, reg, counted, sample))| match kind {
            0 => Op::Add(key, v),
            1 => Op::Incr(key),
            2 => Op::SetGauge(key, v),
            3 => Op::GaugeMax(key, v),
            4 => Op::Record(key, v),
            5 => Op::Register(reg),
            6 => Op::Count(pe, counted),
            7 => Op::Served(pe, v),
            8 => Op::Inflight(pe, v),
            _ => Op::Sample(pe, sample, v),
        })
}

#[derive(Default)]
struct Model {
    counters: BTreeMap<MetricKey, u64>,
    gauges: BTreeMap<MetricKey, u64>,
    histograms: BTreeMap<MetricKey, LogHistogram>,
}

/// PE `pe`'s `kernel/name`, on its machine.
fn kernel_key(pe: u32, name: &'static str) -> MetricKey {
    MetricKey {
        machine: machine_of(pe),
        ..MetricKey::pe("kernel", name, pe)
    }
}

impl Model {
    fn apply(&mut self, op: Op) {
        match op {
            Op::Add(k, v) => *self.counters.entry(k).or_insert(0) += v,
            Op::Incr(k) => *self.counters.entry(k).or_insert(0) += 1,
            Op::SetGauge(k, v) => {
                self.gauges.insert(k, v);
            }
            Op::GaugeMax(k, v) => self.gauge_max(k, v),
            Op::Record(k, v) => self.histograms.entry(k).or_default().record(v),
            Op::Register(pe) => {
                for name in KERNEL_COUNTERS {
                    self.counters.entry(kernel_key(pe, name)).or_insert(0);
                }
            }
            Op::Count(pe, what) => {
                for (name, n) in what.moves() {
                    *self.counters.entry(kernel_key(pe, name)).or_insert(0) += n;
                }
            }
            Op::Served(pe, v) => {
                *self
                    .counters
                    .entry(kernel_key(pe, "requests_served"))
                    .or_insert(0) += 1;
                self.apply(Op::Sample(pe, SAMPLES.len() - 1, v));
            }
            Op::Inflight(pe, v) => self.gauge_max(kernel_key(pe, "gm_inflight"), v),
            Op::Sample(pe, i, v) => {
                let key = match SAMPLES[i] {
                    (_, "kernel", name) => kernel_key(pe, name),
                    (_, subsystem, name) => MetricKey::pe(subsystem, name, pe),
                };
                self.histograms.entry(key).or_default().record(v);
            }
        }
    }

    fn gauge_max(&mut self, k: MetricKey, v: u64) {
        let g = self.gauges.entry(k).or_insert(0);
        *g = (*g).max(v);
    }

    fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.iter().map(|(k, v)| (*k, *v)).collect(),
            gauges: self.gauges.iter().map(|(k, v)| (*k, *v)).collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| (*k, h.clone()))
                .collect(),
        }
    }
}

fn apply(reg: &Registry, op: Op) {
    let pe = |pe: u32| PeCounters::new(reg, pe, machine_of(pe));
    match op {
        Op::Add(k, v) => reg.add(k, v),
        Op::Incr(k) => reg.incr(k),
        Op::SetGauge(k, v) => reg.set_gauge(k, v),
        Op::GaugeMax(k, v) => reg.gauge_max(k, v),
        Op::Record(k, v) => reg.record(k, v),
        Op::Register(p) => pe(p).register(),
        Op::Count(p, what) => what.count(pe(p)),
        Op::Served(p, v) => pe(p).served(v),
        Op::Inflight(p, v) => pe(p).inflight(v),
        Op::Sample(p, i, v) => pe(p).record(SAMPLES[i].0, v),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn snapshot_equals_a_single_map_model(ops in proptest::collection::vec(arb_op(), 0..300)) {
        let reg = Registry::new();
        let mut model = Model::default();
        for op in ops {
            apply(&reg, op);
            model.apply(op);
        }
        let want = model.snapshot();
        let got = reg.snapshot();
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(got.to_jsonl(), want.to_jsonl());
        prop_assert_eq!(got.to_csv(), want.to_csv());
        // One PE's own snapshot is the model's series of that PE (plus the
        // global ones when asked for), in the same order.
        for (pe, global) in [(0, true), (1, false), (3, true), (64, false), (65, false), (130, true), (199, true)] {
            let mut want = model.snapshot();
            let keep = |k: &MetricKey| k.pe == Some(pe) || (global && k.pe.is_none());
            want.counters.retain(|(k, _)| keep(k));
            want.gauges.retain(|(k, _)| keep(k));
            want.histograms.retain(|(k, _)| keep(k));
            let got = reg.snapshot_pe(pe, global);
            prop_assert_eq!(got.to_jsonl(), want.to_jsonl(), "PE {}", pe);
            prop_assert_eq!(got, want, "PE {}", pe);
        }
    }
}

/// PEs 0/64 and 1/65/129 share shards, 0, 3 and 64 are registered, and
/// every thread updates all six.
const STRESS_PES: [u32; 6] = [0, 1, 3, 64, 65, 129];
const STRESS_THREADS: usize = 8;
const STRESS_UPDATES: usize = 10_000;

/// What thread `t` does on its `i`-th update.
fn stress_op(t: usize, i: usize) -> [Op; 7] {
    let pe = STRESS_PES[(t + i) % STRESS_PES.len()];
    let v = (t * STRESS_UPDATES + i) as u64;
    [
        Op::Incr(MetricKey::pe("stress", "ops", pe)),
        Op::Add(MetricKey::global("stress", "total"), 2),
        Op::Record(MetricKey::pe("stress", "lat_ns", pe), v % 5_000),
        Op::GaugeMax(MetricKey::pe("stress", "high_water", pe), v),
        Op::Count(pe, Counted::Sent(i % 100)),
        Op::Sample(pe, i % SAMPLES.len(), v % 7_000),
        Op::Inflight(pe, v % 64),
    ]
}

#[test]
fn concurrent_updates_on_shared_shards_and_slots_lose_nothing() {
    let reg = Registry::new();
    for pe in [0, 3, 64] {
        apply(&reg, Op::Register(pe));
    }
    let start = Barrier::new(STRESS_THREADS);
    std::thread::scope(|s| {
        for t in 0..STRESS_THREADS {
            let (reg, start) = (&reg, &start);
            s.spawn(move || {
                start.wait();
                for i in 0..STRESS_UPDATES {
                    for op in stress_op(t, i) {
                        apply(reg, op);
                    }
                }
            });
        }
    });
    // Every update commutes (counter sums, histogram buckets, running
    // maxima), so applying them in any one order gives the exact totals.
    let mut model = Model::default();
    for pe in [0, 3, 64] {
        model.apply(Op::Register(pe));
    }
    for t in 0..STRESS_THREADS {
        for i in 0..STRESS_UPDATES {
            for op in stress_op(t, i) {
                model.apply(op);
            }
        }
    }
    let got = reg.snapshot();
    assert_eq!(got, model.snapshot());
    let updates = (STRESS_THREADS * STRESS_UPDATES) as u64;
    assert_eq!(got.counter("stress", "total", None), Some(2 * updates));
    assert_eq!(got.counter_sum_over_pes("stress", "ops"), updates);
    assert_eq!(got.counter_sum_over_pes("kernel", "messages"), updates);
}
