//! The sharded registry against a plain model: any mix of updates over
//! global series and PEs past the shard count snapshots to exactly the
//! key-sorted maps a single `BTreeMap` per kind would hold, and concurrent
//! updates to PEs that share shards lose nothing. Several adds under one
//! lock (`add_each`) are the same adds one by one.

use std::collections::BTreeMap;
use std::sync::Barrier;

use dse_obs::{LogHistogram, MetricKey, MetricsSnapshot, Registry};
use proptest::prelude::*;

const NAMES: [(&str, &str); 3] = [
    ("kernel", "messages"),
    ("gm", "remote_read_ns"),
    ("net", "queue_depth"),
];

#[derive(Debug, Clone, Copy)]
enum Op {
    Add(MetricKey, u64),
    /// Two adds to the key under one lock: the delta, then one.
    AddEach(MetricKey, u64),
    Incr(MetricKey),
    SetGauge(MetricKey, u64),
    GaugeMax(MetricKey, u64),
    Record(MetricKey, u64),
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

fn arb_op() -> impl Strategy<Value = Op> {
    (0u32..6, arb_key(), 0u64..100_000).prop_map(|(kind, key, v)| match kind {
        0 => Op::Add(key, v),
        5 => Op::AddEach(key, v),
        1 => Op::Incr(key),
        2 => Op::SetGauge(key, v),
        3 => Op::GaugeMax(key, v),
        _ => Op::Record(key, v),
    })
}

#[derive(Default)]
struct Model {
    counters: BTreeMap<MetricKey, u64>,
    gauges: BTreeMap<MetricKey, u64>,
    histograms: BTreeMap<MetricKey, LogHistogram>,
}

impl Model {
    fn apply(&mut self, op: Op) {
        match op {
            Op::Add(k, v) => *self.counters.entry(k).or_insert(0) += v,
            Op::AddEach(k, v) => *self.counters.entry(k).or_insert(0) += v + 1,
            Op::Incr(k) => *self.counters.entry(k).or_insert(0) += 1,
            Op::SetGauge(k, v) => {
                self.gauges.insert(k, v);
            }
            Op::GaugeMax(k, v) => {
                let g = self.gauges.entry(k).or_insert(0);
                *g = (*g).max(v);
            }
            Op::Record(k, v) => self.histograms.entry(k).or_default().record(v),
        }
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
    match op {
        Op::Add(k, v) => reg.add(k, v),
        Op::AddEach(k, v) => reg.add_each(k.pe, |add| {
            add(k, v);
            add(k, 1);
        }),
        Op::Incr(k) => reg.incr(k),
        Op::SetGauge(k, v) => reg.set_gauge(k, v),
        Op::GaugeMax(k, v) => reg.gauge_max(k, v),
        Op::Record(k, v) => reg.record(k, v),
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
        prop_assert_eq!(reg.snapshot(), model.snapshot());
        // One PE's own snapshot is the model's series of that PE (plus the
        // global ones when asked for), in the same order.
        for (pe, global) in [(0, true), (1, false), (65, false), (199, true)] {
            let mut want = model.snapshot();
            let keep = |k: &MetricKey| k.pe == Some(pe) || (global && k.pe.is_none());
            want.counters.retain(|(k, _)| keep(k));
            want.gauges.retain(|(k, _)| keep(k));
            want.histograms.retain(|(k, _)| keep(k));
            prop_assert_eq!(reg.snapshot_pe(pe, global), want, "PE {}", pe);
        }
    }
}

/// PEs 0/64 and 1/65/129 share shards, and every thread updates all five.
const STRESS_PES: [u32; 5] = [0, 1, 64, 65, 129];
const STRESS_THREADS: usize = 8;
const STRESS_UPDATES: usize = 10_000;

/// What thread `t` does on its `i`-th update.
fn stress_op(t: usize, i: usize) -> [Op; 4] {
    let pe = STRESS_PES[(t + i) % STRESS_PES.len()];
    let v = (t * STRESS_UPDATES + i) as u64;
    [
        Op::Incr(MetricKey::pe("stress", "ops", pe)),
        Op::Add(MetricKey::global("stress", "total"), 2),
        Op::Record(MetricKey::pe("stress", "lat_ns", pe), v % 5_000),
        Op::GaugeMax(MetricKey::pe("stress", "high_water", pe), v),
    ]
}

#[test]
fn concurrent_updates_on_shared_shards_lose_nothing() {
    let reg = Registry::new();
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
}
