//! Log-bucketed latency histograms.
//!
//! The paper's latency phenomena span five orders of magnitude (sub-µs
//! library calls to multi-ms collision storms), so fixed-width buckets are
//! useless. This histogram uses HDR-style buckets: values `0..16` are
//! exact, above that each power-of-two octave is split into 8 linear
//! sub-buckets, giving a worst-case quantile error of ~12.5% at any scale
//! while keeping `record` branch-light and allocation-free after warm-up.

/// Sub-buckets per octave = `1 << SUB_BITS`.
const SUB_BITS: u32 = 3;
/// Values below this are their own bucket (exact).
const EXACT: u64 = 1 << (SUB_BITS + 1);
/// First octave handled by the log region.
const FIRST_OCTAVE: u32 = SUB_BITS + 1;

/// Index of the bucket containing `v`.
#[inline]
const fn bucket_index(v: u64) -> usize {
    if v < EXACT {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros(); // >= FIRST_OCTAVE
    let shift = msb - SUB_BITS;
    let sub = ((v >> shift) & ((1 << SUB_BITS) - 1)) as usize;
    EXACT as usize + ((msb - FIRST_OCTAVE) as usize) * (1 << SUB_BITS) + sub
}

/// The highest bucket index any sample can have (495).
pub(crate) const LAST_BUCKET: usize = bucket_index(u64::MAX);

/// Inclusive upper bound of bucket `i` (monotone in `i`).
#[inline]
fn bucket_upper(i: usize) -> u64 {
    if i < EXACT as usize {
        return i as u64;
    }
    let k = i - EXACT as usize;
    let octave = FIRST_OCTAVE + (k >> SUB_BITS) as u32;
    let sub = (k & ((1 << SUB_BITS) - 1)) as u128;
    let shift = octave - SUB_BITS;
    // The top sub-buckets of octave 63 exceed u64::MAX; saturate there.
    let upper = (((1u128 << SUB_BITS) + sub + 1) << shift) - 1;
    upper.min(u64::MAX as u128) as u64
}

/// A log-bucketed histogram of `u64` samples (latencies in nanoseconds,
/// sizes in bytes, ...).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LogHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram::default()
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        let i = bucket_index(v);
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        if self.count == 1 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.count == 0 {
            return;
        }
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (i, c) in other.counts.iter().enumerate() {
            self.counts[i] += c;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample (0 if empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest recorded sample (0 if empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile `q in [0,1]`: the upper bound of the bucket
    /// holding the `ceil(q*count)`-th sample, clamped into `[min, max]`.
    /// Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_upper(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile — the tail the serving-SLO story is written in.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Non-empty buckets as `(inclusive upper bound, count)`, in increasing
    /// bound order. Bounds are monotone and counts sum to [`Self::count`].
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_upper(i), c))
            .collect()
    }

    // -- raw-bucket access for the telemetry delta codec (crate-internal) --
    //
    // The aggregate module ships histograms between PEs as *bucket-index*
    // deltas, so it needs to see and rebuild the internal `counts` layout.
    // The invariant preserved by all of these: `counts` never has trailing
    // zero entries (its length is exactly `max nonzero index + 1`), which is
    // what `record` produces and what `PartialEq` compares.

    /// Raw bucket counts, indexed by internal bucket index.
    pub(crate) fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Add `delta` samples' worth of count to bucket `index` (grows the
    /// bucket vector as `record` would). Callers must keep `count`/`sum`
    /// consistent via [`Self::add_totals_raw`].
    pub(crate) fn add_bucket_raw(&mut self, index: usize, delta: u64) {
        if delta == 0 {
            return;
        }
        if index >= self.counts.len() {
            self.counts.resize(index + 1, 0);
        }
        self.counts[index] += delta;
    }

    /// Fold shipped totals into this histogram: `count`/`sum` accumulate,
    /// `min`/`max` are absolute over the emitting series' whole history so
    /// they replace (per-PE series have a single writer).
    pub(crate) fn add_totals_raw(&mut self, count: u64, sum: u64, min: u64, max: u64) {
        self.count += count;
        self.sum = self.sum.saturating_add(sum);
        if self.count > 0 {
            self.min = min;
            self.max = max;
        }
    }

    /// Totals as shipped on the wire: `(count, sum, min, max)`.
    pub(crate) fn totals_raw(&self) -> (u64, u64, u64, u64) {
        (self.count, self.sum, self.min, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_region_is_exact() {
        for v in 0..EXACT {
            assert_eq!(bucket_upper(bucket_index(v)), v);
        }
    }

    #[test]
    fn bounds_are_monotone_and_contain_their_values() {
        let mut prev = None;
        for i in 0..400 {
            let ub = bucket_upper(i);
            if let Some(p) = prev {
                assert!(ub > p, "bounds must strictly increase ({i})");
            }
            prev = Some(ub);
        }
        for shift in 0..63 {
            for off in [0u64, 1, 3] {
                let v = (1u64 << shift) + off;
                let i = bucket_index(v);
                assert!(v <= bucket_upper(i), "value above its bucket bound");
                if i > 0 {
                    assert!(v > bucket_upper(i - 1), "value below its bucket");
                }
            }
        }
    }

    #[test]
    fn quantiles_of_uniform_ramp() {
        let mut h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        let p50 = h.p50();
        assert!((450..=600).contains(&p50), "p50 was {p50}");
        let p99 = h.p99();
        assert!((950..=1000).contains(&p99), "p99 was {p99}");
        let p999 = h.p999();
        assert!((990..=1000).contains(&p999), "p999 was {p999}");
        assert!(p99 <= p999);
        assert!(h.quantile(1.0) <= 1000);
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut all = LogHistogram::new();
        for v in [0u64, 1, 17, 300, 5_000_000, u64::MAX / 2] {
            a.record(v);
            all.record(v);
        }
        for v in [9u64, 1_000_000_000, 3] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn empty_histogram_is_quiet() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.nonzero_buckets().is_empty());
    }
}
