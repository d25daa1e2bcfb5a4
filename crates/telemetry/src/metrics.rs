//! Campaign metrics: counters, gauges and log-bucketed histograms
//! behind one lock.
//!
//! [`MetricsRegistry`] is the write-side handle: one mutex over one
//! [`MetricsSnapshot`]. Every record takes the lock, updates the data
//! and releases it; [`MetricsRegistry::snapshot`] clones the data under
//! the same lock. A hooked paper-protocol study makes a few thousand
//! records per second across its workers, which one mutex handles with
//! room to spare.
//!
//! Totals never depend on thread scheduling: counters and histogram
//! buckets are integer sums and histogram sums are kept in integer
//! nano-units, so the order in which workers record cannot change
//! them. A gauge holds the last value written under the lock.
//!
//! # Example
//! ```
//! use grel_telemetry::MetricsRegistry;
//! let reg = MetricsRegistry::new();
//! reg.counter("injections_total", 3);
//! reg.gauge("rungs", 16.0);
//! reg.observe("replay_seconds", 0.25);
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter("injections_total"), Some(3));
//! assert_eq!(snap.gauge("rungs"), Some(16.0));
//! assert_eq!(snap.histogram("replay_seconds").unwrap().count(), 1);
//! ```

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Number of log₂ buckets per histogram.
const BUCKETS: usize = 64;

/// Smallest resolvable histogram value (1 nano-unit); values below land
/// in bucket 0.
const HIST_MIN: f64 = 1e-9;

/// A fixed-footprint log₂-bucketed histogram of non-negative `f64`
/// samples (seconds, cycles, bytes, …).
///
/// Bucket `i` holds samples in `[2^i, 2^(i+1))` nano-units, covering
/// `1e-9 .. ~9.2e9` with one bucket per octave. The running sum is kept
/// in integer nano-units, so it does not depend on recording order.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum_nanos: i128,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum_nanos: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

fn bucket_index(value: f64) -> usize {
    let nanos = (value / HIST_MIN).max(1.0);
    if nanos >= u64::MAX as f64 {
        return BUCKETS - 1;
    }
    // floor(log2) via the integer bit width: exact and platform-stable.
    (63 - (nanos as u64).leading_zeros() as usize).min(BUCKETS - 1)
}

impl Histogram {
    /// Records one sample (negative samples clamp to zero).
    pub fn record(&mut self, value: f64) {
        let v = if value.is_finite() {
            value.max(0.0)
        } else {
            0.0
        };
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum_nanos += (v / HIST_MIN).round() as i128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum_nanos as f64 * HIST_MIN
    }

    /// Mean sample, or 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum() / self.count as f64
        }
    }

    /// Smallest sample, or 0 for an empty histogram.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 for an empty histogram.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Non-empty buckets as `(upper_bound, count)` pairs in ascending
    /// bound order. Bucket `i` covers `[2^i, 2^(i+1))` nano-units, so
    /// the exposed upper bound is `HIST_MIN * 2^(i+1)` — what a
    /// Prometheus `_bucket{le="..."}` series needs (counts here are
    /// per-bucket, not cumulative; the exposition layer accumulates).
    pub fn buckets(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (HIST_MIN * 2f64.powi(i as i32 + 1), n))
    }

    /// The `q`-quantile (`0.0..=1.0`) to one-octave resolution.
    ///
    /// Deterministic: a pure function of the recorded sample multiset.
    /// Returns the upper bound of the bucket holding the target rank,
    /// clamped into `[min, max]`; 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let upper = HIST_MIN * 2f64.powi(i as i32 + 1);
                return upper.clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// Every metric of a registry at one moment.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    /// The value of a counter, if it was ever incremented.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// The latest value of a gauge, if it was ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// A histogram, if it ever received a sample.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, h)| (k.as_str(), h))
    }

    /// Whether no metric was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    fn record_counter(&mut self, name: &str, delta: u64) {
        if let Some(v) = self.counters.get_mut(name) {
            *v += delta;
        } else {
            self.counters.insert(name.to_string(), delta);
        }
    }

    fn record_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    fn record_observation(&mut self, name: &str, value: f64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.record(value);
        } else {
            let mut h = Histogram::default();
            h.record(value);
            self.histograms.insert(name.to_string(), h);
        }
    }
}

/// The write-side handle: one lock over one [`MetricsSnapshot`] (see the
/// [module docs](self)). Cloning is shallow (`Arc`); clones record into
/// the same metric set.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    data: Arc<Mutex<MetricsSnapshot>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn data(&self) -> MutexGuard<'_, MetricsSnapshot> {
        self.data.lock().expect("metrics registry poisoned")
    }

    /// Adds `delta` to the named monotonic counter.
    pub fn counter(&self, name: &str, delta: u64) {
        self.data().record_counter(name, delta);
    }

    /// Sets the named gauge (the last write wins).
    pub fn gauge(&self, name: &str, value: f64) {
        self.data().record_gauge(name, value);
    }

    /// Records one sample into the named histogram.
    pub fn observe(&self, name: &str, value: f64) {
        self.data().record_observation(name, value);
    }

    /// A copy of every metric recorded so far. Repeated snapshots
    /// report cumulative totals.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.data().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let reg = MetricsRegistry::new();
        reg.counter("a", 1);
        reg.counter("a", 2);
        reg.counter("b", 5);
        let s = reg.snapshot();
        assert_eq!(s.counter("a"), Some(3));
        assert_eq!(s.counter("b"), Some(5));
        assert_eq!(s.counter("c"), None);
    }

    #[test]
    fn gauges_take_latest_write() {
        let reg = MetricsRegistry::new();
        reg.gauge("g", 1.0);
        reg.gauge("g", 7.5);
        assert_eq!(reg.snapshot().gauge("g"), Some(7.5));
    }

    #[test]
    fn cross_thread_records_merge() {
        let reg = MetricsRegistry::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let reg = &reg;
                scope.spawn(move || {
                    for _ in 0..100 {
                        reg.counter("hits", 1);
                        reg.observe("lat", 0.001);
                    }
                });
            }
        });
        let s = reg.snapshot();
        assert_eq!(s.counter("hits"), Some(400));
        assert_eq!(s.histogram("lat").unwrap().count(), 400);
    }

    #[test]
    fn snapshot_is_cumulative_not_draining() {
        let reg = MetricsRegistry::new();
        reg.counter("c", 1);
        assert_eq!(reg.snapshot().counter("c"), Some(1));
        reg.counter("c", 1);
        assert_eq!(reg.snapshot().counter("c"), Some(2));
    }

    #[test]
    fn two_registries_on_one_thread_stay_separate() {
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        a.counter("x", 1);
        b.counter("x", 10);
        assert_eq!(a.snapshot().counter("x"), Some(1));
        assert_eq!(b.snapshot().counter("x"), Some(10));
    }

    #[test]
    fn histogram_stats() {
        let mut h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.mean(), 0.0);
        for v in [1.0, 2.0, 4.0, 8.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 15.0).abs() < 1e-6);
        assert!((h.mean() - 3.75).abs() < 1e-6);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 8.0);
        // Quantiles land within one octave of the exact value and are
        // clamped into [min, max].
        assert!(h.quantile(0.0) >= h.min() && h.quantile(0.0) <= 2.0 + 1e-9);
        assert_eq!(h.quantile(1.0), 8.0);
        let q50 = h.quantile(0.5);
        assert!((1.0..=4.0 + 1e-9).contains(&q50), "p50 = {q50}");
    }

    #[test]
    fn histogram_handles_pathological_samples() {
        let mut h = Histogram::default();
        h.record(-3.0);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(0.0);
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), 0.0);
    }

    #[test]
    fn bucket_index_is_monotonic() {
        let mut last = 0;
        for exp in -9..9 {
            let idx = bucket_index(10f64.powi(exp));
            assert!(idx >= last, "bucket index regressed at 1e{exp}");
            last = idx;
        }
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(f64::MAX), BUCKETS - 1);
    }
}
