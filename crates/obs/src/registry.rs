//! The central metrics registry: named monotonic counters and
//! power-of-two latency histograms.
//!
//! This supersedes the three ad-hoc structs that grew up around it —
//! `TaskMetrics`/`JobMetrics` (ha-mapreduce), `DfsMetrics`
//! (ha-mapreduce), and `ServeMetrics` (ha-service) remain as per-run /
//! per-instance *compatibility views*, while instrumented code paths bump
//! the same quantities here under stable dotted names (`mr.*`, `dfs.*`,
//! `serve.*`). `tests/observability.rs` at the workspace root pins the
//! equivalence: on a seeded chaos run the registry totals equal the
//! legacy counters exactly.

use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// Number of power-of-two buckets: bucket `i` covers `[2^i, 2^{i+1})`
/// nanoseconds, so 40 buckets span 1 ns to ~18 minutes.
const BUCKETS: usize = 40;

/// A fixed-size log₂ histogram. Recording is O(1) (one array increment);
/// quantiles are read off the cumulative counts and reported as the
/// upper bound of the containing bucket, so they never under-state a
/// latency. Originally `ha-service`'s `LatencyHistogram`; that name
/// remains re-exported there as a compatibility alias.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; BUCKETS],
}

impl Default for Histogram {
    // [u64; 40] has no derived Default (arrays cap at 32).
    fn default() -> Self {
        Histogram { counts: [0; BUCKETS] }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample. Sub-nanosecond (zero) durations land in the
    /// first bucket.
    pub fn record(&mut self, sample: Duration) {
        let ns = (sample.as_nanos() as u64).max(1);
        let bucket = (63 - ns.leading_zeros() as usize).min(BUCKETS - 1);
        self.counts[bucket] += 1;
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The `q`-quantile (`q` in `[0, 1]`), as the upper bound of the
    /// bucket containing that rank. [`Duration::ZERO`] when empty.
    pub fn quantile(&self, q: f64) -> Duration {
        let total = self.count();
        if total == 0 {
            return Duration::ZERO;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Duration::from_nanos((2u64 << i) - 1);
            }
        }
        Duration::ZERO
    }

    /// Folds another histogram into this one (cross-shard aggregation).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }
}

/// Thread-safe store of named counters and histograms. One registry
/// lives inside each collector; use the free functions [`crate::add`]
/// and [`crate::observe`] to reach the active one.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, u64>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

impl Registry {
    /// A registry with no metrics yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the counter `name` (created at zero on first use).
    pub fn add(&self, name: &str, delta: u64) {
        self.add_many(&[(name, delta)]);
    }

    /// [`Registry::add`] for several counters under one lock acquisition —
    /// for hot paths that flush a handful of per-query tallies at once.
    pub fn add_many(&self, deltas: &[(&str, u64)]) {
        let mut counters = self
            .counters
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        for &(name, delta) in deltas {
            match counters.get_mut(name) {
                Some(v) => *v += delta,
                None => {
                    counters.insert(name.to_string(), delta);
                }
            }
        }
    }

    /// Records `sample` into the histogram `name` (created empty on
    /// first use).
    pub fn observe(&self, name: &str, sample: Duration) {
        let mut histograms = self
            .histograms
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        histograms.entry(name.to_string()).or_default().record(sample);
    }

    /// Clones the current contents.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone(),
            histograms: self
                .histograms
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone(),
        }
    }
}

/// A point-in-time copy of a [`Registry`], carried by [`crate::Trace`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter name → cumulative value, sorted by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram name → bucket counts, sorted by name.
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    /// The counter's value, 0 when it was never bumped.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named histogram, empty when nothing was observed.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histograms.get(name).copied().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_powers_of_two() {
        let mut h = Histogram::new();
        h.record(Duration::from_nanos(0)); // clamps into the first bucket
        h.record(Duration::from_nanos(1));
        h.record(Duration::from_nanos(3));
        h.record(Duration::from_nanos(1024));
        assert_eq!(h.count(), 4);
        // Quantiles are bucket upper bounds and monotone in q.
        assert_eq!(h.quantile(0.5), Duration::from_nanos(1));
        assert_eq!(h.quantile(0.75), Duration::from_nanos(3));
        assert_eq!(h.quantile(1.0), Duration::from_nanos(2047));
        assert!(h.quantile(0.5) <= h.quantile(0.99));
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), Duration::ZERO);
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(Duration::from_nanos(10));
        b.record(Duration::from_micros(10));
        a.merge(&b);
        assert_eq!(a.count(), 2);
    }

    #[test]
    fn huge_samples_saturate_last_bucket() {
        let mut h = Histogram::new();
        h.record(Duration::from_secs(100_000));
        assert_eq!(h.count(), 1);
        assert!(h.quantile(1.0) >= Duration::from_secs(500));
    }

    #[test]
    fn registry_accumulates_and_snapshots() {
        let r = Registry::new();
        r.add("a", 2);
        r.add_many(&[("a", 3), ("b", 1)]);
        r.observe("lat", Duration::from_micros(5));
        r.observe("lat", Duration::from_micros(50));
        let snap = r.snapshot();
        assert_eq!(snap.counter("a"), 5);
        assert_eq!(snap.counter("b"), 1);
        assert_eq!(snap.counter("missing"), 0);
        assert_eq!(snap.histogram("lat").count(), 2);
        assert_eq!(snap.histogram("missing").count(), 0);
        // Snapshot is a copy: later bumps don't show up in it.
        r.add("a", 100);
        assert_eq!(snap.counter("a"), 5);
    }

    #[test]
    fn registry_is_shareable_across_threads() {
        let r = Registry::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        r.add("hits", 1);
                    }
                });
            }
        });
        assert_eq!(r.snapshot().counter("hits"), 4000);
    }
}
