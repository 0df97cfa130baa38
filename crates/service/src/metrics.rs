//! Serving metrics, in the spirit of `JobMetrics`/`DfsMetrics`: what the
//! service *did* (selects, kNNs, mutations), what the micro-batcher
//! amortized (batch-size distribution), what the cache saved (hits vs
//! misses vs evictions), what admission control refused (rejections), and
//! how long shard probes took (per-shard latency histograms).

use std::time::Duration;

/// The log₂ latency histogram, now shared workspace-wide. The type moved
/// to [`ha_obs::Histogram`] when the central metrics registry landed;
/// this alias keeps the serving layer's original name (and every caller)
/// working unchanged.
pub use ha_obs::Histogram as LatencyHistogram;

/// Per-shard serving statistics.
#[derive(Clone, Debug, Default)]
pub struct ShardMetrics {
    /// Batch probes executed against this shard (each answers a whole
    /// micro-batch in one traversal).
    pub searches: u64,
    /// Tuples resident in the shard at snapshot time.
    pub items: usize,
    /// Latency of this shard's batch probes.
    pub latency: LatencyHistogram,
    /// Generation number currently published (0 = the build-time
    /// generation; each background merge publishes the next).
    pub generation: u64,
    /// Mutations pending in the shard's delta overlay — the
    /// generation-lag gauge the merge worker drains.
    pub delta_ops: usize,
    /// True when the merge worker exhausted its retries on this shard
    /// and the shard degraded to delta-only serving (reads stay exact;
    /// the delta just stops being absorbed).
    pub merge_poisoned: bool,
}

/// A point-in-time snapshot of everything the service has done, returned
/// by `HaServe::metrics`. Counters are cumulative since service start.
#[derive(Clone, Debug, Default)]
pub struct ServeMetrics {
    /// Hamming-select queries answered (cache hits included).
    pub selects: u64,
    /// kNN-select queries answered.
    pub knns: u64,
    /// Successful H-Inserts applied.
    pub inserts: u64,
    /// Successful H-Deletes applied (misses are not counted).
    pub deletes: u64,
    /// Selects answered straight from the epoch-validated result cache.
    pub cache_hits: u64,
    /// Selects that had to run H-Search.
    pub cache_misses: u64,
    /// Cache entries displaced by the capacity bound (stale-epoch
    /// invalidations are not evictions — they are correctness, not
    /// pressure).
    pub cache_evictions: u64,
    /// Requests refused by admission control (queue full).
    pub rejected: u64,
    /// Requests shed at dequeue because their deadline had already
    /// expired (answered with `ServiceError::DeadlineExceeded`, never
    /// executed, not counted as selects/knns).
    pub deadline_shed: u64,
    /// Mutation records appended to the write-ahead log (durable mode
    /// only; 0 when serving from memory).
    pub wal_appends: u64,
    /// WAL records replayed onto deltas during recovery.
    pub wal_replayed: u64,
    /// Merge attempts started by the freeze/merge worker (retries after
    /// an injected panic count separately).
    pub merge_attempts: u64,
    /// Merge attempts that panicked and were contained by the worker's
    /// panic isolation.
    pub merge_panics: u64,
    /// Generations successfully published (delta absorbed, snapshot
    /// swapped, WAL truncated).
    pub merges_completed: u64,
    /// Micro-batches that actually executed a shard probe (fully
    /// cache-answered groups form no batch).
    pub batches_formed: u64,
    /// Batch-size distribution: `(size, batches of that size)`, sorted by
    /// size ascending.
    pub batch_sizes: Vec<(usize, u64)>,
    /// Per-shard probe counts and latency histograms.
    pub per_shard: Vec<ShardMetrics>,
    /// Wall-clock since the service started.
    pub elapsed: Duration,
}

impl ServeMetrics {
    /// Queries answered (selects + kNNs).
    pub fn answered(&self) -> u64 {
        self.selects + self.knns
    }

    /// Queries answered per second of service lifetime.
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.answered() as f64 / secs
        }
    }

    /// Latency histogram aggregated across all shards.
    pub fn total_latency(&self) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for s in &self.per_shard {
            h.merge(&s.latency);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_powers_of_two() {
        let mut h = LatencyHistogram::new();
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
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), Duration::ZERO);
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(Duration::from_nanos(10));
        b.record(Duration::from_micros(10));
        a.merge(&b);
        assert_eq!(a.count(), 2);
    }

    #[test]
    fn huge_samples_saturate_last_bucket() {
        let mut h = LatencyHistogram::new();
        h.record(Duration::from_secs(100_000));
        assert_eq!(h.count(), 1);
        assert!(h.quantile(1.0) >= Duration::from_secs(500));
    }

    #[test]
    fn derived_rates() {
        let m = ServeMetrics {
            selects: 90,
            knns: 10,
            cache_hits: 30,
            cache_misses: 60,
            batch_sizes: vec![(1, 20), (4, 10)],
            elapsed: Duration::from_secs(2),
            ..ServeMetrics::default()
        };
        assert_eq!(m.answered(), 100);
        assert!((m.throughput() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn empty_metrics_rates_are_zero() {
        let m = ServeMetrics::default();
        assert_eq!(m.throughput(), 0.0);
        assert_eq!(m.total_latency().count(), 0);
    }
}
