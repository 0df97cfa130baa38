//! The distributed cache: broadcast side data to every worker.
//!
//! Hadoop's distributed cache materializes a file on every node before the
//! job starts; the paper uses it for the pivots, the learned hash function,
//! and — crucially — the global HA-Index ("only the HA-Index is broadcast
//! to each server", §5.4). The broadcast volume is `size × receivers` and
//! is charged to the pipeline's traffic so Figure 7 can compare index
//! broadcast (MRHA) with whole-dataset broadcast (PMH).

use std::sync::Arc;

use crate::shuffle::ShuffleBytes;

/// A value broadcast to `receivers` workers, with its traffic cost.
#[derive(Clone, Debug)]
pub struct DistributedCache<T> {
    value: Arc<T>,
    receivers: usize,
    bytes_each: usize,
}

impl<T> DistributedCache<T> {
    /// Broadcasts `value` to `receivers` workers; `bytes_each` is the
    /// serialized size shipped to each.
    pub fn broadcast_sized(value: T, receivers: usize, bytes_each: usize) -> Self {
        assert!(receivers >= 1, "need at least one receiver");
        ha_obs::add("mr.broadcast_bytes", (bytes_each * receivers) as u64);
        DistributedCache {
            value: Arc::new(value),
            receivers,
            bytes_each,
        }
    }

    /// Shared handle to the cached value (what a worker reads).
    pub fn get(&self) -> Arc<T> {
        Arc::clone(&self.value)
    }

    /// Total network traffic of the broadcast: `bytes_each × receivers`.
    pub fn traffic_bytes(&self) -> usize {
        self.bytes_each * self.receivers
    }
}

impl<T: ShuffleBytes> DistributedCache<T> {
    /// Broadcasts a value whose size is self-reported via [`ShuffleBytes`].
    pub fn broadcast(value: T, receivers: usize) -> Self {
        let bytes = value.shuffle_bytes();
        Self::broadcast_sized(value, receivers, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_is_size_times_receivers() {
        let c = DistributedCache::broadcast_sized(vec![0u8; 100], 16, 100);
        assert_eq!(c.traffic_bytes(), 1600);
        assert_eq!(c.get().len(), 100);
    }

    #[test]
    fn self_sized_broadcast() {
        let v: Vec<u64> = vec![1, 2, 3];
        let c = DistributedCache::broadcast(v, 4);
        assert_eq!(c.traffic_bytes(), 4 * 28);
    }

    #[test]
    fn workers_share_one_copy() {
        let c = DistributedCache::broadcast_sized("payload".to_string(), 8, 7);
        let a = c.get();
        let b = c.get();
        assert!(Arc::ptr_eq(&a, &b), "single in-process copy");
    }
}
