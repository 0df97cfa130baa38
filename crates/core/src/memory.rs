//! Memory accounting shared by the indexes (Table 4's space column).

/// Itemized memory usage of an index.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MemoryReport {
    /// Bytes spent on structural nodes (tree/graph vertices, edges).
    pub structure_bytes: usize,
    /// Bytes spent on stored codes / segment copies.
    pub code_bytes: usize,
    /// Bytes spent on tuple-id payloads (leaf contents, buckets).
    pub payload_bytes: usize,
}

impl MemoryReport {
    /// Total bytes.
    pub fn total(&self) -> usize {
        self.structure_bytes + self.code_bytes + self.payload_bytes
    }
}

/// Approximate heap size of a `Vec<T>` (capacity, not length — that is what
/// the allocator actually handed out).
pub(crate) fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// Approximate heap size of a `HashMap<K, V>`: hashbrown stores one control
/// byte plus one `(K, V)` slot per bucket; buckets ≈ capacity / load-factor.
pub(crate) fn map_bytes<K, V, S>(m: &std::collections::HashMap<K, V, S>) -> usize {
    let slot = std::mem::size_of::<(K, V)>() + 1;
    // `capacity()` is the usable capacity; the backing table is ~8/7 larger.
    (m.capacity() * 8 / 7) * slot
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn totals_add_up() {
        let r = MemoryReport {
            structure_bytes: 10,
            code_bytes: 20,
            payload_bytes: 30,
        };
        assert_eq!(r.total(), 60);
    }

    #[test]
    fn vec_bytes_follows_capacity() {
        let mut v: Vec<u64> = Vec::with_capacity(16);
        assert_eq!(vec_bytes(&v), 128);
        v.push(1);
        assert_eq!(vec_bytes(&v), 128, "length does not matter");
    }

    #[test]
    fn map_bytes_nonzero_once_populated() {
        let mut m: HashMap<u64, u64> = HashMap::new();
        assert_eq!(map_bytes(&m), 0);
        m.insert(1, 2);
        assert!(map_bytes(&m) > 0);
    }
}
