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
pub(crate) fn map_bytes<K, V>(m: &std::collections::HashMap<K, V>) -> usize {
    let slot = std::mem::size_of::<(K, V)>() + 1;
    // `capacity()` is the usable capacity; the backing table is ~8/7 larger.
    (m.capacity() * 8 / 7) * slot
}

/// First capacity, in bytes, [`seed_bulk`] gives a buffer.
const BULK_SEED_BYTES: usize = 4096;

/// Gives the empty `v` its first allocation ahead of a bulk build that will
/// push at least `expected` elements into it.
///
/// A `Vec` grows with `realloc`, which stays in the malloc arena of the
/// chunk it started from. Left to itself the first chunk is four elements
/// — small enough for glibc to serve it from the calling thread's cache of
/// recently freed chunks, and after a parallel probe that cache holds
/// chunks from the fan-out workers' arenas (their result lists are freed
/// by the caller). One such chunk under a rebuild's node arena keeps all
/// 20 MB of it, and every copy it outgrows, in a foreign arena that hands
/// nothing back: a serving shard's peak RSS moved by 70 MB from run to
/// run. A first request of a few KiB is past the thread cache's size
/// classes, so it always comes from the caller's own arena.
///
/// The seed is a power-of-two element count, so a buffer filled a push (or
/// a power-of-two stride) at a time ends on the capacity amortized
/// doubling would have reached from four, and a build smaller than the
/// seed is left alone: `memory_bytes()` reads what it read without it.
pub(crate) fn seed_bulk<T>(v: &mut Vec<T>, expected: usize) {
    debug_assert!(v.capacity() == 0, "seed_bulk is for a buffer's first allocation");
    let seed = (BULK_SEED_BYTES / std::mem::size_of::<T>().max(1)).next_power_of_two();
    if expected >= seed {
        v.reserve(seed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn seed_bulk_keeps_the_doubling_capacity() {
        for n in [0usize, 3, 100, 511, 512, 5_000, 70_000] {
            let mut plain: Vec<u64> = Vec::new();
            let mut seeded: Vec<u64> = Vec::new();
            seed_bulk(&mut seeded, n);
            assert_eq!(seeded.capacity(), if n >= 512 { 512 } else { 0 }, "n={n}");
            for i in 0..n as u64 {
                plain.push(i);
                seeded.push(i);
            }
            assert_eq!(seeded.capacity(), plain.capacity(), "n={n}");
        }
    }

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
