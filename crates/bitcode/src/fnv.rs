//! FNV-1a 64-bit — the workspace's single integrity-checksum primitive.
//!
//! Three layers stamp FNV-1a digests on bytes that are persisted or
//! cross a layer: the HA-Index wire format's footer (`ha_core`'s HAIX
//! blobs), the WAL frame checksums (`ha_mapreduce::wal`), and the
//! HA-Store snapshot footer (`ha-store`); serve-shard routing hashes
//! codes with it too (`BinaryCode::packed_fnv64`). They must all be the
//! *same* function — a store written by one layer is verified by another
//! — so the implementation lives here, in the lowest crate of the
//! workspace, and every consumer uses it instead of keeping a private
//! copy. DFS block digests are not among them: they are never persisted,
//! so `ha_mapreduce::checksum` keeps its own word-at-a-time hasher.
//!
//! Small, dependency-free, and good enough to detect the bit rot the
//! storage-fault plans inject; this is an integrity check against
//! corruption, not an adversary.
//!
//! ```
//! use ha_bitcode::fnv::fnv64;
//!
//! // Standard FNV-1a test vectors.
//! assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
//! assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
//! ```

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a 64-bit hasher.
#[derive(Clone, Debug)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// Fresh hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv64(FNV_OFFSET)
    }

    /// Digests raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Digests a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// One-shot digest of a byte slice.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_fnv_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn incremental_equals_one_shot() {
        let mut h = Fnv64::new();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv64(b"foobar"));
        let mut h = Fnv64::new();
        h.write_u64(0x0807_0605_0403_0201);
        assert_eq!(h.finish(), fnv64(&[1, 2, 3, 4, 5, 6, 7, 8]));
    }
}
