//! Integer-key hasher for the chunk tables — [`crate::fnv`]'s sibling for
//! in-memory maps instead of on-disk checksums.
//!
//! A chunk table is keyed by a `u64` chunk value, and std's default
//! SipHash-1-3 spends more on hashing that one word than a bucket probe
//! spends on everything else. [`Mix64`] is the splitmix64 finalizer: two
//! multiply-xorshift rounds, a bijection on `u64` in which every input bit
//! flips every output bit with probability ≈ ½ — hashbrown takes the
//! bucket from the low bits and the control byte from the top seven, so
//! both ends must avalanche (an identity or FNV hasher would not do).
//!
//! It is unkeyed: the protection SipHash gives against keys crafted to
//! collide is given up, which is acceptable for chunk values (at most
//! `2^width` distinct keys per table, every bucket still verified
//! against the full code) and wrong for maps keyed by arbitrary outside
//! input.
//!
//! ```
//! use std::collections::HashMap;
//! use ha_bitcode::mix::BuildMix64;
//!
//! let mut table: HashMap<u64, u32, BuildMix64> = HashMap::default();
//! table.insert(42, 7);
//! assert_eq!(table.get(&42), Some(&7));
//! ```

use std::hash::{BuildHasherDefault, Hasher};

/// `BuildHasher` for `HashMap<u64, _, BuildMix64>`.
pub type BuildMix64 = BuildHasherDefault<Mix64>;

/// splitmix64-finalizer hasher (see the module docs).
#[derive(Clone, Copy, Debug, Default)]
pub struct Mix64(u64);

impl Hasher for Mix64 {
    #[inline]
    fn write_u64(&mut self, v: u64) {
        let mut z = (self.0 ^ v).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = z ^ (z >> 31);
    }

    /// Non-`u64` keys fold through [`Mix64::write_u64`] eight bytes at a
    /// time (little-endian, the tail zero-padded).
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash(v: u64) -> u64 {
        BuildMix64::default().hash_one(v)
    }

    #[test]
    fn deterministic_and_injective_on_a_dense_range() {
        assert_eq!(hash(12345), hash(12345));
        let mut seen: Vec<u64> = (0..4096u64).map(hash).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 4096, "a bijection cannot collide");
    }

    #[test]
    fn single_bit_flips_avalanche_into_both_ends() {
        // hashbrown reads the low bits (bucket) and the top 7 (control
        // byte): consecutive and one-bit-apart keys must differ in both.
        let mut flipped = 0u32;
        for bit in 0..64 {
            for base in [0u64, 1, 0xdead_beef, u64::MAX] {
                flipped += (hash(base) ^ hash(base ^ (1 << bit))).count_ones();
            }
        }
        let mean = f64::from(flipped) / 256.0;
        assert!((28.0..36.0).contains(&mean), "mean flipped bits {mean}");
        let low: std::collections::HashSet<u64> = (0..1024u64).map(|v| hash(v) & 1023).collect();
        let top: std::collections::HashSet<u64> = (0..1024u64).map(|v| hash(v) >> 57).collect();
        assert!(
            low.len() > 600,
            "sequential keys spread over low bits: {}",
            low.len()
        );
        assert_eq!(top.len(), 128, "sequential keys reach every control byte");
    }

    #[test]
    fn byte_slices_fold_through_the_word_path() {
        let mut a = Mix64::default();
        a.write(&7u64.to_le_bytes());
        assert_eq!(a.finish(), hash(7));
        let mut b = Mix64::default();
        b.write(&[1, 2, 3]);
        let mut c = Mix64::default();
        c.write(&[1, 2, 4]);
        assert_ne!(b.finish(), c.finish());
    }
}
