//! The splitmix64 finalizer — [`crate::fnv`]'s sibling for scattering
//! integer keys in memory instead of checksumming bytes on disk.
//!
//! [`mix64`] is a bijection on `u64` in which every input bit flips every
//! output bit with probability ≈ ½. MIH's hashed bucket directories take a
//! chunk value's slot from its *top* bits, so values differing only in
//! low bits — the neighbours a probe enumerates — land in unrelated slots.
//! It is unkeyed: values crafted to collide only cost a directory extra
//! candidates, each verified against the full code; it is wrong for
//! tables keyed by arbitrary outside input.
//!
//! ```
//! use ha_bitcode::mix::mix64;
//!
//! assert_eq!(mix64(0), 0xe220_a839_7b1d_cdaf); // splitmix64's first output
//! assert_ne!(mix64(42), mix64(43));
//! ```

/// splitmix64 finalizer (see the module docs).
#[inline]
pub fn mix64(v: u64) -> u64 {
    let mut z = v.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_injective_on_a_dense_range() {
        assert_eq!(mix64(12345), mix64(12345));
        let mut seen: Vec<u64> = (0..4096u64).map(mix64).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 4096, "a bijection cannot collide");
    }

    #[test]
    fn single_bit_flips_avalanche_into_both_ends() {
        // Slotted directories read the top bits; consecutive and
        // one-bit-apart keys must differ there as much as in the low bits.
        let mut flipped = 0u32;
        for bit in 0..64 {
            for base in [0u64, 1, 0xdead_beef, u64::MAX] {
                flipped += (mix64(base) ^ mix64(base ^ (1 << bit))).count_ones();
            }
        }
        let mean = f64::from(flipped) / 256.0;
        assert!((28.0..36.0).contains(&mean), "mean flipped bits {mean}");
        let low: std::collections::HashSet<u64> = (0..1024u64).map(|v| mix64(v) & 1023).collect();
        let top: std::collections::HashSet<u64> = (0..1024u64).map(|v| mix64(v) >> 54).collect();
        assert!(low.len() > 600, "sequential keys spread over low bits: {}", low.len());
        assert!(top.len() > 600, "sequential keys spread over top bits: {}", top.len());
    }
}
