//! Chunked-probe kernels for Multi-Index Hashing (Norouzi et al.).
//!
//! MIH splits a code into `m` chunks and keeps one hash table per chunk.
//! A query with threshold `h = m·r + a` (`0 <= a < m`) probes chunks
//! `0..=a` with radius `r` and the remaining chunks with radius `r − 1`:
//! by the generalized pigeonhole principle, if every leading chunk
//! differed by more than `r` and every trailing chunk by more than
//! `r − 1`, the total distance would be at least
//! `(a+1)(r+1) + (m−a−1)r = h + 1`. Probing a chunk with radius `ρ`
//! means enumerating **every value within Hamming distance ρ** of the
//! query's chunk value and looking each one up — the kernels here supply
//! that enumeration and its exact cost, so the index layer can cap the
//! probe budget and fall back to a linear scan before the enumeration
//! turns combinatorial.

/// Number of values within Hamming distance `radius` of a `width`-bit
/// value: `Σ_{i<=min(radius,width)} C(width, i)`, saturating at
/// `u64::MAX`. This is the exact number of callbacks
/// [`for_each_neighbor`] issues, and the probe-cost term of the MIH cost
/// model.
pub fn neighborhood_size(width: u32, radius: u32) -> u64 {
    let r = radius.min(width);
    let mut total: u64 = 0;
    let mut c: u64 = 1; // C(width, 0)
    for i in 1..=r + 1 {
        total = total.saturating_add(c);
        if i > r {
            break;
        }
        // C(width, i) = C(width, i−1) · (width − i + 1) / i — the
        // division is exact at every step.
        c = match c.checked_mul(u64::from(width - i + 1)) {
            Some(x) => x / u64::from(i),
            None => return u64::MAX,
        };
    }
    total
}

/// Invokes `f` once for every `width`-bit value within Hamming distance
/// `radius` of `value` (including `value` itself), each exactly once.
/// Enumeration order flips bit subsets in ascending-position order, so it
/// is deterministic. The value occupies the low `width` bits, matching
/// [`crate::segment::Segmentation::extract`].
///
/// # Panics
/// If `width` exceeds 64.
pub fn for_each_neighbor(value: u64, width: u32, radius: u32, f: &mut impl FnMut(u64)) {
    assert!(width <= 64, "chunk values must fit a u64");
    fn rec(value: u64, width: u32, radius: u32, from: u32, f: &mut impl FnMut(u64)) {
        f(value);
        if radius == 0 {
            return;
        }
        for b in from..width {
            rec(value ^ (1u64 << b), width, radius - 1, b + 1, f);
        }
    }
    rec(value, width, radius.min(width), 0, f);
}

/// [`crate::BinaryCode::extract`] over one row of a flat word store: the
/// `width`-bit value (`1..=64`) at bit `start`, most significant first.
#[inline]
pub fn chunk_value(words: &[u64], start: usize, width: usize) -> u64 {
    let (first, offset) = (start / 64, start % 64);
    let hi = words[first] << offset;
    let value = if offset + width <= 64 { hi } else { hi | (words[first + 1] >> (64 - offset)) };
    value >> (64 - width)
}

/// Early-exit Hamming distance between two equal-length word slices:
/// `Some(d)` when `d <= limit`, `None` as soon as the running popcount
/// exceeds `limit`. This is the full-distance verification kernel MIH
/// runs over its flat row storage (same stride layout as
/// [`crate::BinaryCode::words`]).
///
/// # Panics
/// If the slices differ in length.
pub fn distance_within_words(a: &[u64], b: &[u64], limit: u32) -> Option<u32> {
    assert_eq!(a.len(), b.len(), "word slices must have equal length");
    let mut acc = 0u32;
    for (x, y) in a.iter().zip(b) {
        acc += (x ^ y).count_ones();
        if acc > limit {
            return None;
        }
    }
    Some(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn brute_size(width: u32, radius: u32) -> u64 {
        (0u64..1 << width)
            .filter(|v| v.count_ones() <= radius)
            .count() as u64
    }

    #[test]
    fn neighborhood_size_matches_brute_force() {
        for width in 0..=12u32 {
            for radius in 0..=width + 2 {
                assert_eq!(
                    neighborhood_size(width, radius),
                    brute_size(width, radius),
                    "width={width} radius={radius}"
                );
            }
        }
    }

    #[test]
    fn neighborhood_size_saturates_instead_of_overflowing() {
        assert_eq!(neighborhood_size(64, 64), u64::MAX);
        assert_eq!(neighborhood_size(64, 0), 1);
        assert_eq!(neighborhood_size(64, 1), 65);
        // C(64, 32) alone exceeds u64? No — but the running sum of all
        // C(64, i) is 2^64, which does: the sum must clamp.
        assert_eq!(neighborhood_size(64, 63), u64::MAX);
    }

    #[test]
    fn enumeration_is_exact_distinct_and_within_radius() {
        for (value, width, radius) in
            [(0b1010u64, 4u32, 2u32), (0, 7, 3), (0x5F, 8, 8), (1, 1, 1), (0, 3, 0)]
        {
            let mut seen = Vec::new();
            for_each_neighbor(value, width, radius, &mut |v| seen.push(v));
            assert_eq!(
                seen.len() as u64,
                neighborhood_size(width, radius),
                "count for value={value} width={width} radius={radius}"
            );
            let distinct: HashSet<u64> = seen.iter().copied().collect();
            assert_eq!(distinct.len(), seen.len(), "no duplicates");
            for v in &seen {
                assert!((v ^ value).count_ones() <= radius, "{v:#x} out of radius");
                assert_eq!(v >> width.min(63), if width == 64 { v >> 63 } else { 0 });
            }
            // Completeness: every in-radius value appears.
            if width <= 10 {
                for v in 0u64..1 << width {
                    assert_eq!(
                        distinct.contains(&v),
                        (v ^ value).count_ones() <= radius,
                        "membership of {v:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn distance_within_words_early_exit_and_exact() {
        let a = [0xFFFF_0000_FFFF_0000u64, 0x1234_5678_9ABC_DEF0];
        let b = [0xFFFF_0000_FFFF_000Fu64, 0x1234_5678_9ABC_DEF0];
        assert_eq!(distance_within_words(&a, &b, 4), Some(4));
        assert_eq!(distance_within_words(&a, &b, 3), None);
        assert_eq!(distance_within_words(&a, &a, 0), Some(0));
        assert_eq!(distance_within_words(&[], &[], 0), Some(0));
    }
}
