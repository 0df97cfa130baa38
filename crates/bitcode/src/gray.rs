//! Binary-reflected Gray code over multi-word [`BinaryCode`]s.
//!
//! The Dynamic HA-Index sorts codes in **Gray order** before bulk-loading
//! (Algorithm 1 of the paper). The Gray order of a code `U` is the index
//! `i` such that `gray_encode(i) == U`; sorting by that index clusters codes
//! so that neighbours differ in few bit positions and share long common
//! subsequences (Proposition 2), which is what makes the sliding-window
//! FLSSeq extraction effective.
//!
//! With bit 0 as the most significant bit, encode/decode are:
//!
//! * encode: `g = b ^ (b >> 1)` (shift toward the least significant bit),
//! * decode: `b[i] = g[0] ^ g[1] ^ … ^ g[i]` (prefix XOR from the MSB).
//!
//! Both are implemented word-wise so 512-bit codes decode in a handful of
//! operations.

use crate::words::tail_mask;
use crate::BinaryCode;

/// Gray-encodes `rank`: returns the code at position `rank` of the
/// reflected Gray sequence for this code width.
///
/// ```
/// use ha_bitcode::{gray, BinaryCode};
/// let seq: Vec<String> = (0..8)
///     .map(|i| gray::gray_encode(&BinaryCode::from_u64(i, 3)).to_string())
///     .collect();
/// assert_eq!(seq, ["000", "001", "011", "010", "110", "111", "101", "100"]);
/// ```
pub fn gray_encode(rank: &BinaryCode) -> BinaryCode {
    let len = rank.len();
    let words = rank.words();
    let mut out = Vec::with_capacity(words.len());
    let mut prev_lsb = 0u64; // least significant bit of the previous word
    for &w in words {
        // b >> 1 in whole-code space: each word shifts right, receiving the
        // previous (more significant) word's lowest bit at its top.
        let shifted = (w >> 1) | (prev_lsb << 63);
        out.push(w ^ shifted);
        prev_lsb = w & 1;
    }
    BinaryCode::from_words(&out, len)
}

/// Prefix-XOR within one word, MSB-first: bit `p` of the result is the
/// XOR of bit `p` and every more significant bit of `w`.
fn prefix_xor(mut w: u64) -> u64 {
    w ^= w >> 1;
    w ^= w >> 2;
    w ^= w >> 4;
    w ^= w >> 8;
    w ^= w >> 16;
    w ^ (w >> 32)
}

/// Gray-decodes `code`: returns its **Gray rank**, the position of `code`
/// in the reflected Gray sequence. Sorting codes by
/// `gray_rank(c)` (plain lexicographic order on the result) is exactly the
/// Gray ordering the paper's H-Build relies on. The rank is decoded in
/// place in a copy of `code`, so a code of at most
/// [`INLINE_BITS`](crate::INLINE_BITS) bits never touches the heap.
pub fn gray_rank(code: &BinaryCode) -> BinaryCode {
    let len = code.len();
    let mut rank = code.clone();
    let words = rank.words_mut();
    // All ones while the bits above the current word have odd parity,
    // which flips every prefix sum inside it.
    let mut above = 0u64;
    for w in words.iter_mut() {
        *w = prefix_xor(*w) ^ above;
        // The lowest decoded bit is the parity of everything so far.
        above = 0u64.wrapping_sub(*w & 1);
    }
    // Decoding smears set bits into the unused tail of the last word.
    if let Some(last) = words.last_mut() {
        *last &= tail_mask(len);
    }
    rank
}

/// The first (most significant) word of [`gray_rank`] of the `len`-bit
/// code whose words are `words`, for any width: decoded from the first
/// word alone. Codes whose heads differ compare in Gray order as their
/// heads do; equal heads leave the rest to [`gray_cmp_words`].
///
/// ```
/// use ha_bitcode::{gray, BinaryCode};
/// let c = BinaryCode::ones(130);
/// assert_eq!(gray::gray_rank_head(c.words(), 130), gray::gray_rank(&c).words()[0]);
/// ```
pub fn gray_rank_head(words: &[u64], len: usize) -> u64 {
    let head = prefix_xor(words[0]);
    if len <= 64 {
        head & tail_mask(len)
    } else {
        head
    }
}

/// [`gray_rank`] of a code of at most 64 bits as the `u64` it fits in:
/// equal to `gray_rank(code).words()[0]`, so `u64` order is Gray order
/// ([`gray_cmp`]) — the sort key of H-Build for such codes.
///
/// ```
/// use ha_bitcode::{gray, BinaryCode};
/// let c: BinaryCode = "110".parse().unwrap();
/// assert_eq!(gray::gray_rank_u64(&c), gray::gray_rank(&c).words()[0]);
/// ```
///
/// # Panics
/// If `code` is longer than 64 bits.
pub fn gray_rank_u64(code: &BinaryCode) -> u64 {
    assert!(code.len() <= 64, "gray_rank_u64 takes codes of at most 64 bits");
    gray_rank_head(code.words(), code.len())
}

/// Compares two codes by their Gray rank: `gray_rank(a).cmp(&gray_rank(b))`
/// (codes of different lengths order by length first, as [`BinaryCode`]
/// does). Allocates nothing at any width: see [`gray_cmp_words`].
pub fn gray_cmp(a: &BinaryCode, b: &BinaryCode) -> std::cmp::Ordering {
    a.len().cmp(&b.len()).then_with(|| gray_cmp_words(a.words(), b.words()))
}

/// [`gray_cmp`] of two codes of one width given by their words (unused
/// tail bits zero, as [`BinaryCode`] keeps them), without decoding either
/// rank. The ranks agree up to the first bit `i` where the codes differ,
/// and rank bit `i` is the parity of code bits `0..=i`; so the code whose
/// bit `i` differs from the parity of the shared bits above it has the
/// greater rank. One pass of word compares finds `i`, folding the shared
/// words into that parity on the way.
///
/// ```
/// use ha_bitcode::{gray, BinaryCode};
/// let (a, b) = (BinaryCode::ones(130), BinaryCode::zero(130));
/// assert_eq!(gray::gray_cmp_words(a.words(), b.words()), gray::gray_cmp(&a, &b));
/// ```
pub fn gray_cmp_words(a: &[u64], b: &[u64]) -> std::cmp::Ordering {
    let mut shared = 0u64;
    for (&wa, &wb) in a.iter().zip(b) {
        let diff = wa ^ wb;
        if diff != 0 {
            // Bit 63 is the word's first code bit: the first difference is
            // the highest set bit of `diff`.
            let at = 63 - diff.leading_zeros();
            let above = shared ^ wa.checked_shr(at + 1).unwrap_or(0);
            let a_bit = (wa >> at) & 1 == 1;
            let odd = above.count_ones() & 1 == 1;
            return if a_bit != odd {
                std::cmp::Ordering::Greater
            } else {
                std::cmp::Ordering::Less
            };
        }
        shared ^= wa;
    }
    std::cmp::Ordering::Equal
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn encode_decode_roundtrip_small() {
        for len in 1..=10usize {
            for v in 0u64..(1 << len) {
                let rank = BinaryCode::from_u64(v, len);
                let g = gray_encode(&rank);
                assert_eq!(gray_rank(&g), rank, "len={len} v={v}");
            }
        }
    }

    #[test]
    fn consecutive_gray_codes_differ_by_one_bit() {
        let len = 9;
        for v in 0u64..511 {
            let a = gray_encode(&BinaryCode::from_u64(v, len));
            let b = gray_encode(&BinaryCode::from_u64(v + 1, len));
            assert_eq!(a.hamming(&b), 1, "rank {v} -> {}", v + 1);
        }
    }

    #[test]
    fn decode_crosses_word_boundaries() {
        // A 128-bit code whose only set bit is bit 0 (the global MSB):
        // its Gray rank is all ones (prefix XOR propagates to every bit).
        let mut g = BinaryCode::zero(128);
        g.set(0, true);
        assert_eq!(gray_rank(&g), BinaryCode::ones(128));
        assert_eq!(gray_encode(&BinaryCode::ones(128)), {
            // encode(all ones) = 100...0 ^ carry pattern: b ^ (b>>1) = 10101…
            let mut expect = BinaryCode::zero(128);
            expect.set(0, true);
            expect
        });
    }

    #[test]
    fn paper_gray_sort_clusters_neighbours() {
        // The paper (§4.4) sorts Table 2's codes in Gray order and obtains a
        // sequence in which t2 and t7 (which differ only in bit 0) are
        // adjacent, as are t0/t3 and t1/t5. Verify the adjacency structure.
        let table: Vec<(&str, &str)> = vec![
            ("t0", "001001010"),
            ("t1", "001011101"),
            ("t2", "011001100"),
            ("t3", "101001010"),
            ("t4", "101110110"),
            ("t5", "101011101"),
            ("t6", "101101010"),
            ("t7", "111001100"),
        ];
        let mut items: Vec<(BinaryCode, &str)> = table
            .iter()
            .map(|(name, s)| (s.parse().unwrap(), *name))
            .collect();
        items.sort_by_cached_key(|(c, _)| gray_rank(c));
        let order: Vec<&str> = items.iter().map(|(_, n)| *n).collect();
        let pos = |n: &str| order.iter().position(|x| *x == n).unwrap();
        // The paper's own listings disagree with each other on the exact
        // permutation (§4.4 vs Figure 3), so we assert the *clustering*
        // consequence it uses: the highly-similar pairs it calls out land
        // next to each other.
        assert_eq!(pos("t2").abs_diff(pos("t7")), 1, "t2,t7 adjacent: {order:?}");
        assert_eq!(pos("t3").abs_diff(pos("t5")), 1, "t3,t5 adjacent: {order:?}");
        assert_eq!(pos("t0").abs_diff(pos("t1")), 1, "t0,t1 adjacent: {order:?}");
    }

    #[test]
    fn gray_rank_u64_is_the_one_word_rank_exhaustively() {
        // Every code of widths 1..=12: the u64 is the rank's only word,
        // and sorting by `gray_cmp` leaves the u64s strictly rising, so
        // the two orders are one total order.
        for len in 1..=12usize {
            let mut codes: Vec<BinaryCode> =
                (0u64..1 << len).map(|v| BinaryCode::from_u64(v, len)).collect();
            for c in &codes {
                assert_eq!(gray_rank_u64(c), gray_rank(c).words()[0], "len={len} c={c}");
            }
            codes.sort_by(gray_cmp);
            assert!(
                codes.windows(2).all(|w| gray_rank_u64(&w[0]) < gray_rank_u64(&w[1])),
                "len={len}"
            );
        }
    }

    proptest! {
        #[test]
        fn prop_roundtrip_any_width(seed in any::<u64>(), len in 1usize..520) {
            let mut rng = StdRng::seed_from_u64(seed);
            let c = BinaryCode::random(len, &mut rng);
            prop_assert_eq!(gray_encode(&gray_rank(&c)), c.clone());
            prop_assert_eq!(gray_rank(&gray_encode(&c)), c);
        }

        #[test]
        fn prop_gray_cmp_and_head_follow_the_rank(seed in any::<u64>(), len in 1usize..520) {
            // A random partner, and neighbours one flip away anywhere (a
            // shared head when the flip is past the first word), so every
            // word of the comparison decides some case.
            let mut rng = StdRng::seed_from_u64(seed);
            let a = BinaryCode::random(len, &mut rng);
            prop_assert_eq!(gray_rank_head(a.words(), len), gray_rank(&a).words()[0]);
            let mut near = a.clone();
            near.flip(rng.gen_range(0..len));
            let mut far = a.clone();
            far.flip(len - 1 - rng.gen_range(0..len.min(64)));
            for b in [BinaryCode::random(len, &mut rng), near, far, a.clone()] {
                prop_assert_eq!(gray_cmp(&a, &b), gray_rank(&a).cmp(&gray_rank(&b)));
                prop_assert_eq!(gray_cmp(&b, &a), gray_rank(&b).cmp(&gray_rank(&a)));
            }
        }

        #[test]
        fn prop_gray_rank_u64_orders_like_gray_cmp(seed in any::<u64>(), len in 13usize..=64) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = BinaryCode::random(len, &mut rng);
            // A random partner, and a one-bit neighbour whose rank shares
            // a long prefix with `a`'s.
            let mut near = a.clone();
            near.flip(rng.gen_range(0..len));
            prop_assert_eq!(gray_rank_u64(&a), gray_rank(&a).words()[0]);
            for b in [BinaryCode::random(len, &mut rng), near] {
                prop_assert_eq!(gray_rank_u64(&b), gray_rank(&b).words()[0]);
                prop_assert_eq!(gray_rank_u64(&a).cmp(&gray_rank_u64(&b)), gray_cmp(&a, &b));
            }
        }

        #[test]
        fn prop_gray_rank_is_monotone_bijection(seed in any::<u64>(), len in 1usize..200) {
            // Successor in rank space maps to Hamming distance 1 in code
            // space, for arbitrary widths (incl. multi-word).
            let mut rng = StdRng::seed_from_u64(seed);
            let mut rank = BinaryCode::random(len, &mut rng);
            // Avoid overflow: clear the last bit, then set it to make +1.
            let last = len - 1;
            rank.set(last, false);
            let a = gray_encode(&rank);
            rank.set(last, true);
            let b = gray_encode(&rank);
            prop_assert_eq!(a.hamming(&b), 1);
        }

        #[test]
        fn prop_gray_order_total_and_consistent(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 50;
            let mut items: Vec<(BinaryCode, usize)> =
                (0..n).map(|i| (BinaryCode::random(40, &mut rng), i)).collect();
            items.sort_by_cached_key(|(c, _)| gray_rank(c));
            for w in items.windows(2) {
                prop_assert_ne!(
                    gray_cmp(&w[0].0, &w[1].0),
                    std::cmp::Ordering::Greater
                );
            }
        }
    }

    #[test]
    fn gray_rank_distribution_smoke() {
        // Ranks of random codes should themselves look uniform: the mean
        // popcount of the rank of random 64-bit codes is ~32.
        let mut rng = StdRng::seed_from_u64(42);
        let mut total = 0u64;
        let trials = 2000;
        for _ in 0..trials {
            let c = BinaryCode::from_u64(rng.gen(), 64);
            total += gray_rank(&c).count_ones() as u64;
        }
        let mean = total as f64 / trials as f64;
        assert!((mean - 32.0).abs() < 1.5, "mean popcount {mean}");
    }
}
