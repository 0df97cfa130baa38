//! Fixed-width segmentation of binary codes.
//!
//! Three index families in this suite carve codes into contiguous segments:
//!
//! * the **Static HA-Index** shares equal segments at the same offset as
//!   graph vertices;
//! * the **segment-signature baselines** (`ha_core::SegmentIndex`) key one
//!   table per segment: Manku's multi-hash tables on exact segments (if
//!   `hamming(a,b) <= h` and there are `h+1` segments, at least one
//!   segment matches exactly — the pigeonhole filter), HEngine and
//!   HmSearch on segments within distance 1, which halves the tables
//!   needed;
//! * **MIH** generalizes to segments within distance `⌊h/m⌋` (+1 on the
//!   leading `h mod m` segments).
//!
//! The last two enumerate a segment's Hamming ball with
//! [`crate::chunk::for_each_neighbor`]. A [`Segmentation`] precomputes the
//! offsets/widths once so hot query paths only do `extract` calls.

use crate::BinaryCode;

/// A partition of `[0, code_len)` into contiguous segments.
///
/// Widths are balanced: when `code_len` is not divisible by the segment
/// count, the first `code_len % count` segments get one extra bit, mirroring
/// how the reference implementations split codes. Any `(code_len, count)`
/// pair with `1 <= count <= code_len` is a valid split — segments wider
/// than 64 bits are allowed (e.g. 512 bits / 5 segments → 103-bit leading
/// segments); only the `u64`-returning [`Segmentation::extract`] is
/// restricted to ≤ 64-bit segments.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Segmentation {
    code_len: usize,
    bounds: Vec<(usize, usize)>, // (start, width)
}

impl Segmentation {
    /// Splits a `code_len`-bit code into `count` balanced segments, the
    /// remainder bits landing in the leading segments.
    ///
    /// # Panics
    /// If `count` is 0 or exceeds `code_len`.
    pub fn new(code_len: usize, count: usize) -> Self {
        assert!(count >= 1, "segment count must be >= 1");
        assert!(count <= code_len, "more segments than bits");
        let base = code_len / count;
        let extra = code_len % count;
        let mut bounds = Vec::with_capacity(count);
        let mut start = 0;
        for i in 0..count {
            let width = base + usize::from(i < extra);
            bounds.push((start, width));
            start += width;
        }
        debug_assert_eq!(start, code_len);
        Segmentation { code_len, bounds }
    }

    /// Splits into segments of (at most) `width` bits each; the final
    /// segment may be narrower. This is the Static HA-Index's
    /// "static bit segmentation" with fixed segment size.
    pub fn with_width(code_len: usize, width: usize) -> Self {
        assert!((1..=64).contains(&width), "segment width must be 1..=64");
        let mut bounds = Vec::with_capacity(code_len.div_ceil(width));
        let mut start = 0;
        while start < code_len {
            let w = width.min(code_len - start);
            bounds.push((start, w));
            start += w;
        }
        Segmentation { code_len, bounds }
    }

    /// Number of segments.
    pub fn count(&self) -> usize {
        self.bounds.len()
    }

    /// Code length this segmentation applies to.
    pub fn code_len(&self) -> usize {
        self.code_len
    }

    /// `(start, width)` of segment `i`.
    pub fn bounds(&self, i: usize) -> (usize, usize) {
        self.bounds[i]
    }

    /// Extracts segment `i` of `code` as an integer (MSB-first).
    ///
    /// # Panics
    /// If segment `i` is wider than 64 bits: callers keying segments by
    /// `u64` choose a count that keeps every segment within a word.
    #[inline]
    pub fn extract(&self, code: &BinaryCode, i: usize) -> u64 {
        let (start, width) = self.bounds[i];
        code.extract(start, width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn balanced_split() {
        let s = Segmentation::new(9, 3);
        assert_eq!(s.count(), 3);
        assert_eq!(s.bounds(0), (0, 3));
        assert_eq!(s.bounds(1), (3, 3));
        assert_eq!(s.bounds(2), (6, 3));
    }

    #[test]
    fn uneven_split_front_loads_extra_bits() {
        let s = Segmentation::new(10, 3);
        assert_eq!(s.bounds(0), (0, 4));
        assert_eq!(s.bounds(1), (4, 3));
        assert_eq!(s.bounds(2), (7, 3));
    }

    #[test]
    fn with_width_covers_whole_code() {
        let s = Segmentation::with_width(9, 3);
        assert_eq!(s.count(), 3);
        let s = Segmentation::with_width(10, 4);
        assert_eq!(s.count(), 3);
        assert_eq!(s.bounds(2), (8, 2));
    }

    #[test]
    fn extract_paper_example() {
        // "the binary code for tuple t2 is divided into three segments,
        //  '011', '001' and '100'" (§4.3).
        let t2: BinaryCode = "011001100".parse().unwrap();
        let s = Segmentation::new(9, 3);
        assert_eq!(s.extract(&t2, 0), 0b011);
        assert_eq!(s.extract(&t2, 1), 0b001);
        assert_eq!(s.extract(&t2, 2), 0b100);
    }

    #[test]
    #[should_panic(expected = "more segments than bits")]
    fn too_many_segments_panics() {
        Segmentation::new(4, 5);
    }

    /// Every (bits, m) pair up to 512 bits / 8 segments: the split must be
    /// exhaustive, contiguous, balanced to within one bit, and the
    /// remainder bits must land in the *leading* segments. This is the
    /// regression for the historical ≤64-bit-segment restriction, which
    /// rejected splits like 512/5 outright and pushed callers into
    /// silently raising their chunk counts.
    #[test]
    fn every_split_up_to_512_by_8_is_balanced_and_front_loaded() {
        for bits in 1usize..=512 {
            for m in 1..=8usize.min(bits) {
                let s = Segmentation::new(bits, m);
                assert_eq!(s.count(), m, "bits={bits} m={m}");
                assert_eq!(s.code_len(), bits);
                let base = bits / m;
                let extra = bits % m;
                let mut start = 0;
                for i in 0..m {
                    let (st, w) = s.bounds(i);
                    assert_eq!(st, start, "bits={bits} m={m} seg={i} start");
                    assert_eq!(
                        w,
                        base + usize::from(i < extra),
                        "bits={bits} m={m} seg={i}: remainder must front-load"
                    );
                    start += w;
                }
                assert_eq!(start, bits, "bits={bits} m={m}: widths must sum to bits");
            }
        }
    }

    proptest! {
        #[test]
        fn prop_segments_partition_the_code(
            seed in any::<u64>(), len in 2usize..300, count in 1usize..16
        ) {
            let count = count.max(len.div_ceil(64)).min(len);
            let s = Segmentation::new(len, count);
            // Coverage + disjointness.
            let mut covered = vec![false; len];
            for i in 0..s.count() {
                let (start, width) = s.bounds(i);
                for (b, cell) in covered.iter_mut().enumerate().skip(start).take(width) {
                    prop_assert!(!*cell, "overlap at {b}");
                    *cell = true;
                }
            }
            prop_assert!(covered.iter().all(|&c| c));
            // Segment distances sum to the full distance.
            let mut rng = StdRng::seed_from_u64(seed);
            let a = BinaryCode::random(len, &mut rng);
            let b = BinaryCode::random(len, &mut rng);
            let total: u32 = (0..s.count())
                .map(|i| (s.extract(&a, i) ^ s.extract(&b, i)).count_ones())
                .sum();
            prop_assert_eq!(total, a.hamming(&b));
        }
    }
}
