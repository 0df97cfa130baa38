//! [`MaskedCode`] — bit patterns with don't-care positions.
//!
//! A masked code is the paper's FLSS / FLSSeq: a pattern such as
//! `"···0·010"` that a whole group of binary codes has in common. The mask
//! selects the *cared* positions; `bits` holds their values (and is zero on
//! every don't-care position, keeping the representation canonical).
//!
//! Two facts make these patterns useful as index-node labels:
//!
//! 1. **Downward closure** (Proposition 1): for any code `U` matching the
//!    pattern `P` and any query `q`, `hamming(q, U) >= masked_distance(q, P)`.
//!    If the masked distance already exceeds the threshold, every code under
//!    the pattern can be discarded.
//! 2. **Disjoint decomposition**: the Dynamic HA-Index stores, along each
//!    root-to-leaf path, patterns with pairwise disjoint masks whose union
//!    covers all bit positions — so the *sum* of masked distances along the
//!    path is the exact Hamming distance at the leaf.

use std::fmt;
use std::str::FromStr;

use crate::error::BitCodeError;
use crate::BinaryCode;

/// A binary pattern with don't-care positions (the unified FLSS/FLSSeq).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct MaskedCode {
    /// Pattern bits; always zero at don't-care positions (canonical form).
    bits: BinaryCode,
    /// Cared positions: 1 = this position participates in the pattern.
    mask: BinaryCode,
}

impl MaskedCode {
    /// A pattern that cares about every bit of `code` (mask = all ones).
    pub fn full(code: BinaryCode) -> Self {
        let mask = BinaryCode::ones(code.len());
        MaskedCode { bits: code, mask }
    }

    /// A pattern caring about nothing (mask = all zeros) of width `len`.
    pub fn empty(len: usize) -> Self {
        MaskedCode {
            bits: BinaryCode::zero(len),
            mask: BinaryCode::zero(len),
        }
    }

    /// Builds a pattern from explicit bits and mask. Bits outside the mask
    /// are cleared to keep equality/hashing canonical.
    pub fn new(bits: BinaryCode, mask: BinaryCode) -> Result<Self, BitCodeError> {
        if bits.len() != mask.len() {
            return Err(BitCodeError::LengthMismatch {
                left: bits.len(),
                right: mask.len(),
            });
        }
        Ok(MaskedCode {
            bits: bits.and(&mask),
            mask,
        })
    }

    /// Width of the pattern in bits.
    #[allow(clippy::len_without_is_empty)] // "empty" means empty *mask* here
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// The pattern's bit values (zero at don't-care positions).
    pub fn bits(&self) -> &BinaryCode {
        &self.bits
    }

    /// The cared-position mask.
    pub fn mask(&self) -> &BinaryCode {
        &self.mask
    }

    /// True if the pattern cares about no position at all.
    pub fn is_vacuous(&self) -> bool {
        self.mask.is_zero()
    }

    /// True if `code` agrees with the pattern on every cared position.
    #[inline]
    pub fn matches(&self, code: &BinaryCode) -> bool {
        code.and(&self.mask) == self.bits
    }

    /// Hamming distance between the pattern and `query`, counted only on
    /// cared positions — a lower bound on `hamming(query, U)` for every `U`
    /// matching this pattern.
    #[inline]
    pub fn distance_to(&self, query: &BinaryCode) -> u32 {
        query.hamming_masked(&self.bits, &self.mask)
    }

    /// Like [`MaskedCode::distance_to`], but bails out with `None` as soon
    /// as the running distance exceeds `limit` — the scalar analogue of the
    /// batch kernels behind [`crate::masked_distance_group`].
    #[inline]
    pub fn distance_within(&self, query: &BinaryCode, limit: u32) -> Option<u32> {
        debug_assert_eq!(self.len(), query.len(), "pattern/query width mismatch");
        let mut acc = 0u32;
        for ((q, b), m) in query
            .words()
            .iter()
            .zip(self.bits.words())
            .zip(self.mask.words())
        {
            acc += ((q ^ b) & m).count_ones();
            if acc > limit {
                return None;
            }
        }
        Some(acc)
    }

    /// The pattern common to `self` and `other`: positions both care about
    /// *and* agree on. This is `extractFLSSeq` from Algorithm 1 generalized
    /// to patterns (plain codes are patterns with a full mask).
    pub fn common(&self, other: &MaskedCode) -> MaskedCode {
        let mut mask = self.mask.and(&other.mask);
        let disagree = self.bits.xor(&other.bits);
        mask.and_not_assign(&disagree);
        MaskedCode {
            bits: self.bits.and(&mask),
            mask,
        }
    }

    /// Folds [`MaskedCode::common`] over a group, returning the maximal
    /// pattern shared by all members (possibly vacuous). Returns `None` for
    /// an empty group.
    pub fn common_of<'a>(mut group: impl Iterator<Item = &'a MaskedCode>) -> Option<MaskedCode> {
        let first = group.next()?.clone();
        Some(group.fold(first, |acc, m| acc.common(m)))
    }

    /// Removes the positions of `parent` from this pattern — the residual a
    /// child node keeps after its parent absorbed the shared positions
    /// (H-Build line 5: "denotes the new binary code of the child node").
    pub fn subtract(&self, parent_mask: &BinaryCode) -> MaskedCode {
        let mut mask = self.mask.clone();
        mask.and_not_assign(parent_mask);
        MaskedCode {
            bits: self.bits.and(&mask),
            mask,
        }
    }

    /// Combines two patterns with disjoint masks into one covering both —
    /// the `combine(c.b, n.b)` step of H-Search (Algorithm 3, line 15).
    ///
    /// # Panics
    /// In debug builds, if the masks overlap (which would double-count
    /// distance contributions).
    pub fn combine(&self, other: &MaskedCode) -> MaskedCode {
        debug_assert!(
            self.mask.is_disjoint(&other.mask),
            "combine() requires disjoint masks"
        );
        MaskedCode {
            bits: self.bits.or(&other.bits),
            mask: self.mask.or(&other.mask),
        }
    }

    /// Heap bytes owned by the pattern.
    pub fn heap_bytes(&self) -> usize {
        self.bits.heap_bytes() + self.mask.heap_bytes()
    }

    /// Total bytes attributable to the pattern (struct + heap).
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.bits.heap_bytes() + self.mask.heap_bytes()
    }
}

impl fmt::Display for MaskedCode {
    /// Renders the paper's notation: `0`/`1` on cared positions, `·` on
    /// don't-cares.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.len() {
            if !self.mask.get(i) {
                f.write_str("·")?;
            } else if self.bits.get(i) {
                f.write_str("1")?;
            } else {
                f.write_str("0")?;
            }
        }
        Ok(())
    }
}

impl fmt::Debug for MaskedCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MaskedCode({self})")
    }
}

impl FromStr for MaskedCode {
    type Err = BitCodeError;

    /// Parses the paper's pattern notation: `0`, `1`, and `.` or `·` for
    /// don't-care; spaces ignored.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut cells = Vec::with_capacity(s.len());
        for (at, ch) in s.char_indices() {
            match ch {
                '0' => cells.push(Some(false)),
                '1' => cells.push(Some(true)),
                '.' | '·' | '*' => cells.push(None),
                ' ' | '_' => {}
                ch => return Err(BitCodeError::BadChar { ch, at }),
            }
        }
        if cells.is_empty() {
            return Err(BitCodeError::Empty);
        }
        let mut bits = BinaryCode::try_zero(cells.len())?;
        let mut mask = BinaryCode::try_zero(cells.len())?;
        for (i, cell) in cells.iter().enumerate() {
            if let Some(b) = cell {
                mask.set(i, true);
                bits.set(i, *b);
            }
        }
        Ok(MaskedCode { bits, mask })
    }
}

impl From<BinaryCode> for MaskedCode {
    fn from(code: BinaryCode) -> Self {
        MaskedCode::full(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn parse_display_roundtrip() {
        let p: MaskedCode = "···0·010".replace('·', ".").parse().unwrap();
        assert_eq!(p.to_string(), "···0·010");
        assert_eq!(p.mask().count_ones(), 4);
    }

    #[test]
    fn paper_flsseq_example() {
        // §3: U = "···0·1·1·" is an FLSSeq of t0 = "001001010"? The paper's
        // definition-4 example uses t0="001001010" with pattern "···0·1·1·".
        let t0: BinaryCode = "001001010".parse().unwrap();
        let p: MaskedCode = "...0.1.1.".parse().unwrap();
        assert!(p.matches(&t0));
        // And the worked distance: query "001001010" vs that FLSSeq…
        // the paper computes distance on effective bit positions.
        let q: BinaryCode = "001001010".parse().unwrap();
        assert_eq!(p.distance_to(&q), 0);
    }

    #[test]
    fn paper_distance_on_effective_positions() {
        // §3 (after Def. 4): FLSSeq "···0·1·1·" vs query "001001010" has
        // Hamming distance 2 in the paper's example.
        let p: MaskedCode = "...0.1.1.".parse().unwrap();
        // The paper's stated query for this computation:
        let q: BinaryCode = "001101000".parse().unwrap();
        // positions (0-based) cared: 3,5,7 → q has 1,0,0 vs pattern 0,1,1 → 3?
        // The paper's prose example is internally loose; we simply verify
        // the definition: count of disagreements on cared positions.
        let manual = (0..9)
            .filter(|&i| p.mask().get(i) && (p.bits().get(i) != q.get(i)))
            .count() as u32;
        assert_eq!(p.distance_to(&q), manual);
    }

    #[test]
    fn matches_respects_only_cared_positions() {
        let p: MaskedCode = "1.0.".parse().unwrap();
        for s in ["1000", "1001", "1100", "1101"] {
            assert!(p.matches(&s.parse().unwrap()), "{s}");
        }
        for s in ["0000", "1010", "0101"] {
            assert!(!p.matches(&s.parse().unwrap()), "{s}");
        }
    }

    #[test]
    fn common_extracts_shared_flsseq() {
        // t0 = 001001010, t1 = 001011101 → shared pattern "0010·1···"
        // (positions where they agree).
        let t0 = MaskedCode::full("001001010".parse().unwrap());
        let t1 = MaskedCode::full("001011101".parse().unwrap());
        let c = t0.common(&t1);
        assert_eq!(c.to_string(), "0010·1···");
    }

    #[test]
    fn common_of_group_and_vacuous() {
        let a = MaskedCode::full("0000".parse().unwrap());
        let b = MaskedCode::full("1111".parse().unwrap());
        let c = a.common(&b);
        assert!(c.is_vacuous());
        assert!(MaskedCode::common_of(std::iter::empty()).is_none());
        let one = MaskedCode::common_of([a.clone()].iter()).unwrap();
        assert_eq!(one, a);
    }

    #[test]
    fn subtract_residual_is_disjoint_from_parent() {
        let child = MaskedCode::full("001001010".parse().unwrap());
        let parent: MaskedCode = "0010.1...".parse().unwrap();
        let residual = child.subtract(parent.mask());
        assert_eq!(residual.to_string(), "····0·010");
        assert!(residual.mask().is_disjoint(parent.mask()));
        // Parent + residual reconstruct the full code.
        let rebuilt = parent.combine(&residual);
        assert_eq!(rebuilt.bits(), &"001001010".parse::<BinaryCode>().unwrap());
        assert_eq!(rebuilt.mask(), &BinaryCode::ones(9));
    }

    #[test]
    fn downward_closure_lower_bound() {
        // For every code matching a pattern, the masked distance is a
        // lower bound of the true distance (Proposition 1).
        let p: MaskedCode = "10.1..0.".parse().unwrap();
        let q: BinaryCode = "01011010".parse().unwrap();
        let lb = p.distance_to(&q);
        // Enumerate all completions of the 4 don't-care bits.
        let dc: Vec<usize> = (0..8).filter(|&i| !p.mask().get(i)).collect();
        for fill in 0u32..(1 << dc.len()) {
            let mut c = p.bits().clone();
            for (j, &pos) in dc.iter().enumerate() {
                c.set(pos, (fill >> j) & 1 == 1);
            }
            assert!(p.matches(&c));
            assert!(c.hamming(&q) >= lb, "completion {c} violates closure");
        }
    }

    #[test]
    fn new_canonicalizes_bits_outside_mask() {
        let bits: BinaryCode = "1111".parse().unwrap();
        let mask: BinaryCode = "1010".parse().unwrap();
        let p = MaskedCode::new(bits, mask).unwrap();
        assert_eq!(p.to_string(), "1·1·");
        assert_eq!(p.bits().to_string(), "1010");
        let q = MaskedCode::new("1010".parse().unwrap(), "1010".parse().unwrap()).unwrap();
        assert_eq!(p, q, "canonical equality");
    }

    #[test]
    fn new_rejects_length_mismatch() {
        let r = MaskedCode::new("101".parse().unwrap(), "10".parse().unwrap());
        assert!(matches!(r, Err(BitCodeError::LengthMismatch { left: 3, right: 2 })));
    }

    proptest! {
        #[test]
        fn prop_common_is_commutative_associative(seed in any::<u64>(), len in 1usize..150) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = MaskedCode::full(BinaryCode::random(len, &mut rng));
            let b = MaskedCode::full(BinaryCode::random(len, &mut rng));
            let c = MaskedCode::full(BinaryCode::random(len, &mut rng));
            prop_assert_eq!(a.common(&b), b.common(&a));
            prop_assert_eq!(a.common(&b).common(&c), a.common(&b.common(&c)));
        }

        #[test]
        fn prop_common_matches_both_sources(seed in any::<u64>(), len in 1usize..150) {
            let mut rng = StdRng::seed_from_u64(seed);
            let x = BinaryCode::random(len, &mut rng);
            let y = BinaryCode::random(len, &mut rng);
            let c = MaskedCode::full(x.clone()).common(&MaskedCode::full(y.clone()));
            prop_assert!(c.matches(&x));
            prop_assert!(c.matches(&y));
            // Maximality: every agreeing position is cared about.
            for i in 0..len {
                if x.get(i) == y.get(i) {
                    prop_assert!(c.mask().get(i));
                }
            }
        }

        #[test]
        fn prop_masked_distance_lower_bounds_true_distance(
            seed in any::<u64>(), len in 1usize..150
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let code = BinaryCode::random(len, &mut rng);
            let q = BinaryCode::random(len, &mut rng);
            let mask = BinaryCode::random(len, &mut rng);
            let p = MaskedCode::new(code.clone(), mask).unwrap();
            prop_assert!(p.matches(&code));
            prop_assert!(p.distance_to(&q) <= code.hamming(&q));
        }

        #[test]
        fn prop_distance_within_agrees_with_distance_to(
            seed in any::<u64>(), len in 1usize..300, limit in 0u32..40
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let code = BinaryCode::random(len, &mut rng);
            let mask = BinaryCode::random(len, &mut rng);
            let q = BinaryCode::random(len, &mut rng);
            let p = MaskedCode::new(code, mask).unwrap();
            let exact = p.distance_to(&q);
            match p.distance_within(&q, limit) {
                Some(d) => prop_assert_eq!(d, exact),
                None => prop_assert!(exact > limit),
            }
        }

        #[test]
        fn prop_subtract_then_combine_reconstructs(
            seed in any::<u64>(), len in 1usize..150
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let code = BinaryCode::random(len, &mut rng);
            let parent_mask = BinaryCode::random(len, &mut rng);
            let full = MaskedCode::full(code.clone());
            let parent = MaskedCode::new(code.clone(), parent_mask.clone()).unwrap();
            let residual = full.subtract(&parent_mask);
            let rebuilt = parent.combine(&residual);
            prop_assert_eq!(rebuilt.bits(), &code);
            prop_assert_eq!(rebuilt.mask(), &BinaryCode::ones(len));
        }
    }
}
