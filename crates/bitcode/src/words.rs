//! Word-level storage shared by [`crate::BinaryCode`] and
//! [`crate::MaskedCode`].
//!
//! Codes of up to [`crate::INLINE_BITS`] bits (which covers the 32/64/128-bit
//! codes used throughout the paper's evaluation) are stored inline without a
//! heap allocation; longer codes spill to a boxed slice. The variant is a
//! pure function of the code length, so derived equality/hashing is sound.

use crate::INLINE_BITS;

const INLINE_WORDS: usize = INLINE_BITS / 64;

/// Packed big-endian word storage: bit 0 of the code is the most
/// significant bit of `words[0]`.
///
/// Invariant: every bit beyond the owning code's length is zero, and the
/// number of words is exactly `words_for(len)` (heap) or `INLINE_WORDS`
/// (inline, with unused words zeroed).
#[derive(Clone, PartialEq, Eq, Hash)]
pub(crate) enum Words {
    Inline([u64; INLINE_WORDS]),
    Heap(Box<[u64]>),
}

/// Number of `u64` words needed for `bits` bits.
#[inline]
pub(crate) fn words_for(bits: usize) -> usize {
    bits.div_ceil(64)
}

/// Mask selecting the *used* bits of the final word of a `bits`-bit code.
#[inline]
pub(crate) fn tail_mask(bits: usize) -> u64 {
    let rem = bits % 64;
    if rem == 0 {
        !0
    } else {
        !0 << (64 - rem)
    }
}

impl Words {
    /// Zeroed storage for a `bits`-bit code.
    pub(crate) fn zeroed(bits: usize) -> Self {
        let n = words_for(bits);
        if n <= INLINE_WORDS {
            Words::Inline([0; INLINE_WORDS])
        } else {
            Words::Heap(vec![0u64; n].into_boxed_slice())
        }
    }

    #[inline]
    pub(crate) fn as_slice(&self) -> &[u64] {
        match self {
            Words::Inline(a) => a,
            Words::Heap(b) => b,
        }
    }

    #[inline]
    pub(crate) fn as_mut_slice(&mut self) -> &mut [u64] {
        match self {
            Words::Inline(a) => a,
            Words::Heap(b) => b,
        }
    }

    /// Bytes this storage occupies on the heap (0 for inline codes).
    pub(crate) fn heap_bytes(&self) -> usize {
        match self {
            Words::Inline(_) => 0,
            Words::Heap(b) => b.len() * 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_for_boundaries() {
        assert_eq!(words_for(1), 1);
        assert_eq!(words_for(64), 1);
        assert_eq!(words_for(65), 2);
        assert_eq!(words_for(128), 2);
        assert_eq!(words_for(129), 3);
    }

    #[test]
    fn tail_mask_boundaries() {
        assert_eq!(tail_mask(64), !0);
        assert_eq!(tail_mask(1), 1u64 << 63);
        assert_eq!(tail_mask(63), !1);
        assert_eq!(tail_mask(32), 0xFFFF_FFFF_0000_0000);
    }

    #[test]
    fn inline_vs_heap_selection() {
        assert!(matches!(Words::zeroed(128), Words::Inline(_)));
        assert!(matches!(Words::zeroed(129), Words::Heap(_)));
        assert_eq!(Words::zeroed(64).heap_bytes(), 0);
        assert_eq!(Words::zeroed(256).heap_bytes(), 32);
    }
}
