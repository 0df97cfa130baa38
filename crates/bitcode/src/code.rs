//! The [`BinaryCode`] type: a fixed-length bit string with fast Hamming
//! distance.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;

use rand::Rng;

use crate::error::BitCodeError;
use crate::words::{tail_mask, words_for, Words};
use crate::MAX_BITS;

/// A fixed-length binary code — the hashed representation of a data tuple.
///
/// Bit `0` is the most significant (leftmost) bit; `Ord` compares codes
/// exactly like their string forms. All binary operations require both
/// operands to have the same length and panic otherwise (length mismatch is
/// a programming error, not a data error — codes in one dataset share one
/// learned hash function and hence one length).
///
/// ```
/// use ha_bitcode::BinaryCode;
///
/// let t0: BinaryCode = "001001010".parse().unwrap();
/// assert_eq!(t0.len(), 9);
/// assert!(!t0.get(0));
/// assert!(t0.get(2));
/// assert_eq!(t0.to_string(), "001001010");
/// ```
#[derive(Clone)]
pub struct BinaryCode {
    len: u32,
    words: Words,
}

impl BinaryCode {
    /// An all-zero code of `len` bits.
    ///
    /// # Panics
    /// If `len` is zero or exceeds [`MAX_BITS`].
    pub fn zero(len: usize) -> Self {
        Self::try_zero(len).expect("invalid code length")
    }

    /// Fallible form of [`BinaryCode::zero`].
    pub fn try_zero(len: usize) -> Result<Self, BitCodeError> {
        if len == 0 {
            return Err(BitCodeError::Empty);
        }
        if len > MAX_BITS {
            return Err(BitCodeError::TooLong { requested: len });
        }
        Ok(BinaryCode {
            len: len as u32,
            words: Words::zeroed(len),
        })
    }

    /// An all-one code of `len` bits.
    pub fn ones(len: usize) -> Self {
        let mut c = Self::zero(len);
        let n = words_for(len);
        let w = c.words.as_mut_slice();
        for word in w.iter_mut().take(n) {
            *word = !0;
        }
        w[n - 1] &= tail_mask(len);
        c
    }

    /// Builds a code from the low `len` bits of `value`, most significant
    /// first: `from_u64(0b101, 3)` is the code `"101"`.
    ///
    /// # Panics
    /// If `len` is zero or greater than 64.
    pub fn from_u64(value: u64, len: usize) -> Self {
        assert!((1..=64).contains(&len), "from_u64 supports 1..=64 bits");
        let mut c = Self::zero(len);
        c.words.as_mut_slice()[0] = value << (64 - len);
        c
    }

    /// Builds a code from packed big-endian words (bit 0 = MSB of
    /// `words[0]`); bits beyond `len` are cleared.
    pub fn from_words(words: &[u64], len: usize) -> Self {
        assert!(words.len() >= words_for(len), "not enough words for length");
        let mut c = Self::zero(len);
        let n = words_for(len);
        let dst = c.words.as_mut_slice();
        dst[..n].copy_from_slice(&words[..n]);
        dst[n - 1] &= tail_mask(len);
        c
    }

    /// A uniformly random code of `len` bits.
    pub fn random<R: Rng + ?Sized>(len: usize, rng: &mut R) -> Self {
        let mut c = Self::zero(len);
        let n = words_for(len);
        let w = c.words.as_mut_slice();
        for word in w.iter_mut().take(n) {
            *word = rng.gen();
        }
        w[n - 1] &= tail_mask(len);
        c
    }

    /// Length of the code in bits.
    #[allow(clippy::len_without_is_empty)] // codes are never empty
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// The packed words actually in use (big-endian bit order).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words.as_slice()[..words_for(self.len as usize)]
    }

    #[inline]
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        let n = words_for(self.len as usize);
        &mut self.words.as_mut_slice()[..n]
    }

    /// Value of bit `i` (bit 0 is the leftmost).
    ///
    /// # Panics
    /// If `i >= self.len()`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len(), "bit index {i} out of range");
        let w = self.words.as_slice()[i / 64];
        (w >> (63 - (i % 64))) & 1 == 1
    }

    /// Sets bit `i` to `v`.
    #[inline]
    pub fn set(&mut self, i: usize, v: bool) {
        assert!(i < self.len(), "bit index {i} out of range");
        let w = &mut self.words.as_mut_slice()[i / 64];
        let bit = 1u64 << (63 - (i % 64));
        if v {
            *w |= bit;
        } else {
            *w &= !bit;
        }
    }

    /// Flips bit `i`.
    #[inline]
    pub fn flip(&mut self, i: usize) {
        assert!(i < self.len(), "bit index {i} out of range");
        self.words.as_mut_slice()[i / 64] ^= 1u64 << (63 - (i % 64));
    }

    /// Number of one-bits.
    pub fn count_ones(&self) -> u32 {
        self.words().iter().map(|w| w.count_ones()).sum()
    }

    /// Hamming distance to `other`: XOR followed by popcount, the
    /// fundamental operation of the whole system.
    ///
    /// # Panics
    /// If the codes have different lengths.
    #[inline]
    pub fn hamming(&self, other: &BinaryCode) -> u32 {
        self.assert_same_len(other);
        self.words()
            .iter()
            .zip(other.words())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum()
    }

    /// Hamming distance restricted to the positions selected by `mask`
    /// (1 = counted). This is the shared-pattern distance the HA-Index uses
    /// to verify many tuples with one computation.
    #[inline]
    pub fn hamming_masked(&self, other: &BinaryCode, mask: &BinaryCode) -> u32 {
        self.assert_same_len(other);
        self.assert_same_len(mask);
        self.words()
            .iter()
            .zip(other.words())
            .zip(mask.words())
            .map(|((a, b), m)| ((a ^ b) & m).count_ones())
            .sum()
    }

    /// Early-exit Hamming distance: returns `None` as soon as the running
    /// count exceeds `limit`, otherwise the exact distance. Saves work in
    /// scan-heavy baselines for long codes.
    #[inline]
    pub fn hamming_within(&self, other: &BinaryCode, limit: u32) -> Option<u32> {
        self.assert_same_len(other);
        let mut acc = 0u32;
        for (a, b) in self.words().iter().zip(other.words()) {
            acc += (a ^ b).count_ones();
            if acc > limit {
                return None;
            }
        }
        Some(acc)
    }

    /// Bitwise AND (same length required).
    pub fn and(&self, other: &BinaryCode) -> BinaryCode {
        self.zip_with(other, |a, b| a & b)
    }

    /// Bitwise OR (same length required).
    pub fn or(&self, other: &BinaryCode) -> BinaryCode {
        self.zip_with(other, |a, b| a | b)
    }

    /// Bitwise XOR (same length required).
    pub fn xor(&self, other: &BinaryCode) -> BinaryCode {
        self.zip_with(other, |a, b| a ^ b)
    }

    /// Bitwise NOT within the code length (bits beyond `len` stay zero).
    pub fn not(&self) -> BinaryCode {
        let mut out = self.clone();
        let len = self.len();
        let n = words_for(len);
        let w = out.words_mut();
        for word in w.iter_mut() {
            *word = !*word;
        }
        w[n - 1] &= tail_mask(len);
        out
    }

    /// In-place AND-NOT (`self &= !other`), used to strip a parent pattern's
    /// positions from a child.
    pub(crate) fn and_not_assign(&mut self, other: &BinaryCode) {
        self.assert_same_len(other);
        for (a, b) in self.words_mut().iter_mut().zip(other.words()) {
            *a &= !b;
        }
    }

    /// True if no bit is set.
    pub fn is_zero(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }

    /// True if `self & other == 0` — the masks cover disjoint positions.
    pub fn is_disjoint(&self, other: &BinaryCode) -> bool {
        self.assert_same_len(other);
        self.words().iter().zip(other.words()).all(|(a, b)| a & b == 0)
    }

    /// True if every set bit of `self` is also set in `other`.
    pub fn is_subset_of(&self, other: &BinaryCode) -> bool {
        self.assert_same_len(other);
        self.words().iter().zip(other.words()).all(|(a, b)| a & !b == 0)
    }

    /// Extracts `width` bits starting at bit `start` as an integer
    /// (most significant first). `width` must be 1..=64 and the range must
    /// lie inside the code.
    pub fn extract(&self, start: usize, width: usize) -> u64 {
        assert!((1..=64).contains(&width), "extract width must be 1..=64");
        assert!(start + width <= self.len(), "extract range out of bounds");
        crate::chunk::chunk_value(self.words.as_slice(), start, width)
    }

    /// Packs the code into `ceil(len/8)` bytes, MSB-first — the wire form
    /// used by the HA-Index serializer and by shuffle-size accounting.
    ///
    /// ```
    /// use ha_bitcode::BinaryCode;
    /// let c: BinaryCode = "10100000 1".parse().unwrap(); // 9 bits
    /// assert_eq!(c.to_packed_bytes(), vec![0b1010_0000, 0b1000_0000]);
    /// ```
    pub fn to_packed_bytes(&self) -> Vec<u8> {
        let nbytes = self.len().div_ceil(8);
        let mut out = Vec::with_capacity(nbytes);
        let words = self.words();
        for byte_i in 0..nbytes {
            let word = words[byte_i / 8];
            out.push((word >> (56 - 8 * (byte_i % 8))) as u8);
        }
        out
    }

    /// FNV-1a hash of the packed wire form, computed straight off the
    /// words — exactly `fnv64(&self.to_packed_bytes())` without the
    /// per-call `Vec`. Shard routing hashes every routed mutation and
    /// query, so this equality is load-bearing: persisted services would
    /// mis-route recovered codes if the two ever diverged (pinned by a
    /// proptest below).
    pub fn packed_fnv64(&self) -> u64 {
        let nbytes = self.len().div_ceil(8);
        let words = self.words();
        let mut h = crate::fnv::Fnv64::new();
        let full_words = nbytes / 8;
        for &w in &words[..full_words] {
            h.write(&w.to_be_bytes());
        }
        for byte_i in full_words * 8..nbytes {
            let word = words[byte_i / 8];
            h.write(&[(word >> (56 - 8 * (byte_i % 8))) as u8]);
        }
        h.finish()
    }

    /// Rebuilds a `len`-bit code from its packed form (inverse of
    /// [`BinaryCode::to_packed_bytes`]). Bits beyond `len` in the final
    /// byte are ignored.
    ///
    /// # Panics
    /// If `bytes` is shorter than `ceil(len/8)` or `len` is invalid.
    pub fn from_packed_bytes(bytes: &[u8], len: usize) -> Self {
        let nbytes = len.div_ceil(8);
        assert!(bytes.len() >= nbytes, "not enough bytes for {len} bits");
        let mut c = Self::zero(len);
        {
            let words = c.words_mut();
            for (byte_i, &b) in bytes.iter().take(nbytes).enumerate() {
                words[byte_i / 8] |= (b as u64) << (56 - 8 * (byte_i % 8));
            }
            let n = words.len();
            words[n - 1] &= tail_mask(len);
        }
        c
    }

    /// Heap bytes owned by this code (0 for codes of at most
    /// [`crate::INLINE_BITS`] bits).
    pub fn heap_bytes(&self) -> usize {
        self.words.heap_bytes()
    }

    /// Total bytes attributable to this code (struct + heap), used by the
    /// memory accounting of the Table 4 experiment.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.heap_bytes()
    }

    #[inline]
    fn assert_same_len(&self, other: &BinaryCode) {
        assert_eq!(
            self.len, other.len,
            "binary code length mismatch: {} vs {}",
            self.len, other.len
        );
    }

    fn zip_with(&self, other: &BinaryCode, f: impl Fn(u64, u64) -> u64) -> BinaryCode {
        self.assert_same_len(other);
        let mut out = self.clone();
        for (a, b) in out.words_mut().iter_mut().zip(other.words()) {
            *a = f(*a, *b);
        }
        out
    }
}

impl PartialEq for BinaryCode {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.words() == other.words()
    }
}

impl Eq for BinaryCode {}

impl Hash for BinaryCode {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.len.hash(state);
        self.words().hash(state);
    }
}

impl PartialOrd for BinaryCode {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BinaryCode {
    /// Lexicographic (string-form) order. Codes of different lengths order
    /// by length first so `Ord` stays total; mixed-length comparison does
    /// not occur in practice.
    fn cmp(&self, other: &Self) -> Ordering {
        self.len
            .cmp(&other.len)
            .then_with(|| self.words().cmp(other.words()))
    }
}

impl fmt::Display for BinaryCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.len() {
            f.write_str(if self.get(i) { "1" } else { "0" })?;
        }
        Ok(())
    }
}

impl fmt::Debug for BinaryCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BinaryCode({self})")
    }
}

impl FromStr for BinaryCode {
    type Err = BitCodeError;

    /// Parses a string of `0`/`1` characters; spaces are ignored so the
    /// paper's grouped notation (`"001 001 010"`) parses directly.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut bits = Vec::with_capacity(s.len());
        for (at, ch) in s.char_indices() {
            match ch {
                '0' => bits.push(false),
                '1' => bits.push(true),
                ' ' | '_' => {}
                ch => return Err(BitCodeError::BadChar { ch, at }),
            }
        }
        let mut c = BinaryCode::try_zero(bits.len())?;
        for (i, b) in bits.iter().enumerate() {
            if *b {
                c.set(i, true);
            }
        }
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn parse_and_display_roundtrip() {
        let s = "001001010";
        let c: BinaryCode = s.parse().unwrap();
        assert_eq!(c.to_string(), s);
        assert_eq!(c.len(), 9);
    }

    #[test]
    fn parse_with_spaces() {
        let c: BinaryCode = "001 001 010".parse().unwrap();
        assert_eq!(c.to_string(), "001001010");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(matches!(
            "01x".parse::<BinaryCode>(),
            Err(BitCodeError::BadChar { ch: 'x', at: 2 })
        ));
        assert!(matches!("".parse::<BinaryCode>(), Err(BitCodeError::Empty)));
    }

    #[test]
    fn get_set_flip() {
        let mut c = BinaryCode::zero(70);
        c.set(0, true);
        c.set(69, true);
        assert!(c.get(0) && c.get(69) && !c.get(35));
        c.flip(35);
        assert!(c.get(35));
        c.flip(0);
        assert!(!c.get(0));
        assert_eq!(c.count_ones(), 2);
    }

    #[test]
    fn hamming_matches_paper_example() {
        // Example 1 of the paper: query 101100010, h = 3 over Table 2a.
        let q: BinaryCode = "101100010".parse().unwrap();
        let table_s = [
            "001001010", "001011101", "011001100", "101001010", "101110110",
            "101011101", "101101010", "111001100",
        ];
        let dists: Vec<u32> = table_s
            .iter()
            .map(|s| q.hamming(&s.parse().unwrap()))
            .collect();
        let qualifying: Vec<usize> = dists
            .iter()
            .enumerate()
            .filter(|(_, &d)| d <= 3)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(qualifying, vec![0, 3, 4, 6], "paper output is t0,t3,t4,t6");
    }

    #[test]
    fn hamming_within_early_exit() {
        let a = BinaryCode::zero(128);
        let b = BinaryCode::ones(128);
        assert_eq!(a.hamming_within(&b, 127), None);
        assert_eq!(a.hamming_within(&b, 128), Some(128));
        assert_eq!(a.hamming_within(&a, 0), Some(0));
    }

    #[test]
    fn masked_hamming_counts_only_cared_bits() {
        let a: BinaryCode = "10101010".parse().unwrap();
        let b: BinaryCode = "01010101".parse().unwrap();
        let m: BinaryCode = "11110000".parse().unwrap();
        assert_eq!(a.hamming_masked(&b, &m), 4);
        let m2: BinaryCode = "10000001".parse().unwrap();
        assert_eq!(a.hamming_masked(&b, &m2), 2);
    }

    #[test]
    fn from_u64_roundtrip() {
        let c = BinaryCode::from_u64(0b101, 3);
        assert_eq!(c.to_string(), "101");
        let c = BinaryCode::from_u64(u64::MAX, 64);
        assert_eq!(c.count_ones(), 64);
    }

    #[test]
    fn extract_within_and_across_words() {
        let mut c = BinaryCode::zero(128);
        // Set bits 60..=67 to 1 (spans the word boundary).
        for i in 60..68 {
            c.set(i, true);
        }
        assert_eq!(c.extract(60, 8), 0xFF);
        assert_eq!(c.extract(56, 8), 0x0F);
        assert_eq!(c.extract(64, 8), 0xF0);
        assert_eq!(c.extract(0, 4), 0);
    }

    #[test]
    fn extract_full_word() {
        let c = BinaryCode::from_u64(0xDEAD_BEEF_0123_4567, 64);
        assert_eq!(c.extract(0, 64), 0xDEAD_BEEF_0123_4567);
        assert_eq!(c.extract(0, 32), 0xDEAD_BEEF);
        assert_eq!(c.extract(32, 32), 0x0123_4567);
    }

    #[test]
    fn ordering_is_string_order() {
        let mut codes: Vec<BinaryCode> = ["110", "001", "101", "010"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        codes.sort();
        let strings: Vec<String> = codes.iter().map(|c| c.to_string()).collect();
        assert_eq!(strings, vec!["001", "010", "101", "110"]);
    }

    #[test]
    fn ones_and_not() {
        let ones = BinaryCode::ones(70);
        assert_eq!(ones.count_ones(), 70);
        assert!(ones.not().is_zero());
        assert_eq!(BinaryCode::zero(70).not(), ones);
    }

    #[test]
    fn set_operations() {
        let a: BinaryCode = "1100".parse().unwrap();
        let b: BinaryCode = "1010".parse().unwrap();
        assert_eq!(a.and(&b).to_string(), "1000");
        assert_eq!(a.or(&b).to_string(), "1110");
        assert_eq!(a.xor(&b).to_string(), "0110");
        assert!(a.and(&b.not()).is_disjoint(&b));
        assert!("1000".parse::<BinaryCode>().unwrap().is_subset_of(&a));
        assert!(!a.is_subset_of(&b));
    }

    #[test]
    fn packed_bytes_roundtrip_all_lengths() {
        let mut rng = StdRng::seed_from_u64(77);
        for len in [1usize, 7, 8, 9, 63, 64, 65, 100, 128, 200, 512] {
            let c = BinaryCode::random(len, &mut rng);
            let packed = c.to_packed_bytes();
            assert_eq!(packed.len(), len.div_ceil(8));
            assert_eq!(BinaryCode::from_packed_bytes(&packed, len), c, "len={len}");
        }
    }

    #[test]
    fn packed_fnv64_equals_hashing_the_packed_bytes() {
        // Shard routing depends on this equality bit-for-bit: services
        // persisted before the alloc-free hash must route recovered
        // codes to the same shards after it.
        let mut rng = StdRng::seed_from_u64(78);
        for len in [1usize, 7, 8, 9, 63, 64, 65, 100, 128, 200, 512] {
            for _ in 0..16 {
                let c = BinaryCode::random(len, &mut rng);
                assert_eq!(
                    c.packed_fnv64(),
                    crate::fnv::fnv64(&c.to_packed_bytes()),
                    "len={len}"
                );
            }
        }
    }

    #[test]
    fn packed_bytes_msb_first() {
        let c: BinaryCode = "1000 0001 1".parse().unwrap(); // 9 bits
        assert_eq!(c.to_packed_bytes(), vec![0b1000_0001, 0b1000_0000]);
        // Garbage in the tail of the last byte is masked on decode.
        let d = BinaryCode::from_packed_bytes(&[0b1000_0001, 0b1111_1111], 9);
        assert_eq!(d, c);
    }

    #[test]
    fn memory_accounting() {
        assert_eq!(BinaryCode::zero(64).heap_bytes(), 0);
        assert_eq!(BinaryCode::zero(128).heap_bytes(), 0);
        assert_eq!(BinaryCode::zero(192).heap_bytes(), 24);
        assert_eq!(BinaryCode::zero(512).heap_bytes(), 64);
    }

    #[test]
    fn random_has_expected_length_and_tail_zeroed() {
        let mut rng = StdRng::seed_from_u64(7);
        for len in [1usize, 7, 63, 64, 65, 100, 127, 128, 129, 512] {
            let c = BinaryCode::random(len, &mut rng);
            assert_eq!(c.len(), len);
            // Display must produce exactly `len` chars and parse back equal.
            let s = c.to_string();
            assert_eq!(s.len(), len);
            assert_eq!(s.parse::<BinaryCode>().unwrap(), c);
        }
    }

    proptest! {
        #[test]
        fn prop_hamming_symmetric_and_identity(
            a_bits in proptest::collection::vec(any::<bool>(), 1..300),
            b_bits in proptest::collection::vec(any::<bool>(), 1..300),
        ) {
            let n = a_bits.len().min(b_bits.len());
            let mut a = BinaryCode::zero(n);
            let mut b = BinaryCode::zero(n);
            for i in 0..n {
                a.set(i, a_bits[i]);
                b.set(i, b_bits[i]);
            }
            prop_assert_eq!(a.hamming(&b), b.hamming(&a));
            prop_assert_eq!(a.hamming(&a), 0);
            // Against the naive definition.
            let naive = (0..n).filter(|&i| a.get(i) != b.get(i)).count() as u32;
            prop_assert_eq!(a.hamming(&b), naive);
        }

        #[test]
        fn prop_triangle_inequality(seed in any::<u64>(), len in 1usize..200) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = BinaryCode::random(len, &mut rng);
            let b = BinaryCode::random(len, &mut rng);
            let c = BinaryCode::random(len, &mut rng);
            prop_assert!(a.hamming(&c) <= a.hamming(&b) + b.hamming(&c));
        }

        #[test]
        fn prop_flip_changes_distance_by_one(seed in any::<u64>(), len in 1usize..200) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = BinaryCode::random(len, &mut rng);
            let b = BinaryCode::random(len, &mut rng);
            let i = (seed as usize) % len;
            let d = a.hamming(&b);
            let mut flipped = a.clone();
            flipped.flip(i);
            let d2 = flipped.hamming(&b);
            prop_assert_eq!(d.abs_diff(d2), 1);
        }

        #[test]
        fn prop_extract_matches_bits(seed in any::<u64>(), len in 64usize..300) {
            let mut rng = StdRng::seed_from_u64(seed);
            let c = BinaryCode::random(len, &mut rng);
            let width = 1 + (seed as usize) % 64;
            let start = (seed as usize / 64) % (len.saturating_sub(width).max(1));
            if start + width <= len {
                let v = c.extract(start, width);
                for j in 0..width {
                    let bit = (v >> (width - 1 - j)) & 1 == 1;
                    prop_assert_eq!(bit, c.get(start + j));
                }
            }
        }
    }
}
