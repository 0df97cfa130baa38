//! In-house record checksums for DFS block integrity.
//!
//! HDFS stores a CRC per 512-byte chunk and verifies it on every read;
//! the in-memory DFS does the moral equivalent with one 64-bit digest per
//! block. The hash is computed over a canonical byte encoding of the
//! records (fixed-width little-endian integers, IEEE-754 bit patterns for
//! floats, length-prefixed sequences), so two byte-identical replicas
//! always agree and any single corrupted replica disagrees with the
//! write-time digest.
//!
//! A dedicated [`Checksum`] trait — rather than `std::hash::Hash` — is
//! required because the pipeline's record types contain `f64`
//! (`VecTuple = (Vec<f64>, u64)`), which has no `Hash` impl; floats are
//! digested via [`f64::to_bits`].
//!
//! The digest is the DFS's own ([`BlockHasher`]), not `ha_bitcode::fnv`:
//! block digests live only in the store's memory and are recomputed on
//! every read, so nothing outside this module has to agree with them,
//! and byte-at-a-time FNV-1a cost ≈17 ms per 10 MB input file on every
//! put and every verified read.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental digest of a DFS block's canonical bytes: FNV-1a's
/// xor-multiply step applied once per little-endian `u64` lane instead of
/// once per byte, with the total length mixed in by
/// [`BlockHasher::finish`]. The digest depends only on the concatenated
/// bytes, never on how the writes split them, and every lane step is a
/// bijection of the state, so any single flipped bit changes the digest.
#[derive(Clone, Debug)]
pub struct BlockHasher {
    state: u64,
    /// Bytes of the lane being filled, little-endian, `fill` of them.
    lane: u64,
    fill: u32,
    len: u64,
}

impl BlockHasher {
    /// Fresh hasher.
    pub fn new() -> Self {
        BlockHasher { state: OFFSET, lane: 0, fill: 0, len: 0 }
    }

    fn mix(&mut self, lane: u64) {
        self.state = (self.state ^ lane).wrapping_mul(PRIME);
    }

    /// Digests raw bytes.
    pub fn write(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        while self.fill != 0 {
            let Some((&b, rest)) = bytes.split_first() else { return };
            self.lane |= u64::from(b) << (8 * self.fill);
            bytes = rest;
            self.fill = (self.fill + 1) % 8;
            if self.fill == 0 {
                self.mix(self.lane);
                self.lane = 0;
            }
        }
        let mut lanes = bytes.chunks_exact(8);
        for lane in &mut lanes {
            let mut word = [0u8; 8];
            word.copy_from_slice(lane);
            self.mix(u64::from_le_bytes(word));
        }
        for (i, &b) in lanes.remainder().iter().enumerate() {
            self.lane |= u64::from(b) << (8 * i);
        }
        self.fill = lanes.remainder().len() as u32;
    }

    /// Digests a `u64` — exactly `write(&v.to_le_bytes())`, one lane step.
    pub fn write_u64(&mut self, v: u64) {
        self.len += 8;
        if self.fill == 0 {
            self.mix(v);
        } else {
            let shift = 8 * self.fill;
            self.mix(self.lane | (v << shift));
            self.lane = v >> (64 - shift);
        }
    }

    /// The digest of everything written so far.
    pub fn finish(&self) -> u64 {
        let mut h = self.clone();
        if h.fill != 0 {
            h.mix(h.lane);
        }
        h.mix(h.len);
        h.state
    }
}

impl Default for BlockHasher {
    fn default() -> Self {
        BlockHasher::new()
    }
}

/// Types with a canonical byte encoding the DFS can checksum.
///
/// Implementations must be *deterministic* — the same value always feeds
/// the hasher the same bytes — because block digests computed at write
/// time are compared against digests recomputed on every read.
pub trait Checksum {
    /// Feeds this value's canonical encoding into `h`.
    fn update_checksum(&self, h: &mut BlockHasher);
}

macro_rules! checksum_via_le_bytes {
    ($($t:ty),*) => {$(
        impl Checksum for $t {
            fn update_checksum(&self, h: &mut BlockHasher) {
                h.write(&self.to_le_bytes());
            }
        }
    )*};
}

checksum_via_le_bytes!(u8, u16, u32, u128, i8, i16, i32, i128);

// Eight-byte values take the one-lane-step path.
macro_rules! checksum_via_u64 {
    ($($t:ty),*) => {$(
        impl Checksum for $t {
            fn update_checksum(&self, h: &mut BlockHasher) {
                h.write_u64(*self as u64);
            }
        }
    )*};
}

checksum_via_u64!(u64, usize, i64, isize);

impl Checksum for f32 {
    fn update_checksum(&self, h: &mut BlockHasher) {
        h.write(&self.to_bits().to_le_bytes());
    }
}

impl Checksum for f64 {
    fn update_checksum(&self, h: &mut BlockHasher) {
        h.write_u64(self.to_bits());
    }
}

impl Checksum for bool {
    fn update_checksum(&self, h: &mut BlockHasher) {
        h.write(&[u8::from(*self)]);
    }
}

impl Checksum for char {
    fn update_checksum(&self, h: &mut BlockHasher) {
        h.write(&(*self as u32).to_le_bytes());
    }
}

impl Checksum for () {
    fn update_checksum(&self, _h: &mut BlockHasher) {}
}

impl Checksum for str {
    fn update_checksum(&self, h: &mut BlockHasher) {
        h.write_u64(self.len() as u64);
        h.write(self.as_bytes());
    }
}

impl Checksum for String {
    fn update_checksum(&self, h: &mut BlockHasher) {
        self.as_str().update_checksum(h);
    }
}

impl<T: Checksum + ?Sized> Checksum for &T {
    fn update_checksum(&self, h: &mut BlockHasher) {
        (**self).update_checksum(h);
    }
}

impl<T: Checksum> Checksum for Vec<T> {
    fn update_checksum(&self, h: &mut BlockHasher) {
        h.write_u64(self.len() as u64);
        for item in self {
            item.update_checksum(h);
        }
    }
}

impl<T: Checksum> Checksum for Option<T> {
    fn update_checksum(&self, h: &mut BlockHasher) {
        match self {
            None => h.write(&[0]),
            Some(v) => {
                h.write(&[1]);
                v.update_checksum(h);
            }
        }
    }
}

impl<A: Checksum, B: Checksum> Checksum for (A, B) {
    fn update_checksum(&self, h: &mut BlockHasher) {
        self.0.update_checksum(h);
        self.1.update_checksum(h);
    }
}

impl<A: Checksum, B: Checksum, C: Checksum> Checksum for (A, B, C) {
    fn update_checksum(&self, h: &mut BlockHasher) {
        self.0.update_checksum(h);
        self.1.update_checksum(h);
        self.2.update_checksum(h);
    }
}

impl<A: Checksum, B: Checksum, C: Checksum, D: Checksum> Checksum for (A, B, C, D) {
    fn update_checksum(&self, h: &mut BlockHasher) {
        self.0.update_checksum(h);
        self.1.update_checksum(h);
        self.2.update_checksum(h);
        self.3.update_checksum(h);
    }
}

/// Digest of one DFS block: the record count, then every record's
/// canonical encoding in order.
pub(crate) fn block_checksum<T: Checksum>(records: &[T]) -> u64 {
    let mut h = BlockHasher::new();
    h.write_u64(records.len() as u64);
    for r in records {
        r.update_checksum(&mut h);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ha_bitcode::fnv::fnv64;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn known_fnv_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn deterministic_across_calls() {
        let block: Vec<(Vec<f64>, u64)> = vec![(vec![1.5, -0.25], 7), (vec![], 9)];
        assert_eq!(block_checksum(&block), block_checksum(&block.clone()));
    }

    #[test]
    fn sensitive_to_every_field() {
        let base: Vec<(Vec<f64>, u64)> = vec![(vec![1.0, 2.0], 3)];
        let digest = block_checksum(&base);
        assert_ne!(digest, block_checksum::<(Vec<f64>, u64)>(&[(vec![1.0, 2.0], 4)]));
        assert_ne!(digest, block_checksum::<(Vec<f64>, u64)>(&[(vec![1.0, 2.5], 3)]));
        assert_ne!(digest, block_checksum::<(Vec<f64>, u64)>(&[(vec![2.0, 1.0], 3)]));
    }

    #[test]
    fn length_prefix_disambiguates_splits() {
        // Without length prefixes ["ab"] and ["a", "b"] would collide.
        let a = block_checksum(&["ab".to_string()]);
        let b = block_checksum(&["a".to_string(), "b".to_string()]);
        assert_ne!(a, b);
    }

    #[test]
    fn empty_blocks_of_different_types_hash_alike_but_records_differ() {
        assert_eq!(block_checksum::<u8>(&[]), block_checksum::<u64>(&[]));
        assert_ne!(block_checksum(&[0u8]), block_checksum(&[0u64]));
    }

    #[test]
    fn float_bit_patterns_distinguish_signed_zero() {
        assert_ne!(block_checksum(&[0.0f64]), block_checksum(&[-0.0f64]));
    }

    #[test]
    fn option_and_bool_and_char_cover_tags() {
        assert_ne!(
            block_checksum(&[Some(0u8)]),
            block_checksum::<Option<u8>>(&[None])
        );
        assert_ne!(block_checksum(&[true]), block_checksum(&[false]));
        assert_ne!(block_checksum(&['a']), block_checksum(&['b']));
    }

    fn one_shot(bytes: &[u8]) -> u64 {
        let mut h = BlockHasher::new();
        h.write(bytes);
        h.finish()
    }

    proptest! {
        #[test]
        fn prop_digest_ignores_how_writes_split(
            bytes in proptest::collection::vec(any::<u8>(), 0..200),
            cuts in proptest::collection::vec(0usize..200, 0..12),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(bytes.len())).collect();
            cuts.push(bytes.len());
            cuts.sort_unstable();
            let mut h = BlockHasher::new();
            let mut at = 0;
            for cut in cuts {
                let piece = &bytes[at..cut];
                // Eight-byte pieces go through the one-lane path, at any
                // alignment to the lanes already written.
                match <[u8; 8]>::try_from(piece) {
                    Ok(word) => h.write_u64(u64::from_le_bytes(word)),
                    Err(_) => h.write(piece),
                }
                at = cut;
            }
            prop_assert_eq!(h.finish(), one_shot(&bytes));
        }

        #[test]
        fn prop_any_single_bit_flip_in_a_float_changes_the_digest(
            seed in any::<u64>(),
            rows in 1usize..8,
            dim in 1usize..6,
            pick in any::<usize>(),
            bit in 0u32..64,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let block: Vec<(Vec<f64>, u64)> = (0..rows)
                .map(|_| ((0..dim).map(|_| f64::from_bits(rng.gen())).collect(), rng.gen()))
                .collect();
            let (r, i) = ((pick / dim) % rows, pick % dim);
            let mut flipped = block.clone();
            flipped[r].0[i] = f64::from_bits(block[r].0[i].to_bits() ^ (1 << bit));
            prop_assert_ne!(block_checksum(&block), block_checksum(&flipped));
        }
    }
}
