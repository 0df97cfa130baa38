//! SimHash — Charikar's random-hyperplane similarity hash.
//!
//! Bit `i` of the code is the sign of the projection of the input onto a
//! random Gaussian direction. Pr[bit differs] = angle(u, v) / π, so Hamming
//! distance between codes is an unbiased estimator of angular distance.
//! This is the data-independent counterpart to Spectral Hashing and the
//! hash family behind the paper's near-duplicate-detection motivation [4,5].

use ha_bitcode::{BinaryCode, MAX_BITS};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::project::{set_bit, Projector, Words};
use crate::randn::standard_normal;
use crate::SimilarityHasher;

/// Random-hyperplane hasher producing `L`-bit codes for `d`-dimensional
/// input.
#[derive(Clone, Debug)]
pub struct SimHasher {
    code_len: usize,
    /// The `code_len` hyperplane normals, transposed for the projection
    /// kernel (no centring).
    planes: Projector,
}

impl SimHasher {
    /// Creates a hasher with `code_len` random Gaussian hyperplanes over
    /// `dim`-dimensional vectors, deterministically derived from `seed`.
    ///
    /// # Panics
    /// If `dim` is zero, or `code_len` is zero or exceeds
    /// [`MAX_BITS`](ha_bitcode::MAX_BITS).
    pub fn new(code_len: usize, dim: usize, seed: u64) -> Self {
        assert!(code_len >= 1, "code length must be >= 1");
        assert!(code_len <= MAX_BITS, "code length must be <= {MAX_BITS}");
        assert!(dim >= 1, "dimension must be >= 1");
        let mut rng = StdRng::seed_from_u64(seed);
        let planes: Vec<f64> = (0..code_len * dim)
            .map(|_| standard_normal(&mut rng))
            .collect();
        SimHasher {
            code_len,
            planes: Projector::new(&planes, dim, Vec::new()),
        }
    }
}

impl SimilarityHasher for SimHasher {
    fn code_len(&self) -> usize {
        self.code_len
    }

    fn dim(&self) -> usize {
        self.planes.dim()
    }

    fn hash(&self, v: &[f64]) -> BinaryCode {
        let words = self.planes.fold(v, [0; _], |mut words: Words, j0, block| {
            for (i, &s) in block.iter().enumerate().take(self.code_len - j0) {
                set_bit(&mut words, j0 + i, s >= 0.0);
            }
            words
        });
        BinaryCode::from_words(&words, self.code_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn deterministic_for_same_seed() {
        let h1 = SimHasher::new(64, 10, 7);
        let h2 = SimHasher::new(64, 10, 7);
        let v: Vec<f64> = (0..10).map(|i| i as f64).collect();
        assert_eq!(h1.hash(&v), h2.hash(&v));
        let h3 = SimHasher::new(64, 10, 8);
        assert_ne!(h1.hash(&v), h3.hash(&v), "different seed, different code");
    }

    #[test]
    fn scale_invariant() {
        // SimHash depends only on direction: scaling the vector by a
        // positive constant must not change the code.
        let h = SimHasher::new(32, 6, 1);
        let v = vec![0.3, -1.0, 2.0, 0.0, 4.0, -0.5];
        let scaled: Vec<f64> = v.iter().map(|x| x * 37.5).collect();
        assert_eq!(h.hash(&v), h.hash(&scaled));
    }

    #[test]
    fn hamming_tracks_angle() {
        // Vectors at a small angle must collide on most bits; orthogonal
        // vectors on about half; near-opposite on few.
        let h = SimHasher::new(256, 2, 3);
        let a = h.hash(&[1.0, 0.0]);
        let near = h.hash(&[1.0, 0.1]); // ~5.7°
        let orth = h.hash(&[0.0, 1.0]); // 90°
        let opp = h.hash(&[-1.0, -0.05]); // ~177°
        let d_near = a.hamming(&near);
        let d_orth = a.hamming(&orth);
        let d_opp = a.hamming(&opp);
        assert!(d_near < d_orth && d_orth < d_opp, "{d_near} {d_orth} {d_opp}");
        // Expected collision probability θ/π: 90° → half the bits differ.
        assert!((d_orth as i64 - 128).abs() < 40, "d_orth = {d_orth}");
    }

    #[test]
    fn hash_all_matches_individual() {
        let h = SimHasher::new(16, 4, 5);
        let mut rng = StdRng::seed_from_u64(11);
        let data: Vec<Vec<f64>> = (0..20)
            .map(|_| (0..4).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        let batch = h.hash_all(&data);
        for (v, code) in data.iter().zip(&batch) {
            assert_eq!(&h.hash(v), code);
        }
    }

    /// The scalar body the kernel replaced: regenerate the planes from the
    /// seed, one sequential `sum` per plane.
    fn reference_hash(code_len: usize, dim: usize, seed: u64, v: &[f64]) -> BinaryCode {
        let mut rng = StdRng::seed_from_u64(seed);
        let planes: Vec<f64> = (0..code_len * dim)
            .map(|_| standard_normal(&mut rng))
            .collect();
        let mut code = BinaryCode::zero(code_len);
        for (i, plane) in planes.chunks_exact(dim).enumerate() {
            let s: f64 = plane.iter().zip(v).map(|(p, x)| p * x).sum();
            if s >= 0.0 {
                code.set(i, true);
            }
        }
        code
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The kernel-driven hash ≡ the scalar reference for every code
        /// length (partial blocks, several blocks) and dimension, on
        /// ordinary, zero, huge and non-finite inputs.
        #[test]
        fn hash_is_bit_identical_to_the_reference(
            code_len in 1usize..=130,
            dim in 1usize..=600,
            seed in any::<u64>(),
        ) {
            let h = SimHasher::new(code_len, dim, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 1);
            let mut inputs: Vec<Vec<f64>> = vec![vec![0.0; dim], vec![-0.0; dim]];
            for scale in [1e-300, 1.0, 1e300] {
                inputs.push((0..dim).map(|_| scale * rng.gen_range(-1.0..1.0)).collect());
            }
            for special in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut v: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
                v[rng.gen_range(0..dim)] = special;
                inputs.push(v);
            }
            for v in &inputs {
                prop_assert_eq!(h.hash(v), reference_hash(code_len, dim, seed, v));
            }
        }
    }
}
