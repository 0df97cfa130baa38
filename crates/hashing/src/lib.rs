//! Learned similarity hash functions: ℝᵈ → {0,1}ᴸ.
//!
//! The paper's pipeline (§1, §6) first maps every high-dimensional tuple to
//! a binary code with a *similarity-preserving* hash function and then runs
//! all queries in Hamming space. The index never looks inside the hash, so
//! this crate exposes one trait, [`SimilarityHasher`], and two
//! implementations:
//!
//! * [`SpectralHasher`] — the paper's choice ("we choose the
//!   state-of-the-art Spectral Hashing \[2\] as the hash function"). Our
//!   implementation follows Weiss et al.'s recipe: PCA the (sampled) data,
//!   pick the `L` smallest analytical eigenfunction frequencies across
//!   principal directions, and threshold the corresponding sinusoids.
//!   PCA is computed with an in-house Jacobi eigensolver ([`pca`],
//!   [`matrix`]) — no external linear-algebra dependency.
//! * [`SimHasher`] — Charikar's random-hyperplane hash (reference \[5\] of
//!   the paper), the classical data-independent alternative: bit `i` is the
//!   sign of a random projection, and the Hamming distance estimates the
//!   angle between vectors.
//!
//! ```
//! use ha_hashing::{SimHasher, SimilarityHasher};
//!
//! let hasher = SimHasher::new(64, 8, 42); // 64-bit codes over 8-d data
//! let a = hasher.hash(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
//! let close = hasher.hash(&[1.1, 2.0, 3.1, 4.0, 5.0, 6.1, 7.0, 8.0]);
//! let far = hasher.hash(&[-5.0, 3.0, -2.0, 8.0, -1.0, 0.5, -4.0, 2.0]);
//! assert!(a.hamming(&close) < a.hamming(&far));
//! ```

pub mod matrix;
pub mod pca;
mod project;
pub mod randn;
mod simhash;
mod spectral;

pub use matrix::Matrix;
pub use pca::Pca;
pub use simhash::SimHasher;
pub use spectral::SpectralHasher;

use ha_bitcode::BinaryCode;

/// A learned (or random) similarity-preserving hash function.
///
/// Implementations must be deterministic after construction: hashing the
/// same vector twice yields the same code, so codes can be recomputed on
/// any MapReduce worker that received the hasher via the distributed cache.
pub trait SimilarityHasher: Send + Sync {
    /// Length `L` of produced codes, in bits.
    fn code_len(&self) -> usize;

    /// Input dimensionality `d` this hasher expects.
    fn dim(&self) -> usize;

    /// Maps one vector to its binary code.
    ///
    /// # Panics
    /// If `v.len() != self.dim()`.
    fn hash(&self, v: &[f64]) -> BinaryCode;

    /// Maps a batch of vectors; the default just loops.
    fn hash_all(&self, data: &[Vec<f64>]) -> Vec<BinaryCode> {
        data.iter().map(|v| self.hash(v)).collect()
    }
}
