//! The projection kernel under every hash in this crate: `k` dot products
//! of one input vector against `k` fixed directions, optionally after
//! subtracting a mean, with no heap allocation per call.
//!
//! [`Pca`](crate::Pca) (and through it [`SpectralHasher`](crate::SpectralHasher))
//! and [`SimHasher`](crate::SimHasher) each hold one [`Projector`] built at
//! fit / construction time. It stores the directions *transposed* into
//! [`BLOCK`]-wide panels, so one block of `BLOCK` directions is projected
//! by a single pass over the input with `BLOCK` accumulators held in
//! registers, and the caller folds each block into its own state (code
//! words on the stack, an output row) as it completes.
//!
//! # Bit identity with the scalar dot product
//!
//! Every projection is bit-for-bit the `f64` that the scalar dot product
//! `dot(direction, &centred)` returns (kept in the tests as the
//! reference), which is what the hashes computed before this kernel
//! existed, so no code bit can move:
//!
//! * **Same fold.** `Iterator::sum` over `f64` folds from `-0.0`, adding
//!   the products in ascending coordinate order. Each accumulator here
//!   starts at `-0.0` and adds its products in ascending coordinate order
//!   too. The vector lanes run *across* directions, never within one sum,
//!   so no sum is ever reassociated.
//! * **Same operands.** Each product is `direction[c] * (v[c] - mean[c])`
//!   (or `direction[c] * v[c]` without a mean), the same two `f64`s in
//!   the same order, and the centred value is recomputed exactly as
//!   before, once per block.
//! * **No contraction.** Rust never fuses a multiply and an add into an
//!   FMA on its own, and no instantiation here enables the `fma` feature.
//!
//! The body is compiled twice: portable (baseline x86-64 uses SSE2, two
//! lanes per register) and under `#[target_feature(enable = "avx2")]`
//! (four lanes). The AVX2 one runs wherever the CPU probe the group
//! kernels already cache ([`Kernel::detect`](ha_bitcode::Kernel::detect))
//! found AVX2. An AVX-512 instantiation (32-wide blocks in four `zmm`
//! accumulators) hashed only ~7 % faster than AVX2 on the 2-vCPU Xeon
//! reference host (64-d, 32-bit codes), so there is none.

use ha_bitcode::MAX_BITS;

/// Directions projected per pass over the input: the accumulators of one
/// block fill four `ymm` registers under AVX2 and eight `xmm` registers on
/// baseline x86-64.
pub(crate) const BLOCK: usize = 16;

/// `k` directions over `dim`-dimensional input, transposed for the kernel.
#[derive(Clone, Debug)]
pub(crate) struct Projector {
    dim: usize,
    /// Subtracted from the input before projecting (PCA's mean); empty
    /// for an uncentred projection (SimHash).
    mean: Vec<f64>,
    /// Panel `b` is `dim` consecutive rows: row `c` holds coefficient `c`
    /// of directions `b·BLOCK .. b·BLOCK + BLOCK`. Lanes past `k` are zero
    /// and their sums are never read.
    panels: Vec<Row>,
}

/// One panel row, cache-line aligned so no vector load straddles a line.
#[derive(Clone, Copy, Debug)]
#[repr(align(64))]
struct Row([f64; BLOCK]);

impl Projector {
    /// Transposes `directions` (`k × dim`, row-major) into panels.
    ///
    /// # Panics
    /// If `dim` is zero, `directions.len()` is not a multiple of `dim`, or
    /// `mean` is neither empty nor `dim` long.
    pub(crate) fn new(directions: &[f64], dim: usize, mean: Vec<f64>) -> Self {
        assert!(
            dim > 0 && directions.len().is_multiple_of(dim),
            "directions must be k × dim"
        );
        assert!(
            mean.is_empty() || mean.len() == dim,
            "mean must be empty or dim long"
        );
        let k = directions.len() / dim;
        let mut panels = vec![Row([0.0; BLOCK]); k.div_ceil(BLOCK) * dim];
        for (j, direction) in directions.chunks_exact(dim).enumerate() {
            let panel = &mut panels[j / BLOCK * dim..][..dim];
            for (row, &w) in panel.iter_mut().zip(direction) {
                row.0[j % BLOCK] = w;
            }
        }
        Projector { dim, mean, panels }
    }

    /// Input dimensionality.
    pub(crate) fn dim(&self) -> usize {
        self.dim
    }

    /// Projects `v` onto every direction and folds the blocks, in
    /// ascending order, into `init`: `step(state, j0, block)` receives the
    /// projections onto directions `j0 .. j0 + BLOCK` (lanes at or past
    /// `k` are padding).
    ///
    /// # Panics
    /// If `v.len() != self.dim()`.
    pub(crate) fn fold<S>(
        &self,
        v: &[f64],
        init: S,
        step: impl Fn(S, usize, &[f64; BLOCK]) -> S,
    ) -> S {
        assert_eq!(v.len(), self.dim, "dimension mismatch");
        #[cfg(target_arch = "x86_64")]
        if ha_bitcode::Kernel::Avx2.is_available() {
            // SAFETY: `Kernel::Avx2.is_available()` reads the once-per-process
            // `Kernel::detect()` probe, which reports AVX2 only after
            // `is_x86_feature_detected!("avx2")` found it on this CPU.
            return unsafe { x86::fold_avx2(self, v, init, step) };
        }
        self.body(v, init, step)
    }

    /// The kernel body both instantiations share.
    #[inline(always)]
    fn body<S>(&self, v: &[f64], init: S, step: impl Fn(S, usize, &[f64; BLOCK]) -> S) -> S {
        let mut state = init;
        for (b, panel) in self.panels.chunks_exact(self.dim).enumerate() {
            let acc = if self.mean.is_empty() {
                accumulate(panel, v.iter().copied())
            } else {
                accumulate(panel, v.iter().zip(&self.mean).map(|(x, m)| x - m))
            };
            state = step(state, b * BLOCK, &acc);
        }
        state
    }
}

/// One block: `BLOCK` sums, each folded from `-0.0` over ascending
/// coordinates, exactly as `Iterator::sum` folds one of them.
#[inline(always)]
fn accumulate(panel: &[Row], xs: impl Iterator<Item = f64>) -> [f64; BLOCK] {
    let mut acc = [-0.0; BLOCK];
    for (Row(w), x) in panel.iter().zip(xs) {
        for i in 0..BLOCK {
            acc[i] += w[i] * x;
        }
    }
    acc
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The kernel body compiled with AVX2 (and deliberately not `fma`):
    //! callable only once `Kernel::detect()` found the feature.

    use super::{Projector, BLOCK};

    /// [`Projector::body`] with four `f64` lanes per register.
    #[target_feature(enable = "avx2")]
    pub(super) fn fold_avx2<S>(
        p: &Projector,
        v: &[f64],
        init: S,
        step: impl Fn(S, usize, &[f64; BLOCK]) -> S,
    ) -> S {
        p.body(v, init, step)
    }
}

/// The words of any valid code, filled on the stack: bit `i` is bit
/// `63 - i % 64` of word `i / 64`, as in [`BinaryCode`](ha_bitcode::BinaryCode).
pub(crate) type Words = [u64; MAX_BITS / 64];

/// ORs `on` into bit `bit` of `words`, without a branch on `on`.
#[inline(always)]
pub(crate) fn set_bit(words: &mut Words, bit: usize, on: bool) {
    words[bit / 64] |= (on as u64) << (63 - bit % 64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::dot;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    impl Projector {
        /// The mean subtracted before projecting (empty if none): what the
        /// reference encoders in this crate's tests centre by.
        pub(crate) fn mean(&self) -> &[f64] {
            &self.mean
        }
    }

    /// The projections `dot` computes: the oracle every tier must match.
    fn reference(directions: &[f64], dim: usize, mean: &[f64], v: &[f64]) -> Vec<f64> {
        let centred: Vec<f64> = if mean.is_empty() {
            v.to_vec()
        } else {
            v.iter().zip(mean).map(|(x, m)| x - m).collect()
        };
        directions
            .chunks_exact(dim)
            .map(|d| dot(d, &centred))
            .collect()
    }

    /// One fold step collecting the first `k` projections.
    fn collect(k: usize) -> impl Fn(Vec<f64>, usize, &[f64; BLOCK]) -> Vec<f64> {
        move |mut out, j0, block| {
            assert_eq!(j0, out.len(), "blocks arrive in order");
            out.extend_from_slice(&block[..(k - j0).min(BLOCK)]);
            out
        }
    }

    /// Bit patterns, with every NaN as one value: a NaN's payload is not
    /// part of the contract (any NaN projection yields a clear bit).
    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter()
            .map(|x| {
                if x.is_nan() {
                    f64::NAN.to_bits()
                } else {
                    x.to_bits()
                }
            })
            .collect()
    }

    /// A coordinate drawn to hit the edge cases: ordinary values, zeros
    /// of both signs, huge and tiny magnitudes, and (if `specials`)
    /// NaN / ±inf.
    fn coordinate(rng: &mut StdRng, specials: bool) -> f64 {
        match rng.gen_range(0..if specials { 12 } else { 9 }) {
            0 => 0.0,
            1 => -0.0,
            2 => rng.gen_range(-1e300..1e300),
            3 => rng.gen_range(-1e-300..1e-300),
            4 => f64::MIN_POSITIVE * rng.gen_range(-1.0..1.0),
            9 => f64::NAN,
            10 => f64::INFINITY,
            11 => f64::NEG_INFINITY,
            _ => rng.gen_range(-10.0..10.0),
        }
    }

    #[test]
    fn float_sum_starts_at_negative_zero() {
        // The fold this kernel reproduces: an all-`-0.0` sum stays `-0.0`.
        let s: f64 = [-0.0f64, -0.0].iter().copied().sum();
        assert!(s == 0.0 && s.is_sign_negative());
        let s: f64 = std::iter::empty::<f64>().sum();
        assert!(s.is_sign_negative());
    }

    #[test]
    fn all_negative_zero_products_keep_the_sign() {
        // v == mean: every centred coordinate is +0.0, every product with
        // a negative coefficient is -0.0, and only a -0.0 start keeps the
        // sum -0.0 as `dot` does.
        let directions = [-1.0, -2.0, -3.0, 4.0, -5.0, 6.0];
        let mean = vec![0.5, -7.0, 3.25];
        let p = Projector::new(&directions, 3, mean.clone());
        let got = p.fold(&mean, Vec::new(), collect(2));
        let want = reference(&directions, 3, &mean, &mean);
        assert_eq!(bits(&got), bits(&want));
        assert!(got[0].is_sign_negative(), "first sum is -0.0");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Every direction count (one block, a partial block, several),
        /// every dimension, with and without centring, on ordinary and
        /// pathological coordinates: bit-identical to `dot`, through the
        /// dispatched kernel and through each instantiation.
        #[test]
        fn projections_are_bit_identical_to_dot(
            dim in 1usize..=600,
            k in 1usize..=130,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let specials = rng.gen_bool(0.3);
            let directions: Vec<f64> =
                (0..k * dim).map(|_| coordinate(&mut rng, specials)).collect();
            let mean: Vec<f64> = if rng.gen_bool(0.5) {
                Vec::new()
            } else {
                (0..dim).map(|_| coordinate(&mut rng, specials)).collect()
            };
            let p = Projector::new(&directions, dim, mean.clone());
            for case in 0..4 {
                let v: Vec<f64> = match case {
                    0 if !mean.is_empty() => mean.clone(),
                    _ => (0..dim).map(|_| coordinate(&mut rng, specials)).collect(),
                };
                let want = bits(&reference(&directions, dim, &mean, &v));
                prop_assert_eq!(bits(&p.fold(&v, Vec::new(), collect(k))), want.clone());
                prop_assert_eq!(bits(&p.body(&v, Vec::new(), collect(k))), want.clone());
                #[cfg(target_arch = "x86_64")]
                if ha_bitcode::Kernel::Avx2.is_available() {
                    // SAFETY: `Kernel::detect()` found AVX2 on this CPU.
                    let got = unsafe { x86::fold_avx2(&p, &v, Vec::new(), collect(k)) };
                    prop_assert_eq!(bits(&got), want);
                }
            }
        }
    }
}
