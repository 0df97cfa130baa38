//! Spectral Hashing (Weiss, Torralba, Fergus — NIPS 2008).
//!
//! The data-dependent hash function used throughout the paper's
//! evaluation. The out-of-sample recipe (for a uniform-box approximation of
//! the data distribution):
//!
//! 1. PCA the training sample down to `k` directions.
//! 2. For each PCA direction `j` with projected data range `[a_j, b_j]`,
//!    the one-dimensional Laplacian eigenfunctions are
//!    `Φ_m(x) = sin(π/2 + m·π/(b_j − a_j)·(x − a_j))` with analytical
//!    eigenvalue decreasing in the frequency `ω = m·π/(b_j − a_j)`.
//! 3. Pick the `L` (code length) smallest frequencies across all
//!    `(direction, mode)` pairs — wide-spread directions contribute several
//!    low-frequency modes.
//! 4. Bit `i` of a code is `sign(Φ_{m_i}(proj_{j_i}(x)))`.
//!
//! The resulting codes are balanced (each sinusoid crosses zero across the
//! data range) and nearby points in the PCA metric receive nearby codes —
//! the property the Hamming-threshold kNN approximation of §2/§6.1.4
//! depends on.

use ha_bitcode::{BinaryCode, MAX_BITS};

use crate::matrix::Matrix;
use crate::pca::Pca;
use crate::project::{set_bit, Words, BLOCK};
use crate::SimilarityHasher;

/// One selected eigenfunction: a PCA direction plus a sinusoid mode.
#[derive(Clone, Debug)]
struct Mode {
    /// The code bit this mode sets.
    bit: usize,
    /// Index of the PCA direction.
    direction: usize,
    /// Frequency ω = m·π/(b − a).
    omega: f64,
    /// Lower end of the direction's projected range.
    lo: f64,
}

/// Spectral Hashing model: fit once on a sample, then hash any vector.
#[derive(Clone, Debug)]
pub struct SpectralHasher {
    pca: Pca,
    /// The selected modes ordered by direction (bits ascending within a
    /// direction), so [`hash`](SimilarityHasher::hash) sets the bits of
    /// each block of projections as the kernel emits it.
    modes: Vec<Mode>,
}

impl SpectralHasher {
    /// Fits a spectral hasher producing `code_len`-bit codes from training
    /// `data` (rows = samples). At most `max_pca` principal directions are
    /// retained (the usual setting is `max_pca = code_len`).
    ///
    /// # Panics
    /// If `data` has fewer than 2 rows, or `code_len` is zero or exceeds
    /// [`MAX_BITS`](ha_bitcode::MAX_BITS).
    pub fn fit(data: &Matrix, code_len: usize, max_pca: usize) -> Self {
        assert!(data.rows() >= 2, "need at least 2 training samples");
        assert!(code_len >= 1, "code length must be >= 1");
        assert!(code_len <= MAX_BITS, "code length must be <= {MAX_BITS}");
        let _span = ha_obs::span("hashing.fit");
        let k = max_pca.clamp(1, data.cols()).min(code_len.max(1));
        let pca = Pca::fit(data, k);

        let _span = ha_obs::span("hashing.fit.ranges");
        // Projected ranges per direction.
        let projected = pca.project_all(data);
        let mut ranges = Vec::with_capacity(k);
        for j in 0..k {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for r in 0..projected.rows() {
                let v = projected[(r, j)];
                lo = lo.min(v);
                hi = hi.max(v);
            }
            ranges.push((lo, hi));
        }
        Self::from_ranges(pca, &ranges, code_len)
    }

    /// Selects the `code_len` modes of lowest frequency over the
    /// directions' projected `(lo, hi)` ranges.
    fn from_ranges(pca: Pca, ranges: &[(f64, f64)], code_len: usize) -> Self {
        // Enumerate candidate modes: for each direction, modes m = 1..=L
        // (no direction can contribute more than L useful bits).
        let mut candidates: Vec<Mode> = Vec::with_capacity(ranges.len() * code_len);
        for (j, &(lo, mut hi)) in ranges.iter().enumerate() {
            // Degenerate (constant) directions get a tiny synthetic range so
            // their modes sort last and are effectively never selected
            // unless nothing else is available.
            if hi <= lo {
                hi = lo + f64::EPSILON.max(lo.abs() * 1e-12);
            }
            let width = hi - lo;
            for m in 1..=code_len {
                candidates.push(Mode {
                    bit: 0,
                    direction: j,
                    omega: m as f64 * std::f64::consts::PI / width,
                    lo,
                });
            }
        }
        // Smallest frequency = largest analytical eigenvalue.
        candidates.sort_by(|a, b| a.omega.total_cmp(&b.omega));
        candidates.truncate(code_len);
        for (bit, mode) in candidates.iter_mut().enumerate() {
            mode.bit = bit;
        }
        candidates.sort_by_key(|mode| mode.direction);

        SpectralHasher {
            pca,
            modes: candidates,
        }
    }

    /// Convenience: fit from a slice of vectors (owned or borrowed rows).
    pub fn fit_vectors<V: AsRef<[f64]>>(data: &[V], code_len: usize, max_pca: usize) -> Self {
        assert!(!data.is_empty(), "empty training set");
        let dim = data[0].as_ref().len();
        let mut flat = Vec::with_capacity(data.len() * dim);
        for v in data {
            let v = v.as_ref();
            assert_eq!(v.len(), dim, "ragged training data");
            flat.extend_from_slice(v);
        }
        let m = Matrix::from_rows(data.len(), dim, flat);
        Self::fit(&m, code_len, max_pca)
    }

    /// Approximate serialized size in bytes — what shipping the learned
    /// hash function through a distributed cache costs: the PCA mean and
    /// component matrix plus one (direction, ω, lo) triple per bit.
    pub fn approx_bytes(&self) -> usize {
        let pca = (self.pca.k() * self.pca.dim() + self.pca.dim()) * 8;
        let modes = self.modes.len() * (4 + 8 + 8);
        pca + modes
    }
}

impl SimilarityHasher for SpectralHasher {
    fn code_len(&self) -> usize {
        self.modes.len()
    }

    fn dim(&self) -> usize {
        self.pca.dim()
    }

    /// Projects `v` block by block and sets each block's bits as it
    /// completes: no heap allocation beyond a code wider than
    /// [`INLINE_BITS`](ha_bitcode::INLINE_BITS). Bit `i` is
    /// `sin(π/2 + ω_i·(proj − lo_i)) >= 0`, read from the parity of the
    /// phase's half-period index (libm `sin` only next to a zero crossing).
    fn hash(&self, v: &[f64]) -> BinaryCode {
        let init: (usize, Words) = (0, [0; _]);
        let (_, words) = self
            .pca
            .projector()
            .fold(v, init, |(mut next, mut words), j0, block| {
                for mode in self.modes[next..]
                    .iter()
                    .take_while(|m| m.direction < j0 + BLOCK)
                {
                    let x = block[mode.direction - j0] - mode.lo;
                    let phase = std::f64::consts::FRAC_PI_2 + mode.omega * x;
                    set_bit(&mut words, mode.bit, sin_nonneg(phase));
                    next += 1;
                }
                (next, words)
            });
        BinaryCode::from_words(&words, self.modes.len())
    }
}

/// Whether `sin(phase) >= 0`, calling `sin` only next to a zero crossing.
///
/// Write `t = phase / π`. For a real `p`, `sin(p)` is positive on
/// `(2mπ, (2m+1)π)`, negative on `((2m+1)π, (2m+2)π)` and zero only at
/// integer multiples of π; π is irrational, so the only `f64` that is such
/// a multiple is `±0`. Hence for every other finite `phase`,
/// `sin(phase) >= 0` exactly when `⌊phase / π⌋` is even.
///
/// The computed `t = phase · fl(1/π)` carries two roundings, so it is
/// within a relative `2⁻⁵²` (≈ 2.2e-16) of the true `phase / π`. Whenever
/// `t` is farther than `1e-9 · max(1, |t|)` from every integer, the true
/// quotient lies in the same open interval `(n, n + 1)` as `t`, so
/// `⌊t⌋ = n` has the right parity; there `|sin(phase)| > 3e-9`, far too
/// large for libm to return a value of the wrong sign (or `-0.0`). Inside
/// that band this calls `sin` itself, as it does for `±0` (always in the
/// band), non-finite `t` and `|t| ≥ 1e9` (where the band is a whole unit
/// wide). So the answer equals `phase.sin() >= 0.0` on every input.
///
/// `⌊t⌋` comes from plain SSE2 arithmetic (`floor` and `round` are libm
/// calls on baseline x86-64): adding and subtracting `1.5 · 2⁵²` rounds
/// `t` to the nearest integer `r` exactly, `t − r` is then exact too, and
/// the sum's last mantissa bit is `r`'s parity. `⌊t⌋` is `r` when `t > r`
/// and `r − 1` when `t < r`. On the 2-vCPU Xeon reference host this hashed
/// ~12 % faster (64-d, 32-bit codes) than truncating with
/// `cvttsd2si` and fixing up negative `t`, which needs two int ↔ float
/// conversions per bit.
#[inline(always)]
fn sin_nonneg(phase: f64) -> bool {
    /// Relative distance from an integer below which `sin` decides.
    const BAND: f64 = 1e-9;
    /// `1.5 · 2⁵²`: `t + ROUND` has unit spacing for every `|t| < 2⁵¹`.
    const ROUND: f64 = 6_755_399_441_055_744.0;
    let t = phase * std::f64::consts::FRAC_1_PI;
    let size = t.abs();
    if size < 1e9 {
        let shifted = t + ROUND;
        let offset = t - (shifted - ROUND);
        if offset.abs() > BAND * size.max(1.0) {
            let r_odd = shifted.to_bits() & 1 == 1;
            return r_odd == (offset < 0.0);
        }
    }
    phase.sin() >= 0.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::dot;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Clustered toy data: `clusters` Gaussian blobs in `dim` dimensions.
    fn blobs(
        rng: &mut StdRng,
        n_per: usize,
        clusters: usize,
        dim: usize,
        spread: f64,
    ) -> (Vec<Vec<f64>>, Vec<usize>) {
        let centres: Vec<Vec<f64>> = (0..clusters)
            .map(|_| (0..dim).map(|_| rng.gen_range(-10.0..10.0)).collect())
            .collect();
        let mut points = Vec::new();
        let mut labels = Vec::new();
        for (ci, centre) in centres.iter().enumerate() {
            for _ in 0..n_per {
                let p: Vec<f64> = centre
                    .iter()
                    .map(|&c| c + rng.gen_range(-spread..spread))
                    .collect();
                points.push(p);
                labels.push(ci);
            }
        }
        (points, labels)
    }

    #[test]
    fn code_len_and_dim_reported() {
        let mut rng = StdRng::seed_from_u64(3);
        let (data, _) = blobs(&mut rng, 50, 3, 8, 0.5);
        let h = SpectralHasher::fit_vectors(&data, 32, 32);
        assert_eq!(h.code_len(), 32);
        assert_eq!(h.dim(), 8);
        assert!(h.pca.k() <= 8);
    }

    #[test]
    fn deterministic_hashing() {
        let mut rng = StdRng::seed_from_u64(3);
        let (data, _) = blobs(&mut rng, 40, 2, 6, 0.5);
        let h = SpectralHasher::fit_vectors(&data, 16, 16);
        assert_eq!(h.hash(&data[0]), h.hash(&data[0]));
    }

    #[test]
    fn same_cluster_codes_are_closer_than_cross_cluster() {
        let mut rng = StdRng::seed_from_u64(17);
        let (data, labels) = blobs(&mut rng, 100, 4, 16, 0.3);
        let h = SpectralHasher::fit_vectors(&data, 32, 32);
        let codes = h.hash_all(&data);

        let mut intra = Vec::new();
        let mut inter = Vec::new();
        for i in (0..data.len()).step_by(7) {
            for j in (i + 1..data.len()).step_by(11) {
                let d = codes[i].hamming(&codes[j]) as f64;
                if labels[i] == labels[j] {
                    intra.push(d);
                } else {
                    inter.push(d);
                }
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&intra) < mean(&inter) * 0.6,
            "intra {} should be well below inter {}",
            mean(&intra),
            mean(&inter)
        );
    }

    #[test]
    fn bits_are_roughly_balanced() {
        // Each selected sinusoid crosses zero across the data range, so no
        // bit should be constant over the training set.
        let mut rng = StdRng::seed_from_u64(23);
        let (data, _) = blobs(&mut rng, 150, 5, 12, 1.0);
        let h = SpectralHasher::fit_vectors(&data, 24, 24);
        let codes = h.hash_all(&data);
        for bit in 0..24 {
            let ones = codes.iter().filter(|c| c.get(bit)).count();
            let frac = ones as f64 / codes.len() as f64;
            assert!(
                (0.02..=0.98).contains(&frac),
                "bit {bit} is ~constant ({frac})"
            );
        }
    }

    #[test]
    fn wide_directions_contribute_multiple_modes() {
        // One dominant direction (huge variance) should supply several of
        // the selected low-frequency modes.
        let mut rng = StdRng::seed_from_u64(8);
        let data: Vec<Vec<f64>> = (0..300)
            .map(|_| {
                vec![
                    rng.gen_range(-100.0..100.0), // dominant
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                ]
            })
            .collect();
        let h = SpectralHasher::fit_vectors(&data, 8, 3);
        // Hash two points that differ only along the dominant axis by a lot:
        // many bits must flip (several modes live on that axis).
        let a = h.hash(&[-90.0, 0.0, 0.0]);
        let b = h.hash(&[90.0, 0.0, 0.0]);
        assert!(a.hamming(&b) >= 3, "dominant axis got too few modes");
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn empty_training_panics() {
        SpectralHasher::fit_vectors::<Vec<f64>>(&[], 8, 8);
    }

    /// The scalar `hash` body the kernel replaced, kept as the oracle:
    /// centre into a fresh `Vec`, one `dot` per direction, libm `sin`
    /// per bit.
    fn reference_hash(h: &SpectralHasher, v: &[f64]) -> BinaryCode {
        let proj = reference_projection(&h.pca, v);
        let mut code = BinaryCode::zero(h.modes.len());
        for mode in &h.modes {
            let x = proj[mode.direction] - mode.lo;
            let phase = std::f64::consts::FRAC_PI_2 + mode.omega * x;
            if phase.sin() >= 0.0 {
                code.set(mode.bit, true);
            }
        }
        code
    }

    /// The projection `Pca::project` computed before the kernel.
    fn reference_projection(pca: &Pca, v: &[f64]) -> Vec<f64> {
        let mean = pca.projector().mean();
        let centred: Vec<f64> = v.iter().zip(mean).map(|(x, m)| x - m).collect();
        (0..pca.k())
            .map(|i| dot(pca.component(i), &centred))
            .collect()
    }

    fn assert_same_projection(pca: &Pca, v: &[f64]) {
        let bits = |xs: Vec<f64>| -> Vec<u64> {
            xs.iter()
                .map(|x| {
                    if x.is_nan() {
                        f64::NAN.to_bits()
                    } else {
                        x.to_bits()
                    }
                })
                .collect()
        };
        assert_eq!(bits(pca.project(v)), bits(reference_projection(pca, v)));
    }

    /// A random model of `d`-dimensional input and `l`-bit codes: unit
    /// (or, now and then, all-zero) directions, a random mean, random
    /// projected ranges of which some are degenerate (`hi <= lo`), and
    /// the modes `fit` would select over those ranges.
    fn random_model(rng: &mut StdRng, d: usize, l: usize) -> SpectralHasher {
        let k = rng.gen_range(1..=d.min(l));
        let mut components = Vec::with_capacity(k * d);
        for _ in 0..k {
            let mut row: Vec<f64> = (0..d).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let norm = dot(&row, &row).sqrt();
            let zero = rng.gen_bool(0.05);
            for x in &mut row {
                *x = if zero { 0.0 } else { *x / norm };
            }
            components.extend(row);
        }
        let scale = [1e-3, 1.0, 1e3][rng.gen_range(0..3usize)];
        let mean: Vec<f64> = (0..d).map(|_| scale * rng.gen_range(-10.0..10.0)).collect();
        let ranges: Vec<(f64, f64)> = (0..k)
            .map(|_| {
                let lo = scale * rng.gen_range(-20.0..0.0);
                let width = if rng.gen_bool(0.15) {
                    0.0
                } else {
                    scale * rng.gen_range(1e-3..40.0)
                };
                (lo, lo + width)
            })
            .collect();
        let pca = Pca::new(mean, Matrix::from_rows(k, d, components));
        SpectralHasher::from_ranges(pca, &ranges, l)
    }

    /// Inputs whose phase for `mode` lies within a few ulps of `kπ`: solve
    /// for the projection, bisect along the mode's direction to the two
    /// adjacent inputs whose computed phases straddle `kπ`, then step a
    /// few ulps to either side.
    fn near_crossings(h: &SpectralHasher, mode: &Mode, k: i32) -> Vec<Vec<f64>> {
        let pca = &h.pca;
        let crossing = k as f64 * std::f64::consts::PI;
        let target = mode.lo + (crossing - std::f64::consts::FRAC_PI_2) / mode.omega;
        let dir = pca.component(mode.direction);
        let mean = pca.projector().mean();
        let at = |s: f64| -> Vec<f64> { mean.iter().zip(dir).map(|(m, c)| m + s * c).collect() };
        // The computed phase of `at(s)`, relative to the crossing.
        let gap = |s: f64| {
            let x = reference_projection(pca, &at(s))[mode.direction] - mode.lo;
            std::f64::consts::FRAC_PI_2 + mode.omega * x - crossing
        };
        let width = 1e-6 * target.abs().max(1.0) + 1e-3 / mode.omega;
        let (mut below, mut above) = (target - width, target + width);
        if !(gap(below) < 0.0 && gap(above) > 0.0) {
            return vec![at(target)]; // an all-zero direction never crosses
        }
        loop {
            let mid = below + (above - below) / 2.0;
            if mid == below || mid == above {
                break;
            }
            if gap(mid) < 0.0 {
                below = mid;
            } else {
                above = mid;
            }
        }
        let mut s = below;
        for _ in 0..3 {
            s = s.next_down();
        }
        (0..8)
            .map(|_| {
                let v = at(s);
                s = s.next_up();
                v
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The kernel-driven `hash` ≡ the scalar reference, and
        /// `Pca::project` ≡ `dot`, on random models with d ∈ 1..=600 and
        /// L ∈ 1..=130 (so L > 64 and L > d both occur), over ordinary
        /// inputs, inputs below every `lo` (negative phases), `v == mean`,
        /// NaN / ±inf components, and inputs a few ulps from a crossing.
        #[test]
        fn hash_is_bit_identical_to_the_reference(
            d in 1usize..=600,
            l in 1usize..=130,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let h = random_model(&mut rng, d, l);
            let mean = h.pca.projector().mean().to_vec();
            let mut inputs = vec![mean.clone()];
            for _ in 0..3 {
                let spread: f64 = rng.gen_range(1e-3..1e3);
                inputs.push(mean.iter().map(|m| m + rng.gen_range(-spread..spread)).collect());
            }
            // Far below every direction's range: negative phases.
            inputs.push(mean.iter().map(|m| m - 1e4 * rng.gen_range(0.5..2.0)).collect());
            for special in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut v = mean.clone();
                v[rng.gen_range(0..d)] = special;
                inputs.push(v);
            }
            for _ in 0..3 {
                let mode = &h.modes[rng.gen_range(0..h.modes.len())];
                inputs.extend(near_crossings(&h, mode, rng.gen_range(-4..=6)));
            }
            for v in &inputs {
                prop_assert_eq!(h.hash(v), reference_hash(&h, v));
                assert_same_projection(&h.pca, v);
            }
        }
    }

    /// Inputs a few ulps either side of every zero crossing of every mode
    /// of a one-dimensional model whose projection is the input itself
    /// (unit direction, zero mean, `lo = 0`), so consecutive inputs move
    /// the phase by about one ulp: this is where reading the sign from
    /// the half-period parity could disagree with libm. Besides each
    /// mode's own crossings, `k = ±1023, ±1867` are crossings where
    /// `fl(kπ) · fl(1/π)` lands one ulp on the wrong side of `k`.
    #[test]
    fn phases_next_to_a_crossing_hash_like_the_reference() {
        for width in [1.0, 3.7, 1e-3, 250.0] {
            let pca = Pca::new(vec![0.0], Matrix::from_rows(1, 1, vec![1.0]));
            let h = SpectralHasher::from_ranges(pca, &[(0.0, width)], 48);
            for mode in &h.modes {
                let own = 1..=(mode.bit as i32 + 1);
                for k in own.chain([1023, 1867, -1023, -1867]) {
                    for v in near_crossings(&h, mode, k) {
                        assert_eq!(h.hash(&v), reference_hash(&h, &v), "width {width}, k {k}");
                    }
                }
            }
        }
    }

    /// Fitted models — the `mr_join` shape (64-d, L = 32), long codes over
    /// few dimensions (L = 100 > d = 16), and data with constant columns
    /// (degenerate directions) — hash every training row and a shifted
    /// copy exactly as the reference does.
    #[test]
    fn fitted_models_hash_like_the_reference() {
        let mut rng = StdRng::seed_from_u64(41);
        for (dim, code_len, constant) in [(64, 32, 0), (16, 100, 0), (12, 40, 5)] {
            let (mut data, _) = blobs(&mut rng, 60, 5, dim, 1.5);
            for v in &mut data {
                v[..constant].fill(3.0);
            }
            let h = SpectralHasher::fit_vectors(&data, code_len, code_len);
            for v in &data {
                assert_eq!(h.hash(v), reference_hash(&h, v));
                let shifted: Vec<f64> = v.iter().map(|x| x * 1.5 - 4.0).collect();
                assert_eq!(h.hash(&shifted), reference_hash(&h, &shifted));
                assert_same_projection(&h.pca, v);
            }
        }
    }

    /// FNV-1a over the eigenvalues PCA finds on the training rows, a
    /// model's every shipped number and the codes it gives its training
    /// rows.
    fn model_digest(h: &SpectralHasher, data: &[Vec<f64>]) -> u64 {
        let training = Matrix::from_rows(data.len(), data[0].len(), data.concat());
        let (_, eigenvalues) = Pca::fit_with_eigenvalues(&training, h.pca.k());
        let mut words: Vec<u64> = vec![h.approx_bytes() as u64];
        words.extend(eigenvalues.iter().map(|x| x.to_bits()));
        words.extend(h.pca.projector().mean().iter().map(|x| x.to_bits()));
        for i in 0..h.pca.k() {
            words.extend(h.pca.component(i).iter().map(|x| x.to_bits()));
        }
        let mut modes: Vec<&Mode> = h.modes.iter().collect();
        modes.sort_by_key(|m| m.bit);
        for m in modes {
            words.extend([m.direction as u64, m.omega.to_bits(), m.lo.to_bits()]);
        }
        for v in data {
            words.extend(h.hash(v).words());
        }
        words.iter().fold(0xcbf2_9ce4_8422_2325, |acc, w| {
            w.to_le_bytes()
                .iter()
                .fold(acc, |a, &b| (a ^ b as u64).wrapping_mul(0x0100_0000_01b3))
        })
    }

    /// `fit_vectors` over owned rows, over borrowed rows (what
    /// `preprocess` passes) and over a flat matrix fits one model, and it
    /// is the model the scalar encoder fitted: eigenvalues, mean,
    /// components, modes, `approx_bytes` and codes match digests recorded
    /// before the projection kernel existed.
    #[test]
    fn fitted_model_is_pinned() {
        for (seed, dim, code_len, golden) in
            [(5, 64, 32, GOLDEN_64X32), (6, 16, 100, GOLDEN_16X100)]
        {
            let mut rng = StdRng::seed_from_u64(seed);
            let (data, _) = blobs(&mut rng, 100, 4, dim, 2.0);
            let owned = SpectralHasher::fit_vectors(&data, code_len, code_len);
            let borrowed: Vec<&Vec<f64>> = data.iter().collect();
            let borrowed = SpectralHasher::fit_vectors(&borrowed, code_len, code_len);
            let flat = Matrix::from_rows(data.len(), dim, data.concat());
            let flat = SpectralHasher::fit(&flat, code_len, code_len);
            for h in [&owned, &borrowed, &flat] {
                assert_eq!(h.approx_bytes(), owned.approx_bytes());
                assert_eq!(model_digest(h, &data), golden, "{dim}-d, {code_len} bits");
            }
        }
    }

    /// [`model_digest`]s recorded with the scalar encoder (libm `sin`,
    /// allocating `Pca::project`).
    const GOLDEN_64X32: u64 = 0xeae9_b33f_953b_1f43;
    const GOLDEN_16X100: u64 = 0xa4bb_d198_1e3e_ad74;

    /// Phases within a few ulps of kπ (both signs, small and large k),
    /// `±0`, the integral range and non-finite values: the parity test
    /// agrees with libm's sign everywhere.
    #[test]
    fn sign_parity_matches_sin_next_to_every_crossing() {
        let mut checked = 0;
        let mut check = |phase: f64| {
            assert_eq!(sin_nonneg(phase), phase.sin() >= 0.0, "phase {phase:e}");
            checked += 1;
        };
        for k in (-2000i64..=2000).chain([1 << 20, 1 << 30, 1 << 40, -(1 << 45)]) {
            let centre = k as f64 * std::f64::consts::PI;
            for ulps in -6i64..=6 {
                let bits = centre.to_bits() as i64 + ulps * centre.signum() as i64;
                check(f64::from_bits(bits as u64));
            }
        }
        for phase in [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            1e-300,
            std::f64::consts::FRAC_PI_2,
            1e16,
            -1e16,
            4.5e15 * std::f64::consts::PI,
            1e300,
            f64::MAX,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            check(phase);
        }
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..20_000 {
            check(rng.gen_range(-1e4..1e4));
        }
        assert!(checked > 70_000);
    }
}
