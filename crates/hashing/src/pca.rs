//! Principal component analysis via the cyclic Jacobi eigenvalue method.
//!
//! Spectral Hashing needs the top principal directions of the (sampled)
//! data. Covariance matrices here are symmetric and small (d ≤ 512), which
//! is exactly the regime where the Jacobi method is simple, numerically
//! robust, and fast enough: each sweep rotates away every off-diagonal
//! element once, and a handful of sweeps reaches machine precision.

use crate::matrix::Matrix;
use crate::project::{Projector, BLOCK};

/// Convergence threshold on the largest absolute off-diagonal element.
const JACOBI_EPS: f64 = 1e-10;

/// Safety cap on Jacobi sweeps; symmetric matrices converge way earlier.
const MAX_SWEEPS: usize = 64;

/// A fitted PCA model: mean vector plus the top-`k` principal directions.
#[derive(Clone, Debug)]
pub struct Pca {
    /// `k × d`: row `i` is the i-th principal direction (unit norm),
    /// ordered by descending eigenvalue.
    components: Matrix,
    /// The mean and `components`, transposed for the projection kernel.
    /// Derived at fit, so it adds nothing to what a fitted model ships.
    projector: Projector,
}

impl Pca {
    /// Fits PCA on `data` (rows = samples, columns = features), keeping the
    /// `k` directions of largest variance.
    ///
    /// # Panics
    /// If `data` has no rows or `k` is zero or exceeds the dimensionality.
    pub fn fit(data: &Matrix, k: usize) -> Self {
        Self::fit_with_eigenvalues(data, k).0
    }

    /// [`Pca::fit`], also returning the eigenvalues (variances,
    /// descending) of the retained directions. The model keeps no
    /// eigenvalues, since no encoder reads them; the tests pin the
    /// eigensolvers through this.
    pub(crate) fn fit_with_eigenvalues(data: &Matrix, k: usize) -> (Self, Vec<f64>) {
        assert!(data.rows() > 0, "PCA needs at least one sample");
        let d = data.cols();
        assert!(k >= 1 && k <= d, "k must be in 1..=d");
        let (mean, cov) = {
            let _span = ha_obs::span("hashing.fit.covariance");
            (data.col_means(), data.covariance())
        };

        let _span = ha_obs::span("hashing.fit.eigen");
        // Full Jacobi costs O(d³) per sweep; when only a thin slice of the
        // spectrum is needed (the common hashing case: k = code length ≪
        // feature dimension), subspace iteration gets the top-k in
        // O(d²·k·iters) — over an order of magnitude faster at d = 512.
        let (eigenvalues, vectors) = if k * 4 <= d {
            subspace_eigen(&cov, k)
        } else {
            jacobi_eigen(&cov)
        };

        // Sort eigenpairs by descending eigenvalue.
        let mut order: Vec<usize> = (0..eigenvalues.len()).collect();
        order.sort_by(|&a, &b| eigenvalues[b].total_cmp(&eigenvalues[a]));

        let mut components = Matrix::zeros(k, d);
        let mut top_values = Vec::with_capacity(k);
        for (row, &idx) in order.iter().take(k).enumerate() {
            top_values.push(eigenvalues[idx]);
            for c in 0..d {
                components[(row, c)] = vectors[(c, idx)];
            }
        }
        (Pca::new(mean, components), top_values)
    }

    /// Assembles a model from its parts, deriving the kernel's layout.
    pub(crate) fn new(mean: Vec<f64>, components: Matrix) -> Self {
        let projector = Projector::new(components.as_slice(), components.cols(), mean);
        Pca {
            components,
            projector,
        }
    }

    /// Number of retained components.
    pub fn k(&self) -> usize {
        self.components.rows()
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.components.cols()
    }

    /// The i-th principal direction (unit norm).
    pub fn component(&self, i: usize) -> &[f64] {
        self.components.row(i)
    }

    /// The projection kernel over this model's centred directions.
    pub(crate) fn projector(&self) -> &Projector {
        &self.projector
    }

    /// Projects a vector onto the retained components (centred).
    ///
    /// # Panics
    /// If `v.len() != self.dim()`.
    pub fn project(&self, v: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.k());
        self.project_onto(v, &mut out);
        out
    }

    /// Projects every row of a data matrix; returns an `n × k` matrix.
    pub fn project_all(&self, data: &Matrix) -> Matrix {
        let mut out = Vec::with_capacity(data.rows() * self.k());
        for r in 0..data.rows() {
            self.project_onto(data.row(r), &mut out);
        }
        Matrix::from_rows(data.rows(), self.k(), out)
    }

    /// Appends the `k` projections of `v` to `out`.
    fn project_onto(&self, v: &[f64], out: &mut Vec<f64>) {
        let k = self.k();
        self.projector.fold(v, out, |out, j0, block| {
            out.extend_from_slice(&block[..(k - j0).min(BLOCK)]);
            out
        });
    }
}

/// Full eigendecomposition of a symmetric matrix by the cyclic Jacobi
/// method. Returns `(eigenvalues, eigenvectors)` with eigenvector `i`
/// stored in *column* `i` (unsorted).
fn jacobi_eigen(sym: &Matrix) -> (Vec<f64>, Matrix) {
    assert_eq!(sym.rows(), sym.cols(), "matrix must be square");
    let n = sym.rows();
    let mut a = sym.clone();
    let mut v = Matrix::identity(n);

    for _sweep in 0..MAX_SWEEPS {
        if a.max_off_diagonal() < JACOBI_EPS {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = a[(p, q)];
                if apq.abs() < JACOBI_EPS {
                    continue;
                }
                // Classic Jacobi rotation that zeroes a[(p, q)].
                let app = a[(p, p)];
                let aqq = a[(q, q)];
                let theta = (aqq - app) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;

                for k in 0..n {
                    let akp = a[(k, p)];
                    let akq = a[(k, q)];
                    a[(k, p)] = c * akp - s * akq;
                    a[(k, q)] = s * akp + c * akq;
                }
                for k in 0..n {
                    let apk = a[(p, k)];
                    let aqk = a[(q, k)];
                    a[(p, k)] = c * apk - s * aqk;
                    a[(q, k)] = s * apk + c * aqk;
                }
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }

    let eigenvalues = (0..n).map(|i| a[(i, i)]).collect();
    (eigenvalues, v)
}

/// Top-`k` eigenpairs of a symmetric positive-semidefinite matrix by
/// orthogonal (subspace) iteration: repeatedly multiply an orthonormal
/// `d × k` block by the matrix and re-orthonormalize. Returns
/// `(eigenvalues, eigenvectors)` with eigenvector `i` in column `i`
/// (unsorted, like [`jacobi_eigen`]).
fn subspace_eigen(sym: &Matrix, k: usize) -> (Vec<f64>, Matrix) {
    assert_eq!(sym.rows(), sym.cols(), "matrix must be square");
    let d = sym.rows();
    assert!(k >= 1 && k <= d);
    // Deterministic full-rank start: unit vectors tilted off-axis so no
    // column is accidentally orthogonal to a leading eigenvector.
    let mut z = Matrix::zeros(d, k);
    for j in 0..k {
        for i in 0..d {
            // A fixed quasi-random pattern (no RNG: PCA must be a pure
            // function of the data).
            let x = ((i * 31 + j * 17 + 7) % 101) as f64 / 101.0 - 0.5;
            z[(i, j)] = x + if i == j { 1.0 } else { 0.0 };
        }
    }
    orthonormalize(&mut z);
    let mut prev_trace = f64::NEG_INFINITY;
    // Hash-quality eigenvectors don't need machine precision: a 1e-7
    // relative stall on the captured variance flips no code bits, and
    // every saved iteration is two d²·k multiplies.
    for _iter in 0..100 {
        // One multiply serves both the iteration step and the convergence
        // check (trace of the Rayleigh block = captured variance).
        let mut az = sym.matmul(&z);
        let trace: f64 = (0..k)
            .map(|j| (0..d).map(|i| z[(i, j)] * az[(i, j)]).sum::<f64>())
            .sum();
        let converged = (trace - prev_trace).abs() <= 1e-7 * trace.abs().max(1e-12);
        prev_trace = trace;
        orthonormalize(&mut az);
        z = az;
        if converged {
            break;
        }
    }
    // Rayleigh quotients as eigenvalue estimates.
    let az = sym.matmul(&z);
    let eigenvalues: Vec<f64> = (0..k)
        .map(|j| (0..d).map(|i| z[(i, j)] * az[(i, j)]).sum::<f64>())
        .collect();
    (eigenvalues, z)
}

/// In-place modified Gram–Schmidt on the columns. Degenerate columns are
/// replaced with fresh unit vectors to keep the block full rank.
fn orthonormalize(m: &mut Matrix) {
    let (d, k) = (m.rows(), m.cols());
    for j in 0..k {
        // Up to two attempts: if the column collapses (it was linearly
        // dependent on its predecessors), re-seed and orthonormalize the
        // fresh vector too.
        for attempt in 0..2 {
            for prev in 0..j {
                let dot_jp: f64 = (0..d).map(|i| m[(i, j)] * m[(i, prev)]).sum();
                for i in 0..d {
                    m[(i, j)] -= dot_jp * m[(i, prev)];
                }
            }
            let norm: f64 = (0..d).map(|i| m[(i, j)] * m[(i, j)]).sum::<f64>().sqrt();
            if norm > 1e-12 {
                for i in 0..d {
                    m[(i, j)] /= norm;
                }
                break;
            }
            assert!(attempt == 0, "orthonormalize: rank collapse persisted");
            for i in 0..d {
                m[(i, j)] = if (i + j) % d == 0 { 1.0 } else { 0.0 };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::dot;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn assert_close(a: f64, b: f64, eps: f64) {
        assert!((a - b).abs() < eps, "{a} != {b} (eps {eps})");
    }

    #[test]
    fn jacobi_diagonalizes_known_matrix() {
        // Eigenvalues of [[2,1],[1,2]] are 3 and 1.
        let m = Matrix::from_rows(2, 2, vec![2.0, 1.0, 1.0, 2.0]);
        let (mut vals, _) = jacobi_eigen(&m);
        vals.sort_by(f64::total_cmp);
        assert_close(vals[0], 1.0, 1e-9);
        assert_close(vals[1], 3.0, 1e-9);
    }

    #[test]
    fn jacobi_eigenvectors_satisfy_definition() {
        let m = Matrix::from_rows(3, 3, vec![
            4.0, 1.0, 0.5, //
            1.0, 3.0, 0.2, //
            0.5, 0.2, 2.0,
        ]);
        let (vals, vecs) = jacobi_eigen(&m);
        for (i, val) in vals.iter().enumerate() {
            let x = vecs.col(i);
            let mx = m.matvec(&x);
            for j in 0..3 {
                assert_close(mx[j], val * x[j], 1e-8);
            }
            // Unit norm.
            assert_close(dot(&x, &x), 1.0, 1e-9);
        }
    }

    #[test]
    fn jacobi_handles_already_diagonal() {
        let m = Matrix::from_rows(2, 2, vec![5.0, 0.0, 0.0, -2.0]);
        let (vals, vecs) = jacobi_eigen(&m);
        assert_eq!(vals, vec![5.0, -2.0]);
        assert_eq!(vecs, Matrix::identity(2));
    }

    #[test]
    fn pca_finds_dominant_direction() {
        // Points along the diagonal y = x with small noise: first PC must be
        // ±(1,1)/√2 and explain almost all variance.
        let mut rng = StdRng::seed_from_u64(1);
        let n = 500;
        let mut data = Vec::with_capacity(n * 2);
        for _ in 0..n {
            let t: f64 = rng.gen_range(-10.0..10.0);
            let noise: f64 = rng.gen_range(-0.1..0.1);
            data.push(t + noise);
            data.push(t - noise);
        }
        let m = Matrix::from_rows(n, 2, data);
        let (pca, eigenvalues) = Pca::fit_with_eigenvalues(&m, 2);
        let c0 = pca.component(0);
        let s = std::f64::consts::FRAC_1_SQRT_2;
        assert!(
            (c0[0].abs() - s).abs() < 0.01 && (c0[1].abs() - s).abs() < 0.01,
            "first PC {c0:?} should be ±(1,1)/√2"
        );
        assert!(c0[0].signum() == c0[1].signum(), "components aligned");
        assert!(eigenvalues[0] > 100.0 * eigenvalues[1]);
    }

    #[test]
    fn pca_projection_is_centred() {
        let m = Matrix::from_rows(4, 2, vec![
            0.0, 10.0, //
            2.0, 10.0, //
            0.0, 12.0, //
            2.0, 12.0,
        ]);
        let pca = Pca::fit(&m, 2);
        // Projections of all samples must average to ~0 per component.
        let proj = pca.project_all(&m);
        for c in 0..2 {
            let mean: f64 = (0..4).map(|r| proj[(r, c)]).sum::<f64>() / 4.0;
            assert_close(mean, 0.0, 1e-12);
        }
    }

    #[test]
    fn pca_preserves_pairwise_distances_under_full_rank() {
        // With k = d, PCA is a rigid rotation: pairwise distances survive.
        let mut rng = StdRng::seed_from_u64(9);
        let n = 20;
        let d = 5;
        let data: Vec<f64> = (0..n * d).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let m = Matrix::from_rows(n, d, data);
        let pca = Pca::fit(&m, d);
        let p = pca.project_all(&m);
        for i in 0..n {
            for j in (i + 1)..n {
                let orig: f64 = (0..d)
                    .map(|c| (m[(i, c)] - m[(j, c)]).powi(2))
                    .sum::<f64>()
                    .sqrt();
                let proj: f64 = (0..d)
                    .map(|c| (p[(i, c)] - p[(j, c)]).powi(2))
                    .sum::<f64>()
                    .sqrt();
                assert_close(orig, proj, 1e-8);
            }
        }
    }

    #[test]
    fn pca_moderate_dimension_converges() {
        let mut rng = StdRng::seed_from_u64(4);
        let n = 200;
        let d = 40;
        let data: Vec<f64> = (0..n * d).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let m = Matrix::from_rows(n, d, data);
        let (pca, eigenvalues) = Pca::fit_with_eigenvalues(&m, 8);
        assert_eq!(pca.k(), 8);
        // Eigenvalues descend.
        for w in eigenvalues.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
    }
}

#[cfg(test)]
mod subspace_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Random symmetric PSD matrix with a known dominant structure.
    fn random_psd(d: usize, rng: &mut StdRng) -> Matrix {
        let mut b = Matrix::zeros(d, d);
        for i in 0..d {
            for j in 0..d {
                b[(i, j)] = rng.gen_range(-1.0..1.0);
            }
        }
        b.transpose().matmul(&b)
    }

    #[test]
    fn subspace_matches_jacobi_on_top_eigenpairs() {
        let mut rng = StdRng::seed_from_u64(77);
        let d = 24;
        let k = 4;
        let m = random_psd(d, &mut rng);
        let (sub_vals, sub_vecs) = subspace_eigen(&m, k);
        let (mut jac_vals, _) = jacobi_eigen(&m);
        jac_vals.sort_by(|a, b| b.total_cmp(a));
        let mut sub_sorted = sub_vals.clone();
        sub_sorted.sort_by(|a, b| b.total_cmp(a));
        for i in 0..k {
            let rel = (sub_sorted[i] - jac_vals[i]).abs() / jac_vals[i].abs().max(1e-12);
            assert!(rel < 1e-4, "eigenvalue {i}: {} vs {}", sub_sorted[i], jac_vals[i]);
        }
        // Residual check: ‖A v − λ v‖ small for each returned pair.
        for (j, lambda) in sub_vals.iter().enumerate() {
            let v = sub_vecs.col(j);
            let av = m.matvec(&v);
            let resid: f64 = av
                .iter()
                .zip(&v)
                .map(|(a, x)| (a - lambda * x).powi(2))
                .sum::<f64>()
                .sqrt();
            // Subspace iteration stops at hash-quality precision
            // (1e-7 trace stall), so allow a proportionate residual.
            assert!(resid < 1e-2 * lambda.abs().max(1.0), "residual {resid}");
        }
    }

    #[test]
    fn subspace_columns_orthonormal() {
        let mut rng = StdRng::seed_from_u64(78);
        let m = random_psd(30, &mut rng);
        let (_, vecs) = subspace_eigen(&m, 6);
        for a in 0..6 {
            for b in 0..6 {
                let dot: f64 = (0..30).map(|i| vecs[(i, a)] * vecs[(i, b)]).sum();
                let want = if a == b { 1.0 } else { 0.0 };
                assert!((dot - want).abs() < 1e-8, "({a},{b}) dot {dot}");
            }
        }
    }

    #[test]
    fn pca_dispatches_to_subspace_for_thin_k() {
        // d = 64, k = 8 → subspace path; results must still satisfy the
        // PCA contract (descending eigenvalues, unit components).
        let mut rng = StdRng::seed_from_u64(79);
        let n = 300;
        let d = 64;
        let data: Vec<f64> = (0..n * d).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let m = Matrix::from_rows(n, d, data);
        let (pca, eigenvalues) = Pca::fit_with_eigenvalues(&m, 8);
        for w in eigenvalues.windows(2) {
            assert!(w[0] >= w[1] - 1e-9);
        }
        for j in 0..8 {
            let c = pca.component(j);
            let norm: f64 = c.iter().map(|x| x * x).sum::<f64>().sqrt();
            assert!((norm - 1.0).abs() < 1e-8);
        }
    }
}
