//! A small dense row-major matrix — just enough linear algebra for PCA.
//!
//! Deliberately minimal: the only consumer is PCA ([`crate::pca`]): the
//! covariance and the Jacobi / subspace eigensolvers. Projection has its
//! own kernel, bit-identical to the scalar dot product the tests keep
//! as its reference. Pulling in a
//! full linear-algebra crate for a d×d covariance (d ≤ 512 in every
//! experiment) would be the heavier choice.

use std::fmt;

/// Dense row-major `rows × cols` matrix of `f64`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds from row-major data.
    ///
    /// # Panics
    /// If `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The whole matrix, row-major.
    pub(crate) fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    /// If `self.cols() != rhs.rows()`.
    pub(crate) fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "inner dimensions must agree");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        // i-k-j loop order: streams over `rhs` rows for cache friendliness.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let rhs_row = rhs.row(k);
                let out_row =
                    &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Column means of a data matrix (rows = samples).
    pub(crate) fn col_means(&self) -> Vec<f64> {
        let mut means = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (m, &x) in means.iter_mut().zip(self.row(r)) {
                *m += x;
            }
        }
        let n = self.rows as f64;
        for m in &mut means {
            *m /= n;
        }
        means
    }

    /// Sample covariance matrix of a data matrix (rows = samples,
    /// divisor `n - 1`; falls back to `n` for a single sample).
    pub fn covariance(&self) -> Matrix {
        let means = self.col_means();
        let d = self.cols;
        let mut cov = Matrix::zeros(d, d);
        for r in 0..self.rows {
            let row = self.row(r);
            for i in 0..d {
                let di = row[i] - means[i];
                if di == 0.0 {
                    continue;
                }
                let cov_row = &mut cov.data[i * d..(i + 1) * d];
                for j in i..d {
                    cov_row[j] += di * (row[j] - means[j]);
                }
            }
        }
        let denom = if self.rows > 1 { self.rows - 1 } else { 1 } as f64;
        for i in 0..d {
            for j in i..d {
                let v = cov[(i, j)] / denom;
                cov[(i, j)] = v;
                cov[(j, i)] = v;
            }
        }
        cov
    }

    /// Maximum absolute off-diagonal element (Jacobi convergence check).
    pub(crate) fn max_off_diagonal(&self) -> f64 {
        assert_eq!(self.rows, self.cols);
        let mut max = 0.0f64;
        for i in 0..self.rows {
            for j in 0..self.cols {
                if i != j {
                    max = max.max(self[(i, j)].abs());
                }
            }
        }
        max
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:10.4} ", self[(r, c)])?;
            }
            writeln!(f, "{}", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

/// Dot product of equal-length slices: the scalar reference the
/// projection kernel's tests compare against.
#[cfg(test)]
pub(crate) fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
impl Matrix {
    /// Copy column `c` out as a vector.
    pub(crate) fn col(&self, c: usize) -> Vec<f64> {
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Matrix transpose.
    pub(crate) fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Matrix–vector product.
    pub(crate) fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, v.len(), "dimension mismatch");
        (0..self.rows)
            .map(|r| dot(self.row(r), v))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_matmul_neutral() {
        let a = Matrix::from_rows(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let i2 = Matrix::identity(2);
        let i3 = Matrix::identity(3);
        assert_eq!(i2.matmul(&a), a);
        assert_eq!(a.matmul(&i3), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_rows(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = a.matmul(&b);
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_rows(2, 3, vec![1.0, 0.0, -1.0, 2.0, 1.0, 0.0]);
        let v = vec![3.0, 4.0, 5.0];
        assert_eq!(a.matvec(&v), vec![-2.0, 10.0]);
    }

    #[test]
    fn covariance_of_perfectly_correlated_columns() {
        // y = 2x → cov = [[var(x), 2var(x)], [2var(x), 4var(x)]].
        let data = Matrix::from_rows(4, 2, vec![
            1.0, 2.0, //
            2.0, 4.0, //
            3.0, 6.0, //
            4.0, 8.0,
        ]);
        let cov = data.covariance();
        let var_x = cov[(0, 0)];
        assert!((var_x - 5.0 / 3.0).abs() < 1e-12);
        assert!((cov[(0, 1)] - 2.0 * var_x).abs() < 1e-12);
        assert!((cov[(1, 1)] - 4.0 * var_x).abs() < 1e-12);
        assert_eq!(cov[(0, 1)], cov[(1, 0)]);
    }

    #[test]
    fn col_means() {
        let data = Matrix::from_rows(3, 2, vec![1.0, 10.0, 2.0, 20.0, 3.0, 30.0]);
        assert_eq!(data.col_means(), vec![2.0, 20.0]);
    }

    #[test]
    fn max_off_diagonal_ignores_diagonal() {
        let m = Matrix::from_rows(2, 2, vec![100.0, -3.0, 2.0, 50.0]);
        assert_eq!(m.max_off_diagonal(), 3.0);
    }
}
