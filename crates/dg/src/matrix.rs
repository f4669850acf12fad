//! Small dense row-major matrices for spectral operators.
//!
//! Element-local operators (differentiation, interpolation, mortar
//! projection) are tiny — `(N+1) x (N+1)` for degrees up to ~8 — so a plain
//! row-major `Vec<f64>` with straightforward loops is both simple and fast
//! (everything fits in L1).

/// Dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Row-major storage, `rows * cols` entries.
    pub data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Wrap an existing row-major buffer.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols);
        Matrix { rows, cols, data }
    }

    /// Matrix-vector product.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// Matrix-vector product into a caller-owned buffer. `out.len()` must
    /// equal `rows`; results are bitwise identical to
    /// [`matvec`](Self::matvec).
    pub fn matvec_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.cols);
        assert_eq!(out.len(), self.rows);
        for i in 0..self.rows {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            out[i] = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
    }

    /// Matrix product `self * other`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows);
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out.data[i * other.cols + j] += a * other.data[k * other.cols + j];
                }
            }
        }
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matvec_and_matmul() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.matvec(&[1.0, 0.0, -1.0]), vec![-2.0, -2.0]);
        let b = a.transpose();
        let c = a.matmul(&b); // 2x2: [[14, 32], [32, 77]]
        assert_eq!(c.data, vec![14.0, 32.0, 32.0, 77.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let a = Matrix::from_vec(2, 2, vec![3.0, -1.0, 2.0, 5.0]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }
}
