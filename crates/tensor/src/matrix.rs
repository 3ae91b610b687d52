//! The [`Matrix`] type: a row-major dense `f32` matrix with shape-checked constructors and
//! element accessors. Numeric operations live in [`crate::ops`].

use crate::error::TensorError;
use crate::random::Rng;
use crate::Result;

/// A dense, row-major matrix of `f32` values.
///
/// This is the only tensor type in the workspace: the paper's networks operate on 2-D inputs
/// (`[maxT, feature_dim]` state matrices, `[n, d]` weight matrices), so a single 2-D type with
/// explicit shapes keeps the autograd layer simple. Vectors are represented as `1 x n` or
/// `n x 1` matrices.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix filled with ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Matrix::filled(rows, cols, 1.0)
    }

    /// Creates a matrix filled with a constant value.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a matrix from a row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidBuffer`] when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(TensorError::InvalidBuffer {
                rows,
                cols,
                len: data.len(),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix from nested row slices. All rows must have equal length.
    pub fn from_rows(rows: &[Vec<f32>]) -> Result<Self> {
        if rows.is_empty() {
            return Ok(Matrix::zeros(0, 0));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(TensorError::InvalidBuffer {
                    rows: rows.len(),
                    cols,
                    len: r.len(),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Creates a `1 x n` row vector.
    pub fn row_vector(values: &[f32]) -> Self {
        Matrix {
            rows: 1,
            cols: values.len(),
            data: values.to_vec(),
        }
    }

    /// Creates an `n x 1` column vector.
    pub fn col_vector(values: &[f32]) -> Self {
        Matrix {
            rows: values.len(),
            cols: 1,
            data: values.to_vec(),
        }
    }

    /// Creates an identity matrix of side `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a matrix with entries drawn from the standard normal distribution.
    pub fn randn(rows: usize, cols: usize, rng: &mut Rng) -> Self {
        let data = (0..rows * cols).map(|_| rng.normal(0.0, 1.0)).collect();
        Matrix { rows, cols, data }
    }

    /// Creates a matrix with entries drawn uniformly from `[lo, hi)`.
    pub fn rand_uniform(rows: usize, cols: usize, lo: f32, hi: f32, rng: &mut Rng) -> Self {
        let data = (0..rows * cols).map(|_| rng.uniform(lo, hi)).collect();
        Matrix { rows, cols, data }
    }

    /// Xavier/Glorot uniform initialisation for a weight matrix of shape `fan_in x fan_out`.
    pub fn xavier(fan_in: usize, fan_out: usize, rng: &mut Rng) -> Self {
        let bound = (6.0 / (fan_in as f32 + fan_out as f32)).sqrt();
        Matrix::rand_uniform(fan_in, fan_out, -bound, bound, rng)
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the row-major backing buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the row-major backing buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at `(r, c)` without bounds checking beyond debug assertions.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Checked element access.
    pub fn try_get(&self, r: usize, c: usize) -> Result<f32> {
        if r >= self.rows {
            return Err(TensorError::IndexOutOfBounds {
                op: "try_get(row)",
                index: r,
                bound: self.rows,
            });
        }
        if c >= self.cols {
            return Err(TensorError::IndexOutOfBounds {
                op: "try_get(col)",
                index: c,
                bound: self.cols,
            });
        }
        Ok(self.get(r, c))
    }

    /// Immutable slice of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable slice of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        let cols = self.cols;
        &mut self.data[r * cols..(r + 1) * cols]
    }

    /// Copies column `c` into a new vector.
    pub fn col(&self, c: usize) -> Vec<f32> {
        debug_assert!(c < self.cols);
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Replaces row `r` with `values`.
    ///
    /// # Errors
    ///
    /// Returns an error if `values.len() != cols` or `r` is out of bounds.
    pub fn set_row(&mut self, r: usize, values: &[f32]) -> Result<()> {
        if r >= self.rows {
            return Err(TensorError::IndexOutOfBounds {
                op: "set_row",
                index: r,
                bound: self.rows,
            });
        }
        if values.len() != self.cols {
            return Err(TensorError::InvalidBuffer {
                rows: 1,
                cols: self.cols,
                len: values.len(),
            });
        }
        self.row_mut(r).copy_from_slice(values);
        Ok(())
    }

    /// Fills every entry with `value`.
    pub fn fill(&mut self, value: f32) {
        for v in &mut self.data {
            *v = value;
        }
    }

    /// Returns an iterator over `(row, col, value)` triples in row-major order.
    pub fn iter_indexed(&self) -> impl Iterator<Item = (usize, usize, f32)> + '_ {
        let cols = self.cols;
        self.data
            .iter()
            .enumerate()
            .map(move |(i, &v)| (i / cols, i % cols, v))
    }

    /// True when every element is finite (no NaN / infinity). Useful for training sanity checks.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

impl std::fmt::Display for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(10) {
                write!(f, "{:8.4}", self.get(r, c))?;
                if c + 1 < self.cols.min(10) {
                    write!(f, ", ")?;
                }
            }
            if self.cols > 10 {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

/// Checkpoint format: `rows` and `cols` as `u64`, then the `rows·cols` elements of the
/// row-major buffer as raw IEEE-754 bits (no extra length prefix — the count is implied
/// by the shape). Raw bits make the roundtrip bit-exact for every value, NaNs included.
impl crowd_ckpt::SaveState for Matrix {
    fn save_state(&self, w: &mut crowd_ckpt::StateWriter) {
        w.put_usize(self.rows);
        w.put_usize(self.cols);
        for &v in &self.data {
            w.put_f32(v);
        }
    }
}

impl crowd_ckpt::DecodeState for Matrix {
    fn decode_state(r: &mut crowd_ckpt::StateReader<'_>) -> crowd_ckpt::Result<Self> {
        let rows = r.take_usize()?;
        let cols = r.take_usize()?;
        let len = rows
            .checked_mul(cols)
            .filter(|n| n.checked_mul(4).is_some_and(|bytes| bytes <= r.remaining()))
            .ok_or_else(|| crowd_ckpt::CkptError::Corrupt {
                what: "matrix shape",
                detail: format!("{rows}x{cols} elements exceed the bytes remaining"),
            })?;
        let mut data = Vec::with_capacity(len);
        for _ in 0..len {
            data.push(r.take_f32()?);
        }
        Ok(Matrix { rows, cols, data })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_roundtrip_is_bit_exact() {
        use crowd_ckpt::{DecodeState, SaveState, StateReader, StateWriter};
        let mut rng = Rng::seed_from(77);
        let mut m = Matrix::randn(5, 3, &mut rng);
        m.set(0, 0, f32::NAN);
        m.set(1, 2, -0.0);
        let mut w = StateWriter::new();
        m.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        let back = Matrix::decode_state(&mut r).unwrap();
        r.finish("matrix").unwrap();
        assert_eq!(back.shape(), m.shape());
        for (a, b) in m.as_slice().iter().zip(back.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // A corrupt shape whose element count exceeds the payload is a typed error.
        let mut w = StateWriter::new();
        w.put_usize(1_000_000);
        w.put_usize(1_000_000);
        let bytes = w.into_bytes();
        assert!(Matrix::decode_state(&mut StateReader::new(&bytes)).is_err());
    }

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn filled_and_ones() {
        assert_eq!(Matrix::ones(2, 2).as_slice(), &[1.0; 4]);
        assert_eq!(Matrix::filled(1, 3, 2.5).as_slice(), &[2.5, 2.5, 2.5]);
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]).is_err());
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(m.get(1, 0), 3.0);
    }

    #[test]
    fn from_rows_requires_rectangular() {
        let ok = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(ok.shape(), (2, 2));
        let bad = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]);
        assert!(bad.is_err());
    }

    #[test]
    fn identity_diagonal() {
        let id = Matrix::identity(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(id.get(r, c), if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn row_and_col_accessors() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(2), vec![3.0, 6.0]);
    }

    #[test]
    fn set_row_validates() {
        let mut m = Matrix::zeros(2, 2);
        assert!(m.set_row(0, &[1.0, 2.0]).is_ok());
        assert!(m.set_row(0, &[1.0]).is_err());
        assert!(m.set_row(5, &[1.0, 2.0]).is_err());
        assert_eq!(m.row(0), &[1.0, 2.0]);
    }

    #[test]
    fn try_get_bounds() {
        let m = Matrix::zeros(2, 2);
        assert!(m.try_get(1, 1).is_ok());
        assert!(m.try_get(2, 0).is_err());
        assert!(m.try_get(0, 2).is_err());
    }

    #[test]
    fn random_constructors_are_deterministic_under_seed() {
        let mut r1 = Rng::seed_from(7);
        let mut r2 = Rng::seed_from(7);
        assert_eq!(Matrix::randn(3, 3, &mut r1), Matrix::randn(3, 3, &mut r2));
    }

    #[test]
    fn xavier_bound() {
        let mut rng = Rng::seed_from(1);
        let m = Matrix::xavier(100, 100, &mut rng);
        let bound = (6.0f32 / 200.0).sqrt();
        assert!(m.as_slice().iter().all(|v| v.abs() <= bound));
    }

    #[test]
    fn vectors_and_fill() {
        let rv = Matrix::row_vector(&[1.0, 2.0]);
        assert_eq!(rv.shape(), (1, 2));
        let cv = Matrix::col_vector(&[1.0, 2.0, 3.0]);
        assert_eq!(cv.shape(), (3, 1));
        let mut m = Matrix::zeros(2, 2);
        m.fill(9.0);
        assert_eq!(m.as_slice(), &[9.0; 4]);
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut m = Matrix::ones(2, 2);
        assert!(m.all_finite());
        m.set(0, 1, f32::NAN);
        assert!(!m.all_finite());
    }

    #[test]
    fn iter_indexed_order() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let collected: Vec<_> = m.iter_indexed().collect();
        assert_eq!(
            collected,
            vec![(0, 0, 1.0), (0, 1, 2.0), (1, 0, 3.0), (1, 1, 4.0)]
        );
    }

    #[test]
    fn display_does_not_panic_on_large() {
        let m = Matrix::zeros(20, 20);
        let s = format!("{m}");
        assert!(s.contains("Matrix 20x20"));
    }
}
