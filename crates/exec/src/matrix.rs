//! Dense row-major `f32` matrices.
//!
//! Feature sets (one row per patch) are the unit of work handed to the
//! execution kernels.

/// A dense row-major matrix of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
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

    /// Build from a flat row-major buffer.
    ///
    /// Panics when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer does not match shape");
        Matrix { rows, cols, data }
    }

    /// Build from a slice of equal-length row vectors.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        let cols = rows.first().map(|r| r.len()).unwrap_or(0);
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "all rows must share a length");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The flat buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Total payload bytes (for the transfer cost model).
    pub fn byte_size(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_and_rows() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.byte_size(), 24);
    }

    #[test]
    fn from_rows_roundtrip() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "buffer does not match shape")]
    fn shape_mismatch_panics() {
        Matrix::from_vec(2, 2, vec![0.0; 5]);
    }

    #[test]
    fn empty_matrix() {
        let m = Matrix::from_rows(&[]);
        assert_eq!(m.rows(), 0);
        assert_eq!(m.byte_size(), 0);
    }
}
