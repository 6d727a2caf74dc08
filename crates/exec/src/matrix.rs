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

/// Element count of a `rows × cols` matrix. Panics when the product
/// overflows `usize`, in every build profile: a wrapped product would
/// accept a buffer that does not match the shape.
fn element_count(rows: usize, cols: usize) -> usize {
    rows.checked_mul(cols)
        .unwrap_or_else(|| panic!("matrix shape {rows} x {cols} overflows usize"))
}

impl Matrix {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; element_count(rows, cols)],
        }
    }

    /// Build from a flat row-major buffer.
    ///
    /// Panics when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            element_count(rows, cols),
            "buffer does not match shape"
        );
        Matrix { rows, cols, data }
    }

    /// Build from a slice of equal-length row vectors.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        let cols = rows.first().map(|r| r.len()).unwrap_or(0);
        let mut data = Vec::with_capacity(element_count(rows.len(), cols));
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
    #[should_panic(expected = "overflows usize")]
    fn overflowing_shape_panics_instead_of_wrapping() {
        // 2^63 x 2 wraps to 0 elements, which an empty buffer would match.
        Matrix::from_vec(1 << 63, 2, vec![]);
    }

    #[test]
    #[should_panic(expected = "overflows usize")]
    fn overflowing_zeros_panics() {
        Matrix::zeros(usize::MAX, 2);
    }

    #[test]
    fn empty_matrix() {
        let m = Matrix::from_rows(&[]);
        assert_eq!(m.rows(), 0);
        assert_eq!(m.byte_size(), 0);
    }
}
