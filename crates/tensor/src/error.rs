//! Error type shared by every shape-checked operation in the numeric crates.

use std::fmt;

/// Errors produced by matrix construction and operations.
///
/// All fallible operations in [`crate::Matrix`] return `Result<_, TensorError>`; panicking is
/// reserved for unrecoverable internal invariant violations (never for caller mistakes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Two operands had incompatible shapes for the requested operation.
    ShapeMismatch {
        /// Name of the operation that failed (e.g. `"matmul"`).
        op: &'static str,
        /// Shape of the left-hand operand.
        lhs: (usize, usize),
        /// Shape of the right-hand operand.
        rhs: (usize, usize),
    },
    /// A matrix was constructed from a buffer whose length does not equal `rows * cols`.
    InvalidBuffer {
        /// Requested number of rows.
        rows: usize,
        /// Requested number of columns.
        cols: usize,
        /// Length of the provided buffer.
        len: usize,
    },
    /// An index (row, column, or flat) was outside the matrix bounds.
    IndexOutOfBounds {
        /// Name of the operation that failed.
        op: &'static str,
        /// The offending index.
        index: usize,
        /// The exclusive bound the index must stay under.
        bound: usize,
    },
    /// An operation required a non-empty matrix or a strictly positive dimension.
    EmptyInput {
        /// Name of the operation that failed.
        op: &'static str,
    },
    /// A list of row segments was not sorted by start row or had overlapping segments.
    UnorderedSegments {
        /// Name of the operation that failed.
        op: &'static str,
        /// First row of the offending segment.
        start: usize,
        /// One past the last row of the segment before it.
        previous_end: usize,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "shape mismatch in `{op}`: lhs is {}x{}, rhs is {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            TensorError::InvalidBuffer { rows, cols, len } => write!(
                f,
                "buffer of length {len} cannot back a {rows}x{cols} matrix (need {})",
                rows * cols
            ),
            TensorError::IndexOutOfBounds { op, index, bound } => {
                write!(f, "index {index} out of bounds (< {bound}) in `{op}`")
            }
            TensorError::EmptyInput { op } => write!(f, "`{op}` requires a non-empty input"),
            TensorError::UnorderedSegments {
                op,
                start,
                previous_end,
            } => write!(
                f,
                "segment starting at row {start} begins before the previous one ends \
                 (row {previous_end}) in `{op}`; segments must be sorted and disjoint"
            ),
        }
    }
}

impl std::error::Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_shape_mismatch() {
        let e = TensorError::ShapeMismatch {
            op: "matmul",
            lhs: (2, 3),
            rhs: (4, 5),
        };
        let s = e.to_string();
        assert!(s.contains("matmul"));
        assert!(s.contains("2x3"));
        assert!(s.contains("4x5"));
    }

    #[test]
    fn display_invalid_buffer() {
        let e = TensorError::InvalidBuffer {
            rows: 2,
            cols: 2,
            len: 3,
        };
        assert!(e.to_string().contains("need 4"));
    }

    #[test]
    fn display_index_out_of_bounds() {
        let e = TensorError::IndexOutOfBounds {
            op: "row",
            index: 7,
            bound: 5,
        };
        assert!(e.to_string().contains("7"));
        assert!(e.to_string().contains("5"));
    }

    #[test]
    fn display_empty_input() {
        let e = TensorError::EmptyInput { op: "argmax" };
        assert!(e.to_string().contains("argmax"));
    }

    #[test]
    fn display_unordered_segments() {
        let e = TensorError::UnorderedSegments {
            op: "segment_attention",
            start: 2,
            previous_end: 5,
        };
        let s = e.to_string();
        assert!(s.contains("segment_attention"));
        assert!(s.contains("row 2"));
        assert!(s.contains("row 5"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&TensorError::EmptyInput { op: "x" });
    }
}
