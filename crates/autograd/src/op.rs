//! The operation set recorded on the tape.

use crowd_tensor::PoolSegment;

/// Identifier of every differentiable operation the graph supports.
///
/// Each variant stores only the static parameters of the op (e.g. the scale factor); operand
/// node ids are stored on the tape node itself so the backward pass can look up operand
/// values when computing vector-Jacobian products.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A leaf node holding an externally supplied value (network input, constant mask, or a
    /// trainable parameter injected by the layer code). Leaves have no inputs.
    Leaf,
    /// Matrix product `A @ B`.
    MatMul,
    /// Element-wise sum `A + B` (same shapes).
    Add,
    /// Adds a `1 x d` row vector to every row of an `n x d` matrix (bias broadcast).
    AddRowBroadcast,
    /// Element-wise difference `A - B`.
    Sub,
    /// Element-wise (Hadamard) product `A ∘ B`.
    Hadamard,
    /// Multiplication by a compile-time scalar.
    Scale(f32),
    /// Leaky rectifier `relu(x) − slope · relu(−x)`, element-wise — one node with the
    /// values and gradient bits of that five-node composition.
    LeakyRelu(f32),
    /// Horizontal concatenation `[A | B]`.
    ConcatCols,
    /// Fused per-segment attention `softmax(Q·Kᵀ·scale)·V` over a packed buffer, one
    /// node per head with operands `[Q, K, V]` (see `crowd_tensor::attention`). The node
    /// keeps its softmax blocks, and its backward applies the VJPs of the
    /// slice / transpose / matmul / scale / softmax / matmul chain it replaces, segment
    /// by segment.
    SegmentAttention {
        /// The row blocks attention stays inside.
        segments: Vec<PoolSegment>,
        /// Score scale (`1/√d` for head width `d`).
        scale: f32,
    },
    /// Sum of all elements, producing a `1 x 1` matrix.
    Sum,
    /// Sum of squared elements, producing a `1 x 1` matrix. `squared_sum(x) = Σ x²`.
    SquaredSum,
}

impl Op {
    /// Human-readable name, used in error messages and debugging dumps.
    pub fn name(&self) -> &'static str {
        match self {
            Op::Leaf => "leaf",
            Op::MatMul => "matmul",
            Op::Add => "add",
            Op::AddRowBroadcast => "add_row_broadcast",
            Op::Sub => "sub",
            Op::Hadamard => "hadamard",
            Op::Scale(_) => "scale",
            Op::LeakyRelu(_) => "leaky_relu",
            Op::ConcatCols => "concat_cols",
            Op::SegmentAttention { .. } => "segment_attention",
            Op::Sum => "sum",
            Op::SquaredSum => "squared_sum",
        }
    }

    /// Number of operand nodes this op expects.
    pub fn arity(&self) -> usize {
        match self {
            Op::Leaf => 0,
            Op::MatMul
            | Op::Add
            | Op::AddRowBroadcast
            | Op::Sub
            | Op::Hadamard
            | Op::ConcatCols => 2,
            Op::SegmentAttention { .. } => 3,
            _ => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_distinctive() {
        assert_eq!(Op::MatMul.name(), "matmul");
        assert_eq!(Op::LeakyRelu(0.01).name(), "leaky_relu");
        assert_eq!(Op::Scale(2.0).name(), "scale");
    }

    #[test]
    fn arity_matches_semantics() {
        assert_eq!(Op::Leaf.arity(), 0);
        assert_eq!(Op::MatMul.arity(), 2);
        assert_eq!(Op::LeakyRelu(0.01).arity(), 1);
        assert_eq!(Op::ConcatCols.arity(), 2);
        assert_eq!(Op::SquaredSum.arity(), 1);
        assert_eq!(
            Op::SegmentAttention {
                segments: Vec::new(),
                scale: 1.0
            }
            .arity(),
            3
        );
    }
}
