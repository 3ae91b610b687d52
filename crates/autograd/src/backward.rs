//! The reverse sweep: vector-Jacobian products for every [`crate::op::Op`].

use crate::graph::{Graph, VarId};
use crate::op::Op;
use crate::Result;
use crowd_tensor::{segment_attention_backward, Matrix};

/// Accumulates `delta` into the gradient slot of `id`.
fn accumulate(graph: &mut Graph, id: VarId, delta: Matrix) -> Result<()> {
    match &mut graph.grads[id.0] {
        Some(existing) => existing.add_assign(&delta),
        slot @ None => {
            *slot = Some(delta);
            Ok(())
        }
    }
}

/// Runs the reverse sweep starting from `output`. The caller (in [`Graph::backward`]) has
/// already seeded `grads[output]` with ones and cleared the rest.
pub(crate) fn run(graph: &mut Graph, output: VarId) -> Result<()> {
    for idx in (0..=output.0).rev() {
        let upstream = match graph.grads[idx].clone() {
            Some(g) => g,
            None => continue,
        };
        let node_op = graph.nodes[idx].op.clone();
        let inputs = graph.nodes[idx].inputs.clone();
        // Skip propagating into subtrees that contain no differentiable leaves.
        let propagate: Vec<bool> = inputs
            .iter()
            .map(|i| graph.nodes[i.0].requires_grad)
            .collect();
        match node_op {
            Op::Leaf => {}
            Op::MatMul => {
                // Both VJPs run on the tape's pool; the row-sharded kernels are
                // bit-identical to the serial ones, so pooled backward sweeps produce
                // the exact gradient bits of serial ones.
                let pool = graph.pool;
                let a = inputs[0];
                let b = inputs[1];
                if propagate[0] {
                    let grad_a = upstream.matmul_transpose_par(&graph.nodes[b.0].value, pool)?;
                    accumulate(graph, a, grad_a)?;
                }
                if propagate[1] {
                    let grad_b = graph.nodes[a.0]
                        .value
                        .transpose_matmul_par(&upstream, pool)?;
                    accumulate(graph, b, grad_b)?;
                }
            }
            Op::Add => {
                if propagate[0] {
                    accumulate(graph, inputs[0], upstream.clone())?;
                }
                if propagate[1] {
                    accumulate(graph, inputs[1], upstream)?;
                }
            }
            Op::AddRowBroadcast => {
                if propagate[0] {
                    accumulate(graph, inputs[0], upstream.clone())?;
                }
                if propagate[1] {
                    // The bias row receives the column sums of the upstream gradient.
                    accumulate(graph, inputs[1], upstream.col_sums())?;
                }
            }
            Op::Sub => {
                if propagate[0] {
                    accumulate(graph, inputs[0], upstream.clone())?;
                }
                if propagate[1] {
                    accumulate(graph, inputs[1], upstream.scale(-1.0))?;
                }
            }
            Op::Hadamard => {
                let a = inputs[0];
                let b = inputs[1];
                if propagate[0] {
                    let grad_a = upstream.hadamard(&graph.nodes[b.0].value)?;
                    accumulate(graph, a, grad_a)?;
                }
                if propagate[1] {
                    let grad_b = upstream.hadamard(&graph.nodes[a.0].value)?;
                    accumulate(graph, b, grad_b)?;
                }
            }
            Op::Scale(alpha) => {
                if propagate[0] {
                    accumulate(graph, inputs[0], upstream.scale(alpha))?;
                }
            }
            Op::LeakyRelu(slope) => {
                if propagate[0] {
                    // The five-primitive chain's reverse sweep, element by element: the leak
                    // branch (sub's `u·-1`, then scale(slope), the negated relu's gate and
                    // scale(-1)) reaches the input's slot first, and the positive relu's
                    // `u·gate` is added to it after.
                    let input = &graph.nodes[inputs[0].0].value;
                    let mut grad = upstream;
                    // `x * -1.0` rather than `-x`: the chain's scale(-1) multiplies, and the
                    // two differ on a NaN's sign bit.
                    #[allow(clippy::neg_multiply)]
                    for (g, &v) in grad.as_mut_slice().iter_mut().zip(input.as_slice()) {
                        let u = *g;
                        let negated = v * -1.0;
                        let neg_gate = if negated > 0.0 { 1.0 } else { 0.0 };
                        let pos_gate = if v > 0.0 { 1.0 } else { 0.0 };
                        let from_neg = ((u * -1.0) * slope) * neg_gate * -1.0;
                        *g = from_neg + u * pos_gate;
                    }
                    accumulate(graph, inputs[0], grad)?;
                }
            }
            Op::ConcatCols => {
                let a_cols = graph.nodes[inputs[0].0].value.cols();
                if propagate[0] {
                    accumulate(graph, inputs[0], upstream.slice_cols(0, a_cols)?)?;
                }
                if propagate[1] {
                    accumulate(
                        graph,
                        inputs[1],
                        upstream.slice_cols(a_cols, upstream.cols())?,
                    )?;
                }
            }
            Op::SegmentAttention { segments, scale } => {
                // Per-segment VJPs of the fused chain (crowd_tensor::attention); each
                // operand receives one whole-matrix gradient, and segments own disjoint
                // rows, so nothing is summed across segments.
                let grads = {
                    let value = |i: usize| &graph.nodes[inputs[i].0].value;
                    segment_attention_backward(
                        value(0),
                        value(1),
                        value(2),
                        &graph.nodes[idx].saved,
                        &segments,
                        scale,
                        &upstream,
                        [propagate[0], propagate[1], propagate[2]],
                        &mut graph.attention_scratch,
                    )?
                };
                for (input, grad) in inputs.iter().zip([grads.dq, grads.dk, grads.dv]) {
                    if let Some(grad) = grad {
                        accumulate(graph, *input, grad)?;
                    }
                }
            }
            Op::Sum => {
                if propagate[0] {
                    let shape = graph.nodes[inputs[0].0].value.shape();
                    let seed = upstream.get(0, 0);
                    accumulate(graph, inputs[0], Matrix::filled(shape.0, shape.1, seed))?;
                }
            }
            Op::SquaredSum => {
                if propagate[0] {
                    let seed = upstream.get(0, 0);
                    let grad = graph.nodes[inputs[0].0].value.scale(2.0 * seed);
                    accumulate(graph, inputs[0], grad)?;
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::graph::Graph;
    use crowd_tensor::Matrix;

    fn mat(rows: usize, cols: usize, data: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, data.to_vec()).unwrap()
    }

    #[test]
    fn matmul_gradients() {
        // loss = sum(A @ B); dA = ones @ B^T, dB = A^T @ ones.
        let mut g = Graph::new();
        let a = g.leaf(mat(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
        let b = g.leaf(mat(3, 2, &[1.0, -1.0, 0.5, 2.0, -2.0, 1.0]));
        let c = g.matmul(a, b).unwrap();
        let loss = g.sum(c);
        g.backward(loss).unwrap();
        let da = g.grad(a).unwrap();
        let db = g.grad(b).unwrap();
        // dA[i][j] = sum over output cols of B[j][col] = row sums of B.
        assert!((da.get(0, 0) - 0.0).abs() < 1e-5);
        assert!((da.get(0, 1) - 2.5).abs() < 1e-5);
        assert!((da.get(0, 2) - (-1.0)).abs() < 1e-5);
        // dB[j][k] = column sums of A.
        assert!((db.get(0, 0) - 5.0).abs() < 1e-5);
        assert!((db.get(1, 0) - 7.0).abs() < 1e-5);
        assert!((db.get(2, 1) - 9.0).abs() < 1e-5);
    }

    #[test]
    fn relu_gates_gradient() {
        // At slope 0 the leaky rectifier is the plain rectifier: its gradient is gated
        // shut on the negative side. A positive slope lets that fraction through.
        for (slope, negative_side) in [(0.0, 0.0), (0.25, 0.25)] {
            let mut g = Graph::new();
            let x = g.leaf(mat(1, 4, &[-1.0, 2.0, -3.0, 4.0]));
            let y = g.leaky_relu(x, slope);
            let loss = g.sum(y);
            g.backward(loss).unwrap();
            assert_eq!(
                g.grad(x).unwrap().as_slice(),
                &[negative_side, 1.0, negative_side, 1.0]
            );
        }
    }

    #[test]
    fn sub_and_scale_gradients() {
        let mut g = Graph::new();
        let x = g.leaf(mat(1, 2, &[3.0, 5.0]));
        let y = g.leaf(mat(1, 2, &[1.0, 1.0]));
        let d = g.sub(x, y).unwrap();
        let s = g.scale(d, 3.0);
        let loss = g.sum(s);
        g.backward(loss).unwrap();
        assert_eq!(g.grad(x).unwrap().as_slice(), &[3.0, 3.0]);
        assert_eq!(g.grad(y).unwrap().as_slice(), &[-3.0, -3.0]);
    }

    #[test]
    fn bias_broadcast_gradient_is_column_sum() {
        let mut g = Graph::new();
        let x = g.constant(Matrix::zeros(3, 2));
        let b = g.leaf(mat(1, 2, &[0.0, 0.0]));
        let y = g.add_row_broadcast(x, b).unwrap();
        let loss = g.sum(y);
        g.backward(loss).unwrap();
        assert_eq!(g.grad(b).unwrap().as_slice(), &[3.0, 3.0]);
    }

    #[test]
    fn concat_and_slice_gradients_route_correctly() {
        let mut g = Graph::new();
        let a = g.leaf(mat(2, 2, &[1.0; 4]));
        let b = g.leaf(mat(2, 1, &[1.0; 2]));
        let cat = g.concat_cols(a, b).unwrap();
        // Only the last column (from b) contributes to the loss; the backward slices the
        // upstream gradient back into each operand's columns.
        let right = g.constant(mat(2, 3, &[0.0, 0.0, 1.0, 0.0, 0.0, 1.0]));
        let picked = g.hadamard(cat, right).unwrap();
        let loss = g.sum(picked);
        g.backward(loss).unwrap();
        assert_eq!(g.grad(a).unwrap().as_slice(), &[0.0; 4]);
        assert_eq!(g.grad(b).unwrap().as_slice(), &[1.0, 1.0]);
    }

    #[test]
    fn mean_and_squared_sum_gradients() {
        let mut g = Graph::new();
        let x = g.leaf(mat(1, 4, &[1.0, 2.0, 3.0, 4.0]));
        let total = g.sum(x);
        let m = g.scale(total, 0.25);
        g.backward(m).unwrap();
        assert_eq!(g.grad(x).unwrap().as_slice(), &[0.25; 4]);

        let mut g2 = Graph::new();
        let x2 = g2.leaf(mat(1, 3, &[1.0, -2.0, 3.0]));
        let ss = g2.squared_sum(x2);
        g2.backward(ss).unwrap();
        assert_eq!(g2.grad(x2).unwrap().as_slice(), &[2.0, -4.0, 6.0]);
    }

    #[test]
    fn gradient_accumulates_over_shared_subexpressions() {
        // loss = sum(x + x) => dx = 2.
        let mut g = Graph::new();
        let x = g.leaf(mat(1, 2, &[1.0, 1.0]));
        let y = g.add(x, x).unwrap();
        let loss = g.sum(y);
        g.backward(loss).unwrap();
        assert_eq!(g.grad(x).unwrap().as_slice(), &[2.0, 2.0]);
    }
}
