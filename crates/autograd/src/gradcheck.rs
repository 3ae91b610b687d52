//! Numerical gradient checking utilities.
//!
//! Every op's analytic vector-Jacobian product is validated against central finite
//! differences. The helpers here are also exported so downstream crates (`crowd-nn`,
//! `crowd-rl-core`) can gradient-check full layers and the Q-network in their own tests.

use crate::graph::{Graph, VarId};
use crowd_tensor::Matrix;

/// Builds a scalar-valued computation from a set of leaf values.
///
/// The closure receives the graph plus the ids of the leaves (inserted in the order of
/// `inputs`) and must return the id of a `1 x 1` output node.
pub type ScalarFn = dyn Fn(&mut Graph, &[VarId]) -> VarId;

/// Result of a single gradient comparison.
#[derive(Debug, Clone)]
pub struct GradCheckReport {
    /// Maximum absolute difference between analytic and numerical gradient entries.
    pub max_abs_diff: f32,
    /// Maximum relative difference (normalised by the larger magnitude, floored at 1e-3).
    pub max_rel_diff: f32,
}

impl GradCheckReport {
    /// True when both the absolute and relative differences fall under `tol`.
    pub fn passes(&self, tol: f32) -> bool {
        self.max_abs_diff < tol || self.max_rel_diff < tol
    }
}

/// Evaluates the scalar function at the given leaf values.
fn eval(f: &ScalarFn, inputs: &[Matrix]) -> f32 {
    let mut graph = Graph::new();
    let ids: Vec<VarId> = inputs.iter().map(|m| graph.leaf(m.clone())).collect();
    let out = f(&mut graph, &ids);
    graph.value(out).get(0, 0)
}

/// Compares the analytic gradient of `f` with central finite differences for the leaf at
/// `check_index`, perturbing each element by `epsilon`.
pub fn check_gradient(
    f: &ScalarFn,
    inputs: &[Matrix],
    check_index: usize,
    epsilon: f32,
) -> GradCheckReport {
    // Analytic gradient.
    let mut graph = Graph::new();
    let ids: Vec<VarId> = inputs.iter().map(|m| graph.leaf(m.clone())).collect();
    let out = f(&mut graph, &ids);
    graph.backward(out).expect("backward failed in gradcheck");
    let analytic = graph
        .grad(ids[check_index])
        .cloned()
        .unwrap_or_else(|| Matrix::zeros(inputs[check_index].rows(), inputs[check_index].cols()));

    // Numerical gradient via central differences.
    let mut max_abs = 0.0f32;
    let mut max_rel = 0.0f32;
    let base = inputs[check_index].clone();
    for i in 0..base.len() {
        let mut plus = inputs.to_vec();
        let mut minus = inputs.to_vec();
        plus[check_index].as_mut_slice()[i] += epsilon;
        minus[check_index].as_mut_slice()[i] -= epsilon;
        let numerical = (eval(f, &plus) - eval(f, &minus)) / (2.0 * epsilon);
        let a = analytic.as_slice()[i];
        let abs = (a - numerical).abs();
        let denom = a.abs().max(numerical.abs()).max(1e-3);
        max_abs = max_abs.max(abs);
        max_rel = max_rel.max(abs / denom);
    }
    GradCheckReport {
        max_abs_diff: max_abs,
        max_rel_diff: max_rel,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd_tensor::{PoolSegment, Rng};

    fn rand_mat(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = Rng::seed_from(seed);
        Matrix::randn(rows, cols, &mut rng)
    }

    #[test]
    fn gradcheck_matmul_chain() {
        let f: Box<ScalarFn> = Box::new(|g, ids| {
            let prod = g.matmul(ids[0], ids[1]).unwrap();
            let act = g.leaky_relu(prod, 0.01);
            g.squared_sum(act)
        });
        let inputs = vec![rand_mat(3, 4, 1), rand_mat(4, 2, 2)];
        for idx in 0..2 {
            let report = check_gradient(&f, &inputs, idx, 1e-2);
            assert!(report.passes(2e-2), "matmul chain input {idx}: {report:?}");
        }
    }

    #[test]
    fn gradcheck_softmax_attention_like_block() {
        // out = softmax(X X^T / 2) @ X over one segment; loss = sum(out^2).
        let f: Box<ScalarFn> = Box::new(|g, ids| {
            let x = ids[0];
            let whole = [PoolSegment { start: 0, rows: 4 }];
            let out = g.segment_attention(x, x, x, &whole, 0.5).unwrap();
            g.squared_sum(out)
        });
        let inputs = vec![rand_mat(4, 3, 7)];
        let report = check_gradient(&f, &inputs, 0, 1e-2);
        assert!(report.passes(5e-2), "attention block: {report:?}");
    }

    #[test]
    fn gradcheck_bias_and_mean() {
        let f: Box<ScalarFn> = Box::new(|g, ids| {
            let y = g.add_row_broadcast(ids[0], ids[1]).unwrap();
            let r = g.leaky_relu(y, 0.01);
            let total = g.sum(r);
            g.scale(total, 1.0 / 15.0) // the mean of the 5 x 3 activations
        });
        let inputs = vec![rand_mat(5, 3, 11), rand_mat(1, 3, 12)];
        for idx in 0..2 {
            let report = check_gradient(&f, &inputs, idx, 1e-2);
            assert!(report.passes(2e-2), "bias/mean input {idx}: {report:?}");
        }
    }

    #[test]
    fn gradcheck_concat_slice_hadamard() {
        let f: Box<ScalarFn> = Box::new(|g, ids| {
            let cat = g.concat_cols(ids[0], ids[1]).unwrap();
            let prod = g.hadamard(cat, cat).unwrap();
            g.sum(prod)
        });
        let inputs = vec![rand_mat(3, 2, 21), rand_mat(3, 2, 22)];
        for idx in 0..2 {
            let report = check_gradient(&f, &inputs, idx, 1e-2);
            assert!(report.passes(2e-2), "concat/slice input {idx}: {report:?}");
        }
    }

    #[test]
    fn gradcheck_masked_mse() {
        let target = rand_mat(2, 3, 31);
        let mask = Matrix::from_vec(2, 3, vec![1.0, 0.0, 1.0, 0.0, 1.0, 0.0]).unwrap();
        let f: Box<ScalarFn> =
            Box::new(move |g, ids| g.masked_mse(ids[0], &target, &mask).unwrap());
        let inputs = vec![rand_mat(2, 3, 32)];
        let report = check_gradient(&f, &inputs, 0, 1e-2);
        assert!(report.passes(2e-2), "masked mse: {report:?}");
    }

    #[test]
    fn gradcheck_segment_attention_over_unequal_segments() {
        // Three segments of 1, 3 and 2 rows with a gap row between the last two, so a
        // wrong row offset, a segment leaking into its neighbour or a gradient written
        // to a row outside every segment shows up as a finite-difference mismatch.
        let segments = [
            PoolSegment { start: 0, rows: 1 },
            PoolSegment { start: 1, rows: 3 },
            PoolSegment { start: 5, rows: 2 },
        ];
        let weights = rand_mat(7, 2, 71);
        let f: Box<ScalarFn> = Box::new(move |g, ids| {
            let out = g
                .segment_attention(ids[0], ids[1], ids[2], &segments, 0.7)
                .unwrap();
            let w = g.constant(weights.clone());
            let weighted = g.hadamard(out, w).unwrap();
            g.squared_sum(weighted)
        });
        let inputs = vec![rand_mat(7, 3, 72), rand_mat(7, 3, 73), rand_mat(7, 2, 74)];
        for idx in 0..3 {
            let report = check_gradient(&f, &inputs, idx, 1e-2);
            assert!(
                report.passes(5e-2),
                "segment_attention operand {idx}: {report:?}"
            );
        }
    }

    #[test]
    fn gradcheck_leaky_relu_away_from_the_kink() {
        // Every input sits at least 0.1 from 0, ten times the finite-difference step, so
        // the central difference never straddles the kink.
        let mut x = rand_mat(4, 5, 81);
        for v in x.as_mut_slice() {
            *v += 0.1f32.copysign(*v);
        }
        let weights = rand_mat(4, 5, 82);
        for slope in [0.01, 0.3] {
            let w = weights.clone();
            let f: Box<ScalarFn> = Box::new(move |g, ids| {
                let act = g.leaky_relu(ids[0], slope);
                let wv = g.constant(w.clone());
                let weighted = g.hadamard(act, wv).unwrap();
                g.squared_sum(weighted)
            });
            let report = check_gradient(&f, std::slice::from_ref(&x), 0, 1e-2);
            assert!(report.passes(2e-2), "leaky_relu slope {slope}: {report:?}");
        }
    }

    #[test]
    fn gradcheck_weighted_masked_mse() {
        let target = rand_mat(5, 1, 61);
        let mask = Matrix::from_vec(5, 1, vec![1.0, 0.0, 1.0, 0.0, 1.0]).unwrap();
        let weights = Matrix::from_vec(5, 1, vec![0.9, 0.0, 0.4, 0.0, 1.0]).unwrap();
        let f: Box<ScalarFn> = Box::new(move |g, ids| {
            g.weighted_masked_mse(ids[0], &target, &mask, &weights, 3.0)
                .unwrap()
        });
        let inputs = vec![rand_mat(5, 1, 62)];
        let report = check_gradient(&f, &inputs, 0, 1e-2);
        assert!(report.passes(2e-2), "weighted masked mse: {report:?}");
    }

    #[test]
    fn gradcheck_sub_scale_shift() {
        let f: Box<ScalarFn> = Box::new(|g, ids| {
            let d = g.sub(ids[0], ids[1]).unwrap();
            let s = g.scale(d, -1.7);
            let offset = g.constant(Matrix::filled(2, 2, 0.3));
            let sh = g.add(s, offset).unwrap();
            g.squared_sum(sh)
        });
        let inputs = vec![rand_mat(2, 2, 41), rand_mat(2, 2, 42)];
        for idx in 0..2 {
            let report = check_gradient(&f, &inputs, idx, 1e-2);
            assert!(
                report.passes(2e-2),
                "sub/scale/shift input {idx}: {report:?}"
            );
        }
    }
}
