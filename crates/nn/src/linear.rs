//! Fully-connected layers: plain [`Linear`] and the paper's row-wise feed-forward
//! [`RowwiseFF`] (`rFF(X) = relu(XW + b)`, Fig. 3, implemented with a small leaky slope so
//! units cannot die under the DQN's bootstrapped targets).

use crate::param::{GraphBinding, ParamId, ParamStore};
use crate::Result;
use crowd_autograd::{Graph, VarId};
use crowd_tensor::{Matrix, Rng};

/// An affine layer `Y = X W + b` applied row-wise (every row of `X` is an item).
///
/// Because the transformation of each row is independent of every other row, stacking these
/// layers preserves the permutation-invariance required by the paper's set representation
/// (Appendix, Proof 1).
#[derive(Debug, Clone)]
pub struct Linear {
    weight: ParamId,
    bias: ParamId,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Registers a new layer in `store` with Xavier-initialised weights and zero bias.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut Rng,
    ) -> Self {
        let weight = store.register(
            format!("{name}.weight"),
            Matrix::xavier(in_dim, out_dim, rng),
        );
        let bias = store.register(format!("{name}.bias"), Matrix::zeros(1, out_dim));
        Linear {
            weight,
            bias,
            in_dim,
            out_dim,
        }
    }

    /// Input feature dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output feature dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Applies the affine map on the tape. `x` must be `n x in_dim`; the result is
    /// `n x out_dim`.
    pub fn forward(
        &self,
        graph: &mut Graph,
        store: &ParamStore,
        binding: &mut GraphBinding,
        x: VarId,
    ) -> Result<VarId> {
        let w = binding.bind(graph, store, self.weight);
        let b = binding.bind(graph, store, self.bias);
        let xw = graph.matmul(x, w)?;
        graph.add_row_broadcast(xw, b)
    }

    /// Forward pass outside any tape (inference only); avoids graph overhead when gradients
    /// are not needed, e.g. when evaluating the frozen target network.
    pub fn infer(&self, store: &ParamStore, x: &Matrix) -> Result<Matrix> {
        self.infer_par(store, x, crowd_tensor::ThreadPool::serial())
    }

    /// [`Linear::infer`] with a row-sharded matmul over `pool` — the batched-inference
    /// path, where `x` is a packed `[Σ pool sizes, in_dim]` buffer large enough to split.
    /// Bit-identical to the serial pass at any thread count
    /// (`crowd_tensor::Matrix::matmul_par`).
    pub fn infer_par(
        &self,
        store: &ParamStore,
        x: &Matrix,
        pool: crowd_tensor::ThreadPool,
    ) -> Result<Matrix> {
        let xw = x.matmul_par(store.get(self.weight), pool)?;
        xw.add_row_broadcast(store.get(self.bias))
    }
}

/// Negative-side slope of the leaky rectifier used by [`RowwiseFF`].
///
/// A plain ReLU lets the DQN's large bootstrapped TD targets kill first-layer units
/// outright (both inputs of a pair land in the flat region and the Q function collapses to
/// a row-independent constant — observed in `crowd-rl-core`'s learner tests); the small
/// leak keeps a gradient path open without noticeably changing the forward pass.
pub const LEAKY_SLOPE: f32 = 0.01;

/// The paper's row-wise feed-forward block: `rFF(X) = relu(X W + b)` (leaky variant).
#[derive(Debug, Clone)]
pub struct RowwiseFF {
    linear: Linear,
}

impl RowwiseFF {
    /// Registers a new rFF block.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut Rng,
    ) -> Self {
        RowwiseFF {
            linear: Linear::new(store, name, in_dim, out_dim, rng),
        }
    }

    /// Input feature dimension.
    pub fn in_dim(&self) -> usize {
        self.linear.in_dim()
    }

    /// Output feature dimension.
    pub fn out_dim(&self) -> usize {
        self.linear.out_dim()
    }

    /// Applies `leaky_relu(XW + b)` on the tape; the activation is one
    /// `crowd_autograd::Graph::leaky_relu` node computing
    /// `leaky(z) = relu(z) - slope * relu(-z)`.
    pub fn forward(
        &self,
        graph: &mut Graph,
        store: &ParamStore,
        binding: &mut GraphBinding,
        x: VarId,
    ) -> Result<VarId> {
        let affine = self.linear.forward(graph, store, binding, x)?;
        Ok(graph.leaky_relu(affine, LEAKY_SLOPE))
    }

    /// Gradient-free forward pass.
    pub fn infer(&self, store: &ParamStore, x: &Matrix) -> Result<Matrix> {
        self.infer_par(store, x, crowd_tensor::ThreadPool::serial())
    }

    /// [`RowwiseFF::infer`] with the affine map's matmul sharded over `pool`; bit-identical
    /// to the serial pass (the activation is element-wise).
    pub fn infer_par(
        &self,
        store: &ParamStore,
        x: &Matrix,
        pool: crowd_tensor::ThreadPool,
    ) -> Result<Matrix> {
        Ok(self
            .linear
            .infer_par(store, x, pool)?
            .map(|v| if v > 0.0 { v } else { LEAKY_SLOPE * v }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd_autograd::Graph;

    #[test]
    fn linear_shapes_and_registration() {
        let mut rng = Rng::seed_from(0);
        let mut store = ParamStore::new();
        let layer = Linear::new(&mut store, "l", 5, 3, &mut rng);
        assert_eq!(store.len(), 2);
        assert_eq!(layer.in_dim(), 5);
        assert_eq!(layer.out_dim(), 3);

        let x = Matrix::randn(7, 5, &mut rng);
        let mut g = Graph::new();
        let mut binding = GraphBinding::new();
        let xv = g.constant(x.clone());
        let y = layer.forward(&mut g, &store, &mut binding, xv).unwrap();
        assert_eq!(g.value(y).shape(), (7, 3));
        // Tape forward and inference forward agree.
        let inferred = layer.infer(&store, &x).unwrap();
        for (a, b) in g.value(y).as_slice().iter().zip(inferred.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn rowwise_ff_is_a_leaky_rectifier() {
        let mut rng = Rng::seed_from(1);
        let mut store = ParamStore::new();
        let ff = RowwiseFF::new(&mut store, "ff", 4, 6, &mut rng);
        let x = Matrix::randn(3, 4, &mut rng);
        let out = ff.infer(&store, &x).unwrap();
        assert_eq!(out.shape(), (3, 6));
        // Negative side is attenuated by the leaky slope, so outputs hug zero from below.
        let pre = ff.linear.infer(&store, &x).unwrap();
        for (&z, &v) in pre.as_slice().iter().zip(out.as_slice()) {
            let expected = if z > 0.0 { z } else { LEAKY_SLOPE * z };
            assert!((v - expected).abs() < 1e-6);
        }
        // Tape forward agrees with inference (covers the composite leaky construction).
        let mut g = crowd_autograd::Graph::new();
        let mut binding = GraphBinding::new();
        let xv = g.constant(x.clone());
        let y = ff.forward(&mut g, &store, &mut binding, xv).unwrap();
        for (a, b) in g.value(y).as_slice().iter().zip(out.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn rowwise_ff_is_permutation_invariant() {
        // Swapping input rows swaps output rows identically (Proof 1 of the paper).
        let mut rng = Rng::seed_from(2);
        let mut store = ParamStore::new();
        let ff = RowwiseFF::new(&mut store, "ff", 4, 4, &mut rng);
        let a = Matrix::randn(1, 4, &mut rng);
        let b = Matrix::randn(1, 4, &mut rng);
        let ab = a.concat_rows(&b).unwrap();
        let ba = b.concat_rows(&a).unwrap();
        let out_ab = ff.infer(&store, &ab).unwrap();
        let out_ba = ff.infer(&store, &ba).unwrap();
        assert_eq!(out_ab.row(0), out_ba.row(1));
        assert_eq!(out_ab.row(1), out_ba.row(0));
    }

    #[test]
    fn linear_gradient_flows_into_params() {
        let mut rng = Rng::seed_from(3);
        let mut store = ParamStore::new();
        let layer = Linear::new(&mut store, "l", 3, 2, &mut rng);
        let mut g = Graph::new();
        let mut binding = GraphBinding::new();
        let xv = g.constant(Matrix::randn(4, 3, &mut rng));
        let y = layer.forward(&mut g, &store, &mut binding, xv).unwrap();
        let loss = g.squared_sum(y);
        g.backward(loss).unwrap();
        let grads = binding.gradients(&g);
        assert_eq!(grads.len(), 2);
        assert!(grads.iter().any(|(_, m)| m.norm() > 0.0));
    }
}
