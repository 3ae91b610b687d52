//! Neural-network building blocks on top of [`crowd_autograd`].
//!
//! This crate provides what the paper's models need and nothing more:
//!
//! * a [`ParamStore`] holding named trainable matrices outside any particular tape, so a
//!   target network Q̃ is simply a second store copied from θ (double Q-learning, Sec. IV-D);
//! * [`Linear`] / [`RowwiseFF`] layers — the "row-wise Linear Layer" rFF(X) = relu(XW + b)
//!   of Fig. 3;
//! * [`MultiHeadSelfAttention`] — the attention layer of Fig. 4 over a packed
//!   `[Σ pool sizes, dim]` buffer of real task rows, with per-pool [`PoolSegment`] offsets:
//!   [`MultiHeadSelfAttention::forward_packed`] on the tape and
//!   [`MultiHeadSelfAttention::infer_packed`] without it;
//! * [`Mlp`] — the two-hidden-layer feed-forward regressor used by the Greedy+NN baseline;
//! * the [`Adam`] optimizer with optional gradient clipping.
//!
//! # One gradient step
//!
//! ```
//! use crowd_nn::{Adam, GraphBinding, Linear, Optimizer, ParamStore};
//! use crowd_autograd::Graph;
//! use crowd_tensor::{Matrix, Rng};
//!
//! let mut rng = Rng::seed_from(0);
//! let mut store = ParamStore::new();
//! let layer = Linear::new(&mut store, "lin", 4, 1, &mut rng);
//! let mut opt = Adam::new(0.01);
//!
//! // One gradient step on a toy regression target.
//! let x = Matrix::randn(8, 4, &mut rng);
//! let target = Matrix::zeros(8, 1);
//! let mut g = Graph::new();
//! let mut binding = GraphBinding::new();
//! let xv = g.constant(x);
//! let y = layer.forward(&mut g, &store, &mut binding, xv).unwrap();
//! let loss = g.masked_mse(y, &target, &Matrix::ones(8, 1)).unwrap();
//! g.backward(loss).unwrap();
//! opt.step(&mut store, &binding.gradients(&g)).unwrap();
//! ```
//!
//! # Packed attention for batched inference
//!
//! The row-wise Q/K/V and output projections of [`MultiHeadSelfAttention`] run as stacked
//! matmuls over a packed buffer; scores and softmax stay within each session's
//! [`PoolSegment`], so sessions never attend to each other and every block comes out
//! bit-identical to a per-session pass:
//!
//! ```
//! use crowd_nn::{MultiHeadSelfAttention, ParamStore, PoolSegment};
//! use crowd_tensor::{Matrix, Rng};
//!
//! let mut rng = Rng::seed_from(3);
//! let mut store = ParamStore::new();
//! let attn = MultiHeadSelfAttention::new(&mut store, "attn", 8, 2, &mut rng);
//!
//! // Two sessions with 3 and 5 available tasks, packed back to back.
//! let a = Matrix::randn(3, 8, &mut rng);
//! let b = Matrix::randn(5, 8, &mut rng);
//! let packed = Matrix::vstack(&[&a, &b]).unwrap();
//! let segments = [
//!     PoolSegment { start: 0, rows: 3 },
//!     PoolSegment { start: 3, rows: 5 },
//! ];
//! let out = attn.infer_packed(&store, &packed, &segments).unwrap();
//!
//! // Each block equals the standalone pass over that session alone.
//! let alone = |m: &Matrix| {
//!     let whole = [PoolSegment { start: 0, rows: m.rows() }];
//!     attn.infer_packed(&store, m, &whole).unwrap()
//! };
//! assert_eq!(out.slice_rows(0, 3).unwrap(), alone(&a));
//! assert_eq!(out.slice_rows(3, 8).unwrap(), alone(&b));
//! ```

pub mod attention;
pub mod linear;
pub mod mlp;
pub mod optimizer;
pub mod param;

pub use attention::{MultiHeadSelfAttention, PoolSegment};
pub use linear::{Linear, RowwiseFF};
pub use mlp::Mlp;
pub use optimizer::{Adam, Optimizer};
pub use param::{GraphBinding, ParamId, ParamStore};

/// Result alias shared with the numeric substrate.
pub type Result<T> = crowd_tensor::Result<T>;
