//! Tape-based reverse-mode automatic differentiation over [`crowd_tensor::Matrix`].
//!
//! The paper's Q-network (Fig. 3/4) is a stack of row-wise feed-forward layers and multi-head
//! self-attention layers followed by a masked squared-error loss (Eq. 1/3/6). This crate
//! provides exactly the operation set needed to express that network and differentiate it:
//! matrix multiplication, broadcast bias addition, element-wise arithmetic, the leaky
//! rectifier, fused per-segment attention, column concatenation, reductions, and a masked
//! sum-of-squared-errors loss. Every op has a caller in the library; the reference
//! compositions the fused ops are tested against live in `crowd_bench::reference`.
//!
//! # Model
//!
//! A [`Graph`] is a flat tape of nodes. Values are computed eagerly as ops are inserted
//! (define-by-run), so the forward pass is just "build the graph". Calling
//! [`Graph::backward`] on a scalar node walks the tape in reverse and accumulates gradients
//! for every node that (transitively) depends on a differentiable leaf.
//!
//! ```
//! use crowd_autograd::Graph;
//! use crowd_tensor::Matrix;
//!
//! let mut g = Graph::new();
//! let x = g.leaf(Matrix::from_vec(1, 2, vec![3.0, -1.0]).unwrap());
//! let w = g.leaf(Matrix::from_vec(2, 1, vec![2.0, 0.5]).unwrap());
//! let y = g.matmul(x, w).unwrap();      // y = x @ w = 5.5
//! let loss = g.squared_sum(y);          // loss = y^2
//! g.backward(loss).unwrap();
//! // d loss / d w = 2 * y * x
//! let gw = g.grad(w).unwrap();
//! assert!((gw.get(0, 0) - 2.0 * 5.5 * 3.0).abs() < 1e-3);
//! ```
//!
//! # Tape vs tape-free inference
//!
//! Every layer in `crowd-nn` has two forward paths: a taped one (differentiable, used by
//! the learner) and a tape-free one (used at decision time and for the double-DQN
//! targets). The convention is that both compute the same function; the graph is only
//! needed when gradients are:
//!
//! ```
//! use crowd_autograd::Graph;
//! use crowd_tensor::{Matrix, Rng};
//!
//! let mut rng = Rng::seed_from(5);
//! let x = Matrix::randn(4, 3, &mut rng);
//! let w = Matrix::randn(3, 2, &mut rng);
//!
//! // Tape-free: plain matrix ops.
//! let direct = x.matmul(&w).unwrap().map(|v| if v > 0.0 { v } else { 0.01 * v });
//!
//! // Taped: same values, plus the ability to backpropagate.
//! let mut g = Graph::new();
//! let xv = g.constant(x);
//! let wv = g.leaf(w);
//! let y = g.matmul(xv, wv).unwrap();
//! let y = g.leaky_relu(y, 0.01);
//! assert_eq!(g.value(y).as_slice(), direct.as_slice());
//!
//! let loss = g.squared_sum(y);
//! g.backward(loss).unwrap();
//! assert!(g.grad(wv).unwrap().norm() > 0.0); // gradients only exist on the tape
//! ```
//!
//! Gradients are verified against central finite differences in [`gradcheck`]; the
//! equivalence of taped and tape-free forwards is asserted per layer in `crowd-nn` and for
//! the whole Q-network in `crowd-rl-core`, and `tests/kernel_equivalence.rs` holds the
//! fused ops' values and gradients to the bits of their unfused references.

pub mod backward;
pub mod gradcheck;
pub mod graph;
pub mod op;

pub use graph::{Graph, VarId};
pub use op::Op;

/// Result alias re-exported from the tensor crate: autograd errors are all shape errors
/// surfaced by the underlying matrix operations.
pub type Result<T> = crowd_tensor::Result<T>;
