//! Dense `f32` matrix substrate for the crowd-rl workspace.
//!
//! The paper's Q-network is a small set-transformer operating on matrices of shape
//! `[maxT, feature_dim]`; everything the workspace needs from a linear-algebra backend is a
//! row-major dense matrix with shape-checked operations and a deterministic random number
//! source. This crate provides exactly that and nothing more, so the higher layers
//! ([`crowd-autograd`](https://docs.rs/crowd-autograd), `crowd-nn`) stay small and auditable.
//!
//! # Quick example
//!
//! ```
//! use crowd_tensor::{Matrix, Rng};
//!
//! let mut rng = Rng::seed_from(42);
//! let a = Matrix::randn(3, 4, &mut rng);
//! let b = Matrix::randn(4, 2, &mut rng);
//! let c = a.matmul(&b).unwrap();
//! assert_eq!(c.shape(), (3, 2));
//! ```
//!
//! # Packed-row ops: the substrate of batched inference
//!
//! Batched Q-network inference stacks `N` sessions' state rows into one
//! `[Σ pool sizes, dim]` buffer ([`Matrix::vstack`]), runs every row-wise layer as a single
//! stacked matmul, and scatters per-session blocks with [`Matrix::slice_rows`] /
//! [`Matrix::paste_rows`]. Because a row-wise operation's output row depends only on its own
//! input row, the stacked result is **bit-identical** to processing the parts one at a time:
//!
//! ```
//! use crowd_tensor::{Matrix, Rng};
//!
//! let mut rng = Rng::seed_from(1);
//! let session_a = Matrix::randn(3, 4, &mut rng); // 3 available tasks
//! let session_b = Matrix::randn(5, 4, &mut rng); // 5 available tasks
//! let weights = Matrix::randn(4, 2, &mut rng);
//!
//! let packed = Matrix::vstack(&[&session_a, &session_b]).unwrap();
//! let stacked = packed.matmul(&weights).unwrap(); // ONE matmul for both sessions
//!
//! assert_eq!(stacked.slice_rows(0, 3).unwrap(), session_a.matmul(&weights).unwrap());
//! assert_eq!(stacked.slice_rows(3, 8).unwrap(), session_b.matmul(&weights).unwrap());
//! ```
//!
//! # Parallel kernels
//!
//! The packed buffers above can grow to thousands of rows at replica scale, so the
//! matmul kernels are register-blocked and 8-lane unrolled (see the [`ops`] module docs
//! for the accumulation-order contract, and `tests/kernel_equivalence.rs` for the
//! differential fence against the scalar references in `crowd_bench::reference`), and
//! both have
//! row-sharded twins — [`Matrix::matmul_par`] / [`Matrix::matmul_transpose_par`] — that
//! split the *output rows* across a [`ThreadPool`] (re-exported from `crowd-parallel`,
//! which dispatches to its persistent worker pool). Every output row is produced by
//! the same per-row kernel the serial path runs, with the same f32 accumulation order,
//! so the parallel results are **bit-identical** to the serial ones at any thread count;
//! small products fall back to the serial kernel automatically (even the persistent
//! pool's warm dispatch costs more than they do).
//!
//! # Fused per-segment attention
//!
//! Attention over a packed buffer must stay inside each pool's [`PoolSegment`]. The
//! [`attention`] module fuses one segment's score / scale / softmax / value chain into
//! one kernel that writes straight into the packed output ([`segment_attention`]), plus
//! its reverse mode ([`segment_attention_backward`]). Both run through the same strided
//! product kernels as [`Matrix::matmul`], so they are bit-identical to the unfused chain
//! of `Matrix` ops.
//!
//! # Determinism
//!
//! [`Rng`] is a self-contained xoshiro256++ generator (no external `rand`): the same seed
//! yields the same stream on every platform, which is what makes the workspace's
//! bit-identity equivalence tests possible.
//!
//! ```
//! use crowd_tensor::Rng;
//!
//! let mut a = Rng::seed_from(99);
//! let mut b = Rng::seed_from(99);
//! assert_eq!(a.normal(0.0, 1.0), b.normal(0.0, 1.0));
//! ```

pub mod attention;
pub mod error;
pub mod matrix;
pub mod ops;
pub mod random;

pub use attention::{
    segment_attention, segment_attention_backward, AttentionGrads, AttentionScratch, ColumnBlock,
    PoolSegment,
};
pub use error::TensorError;
pub use matrix::Matrix;
pub use random::Rng;

// Re-exported so downstream crates can accept a pool handle without depending on
// `crowd-parallel` directly (the handle appears in `Matrix::matmul_par`'s signature).
pub use crowd_parallel::ThreadPool;

/// Convenience result alias used across the workspace's numeric crates.
pub type Result<T> = std::result::Result<T, TensorError>;
