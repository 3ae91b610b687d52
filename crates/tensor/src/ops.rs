//! Numeric operations on [`Matrix`].
//!
//! The hot path of the whole workspace is `matmul` inside the Q-network forward/backward
//! pass. Both product kernels ([`Matrix::matmul`] and [`Matrix::matmul_transpose`]) run
//! through one register-blocked, 8-lane unrolled microkernel (`lane_tile`; the
//! `n % LANES` lane-remainder columns go through the row-blocked `col_tile`) — the
//! build container is offline and on stable Rust, so the "vectors" are plain `[f32; 8]`
//! accumulator arrays the optimiser keeps in SIMD registers. Everything else is
//! straightforward element-wise or row-wise code with explicit shape checks.
//!
//! # The accumulation-order contract
//!
//! Every output element of every product kernel is computed as
//!
//! ```text
//! c[i][j] = (((0.0 + a[i][0]·b[0][j]) + a[i][1]·b[1][j]) + …)   // p in increasing order
//! ```
//!
//! a **sequential sum over the inner dimension `p`, in increasing order, one separate
//! multiply-then-add per step** (no FMA, no split partial sums, no zero-skipping).
//! Vectorisation happens only *across* output elements — each lane of a register tile is
//! the accumulator of one distinct `c[i][j]` — so blocking over `i`/`j` can never change
//! any element's bits. This is the one accumulation order the whole workspace's
//! bit-identity story (parallel-, checkpoint-, batched- and serve-equivalence) rests on:
//!
//! * the row-sharded `_par` twins are bit-identical because shard boundaries only decide
//!   *which thread* computes an element, never the order of its sum;
//! * the retained scalar references [`Matrix::matmul_ref`] / [`Matrix::matmul_transpose_ref`]
//!   implement the same order with textbook loops, and `tests/kernel_equivalence.rs`
//!   pins `to_bits` equality between them and the blocked kernels over adversarial
//!   shapes and values;
//! * `benches/kernel_throughput.rs` measures the blocked kernels against those same
//!   references, so the fast path must stay *provably fast* as well as provably equal.
//!
//! See `ARCHITECTURE.md` ("Vectorised kernels + the persistent worker pool") for the
//! full story.

use crate::error::TensorError;
use crate::matrix::Matrix;
use crate::Result;
use crowd_parallel::ThreadPool;

/// Minimum number of scalar multiply-adds (`m · k · n`) before the parallel matmul
/// kernels shard rows across threads. Dispatching to the persistent worker pool costs a
/// few microseconds per call (channel send + wake, no thread spawn since the pool keeps
/// its workers parked), so products below ~128k multiply-adds fall back to the serial
/// kernel — which is bit-identical anyway.
const PAR_MATMUL_MIN_MADDS: usize = 1 << 17;

/// Virtual SIMD width of the unrolled kernels: each register tile holds `LANES`
/// consecutive output columns per row, accumulated in a `[f32; LANES]` that the
/// optimiser maps onto vector registers (f32x8 = one AVX2 register).
const LANES: usize = 8;

/// Rows of the left operand per register tile. `TILE_ROWS · LANES` accumulators stay
/// live across the whole inner-dimension loop, and every loaded lane group of the right
/// operand is reused `TILE_ROWS` times.
const TILE_ROWS: usize = 4;

/// The shared register-tile microkernel of both product kernels: computes the
/// `RT × LANES` output block for the `RT` left rows `a_rows` against the `LANES` right
/// columns packed at stride `bstride` in `b` (`b[p * bstride + l]` is inner index `p`,
/// lane `l`). [`Matrix::matmul`] passes a window of the right operand directly
/// (`bstride = n`); [`Matrix::matmul_transpose`] passes a packed `k × LANES` panel
/// (`bstride = LANES`).
///
/// Each lane accumulates its element's products over `p` in increasing order with a
/// separate multiply-then-add per step — exactly the contract in the
/// [module docs](self), which is why the result is bit-identical to the scalar
/// references no matter how the drivers tile `i` and `j`.
#[inline(always)]
fn lane_tile<const RT: usize>(
    a_rows: [&[f32]; RT],
    b: &[f32],
    bstride: usize,
    k: usize,
) -> [[f32; LANES]; RT] {
    let mut acc = [[0.0f32; LANES]; RT];
    for p in 0..k {
        let bp = &b[p * bstride..p * bstride + LANES];
        for (accr, a_row) in acc.iter_mut().zip(a_rows.iter()) {
            let av = a_row[p];
            for (o, &bv) in accr.iter_mut().zip(bp.iter()) {
                *o += av * bv;
            }
        }
    }
    acc
}

/// Sequential dot product over `p` in increasing order — the scalar edge of the contract,
/// used by the retained scalar references.
#[inline(always)]
fn seq_dot(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for (&x, &y) in a.iter().zip(b.iter()) {
        acc += x * y;
    }
    acc
}

/// Column tile: `RT` output elements of one output column, left rows `a_rows` against
/// the right-operand column `b[p * bstride + j]`. Each accumulator is one output
/// element folded over `p` in increasing order with a separate multiply-then-add per
/// step — the same contract as [`lane_tile`], vectorised across output *rows* instead
/// of columns. Used for the lane-remainder columns (`n % LANES` of them), where it
/// keeps `RT` independent dependency chains in flight and shares each loaded `b` value
/// across them, instead of walking one latency-bound dot per element.
#[inline(always)]
fn col_tile<const RT: usize>(
    a_rows: [&[f32]; RT],
    b: &[f32],
    bstride: usize,
    j: usize,
    k: usize,
) -> [f32; RT] {
    let mut acc = [0.0f32; RT];
    for p in 0..k {
        let bv = b[p * bstride + j];
        for (o, a_row) in acc.iter_mut().zip(a_rows.iter()) {
            *o += a_row[p] * bv;
        }
    }
    acc
}

/// Runs [`col_tile`] down output column `j_out` for all `rows` rows (4/2/1 row tiles).
/// Left row `r` is `a[r * lda..][..k]`, output element `(r, j_out)` is
/// `out[r * ldo + j_out]`, and the right-operand column is read from `b` at
/// `b[p * bstride + j_b]`. [`gemm_nn`] passes the right operand in place
/// (`bstride = ldb`, `j_b = j_out`); [`gemm_nt`] passes the contiguous right row
/// (`bstride = 1`, `j_b = 0`).
#[allow(clippy::too_many_arguments)] // internal kernel plumbing, not an API
#[inline(always)]
fn col_tiles(
    a: &[f32],
    lda: usize,
    k: usize,
    rows: usize,
    b: &[f32],
    bstride: usize,
    j_b: usize,
    out: &mut [f32],
    ldo: usize,
    j_out: usize,
) {
    let a_row = |local: usize| &a[local * lda..][..k];
    let mut store = |i: usize, acc: &[f32]| {
        for (r, &v) in acc.iter().enumerate() {
            out[(i + r) * ldo + j_out] = v;
        }
    };
    let mut i = 0;
    while i + TILE_ROWS <= rows {
        let tile = col_tile::<TILE_ROWS>(std::array::from_fn(|r| a_row(i + r)), b, bstride, j_b, k);
        store(i, &tile);
        i += TILE_ROWS;
    }
    if i + 2 <= rows {
        let tile = col_tile::<2>(std::array::from_fn(|r| a_row(i + r)), b, bstride, j_b, k);
        store(i, &tile);
        i += 2;
    }
    if i < rows {
        let tile = col_tile::<1>([a_row(i)], b, bstride, j_b, k);
        store(i, &tile);
    }
}

/// Runs [`lane_tile`] over all `rows` output rows for one group of `LANES` output
/// columns starting at `j0`, tiling rows 4-at-a-time with 2/1-row tails. Left row `r` is
/// `a[r * lda..][..k]`, `b` is the lane group's right-operand window (stride
/// `bstride`), and output row `r` starts at `out[r * ldo]`.
#[allow(clippy::too_many_arguments)] // internal kernel plumbing, not an API
#[inline(always)]
fn row_tiles(
    a: &[f32],
    lda: usize,
    k: usize,
    rows: usize,
    b: &[f32],
    bstride: usize,
    out: &mut [f32],
    ldo: usize,
    j0: usize,
) {
    let mut store = |i: usize, acc: &[[f32; LANES]]| {
        for (r, lanes) in acc.iter().enumerate() {
            out[(i + r) * ldo + j0..][..LANES].copy_from_slice(lanes);
        }
    };
    let a_row = |local: usize| &a[local * lda..][..k];
    let mut i = 0;
    while i + TILE_ROWS <= rows {
        let tile = lane_tile::<TILE_ROWS>(std::array::from_fn(|r| a_row(i + r)), b, bstride, k);
        store(i, &tile);
        i += TILE_ROWS;
    }
    if i + 2 <= rows {
        let tile = lane_tile::<2>(std::array::from_fn(|r| a_row(i + r)), b, bstride, k);
        store(i, &tile);
        i += 2;
    }
    if i < rows {
        let tile = lane_tile::<1>([a_row(i)], b, bstride, k);
        store(i, &tile);
    }
}

/// The strided "NN" product every `a · b` in the workspace runs through:
/// `out[i * ldo + j] = Σ_p a[i * lda + p] · b[p * ldb + j]` for `i < m`, `j < n`,
/// `p < k`, through the register-blocked microkernel (lane groups of `b` are read in
/// place). The strides let a caller address row blocks and column windows of larger
/// buffers — the row shards of [`Matrix::matmul_par`], and one head's block of a packed
/// attention buffer (`crate::attention`) — without copying them; every element is
/// still the contract's sequential `p`-ordered sum, so the result never depends on
/// where the operands live.
#[allow(clippy::too_many_arguments)] // internal kernel plumbing, not an API
pub(crate) fn gemm_nn(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    ldo: usize,
) {
    let lane_end = n - n % LANES;
    let mut j0 = 0;
    while j0 < lane_end {
        row_tiles(a, lda, k, m, &b[j0..], ldb, out, ldo, j0);
        j0 += LANES;
    }
    // Lane-remainder columns: row-blocked column tiles down the strided columns.
    for j in lane_end..n {
        col_tiles(a, lda, k, m, b, ldb, j, out, ldo, j);
    }
}

/// The strided "NT" product `out[i * ldo + j] = Σ_p a[i * lda + p] · b[j * ldb + p]`
/// (`a · bᵀ` without materialising the transpose), same contract and addressing as
/// [`gemm_nn`]. Per group of `LANES` output columns it packs a `k × LANES` panel of `b`
/// rows into `panel` (one transposed copy, reused by every row tile) and runs the same
/// microkernel over it; callers that run many small products pass one `panel` buffer
/// for all of them.
#[allow(clippy::too_many_arguments)] // internal kernel plumbing, not an API
pub(crate) fn gemm_nt(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    ldo: usize,
    panel: &mut Vec<f32>,
) {
    let lane_end = n - n % LANES;
    if lane_end > 0 {
        // The packed panel exists only while there is at least one full lane group;
        // narrow products (`n < LANES`) never pay for it.
        panel.resize(k * LANES, 0.0);
        let mut j0 = 0;
        while j0 < lane_end {
            for l in 0..LANES {
                let b_row = &b[(j0 + l) * ldb..][..k];
                for (p, &v) in b_row.iter().enumerate() {
                    panel[p * LANES + l] = v;
                }
            }
            row_tiles(a, lda, k, m, panel, LANES, out, ldo, j0);
            j0 += LANES;
        }
    }
    // Lane-remainder columns: row-blocked column tiles over the contiguous `b` rows.
    for j in lane_end..n {
        col_tiles(a, lda, k, m, &b[j * ldb..], 1, 0, out, ldo, j);
    }
}

/// "TN" register tile: `out[r][l] = Σ_p a[p * lda + r] · b[p * ldb + l]` for `RT` output
/// rows (columns of `a`, read `RT` at a time from each row of `a`) and `LANES` output
/// columns. Each lane is one output element folded over `p` in increasing order with a
/// separate multiply-then-add per step — the contract of [`lane_tile`], with the left
/// operand read down its columns instead of along its rows.
#[inline(always)]
fn lane_tile_tn<const RT: usize>(
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    k: usize,
) -> [[f32; LANES]; RT] {
    let mut acc = [[0.0f32; LANES]; RT];
    for p in 0..k {
        let ap = &a[p * lda..][..RT];
        let bp = &b[p * ldb..][..LANES];
        for (accr, &av) in acc.iter_mut().zip(ap) {
            for (o, &bv) in accr.iter_mut().zip(bp) {
                *o += av * bv;
            }
        }
    }
    acc
}

/// "TN" column tile: `RT` output elements of one output column, `out[r] = Σ_p
/// a[p * lda + r] · b[p * ldb]` — the lane-remainder edge of [`lane_tile_tn`].
#[inline(always)]
fn col_tile_tn<const RT: usize>(
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    k: usize,
) -> [f32; RT] {
    let mut acc = [0.0f32; RT];
    for p in 0..k {
        let bv = b[p * ldb];
        for (o, &av) in acc.iter_mut().zip(&a[p * lda..][..RT]) {
            *o += av * bv;
        }
    }
    acc
}

/// Runs the TN tiles over every output column for the `RT` output rows starting at `i`.
#[allow(clippy::too_many_arguments)] // internal kernel plumbing, not an API
#[inline(always)]
fn tn_row_tile<const RT: usize>(
    i: usize,
    n: usize,
    k: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    ldo: usize,
) {
    let lane_end = n - n % LANES;
    let mut j0 = 0;
    while j0 < lane_end {
        let tile = lane_tile_tn::<RT>(&a[i..], lda, &b[j0..], ldb, k);
        for (r, lanes) in tile.iter().enumerate() {
            out[(i + r) * ldo + j0..][..LANES].copy_from_slice(lanes);
        }
        j0 += LANES;
    }
    for j in lane_end..n {
        let tile = col_tile_tn::<RT>(&a[i..], lda, &b[j..], ldb, k);
        for (r, &v) in tile.iter().enumerate() {
            out[(i + r) * ldo + j] = v;
        }
    }
}

/// The strided "TN" product `out[i * ldo + j] = Σ_p a[p * lda + i] · b[p * ldb + j]`
/// (`aᵀ · b` without materialising the transpose) for `i < m`, `j < n`, `p < k`: the
/// same per-element sum, in the same order, as transposing `a` and running [`gemm_nn`],
/// so the two are bit-identical. Output rows are tiled 4/2/1 at a time like the other
/// drivers; each step of the inner loop reads one contiguous row of `a` and of `b`.
#[allow(clippy::too_many_arguments)] // internal kernel plumbing, not an API
pub(crate) fn gemm_tn(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    ldo: usize,
) {
    if n == 0 {
        return;
    }
    if k == 0 {
        // An empty inner dimension sums nothing: every element is the fold's +0.0.
        for i in 0..m {
            out[i * ldo..][..n].fill(0.0);
        }
        return;
    }
    let mut i = 0;
    while i + TILE_ROWS <= m {
        tn_row_tile::<TILE_ROWS>(i, n, k, a, lda, b, ldb, out, ldo);
        i += TILE_ROWS;
    }
    if i + 2 <= m {
        tn_row_tile::<2>(i, n, k, a, lda, b, ldb, out, ldo);
        i += 2;
    }
    if i < m {
        tn_row_tile::<1>(i, n, k, a, lda, b, ldb, out, ldo);
    }
}

/// The shared row kernel of [`Matrix::matmul`]: computes output rows
/// `[row0, row0 + out_rows.len()/n)` into `out_rows`. Both the serial and the
/// row-sharded parallel path run exactly this code per row, which is what makes
/// [`Matrix::matmul_par`] bit-identical by construction.
fn matmul_rows(a: &[f32], b: &[f32], k: usize, n: usize, row0: usize, out_rows: &mut [f32]) {
    let rows = out_rows.len() / n.max(1);
    gemm_nn(rows, n, k, &a[row0 * k..], k, b, n, out_rows, n);
}

/// The shared row kernel of [`Matrix::matmul_transpose`] (`self * rhs^T` without
/// materialising the transpose), same sharding contract as [`matmul_rows`].
fn matmul_transpose_rows(a: &Matrix, rhs: &Matrix, n: usize, row0: usize, out_rows: &mut [f32]) {
    if n == 0 {
        return;
    }
    let rows = out_rows.len() / n;
    let k = a.cols();
    gemm_nt(
        rows,
        n,
        k,
        &a.as_slice()[row0 * k..],
        k,
        rhs.as_slice(),
        k,
        out_rows,
        n,
        &mut Vec::new(),
    );
}

impl Matrix {
    /// Matrix product `self * rhs`, through the register-blocked 8-lane kernel (see the
    /// [module docs](self) for the accumulation-order contract it realises).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless `self.cols() == rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols() != rhs.rows() {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let k = self.cols();
        let n = rhs.cols();
        let mut out = Matrix::zeros(self.rows(), n);
        matmul_rows(self.as_slice(), rhs.as_slice(), k, n, 0, out.as_mut_slice());
        Ok(out)
    }

    /// Row-sharded parallel twin of [`Matrix::matmul`]: output rows are split into
    /// contiguous shards across `pool`, each computed by the very same per-row kernel the
    /// serial path runs. Because every output row is a function of one `self` row and all
    /// of `rhs` — accumulated in an order that does not depend on the shard — the result
    /// is **bit-identical** to [`Matrix::matmul`] at any thread count.
    ///
    /// Small products (fewer than ~128k multiply-adds) and serial pools skip the pool
    /// dispatch entirely and run the serial kernel inline.
    pub fn matmul_par(&self, rhs: &Matrix, pool: ThreadPool) -> Result<Matrix> {
        if self.cols() != rhs.rows() {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_par",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let (m, k) = self.shape();
        let n = rhs.cols();
        if pool.is_serial() || m < 2 || m * k * n < PAR_MATMUL_MIN_MADDS {
            return self.matmul(rhs);
        }
        let mut out = Matrix::zeros(m, n);
        let a = self.as_slice();
        let b = rhs.as_slice();
        pool.par_chunks(out.as_mut_slice(), n, |offset, chunk| {
            matmul_rows(a, b, k, n, offset / n, chunk);
        });
        Ok(out)
    }

    /// `self * rhs^T` without materialising the transpose, through the same
    /// register-blocked kernel as [`Matrix::matmul`] (each lane group packs a transposed
    /// panel of `rhs` first, so the microkernel's loads stay contiguous).
    pub fn matmul_transpose(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols() != rhs.cols() {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_transpose",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let n = rhs.rows();
        let mut out = Matrix::zeros(self.rows(), n);
        matmul_transpose_rows(self, rhs, n, 0, out.as_mut_slice());
        Ok(out)
    }

    /// Row-sharded parallel twin of [`Matrix::matmul_transpose`]; same bit-identity and
    /// small-product fallback contract as [`Matrix::matmul_par`].
    pub fn matmul_transpose_par(&self, rhs: &Matrix, pool: ThreadPool) -> Result<Matrix> {
        if self.cols() != rhs.cols() {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_transpose_par",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let (m, k) = self.shape();
        let n = rhs.rows();
        if pool.is_serial() || m < 2 || m * k * n < PAR_MATMUL_MIN_MADDS {
            return self.matmul_transpose(rhs);
        }
        let mut out = Matrix::zeros(m, n);
        pool.par_chunks(out.as_mut_slice(), n, |offset, chunk| {
            matmul_transpose_rows(self, rhs, n, offset / n, chunk);
        });
        Ok(out)
    }

    /// `selfᵀ * rhs` without materialising the transpose, through the strided "TN"
    /// register tiles: every element is the same sequential inner-index sum as
    /// `self.transpose().matmul(rhs)`, so the two are **bit-identical** — this is the
    /// product the tape's matmul backward needs for the right operand's gradient.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless `self.rows() == rhs.rows()`.
    pub fn transpose_matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        self.transpose_matmul_par(rhs, ThreadPool::serial())
    }

    /// Row-sharded parallel twin of [`Matrix::transpose_matmul`]: output rows (columns
    /// of `self`) are split across `pool`; same bit-identity and small-product fallback
    /// contract as [`Matrix::matmul_par`].
    pub fn transpose_matmul_par(&self, rhs: &Matrix, pool: ThreadPool) -> Result<Matrix> {
        if self.rows() != rhs.rows() {
            return Err(TensorError::ShapeMismatch {
                op: "transpose_matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let (k, m) = self.shape();
        let n = rhs.cols();
        let mut out = Matrix::zeros(m, n);
        let (a, b) = (self.as_slice(), rhs.as_slice());
        if pool.is_serial() || m < 2 || m * k * n < PAR_MATMUL_MIN_MADDS {
            gemm_tn(m, n, k, a, m, b, n, out.as_mut_slice(), n);
        } else {
            pool.par_chunks(out.as_mut_slice(), n, |offset, chunk| {
                let row0 = offset / n;
                gemm_tn(chunk.len() / n, n, k, &a[row0..], m, b, n, chunk, n);
            });
        }
        Ok(out)
    }

    /// Scalar reference implementation of [`Matrix::matmul`]: the textbook `i-k-j` loop,
    /// no register blocking, no lane unrolling. It realises the same
    /// [accumulation-order contract](self) as the blocked kernel — every element is a
    /// sequential `p`-ordered sum — so its result is **bit-identical** to
    /// [`Matrix::matmul`]; `tests/kernel_equivalence.rs` holds the two to `to_bits`
    /// equality over adversarial shapes and values, and
    /// `benches/kernel_throughput.rs` uses it as the speed baseline the blocked kernel
    /// must beat. Retained for those fences only (like `learn_sequential`); production
    /// paths must call [`Matrix::matmul`].
    pub fn matmul_ref(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols() != rhs.rows() {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_ref",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let k = self.cols();
        let n = rhs.cols();
        let (a, b) = (self.as_slice(), rhs.as_slice());
        let mut out = Matrix::zeros(self.rows(), n);
        for (i, c_row) in out.as_mut_slice().chunks_exact_mut(n.max(1)).enumerate() {
            let a_row = &a[i * k..(i + 1) * k];
            for (p, &a_ip) in a_row.iter().enumerate() {
                let b_row = &b[p * n..(p + 1) * n];
                for (c_v, &b_v) in c_row.iter_mut().zip(b_row.iter()) {
                    *c_v += a_ip * b_v;
                }
            }
        }
        Ok(out)
    }

    /// Scalar reference implementation of [`Matrix::matmul_transpose`]: one sequential
    /// dot product per output element. Same retention contract as
    /// [`Matrix::matmul_ref`] — bit-identical oracle for the differential suite, speed
    /// baseline for the throughput bench, not a production path.
    pub fn matmul_transpose_ref(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols() != rhs.cols() {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_transpose_ref",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let n = rhs.rows();
        let mut out = Matrix::zeros(self.rows(), n);
        for i in 0..self.rows() {
            let a_row = self.row(i);
            let c_row = &mut out.as_mut_slice()[i * n..(i + 1) * n];
            for (j, c_v) in c_row.iter_mut().enumerate() {
                *c_v = seq_dot(a_row, rhs.row(j));
            }
        }
        Ok(out)
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let (m, n) = self.shape();
        let mut out = Matrix::zeros(n, m);
        if m > 0 && n > 0 {
            let dst = out.as_mut_slice();
            for (i, row) in self.as_slice().chunks_exact(n).enumerate() {
                for (d, &v) in dst[i..].iter_mut().step_by(m).zip(row) {
                    *d = v;
                }
            }
        }
        out
    }

    fn check_same_shape(&self, rhs: &Matrix, op: &'static str) -> Result<()> {
        if self.shape() != rhs.shape() {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        Ok(())
    }

    /// Element-wise sum.
    pub fn add(&self, rhs: &Matrix) -> Result<Matrix> {
        self.check_same_shape(rhs, "add")?;
        let mut out = self.clone();
        for (o, &r) in out.as_mut_slice().iter_mut().zip(rhs.as_slice()) {
            *o += r;
        }
        Ok(out)
    }

    /// In-place element-wise sum; used by gradient accumulation.
    pub fn add_assign(&mut self, rhs: &Matrix) -> Result<()> {
        self.check_same_shape(rhs, "add_assign")?;
        for (o, &r) in self.as_mut_slice().iter_mut().zip(rhs.as_slice()) {
            *o += r;
        }
        Ok(())
    }

    /// In-place `self += alpha * rhs` (axpy).
    pub fn add_scaled_assign(&mut self, rhs: &Matrix, alpha: f32) -> Result<()> {
        self.check_same_shape(rhs, "add_scaled_assign")?;
        for (o, &r) in self.as_mut_slice().iter_mut().zip(rhs.as_slice()) {
            *o += alpha * r;
        }
        Ok(())
    }

    /// Element-wise difference.
    pub fn sub(&self, rhs: &Matrix) -> Result<Matrix> {
        self.check_same_shape(rhs, "sub")?;
        let mut out = self.clone();
        for (o, &r) in out.as_mut_slice().iter_mut().zip(rhs.as_slice()) {
            *o -= r;
        }
        Ok(out)
    }

    /// Element-wise (Hadamard) product.
    pub fn hadamard(&self, rhs: &Matrix) -> Result<Matrix> {
        self.check_same_shape(rhs, "hadamard")?;
        let mut out = self.clone();
        for (o, &r) in out.as_mut_slice().iter_mut().zip(rhs.as_slice()) {
            *o *= r;
        }
        Ok(out)
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, alpha: f32) -> Matrix {
        let mut out = self.clone();
        for v in out.as_mut_slice() {
            *v *= alpha;
        }
        out
    }

    /// Adds a scalar to every element.
    pub fn shift(&self, delta: f32) -> Matrix {
        let mut out = self.clone();
        for v in out.as_mut_slice() {
            *v += delta;
        }
        out
    }

    /// Applies `f` to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        let mut out = self.clone();
        for v in out.as_mut_slice() {
            *v = f(*v);
        }
        out
    }

    /// Rectified linear unit.
    pub fn relu(&self) -> Matrix {
        self.map(|v| if v > 0.0 { v } else { 0.0 })
    }

    /// Adds a `1 x cols` row vector to every row.
    pub fn add_row_broadcast(&self, row: &Matrix) -> Result<Matrix> {
        if row.rows() != 1 || row.cols() != self.cols() {
            return Err(TensorError::ShapeMismatch {
                op: "add_row_broadcast",
                lhs: self.shape(),
                rhs: row.shape(),
            });
        }
        let mut out = self.clone();
        let bias = row.as_slice();
        // Row-slice addition (one add per element, so bit-identical to any loop order);
        // the contiguous zip auto-vectorises, which matters because every Linear /
        // RowwiseFF / attention-projection layer runs this right after its matmul.
        for r in 0..out.rows() {
            for (o, &b) in out.row_mut(r).iter_mut().zip(bias.iter()) {
                *o += b;
            }
        }
        Ok(out)
    }

    /// Row-wise softmax: every row is exponentiated (after subtracting its max for stability)
    /// and normalised to sum to one. Rows of all `-inf` become uniform zero-safe rows.
    pub fn softmax_rows(&self) -> Matrix {
        let mut out = self.clone();
        for r in 0..out.rows() {
            softmax_row_in_place(out.row_mut(r));
        }
        out
    }

    /// Vector-Jacobian product of [`Matrix::softmax_rows`]: with `self` the softmax
    /// output `s` and `upstream` the gradient `dy` of its rows, returns
    /// `dx = s ∘ (dy − ⟨dy, s⟩)` row by row — the reverse-mode rule of the tape's
    /// softmax node and of the fused attention backward, which share this one formula.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
    pub fn softmax_rows_vjp(&self, upstream: &Matrix) -> Result<Matrix> {
        self.check_same_shape(upstream, "softmax_rows_vjp")?;
        let mut grad = upstream.clone();
        for r in 0..self.rows() {
            softmax_row_vjp_in_place(self.row(r), grad.row_mut(r));
        }
        Ok(grad)
    }

    /// Horizontal concatenation `[self | rhs]`.
    pub fn concat_cols(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.rows() != rhs.rows() {
            return Err(TensorError::ShapeMismatch {
                op: "concat_cols",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows(), self.cols() + rhs.cols());
        for r in 0..self.rows() {
            out.row_mut(r)[..self.cols()].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols()..].copy_from_slice(rhs.row(r));
        }
        Ok(out)
    }

    /// Vertical concatenation (stack `rhs` below `self`).
    pub fn concat_rows(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols() != rhs.cols() {
            return Err(TensorError::ShapeMismatch {
                op: "concat_rows",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut data = Vec::with_capacity(self.len() + rhs.len());
        data.extend_from_slice(self.as_slice());
        data.extend_from_slice(rhs.as_slice());
        Matrix::from_vec(self.rows() + rhs.rows(), self.cols(), data)
    }

    /// Copies columns `[start, end)` into a new matrix.
    pub fn slice_cols(&self, start: usize, end: usize) -> Result<Matrix> {
        if start > end || end > self.cols() {
            return Err(TensorError::IndexOutOfBounds {
                op: "slice_cols",
                index: end,
                bound: self.cols() + 1,
            });
        }
        let mut out = Matrix::zeros(self.rows(), end - start);
        for r in 0..self.rows() {
            out.row_mut(r).copy_from_slice(&self.row(r)[start..end]);
        }
        Ok(out)
    }

    /// Copies rows `[start, end)` into a new matrix.
    pub fn slice_rows(&self, start: usize, end: usize) -> Result<Matrix> {
        if start > end || end > self.rows() {
            return Err(TensorError::IndexOutOfBounds {
                op: "slice_rows",
                index: end,
                bound: self.rows() + 1,
            });
        }
        let mut out = Matrix::zeros(end - start, self.cols());
        for (dst, src) in (start..end).enumerate() {
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
        Ok(out)
    }

    /// Stacks several matrices with equal column counts into one `[Σ rows, cols]` matrix.
    ///
    /// This is the packing step of batched inference: `N` per-session state matrices become
    /// one buffer, so every row-wise layer (`matmul`, bias broadcast, activations) runs as a
    /// single stacked operation instead of `N` small ones. Because those operations act on
    /// each row independently, the packed result is bit-identical to processing the parts
    /// one at a time.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the parts disagree on column count.
    /// An empty part list yields a `0 x 0` matrix.
    pub fn vstack(parts: &[&Matrix]) -> Result<Matrix> {
        let Some(first) = parts.first() else {
            return Ok(Matrix::zeros(0, 0));
        };
        let cols = first.cols();
        let mut rows = 0;
        for part in parts {
            if part.cols() != cols {
                return Err(TensorError::ShapeMismatch {
                    op: "vstack",
                    lhs: first.shape(),
                    rhs: part.shape(),
                });
            }
            rows += part.rows();
        }
        let mut data = Vec::with_capacity(rows * cols);
        for part in parts {
            data.extend_from_slice(part.as_slice());
        }
        Matrix::from_vec(rows, cols, data)
    }

    /// Overwrites rows `[start, start + src.rows())` of `self` with the rows of `src` — the
    /// scatter step of batched inference, writing a per-session result block back into the
    /// packed buffer.
    ///
    /// # Errors
    ///
    /// Returns an error when the column counts differ or the block does not fit.
    pub fn paste_rows(&mut self, start: usize, src: &Matrix) -> Result<()> {
        if src.cols() != self.cols() {
            return Err(TensorError::ShapeMismatch {
                op: "paste_rows",
                lhs: self.shape(),
                rhs: src.shape(),
            });
        }
        let end = start + src.rows();
        if end > self.rows() {
            return Err(TensorError::IndexOutOfBounds {
                op: "paste_rows",
                index: end,
                bound: self.rows() + 1,
            });
        }
        for r in 0..src.rows() {
            self.row_mut(start + r).copy_from_slice(src.row(r));
        }
        Ok(())
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.as_slice().iter().sum()
    }

    /// Mean of all elements (0 for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Per-row sums as a `rows x 1` column vector.
    pub fn row_sums(&self) -> Matrix {
        let sums: Vec<f32> = (0..self.rows()).map(|r| self.row(r).iter().sum()).collect();
        Matrix::col_vector(&sums)
    }

    /// Per-column sums as a `1 x cols` row vector.
    pub fn col_sums(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols());
        // Row by row, so every column's sum still runs over the rows in increasing order.
        for r in 0..self.rows() {
            for (o, &v) in out.as_mut_slice().iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
        out
    }

    /// Per-column means as a `1 x cols` row vector.
    pub fn col_means(&self) -> Matrix {
        if self.rows() == 0 {
            return Matrix::zeros(1, self.cols());
        }
        self.col_sums().scale(1.0 / self.rows() as f32)
    }

    /// Maximum element. Errors on an empty matrix.
    pub fn max(&self) -> Result<f32> {
        self.as_slice()
            .iter()
            .cloned()
            .fold(None, |acc: Option<f32>, v| {
                Some(acc.map_or(v, |a| a.max(v)))
            })
            .ok_or(TensorError::EmptyInput { op: "max" })
    }

    /// Index (row-major) and value of the maximum element. Errors on an empty matrix.
    pub fn argmax(&self) -> Result<(usize, f32)> {
        let mut best: Option<(usize, f32)> = None;
        for (i, &v) in self.as_slice().iter().enumerate() {
            match best {
                Some((_, bv)) if v <= bv => {}
                _ => best = Some((i, v)),
            }
        }
        best.ok_or(TensorError::EmptyInput { op: "argmax" })
    }

    /// Squared Frobenius norm.
    pub fn squared_norm(&self) -> f32 {
        self.as_slice().iter().map(|v| v * v).sum()
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.squared_norm().sqrt()
    }

    /// Dot product between two matrices of identical shape (sum of the Hadamard product).
    pub fn dot(&self, rhs: &Matrix) -> Result<f32> {
        self.check_same_shape(rhs, "dot")?;
        Ok(self
            .as_slice()
            .iter()
            .zip(rhs.as_slice())
            .map(|(&a, &b)| a * b)
            .sum())
    }

    /// Cosine similarity between two same-shape matrices (flattened). Returns 0 when either
    /// operand has zero norm.
    pub fn cosine_similarity(&self, rhs: &Matrix) -> Result<f32> {
        let dot = self.dot(rhs)?;
        let denom = self.norm() * rhs.norm();
        if denom <= f32::EPSILON {
            Ok(0.0)
        } else {
            Ok(dot / denom)
        }
    }

    /// Clamps every element into `[lo, hi]`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Matrix {
        self.map(|v| v.clamp(lo, hi))
    }
}

/// Softmax of one row in place: exponentiate after subtracting the row max, then
/// normalise by the sequential sum; a row whose max is not finite (all `-inf`) becomes
/// uniform. The one row rule of [`Matrix::softmax_rows`] and the fused attention kernels.
pub(crate) fn softmax_row_in_place(row: &mut [f32]) {
    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    if !max.is_finite() {
        let n = row.len() as f32;
        for v in row.iter_mut() {
            *v = 1.0 / n;
        }
        return;
    }
    let mut sum = 0.0;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    if sum > 0.0 {
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

/// Softmax VJP of one row in place: `d ← s ∘ (d − ⟨d, s⟩)`, with `s` the row's softmax
/// output and `d` its upstream gradient (see [`Matrix::softmax_rows_vjp`]).
pub(crate) fn softmax_row_vjp_in_place(s: &[f32], d: &mut [f32]) {
    let inner: f32 = s.iter().zip(d.iter()).map(|(&si, &di)| si * di).sum();
    for (o, &si) in d.iter_mut().zip(s) {
        *o = si * (*o - inner);
    }
}

/// Dot product of two equal-length slices; tiny helper used throughout the baselines.
pub fn dot_slices(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum()
}

/// Cosine similarity of two equal-length slices (0 when either has zero norm).
pub fn cosine_slices(a: &[f32], b: &[f32]) -> f32 {
    let dot = dot_slices(a, b);
    let na = dot_slices(a, a).sqrt();
    let nb = dot_slices(b, b).sqrt();
    if na <= f32::EPSILON || nb <= f32::EPSILON {
        0.0
    } else {
        dot / (na * nb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::Rng;

    fn m(rows: usize, cols: usize, data: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, data.to_vec()).unwrap()
    }

    #[test]
    fn matmul_small() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_shape_error() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(TensorError::ShapeMismatch { op: "matmul", .. })
        ));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let mut rng = Rng::seed_from(0);
        let a = Matrix::randn(4, 4, &mut rng);
        let id = Matrix::identity(4);
        assert_eq!(a.matmul(&id).unwrap(), a);
        assert_eq!(id.matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_transpose_matches_explicit() {
        let mut rng = Rng::seed_from(1);
        let a = Matrix::randn(3, 5, &mut rng);
        let b = Matrix::randn(4, 5, &mut rng);
        let fast = a.matmul_transpose(&b).unwrap();
        let slow = a.matmul(&b.transpose()).unwrap();
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn transpose_involution() {
        let mut rng = Rng::seed_from(2);
        let a = Matrix::randn(3, 7, &mut rng);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn elementwise_ops() {
        let a = m(1, 3, &[1.0, 2.0, 3.0]);
        let b = m(1, 3, &[4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).unwrap().as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.hadamard(&b).unwrap().as_slice(), &[4.0, 10.0, 18.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0, 6.0]);
        assert_eq!(a.shift(1.0).as_slice(), &[2.0, 3.0, 4.0]);
        assert!(a.add(&Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn add_assign_and_axpy() {
        let mut a = m(1, 2, &[1.0, 2.0]);
        a.add_assign(&m(1, 2, &[3.0, 4.0])).unwrap();
        assert_eq!(a.as_slice(), &[4.0, 6.0]);
        a.add_scaled_assign(&m(1, 2, &[1.0, 1.0]), 0.5).unwrap();
        assert_eq!(a.as_slice(), &[4.5, 6.5]);
    }

    #[test]
    fn relu_and_map() {
        let a = m(1, 4, &[-1.0, 0.0, 2.0, -3.0]);
        assert_eq!(a.relu().as_slice(), &[0.0, 0.0, 2.0, 0.0]);
        assert_eq!(a.map(|v| v * v).as_slice(), &[1.0, 0.0, 4.0, 9.0]);
    }

    #[test]
    fn row_broadcast() {
        let a = Matrix::zeros(2, 3);
        let bias = Matrix::row_vector(&[1.0, 2.0, 3.0]);
        let out = a.add_row_broadcast(&bias).unwrap();
        assert_eq!(out.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(out.row(1), &[1.0, 2.0, 3.0]);
        assert!(a.add_row_broadcast(&Matrix::zeros(1, 2)).is_err());
    }

    #[test]
    fn softmax_rows_sum_to_one_and_are_stable() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 1000.0, 1000.0, 1000.0]);
        let s = a.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        assert!(s.all_finite());
        // Larger logits get larger probabilities.
        assert!(s.get(0, 2) > s.get(0, 1));
    }

    #[test]
    fn softmax_handles_fully_masked_row() {
        let a = m(1, 3, &[f32::NEG_INFINITY; 3]);
        let s = a.softmax_rows();
        assert!(s.all_finite());
    }

    #[test]
    fn concat_and_slice() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = m(2, 1, &[5.0, 6.0]);
        let cat = a.concat_cols(&b).unwrap();
        assert_eq!(cat.row(0), &[1.0, 2.0, 5.0]);
        assert_eq!(cat.row(1), &[3.0, 4.0, 6.0]);
        assert_eq!(cat.slice_cols(2, 3).unwrap(), b);
        assert_eq!(cat.slice_cols(0, 2).unwrap(), a);
        assert!(cat.slice_cols(1, 5).is_err());

        let stacked = a.concat_rows(&m(1, 2, &[7.0, 8.0])).unwrap();
        assert_eq!(stacked.shape(), (3, 2));
        assert_eq!(stacked.row(2), &[7.0, 8.0]);
        assert_eq!(stacked.slice_rows(2, 3).unwrap().row(0), &[7.0, 8.0]);
    }

    #[test]
    fn reductions() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.row_sums().as_slice(), &[3.0, 7.0]);
        assert_eq!(a.col_sums().as_slice(), &[4.0, 6.0]);
        assert_eq!(a.col_means().as_slice(), &[2.0, 3.0]);
        assert_eq!(a.max().unwrap(), 4.0);
        assert_eq!(a.argmax().unwrap(), (3, 4.0));
        assert!((a.norm() - 30.0f32.sqrt()).abs() < 1e-6);
        assert!(Matrix::zeros(0, 0).max().is_err());
        assert!(Matrix::zeros(0, 0).argmax().is_err());
    }

    #[test]
    fn dot_and_cosine() {
        let a = m(1, 3, &[1.0, 0.0, 0.0]);
        let b = m(1, 3, &[0.0, 1.0, 0.0]);
        assert_eq!(a.dot(&b).unwrap(), 0.0);
        assert_eq!(a.cosine_similarity(&b).unwrap(), 0.0);
        assert!((a.cosine_similarity(&a).unwrap() - 1.0).abs() < 1e-6);
        let zero = Matrix::zeros(1, 3);
        assert_eq!(a.cosine_similarity(&zero).unwrap(), 0.0);
    }

    #[test]
    fn clamp_bounds() {
        let a = m(1, 3, &[-5.0, 0.5, 7.0]);
        assert_eq!(a.clamp(0.0, 1.0).as_slice(), &[0.0, 0.5, 1.0]);
    }

    #[test]
    fn slice_helpers() {
        assert_eq!(dot_slices(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert!((cosine_slices(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-6);
        assert_eq!(cosine_slices(&[0.0, 0.0], &[1.0, 0.0]), 0.0);
    }
}

// Seeded randomised property tests. The original version used `proptest`, which is not
// available in the offline build environment; these sweeps keep the same property coverage
// with the workspace's own deterministic Rng.
#[cfg(test)]
mod proptests {
    use crate::error::TensorError;
    use crate::matrix::Matrix;
    use crate::random::Rng;

    const CASES: usize = 64;

    fn random_matrix(max_dim: usize, rng: &mut Rng) -> Matrix {
        let r = rng.range(1, max_dim + 1);
        let c = rng.range(1, max_dim + 1);
        let data: Vec<f32> = (0..r * c).map(|_| rng.uniform(-10.0, 10.0)).collect();
        Matrix::from_vec(r, c, data).unwrap()
    }

    #[test]
    fn transpose_is_involution() {
        let mut rng = Rng::seed_from(101);
        for _ in 0..CASES {
            let m = random_matrix(8, &mut rng);
            assert_eq!(m.transpose().transpose(), m);
        }
    }

    #[test]
    fn add_is_commutative() {
        let mut rng = Rng::seed_from(102);
        for _ in 0..CASES {
            let m = random_matrix(6, &mut rng);
            let other = m.scale(0.5);
            assert_eq!(m.add(&other).unwrap(), other.add(&m).unwrap());
        }
    }

    #[test]
    fn scale_distributes_over_add() {
        let mut rng = Rng::seed_from(103);
        for _ in 0..CASES {
            let m = random_matrix(6, &mut rng);
            let alpha = rng.uniform(-3.0, 3.0);
            let other = m.map(|v| v - 1.0);
            let lhs = m.add(&other).unwrap().scale(alpha);
            let rhs = m.scale(alpha).add(&other.scale(alpha)).unwrap();
            for (a, b) in lhs.as_slice().iter().zip(rhs.as_slice()) {
                assert!((a - b).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn softmax_rows_are_probabilities() {
        let mut rng = Rng::seed_from(104);
        for _ in 0..CASES {
            let m = random_matrix(7, &mut rng);
            let s = m.softmax_rows();
            for r in 0..s.rows() {
                let sum: f32 = s.row(r).iter().sum();
                assert!((sum - 1.0).abs() < 1e-4);
                assert!(s.row(r).iter().all(|&v| (0.0..=1.0 + 1e-6).contains(&v)));
            }
        }
    }

    #[test]
    fn matmul_associativity() {
        let mut rng = Rng::seed_from(105);
        for _ in 0..CASES {
            let a = random_matrix(5, &mut rng);
            // Build compatible b and c from a's shape deterministically.
            let (r, c) = a.shape();
            let b = Matrix::filled(c, 3, 0.5);
            let cc = Matrix::filled(3, 2, -0.25);
            let left = a.matmul(&b).unwrap().matmul(&cc).unwrap();
            let right = a.matmul(&b.matmul(&cc).unwrap()).unwrap();
            assert_eq!(left.shape(), (r, 2));
            for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
                assert!((x - y).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn concat_then_slice_roundtrip() {
        let mut rng = Rng::seed_from(106);
        for _ in 0..CASES {
            let a = random_matrix(6, &mut rng);
            let b = a.map(|v| v + 1.0);
            let cat = a.concat_cols(&b).unwrap();
            assert_eq!(cat.slice_cols(0, a.cols()).unwrap(), a.clone());
            assert_eq!(cat.slice_cols(a.cols(), cat.cols()).unwrap(), b);
        }
    }

    #[test]
    fn relu_is_idempotent_and_nonnegative() {
        let mut rng = Rng::seed_from(107);
        for _ in 0..CASES {
            let m = random_matrix(8, &mut rng);
            let r = m.relu();
            assert_eq!(r.relu(), r.clone());
            assert!(r.as_slice().iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn vstack_packs_and_slice_rows_unpacks() {
        let mut rng = Rng::seed_from(108);
        let a = Matrix::randn(3, 4, &mut rng);
        let b = Matrix::randn(1, 4, &mut rng);
        let c = Matrix::randn(2, 4, &mut rng);
        let packed = Matrix::vstack(&[&a, &b, &c]).unwrap();
        assert_eq!(packed.shape(), (6, 4));
        assert_eq!(packed.slice_rows(0, 3).unwrap(), a);
        assert_eq!(packed.slice_rows(3, 4).unwrap(), b);
        assert_eq!(packed.slice_rows(4, 6).unwrap(), c);
        // Column mismatch is rejected; an empty list packs to nothing.
        assert!(Matrix::vstack(&[&a, &Matrix::zeros(2, 3)]).is_err());
        assert_eq!(Matrix::vstack(&[]).unwrap().shape(), (0, 0));
    }

    #[test]
    fn stacked_matmul_is_bit_identical_to_per_part_matmul() {
        // The property batched inference relies on: a row-wise op over the packed buffer
        // produces exactly the bits of the per-part ops.
        let mut rng = Rng::seed_from(109);
        for _ in 0..CASES {
            let a = random_matrix(5, &mut rng);
            let b = Matrix::randn(rng.range(1, 6), a.cols(), &mut rng);
            let w = Matrix::randn(a.cols(), 3, &mut rng);
            let packed = Matrix::vstack(&[&a, &b]).unwrap();
            let stacked = packed.matmul(&w).unwrap();
            assert_eq!(
                stacked.slice_rows(0, a.rows()).unwrap(),
                a.matmul(&w).unwrap()
            );
            assert_eq!(
                stacked.slice_rows(a.rows(), packed.rows()).unwrap(),
                b.matmul(&w).unwrap()
            );
        }
    }

    #[test]
    fn matmul_par_is_bit_identical_to_serial_at_any_thread_count() {
        // Above the sharding threshold: 192 x 48 @ 48 x 64 = ~590k madds, so the pooled
        // path really shards rows instead of falling back to the serial kernel.
        let mut rng = Rng::seed_from(111);
        let a = Matrix::randn(192, 48, &mut rng);
        let b = Matrix::randn(48, 64, &mut rng);
        let serial = a.matmul(&b).unwrap();
        for threads in [1usize, 2, 3, 8, 300] {
            let pool = crowd_parallel::ThreadPool::new(threads);
            let par = a.matmul_par(&b, pool).unwrap();
            assert_eq!(par, serial, "matmul_par diverged at {threads} threads");
        }
        // Shape errors are reported under the parallel op name.
        assert!(matches!(
            a.matmul_par(&Matrix::zeros(2, 2), crowd_parallel::ThreadPool::new(4)),
            Err(TensorError::ShapeMismatch {
                op: "matmul_par",
                ..
            })
        ));
    }

    #[test]
    fn matmul_transpose_par_is_bit_identical_to_serial() {
        let mut rng = Rng::seed_from(112);
        let a = Matrix::randn(160, 64, &mut rng);
        let b = Matrix::randn(96, 64, &mut rng);
        let serial = a.matmul_transpose(&b).unwrap();
        for threads in [1usize, 2, 7, 16] {
            let pool = crowd_parallel::ThreadPool::new(threads);
            let par = a.matmul_transpose_par(&b, pool).unwrap();
            assert_eq!(
                par, serial,
                "matmul_transpose_par diverged at {threads} threads"
            );
        }
        assert!(a
            .matmul_transpose_par(&Matrix::zeros(2, 2), crowd_parallel::ThreadPool::new(2))
            .is_err());
    }

    #[test]
    fn small_products_fall_back_to_the_serial_kernel() {
        // Below the threshold the parallel entry points must still produce the same bits
        // (they run the serial kernel), including degenerate shapes.
        let mut rng = Rng::seed_from(113);
        let pool = crowd_parallel::ThreadPool::new(8);
        let a = Matrix::randn(3, 5, &mut rng);
        let b = Matrix::randn(5, 2, &mut rng);
        assert_eq!(a.matmul_par(&b, pool).unwrap(), a.matmul(&b).unwrap());
        let empty = Matrix::zeros(0, 5);
        assert_eq!(empty.matmul_par(&b, pool).unwrap().shape(), (0, 2));
        let single = Matrix::randn(1, 2048, &mut rng);
        let wide = Matrix::randn(2048, 512, &mut rng);
        // One row can never shard, no matter how much work it holds.
        assert_eq!(
            single.matmul_par(&wide, pool).unwrap(),
            single.matmul(&wide).unwrap()
        );
    }

    #[test]
    fn blocked_kernels_match_the_scalar_references_bit_for_bit() {
        // The unit-level smoke of the contract; the adversarial sweep lives in
        // tests/kernel_equivalence.rs.
        let mut rng = Rng::seed_from(114);
        for _ in 0..CASES {
            let m = rng.range(1, 12);
            let k = rng.range(1, 12);
            let n = rng.range(1, 20); // crosses the 8-lane boundary both ways
            let a = Matrix::randn(m, k, &mut rng);
            let b = Matrix::randn(k, n, &mut rng);
            let bt = b.transpose();
            let fast = a.matmul(&b).unwrap();
            let reference = a.matmul_ref(&b).unwrap();
            for (x, y) in fast.as_slice().iter().zip(reference.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "matmul {m}x{k}x{n}");
            }
            let fast_t = a.matmul_transpose(&bt).unwrap();
            let reference_t = a.matmul_transpose_ref(&bt).unwrap();
            for (x, y) in fast_t.as_slice().iter().zip(reference_t.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "matmul_transpose {m}x{k}x{n}");
            }
        }
        // The references report shape mismatches under their own op names.
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul_ref(&Matrix::zeros(2, 3)),
            Err(TensorError::ShapeMismatch {
                op: "matmul_ref",
                ..
            })
        ));
        assert!(matches!(
            a.matmul_transpose_ref(&Matrix::zeros(2, 2)),
            Err(TensorError::ShapeMismatch {
                op: "matmul_transpose_ref",
                ..
            })
        ));
    }

    #[test]
    fn paste_rows_scatters_blocks_back() {
        let mut rng = Rng::seed_from(110);
        let a = Matrix::randn(2, 3, &mut rng);
        let b = Matrix::randn(3, 3, &mut rng);
        let mut packed = Matrix::zeros(5, 3);
        packed.paste_rows(0, &a).unwrap();
        packed.paste_rows(2, &b).unwrap();
        assert_eq!(packed, Matrix::vstack(&[&a, &b]).unwrap());
        // Shape and bounds violations are rejected.
        assert!(packed.paste_rows(0, &Matrix::zeros(1, 2)).is_err());
        assert!(packed.paste_rows(4, &Matrix::zeros(2, 3)).is_err());
    }
}
