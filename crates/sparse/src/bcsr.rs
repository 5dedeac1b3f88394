//! Block compressed sparse row (BCSR) storage — the PETSc `BAIJ` analogue.
//!
//! "Structural blocking" (Section 2.1.2 of the paper): once the field
//! variables at a grid point are interlaced, the Jacobian of a `b`-component
//! PDE system decomposes into dense `b x b` blocks, one per pair of adjacent
//! mesh points.  Storing the matrix block-wise divides the column-index
//! array by `b*b` relative to point CSR — the reduction of integer loads and
//! the register-level reuse of `x` sub-vectors are what Table 1's "Structural
//! Blocking" column measures.

use crate::csr::CsrMatrix;
use crate::par::ParCtx;
use std::ops::Range;

/// A square-blocked sparse matrix with dense `b x b` blocks in row-major
/// order within each block.
#[derive(Debug, Clone, PartialEq)]
pub struct BcsrMatrix {
    /// Number of block rows.
    nbrows: usize,
    /// Number of block columns.
    nbcols: usize,
    /// Block size `b`.
    b: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    /// Blocks, `b*b` values each, row-major within the block.
    values: Vec<f64>,
    /// When built via [`BcsrMatrix::from_csr`]: for each nonzero of the
    /// source CSR matrix, its destination slot in `values` — makes
    /// [`BcsrMatrix::refill_from_csr`] a straight permutation copy.
    csr_value_map: Vec<u32>,
}

impl BcsrMatrix {
    /// Build from raw block-CSR arrays.
    ///
    /// # Panics
    /// Panics on inconsistent arrays.
    pub fn from_raw(
        nbrows: usize,
        nbcols: usize,
        b: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Self {
        assert!(b >= 1, "block size must be >= 1");
        assert_eq!(row_ptr.len(), nbrows + 1);
        assert_eq!(
            values.len(),
            col_idx.len() * b * b,
            "values must hold b*b per block"
        );
        assert_eq!(*row_ptr.last().unwrap(), col_idx.len());
        assert!(
            row_ptr.windows(2).all(|w| w[0] <= w[1]),
            "row_ptr not monotone"
        );
        assert!(col_idx.iter().all(|&c| (c as usize) < nbcols));
        Self {
            nbrows,
            nbcols,
            b,
            row_ptr,
            col_idx,
            values,
            csr_value_map: Vec::new(),
        }
    }

    /// Convert a point CSR matrix into BCSR with block size `b`.
    ///
    /// A block is stored whenever *any* of its `b*b` point entries is stored;
    /// absent point entries within a stored block become explicit zeros (this
    /// is exactly what `MatConvert` to BAIJ does, and is the source of the
    /// slight nnz inflation blocking trades for fewer index loads).
    ///
    /// # Panics
    /// Panics if the dimensions are not multiples of `b`.
    pub fn from_csr(a: &CsrMatrix, b: usize) -> Self {
        assert!(b >= 1);
        assert_eq!(a.nrows() % b, 0, "rows not a multiple of block size");
        assert_eq!(a.ncols() % b, 0, "cols not a multiple of block size");
        let nbrows = a.nrows() / b;
        let nbcols = a.ncols() / b;
        let mut row_ptr = Vec::with_capacity(nbrows + 1);
        let mut col_idx: Vec<u32> = Vec::new();
        let mut values: Vec<f64> = Vec::new();
        let mut csr_value_map = vec![0u32; a.nnz()];
        row_ptr.push(0usize);
        // For each block row, merge the block-column sets of its b point rows.
        let mut bcols: Vec<u32> = Vec::new();
        for bi in 0..nbrows {
            bcols.clear();
            for r in 0..b {
                for &c in a.row_cols(bi * b + r) {
                    bcols.push(c / b as u32);
                }
            }
            bcols.sort_unstable();
            bcols.dedup();
            let base_block = col_idx.len();
            col_idx.extend_from_slice(&bcols);
            values.resize(col_idx.len() * b * b, 0.0);
            for r in 0..b {
                let i = bi * b + r;
                let cols = a.row_cols(i);
                let vals = a.row_vals(i);
                let row_base = a.row_ptr()[i];
                for (k, &c) in cols.iter().enumerate() {
                    let bc = c / b as u32;
                    let within = (c % b as u32) as usize;
                    // bcols is sorted & deduped: binary search.
                    let pos = bcols.binary_search(&bc).expect("block col must exist");
                    let blk = base_block + pos;
                    let slot = blk * b * b + r * b + within;
                    values[slot] = vals[k];
                    csr_value_map[row_base + k] = slot as u32;
                }
            }
            row_ptr.push(col_idx.len());
        }
        let mut out = Self::from_raw(nbrows, nbcols, b, row_ptr, col_idx, values);
        out.csr_value_map = csr_value_map;
        out
    }

    /// Refill values from a point CSR matrix with the *same pattern* this
    /// BCSR was built from, without re-deriving the symbolic structure.
    /// This is the per-Newton-step path: the Jacobian pattern is fixed, only
    /// values change.
    ///
    /// # Panics
    /// Panics if a point entry falls outside the stored block pattern.
    pub fn refill_from_csr(&mut self, a: &CsrMatrix) {
        assert_eq!(a.nrows(), self.nrows(), "refill dimension mismatch");
        assert_eq!(a.ncols(), self.ncols(), "refill dimension mismatch");
        assert_eq!(
            a.nnz(),
            self.csr_value_map.len(),
            "refill requires the pattern this BCSR was built from"
        );
        self.values.iter_mut().for_each(|v| *v = 0.0);
        for (k, &slot) in self.csr_value_map.iter().enumerate() {
            self.values[slot as usize] = a.values()[k];
        }
    }

    /// Expand back to point CSR (explicit zeros inside blocks are kept, so
    /// the pattern is the blocked pattern).
    pub fn to_csr(&self) -> CsrMatrix {
        let b = self.b;
        let mut row_ptr = Vec::with_capacity(self.nbrows * b + 1);
        let mut col_idx = Vec::with_capacity(self.nnz_blocks() * b * b);
        let mut values = Vec::with_capacity(self.nnz_blocks() * b * b);
        row_ptr.push(0usize);
        for bi in 0..self.nbrows {
            for r in 0..b {
                for k in self.row_ptr[bi]..self.row_ptr[bi + 1] {
                    let bc = self.col_idx[k] as usize;
                    for c in 0..b {
                        col_idx.push((bc * b + c) as u32);
                        values.push(self.values[k * b * b + r * b + c]);
                    }
                }
                row_ptr.push(col_idx.len());
            }
        }
        CsrMatrix::from_raw(self.nbrows * b, self.nbcols * b, row_ptr, col_idx, values)
    }

    /// Block size.
    pub fn block_size(&self) -> usize {
        self.b
    }

    /// Nonzero count of the point-CSR matrix this was built from via
    /// [`BcsrMatrix::from_csr`] (0 for matrices built from raw arrays).
    /// [`BcsrMatrix::refill_from_csr`] requires a source with exactly this
    /// many nonzeros; callers reusing a BCSR as a structure template should
    /// check it before refilling.
    pub fn csr_nnz(&self) -> usize {
        self.csr_value_map.len()
    }

    /// Number of block rows.
    pub fn nbrows(&self) -> usize {
        self.nbrows
    }

    /// Number of block columns.
    pub fn nbcols(&self) -> usize {
        self.nbcols
    }

    /// Number of point rows (`nbrows * b`).
    pub fn nrows(&self) -> usize {
        self.nbrows * self.b
    }

    /// Number of point columns.
    pub fn ncols(&self) -> usize {
        self.nbcols * self.b
    }

    /// Number of stored blocks.
    pub fn nnz_blocks(&self) -> usize {
        self.col_idx.len()
    }

    /// Block row pointer array.
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Block column index array.
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// Raw block values (`nnz_blocks * b * b`).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable raw block values.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// The `k`-th stored block as a `b*b` row-major slice.
    pub fn block(&self, k: usize) -> &[f64] {
        let bb = self.b * self.b;
        &self.values[k * bb..(k + 1) * bb]
    }

    /// Block-column indices of block row `bi`.
    pub fn row_bcols(&self, bi: usize) -> &[u32] {
        &self.col_idx[self.row_ptr[bi]..self.row_ptr[bi + 1]]
    }

    /// Block sparse matrix-vector product `y <- A x`.
    ///
    /// Each `b`-entry slice of `x` is loaded once per adjacent block and
    /// reused across the block's `b` rows — the register-level reuse that
    /// point CSR cannot express.  Block sizes 1..=5 (4: incompressible,
    /// 5: compressible) run const-unrolled lane kernels; other sizes run
    /// the runtime-`b` loops of [`spmv_generic`](Self::spmv_generic).
    /// Both are bitwise identical.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        self.spmv_par(x, y, &ParCtx::seq());
    }

    /// Block-row-partitioned parallel [`spmv`](Self::spmv): each thread
    /// computes its contiguous chunk of block rows into the matching
    /// disjoint `b`-aligned slice of `y`.  Block rows are independent, so
    /// the result is bitwise identical to the sequential kernel for any
    /// thread count.
    pub fn spmv_par(&self, x: &[f64], y: &mut [f64], ctx: &ParCtx) {
        self.spmv_with(x, y, ctx, Self::spmv_rows);
    }

    /// Reference SpMV: the runtime-`b` loops with no unrolling, for any
    /// block size and thread count.  This is the bitwise oracle the
    /// unrolled kernels are tested against and the baseline the
    /// `blockspec` experiment times them against; solvers call
    /// [`spmv`](Self::spmv) / [`spmv_par`](Self::spmv_par).
    pub fn spmv_generic(&self, x: &[f64], y: &mut [f64], ctx: &ParCtx) {
        self.spmv_with(x, y, ctx, Self::spmv_rows_generic);
    }

    /// Run a block-row kernel over all rows, sequentially or in
    /// `b`-aligned thread chunks.
    fn spmv_with(
        &self,
        x: &[f64],
        y: &mut [f64],
        ctx: &ParCtx,
        rows: fn(&Self, &[f64], Range<usize>, &mut [f64]),
    ) {
        assert_eq!(x.len(), self.ncols(), "spmv x length mismatch");
        assert_eq!(y.len(), self.nrows(), "spmv y length mismatch");
        if ctx.nthreads() == 1 {
            return rows(self, x, 0..self.nbrows, y);
        }
        ctx.parallel_for_slices("spmv_bcsr", y, self.b, |_, brows, ysub| {
            rows(self, x, brows, ysub)
        });
    }

    /// Analytic bytes moved by one [`spmv`](Self::spmv) call under perfect
    /// source reuse — the blocked Eq. 1 traffic floor with `miss_factor =
    /// 1`: streamed block values (8 B per block entry), one 4-byte block
    /// column index per block, the block-row pointer (8 B/block row), plus
    /// one read of the source and one write of the destination vector.
    /// The same floor prices the unrolled and the reference kernels, so
    /// kernel wins show up as time, and hence effective-bandwidth,
    /// improvements.
    pub fn spmv_traffic_bytes(&self) -> f64 {
        let b = self.b as f64;
        let nblocks = (self.values.len() as f64) / (b * b);
        let nbrows = self.nbrows as f64;
        let n = nbrows * b;
        8.0 * nblocks * b * b + 4.0 * nblocks + 8.0 * (nbrows + 1.0) + 8.0 * n + 8.0 * n
    }

    /// Compute block rows `brows` into `y`, which holds exactly those rows
    /// (`y[0]` is point row `brows.start * b`).  Dispatch happens here,
    /// once per (sequential call | thread chunk), never per row.
    fn spmv_rows(&self, x: &[f64], brows: Range<usize>, y: &mut [f64]) {
        match self.b {
            4 => self.spmv_rows_fixed::<4>(x, brows, y),
            5 => self.spmv_rows_fixed::<5>(x, brows, y),
            3 => self.spmv_rows_fixed::<3>(x, brows, y),
            2 => self.spmv_rows_fixed::<2>(x, brows, y),
            1 => self.spmv_rows_fixed::<1>(x, brows, y),
            _ => self.spmv_rows_generic(x, brows, y),
        }
    }

    /// Const-unrolled lane kernel: the whole `B x B` block and both `B`
    /// vectors live in registers, the loop nest fully unrolls, and the `B`
    /// accumulators update in lane-parallel (column-broadcast) order.
    fn spmv_rows_fixed<const B: usize>(&self, x: &[f64], brows: Range<usize>, y: &mut [f64]) {
        debug_assert_eq!(self.b, B);
        let base = brows.start;
        for bi in brows {
            let mut acc = [0.0f64; B];
            for k in self.row_ptr[bi]..self.row_ptr[bi + 1] {
                let bc = self.col_idx[k] as usize;
                let xs = &x[bc * B..bc * B + B];
                let blk = &self.values[k * B * B..(k + 1) * B * B];
                block_madd::<B>(blk, xs, &mut acc);
            }
            let o = (bi - base) * B;
            y[o..o + B].copy_from_slice(&acc);
        }
    }

    fn spmv_rows_generic(&self, x: &[f64], brows: Range<usize>, y: &mut [f64]) {
        let b = self.b;
        let bb = b * b;
        let base = brows.start;
        for bi in brows {
            let ys = &mut y[(bi - base) * b..(bi - base + 1) * b];
            ys.fill(0.0);
            for k in self.row_ptr[bi]..self.row_ptr[bi + 1] {
                let bc = self.col_idx[k] as usize;
                let xs = &x[bc * b..(bc + 1) * b];
                let blk = &self.values[k * bb..(k + 1) * bb];
                for r in 0..b {
                    let mut s = ys[r];
                    for c in 0..b {
                        s += blk[r * b + c] * xs[c];
                    }
                    ys[r] = s;
                }
            }
        }
    }

    /// Block bandwidth in block units.
    pub fn block_bandwidth(&self) -> usize {
        let mut beta = 0usize;
        for bi in 0..self.nbrows {
            for &c in self.row_bcols(bi) {
                beta = beta.max(bi.abs_diff(c as usize));
            }
        }
        beta
    }
}

/// `acc += blk * xs` for one row-major `B x B` block, in column-broadcast
/// (lane) order: each source entry `xs[c]` is broadcast against block
/// column `c`, updating all `B` accumulators at once.
///
/// Bitwise-identity invariant: for a fixed accumulator `acc[r]`, the
/// additions arrive in ascending-`c` order — exactly the order of the
/// generic row-dot loop — so reordering across *rows* changes nothing.
/// Rust never contracts `f64` mul+add into a fused multiply-add, so the
/// rounding sequence is identical too.
#[inline(always)]
fn block_madd<const B: usize>(blk: &[f64], xs: &[f64], acc: &mut [f64; B]) {
    debug_assert!(blk.len() >= B * B);
    debug_assert!(xs.len() >= B);
    for c in 0..B {
        let xc = xs[c];
        for r in 0..B {
            acc[r] += blk[r * B + c] * xc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triplet::TripletMatrix;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    /// Random block-structured matrix: nb block rows, each with diagonal plus
    /// a few off-diagonal blocks, fully dense inside the blocks.
    fn random_block_matrix(nb: usize, b: usize, seed: u64) -> CsrMatrix {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut t = TripletMatrix::new(nb * b, nb * b);
        for i in 0..nb {
            let mut js = vec![i];
            for _ in 0..3 {
                js.push(rng.gen_range(0..nb));
            }
            js.sort_unstable();
            js.dedup();
            for j in js {
                let blk: Vec<f64> = (0..b * b).map(|_| rng.gen_range(-1.0..1.0)).collect();
                t.push_block(i, j, b, &blk);
            }
        }
        t.to_csr()
    }

    #[test]
    fn from_csr_roundtrip_pattern() {
        for b in [1usize, 2, 4, 5] {
            let a = random_block_matrix(7, b, 42 + b as u64);
            let ab = BcsrMatrix::from_csr(&a, b);
            let back = ab.to_csr();
            // Every original entry must be preserved.
            for i in 0..a.nrows() {
                for (k, &c) in a.row_cols(i).iter().enumerate() {
                    assert_eq!(back.get(i, c as usize), a.row_vals(i)[k], "b={b} ({i},{c})");
                }
            }
        }
    }

    #[test]
    fn spmv_matches_csr() {
        let mut rng = SmallRng::seed_from_u64(7);
        for b in [1usize, 2, 3, 4, 5, 6] {
            let a = random_block_matrix(9, b, 100 + b as u64);
            let ab = BcsrMatrix::from_csr(&a, b);
            let x: Vec<f64> = (0..a.ncols()).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut y1 = vec![0.0; a.nrows()];
            let mut y2 = vec![0.0; a.nrows()];
            a.spmv(&x, &mut y1);
            ab.spmv(&x, &mut y2);
            for (u, v) in y1.iter().zip(&y2) {
                assert!((u - v).abs() < 1e-12, "b={b}: {u} vs {v}");
            }
        }
    }

    #[test]
    fn blocking_reduces_index_storage() {
        let b = 4;
        let a = random_block_matrix(20, b, 3);
        let ab = BcsrMatrix::from_csr(&a, b);
        // One index per block instead of one per point entry.
        assert!(ab.nnz_blocks() * b * b >= a.nnz());
        assert!(ab.nnz_blocks() <= a.nnz() / (b * b) + a.nrows());
        assert!(
            ab.nnz_blocks() < a.nnz() / 4,
            "index array should shrink markedly"
        );
    }

    #[test]
    fn block_bandwidth_scales() {
        let b = 2;
        let a = random_block_matrix(15, b, 9);
        let ab = BcsrMatrix::from_csr(&a, b);
        // Point bandwidth is at most b * (block bandwidth + 1) - 1.
        assert!(a.bandwidth() < b * (ab.block_bandwidth() + 1));
    }

    #[test]
    fn dims_accessors() {
        let a = random_block_matrix(6, 5, 11);
        let ab = BcsrMatrix::from_csr(&a, 5);
        assert_eq!(ab.nbrows(), 6);
        assert_eq!(ab.nrows(), 30);
        assert_eq!(ab.block_size(), 5);
        assert_eq!(ab.block(0).len(), 25);
    }

    #[test]
    fn refill_matches_rebuild() {
        let b = 4;
        let a1 = random_block_matrix(8, b, 77);
        let mut a2 = a1.clone();
        a2.scale(3.5);
        let mut ab = BcsrMatrix::from_csr(&a1, b);
        ab.refill_from_csr(&a2);
        let fresh = BcsrMatrix::from_csr(&a2, b);
        assert_eq!(ab, fresh);
    }

    #[test]
    #[should_panic(expected = "multiple of block size")]
    fn from_csr_rejects_nonmultiple() {
        let a = CsrMatrix::identity(7);
        BcsrMatrix::from_csr(&a, 2);
    }

    #[test]
    fn unrolled_spmv_is_bitwise_generic() {
        let mut rng = SmallRng::seed_from_u64(23);
        for b in [1usize, 2, 3, 4, 5, 6] {
            let a = random_block_matrix(11, b, 500 + b as u64);
            let ab = BcsrMatrix::from_csr(&a, b);
            let x: Vec<f64> = (0..a.ncols()).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut y0 = vec![0.0; a.nrows()];
            ab.spmv_generic(&x, &mut y0, &ParCtx::seq());
            let mut y = vec![0.0; a.nrows()];
            ab.spmv(&x, &mut y);
            assert_eq!(y0, y, "b={b}: must be bitwise identical");
            // ... including through the parallel chunking.
            for nthreads in [2usize, 5] {
                let mut yp = vec![0.0; a.nrows()];
                ab.spmv_par(&x, &mut yp, &ParCtx::new(nthreads));
                assert_eq!(y0, yp, "b={b} nthreads={nthreads}");
            }
        }
    }
}
