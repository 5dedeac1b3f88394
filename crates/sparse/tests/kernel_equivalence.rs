//! Bitwise equivalence of the unrolled BCSR kernels with the generic
//! reference.
//!
//! SpMV and the block-ILU sweeps dispatch on the block size alone: 1..=5
//! run const-unrolled lane kernels, everything else runs the runtime-`b`
//! loops.  Those loops are also exposed as the reference
//! (`BcsrMatrix::spmv_generic`, `BlockIluFactors::solve_generic`), and the
//! dispatched path must reproduce them *bitwise* — sequentially and for
//! any thread count — because the unrolled kernels only reorder updates
//! to independent accumulators, never the addition sequence feeding one
//! accumulator.  Property tests over random block patterns (including
//! empty rows, degenerate one-row matrices, and block sizes 1..=6, i.e.
//! both unrolled and fallback paths) pin that contract.

use fun3d_sparse::bcsr::BcsrMatrix;
use fun3d_sparse::block_ilu::BlockIluFactors;
use fun3d_sparse::par::ParCtx;
use fun3d_sparse::triplet::TripletMatrix;
use fun3d_sparse::CsrMatrix;
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 3] = [2, 3, 7];

/// A block-structured matrix from block-triplet entries; rows with no
/// entries at all stay genuinely empty (no diagonal is forced).
fn block_matrix(nb: usize, b: usize, entries: &[(usize, usize, f64)]) -> CsrMatrix {
    let mut t = TripletMatrix::new(nb * b, nb * b);
    for &(bi, bj, v) in entries {
        if bi < nb && bj < nb {
            let blk: Vec<f64> = (0..b * b).map(|q| v + q as f64 * 0.01).collect();
            t.push_block(bi, bj, b, &blk);
        }
    }
    t.to_csr()
}

/// A diagonally dominant block matrix (factorizable by block ILU).
fn dd_block_matrix(nb: usize, b: usize, entries: &[(usize, usize, f64)]) -> CsrMatrix {
    let mut t = TripletMatrix::new(nb * b, nb * b);
    let mut ndiag = vec![0usize; nb];
    for &(bi, bj, v) in entries {
        if bi < nb && bj < nb && bi != bj {
            let blk: Vec<f64> = (0..b * b).map(|q| v * 0.1 + q as f64 * 0.001).collect();
            t.push_block(bi, bj, b, &blk);
            ndiag[bi] += 1;
        }
    }
    for (bi, &count) in ndiag.iter().enumerate() {
        let mut blk: Vec<f64> = (0..b * b).map(|q| (q as f64 * 0.013).sin() * 0.2).collect();
        for d in 0..b {
            blk[d * b + d] += 2.0 + count as f64;
        }
        t.push_block(bi, bi, b, &blk);
    }
    t.to_csr()
}

/// Dispatched SpMV (sequential and every thread count) against the
/// sequential generic reference.
fn check_spmv(ab: &BcsrMatrix) -> Result<(), String> {
    let n = ab.nrows();
    let x: Vec<f64> = (0..ab.ncols()).map(|i| (i as f64 * 0.37).sin()).collect();
    let mut y0 = vec![f64::NAN; n];
    ab.spmv_generic(&x, &mut y0, &ParCtx::seq());
    let mut y = vec![f64::NAN; n];
    ab.spmv(&x, &mut y);
    if y != y0 {
        return Err("sequential spmv".into());
    }
    for nthreads in THREAD_COUNTS {
        let mut yp = vec![f64::NAN; n];
        ab.spmv_par(&x, &mut yp, &ParCtx::new(nthreads));
        if yp != y0 {
            return Err(format!("spmv_par nthreads={nthreads}"));
        }
    }
    Ok(())
}

/// Dispatched block-ILU sweeps (sequential and level-scheduled at every
/// thread count) against the sequential generic reference.
fn check_sweeps(f: &BlockIluFactors) -> Result<(), String> {
    let n = f.n();
    let rhs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.71).cos()).collect();
    let mut x0 = vec![0.0; n];
    f.solve_generic(&rhs, &mut x0, &ParCtx::seq());
    let mut x = vec![0.0; n];
    f.solve(&rhs, &mut x);
    if x != x0 {
        return Err("sequential sweep".into());
    }
    for nthreads in THREAD_COUNTS {
        let mut xp = vec![0.0; n];
        f.solve_par(&rhs, &mut xp, &ParCtx::new(nthreads));
        if xp != x0 {
            return Err(format!("solve_par nthreads={nthreads}"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// SpMV: dispatched path bitwise-equal to the generic reference,
    /// sequential and parallel, for block sizes spanning the unrolled
    /// paths (1..=5) and the generic fallback (6), with patterns that
    /// include fully empty block rows.
    #[test]
    fn spmv_bitwise_equals_generic(
        nb in 1usize..16,
        b in 1usize..7,
        entries in proptest::collection::vec((0usize..16, 0usize..16, -1.0f64..1.0), 0..80),
    ) {
        let ab = BcsrMatrix::from_csr(&block_matrix(nb, b, &entries), b);
        let verdict = check_spmv(&ab);
        prop_assert!(verdict.is_ok(), "b={} nb={}: {:?}", b, nb, verdict);
    }

    /// Block-ILU sweeps: dispatched path bitwise-equal to the generic
    /// reference, sequential and level-scheduled parallel.
    #[test]
    fn bilu_sweep_bitwise_equals_generic(
        nb in 1usize..14,
        b in 1usize..7,
        entries in proptest::collection::vec((0usize..14, 0usize..14, -1.0f64..1.0), 0..50),
    ) {
        let ab = BcsrMatrix::from_csr(&dd_block_matrix(nb, b, &entries), b);
        let f = BlockIluFactors::factor(&ab).unwrap();
        let verdict = check_sweeps(&f);
        prop_assert!(verdict.is_ok(), "b={} nb={}: {:?}", b, nb, verdict);
    }
}

/// Degenerate shapes the proptest generators may not always hit: a single
/// block row, and a matrix whose rows are all empty (no work, non-zero
/// rows).
#[test]
fn degenerate_shapes_are_bitwise_generic() {
    for b in 1usize..=6 {
        // Single block row with a self block.
        let one = block_matrix(1, b, &[(0, 0, 0.5)]);
        // All rows empty: spmv must still zero the output.
        let empty = block_matrix(3, b, &[]);
        for a in [one, empty] {
            let ab = BcsrMatrix::from_csr(&a, b);
            check_spmv(&ab).unwrap_or_else(|e| panic!("b={b} nb={}: {e}", ab.nbrows()));
        }
        // One-row sweep: no L or U blocks, the diagonal inverse only.
        let ab = BcsrMatrix::from_csr(&dd_block_matrix(1, b, &[]), b);
        let f = BlockIluFactors::factor(&ab).unwrap();
        check_sweeps(&f).unwrap_or_else(|e| panic!("b={b} one-row sweep: {e}"));
    }
}
