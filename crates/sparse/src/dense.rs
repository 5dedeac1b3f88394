//! Small dense block helpers for the block (BAIJ-style) kernels.
//!
//! Structural blocking stores the Jacobian of a multicomponent PDE system as
//! small dense `b x b` blocks (`b` = unknowns per mesh point: 4 incompressible,
//! 5 compressible).  The block preconditioners need to factor and apply those
//! blocks; this module provides an LU factorization with partial pivoting for
//! tiny row-major matrices, plus the matvec/axpy kernels used inside block
//! SpMV and block triangular solves.

/// LU factorization with partial pivoting of a small row-major `n x n` matrix,
/// stored in place.  `piv[i]` records the row swapped into position `i`.
///
/// Returns `Err(i)` if a zero (or subnormal) pivot is met at step `i`.
pub fn lu_factor(a: &mut [f64], piv: &mut [usize], n: usize) -> Result<(), usize> {
    assert_eq!(a.len(), n * n);
    assert_eq!(piv.len(), n);
    for k in 0..n {
        // Partial pivoting: find the largest entry in column k at/below row k.
        let mut p = k;
        let mut pmax = a[k * n + k].abs();
        for i in (k + 1)..n {
            let v = a[i * n + k].abs();
            if v > pmax {
                pmax = v;
                p = i;
            }
        }
        // Negated on purpose: a NaN pivot must also take the error path.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(pmax > f64::MIN_POSITIVE) {
            return Err(k);
        }
        piv[k] = p;
        if p != k {
            for j in 0..n {
                a.swap(k * n + j, p * n + j);
            }
        }
        let pivot = a[k * n + k];
        for i in (k + 1)..n {
            let m = a[i * n + k] / pivot;
            a[i * n + k] = m;
            for j in (k + 1)..n {
                a[i * n + j] -= m * a[k * n + j];
            }
        }
    }
    Ok(())
}

/// Solve `A x = b` given the factors produced by [`lu_factor`]; `x` holds `b`
/// on entry and the solution on exit.
pub fn lu_solve(lu: &[f64], piv: &[usize], x: &mut [f64], n: usize) {
    debug_assert_eq!(lu.len(), n * n);
    debug_assert_eq!(piv.len(), n);
    debug_assert_eq!(x.len(), n);
    // Apply the row interchanges, then L (unit lower), then U.
    for k in 0..n {
        x.swap(k, piv[k]);
    }
    for i in 1..n {
        let mut s = x[i];
        for j in 0..i {
            s -= lu[i * n + j] * x[j];
        }
        x[i] = s;
    }
    for i in (0..n).rev() {
        let mut s = x[i];
        for j in (i + 1)..n {
            s -= lu[i * n + j] * x[j];
        }
        x[i] = s / lu[i * n + i];
    }
}

/// Invert a small matrix using its LU factors: `inv` receives the inverse in
/// row-major order.  Used to store explicit inverses of ILU diagonal blocks so
/// that the block triangular solves become pure matvecs (the layout the
/// paper's BAIJ kernels use).
pub fn lu_invert(lu: &[f64], piv: &[usize], inv: &mut [f64], n: usize) {
    debug_assert_eq!(inv.len(), n * n);
    let mut col = vec![0.0; n];
    for j in 0..n {
        col.iter_mut().for_each(|v| *v = 0.0);
        col[j] = 1.0;
        lu_solve(lu, piv, &mut col, n);
        for i in 0..n {
            inv[i * n + j] = col[i];
        }
    }
}

/// `y <- y + A x` for a row-major `n x n` block.
#[inline]
pub fn block_gemv_add(a: &[f64], x: &[f64], y: &mut [f64], n: usize) {
    debug_assert_eq!(a.len(), n * n);
    for i in 0..n {
        let row = &a[i * n..(i + 1) * n];
        let mut s = y[i];
        for j in 0..n {
            s += row[j] * x[j];
        }
        y[i] = s;
    }
}

/// `y <- y - A x` for a row-major `n x n` block.
#[inline]
pub fn block_gemv_sub(a: &[f64], x: &[f64], y: &mut [f64], n: usize) {
    debug_assert_eq!(a.len(), n * n);
    for i in 0..n {
        let row = &a[i * n..(i + 1) * n];
        let mut s = y[i];
        for j in 0..n {
            s -= row[j] * x[j];
        }
        y[i] = s;
    }
}

/// `y <- A x` for a row-major `n x n` block.
#[inline]
pub fn block_gemv(a: &[f64], x: &[f64], y: &mut [f64], n: usize) {
    debug_assert_eq!(a.len(), n * n);
    for i in 0..n {
        let row = &a[i * n..(i + 1) * n];
        let mut s = 0.0;
        for j in 0..n {
            s += row[j] * x[j];
        }
        y[i] = s;
    }
}

/// `y <- y - A x` for a row-major `N x N` block with `N` known at compile
/// time: the const-unrolled lane twin of [`block_gemv_sub`], used by the
/// unrolled block-ILU sweep kernels.
///
/// Bitwise identical to [`block_gemv_sub`]: each accumulator `y[r]` sees
/// its subtractions in ascending-column order either way (the lane form
/// only interleaves updates to *different* accumulators), and Rust never
/// contracts `f64` mul+sub into a fused op.
#[inline(always)]
pub fn block_gemv_sub_b<const N: usize>(a: &[f64], x: &[f64], y: &mut [f64; N]) {
    debug_assert!(a.len() >= N * N);
    debug_assert!(x.len() >= N);
    for c in 0..N {
        let xc = x[c];
        for r in 0..N {
            y[r] -= a[r * N + c] * xc;
        }
    }
}

/// `A x` for a row-major `N x N` block with `N` known at compile time —
/// the const-unrolled twin of [`block_gemv`], bitwise identical by the
/// same argument as [`block_gemv_sub_b`].
#[inline(always)]
pub fn block_gemv_b<const N: usize>(a: &[f64], x: &[f64; N]) -> [f64; N] {
    debug_assert!(a.len() >= N * N);
    let mut y = [0.0f64; N];
    for c in 0..N {
        let xc = x[c];
        for r in 0..N {
            y[r] += a[r * N + c] * xc;
        }
    }
    y
}

/// `C <- C - A * B` for row-major `n x n` blocks (the Schur update inside the
/// block ILU factorization).
#[inline]
pub fn block_gemm_sub(a: &[f64], b: &[f64], c: &mut [f64], n: usize) {
    debug_assert_eq!(a.len(), n * n);
    debug_assert_eq!(b.len(), n * n);
    debug_assert_eq!(c.len(), n * n);
    for i in 0..n {
        for k in 0..n {
            let aik = a[i * n + k];
            if aik == 0.0 {
                continue;
            }
            for j in 0..n {
                c[i * n + j] -= aik * b[k * n + j];
            }
        }
    }
}

/// `C <- A * B` for row-major `n x n` blocks.
#[inline]
pub fn block_gemm(a: &[f64], b: &[f64], c: &mut [f64], n: usize) {
    debug_assert_eq!(c.len(), n * n);
    for v in c.iter_mut() {
        *v = 0.0;
    }
    for i in 0..n {
        for k in 0..n {
            let aik = a[i * n + k];
            for j in 0..n {
                c[i * n + j] += aik * b[k * n + j];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matvec(a: &[f64], x: &[f64], n: usize) -> Vec<f64> {
        let mut y = vec![0.0; n];
        block_gemv(a, x, &mut y, n);
        y
    }

    #[test]
    fn lu_solves_identity() {
        let n = 3;
        let mut a = vec![0.0; 9];
        for i in 0..n {
            a[i * n + i] = 1.0;
        }
        let mut piv = vec![0; n];
        lu_factor(&mut a, &mut piv, n).unwrap();
        let mut x = vec![1.0, 2.0, 3.0];
        lu_solve(&a, &piv, &mut x, n);
        assert_eq!(x, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn lu_solves_general_4x4() {
        let n = 4;
        // A well-conditioned but unsymmetric matrix.
        let a0: Vec<f64> = vec![
            4.0, 1.0, 0.0, 2.0, //
            1.0, 5.0, 1.0, 0.0, //
            0.0, 2.0, 6.0, 1.0, //
            1.0, 0.0, 1.0, 7.0,
        ];
        let xtrue = vec![1.0, -2.0, 3.0, -4.0];
        let b = matvec(&a0, &xtrue, n);
        let mut lu = a0.clone();
        let mut piv = vec![0; n];
        lu_factor(&mut lu, &mut piv, n).unwrap();
        let mut x = b;
        lu_solve(&lu, &piv, &mut x, n);
        for (xi, ti) in x.iter().zip(&xtrue) {
            assert!((xi - ti).abs() < 1e-12, "{xi} vs {ti}");
        }
    }

    #[test]
    fn lu_requires_pivoting() {
        // Zero on the leading diagonal forces a row swap.
        let n = 2;
        let a0 = vec![0.0, 1.0, 1.0, 0.0];
        let mut lu = a0.clone();
        let mut piv = vec![0; n];
        lu_factor(&mut lu, &mut piv, n).unwrap();
        let mut x = vec![3.0, 5.0]; // b = [3,5] => x = [5,3]
        lu_solve(&lu, &piv, &mut x, n);
        assert!((x[0] - 5.0).abs() < 1e-14);
        assert!((x[1] - 3.0).abs() < 1e-14);
    }

    #[test]
    fn lu_detects_singularity() {
        let n = 2;
        let mut a = vec![1.0, 2.0, 2.0, 4.0]; // rank 1
        let mut piv = vec![0; n];
        assert_eq!(lu_factor(&mut a, &mut piv, n), Err(1));
    }

    #[test]
    fn invert_recovers_inverse() {
        let n = 3;
        let a0 = vec![2.0, 0.0, 1.0, 0.0, 3.0, 0.0, 1.0, 0.0, 2.0];
        let mut lu = a0.clone();
        let mut piv = vec![0; n];
        lu_factor(&mut lu, &mut piv, n).unwrap();
        let mut inv = vec![0.0; 9];
        lu_invert(&lu, &piv, &mut inv, n);
        // A * inv(A) = I
        let mut prod = vec![0.0; 9];
        block_gemm(&a0, &inv, &mut prod, n);
        for i in 0..n {
            for j in 0..n {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((prod[i * n + j] - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn gemv_add_sub_roundtrip() {
        let n = 2;
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let x = vec![5.0, 6.0];
        let mut y = vec![1.0, 1.0];
        block_gemv_add(&a, &x, &mut y, n);
        block_gemv_sub(&a, &x, &mut y, n);
        assert_eq!(y, vec![1.0, 1.0]);
    }

    #[test]
    fn fixed_gemv_twins_match_runtime_bitwise() {
        // The const-unrolled lane kernels must be bitwise equal to the
        // runtime-n loops — they feed the kernel-identity guarantee.
        let n = 5;
        let a: Vec<f64> = (0..n * n)
            .map(|i| ((i * 37) % 13) as f64 * 0.17 - 1.0)
            .collect();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.71).sin()).collect();
        let mut y1 = vec![0.5; n];
        block_gemv_sub(&a, &x, &mut y1, n);
        let mut y2 = [0.5f64; 5];
        block_gemv_sub_b::<5>(&a, &x, &mut y2);
        assert_eq!(y1, y2);
        let mut y3 = vec![0.0; n];
        block_gemv(&a, &x, &mut y3, n);
        let xa: [f64; 5] = x.as_slice().try_into().unwrap();
        let y4 = block_gemv_b::<5>(&a, &xa);
        assert_eq!(y3, y4);
    }

    #[test]
    fn gemm_sub_matches_manual() {
        let n = 2;
        let a = vec![1.0, 0.0, 0.0, 1.0];
        let b = vec![1.0, 2.0, 3.0, 4.0];
        let mut c = vec![10.0, 10.0, 10.0, 10.0];
        block_gemm_sub(&a, &b, &mut c, n);
        assert_eq!(c, vec![9.0, 8.0, 7.0, 6.0]);
    }
}
