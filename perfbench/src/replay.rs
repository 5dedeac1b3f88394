//! Replays of the `sparse` layer's public kernels on step matrices.
//!
//! The solver builds and applies its matrices inside one call, so their
//! kernels cannot be timed from outside during a solve.  Instead the traced
//! run rebuilds the exact shifted Jacobian of a captured step and times
//! each kernel on it, repeating short kernels and reporting the median.
//! Bandwidths divide the kernels' own `*_traffic_bytes` (computed, not
//! measured, traffic) by the median time.

use crate::stats::median;
use crate::trace::Tracer;
use fun3d_solver::op::PseudoTransientProblem;
use fun3d_sparse::bcsr::BcsrMatrix;
use fun3d_sparse::block_ilu::BlockIluFactors;
use fun3d_sparse::csr::CsrMatrix;
use fun3d_sparse::ilu::{IluFactors, IluOptions};
use fun3d_sparse::par::ParCtx;
use std::time::Instant;

/// Stop repeating a kernel once this much time went into it.
const BUDGET_S: f64 = 0.2;
/// Most repetitions of one kernel.
const MAX_REPS: usize = 15;

/// Median seconds per call of each replayed kernel.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelTimes {
    /// Symbolic plus numeric ILU(k) factorization.
    pub ilu_factor_s: f64,
    /// Numeric-only refactorization on the same pattern.
    pub ilu_refactor_s: f64,
    /// One ILU(k) triangular solve pair.
    pub ilu_apply_s: f64,
    /// Stored entries of the ILU(k) factors.
    pub ilu_nnz: f64,
    /// Point CSR matvec.
    pub csr_spmv_s: f64,
    /// BCSR conversion including the block-structure merge.
    pub bcsr_build_s: f64,
    /// BCSR value refill on a built structure.
    pub bcsr_refill_s: f64,
    /// BCSR matvec.
    pub bcsr_spmv_s: f64,
    /// Computed bytes one BCSR matvec moves.
    pub bcsr_spmv_bytes: f64,
    /// Point-block ILU(0) factorization.
    pub block_ilu_factor_s: f64,
    /// One block-ILU triangular solve pair.
    pub block_ilu_apply_s: f64,
    /// Computed bytes one block-ILU solve moves.
    pub block_ilu_apply_bytes: f64,
}

/// The shifted step matrix `J(q) + diag(d(q)) / cfl` the solver builds.
pub fn shifted_jacobian<P: PseudoTransientProblem>(p: &P, q: &[f64], cfl: f64) -> CsrMatrix {
    let d = p.inverse_timestep_scale(q);
    let mut jac = p.jacobian(q);
    jac.shift_diagonal_by(1.0 / cfl, &d);
    jac
}

/// Time `f` under a span per call until the budget or the repetition cap
/// is reached; the median seconds per call and the last call's result.
fn bench<R>(tracer: &Tracer, name: &str, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut times = Vec::new();
    let start = Instant::now();
    loop {
        let id = tracer.enter(name);
        let t0 = Instant::now();
        let out = std::hint::black_box(f());
        times.push(t0.elapsed().as_secs_f64());
        tracer.exit(id);
        if times.len() >= MAX_REPS || start.elapsed().as_secs_f64() >= BUDGET_S {
            return (median(&times), out);
        }
    }
}

/// Replay every kernel on `jac`: point ILU with `ilu`, BCSR and block ILU
/// with block size `block`, applies and matvecs on `par`.  `None` when a
/// factorization hits a zero pivot.
pub fn replay(
    tracer: &Tracer,
    jac: &CsrMatrix,
    ilu: &IluOptions,
    block: usize,
    par: &ParCtx,
) -> Option<KernelTimes> {
    let n = jac.nrows();
    let x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.125).collect();
    let mut y = vec![0.0; n];
    let mut t = KernelTimes::default();

    let (s, factors) = bench(tracer, "sparse.ilu_factor", || IluFactors::factor(jac, ilu));
    let mut factors = factors.ok()?;
    t.ilu_factor_s = s;
    t.ilu_refactor_s = bench(tracer, "sparse.ilu_refactor", || factors.refactor(jac)).0;
    t.ilu_apply_s = bench(tracer, "sparse.ilu_apply", || {
        factors.solve_par(&x, &mut y, par)
    })
    .0;
    t.ilu_nnz = factors.nnz() as f64;
    t.csr_spmv_s = bench(tracer, "sparse.csr_spmv", || jac.spmv_par(&x, &mut y, par)).0;

    let (s, mut bcsr) = bench(tracer, "sparse.bcsr_build", || {
        BcsrMatrix::from_csr(jac, block)
    });
    t.bcsr_build_s = s;
    t.bcsr_refill_s = bench(tracer, "sparse.bcsr_refill", || bcsr.refill_from_csr(jac)).0;
    t.bcsr_spmv_s = bench(tracer, "sparse.bcsr_spmv", || {
        bcsr.spmv_par(&x, &mut y, par)
    })
    .0;
    t.bcsr_spmv_bytes = bcsr.spmv_traffic_bytes();

    let (s, block_factors) = bench(tracer, "sparse.block_ilu_factor", || {
        BlockIluFactors::factor(&bcsr)
    });
    let block_factors = block_factors.ok()?;
    t.block_ilu_factor_s = s;
    t.block_ilu_apply_s = bench(tracer, "sparse.block_ilu_apply", || {
        block_factors.solve_par(&x, &mut y, par)
    })
    .0;
    t.block_ilu_apply_bytes = block_factors.solve_traffic_bytes();
    Some(t)
}
