//! Sparse linear algebra kernels for the PETSc-FUN3D reproduction.
//!
//! This crate provides the storage formats and kernels whose memory behaviour
//! the paper analyzes:
//!
//! * [`csr::CsrMatrix`] — compressed sparse row storage (PETSc `AIJ` analogue),
//!   the format used by the *non-blocked* variants in Table 1.
//! * [`bcsr::BcsrMatrix`] — block compressed sparse row storage (PETSc `BAIJ`
//!   analogue) exploiting the small dense blocks that arise when the field
//!   variables at a grid point are interlaced ("structural blocking").
//!   Block sizes 1..=5 run const-unrolled SpMV kernels; other sizes run
//!   the runtime-`b` reference loops ([`bcsr::BcsrMatrix::spmv_generic`]),
//!   which double as the bitwise oracle for the unrolled ones.
//! * [`layout`] — interlaced vs. segregated ("noninterlaced") vector layouts
//!   and conversions between them (Section 2.1.1 of the paper).
//! * [`ilu`] — level-of-fill incomplete factorization ILU(k) with forward and
//!   backward triangular solves, including the *single-precision storage /
//!   double-precision arithmetic* variant of Section 2.2 (Table 2).
//! * [`block_ilu`] — point-block ILU(0) on BCSR (PETSc `PCILU`+`BAIJ`), the
//!   factorization PETSc-FUN3D actually applies once blocking is on.
//!   Its sweeps dispatch the same way, with
//!   [`block_ilu::BlockIluFactors::solve_generic`] as the reference.
//! * [`dense`] — small dense block helpers (LU with partial pivoting) used by
//!   the block preconditioners.
//! * [`vec_ops`] — the BLAS-1 style vector kernels (dot, axpy, norms) that the
//!   Krylov solvers are built from.
//! * [`par`] — the shared-memory execution context ([`par::ParCtx`]) behind
//!   the `_par` variants of the hot kernels (SpMV, BLAS-1, level-scheduled
//!   triangular solves), mirroring the paper's SMP worksharing experiments.
//! * [`profile`] — the global region profiler behind `fun3d-profile`:
//!   per-thread busy time, fork/join wall time, and load-imbalance
//!   accounting for every labeled parallel region (the measured analogue of
//!   the paper's Table 3 implementation-efficiency decomposition).
//!
//! All kernels are written so that their memory reference streams mirror the
//! Fortran/C kernels discussed in the paper; the `fun3d-memmodel` crate
//! replays those streams through a cache/TLB simulator.

pub mod bcsr;
pub mod block_ilu;
pub mod csr;
pub mod dense;
pub mod ilu;
pub mod layout;
pub mod par;
pub mod profile;
pub mod triplet;
pub mod vec_ops;

pub use bcsr::BcsrMatrix;
pub use block_ilu::BlockIluFactors;
pub use csr::CsrMatrix;
pub use ilu::{IluFactors, IluOptions, PrecStorage};
pub use par::ParCtx;
pub use triplet::TripletMatrix;
