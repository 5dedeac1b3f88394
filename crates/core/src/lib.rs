//! PETSc-FUN3D reproduced: the application layer.
//!
//! This crate wires the substrates together into the application the paper
//! measures, and provides the experiment harnesses every table and figure
//! regenerator builds on:
//!
//! * [`problem`] — the Euler discretization as a
//!   [`fun3d_solver::op::PseudoTransientProblem`], so the ΨNKS stack drives
//!   the real flow solver.
//! * [`config`] — one struct holding every tunable the paper sweeps: mesh
//!   size, flow model, the three layout enhancements of Table 1
//!   (interlacing / blocking / reorderings), and the full Section 2.4
//!   algorithmic parameter list.
//! * [`driver`] — instrumented sequential runs returning per-phase times
//!   (Table 1, Figure 5).
//! * [`dist`] — distributed linear algebra over `fun3d-comm`: a PETSc
//!   `MPIAIJ`-style row-partitioned matrix, ghosted vectors, and the
//!   sequential GMRES run over ranks with block-Jacobi/ILU preconditioning
//!   (Tables 2–3 at real small scale, with simulated-time accounting).
//! * [`parallel_nks`] — the fully distributed ΨNKS solve: the sequential
//!   discretization on each rank's ghosted submesh, and the block-Jacobi
//!   NKS loop over real message-passing ranks.
//! * [`efficiency`] — the η_overall = η_alg · η_impl decomposition of
//!   Table 3 and the Gflop/s / speedup metrics of Figures 1–2.
//! * [`scaling`] — the fixed-size scaling model that extrapolates measured
//!   iteration counts and partition communication volumes to the paper's
//!   machine scales (documented substitution for the dead testbeds).

pub mod checkpoint;
pub mod config;
pub mod dist;
pub mod driver;
pub mod efficiency;
pub mod output;
pub mod parallel_nks;
pub mod problem;
pub mod scaling;

pub use config::{CaseConfig, LayoutConfig};
pub use driver::{run_case, CaseReport};
pub use problem::EulerProblem;
