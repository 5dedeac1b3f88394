//! Message-passing substrate for the parallel experiments.
//!
//! The paper's runs used MPI on up to 3072 nodes of ASCI Red.  This crate
//! provides the equivalent programming model at laptop scale:
//!
//! * [`world`] — an MPI-like communicator: ranks run as threads, exchange
//!   typed messages over channels, and synchronize through deterministic
//!   tree collectives (`allreduce`, `barrier`).
//! * [`clock`] — each rank carries a *simulated clock* advanced by a
//!   [`fun3d_memmodel::machine::MachineSpec`]: compute phases advance it by
//!   roofline time, messages by latency + volume / bandwidth, reductions by
//!   a log-tree term, and every synchronization records the *wait* caused by
//!   load imbalance.  These are exactly the categories of Table 3
//!   (global reductions / implicit synchronizations / ghost point scatters).
//! * [`scatter`] — PETSc `VecScatter` analogue: the ghost-point exchange
//!   pattern built from a mesh partition, executed with real data movement
//!   and simulated-time accounting.
//! * [`ranktrace`] — per-rank distributed tracing: message ledgers, span
//!   timelines in simulated time (one chrome-trace lane per rank), and a
//!   critical-path walk attributing end-to-end time to compute / exchange /
//!   wait across the rank×op DAG.

pub mod clock;
pub mod ranktrace;
pub mod scatter;
pub mod world;

pub use clock::{CommCost, OverheadShares, PhaseBreakdown, SimClock};
pub use ranktrace::{critical_path, CriticalPath, LedgerOp, MessageLedger, RankTracer};
pub use scatter::ScatterPlan;
pub use world::{run_world, run_world_instrumented, run_world_with, Rank, WorldOptions};
