//! `perfbench`: the end-to-end and per-layer benchmark of the ΨNKS solver.
//!
//! One process runs one named workload against the solver crates' public
//! API and prints every metric by name with its unit.  The last line of
//! standard output is a JSON object with `correct`, `attempted`, `failed`
//! and `metrics`.  An untraced run (`--trace 0`) reports the end-to-end
//! metrics; a traced run (`--trace 1`) times the calls into each layer from
//! this crate's own code and reports the per-layer metrics.  See
//! `README.md` in this directory for the workloads and what each layer
//! metric should move.

pub mod cli;
pub mod inputs;
pub mod metrics;
pub mod replay;
pub mod stats;
pub mod timed;
pub mod trace;
pub mod workloads;

/// End-to-end metrics: `(name, unit)`.  Every workload reports all of them
/// in an untraced run; `BENCHMARK.json` lists the same names.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("step_s", "s"),
    ("solves_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`.  Every workload reports all of them in
/// a traced run; a layer a workload does not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("mesh.build_s", "s"),
    ("mesh.reorder_s", "s"),
    ("partition.kway_s", "s"),
    ("mesh.nverts", "count"),
    ("mesh.nedges", "count"),
    ("partition.edge_cut", "count"),
    ("euler.residual_s", "s"),
    ("euler.residual_calls", "count"),
    ("euler.jacobian_s", "s"),
    ("euler.jacobian_calls", "count"),
    ("euler.jacobian_call_s", "s"),
    ("euler.timestep_scale_s", "s"),
    ("solver.precond_s", "s"),
    ("solver.krylov_s", "s"),
    ("solver.newton_steps", "count"),
    ("solver.linear_iters", "count"),
    ("solver.linear_converged_frac", "frac"),
    ("solver.full_step_frac", "frac"),
    ("solver.residual_evals_per_step", "count"),
    ("sparse.ilu_factor_s", "s"),
    ("sparse.ilu_refactor_s", "s"),
    ("sparse.ilu_apply_s", "s"),
    ("sparse.ilu_nnz", "count"),
    ("sparse.csr_spmv_s", "s"),
    ("sparse.bcsr_build_s", "s"),
    ("sparse.bcsr_refill_s", "s"),
    ("sparse.bcsr_spmv_s", "s"),
    ("sparse.bcsr_spmv_gbps", "GB/s"),
    ("sparse.block_ilu_factor_s", "s"),
    ("sparse.block_ilu_apply_s", "s"),
    ("sparse.block_ilu_apply_gbps", "GB/s"),
    ("comm.scatter_s", "s"),
    ("comm.allreduce_s", "s"),
    ("comm.msgs_per_step", "count"),
    ("comm.bytes_per_step", "B"),
    ("comm.wait_frac", "frac"),
    ("core.rank_busy_imbalance", "ratio"),
    ("core.sim_time_s", "s"),
    ("serve.queue_s", "s"),
    ("serve.family_setup_s", "s"),
    ("serve.solve_s", "s"),
    ("serve.respond_s", "s"),
    ("serve.cache_hit_rate", "frac"),
    ("trace.overhead_frac", "frac"),
    ("trace.unattributed_s", "s"),
];
