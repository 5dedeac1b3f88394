//! The workloads at test size: correct runs pass, forced failures are
//! counted, and traced runs fill the per-layer metrics.

use perfbench::cli::{Args, Workload};
use perfbench::inputs::mesh_spec;
use perfbench::trace::{self, Tracer};
use perfbench::workloads::dist::DistCase;
use perfbench::workloads::serve::ServeCase;
use perfbench::workloads::solve::SolveCase;
use perfbench::workloads::{dist, serve, solve};
use perfbench::{END_TO_END, PER_LAYER};

fn args(workload: Workload, trace: bool) -> Args {
    Args {
        workload,
        seed: 3,
        seconds: 0.01,
        trace,
    }
}

fn small_converge() -> SolveCase {
    let mut case = SolveCase::converge(3);
    case.mesh = mesh_spec(300, 3);
    case
}

#[test]
fn converge_passes_and_reports_every_end_to_end_metric() {
    let out = solve::run(
        &small_converge(),
        &args(Workload::Converge, false),
        &Tracer::new(false),
    );
    assert_eq!(out.failed, 0, "{:?}", out.summary);
    assert!(out.attempted >= 1);
    for (name, _, value) in out.metrics.selected(false) {
        assert!(value > 0.0 && value.is_finite(), "{name} = {value}");
    }
    assert_eq!(out.metrics.selected(false).len(), END_TO_END.len());
}

#[test]
fn a_solve_that_misses_its_target_counts_as_failed() {
    let mut case = small_converge();
    case.opts.max_steps = 3; // a 1e-8 reduction needs far more steps
    let out = solve::run(&case, &args(Workload::Converge, false), &Tracer::new(false));
    assert!(out.attempted >= 1);
    assert_eq!(out.failed, out.attempted);
    assert!(out.metrics.get("latency_p50_s").is_infinite());
    assert!(out.metrics.get("latency_p90_s").is_infinite());
}

#[test]
fn traced_solve_fills_layers_and_its_tree_adds_up() {
    let tracer = Tracer::new(true);
    let root = tracer.enter("converge");
    let out = solve::run(&small_converge(), &args(Workload::Converge, true), &tracer);
    tracer.exit(root);
    assert_eq!(out.failed, 0);
    assert_eq!(out.attempted, 2, "one untraced and one traced solve");
    let m = &out.metrics;
    for name in [
        "mesh.build_s",
        "euler.residual_s",
        "euler.jacobian_s",
        "euler.jacobian_call_s",
        "solver.precond_s",
        "solver.krylov_s",
        "solver.newton_steps",
        "sparse.ilu_factor_s",
        "sparse.bcsr_spmv_gbps",
        "sparse.block_ilu_apply_s",
    ] {
        assert!(m.get(name) > 0.0, "{name}");
    }
    assert_eq!(m.get("euler.jacobian_calls"), m.get("solver.newton_steps"));
    assert_eq!(m.selected(true).len(), PER_LAYER.len());

    // The traced solve's children cover nearly all of it.
    let spans = tracer.spans();
    let rows = trace::tree(&spans);
    let solve = rows.iter().find(|r| r.path == "converge/solve").unwrap();
    assert!(solve.has_children);
    assert!(solve.self_s < 0.2 * solve.total_s, "{solve:?}");
}

#[test]
fn kernel_spill_fixed_steps_pass_at_test_size() {
    let mut case = SolveCase::kernel_spill(3);
    case.mesh = mesh_spec(400, 3);
    let out = solve::run(
        &case,
        &args(Workload::KernelSpill, false),
        &Tracer::new(false),
    );
    assert_eq!(out.failed, 0, "{:?}", out.summary);
}

#[test]
fn dist2_matches_its_reference_and_counts_failures() {
    let mut case = DistCase::dist2(3);
    case.mesh = mesh_spec(300, 3);
    let tracer = Tracer::new(true);
    let out = dist::run(&case, &args(Workload::Dist2, true), &tracer);
    assert_eq!(out.failed, 0, "{:?}", out.summary);
    assert!(out.metrics.get("comm.msgs_per_step") > 0.0);
    assert!(out.metrics.get("core.sim_time_s") > 0.0);

    case.opts.max_steps = 3;
    let out = dist::run(&case, &args(Workload::Dist2, false), &Tracer::new(false));
    assert!(out.attempted >= 1);
    assert_eq!(out.failed, out.attempted);
}

fn small_serve() -> ServeCase {
    let mut case = ServeCase::serve_warm(3);
    for f in &mut case.families {
        f.mesh = mesh_spec(60, 3);
    }
    case.min_requests = 6;
    case
}

#[test]
fn serve_requests_match_direct_solves() {
    let tracer = Tracer::new(true);
    let out = serve::run(&small_serve(), &args(Workload::ServeWarm, true), &tracer);
    assert_eq!(out.failed, 0, "{:?}", out.summary);
    assert_eq!(out.attempted, 6);
    assert!(out.metrics.get("serve.solve_s") > 0.0);
    assert!(out.metrics.get("serve.cache_hit_rate") > 0.5);
}

#[test]
fn serve_requests_that_miss_their_target_count_as_failed() {
    let mut case = small_serve();
    case.opts.max_steps = 2;
    let out = serve::run(
        &case,
        &args(Workload::ServeWarm, false),
        &Tracer::new(false),
    );
    assert_eq!(out.attempted, 6);
    assert_eq!(out.failed, 6);
    assert!(out.metrics.get("latency_p90_s").is_infinite());
}
