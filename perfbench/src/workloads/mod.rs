//! The four workloads and the measurements they share.

pub mod dist;
pub mod serve;
pub mod solve;

use crate::cli::{Args, Workload};
use crate::metrics::Metrics;
use crate::stats::{median, quantile};
use crate::trace::{self, Tracer};
use fun3d_core::config::{apply_orderings, LayoutConfig};
use fun3d_euler::model::FlowModel;
use fun3d_mesh::generator::BumpChannelSpec;
use fun3d_mesh::tet::TetMesh;
use fun3d_solver::gmres::GmresOptions;
use fun3d_solver::pseudo::{Forcing, PrecondSpec, PseudoTransientOptions, SolveHistory};
use fun3d_sparse::ilu::IluOptions;
use fun3d_sparse::par::ParCtx;
use std::time::Instant;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// What one run measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations attempted (solves or requests), set-up excluded.
    pub attempted: usize,
    /// Operations that failed a correctness check.
    pub failed: usize,
    /// Every metric.
    pub metrics: Metrics,
    /// Human-readable lines printed before the metrics.
    pub summary: Vec<String>,
}

/// Run the workload `args` names.
pub fn run(args: &Args, tracer: &Tracer) -> Outcome {
    let root = tracer.enter(args.workload.name());
    let mut out = match args.workload {
        Workload::Converge => solve::run(&solve::SolveCase::converge(args.seed), args, tracer),
        Workload::KernelSpill => {
            solve::run(&solve::SolveCase::kernel_spill(args.seed), args, tracer)
        }
        Workload::Dist2 => dist::run(&dist::DistCase::dist2(args.seed), args, tracer),
        Workload::ServeWarm => serve::run(&serve::ServeCase::serve_warm(args.seed), args, tracer),
    };
    tracer.exit(root);
    if tracer.is_on() {
        out.metrics.set(
            "trace.unattributed_s",
            trace::unattributed_s(&tracer.spans()),
        );
    }
    out
}

/// ΨNKS options of the `converge` workload: SER CFL from 5 with p = 1.2,
/// GMRES(20) at rtol 1e-2, point ILU(1), 1e-8 reduction.
pub fn converge_options(threads: usize, max_steps: usize) -> PseudoTransientOptions {
    PseudoTransientOptions {
        cfl0: 5.0,
        cfl_exponent: 1.2,
        cfl_max: 1e6,
        max_steps,
        target_reduction: 1e-8,
        krylov: GmresOptions {
            restart: 20,
            rtol: 1e-2,
            max_iters: 120,
            par: ParCtx::new(threads),
            ..Default::default()
        },
        precond: PrecondSpec::Ilu(IluOptions::with_fill(1)),
        second_order_switch: None,
        matrix_free: false,
        line_search: true,
        bcsr_block: None,
        forcing: Forcing::Constant,
        pc_refresh: 1,
    }
}

/// A mesh built and reordered with the tuned layout, with the time of
/// each stage.
pub struct BuiltMesh {
    /// The reordered mesh.
    pub mesh: TetMesh,
    /// Seconds in `BumpChannelSpec::build`.
    pub build_s: f64,
    /// Seconds in `apply_orderings`.
    pub reorder_s: f64,
}

/// Generate and reorder a mesh (RCM vertices, vertex-sorted edges), each
/// stage under its own span.
pub fn build_mesh(spec: &BumpChannelSpec, tracer: &Tracer) -> BuiltMesh {
    let layout = LayoutConfig::tuned();
    let t0 = Instant::now();
    let raw = tracer.span("mesh.build", || spec.build());
    let t1 = Instant::now();
    let mesh = tracer.span("mesh.reorder", || {
        apply_orderings(raw, layout.vertex_ordering, layout.edge_ordering)
    });
    BuiltMesh {
        mesh,
        build_s: (t1 - t0).as_secs_f64(),
        reorder_s: t1.elapsed().as_secs_f64(),
    }
}

/// Wall seconds of each pseudo-timestep, from the solver's phase timers.
pub fn step_times(h: &SolveHistory) -> Vec<f64> {
    h.steps
        .iter()
        .map(|s| s.t_residual + s.t_jacobian + s.t_precond + s.t_krylov)
        .collect()
}

/// One measured operation.
#[derive(Debug, Clone)]
pub struct Op {
    /// Wall seconds the caller waited.
    pub latency_s: f64,
    /// Passed every correctness check.
    pub ok: bool,
    /// Recorded with the tracer on.
    pub traced: bool,
}

/// The end-to-end metrics every workload shares.  Failed operations count
/// as missing every latency percentile (their latency is infinite).
pub fn set_end_to_end(
    m: &mut Metrics,
    setup: &[f64],
    ops: &[Op],
    window_s: f64,
    solve_s: f64,
    step_s: f64,
    peak_rss_mb: f64,
) {
    let lat: Vec<f64> = ops
        .iter()
        .filter(|o| !o.traced)
        .map(|o| if o.ok { o.latency_s } else { f64::INFINITY })
        .collect();
    m.set("setup_s", median(setup));
    m.set("solve_s", solve_s);
    m.set("step_s", step_s);
    m.set("solves_per_s", ops.len() as f64 / window_s);
    m.set("latency_p50_s", quantile(&lat, 0.5));
    m.set("latency_p90_s", quantile(&lat, 0.9));
    m.set("peak_rss_mb", peak_rss_mb);
}

/// `trace.overhead_frac`: traced over untraced median latency, minus one.
pub fn trace_overhead(ops: &[Op]) -> f64 {
    let pick = |traced: bool| -> Vec<f64> {
        ops.iter()
            .filter(|o| o.traced == traced)
            .map(|o| o.latency_s)
            .collect()
    };
    let (on, off) = (median(&pick(true)), median(&pick(false)));
    if on > 0.0 && off > 0.0 {
        on / off - 1.0
    } else {
        0.0
    }
}

/// Whether the next operation is traced: in a traced run operations
/// alternate, untraced first, so overhead compares like with like.
pub fn next_is_traced(tracer: &Tracer, done: usize) -> bool {
    tracer.is_on() && done % 2 == 1
}

/// Keep measuring while the next operation, at the mean duration so far,
/// still ends inside the `seconds` window — and in any case until
/// `min_ops` ran (two in a traced run, one of each kind).
pub fn keep_going(
    tracer: &Tracer,
    start: Instant,
    seconds: f64,
    ops: &[Op],
    min_ops: usize,
) -> bool {
    let min_ops = if tracer.is_on() {
        min_ops.max(2)
    } else {
        min_ops
    };
    let typical = ops.iter().map(|o| o.latency_s).sum::<f64>() / ops.len().max(1) as f64;
    ops.len() < min_ops || start.elapsed().as_secs_f64() + typical <= seconds
}

/// Flow model label.
pub fn model_name(model: &FlowModel) -> &'static str {
    match model {
        FlowModel::Incompressible { .. } => "incompressible",
        FlowModel::Compressible { .. } => "compressible",
    }
}
