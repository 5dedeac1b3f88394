//! Single-process ΨNKS solves: `converge` and `kernel-spill`.

use super::{
    build_mesh, converge_options, keep_going, model_name, next_is_traced, set_end_to_end,
    step_times, trace_overhead, Op, Outcome, SETUP_REPS,
};
use crate::cli::Args;
use crate::inputs::mesh_spec;
use crate::metrics::Metrics;
use crate::replay::{replay, shifted_jacobian, KernelTimes};
use crate::stats::{mean, median, peak_rss_mb, ratio};
use crate::timed::{record_solver_phases, CallLog, TimedProblem};
use crate::trace::Tracer;
use fun3d_core::problem::EulerProblem;
use fun3d_euler::model::FlowModel;
use fun3d_euler::residual::{Discretization, SpatialOrder};
use fun3d_mesh::generator::BumpChannelSpec;
use fun3d_serve::solution_fingerprint;
use fun3d_solver::op::PseudoTransientProblem;
use fun3d_solver::pseudo::{
    solve_pseudo_transient, PrecondSpec, PseudoTransientOptions, SolveHistory,
};
use fun3d_sparse::ilu::IluOptions;
use fun3d_sparse::layout::FieldLayout;
use std::time::Instant;

/// A single-process solve workload.
#[derive(Debug, Clone)]
pub struct SolveCase {
    /// Seeded mesh spec.
    pub mesh: BumpChannelSpec,
    /// Flow model.
    pub model: FlowModel,
    /// Solver options (threads live in `opts.krylov.par`).  A zero
    /// `target_reduction` runs exactly `max_steps` steps, and the solve is
    /// then judged by having lowered the residual instead of by reaching a
    /// target.
    pub opts: PseudoTransientOptions,
}

impl SolveCase {
    /// `converge`: an incompressible bump channel of ~1,500 vertices, tuned
    /// layout with BCSR operator, point ILU(1), GMRES(20), solved to a 1e-8
    /// reduction on one thread.
    pub fn converge(seed: u64) -> Self {
        let mut opts = converge_options(1, 120);
        opts.bcsr_block = Some(4);
        Self {
            mesh: mesh_spec(CONVERGE_VERTICES, seed),
            model: FlowModel::incompressible(),
            opts,
        }
    }

    /// `kernel-spill`: compressible on the Table 1 full-size mesh, BCSR
    /// operator and block ILU, GMRES(30) capped at 60 iterations per step,
    /// a fixed number of steps on two threads.
    pub fn kernel_spill(seed: u64) -> Self {
        let mut opts = converge_options(2, SPILL_STEPS);
        opts.cfl0 = SPILL_CFL0;
        opts.target_reduction = 0.0;
        opts.krylov.restart = 30;
        opts.krylov.max_iters = 60;
        opts.precond = PrecondSpec::BlockIlu { block: 5 };
        opts.bcsr_block = Some(5);
        Self {
            mesh: mesh_spec(SPILL_VERTICES, seed),
            model: FlowModel::compressible(),
            opts,
        }
    }

    fn passed(&self, h: &SolveHistory) -> bool {
        if h.anomaly.is_some() {
            return false;
        }
        if self.opts.target_reduction > 0.0 {
            h.converged && h.reduction() <= self.opts.target_reduction
        } else {
            h.nsteps() == self.opts.max_steps
                && h.final_residual.is_finite()
                && h.final_residual < h.initial_residual
        }
    }

    fn ilu_options(&self) -> IluOptions {
        match &self.opts.precond {
            PrecondSpec::Ilu(o) => *o,
            _ => IluOptions::with_fill(0),
        }
    }
}

/// Target vertex count of `converge`.
pub const CONVERGE_VERTICES: usize = 1_500;
/// Target vertex count of `kernel-spill` (Table 1's full-size mesh).
pub const SPILL_VERTICES: usize = 22_677;
/// Steps of one `kernel-spill` solve.
pub const SPILL_STEPS: usize = 4;
/// Initial CFL of `kernel-spill`: high enough that GMRES hits its cap.
pub const SPILL_CFL0: f64 = 1.0e5;

/// Per-layer totals of the traced solves.
#[derive(Default)]
struct Layers {
    solves: usize,
    residual_s: f64,
    residual_calls: usize,
    jacobian_s: f64,
    jacobian_calls: usize,
    jacobian_call_s: Vec<f64>,
    timestep_scale_s: f64,
    precond_s: f64,
    krylov_s: f64,
    steps: usize,
    linear_iters: usize,
    linear_converged: usize,
    full_steps: usize,
}

impl Layers {
    fn add(&mut self, log: &CallLog, h: &SolveHistory) {
        self.solves += 1;
        self.residual_s += CallLog::total(&log.residual);
        self.residual_calls += log.residual.len();
        self.jacobian_s += CallLog::total(&log.jacobian);
        self.jacobian_calls += log.jacobian.len();
        self.jacobian_call_s
            .extend(log.jacobian.iter().map(|(a, b)| b - a));
        self.timestep_scale_s += CallLog::total(&log.timestep_scale);
        let phases = h.phases();
        self.precond_s += phases.precond;
        self.krylov_s += phases.krylov;
        self.steps += h.nsteps();
        self.linear_iters += h.total_linear_iters();
        self.linear_converged += h.steps.iter().filter(|s| s.linear_converged).count();
        self.full_steps += h.steps.iter().filter(|s| s.step_length == 1.0).count();
    }

    fn set(&self, m: &mut Metrics) {
        let per = |v: f64| ratio(v, self.solves as f64);
        m.set("euler.residual_s", per(self.residual_s));
        m.set("euler.residual_calls", per(self.residual_calls as f64));
        m.set("euler.jacobian_s", per(self.jacobian_s));
        m.set("euler.jacobian_calls", per(self.jacobian_calls as f64));
        m.set("euler.jacobian_call_s", median(&self.jacobian_call_s));
        m.set("euler.timestep_scale_s", per(self.timestep_scale_s));
        m.set("solver.precond_s", per(self.precond_s));
        m.set("solver.krylov_s", per(self.krylov_s));
        m.set("solver.newton_steps", per(self.steps as f64));
        m.set("solver.linear_iters", per(self.linear_iters as f64));
        m.set(
            "solver.linear_converged_frac",
            ratio(self.linear_converged as f64, self.steps as f64),
        );
        m.set(
            "solver.full_step_frac",
            ratio(self.full_steps as f64, self.steps as f64),
        );
        m.set(
            "solver.residual_evals_per_step",
            ratio(self.residual_calls as f64, self.steps as f64),
        );
    }
}

/// Set the `sparse.*` metrics to the mean of the replays.
pub fn set_sparse(m: &mut Metrics, replays: &[KernelTimes]) {
    let avg = |f: fn(&KernelTimes) -> f64| mean(&replays.iter().map(f).collect::<Vec<_>>());
    m.set("sparse.ilu_factor_s", avg(|k| k.ilu_factor_s));
    m.set("sparse.ilu_refactor_s", avg(|k| k.ilu_refactor_s));
    m.set("sparse.ilu_apply_s", avg(|k| k.ilu_apply_s));
    m.set("sparse.ilu_nnz", avg(|k| k.ilu_nnz));
    m.set("sparse.csr_spmv_s", avg(|k| k.csr_spmv_s));
    m.set("sparse.bcsr_build_s", avg(|k| k.bcsr_build_s));
    m.set("sparse.bcsr_refill_s", avg(|k| k.bcsr_refill_s));
    m.set("sparse.bcsr_spmv_s", avg(|k| k.bcsr_spmv_s));
    m.set(
        "sparse.bcsr_spmv_gbps",
        avg(|k| ratio(k.bcsr_spmv_bytes, k.bcsr_spmv_s) / 1e9),
    );
    m.set("sparse.block_ilu_factor_s", avg(|k| k.block_ilu_factor_s));
    m.set("sparse.block_ilu_apply_s", avg(|k| k.block_ilu_apply_s));
    m.set(
        "sparse.block_ilu_apply_gbps",
        avg(|k| ratio(k.block_ilu_apply_bytes, k.block_ilu_apply_s) / 1e9),
    );
}

/// Run a solve workload for `args.seconds`.
pub fn run(case: &SolveCase, args: &Args, tracer: &Tracer) -> Outcome {
    let mut m = Metrics::default();
    let layout = FieldLayout::Interlaced;
    let order = SpatialOrder::First;

    // Set-up: mesh generated, reordered, discretization and problem built.
    let mut setup = Vec::new();
    let (mut build, mut reorder) = (Vec::new(), Vec::new());
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let id = tracer.enter("setup");
        let t0 = Instant::now();
        let b = build_mesh(&case.mesh, tracer);
        tracer.span("euler.discretization", || {
            let disc = Discretization::new(&b.mesh, case.model, layout, order);
            std::hint::black_box(EulerProblem::new(disc).initial_state());
        });
        setup.push(t0.elapsed().as_secs_f64());
        tracer.exit(id);
        build.push(b.build_s);
        reorder.push(b.reorder_s);
        built = Some(b);
    }
    let mesh = built.expect("at least one set-up").mesh;
    let problem = || EulerProblem::new(Discretization::new(&mesh, case.model, layout, order));
    let mut bare = problem();
    let mut timed = TimedProblem::new(problem(), tracer);

    // Measured solves.  Every solve starts from the same freestream state,
    // so every solution must be bitwise the first one.
    let mut ops = Vec::new();
    let mut steps_after_first = Vec::new();
    let mut solve_times = Vec::new();
    let mut fingerprints = Vec::new();
    let (mut all_steps, mut all_iters) = (0usize, 0usize);
    let mut layers = Layers::default();
    let mut last_traced: Option<(CallLog, SolveHistory)> = None;
    let start = Instant::now();
    while keep_going(tracer, start, args.seconds, &ops, 1) {
        let traced = next_is_traced(tracer, ops.len());
        let (history, q, wall) = if traced {
            let id = tracer.enter("solve");
            let mut q = timed.inner().initial_state();
            let t0 = Instant::now();
            let h = solve_pseudo_transient(&mut timed, &mut q, &case.opts);
            let wall = t0.elapsed().as_secs_f64();
            let log = timed.take_log();
            record_solver_phases(tracer, id, &log, &h);
            tracer.exit(id);
            layers.add(&log, &h);
            last_traced = Some((log, h.clone()));
            (h, q, wall)
        } else {
            let id = tracer.enter("solve (untraced)");
            let mut q = bare.initial_state();
            let t0 = Instant::now();
            let h = solve_pseudo_transient(&mut bare, &mut q, &case.opts);
            let wall = t0.elapsed().as_secs_f64();
            tracer.exit(id);
            (h, q, wall)
        };
        let fp = solution_fingerprint(&q);
        let ok = case.passed(&history) && fingerprints.first().is_none_or(|&f| f == fp);
        fingerprints.push(fp);
        all_steps += history.nsteps();
        all_iters += history.total_linear_iters();
        if !traced {
            solve_times.push(wall);
            steps_after_first.extend(step_times(&history).into_iter().skip(1));
        }
        ops.push(Op {
            latency_s: wall,
            ok,
            traced,
        });
    }
    let window = start.elapsed().as_secs_f64();
    let rss = peak_rss_mb();

    let failed = ops.iter().filter(|o| !o.ok).count();
    set_end_to_end(
        &mut m,
        &setup,
        &ops,
        window,
        median(&solve_times),
        median(&steps_after_first),
        rss,
    );
    m.set("mesh.build_s", median(&build));
    m.set("mesh.reorder_s", median(&reorder));
    m.set("mesh.nverts", mesh.nverts() as f64);
    m.set("mesh.nedges", mesh.nedges() as f64);
    layers.set(&mut m);

    if let Some((log, h)) = &last_traced {
        // Replay the sparse kernels on the step-1 and last-step matrices.
        let id = tracer.enter("replay");
        let block = case.model.ncomp();
        let mut replays = Vec::new();
        for (q, step) in [
            (&log.q_step1, 1),
            (&log.q_last, h.nsteps().saturating_sub(1)),
        ] {
            if let (Some(q), Some(rec)) = (q, h.steps.get(step)) {
                let jac = tracer.span("euler.jacobian", || {
                    shifted_jacobian(timed.inner(), q, rec.cfl)
                });
                replays.extend(replay(
                    tracer,
                    &jac,
                    &case.ilu_options(),
                    block,
                    &case.opts.krylov.par,
                ));
            }
        }
        tracer.exit(id);
        set_sparse(&mut m, &replays);
        m.set("trace.overhead_frac", trace_overhead(&ops));
    }

    let per_solve = |v: usize| v as f64 / ops.len().max(1) as f64;
    let summary = vec![format!(
        "{} vertices, {} unknowns, {}, {} thread(s); {} solves in {:.2} s ({} traced); \
         {} failed; {:.1} steps and {:.1} linear iterations per solve",
        mesh.nverts(),
        bare.n(),
        model_name(&case.model),
        case.opts.krylov.par.nthreads(),
        ops.len(),
        window,
        ops.iter().filter(|o| o.traced).count(),
        failed,
        per_solve(all_steps),
        per_solve(all_iters),
    )];
    Outcome {
        attempted: ops.len(),
        failed,
        metrics: m,
        summary,
    }
}
