//! Pseudo-transient Newton–Krylov–Schwarz continuation (ΨNKS).
//!
//! Newton's method on a stiff steady-state residual needs globalization; the
//! paper uses pseudo-timestepping with the switched evolution/relaxation
//! (SER) power law of Van Leer & Mulder:
//!
//! `CFL_l = CFL_0 * (||f(u_0)|| / ||f(u_{l-1})||)^p`
//!
//! Each pseudo-timestep solves one inexact-Newton correction
//! `(V/dtau + dR/dq) delta = -R(q)` with preconditioned GMRES, where the
//! matrix is the *first-order analytic* Jacobian plus the timestep diagonal,
//! and (optionally, Section 2.4.1) the residual switches from first- to
//! second-order discretization after a prescribed residual reduction.
//! Figure 5 sweeps `CFL_0`; Section 2.4.1 discusses `p` (0.75 with shocks,
//! up to 1.5 for first-order phases).

use crate::gmres::{gmres_with_events, GmresOptions};
use crate::health::{Anomaly, AnomalyKind, HealthConfig, HealthMonitor};
use crate::op::{CsrOperator, FdJacobianOperator, PseudoTransientProblem};
use crate::precond::{AdditiveSchwarz, BlockIluPrecond, IluPrecond, Preconditioner};
use fun3d_sparse::bcsr::BcsrMatrix;
use fun3d_sparse::ilu::{IluFactors, IluOptions};
use fun3d_sparse::vec_ops::norm2;
use fun3d_telemetry::events::{EventRecord, EventSink};
use fun3d_telemetry::Registry;
use std::sync::Arc;

/// Which preconditioner the Krylov solver uses.
#[derive(Debug, Clone)]
pub enum PrecondSpec {
    /// Global ILU(k) (the single-subdomain limit; Table 1's solve phase).
    Ilu(IluOptions),
    /// Point-block ILU(0) on the BCSR form with the given block size — the
    /// preconditioner the paper's code uses once structural blocking is on.
    BlockIlu {
        /// Block size (the number of unknowns per mesh point).
        block: usize,
    },
    /// Additive Schwarz over the given disjoint owned-row sets.
    Schwarz {
        /// Disjoint row sets covering all unknowns.
        owned_sets: Vec<Vec<usize>>,
        /// Overlap layers (0 = block Jacobi).
        overlap: usize,
        /// Subdomain ILU options.
        ilu: IluOptions,
        /// Restricted ASM (Cai–Sarkis) vs classic ASM.
        restricted: bool,
    },
}

/// How the inner (Krylov) tolerance is chosen each Newton step.
///
/// Section 2.4.2: "We have experimented with progressively tighter
/// tolerances near convergence, and saved Newton iterations thereby, but did
/// not save time relative to cases with loose and constant tolerance."
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Forcing {
    /// Fixed relative tolerance (the paper's production choice, 0.001-0.01).
    #[default]
    Constant,
    /// Eisenstat-Walker choice 2: `eta_l = gamma * (||R_l|| / ||R_{l-1}||)^2`,
    /// clamped to `[eta_min, eta_max]` — tightens as the residual falls.
    EisenstatWalker {
        /// Scale factor (typically 0.9).
        gamma: f64,
        /// Tolerance floor.
        eta_min: f64,
        /// Tolerance ceiling.
        eta_max: f64,
    },
}

/// Options for the ΨNKS solve.
#[derive(Debug, Clone)]
pub struct PseudoTransientOptions {
    /// Initial CFL number (Figure 5's swept parameter).
    pub cfl0: f64,
    /// SER exponent `p` (close to unity; 0.75–1.5 per Section 2.4.1).
    pub cfl_exponent: f64,
    /// CFL ceiling (the paper lets it reach 1e5).
    pub cfl_max: f64,
    /// Pseudo-timestep limit.
    pub max_steps: usize,
    /// Stop when `||R|| / ||R_0||` drops below this.
    pub target_reduction: f64,
    /// Krylov solve options (inexact-Newton inner tolerance lives in
    /// `krylov.rtol`, typically 0.001–0.01).
    pub krylov: GmresOptions,
    /// Preconditioner specification.
    pub precond: PrecondSpec,
    /// Switch the residual to second order once `||R||/||R_0||` falls below
    /// this (None = keep the initial order throughout).
    pub second_order_switch: Option<f64>,
    /// Use matrix-free FD Jacobian-vector products for the Krylov operator
    /// (the assembled first-order matrix still builds the preconditioner).
    pub matrix_free: bool,
    /// Enable a backtracking line search on the Newton update.
    pub line_search: bool,
    /// Run the Krylov matvec through block-CSR storage with this block size
    /// (the "structural blocking" of Table 1). Ignored under `matrix_free`.
    pub bcsr_block: Option<usize>,
    /// Inner-tolerance strategy (constant vs Eisenstat-Walker).
    pub forcing: Forcing,
    /// Rebuild the preconditioner every `pc_refresh` steps, reusing the old
    /// factors in between (the paper's "refresh frequency for Jacobian
    /// preconditioner" Newton parameter; the Krylov *operator* is always
    /// current). 1 = rebuild every step.
    pub pc_refresh: usize,
}

impl Default for PseudoTransientOptions {
    fn default() -> Self {
        Self {
            cfl0: 10.0,
            cfl_exponent: 1.0,
            cfl_max: 1e5,
            max_steps: 200,
            target_reduction: 1e-10,
            krylov: GmresOptions::default(),
            precond: PrecondSpec::Ilu(IluOptions::with_fill(1)),
            second_order_switch: None,
            matrix_free: false,
            line_search: true,
            bcsr_block: None,
            forcing: Forcing::Constant,
            pc_refresh: 1,
        }
    }
}

/// Wall time per solver phase, summed over all pseudo-timesteps (seconds).
/// Named replacement for the old bare `(f64, f64, f64, f64)` tuple.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseTimes {
    /// Residual (flux) evaluations, including line-search trials.
    pub residual: f64,
    /// Jacobian assembly and diagonal shifting.
    pub jacobian: f64,
    /// Preconditioner construction (ILU factorization / Schwarz setup).
    pub precond: f64,
    /// Krylov (GMRES) solve time.
    pub krylov: f64,
}

impl PhaseTimes {
    /// Total accounted wall time.
    pub fn total(&self) -> f64 {
        self.residual + self.jacobian + self.precond + self.krylov
    }
}

/// One pseudo-timestep's record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepRecord {
    /// Step index (0-based).
    pub step: usize,
    /// CFL number used.
    pub cfl: f64,
    /// Residual norm *before* the step.
    pub residual_norm: f64,
    /// Krylov iterations spent.
    pub linear_iters: usize,
    /// Whether the linear solve met its tolerance.
    pub linear_converged: bool,
    /// Line-search step length actually taken.
    pub step_length: f64,
    /// Wall time in residual evaluations this step (seconds).
    pub t_residual: f64,
    /// Wall time assembling the Jacobian (seconds).
    pub t_jacobian: f64,
    /// Wall time building the preconditioner (seconds).
    pub t_precond: f64,
    /// Wall time in the Krylov solve (seconds).
    pub t_krylov: f64,
}

/// The convergence history of a ΨNKS solve.
#[derive(Debug, Clone)]
pub struct SolveHistory {
    /// Per-step records.
    pub steps: Vec<StepRecord>,
    /// Whether the target reduction was reached.
    pub converged: bool,
    /// Final residual norm.
    pub final_residual: f64,
    /// Initial residual norm.
    pub initial_residual: f64,
    /// The anomaly that aborted the solve, if the health monitor tripped
    /// (NaN/Inf residual, divergence, stagnation, or CFL breakdown).  A
    /// healthy solve — converged or simply out of steps — leaves this `None`.
    pub anomaly: Option<Anomaly>,
}

impl SolveHistory {
    /// Total Krylov iterations across all steps (Table 4's "Linear Its").
    pub fn total_linear_iters(&self) -> usize {
        self.steps.iter().map(|s| s.linear_iters).sum()
    }

    /// Number of pseudo-timesteps taken.
    pub fn nsteps(&self) -> usize {
        self.steps.len()
    }

    /// Total wall time per phase across all steps, with names attached.
    pub fn phases(&self) -> PhaseTimes {
        self.steps
            .iter()
            .fold(PhaseTimes::default(), |acc, s| PhaseTimes {
                residual: acc.residual + s.t_residual,
                jacobian: acc.jacobian + s.t_jacobian,
                precond: acc.precond + s.t_precond,
                krylov: acc.krylov + s.t_krylov,
            })
    }

    /// Total wall time accounted across phases (seconds).
    pub fn total_time(&self) -> f64 {
        self.phases().total()
    }

    /// Mean wall time per pseudo-timestep (Table 1's "Time/Step").
    pub fn time_per_step(&self) -> f64 {
        if self.steps.is_empty() {
            0.0
        } else {
            self.total_time() / self.steps.len() as f64
        }
    }

    /// Residual reduction achieved.
    pub fn reduction(&self) -> f64 {
        if self.initial_residual == 0.0 {
            1.0
        } else {
            self.final_residual / self.initial_residual
        }
    }
}

/// BCSR matvec operator for the structural-blocking variant.
struct BcsrOperator<'a> {
    a: &'a BcsrMatrix,
    par: fun3d_sparse::par::ParCtx,
}

impl crate::op::LinearOperator for BcsrOperator<'_> {
    fn n(&self) -> usize {
        self.a.nrows()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.a.spmv_par(x, y, &self.par);
    }
}

enum BuiltPrecond {
    Ilu(Box<IluPrecond>),
    BlockIlu(Box<BlockIluPrecond>),
    Schwarz(AdditiveSchwarz),
}

impl Preconditioner for BuiltPrecond {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        match self {
            BuiltPrecond::Ilu(p) => p.apply(r, z),
            BuiltPrecond::BlockIlu(p) => p.apply(r, z),
            BuiltPrecond::Schwarz(p) => p.apply(r, z),
        }
    }

    fn traffic_bytes(&self) -> Option<f64> {
        match self {
            BuiltPrecond::Ilu(p) => p.traffic_bytes(),
            BuiltPrecond::BlockIlu(p) => p.traffic_bytes(),
            BuiltPrecond::Schwarz(p) => p.traffic_bytes(),
        }
    }
}

/// Immutable warm-start templates shared across solves of the same scenario
/// family (same mesh adjacency, ordering, physics, and layout — i.e. the same
/// Jacobian *pattern*).
///
/// Both templates are pattern-only accelerators: the ILU template skips the
/// symbolic `ILU(k)` analysis and level scheduling (numerics are redone with
/// [`IluFactors::refactor`], which runs the identical elimination as a fresh
/// factorization), and the BCSR template skips the block-structure merge
/// (values are rewritten in full by `refill_from_csr`).  A warm solve is
/// therefore **bitwise identical** to a cold one; templates that do not match
/// the problem (dimension, fill level, storage, block size, nnz) are ignored
/// rather than trusted.
#[derive(Debug, Clone, Default)]
pub struct WarmStart {
    /// Symbolic `ILU(k)` template for [`PrecondSpec::Ilu`]; cloned and
    /// numerically refactored against each step's shifted Jacobian.
    pub ilu: Option<Arc<IluFactors>>,
    /// Block-structure template for the [`PseudoTransientOptions::bcsr_block`]
    /// operator; cloned once and refilled from the point CSR each step.
    pub bcsr: Option<Arc<BcsrMatrix>>,
}

impl WarmStart {
    /// No templates: every solve pays full symbolic setup (the cold path).
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether any template is present.
    pub fn is_empty(&self) -> bool {
        self.ilu.is_none() && self.bcsr.is_none()
    }
}

/// Run ΨNKS continuation on `problem` starting from `q` (updated in place).
pub fn solve_pseudo_transient<P: PseudoTransientProblem>(
    problem: &mut P,
    q: &mut [f64],
    opts: &PseudoTransientOptions,
) -> SolveHistory {
    solve_pseudo_transient_instrumented(problem, q, opts, &Registry::disabled())
}

/// [`solve_pseudo_transient`] with profiling: records an `nks` span tree
/// (`nks/residual`, `nks/jacobian`, `nks/precond`, `nks/krylov/gmres/...`)
/// plus `steps` / `linear_iters` counters in `tel`.  Instrumentation only
/// observes the clock, so the residual history is bitwise identical to the
/// uninstrumented solve.
pub fn solve_pseudo_transient_instrumented<P: PseudoTransientProblem>(
    problem: &mut P,
    q: &mut [f64],
    opts: &PseudoTransientOptions,
    tel: &Registry,
) -> SolveHistory {
    solve_pseudo_transient_with_events(problem, q, opts, tel, &EventSink::disabled())
}

/// [`solve_pseudo_transient_instrumented`] that additionally emits one
/// [`EventRecord::NewtonStep`] per pseudo-timestep (mirroring the
/// [`StepRecord`] pushed into the history, plus the step's linear forcing
/// tolerance η) and per-iteration [`EventRecord::KrylovIter`] records from
/// the inner GMRES solves into `events`.
pub fn solve_pseudo_transient_with_events<P: PseudoTransientProblem>(
    problem: &mut P,
    q: &mut [f64],
    opts: &PseudoTransientOptions,
    tel: &Registry,
    events: &EventSink,
) -> SolveHistory {
    solve_pseudo_transient_warm(problem, q, opts, tel, events, &WarmStart::none())
}

/// [`solve_pseudo_transient_with_events`] seeded with [`WarmStart`] templates
/// from a previous solve on the same scenario family.  With matching
/// templates the per-solve symbolic setup (ILU(k) analysis, level schedules,
/// BCSR block-structure merge) is skipped; the numeric results are bitwise
/// identical to the cold path either way.
pub fn solve_pseudo_transient_warm<P: PseudoTransientProblem>(
    problem: &mut P,
    q: &mut [f64],
    opts: &PseudoTransientOptions,
    tel: &Registry,
    events: &EventSink,
    warm: &WarmStart,
) -> SolveHistory {
    let _solve_span = tel.span("nks");
    let n = problem.n();
    assert_eq!(q.len(), n);
    let mut r = vec![0.0; n];
    let t0 = std::time::Instant::now();
    {
        let _g = tel.span("residual");
        problem.residual(q, &mut r);
    }
    let mut t_residual_carry = t0.elapsed().as_secs_f64();
    let r0_norm = norm2(&r);
    let mut history = SolveHistory {
        steps: Vec::new(),
        converged: false,
        final_residual: r0_norm,
        initial_residual: r0_norm,
        anomaly: None,
    };
    if r0_norm == 0.0 {
        history.converged = true;
        return history;
    }
    // Health monitoring is always on: it reads only per-step scalars the
    // solve already computes, so a healthy run is bitwise unaffected.
    let mut monitor = HealthMonitor::new(HealthConfig::default(), r0_norm, opts.target_reduction);
    // CI fault-injection hooks, read once per solve.  PANIC unwinds mid-step
    // (exercising the flight recorder's panic dump); NAN poisons the residual
    // norm (exercising anomaly detection and graceful abort).
    let panic_at = fault_step("FUN3D_PANIC_AT_STEP");
    let nan_at = fault_step("FUN3D_NAN_AT_STEP");
    if !r0_norm.is_finite() {
        let anomaly = monitor
            .observe(0, r0_norm, 0.0)
            .expect("non-finite initial residual must trip the monitor");
        abort_with_anomaly(&mut history, anomaly, tel, events);
        return history;
    }
    let mut switched = opts.second_order_switch.is_none();
    // SER reference norm; reset when the discretization order switches
    // ("within each residual reduction phase" per Section 2.4.1).
    let mut ser_ref = r0_norm;
    let mut rnorm = r0_norm;
    let mut rhs = vec![0.0; n];
    let mut delta = vec![0.0; n];
    let mut q_trial = vec![0.0; n];
    let mut r_trial = vec![0.0; n];
    // Blocked operator cache: the symbolic block structure is computed once
    // and only values are refilled each step.  A matching warm template
    // provides the structure up front (refill overwrites every value, so the
    // seeded matrix is indistinguishable from a freshly built one).
    let mut bcsr_cache: Option<BcsrMatrix> = match (opts.bcsr_block, &warm.bcsr) {
        (Some(b), Some(t)) if t.block_size() == b && t.nrows() == n => Some((**t).clone()),
        _ => None,
    };
    // Lagged preconditioner (kept across steps when pc_refresh > 1).
    let mut pc_cache: Option<BuiltPrecond> = None;
    let mut pc_age = usize::MAX; // force a build on the first step

    for step in 0..opts.max_steps {
        if rnorm / r0_norm <= opts.target_reduction {
            history.converged = true;
            break;
        }
        if panic_at == Some(step) {
            // Record elapsed time of the open span stack first so a report
            // snapshotted by an outer panic handler still parses, then unwind
            // (the flight recorder's panic hook dumps the rings).
            tel.flush_open();
            panic!("injected panic at pseudo-step {step} (FUN3D_PANIC_AT_STEP)");
        }
        // Order continuation: switch to second order once the residual has
        // dropped far enough (and recompute the residual with the new
        // stencil; the norm typically jumps).
        if !switched {
            if let Some(thresh) = opts.second_order_switch {
                if rnorm / r0_norm < thresh {
                    problem.set_second_order(true);
                    switched = true;
                    let _g = tel.span("residual");
                    problem.residual(q, &mut r);
                    rnorm = norm2(&r);
                    ser_ref = rnorm;
                }
            }
        }
        // SER CFL law (relative to the current residual-reduction phase).
        let cfl = (opts.cfl0 * (ser_ref / rnorm).powf(opts.cfl_exponent)).min(opts.cfl_max);

        // Shifted first-order Jacobian.
        let t0 = std::time::Instant::now();
        let jac_span = tel.span("jacobian");
        let d = problem.inverse_timestep_scale(q);
        let mut jac = problem.jacobian(q);
        jac.shift_diagonal_by(1.0 / cfl, &d);
        drop(jac_span);
        let t_jacobian = t0.elapsed().as_secs_f64();

        // Preconditioner from the shifted matrix, rebuilt only every
        // `pc_refresh` steps (lagged preconditioning — the paper's "refresh
        // frequency for Jacobian preconditioner" knob).
        let t0 = std::time::Instant::now();
        let pc_span = tel.span("precond");
        if pc_age >= opts.pc_refresh.max(1) {
            let (what, built) = match &opts.precond {
                PrecondSpec::Ilu(ilu) => {
                    // A matching warm template skips the symbolic ILU(k)
                    // analysis: clone + refactor runs the same numeric
                    // elimination as a fresh factorization on the same
                    // pattern, so the factors are bitwise identical.
                    let template = warm
                        .ilu
                        .as_deref()
                        .filter(|t| t.is_template_for(jac.nrows(), ilu));
                    let factors = match template {
                        Some(t) => {
                            let mut f = t.clone();
                            f.refactor(&jac).map(|()| f)
                        }
                        None => IluFactors::factor(&jac, ilu),
                    };
                    let pc = factors.map(|f| {
                        BuiltPrecond::Ilu(Box::new(IluPrecond::new(f).with_par(opts.krylov.par)))
                    });
                    ("ILU", pc)
                }
                PrecondSpec::BlockIlu { block } => (
                    "block ILU",
                    BlockIluPrecond::factor(&jac, *block)
                        .map(|p| BuiltPrecond::BlockIlu(Box::new(p.with_par(opts.krylov.par)))),
                ),
                PrecondSpec::Schwarz {
                    owned_sets,
                    overlap,
                    ilu,
                    restricted,
                } => (
                    "Schwarz",
                    AdditiveSchwarz::new(&jac, owned_sets, *overlap, ilu, *restricted)
                        .map(BuiltPrecond::Schwarz),
                ),
            };
            match built {
                Ok(pc) => pc_cache = Some(pc),
                Err(e) => {
                    // A singular pivot ends the solve as a typed anomaly
                    // rather than a panic, so callers (and serve workers)
                    // get a failed history back.
                    let anomaly = Anomaly {
                        kind: AnomalyKind::ZeroPivot,
                        step: step as u64,
                        residual_norm: rnorm,
                        detail: format!(
                            "{what} setup failed at pseudo-step {step} (CFL {cfl:.3e}): {e}"
                        ),
                    };
                    drop(pc_span);
                    abort_with_anomaly(&mut history, anomaly, tel, events);
                    break;
                }
            }
            pc_age = 0;
        }
        pc_age += 1;
        let pc = pc_cache.as_ref().unwrap();
        drop(pc_span);
        let t_precond = t0.elapsed().as_secs_f64();

        // Inexact Newton: J delta = -R, with the step's forcing term.
        let mut krylov = opts.krylov;
        if let Forcing::EisenstatWalker {
            gamma,
            eta_min,
            eta_max,
        } = opts.forcing
        {
            if let Some(prev) = history.steps.last() {
                let ratio = rnorm / prev.residual_norm.max(1e-300);
                krylov.rtol = (gamma * ratio * ratio).clamp(eta_min, eta_max);
            } else {
                krylov.rtol = eta_max;
            }
        }
        for (o, ri) in rhs.iter_mut().zip(&r) {
            *o = -ri;
        }
        delta.iter_mut().for_each(|v| *v = 0.0);
        let t0 = std::time::Instant::now();
        let krylov_span = tel.span("krylov");
        let nstep = step as u64;
        let lin = if opts.matrix_free {
            let shift: Vec<f64> = d.iter().map(|&v| v / cfl).collect();
            let op = FdJacobianOperator::new(&*problem, q.to_vec(), r.clone(), shift);
            gmres_with_events(&op, pc, &rhs, &mut delta, &krylov, tel, events, nstep)
        } else if let Some(b) = opts.bcsr_block {
            match &mut bcsr_cache {
                // A seeded template whose source pattern disagrees (wrong
                // nnz) is discarded, not trusted.
                Some(cached) if cached.csr_nnz() == jac.nnz() => cached.refill_from_csr(&jac),
                _ => bcsr_cache = Some(BcsrMatrix::from_csr(&jac, b)),
            }
            let op = BcsrOperator {
                a: bcsr_cache.as_ref().unwrap(),
                par: krylov.par,
            };
            gmres_with_events(&op, pc, &rhs, &mut delta, &krylov, tel, events, nstep)
        } else {
            let op = CsrOperator::with_par(&jac, krylov.par);
            gmres_with_events(&op, pc, &rhs, &mut delta, &krylov, tel, events, nstep)
        };
        drop(krylov_span);
        tel.counter("linear_iters", lin.iterations as f64);
        let t_krylov = t0.elapsed().as_secs_f64();

        // Line search. Pseudo-transient continuation is globalized by the
        // timestep, not the search, so backtracking only guards against
        // outright blow-ups: try shrinking steps while the residual grows by
        // more than 20%, but if nothing small helps, take the *full* step
        // anyway (a mild transient hump is normal and creeping with tiny
        // steps stalls the continuation).
        let t0 = std::time::Instant::now();
        let res_span = tel.span("residual");
        let mut alpha = 1.0f64;
        let mut accepted = false;
        let mut full: Option<(f64, Vec<f64>, Vec<f64>)> = None;
        for k in 0..4 {
            for i in 0..n {
                q_trial[i] = q[i] + alpha * delta[i];
            }
            problem.residual(&q_trial, &mut r_trial);
            let tnorm = norm2(&r_trial);
            if k == 0 && tnorm.is_finite() {
                full = Some((tnorm, q_trial.clone(), r_trial.clone()));
            }
            if tnorm.is_finite() && (!opts.line_search || tnorm <= 1.2 * rnorm) {
                q.copy_from_slice(&q_trial);
                r.copy_from_slice(&r_trial);
                rnorm = tnorm;
                accepted = true;
                break;
            }
            alpha *= 0.5;
        }
        if !accepted {
            if let Some((tnorm, qf, rf)) = full {
                // Fall back to the full step rather than creep.
                alpha = 1.0;
                q.copy_from_slice(&qf);
                r.copy_from_slice(&rf);
                rnorm = tnorm;
            } else {
                // Not even finite: reject; CFL stays low since the residual
                // did not drop.
                alpha = 0.0;
            }
        }
        drop(res_span);
        if nan_at == Some(step) {
            // Injected fault: poison the residual norm the way a NaN leaking
            // out of a flux evaluation would.
            rnorm = f64::NAN;
        }
        let t_residual = t_residual_carry + t0.elapsed().as_secs_f64();
        t_residual_carry = 0.0;
        history.steps.push(StepRecord {
            step,
            cfl,
            residual_norm: rnorm,
            linear_iters: lin.iterations,
            linear_converged: lin.converged,
            step_length: alpha,
            t_residual,
            t_jacobian,
            t_precond,
            t_krylov,
        });
        events.emit(EventRecord::NewtonStep {
            step: nstep,
            residual_norm: rnorm,
            cfl,
            gmres_iters: lin.iterations as u64,
            eta: krylov.rtol,
            t_residual,
            t_jacobian,
            t_precond,
            t_krylov,
        });
        history.final_residual = rnorm;
        if let Some(anomaly) = monitor.observe(nstep, rnorm, alpha) {
            abort_with_anomaly(&mut history, anomaly, tel, events);
            break;
        }
    }
    if rnorm / r0_norm <= opts.target_reduction {
        history.converged = true;
    }
    tel.counter("steps", history.steps.len() as f64);
    history
}

/// Parse a fault-injection step index from the environment (CI hooks).
fn fault_step(var: &str) -> Option<usize> {
    std::env::var(var).ok().and_then(|v| v.parse().ok())
}

/// Graceful structured abort: emit the typed anomaly event, count it, dump
/// the flight recorder (if armed), and record the verdict in the history.
/// The solve returns normally — callers decide the process exit.
fn abort_with_anomaly(
    history: &mut SolveHistory,
    anomaly: Anomaly,
    tel: &Registry,
    events: &EventSink,
) {
    events.emit(EventRecord::Anomaly {
        kind: anomaly.kind.tag().to_string(),
        step: anomaly.step,
        residual_norm: anomaly.residual_norm,
        detail: anomaly.detail.clone(),
    });
    tel.counter("anomalies", 1.0);
    fun3d_telemetry::blackbox::dump_now(anomaly.kind.tag());
    history.anomaly = Some(anomaly);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::test_problems::Bratu1d;

    fn default_opts() -> PseudoTransientOptions {
        PseudoTransientOptions {
            cfl0: 1.0,
            cfl_exponent: 1.0,
            cfl_max: 1e8,
            max_steps: 60,
            target_reduction: 1e-10,
            krylov: GmresOptions {
                restart: 30,
                rtol: 1e-3,
                max_iters: 300,
                ..Default::default()
            },
            precond: PrecondSpec::Ilu(IluOptions::with_fill(0)),
            second_order_switch: None,
            matrix_free: false,
            line_search: true,
            bcsr_block: None,
            forcing: Forcing::Constant,
            pc_refresh: 1,
        }
    }

    #[test]
    fn converges_to_manufactured_solution() {
        let mut p = Bratu1d::new(40, 1.0);
        let mut q = vec![0.0; 40];
        let h = solve_pseudo_transient(&mut p, &mut q, &default_opts());
        assert!(h.converged, "reduction {}", h.reduction());
        let sol = p.solution();
        for (a, b) in q.iter().zip(&sol) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn cfl_grows_as_residual_falls() {
        let mut p = Bratu1d::new(30, 1.0);
        let mut q = vec![0.0; 30];
        let h = solve_pseudo_transient(&mut p, &mut q, &default_opts());
        assert!(h.converged);
        // SER: CFL is nondecreasing whenever the residual decreases.
        let cfls: Vec<f64> = h.steps.iter().map(|s| s.cfl).collect();
        assert!(cfls.last().unwrap() > cfls.first().unwrap());
        // Residual history is (eventually) decreasing.
        let first = h.steps.first().unwrap().residual_norm;
        assert!(h.final_residual < 1e-8 * first.max(1.0));
    }

    #[test]
    fn larger_initial_cfl_converges_in_fewer_steps() {
        // Figure 5's message, on the smooth model problem.
        let mut steps = Vec::new();
        for cfl0 in [0.1, 1.0, 10.0] {
            let mut p = Bratu1d::new(30, 0.5);
            let mut q = vec![0.0; 30];
            let mut opts = default_opts();
            opts.cfl0 = cfl0;
            let h = solve_pseudo_transient(&mut p, &mut q, &opts);
            assert!(h.converged, "cfl0={cfl0}");
            steps.push(h.nsteps());
        }
        assert!(
            steps[0] > steps[1] && steps[1] >= steps[2],
            "small CFL means long induction: {steps:?}"
        );
    }

    #[test]
    fn matrix_free_matches_assembled() {
        let run = |mf: bool| {
            let mut p = Bratu1d::new(25, 1.0);
            let mut q = vec![0.0; 25];
            let mut opts = default_opts();
            opts.matrix_free = mf;
            let h = solve_pseudo_transient(&mut p, &mut q, &opts);
            (h, q)
        };
        let (h1, q1) = run(false);
        let (h2, q2) = run(true);
        assert!(h1.converged && h2.converged);
        for (a, b) in q1.iter().zip(&q2) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn schwarz_preconditioned_nks_converges() {
        let n = 40;
        let mut p = Bratu1d::new(n, 0.8);
        let mut q = vec![0.0; n];
        let mut opts = default_opts();
        opts.precond = PrecondSpec::Schwarz {
            owned_sets: (0..4)
                .map(|k| (k * n / 4..(k + 1) * n / 4).collect())
                .collect(),
            overlap: 1,
            ilu: IluOptions::with_fill(0),
            restricted: true,
        };
        let h = solve_pseudo_transient(&mut p, &mut q, &opts);
        assert!(h.converged, "reduction {}", h.reduction());
        assert!(h.total_linear_iters() > 0);
    }

    #[test]
    fn higher_exponent_accelerates_cfl_growth() {
        let run = |pexp: f64| {
            let mut p = Bratu1d::new(30, 0.5);
            let mut q = vec![0.0; 30];
            let mut opts = default_opts();
            opts.cfl0 = 0.5;
            opts.cfl_exponent = pexp;
            let h = solve_pseudo_transient(&mut p, &mut q, &opts);
            assert!(h.converged);
            h.nsteps()
        };
        let slow = run(0.75);
        let fast = run(1.5);
        assert!(fast <= slow, "p=1.5 ({fast}) should beat p=0.75 ({slow})");
    }

    #[test]
    fn eisenstat_walker_saves_newton_steps() {
        let run = |forcing: Forcing| {
            let mut p = Bratu1d::new(30, 1.0);
            let mut q = vec![0.0; 30];
            let mut opts = default_opts();
            opts.krylov.rtol = 1e-1; // loose constant baseline
            opts.forcing = forcing;
            let h = solve_pseudo_transient(&mut p, &mut q, &opts);
            assert!(h.converged, "{forcing:?}");
            (h.nsteps(), h.total_linear_iters())
        };
        let (steps_c, _) = run(Forcing::Constant);
        let (steps_ew, _) = run(Forcing::EisenstatWalker {
            gamma: 0.9,
            eta_min: 1e-6,
            eta_max: 0.5,
        });
        // The paper's observation: tighter tolerances near convergence save
        // Newton iterations (time is a separate question).
        assert!(steps_ew <= steps_c, "EW {steps_ew} vs constant {steps_c}");
    }

    #[test]
    fn exact_initial_guess_returns_immediately() {
        let mut p = Bratu1d::new(20, 1.0);
        let mut q = p.solution();
        let h = solve_pseudo_transient(&mut p, &mut q, &default_opts());
        assert!(h.converged);
        assert!(h.nsteps() <= 1);
    }

    #[test]
    fn lagged_preconditioner_still_converges() {
        let run = |refresh: usize| {
            let mut p = Bratu1d::new(30, 1.0);
            let mut q = vec![0.0; 30];
            let mut opts = default_opts();
            opts.pc_refresh = refresh;
            let h = solve_pseudo_transient(&mut p, &mut q, &opts);
            assert!(h.converged, "refresh={refresh}: {:.2e}", h.reduction());
            (h.nsteps(), h.total_linear_iters(), q)
        };
        let (s1, l1, q1) = run(1);
        let (s4, l4, q4) = run(4);
        // A stale preconditioner costs at most extra Krylov/Newton work, not
        // correctness: same solution, possibly more iterations.
        for (a, b) in q1.iter().zip(&q4) {
            assert!((a - b).abs() < 1e-5);
        }
        assert!(s4 <= 3 * s1.max(1));
        assert!(
            l4 + 1 >= l1,
            "lagging shouldn't reduce linear work: {l4} vs {l1}"
        );
    }

    #[test]
    fn newton_step_events_mirror_history() {
        let mut p = Bratu1d::new(25, 1.0);
        let mut q = vec![0.0; 25];
        let sink = EventSink::enabled();
        let h = solve_pseudo_transient_with_events(
            &mut p,
            &mut q,
            &default_opts(),
            &Registry::disabled(),
            &sink,
        );
        assert!(h.converged);
        let evs = sink.drain();
        let steps: Vec<&EventRecord> = evs
            .iter()
            .filter(|e| matches!(e, EventRecord::NewtonStep { .. }))
            .collect();
        assert_eq!(steps.len(), h.nsteps());
        for (rec, ev) in h.steps.iter().zip(&steps) {
            let EventRecord::NewtonStep {
                step,
                residual_norm,
                cfl,
                gmres_iters,
                eta,
                ..
            } = ev
            else {
                unreachable!()
            };
            assert_eq!(*step, rec.step as u64);
            assert_eq!(*residual_norm, rec.residual_norm);
            assert_eq!(*cfl, rec.cfl);
            assert_eq!(*gmres_iters, rec.linear_iters as u64);
            // Constant forcing: η is the configured Krylov tolerance.
            assert_eq!(*eta, default_opts().krylov.rtol);
        }
        // Krylov iterations ride along, totalling the history's count.
        let kry = evs
            .iter()
            .filter(|e| matches!(e, EventRecord::KrylovIter { .. }))
            .count();
        assert_eq!(kry, h.total_linear_iters());
        // Event emission must not perturb the solve itself.
        let mut p2 = Bratu1d::new(25, 1.0);
        let mut q2 = vec![0.0; 25];
        let h2 = solve_pseudo_transient(&mut p2, &mut q2, &default_opts());
        assert_eq!(q, q2);
        assert_eq!(h.final_residual, h2.final_residual);
    }

    #[test]
    fn warm_ilu_template_is_bitwise_identical_to_cold() {
        let run = |warm: &WarmStart| {
            let mut p = Bratu1d::new(30, 1.0);
            let mut q = vec![0.0; 30];
            let h = solve_pseudo_transient_warm(
                &mut p,
                &mut q,
                &default_opts(),
                &Registry::disabled(),
                &EventSink::disabled(),
                warm,
            );
            (h, q)
        };
        let (hc, qc) = run(&WarmStart::none());
        // The template comes from the *unshifted* initial Jacobian: the
        // pseudo-timestep shift only changes diagonal values, never the
        // pattern, so the symbolic structure matches every step matrix.
        let p = Bratu1d::new(30, 1.0);
        let jac = p.jacobian(&vec![0.0; 30]);
        let template = IluFactors::factor(&jac, &IluOptions::with_fill(0)).unwrap();
        let warm = WarmStart {
            ilu: Some(Arc::new(template)),
            bcsr: None,
        };
        assert!(!warm.is_empty());
        let (hw, qw) = run(&warm);
        assert!(hc.converged && hw.converged);
        assert_eq!(qc, qw, "warm solution must be bitwise identical");
        assert_eq!(hc.nsteps(), hw.nsteps());
        assert_eq!(hc.final_residual, hw.final_residual);
        for (a, b) in hc.steps.iter().zip(&hw.steps) {
            assert_eq!(a.residual_norm, b.residual_norm);
            assert_eq!(a.linear_iters, b.linear_iters);
            assert_eq!(a.cfl, b.cfl);
        }
    }

    #[test]
    fn warm_bcsr_template_is_bitwise_identical_to_cold() {
        let mut opts = default_opts();
        opts.bcsr_block = Some(5);
        let run = |warm: &WarmStart, opts: &PseudoTransientOptions| {
            let mut p = Bratu1d::new(30, 1.0);
            let mut q = vec![0.0; 30];
            let h = solve_pseudo_transient_warm(
                &mut p,
                &mut q,
                opts,
                &Registry::disabled(),
                &EventSink::disabled(),
                warm,
            );
            (h, q)
        };
        let (hc, qc) = run(&WarmStart::none(), &opts);
        let p = Bratu1d::new(30, 1.0);
        let jac = p.jacobian(&vec![0.0; 30]);
        let warm = WarmStart {
            ilu: None,
            bcsr: Some(Arc::new(BcsrMatrix::from_csr(&jac, 5))),
        };
        let (hw, qw) = run(&warm, &opts);
        assert!(hc.converged && hw.converged);
        assert_eq!(qc, qw);
        assert_eq!(hc.final_residual, hw.final_residual);
    }

    #[test]
    fn mismatched_warm_templates_are_ignored() {
        // Wrong fill level, wrong dimension, and a BCSR template with a
        // foreign pattern: all must fall back to the cold path, not corrupt
        // or panic.
        let p = Bratu1d::new(30, 1.0);
        let jac = p.jacobian(&vec![0.0; 30]);
        let wrong_fill = IluFactors::factor(&jac, &IluOptions::with_fill(2)).unwrap();
        let small = Bratu1d::new(20, 1.0);
        let wrong_dim =
            IluFactors::factor(&small.jacobian(&[0.0; 20]), &IluOptions::with_fill(0)).unwrap();
        // Diagonal-only pattern: same n and block size, different nnz.
        let eye = fun3d_sparse::csr::CsrMatrix::identity(30);
        let foreign_bcsr = BcsrMatrix::from_csr(&eye, 5);
        let mut opts = default_opts();
        opts.bcsr_block = Some(5);
        for warm in [
            WarmStart {
                ilu: Some(Arc::new(wrong_fill)),
                bcsr: None,
            },
            WarmStart {
                ilu: Some(Arc::new(wrong_dim)),
                bcsr: Some(Arc::new(foreign_bcsr)),
            },
        ] {
            let mut p = Bratu1d::new(30, 1.0);
            let mut q = vec![0.0; 30];
            let h = solve_pseudo_transient_warm(
                &mut p,
                &mut q,
                &opts,
                &Registry::disabled(),
                &EventSink::disabled(),
                &warm,
            );
            assert!(h.converged, "reduction {}", h.reduction());
            let mut p2 = Bratu1d::new(30, 1.0);
            let mut q2 = vec![0.0; 30];
            let h2 = solve_pseudo_transient(&mut p2, &mut q2, &opts);
            assert_eq!(q, q2, "ignored template must leave results untouched");
            assert_eq!(h.final_residual, h2.final_residual);
        }
    }

    #[test]
    fn history_records_are_complete() {
        let mut p = Bratu1d::new(20, 1.0);
        let mut q = vec![0.0; 20];
        let h = solve_pseudo_transient(&mut p, &mut q, &default_opts());
        for (i, s) in h.steps.iter().enumerate() {
            assert_eq!(s.step, i);
            assert!(s.cfl > 0.0);
            assert!(s.residual_norm.is_finite());
            assert!(s.step_length > 0.0);
        }
    }

    #[test]
    fn healthy_solves_report_no_anomaly() {
        // The monitor is always on; none of the standard solves — including
        // the slow small-CFL induction case — may trip it.
        for cfl0 in [0.1, 1.0, 10.0] {
            let mut p = Bratu1d::new(30, 0.5);
            let mut q = vec![0.0; 30];
            let mut opts = default_opts();
            opts.cfl0 = cfl0;
            let h = solve_pseudo_transient(&mut p, &mut q, &opts);
            assert!(h.converged, "cfl0={cfl0}");
            assert!(h.anomaly.is_none(), "cfl0={cfl0}: {:?}", h.anomaly);
        }
    }

    #[test]
    fn non_finite_initial_residual_aborts_with_anomaly() {
        // A NaN already in the initial state must produce a structured
        // verdict, not max_steps of NaN algebra.
        let mut p = Bratu1d::new(20, 1.0);
        let mut q = vec![0.0; 20];
        q[7] = f64::NAN;
        let sink = EventSink::enabled();
        let h = solve_pseudo_transient_with_events(
            &mut p,
            &mut q,
            &default_opts(),
            &Registry::disabled(),
            &sink,
        );
        assert!(!h.converged);
        assert_eq!(h.nsteps(), 0, "must abort before stepping");
        let anomaly = h.anomaly.expect("NaN initial residual must be flagged");
        assert_eq!(anomaly.kind, crate::health::AnomalyKind::NonFiniteResidual);
        // The typed anomaly event rides the stream for post-mortem tools.
        let evs = sink.drain();
        assert!(
            evs.iter().any(
                |e| matches!(e, EventRecord::Anomaly { kind, .. } if kind == "non_finite_residual")
            ),
            "anomaly event missing: {evs:?}"
        );
    }

    /// `R(q) = q - 1` with a Jacobian whose block row 1 (rows 2 and 3) is
    /// the singular `[[1, 1], [1, 1]]` and carries no pseudo-time shift, so
    /// every shifted Jacobian stays singular there.
    struct SingularBlock;

    impl PseudoTransientProblem for SingularBlock {
        fn n(&self) -> usize {
            8
        }
        fn residual(&self, q: &[f64], out: &mut [f64]) {
            for (o, v) in out.iter_mut().zip(q) {
                *o = v - 1.0;
            }
        }
        fn jacobian(&self, _q: &[f64]) -> fun3d_sparse::CsrMatrix {
            let mut t = fun3d_sparse::triplet::TripletMatrix::new(8, 8);
            for i in [0, 1, 4, 5, 6, 7] {
                t.push(i, i, 1.0);
            }
            t.push_block(1, 1, 2, &[1.0, 1.0, 1.0, 1.0]);
            t.to_csr()
        }
        fn inverse_timestep_scale(&self, _q: &[f64]) -> Vec<f64> {
            vec![1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0]
        }
    }

    #[test]
    fn singular_block_aborts_with_zero_pivot_anomaly() {
        let specs = [
            PrecondSpec::Ilu(IluOptions::with_fill(0)),
            PrecondSpec::BlockIlu { block: 2 },
            PrecondSpec::Schwarz {
                owned_sets: vec![(0..4).collect(), (4..8).collect()],
                overlap: 0,
                ilu: IluOptions::with_fill(0),
                restricted: false,
            },
        ];
        for precond in specs {
            let mut opts = default_opts();
            opts.precond = precond.clone();
            let mut q = vec![0.0; 8];
            let sink = EventSink::enabled();
            let h = solve_pseudo_transient_with_events(
                &mut SingularBlock,
                &mut q,
                &opts,
                &Registry::disabled(),
                &sink,
            );
            assert!(!h.converged, "{precond:?}");
            assert_eq!(h.nsteps(), 0, "{precond:?}: must abort before stepping");
            let anomaly = h.anomaly.expect("singular block must be flagged");
            assert_eq!(anomaly.kind, AnomalyKind::ZeroPivot, "{precond:?}");
            assert_eq!(anomaly.step, 0);
            assert!(anomaly.detail.contains("zero pivot"), "{}", anomaly.detail);
            assert!(
                sink.drain().iter().any(
                    |e| matches!(e, EventRecord::Anomaly { kind, .. } if kind == "zero_pivot")
                ),
                "{precond:?}: zero_pivot event missing"
            );
        }
    }

    #[test]
    fn armed_flight_recorder_is_bitwise_inert() {
        // The ISSUE's pin: recorder + monitor on changes no numerical result.
        let run = || {
            let mut p = Bratu1d::new(25, 1.0);
            let mut q = vec![0.0; 25];
            let tel = Registry::enabled(0);
            let sink = EventSink::enabled();
            let h =
                solve_pseudo_transient_with_events(&mut p, &mut q, &default_opts(), &tel, &sink);
            (h, q)
        };
        let (h_off, q_off) = run();
        fun3d_telemetry::blackbox::arm(512, None);
        let (h_on, q_on) = run();
        fun3d_telemetry::blackbox::disarm();
        assert!(h_off.converged && h_on.converged);
        assert_eq!(q_off, q_on, "recorder must not perturb the solution");
        assert_eq!(h_off.final_residual, h_on.final_residual);
        assert_eq!(h_off.nsteps(), h_on.nsteps());
        for (a, b) in h_off.steps.iter().zip(&h_on.steps) {
            assert_eq!(a.residual_norm, b.residual_norm);
            assert_eq!(a.linear_iters, b.linear_iters);
            assert_eq!(a.cfl, b.cfl);
        }
        // And the armed run actually captured the final spans.
        let dump = fun3d_telemetry::blackbox::dump_string("test")
            .expect("armed run must leave ring contents");
        assert!(dump.contains("fun3d-blackbox/1"));
        assert!(dump.contains("krylov"), "rings should hold solver spans");
    }
}
