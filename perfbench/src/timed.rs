//! A timing wrapper around a [`PseudoTransientProblem`].
//!
//! [`TimedProblem`] forwards every call unchanged, so a solve through it
//! does bitwise the same arithmetic as one through the bare problem.  It
//! times each call into the `euler` layer (residual, Jacobian, timestep
//! scale), records a span per call, and keeps the states at which the
//! Jacobian was assembled so the sparse kernels can be replayed on the
//! exact step matrices afterwards.

use crate::trace::Tracer;
use fun3d_solver::op::PseudoTransientProblem;
use fun3d_solver::pseudo::SolveHistory;
use fun3d_sparse::csr::CsrMatrix;
use std::cell::RefCell;
use std::time::Instant;

/// `(start, end)` of every call, in tracer seconds, plus captured states.
#[derive(Debug, Clone, Default)]
pub struct CallLog {
    /// Residual evaluations.
    pub residual: Vec<(f64, f64)>,
    /// Jacobian assemblies (one per pseudo-timestep).
    pub jacobian: Vec<(f64, f64)>,
    /// Timestep-scale evaluations (one per pseudo-timestep).
    pub timestep_scale: Vec<(f64, f64)>,
    /// State at the second Jacobian assembly (step 1).
    pub q_step1: Option<Vec<f64>>,
    /// State at the latest Jacobian assembly.
    pub q_last: Option<Vec<f64>>,
}

impl CallLog {
    /// Summed duration of a call list.
    pub fn total(calls: &[(f64, f64)]) -> f64 {
        calls.iter().map(|(a, b)| b - a).sum()
    }
}

/// A problem that forwards to `inner`, timing and logging every call.
pub struct TimedProblem<'t, P> {
    inner: P,
    tracer: &'t Tracer,
    log: RefCell<CallLog>,
}

impl<'t, P: PseudoTransientProblem> TimedProblem<'t, P> {
    /// Wrap `inner`, recording spans into `tracer`.
    pub fn new(inner: P, tracer: &'t Tracer) -> Self {
        Self {
            inner,
            tracer,
            log: RefCell::new(CallLog::default()),
        }
    }

    /// The wrapped problem.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Take the call log, leaving an empty one for the next solve.
    pub fn take_log(&self) -> CallLog {
        std::mem::take(&mut *self.log.borrow_mut())
    }

    fn timed<R>(
        &self,
        name: &str,
        pick: fn(&mut CallLog) -> &mut Vec<(f64, f64)>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.tracer.enter(name);
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        self.tracer.exit(id);
        pick(&mut self.log.borrow_mut()).push((self.tracer.at(t0), self.tracer.at(t1)));
        out
    }
}

impl<P: PseudoTransientProblem> PseudoTransientProblem for TimedProblem<'_, P> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn residual(&self, q: &[f64], out: &mut [f64]) {
        self.timed(
            "euler.residual",
            |l| &mut l.residual,
            || self.inner.residual(q, out),
        )
    }

    fn jacobian(&self, q: &[f64]) -> CsrMatrix {
        let jac = self.timed(
            "euler.jacobian",
            |l| &mut l.jacobian,
            || self.inner.jacobian(q),
        );
        let mut log = self.log.borrow_mut();
        if log.jacobian.len() == 2 {
            log.q_step1 = Some(q.to_vec());
        }
        log.q_last = Some(q.to_vec());
        jac
    }

    fn inverse_timestep_scale(&self, q: &[f64]) -> Vec<f64> {
        self.timed(
            "euler.timestep_scale",
            |l| &mut l.timestep_scale,
            || self.inner.inverse_timestep_scale(q),
        )
    }

    fn set_second_order(&mut self, enable: bool) {
        self.inner.set_second_order(enable);
    }
}

/// Record the solver's preconditioner and Krylov phases of each step as
/// spans under `parent`.  Their durations are the solver's own per-step
/// timers; they are placed where the wrapper saw the gap they fill: the
/// preconditioner starts when that step's Jacobian call returns, and the
/// Krylov solve ends when the step's first line-search residual starts.
pub fn record_solver_phases(
    tracer: &Tracer,
    parent: Option<usize>,
    log: &CallLog,
    history: &SolveHistory,
) {
    if !tracer.is_on() {
        return;
    }
    for (step, jac) in history.steps.iter().zip(&log.jacobian) {
        let pc_start = jac.1;
        tracer.record_under(
            parent,
            "solver.precond",
            pc_start,
            pc_start + step.t_precond,
        );
        let next_residual = log
            .residual
            .iter()
            .map(|r| r.0)
            .find(|&t| t >= pc_start)
            .unwrap_or(pc_start + step.t_precond + step.t_krylov);
        tracer.record_under(
            parent,
            "solver.krylov",
            next_residual - step.t_krylov,
            next_residual,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fun3d_core::problem::EulerProblem;
    use fun3d_euler::model::FlowModel;
    use fun3d_euler::residual::{Discretization, SpatialOrder};
    use fun3d_mesh::generator::BumpChannelSpec;
    use fun3d_solver::pseudo::solve_pseudo_transient;
    use fun3d_sparse::layout::FieldLayout;

    #[test]
    fn wrapper_gives_bitwise_the_same_residual_history() {
        let mesh = BumpChannelSpec::with_dims(7, 5, 5).build();
        let disc = || {
            Discretization::new(
                &mesh,
                FlowModel::incompressible(),
                FieldLayout::Interlaced,
                SpatialOrder::First,
            )
        };
        let opts = crate::workloads::converge_options(1, 60);
        let mut bare = EulerProblem::new(disc());
        let mut q_bare = bare.initial_state();
        let h_bare = solve_pseudo_transient(&mut bare, &mut q_bare, &opts);

        let tracer = Tracer::new(true);
        let mut timed = TimedProblem::new(EulerProblem::new(disc()), &tracer);
        let mut q_timed = timed.inner().initial_state();
        let h_timed = solve_pseudo_transient(&mut timed, &mut q_timed, &opts);

        assert!(h_bare.converged);
        let norms = |h: &SolveHistory| -> Vec<u64> {
            h.steps.iter().map(|s| s.residual_norm.to_bits()).collect()
        };
        assert_eq!(norms(&h_bare), norms(&h_timed));
        assert_eq!(
            q_bare.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            q_timed.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        let log = timed.take_log();
        assert_eq!(log.jacobian.len(), h_timed.nsteps());
        assert!(log.residual.len() > h_timed.nsteps());
        assert!(log.q_step1.is_some() && log.q_last.is_some());
        assert!(!tracer.spans().is_empty());
    }
}
