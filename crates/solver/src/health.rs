//! In-process solver health monitoring.
//!
//! The ΨNKS continuation can fail in ways that burn wall clock instead of
//! stopping: a NaN leaks into the residual and every later norm is NaN, the
//! residual blows up but `max_steps` is large, or the SER schedule wedges
//! (the line search rejects everything, CFL stops growing, the residual
//! plateaus).  The [`HealthMonitor`] watches the same per-step quantities
//! the event stream records — residual norm and accepted step length — and
//! classifies the first pathology it sees as a typed [`Anomaly`], letting
//! the solve abort gracefully with a structured verdict instead of spinning
//! to the step limit.
//!
//! Thresholds are deliberately conservative: a *healthy* solve — including
//! slow small-CFL induction phases and mild transient humps — must never
//! trip the monitor, because it is always on.  The monitor only reads
//! per-step scalars, so its presence is bitwise inert to the solve.

use std::collections::VecDeque;

/// Anomaly classes the monitor detects, ordered by how definitive they are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnomalyKind {
    /// The residual norm became NaN or infinite.
    NonFiniteResidual,
    /// The residual grew by [`HealthConfig::divergence_factor`] over the
    /// best norm seen so far.
    Divergence,
    /// The residual sat in a narrow band for a full window while still
    /// above the convergence target.
    Stagnation,
    /// The line search rejected every trial step (accepted step length 0)
    /// for several consecutive steps: the CFL schedule cannot advance.
    CflBreakdown,
    /// Preconditioner setup hit a singular pivot (point ILU, block ILU or
    /// a Schwarz subdomain factorization).
    ZeroPivot,
}

impl AnomalyKind {
    /// Stable string tag used in `fun3d-events/1` anomaly records.
    pub fn tag(self) -> &'static str {
        match self {
            AnomalyKind::NonFiniteResidual => "non_finite_residual",
            AnomalyKind::Divergence => "divergence",
            AnomalyKind::Stagnation => "stagnation",
            AnomalyKind::CflBreakdown => "cfl_breakdown",
            AnomalyKind::ZeroPivot => "zero_pivot",
        }
    }

    /// Parse the stable tag.
    pub fn from_tag(s: &str) -> Option<Self> {
        match s {
            "non_finite_residual" => Some(AnomalyKind::NonFiniteResidual),
            "divergence" => Some(AnomalyKind::Divergence),
            "stagnation" => Some(AnomalyKind::Stagnation),
            "cfl_breakdown" => Some(AnomalyKind::CflBreakdown),
            "zero_pivot" => Some(AnomalyKind::ZeroPivot),
            _ => None,
        }
    }
}

/// One detected anomaly: what went wrong, where, and the evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct Anomaly {
    /// The anomaly class.
    pub kind: AnomalyKind,
    /// Pseudo-timestep it was detected at.
    pub step: u64,
    /// Residual norm at detection (may be NaN).
    pub residual_norm: f64,
    /// Human-readable evidence (thresholds crossed, window sizes).
    pub detail: String,
}

/// Detection thresholds.  The defaults are tuned so healthy solves — slow
/// induction phases included — never trip.
#[derive(Debug, Clone, Copy)]
pub struct HealthConfig {
    /// Divergence when `rnorm > divergence_factor * best_seen`.
    pub divergence_factor: f64,
    /// Stagnation window length in steps.
    pub stagnation_window: usize,
    /// Stagnation when `max/min` over the window is below this ratio (a
    /// band this narrow over a full window means no progress).
    pub stagnation_ratio: f64,
    /// CFL breakdown after this many consecutive zero-length steps.
    pub cfl_breakdown_steps: usize,
}

impl Default for HealthConfig {
    fn default() -> Self {
        Self {
            divergence_factor: 1e6,
            stagnation_window: 25,
            stagnation_ratio: 1.0005,
            cfl_breakdown_steps: 5,
        }
    }
}

/// Streaming anomaly detector over per-step (residual norm, step length)
/// observations.  Feed it each pseudo-timestep; the first anomaly is
/// returned once and the monitor latches (later observations return
/// `None`).
#[derive(Debug, Clone)]
pub struct HealthMonitor {
    cfg: HealthConfig,
    /// Initial residual norm (convergence is measured relative to it).
    r0: f64,
    /// Target relative reduction: residuals below `r0 * target` are
    /// converged territory and never count as stagnation.
    target_reduction: f64,
    best: f64,
    window: VecDeque<f64>,
    zero_steps: usize,
    tripped: bool,
}

impl HealthMonitor {
    /// A monitor for a solve starting at residual norm `r0` targeting
    /// `target_reduction` relative reduction.
    pub fn new(cfg: HealthConfig, r0: f64, target_reduction: f64) -> Self {
        Self {
            cfg,
            r0,
            target_reduction,
            best: if r0.is_finite() { r0 } else { f64::INFINITY },
            window: VecDeque::new(),
            zero_steps: 0,
            tripped: false,
        }
    }

    /// Observe one completed pseudo-timestep: the residual norm after the
    /// step and the accepted line-search step length.  Returns the first
    /// anomaly detected, once.
    pub fn observe(&mut self, step: u64, residual_norm: f64, step_length: f64) -> Option<Anomaly> {
        if self.tripped {
            return None;
        }
        let anomaly = self.classify(step, residual_norm, step_length);
        if anomaly.is_some() {
            self.tripped = true;
        }
        anomaly
    }

    fn classify(&mut self, step: u64, rnorm: f64, alpha: f64) -> Option<Anomaly> {
        if !rnorm.is_finite() {
            return Some(Anomaly {
                kind: AnomalyKind::NonFiniteResidual,
                step,
                residual_norm: rnorm,
                detail: format!("residual norm became {rnorm} at step {step}"),
            });
        }
        if rnorm > self.best * self.cfg.divergence_factor {
            return Some(Anomaly {
                kind: AnomalyKind::Divergence,
                step,
                residual_norm: rnorm,
                detail: format!(
                    "residual {rnorm:.3e} exceeds {:.0e}x the best norm seen ({:.3e})",
                    self.cfg.divergence_factor, self.best
                ),
            });
        }
        self.best = self.best.min(rnorm);

        if alpha == 0.0 {
            self.zero_steps += 1;
            if self.zero_steps >= self.cfg.cfl_breakdown_steps {
                return Some(Anomaly {
                    kind: AnomalyKind::CflBreakdown,
                    step,
                    residual_norm: rnorm,
                    detail: format!(
                        "line search rejected every trial for {} consecutive steps",
                        self.zero_steps
                    ),
                });
            }
        } else {
            self.zero_steps = 0;
        }

        self.window.push_back(rnorm);
        if self.window.len() > self.cfg.stagnation_window {
            self.window.pop_front();
        }
        let above_target = self.r0 > 0.0 && rnorm / self.r0 > self.target_reduction;
        if above_target && self.window.len() == self.cfg.stagnation_window {
            let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);
            for &v in &self.window {
                lo = lo.min(v);
                hi = hi.max(v);
            }
            if lo > 0.0 && hi / lo < self.cfg.stagnation_ratio {
                return Some(Anomaly {
                    kind: AnomalyKind::Stagnation,
                    step,
                    residual_norm: rnorm,
                    detail: format!(
                        "residual within {:.2}% band over {} steps while {:.1e}x above target",
                        (self.cfg.stagnation_ratio - 1.0) * 100.0,
                        self.cfg.stagnation_window,
                        rnorm / self.r0 / self.target_reduction
                    ),
                });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_cfg() -> HealthConfig {
        HealthConfig {
            stagnation_window: 5,
            cfl_breakdown_steps: 3,
            ..HealthConfig::default()
        }
    }

    #[test]
    fn nan_residual_is_flagged_immediately() {
        let mut m = HealthMonitor::new(HealthConfig::default(), 1.0, 1e-10);
        assert!(m.observe(0, 0.5, 1.0).is_none());
        let a = m.observe(1, f64::NAN, 1.0).expect("NaN must trip");
        assert_eq!(a.kind, AnomalyKind::NonFiniteResidual);
        assert_eq!(a.step, 1);
        assert!(a.residual_norm.is_nan());
        // Latched: no second report.
        assert!(m.observe(2, f64::NAN, 1.0).is_none());
    }

    #[test]
    fn infinity_counts_as_non_finite() {
        let mut m = HealthMonitor::new(HealthConfig::default(), 1.0, 1e-10);
        let a = m.observe(0, f64::INFINITY, 1.0).unwrap();
        assert_eq!(a.kind, AnomalyKind::NonFiniteResidual);
    }

    #[test]
    fn divergence_measured_against_best_seen() {
        let mut m = HealthMonitor::new(HealthConfig::default(), 1.0, 1e-10);
        // Descend first so best < r0, then blow up relative to the best.
        assert!(m.observe(0, 1e-3, 1.0).is_none());
        assert!(m.observe(1, 0.9e-3, 1.0).is_none());
        // A mild transient hump is fine...
        assert!(m.observe(2, 5e-3, 1.0).is_none());
        // ...but 1e6x over the best is a blow-up.
        let a = m.observe(3, 1e4, 1.0).expect("divergence must trip");
        assert_eq!(a.kind, AnomalyKind::Divergence);
        assert!(a.detail.contains("best norm"));
    }

    #[test]
    fn stagnation_needs_full_window_above_target() {
        let mut m = HealthMonitor::new(fast_cfg(), 1.0, 1e-10);
        // Four flat steps: window not full yet.
        for s in 0..4 {
            assert!(m.observe(s, 0.5, 1.0).is_none(), "step {s}");
        }
        let a = m.observe(4, 0.5, 1.0).expect("flat full window trips");
        assert_eq!(a.kind, AnomalyKind::Stagnation);
        assert!(a.detail.contains("band over 5 steps"));
    }

    #[test]
    fn plateau_below_target_is_convergence_not_stagnation() {
        let mut m = HealthMonitor::new(fast_cfg(), 1.0, 1e-6);
        for s in 0..20 {
            assert!(
                m.observe(s, 1e-8, 1.0).is_none(),
                "converged plateau must not trip (step {s})"
            );
        }
    }

    #[test]
    fn slow_but_steady_descent_never_trips() {
        // 1% decrease per step: slow induction, but real progress — over a
        // 5-step window max/min is ~1.04, far above the 1.0005 band.
        let mut m = HealthMonitor::new(fast_cfg(), 1.0, 1e-10);
        let mut r = 1.0;
        for s in 0..200 {
            assert!(m.observe(s, r, 1.0).is_none(), "step {s}");
            r *= 0.99;
        }
    }

    #[test]
    fn consecutive_zero_steps_flag_cfl_breakdown() {
        let mut m = HealthMonitor::new(fast_cfg(), 1.0, 1e-10);
        // Interleaved recovery resets the run length.
        assert!(m.observe(0, 0.9, 0.0).is_none());
        assert!(m.observe(1, 0.8, 0.0).is_none());
        assert!(m.observe(2, 0.7, 1.0).is_none());
        assert!(m.observe(3, 0.7, 0.0).is_none());
        assert!(m.observe(4, 0.7, 0.0).is_none());
        let a = m.observe(5, 0.7, 0.0).expect("3 consecutive rejections");
        assert_eq!(a.kind, AnomalyKind::CflBreakdown);
        assert!(a.detail.contains("3 consecutive"));
    }

    #[test]
    fn kind_tags_round_trip() {
        for k in [
            AnomalyKind::NonFiniteResidual,
            AnomalyKind::Divergence,
            AnomalyKind::Stagnation,
            AnomalyKind::CflBreakdown,
            AnomalyKind::ZeroPivot,
        ] {
            assert_eq!(AnomalyKind::from_tag(k.tag()), Some(k));
        }
        assert_eq!(AnomalyKind::from_tag("bogus"), None);
    }
}
