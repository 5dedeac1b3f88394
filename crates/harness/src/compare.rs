//! Noise-aware comparison of a current run against a stored baseline.
//!
//! A metric only counts as a regression when it moves in the *bad* direction
//! by more than a threshold combining a relative band, a robust noise band
//! (MAD-scaled), and an absolute floor — so a 2% jitter on a 1 ms kernel
//! never gates, while a reproducible 2x slowdown always does.

use crate::baseline::{ExperimentBaseline, MetricBaseline};
use crate::stats::{Summary, MAD_TO_SIGMA};

/// Comparison tolerances.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    /// Relative band: changes below `rel * |baseline median|` pass.
    pub rel: f64,
    /// Noise band: changes below `mad_k * 1.4826 * max(base MAD, cur MAD)`
    /// pass (the factor converts MAD to a sigma estimate).
    pub mad_k: f64,
    /// Absolute floor below which changes are never flagged — protects
    /// sub-microsecond timings where relative noise is huge.
    pub abs_floor: f64,
}

impl Default for Tolerance {
    fn default() -> Self {
        Self {
            rel: 0.2,
            mad_k: 6.0,
            abs_floor: 1e-4,
        }
    }
}

impl Tolerance {
    /// The change magnitude that separates pass from fail for a metric with
    /// the given baseline and current spreads.
    pub fn threshold(&self, base: &MetricBaseline, current: &Summary) -> f64 {
        let noise = self.mad_k * MAD_TO_SIGMA * base.mad.max(current.mad);
        (self.rel * base.median.abs())
            .max(noise)
            .max(self.abs_floor)
    }
}

/// Outcome of one metric (or one experiment) comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within tolerance of the baseline.
    Pass,
    /// Worse than baseline by more than the threshold.
    Regressed,
    /// Better than baseline by more than the threshold.
    Improved,
    /// The metric exists on only one side (renamed, added, or removed).
    UnknownMetric,
}

impl Verdict {
    /// Short token for tables.
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Regressed => "REGRESSED",
            Verdict::Improved => "improved",
            Verdict::UnknownMetric => "unknown-metric",
        }
    }
}

/// Metric polarity: does a larger value mean better performance?
///
/// Rates, speedups, and efficiencies improve upward; times, misses, byte
/// counts, and iteration counts improve downward.  The heuristic keys off
/// the naming conventions used across the workspace's reports.
pub fn higher_is_better(key: &str) -> bool {
    [
        "bytes_per_s",
        "bandwidth",
        "gbps",
        "gflops",
        "mflops",
        "speedup",
        "eta",
        "ratio",
        "solves_per_s",
        "throughput",
        "hit_rate",
        "confidence",
    ]
    .iter()
    .any(|tag| key.contains(tag))
}

/// One metric's comparison against the baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricComparison {
    /// Metric key.
    pub key: String,
    /// Baseline stored summary (`None` for unknown metrics).
    pub baseline: Option<MetricBaseline>,
    /// Current robust summary.
    pub current: Summary,
    /// Signed change, current median - baseline median.
    pub delta: f64,
    /// Threshold the change was judged against.
    pub threshold: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compare one experiment's current summaries against its baseline entry.
///
/// `baseline = None` (experiment absent from the file) yields
/// `UnknownMetric` for every metric, which does not gate.
pub fn compare_experiment(
    current: &[(String, Summary)],
    baseline: Option<&ExperimentBaseline>,
    tol: &Tolerance,
) -> Vec<MetricComparison> {
    current
        .iter()
        .map(|(key, cur)| {
            let base = baseline.and_then(|b| b.metric(key));
            match base {
                None => MetricComparison {
                    key: key.clone(),
                    baseline: None,
                    current: *cur,
                    delta: 0.0,
                    threshold: 0.0,
                    verdict: Verdict::UnknownMetric,
                },
                Some(b) => {
                    let delta = cur.median - b.median;
                    let threshold = tol.threshold(&b, cur);
                    let worse = if higher_is_better(key) { -delta } else { delta };
                    let verdict = if worse > threshold {
                        Verdict::Regressed
                    } else if -worse > threshold {
                        Verdict::Improved
                    } else {
                        Verdict::Pass
                    };
                    MetricComparison {
                        key: key.clone(),
                        baseline: Some(b),
                        current: *cur,
                        delta,
                        threshold,
                        verdict,
                    }
                }
            }
        })
        .collect()
}

/// The experiment-level verdict: `Regressed` dominates, then `Improved`,
/// then `Pass`; all-unknown yields `UnknownMetric`.
pub fn overall(comparisons: &[MetricComparison]) -> Verdict {
    let mut saw_known = false;
    let mut improved = false;
    for c in comparisons {
        match c.verdict {
            Verdict::Regressed => return Verdict::Regressed,
            Verdict::Improved => {
                improved = true;
                saw_known = true;
            }
            Verdict::Pass => saw_known = true,
            Verdict::UnknownMetric => {}
        }
    }
    if !saw_known {
        Verdict::UnknownMetric
    } else if improved {
        Verdict::Improved
    } else {
        Verdict::Pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(median: f64, mad: f64, n: usize) -> Summary {
        Summary {
            n,
            median,
            mad,
            min: median - mad,
            max: median + mad,
        }
    }

    fn base(median: f64, mad: f64) -> ExperimentBaseline {
        ExperimentBaseline {
            name: "x".into(),
            metrics: vec![("time_s".into(), MetricBaseline { median, mad, n: 5 })],
        }
    }

    #[test]
    fn polarity_heuristic() {
        assert!(higher_is_better("triad_bytes_per_s"));
        assert!(higher_is_better("gflops_p128"));
        assert!(higher_is_better("omp_speedup"));
        assert!(higher_is_better("eta_overall_p1024"));
        // Serving metrics: throughput and cache hit rate improve upward;
        // tail latency, rejects, and setup cost improve downward.
        assert!(higher_is_better("rate2:solves_per_s"));
        assert!(higher_is_better("serve:hit_rate"));
        assert!(!higher_is_better("rate2:p99_s"));
        assert!(!higher_is_better("serve:rejected_total"));
        assert!(!higher_is_better("serve:setup_per_solve_s"));
        // Live-telemetry metrics: SLO burn, health-state code (0 ok ..
        // 2 saturated), and queue-wait fraction all improve downward.
        assert!(!higher_is_better("rate2:burn"));
        assert!(!higher_is_better("rate2:health_state"));
        assert!(!higher_is_better("serve:queue_wait_frac"));
        // Profile-derived columns: achieved bandwidth improves upward,
        // load imbalance (1.0 = balanced) improves downward.
        assert!(higher_is_better("spmv/csr:gbps"));
        assert!(!higher_is_better("spmv_csr:imbalance"));
        // Block-kernel metrics: achieved bandwidth and the unrolled
        // kernels' speedup improve upward; per-kernel times improve
        // downward.
        assert!(higher_is_better("spmv_bcsr:gbps"));
        assert!(higher_is_better("bilu_sweep:gbps"));
        assert!(higher_is_better("blockspec/spmv_b5_fixed:gbps"));
        assert!(higher_is_better("spmv_b5:fixed_speedup"));
        assert!(!higher_is_better("spmv_b5:fixed_s"));
        assert!(!higher_is_better("time_csr_s"));
        assert!(!higher_is_better("tlb_misses_row0"));
        assert!(!higher_is_better("linear_its"));
        // Diagnosis metrics: solver anomaly counts improve downward (zero
        // is healthy); the `explain` confidence score is reported-only —
        // it never gates — but reads as higher-is-better.
        assert!(!higher_is_better("anomaly:count"));
        assert!(higher_is_better("explain:confidence"));
    }

    #[test]
    fn p95_tail_metric_gates_as_lower_is_better() {
        // Span tail metrics are keyed `{path}:p95_s`; a fatter tail must
        // regress even when the median metric is unchanged.
        let b = ExperimentBaseline {
            name: "spmv".into(),
            metrics: vec![(
                "spmv/csr:p95_s".into(),
                MetricBaseline {
                    median: 1e-3,
                    mad: 0.0,
                    n: 5,
                },
            )],
        };
        assert!(!higher_is_better("spmv/csr:p95_s"));
        let tol = Tolerance::default();
        let cur = vec![("spmv/csr:p95_s".to_string(), summary(2e-3, 0.0, 3))];
        let cmp = compare_experiment(&cur, Some(&b), &tol);
        assert_eq!(cmp[0].verdict, Verdict::Regressed);
        let cur = vec![("spmv/csr:p95_s".to_string(), summary(4e-4, 0.0, 3))];
        let cmp = compare_experiment(&cur, Some(&b), &tol);
        assert_eq!(cmp[0].verdict, Verdict::Improved);
    }

    #[test]
    fn within_relative_band_passes() {
        let b = base(1.0, 0.0);
        let tol = Tolerance::default(); // rel 0.2
        let cur = vec![("time_s".to_string(), summary(1.15, 0.0, 3))];
        let cmp = compare_experiment(&cur, Some(&b), &tol);
        assert_eq!(cmp[0].verdict, Verdict::Pass);
    }

    #[test]
    fn beyond_relative_band_regresses_lower_is_better() {
        let b = base(1.0, 0.0);
        let tol = Tolerance::default();
        let cur = vec![("time_s".to_string(), summary(1.5, 0.0, 3))];
        let cmp = compare_experiment(&cur, Some(&b), &tol);
        assert_eq!(cmp[0].verdict, Verdict::Regressed);
        // Same magnitude downward is an improvement.
        let cur = vec![("time_s".to_string(), summary(0.5, 0.0, 3))];
        let cmp = compare_experiment(&cur, Some(&b), &tol);
        assert_eq!(cmp[0].verdict, Verdict::Improved);
    }

    #[test]
    fn polarity_flips_verdict_for_rates() {
        let b = ExperimentBaseline {
            name: "stream".into(),
            metrics: vec![(
                "triad_bytes_per_s".into(),
                MetricBaseline {
                    median: 10e9,
                    mad: 0.0,
                    n: 5,
                },
            )],
        };
        let tol = Tolerance::default();
        // Bandwidth halves: that's a regression even though the value fell.
        let cur = vec![("triad_bytes_per_s".to_string(), summary(5e9, 0.0, 3))];
        let cmp = compare_experiment(&cur, Some(&b), &tol);
        assert_eq!(cmp[0].verdict, Verdict::Regressed);
        let cur = vec![("triad_bytes_per_s".to_string(), summary(20e9, 0.0, 3))];
        let cmp = compare_experiment(&cur, Some(&b), &tol);
        assert_eq!(cmp[0].verdict, Verdict::Improved);
    }

    #[test]
    fn noisy_metric_gets_wider_band() {
        // 40% change, but the baseline MAD is 10% of the median: the noise
        // band (6 * 1.4826 * 0.1 ≈ 0.89) swallows it.
        let b = base(1.0, 0.1);
        let tol = Tolerance::default();
        let cur = vec![("time_s".to_string(), summary(1.4, 0.0, 3))];
        let cmp = compare_experiment(&cur, Some(&b), &tol);
        assert_eq!(cmp[0].verdict, Verdict::Pass);
    }

    #[test]
    fn abs_floor_protects_tiny_timings() {
        let b = base(1e-6, 0.0);
        let tol = Tolerance::default(); // abs_floor 1e-4
                                        // 50x slower in relative terms, but still below the absolute floor.
        let cur = vec![("time_s".to_string(), summary(5e-5, 0.0, 3))];
        let cmp = compare_experiment(&cur, Some(&b), &tol);
        assert_eq!(cmp[0].verdict, Verdict::Pass);
    }

    #[test]
    fn exact_boundary_is_a_pass() {
        // worse == threshold must not regress (strict inequality).
        let b = base(1.0, 0.0);
        let tol = Tolerance {
            rel: 0.2,
            mad_k: 0.0,
            abs_floor: 0.0,
        };
        let cur = vec![("time_s".to_string(), summary(1.2, 0.0, 3))];
        let cmp = compare_experiment(&cur, Some(&b), &tol);
        assert_eq!(cmp[0].verdict, Verdict::Pass);
        let cur = vec![("time_s".to_string(), summary(1.2 + 1e-9, 0.0, 3))];
        let cmp = compare_experiment(&cur, Some(&b), &tol);
        assert_eq!(cmp[0].verdict, Verdict::Regressed);
    }

    #[test]
    fn unknown_metric_and_overall_rollup() {
        let b = base(1.0, 0.0);
        let tol = Tolerance::default();
        let cur = vec![
            ("time_s".to_string(), summary(1.0, 0.0, 3)),
            ("brand_new".to_string(), summary(7.0, 0.0, 3)),
        ];
        let cmp = compare_experiment(&cur, Some(&b), &tol);
        assert_eq!(cmp[1].verdict, Verdict::UnknownMetric);
        assert_eq!(overall(&cmp), Verdict::Pass);
        // Missing experiment entirely: all unknown.
        let cmp = compare_experiment(&cur, None, &tol);
        assert!(cmp.iter().all(|c| c.verdict == Verdict::UnknownMetric));
        assert_eq!(overall(&cmp), Verdict::UnknownMetric);
        // Any regression dominates.
        let cur = vec![
            ("time_s".to_string(), summary(9.0, 0.0, 3)),
            ("brand_new".to_string(), summary(7.0, 0.0, 3)),
        ];
        assert_eq!(
            overall(&compare_experiment(&cur, Some(&b), &tol)),
            Verdict::Regressed
        );
    }
}
