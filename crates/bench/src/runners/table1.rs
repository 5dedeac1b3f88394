//! **Table 1**: execution times per pseudo-timestep for Euler flow under the
//! three data-layout enhancements — field interlacing, structural blocking,
//! and edge (+vertex) reordering — for both flow models.

use crate::{say, BenchArgs, Experiment, RunOutcome};
use fun3d_core::config::{CaseConfig, LayoutConfig};
use fun3d_core::driver::run_case_instrumented;
use fun3d_euler::model::FlowModel;
use fun3d_euler::residual::SpatialOrder;
use fun3d_mesh::generator::MeshFamily;
use fun3d_solver::gmres::GmresOptions;
use fun3d_solver::pseudo::{Forcing, PrecondSpec, PseudoTransientOptions};
use fun3d_sparse::ilu::IluOptions;
use fun3d_telemetry::events::{EventSink, EventStream};
use fun3d_telemetry::Registry;

/// `table1` as a harness experiment.
pub struct Table1;

impl Experiment for Table1 {
    fn name(&self) -> &'static str {
        "table1"
    }
    fn description(&self) -> &'static str {
        "layout enhancements (interlacing/blocking/reordering) time per step"
    }
    fn default_scale(&self) -> f64 {
        0.25
    }
    fn run(&self, args: &BenchArgs) -> RunOutcome {
        run(args)
    }
    fn supports_blackbox(&self) -> bool {
        true
    }
}

/// Regenerate Table 1 once.
pub fn run(args: &BenchArgs) -> RunOutcome {
    let spec = args.family_spec(MeshFamily::Small);
    say!(
        args,
        "Table 1 regenerator: {} vertices (paper: 22,677; scale {:.2}), {} steps per cell, the first excluded as setup",
        spec.nverts(),
        args.scale,
        args.steps
    );

    // One registry + sink across all sub-cases: the span tree aggregates the
    // whole table, and the event stream's RunMeta records split it back into
    // per-row convergence series.
    let tel = Registry::enabled(0);
    let sink = EventSink::enabled();
    let mut rows = Vec::new();
    let mut results: Vec<Vec<f64>> = Vec::new();
    for (mi, model) in [FlowModel::incompressible(), FlowModel::compressible()]
        .into_iter()
        .enumerate()
    {
        let model_tag = ["inc", "comp"][mi];
        let mut times = Vec::new();
        for (ri, (layout, _flags)) in LayoutConfig::table1_rows().into_iter().enumerate() {
            let cfg = CaseConfig {
                mesh: spec,
                model,
                layout,
                order: SpatialOrder::First,
                nks: PseudoTransientOptions {
                    cfl0: 5.0,
                    cfl_exponent: 1.0,
                    cfl_max: 1e5,
                    max_steps: args.steps,
                    target_reduction: 0.0, // run exactly `steps` steps
                    // Fixed linear work per step (rtol 0 never triggers) so
                    // every layout performs identical arithmetic and the
                    // table isolates memory behaviour.
                    krylov: GmresOptions {
                        restart: 20,
                        rtol: 0.0,
                        max_iters: 20,
                        par: args.par(),
                        ..Default::default()
                    },
                    precond: PrecondSpec::Ilu(IluOptions::with_fill(0)),
                    second_order_switch: None,
                    matrix_free: false,
                    line_search: false,
                    bcsr_block: None,
                    forcing: Forcing::Constant,
                    pc_refresh: 1,
                },
            };
            let report = run_case_instrumented(&cfg, &format!("{model_tag} row{ri}"), &tel, &sink);
            // Per-step cost excluding the first step: symbolic setup (BCSR
            // structure, first ILU pattern) amortizes over a production
            // run's hundreds of steps, exactly as in the paper's timings.
            let steady: Vec<_> = report.history.steps.iter().skip(1).collect();
            let t = steady
                .iter()
                .map(|st| st.t_residual + st.t_jacobian + st.t_precond + st.t_krylov)
                .sum::<f64>()
                / steady.len() as f64;
            times.push(t);
        }
        results.push(times);
    }

    for (i, (_, flags)) in LayoutConfig::table1_rows().iter().enumerate() {
        let mark = |b: bool| if b { "x" } else { " " }.to_string();
        let t_inc = results[0][i];
        let t_cmp = results[1][i];
        rows.push(vec![
            mark(flags[0]),
            mark(flags[1]),
            mark(flags[2]),
            format!("{:.3}s", t_inc),
            format!("{:.2}", results[0][0] / t_inc),
            format!("{:.3}s", t_cmp),
            format!("{:.2}", results[1][0] / t_cmp),
        ]);
    }
    args.table(
        "Table 1: layout enhancements (time per pseudo-timestep)",
        &[
            "Interlacing",
            "Blocking",
            "Edge Reorder",
            "Incomp. Time/Step",
            "Ratio",
            "Comp. Time/Step",
            "Ratio",
        ],
        &rows,
    );
    say!(
        args,
        "\nPaper ratios for the same rows: incompressible 1.00 / 2.31 / 2.88 / 2.86 / 3.57 / 4.96;"
    );
    say!(
        args,
        "compressible 1.00 / 2.44 / 3.25 / 2.37 / 3.92 / 5.71."
    );
    say!(
        args,
        "(Absolute times differ — modern cache hierarchies are far more forgiving than a"
    );
    say!(
        args,
        "1997 R10000 — but every enhancement must still help, and the combined row wins.)"
    );

    let mut perf = fun3d_telemetry::report::PerfReport::new("table1")
        .with_meta("nverts", spec.nverts().to_string());
    args.annotate(&mut perf);
    for (mi, model) in ["inc", "comp"].iter().enumerate() {
        for (i, t) in results[mi].iter().enumerate() {
            perf.push_metric(format!("time_per_step_{model}_row{i}"), *t);
            perf.push_metric(format!("ratio_{model}_row{i}"), results[mi][0] / t);
        }
    }
    let events = EventStream::new(sink.drain());
    // The gate watches anomaly terminations as a lower-is-better count: a
    // healthy regeneration reports 0, a NaN/divergence injection reports
    // how many sub-cases aborted.
    let anomalies = events
        .records
        .iter()
        .filter(|e| matches!(e, fun3d_telemetry::events::EventRecord::Anomaly { .. }))
        .count();
    perf.push_metric("anomaly:count", anomalies as f64);
    let snapshot = tel.snapshot();
    let perf = perf.with_snapshot(&snapshot);
    RunOutcome {
        report: perf,
        telemetry: vec![snapshot],
        events,
        metrics: Default::default(),
    }
}
