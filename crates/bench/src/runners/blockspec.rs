//! Micro-benchmark of the BCSR kernels: the runtime-`b` reference loops
//! (`generic`) vs the const-unrolled kernels the solvers run (`fixed`),
//! SpMV and block-ILU sweeps, per block size (4: incompressible, 5:
//! compressible).
//!
//! The unrolled kernels are verified bitwise-identical to the sequential
//! reference in-run before anything is timed.  The timed samples of the
//! two kernels are interleaved, so drift in the host's speed during the
//! run slows both alike.  The achieved-bandwidth spans feed the
//! `spmv_bcsr:gbps` / `bilu_sweep:gbps` gate metrics the CI perf pipeline
//! regresses against.

use crate::{representative_jacobian, say, BenchArgs, Experiment, ModelEstimate, RunOutcome};
use fun3d_euler::model::FlowModel;
use fun3d_memmodel::machine::MachineSpec;
use fun3d_memmodel::spmv_model::{bcsr_traffic, predicted_time};
use fun3d_mesh::generator::MeshFamily;
use fun3d_sparse::bcsr::BcsrMatrix;
use fun3d_sparse::block_ilu::BlockIluFactors;
use fun3d_sparse::layout::FieldLayout;
use fun3d_sparse::par::ParCtx;
use fun3d_telemetry::report::PerfReport;
use fun3d_telemetry::Registry;
use std::time::Instant;

/// `blockspec` as a harness experiment.
pub struct Blockspec;

/// The timed kernels: the reference loops first (the speedup baseline),
/// then the unrolled kernels the solvers dispatch to.
const KERNELS: [&str; 2] = ["generic", "fixed"];

/// Timed samples per kernel.
const SAMPLES: usize = 7;

impl Experiment for Blockspec {
    fn name(&self) -> &'static str {
        "blockspec"
    }
    fn description(&self) -> &'static str {
        "BCSR kernels (generic reference vs unrolled fixed) per block size"
    }
    fn default_scale(&self) -> f64 {
        0.25
    }
    fn run(&self, args: &BenchArgs) -> RunOutcome {
        run(args)
    }
    fn model(&self, report: &PerfReport, machine: &MachineSpec) -> Vec<ModelEstimate> {
        // Bandwidth-bound floor per block size: both kernels share the
        // same traffic model, so one prediction prices them.
        let mut out = Vec::new();
        for bs in [4usize, 5] {
            let (Some(nbrows), Some(nblocks)) = (
                report.metric(&format!("b{bs}_nbrows")),
                report.metric(&format!("b{bs}_nnz_blocks")),
            ) else {
                continue;
            };
            out.push(ModelEstimate {
                metric: format!("spmv_b{bs}:fixed_s"),
                predicted: predicted_time(
                    &bcsr_traffic(nbrows as usize, nblocks as usize, bs, 1.0),
                    machine.stream_bytes_per_s,
                ),
            });
        }
        out
    }
}

/// Time the generic and unrolled kernels on representative Jacobians at
/// bs = 4 and 5.
pub fn run(args: &BenchArgs) -> RunOutcome {
    let spec = args.family_spec(MeshFamily::Small);
    let mesh = spec.build();
    say!(
        args,
        "Blockspec benchmark: {} vertices (scale {:.2}), kernels generic/fixed",
        mesh.nverts(),
        args.scale
    );
    let ctx = args.par();
    let tel = Registry::enabled(0);
    let mut events = fun3d_telemetry::events::EventStream::default();
    let mut perf = PerfReport::new("blockspec").with_meta("nverts", mesh.nverts().to_string());
    args.annotate(&mut perf);
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut verdicts: Vec<String> = Vec::new();
    args.profile_begin();
    for (bs, model) in [
        (4usize, FlowModel::incompressible()),
        (5, FlowModel::compressible()),
    ] {
        let jac = representative_jacobian(&mesh, model, FieldLayout::Interlaced, 50.0);
        let n = jac.nrows();
        let x: Vec<f64> = (0..n).map(|i| ((i % 23) as f64 - 11.0) / 11.0).collect();
        let rhs: Vec<f64> = (0..n).map(|i| ((i % 17) as f64 - 8.0) / 8.0).collect();
        let m = BcsrMatrix::from_csr(&jac, bs);
        let f = BlockIluFactors::factor(&m).expect("representative Jacobian must factor");
        let spmv_bytes = m.spmv_traffic_bytes();
        let sweep_bytes = f.solve_traffic_bytes();

        // Identity check before anything is timed: the unrolled kernels
        // on this run's thread team must agree bitwise with the
        // sequential reference on both the matvec and the sweep.
        let mut y_ref = vec![0.0; n];
        let mut x_ref = vec![0.0; n];
        m.spmv_generic(&x, &mut y_ref, &ParCtx::seq());
        f.solve_generic(&rhs, &mut x_ref, &ParCtx::seq());
        let mut y = vec![0.0; n];
        let mut xs = vec![0.0; n];
        m.spmv_par(&x, &mut y, &ctx);
        assert_eq!(y_ref, y, "bs={bs}: spmv not bitwise identical");
        f.solve_par(&rhs, &mut xs, &ctx);
        assert_eq!(x_ref, xs, "bs={bs}: sweep not bitwise identical");
        perf.push_metric(format!("b{bs}_nbrows"), m.nbrows() as f64);
        perf.push_metric(format!("b{bs}_nnz_blocks"), m.nnz_blocks() as f64);

        // Timed kernels: spans carry the analytic byte floor, so each
        // kernel gets an achieved-bandwidth row and a `<span>:gbps` gate
        // metric.
        let spmv_labels = KERNELS.map(|k| format!("blockspec/spmv_b{bs}_{k}"));
        let t_spmv = interleaved_medians(|ki| {
            let _g = tel.span(&spmv_labels[ki]);
            tel.counter("bytes", spmv_bytes);
            if ki == 0 {
                m.spmv_generic(&x, &mut y, &ctx)
            } else {
                m.spmv_par(&x, &mut y, &ctx)
            }
        });
        let sweep_labels = KERNELS.map(|k| format!("blockspec/bilu_b{bs}_{k}"));
        let t_sweep = interleaved_medians(|ki| {
            let _g = tel.span(&sweep_labels[ki]);
            tel.counter("bytes", sweep_bytes);
            if ki == 0 {
                f.solve_generic(&rhs, &mut xs, &ctx)
            } else {
                f.solve_par(&rhs, &mut xs, &ctx)
            }
        });
        for (ki, kernel) in KERNELS.iter().enumerate() {
            perf.push_metric(format!("spmv_b{bs}:{kernel}_s"), t_spmv[ki]);
            perf.push_metric(format!("bilu_b{bs}:{kernel}_s"), t_sweep[ki]);
            rows.push(vec![
                format!("{bs}x{bs}"),
                kernel.to_string(),
                format!("{:.3} ms", t_spmv[ki] * 1e3),
                format!("{:.2}", spmv_bytes / t_spmv[ki] / 1e9),
                format!("{:.3} ms", t_sweep[ki] * 1e3),
                format!("{:.2}", sweep_bytes / t_sweep[ki] / 1e9),
                format!(
                    "{:.2}x / {:.2}x",
                    t_spmv[0] / t_spmv[ki],
                    t_sweep[0] / t_sweep[ki]
                ),
            ]);
        }
        let (spmv_speedup, sweep_speedup) = (t_spmv[0] / t_spmv[1], t_sweep[0] / t_sweep[1]);
        perf.push_metric(format!("spmv_b{bs}:fixed_speedup"), spmv_speedup);
        perf.push_metric(format!("bilu_b{bs}:fixed_speedup"), sweep_speedup);
        verdicts.push(format!(
            "bs={bs}: fixed {spmv_speedup:.2}x spmv, {sweep_speedup:.2}x sweep over generic"
        ));
        if bs == 5 {
            // Headline gate metrics at the kernels the solver stack runs.
            perf.push_metric("spmv_bcsr:gbps", spmv_bytes / t_spmv[1] / 1e9);
            perf.push_metric("bilu_sweep:gbps", sweep_bytes / t_sweep[1] / 1e9);
            let pays = spmv_speedup > 1.0 && sweep_speedup > 1.0;
            verdicts.push(format!(
                "blockspec verdict: fixed {} ({spmv_speedup:.2}x spmv over generic at bs=5)",
                if pays { "pays off" } else { "shows no gain" },
            ));
        }
    }
    let _regions = args.profile_finish(&tel, &mut events);
    args.table(
        "BCSR kernels (median of 7)",
        &[
            "block", "kernel", "spmv", "GB/s", "sweep", "GB/s", "speedup",
        ],
        &rows,
    );
    for v in &verdicts {
        say!(args, "{}", v);
    }
    perf.push_metric("identity_ok", 1.0);
    let snapshot = tel.snapshot();
    let perf = perf.with_snapshot(&snapshot);
    RunOutcome {
        report: perf,
        telemetry: vec![snapshot],
        events,
        metrics: Default::default(),
    }
}

/// Median seconds of `run(0)` (generic) and `run(1)` (fixed) over
/// [`SAMPLES`] calls each, after one warm-up call each.  The samples
/// alternate between the two kernels, the generic one first on even reps
/// and the fixed one first on odd reps, so drift in the host's speed hits
/// both kernels alike.
fn interleaved_medians(mut run: impl FnMut(usize)) -> [f64; 2] {
    run(0);
    run(1);
    let mut times = [[0.0f64; SAMPLES]; 2];
    for rep in 0..SAMPLES {
        let order = if rep % 2 == 0 { [0, 1] } else { [1, 0] };
        for ki in order {
            let t0 = Instant::now();
            run(ki);
            times[ki][rep] = t0.elapsed().as_secs_f64();
        }
    }
    times.map(|mut t| {
        t.sort_by(f64::total_cmp);
        t[SAMPLES / 2]
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blockspec_reports_both_kernels() {
        let args = BenchArgs {
            scale: 0.02,
            quiet: true,
            ..BenchArgs::defaults(0.02)
        };
        let out = run(&args);
        let r = &out.report;
        for bs in [4, 5] {
            for kernel in KERNELS {
                assert!(
                    r.metric(&format!("spmv_b{bs}:{kernel}_s")).unwrap() > 0.0,
                    "missing spmv_b{bs}:{kernel}_s"
                );
                assert!(r.metric(&format!("bilu_b{bs}:{kernel}_s")).unwrap() > 0.0);
            }
            assert!(r.metric(&format!("spmv_b{bs}:fixed_speedup")).unwrap() > 0.0);
            assert!(r.metric(&format!("bilu_b{bs}:fixed_speedup")).unwrap() > 0.0);
        }
        assert_eq!(r.metric("identity_ok"), Some(1.0));
        assert!(r.metric("spmv_bcsr:gbps").unwrap() > 0.0);
        assert!(r.metric("bilu_sweep:gbps").unwrap() > 0.0);
        // The kernel spans carry byte counters, so achieved-bandwidth
        // metrics exist for every (block size, kernel) pair.
        let bw = r.bandwidth_metrics();
        for key in [
            "blockspec/spmv_b5_generic:gbps",
            "blockspec/spmv_b5_fixed:gbps",
            "blockspec/bilu_b4_fixed:gbps",
        ] {
            assert!(
                bw.iter().any(|(k, v)| k == key && *v > 0.0),
                "missing bandwidth metric {key}"
            );
        }
    }
}
