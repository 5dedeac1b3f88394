//! `dist2`: the distributed ΨNKS solve on two message-passing ranks.

use super::{
    build_mesh, keep_going, next_is_traced, set_end_to_end, trace_overhead, Op, Outcome, SETUP_REPS,
};
use crate::cli::Args;
use crate::inputs::{derive, mesh_spec, Stream};
use crate::metrics::Metrics;
use crate::stats::{mean, median, peak_rss_mb, ratio};
use crate::trace::Tracer;
use fun3d_core::parallel_nks::{
    sequential_reference, solve_parallel_nks, ParallelNksOptions, ParallelNksReport,
};
use fun3d_euler::model::FlowModel;
use fun3d_memmodel::machine::MachineSpec;
use fun3d_mesh::generator::BumpChannelSpec;
use fun3d_partition::partition_kway;
use fun3d_telemetry::{Snapshot, TimeDomain};
use std::time::Instant;

/// Relative tolerance of the distributed solution against the sequential
/// reference — the tolerance of `parallel_nks`'s own equivalence test.
pub const REFERENCE_RTOL: f64 = 1e-5;

/// A distributed solve workload.
#[derive(Debug, Clone)]
pub struct DistCase {
    /// Seeded mesh spec.
    pub mesh: BumpChannelSpec,
    /// `partition_kway` seed.
    pub partition_seed: u64,
    /// Ranks.
    pub nranks: usize,
    /// Solver options.
    pub opts: ParallelNksOptions,
}

/// Target vertex count of `dist2`.
pub const DIST2_VERTICES: usize = 1_200;

impl DistCase {
    /// `dist2`: k-way partition on two ranks, ILU(1) block Jacobi, 1e-8
    /// reduction.
    pub fn dist2(seed: u64) -> Self {
        Self {
            mesh: mesh_spec(DIST2_VERTICES, seed),
            partition_seed: derive(seed, Stream::Partition),
            nranks: 2,
            opts: ParallelNksOptions {
                max_steps: 100,
                ..Default::default()
            },
        }
    }
}

/// Measured seconds over every span whose path ends in `suffix`.
fn measured(snap: &Snapshot, suffix: &str) -> f64 {
    snap.spans
        .iter()
        .filter(|s| s.domain == TimeDomain::Measured && s.path.ends_with(suffix))
        .map(|s| s.total_s)
        .sum()
}

/// The per-layer metrics of one traced distributed solve.
fn set_layers(m: &mut Metrics, r: &ParallelNksReport) {
    let steps = r.linear_iters.len() as f64;
    let per_rank = |suffix: &str| {
        mean(
            &r.telemetry
                .iter()
                .map(|s| measured(s, suffix))
                .collect::<Vec<_>>(),
        )
    };
    m.set("solver.newton_steps", steps);
    m.set(
        "solver.linear_iters",
        r.linear_iters.iter().sum::<usize>() as f64,
    );
    m.set("solver.precond_s", per_rank("/ilu"));
    m.set("solver.krylov_s", per_rank("/gmres"));
    let flux_calls = r.telemetry.first().map_or(0, |s| {
        s.spans
            .iter()
            .filter(|row| row.path.ends_with("/flux"))
            .map(|row| row.calls)
            .sum::<u64>()
    });
    m.set(
        "solver.residual_evals_per_step",
        ratio(flux_calls as f64, steps),
    );
    m.set("comm.scatter_s", per_rank("comm/scatter"));
    m.set("comm.allreduce_s", per_rank("comm/allreduce"));
    let msgs: usize = r.ledgers.iter().map(|l| l.nsends()).sum();
    let bytes: f64 = r.ledgers.iter().map(|l| l.bytes_sent()).sum();
    m.set("comm.msgs_per_step", ratio(msgs as f64, steps));
    m.set("comm.bytes_per_step", ratio(bytes, steps));
    let wait: f64 = r
        .ledgers
        .iter()
        .map(|l| l.wait_at_recv_s() + l.wait_at_collective_s())
        .sum();
    m.set(
        "comm.wait_frac",
        ratio(wait, r.sim_time * r.breakdowns.len() as f64),
    );
    let busy: Vec<f64> = r.breakdowns.iter().map(|b| b.compute).collect();
    m.set(
        "core.rank_busy_imbalance",
        ratio(busy.iter().copied().fold(0.0, f64::max), mean(&busy)),
    );
    m.set("core.sim_time_s", r.sim_time);
}

/// Run a distributed workload for `args.seconds`.
pub fn run(case: &DistCase, args: &Args, tracer: &Tracer) -> Outcome {
    let mut m = Metrics::default();
    let model = FlowModel::incompressible();
    let machine = MachineSpec::asci_red();

    // Set-up: mesh generated and reordered, then partitioned k-way.
    let mut setup = Vec::new();
    let (mut build, mut reorder, mut kway) = (Vec::new(), Vec::new(), Vec::new());
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let id = tracer.enter("setup");
        let t0 = Instant::now();
        let b = build_mesh(&case.mesh, tracer);
        let tk = Instant::now();
        let part = tracer.span("partition.kway", || {
            partition_kway(&b.mesh.vertex_graph(), case.nranks, case.partition_seed)
        });
        kway.push(tk.elapsed().as_secs_f64());
        setup.push(t0.elapsed().as_secs_f64());
        tracer.exit(id);
        build.push(b.build_s);
        reorder.push(b.reorder_s);
        built = Some((b.mesh, part));
    }
    let (mesh, part) = built.expect("at least one set-up");
    let owner = part.part.clone();

    let mut ops = Vec::new();
    let mut reports = Vec::new();
    let mut last_traced = None;
    let start = Instant::now();
    while keep_going(tracer, start, args.seconds, &ops, 1) {
        let traced = next_is_traced(tracer, ops.len());
        let opts = ParallelNksOptions {
            trace_ranks: traced,
            ..case.opts.clone()
        };
        let id = tracer.enter(if traced { "solve" } else { "solve (untraced)" });
        let t0 = Instant::now();
        let report = solve_parallel_nks(&mesh, model, &owner, case.nranks, &machine, &opts);
        let wall = t0.elapsed().as_secs_f64();
        tracer.exit(id);
        ops.push(Op {
            latency_s: wall,
            ok: report.converged,
            traced,
        });
        if traced {
            last_traced = Some(report.clone());
        }
        reports.push((traced, wall, report));
    }
    let window = start.elapsed().as_secs_f64();
    let rss = peak_rss_mb();

    // Reference, outside the measured window: the sequential solve with
    // the same block structure.
    let (q_ref, _, ref_converged) = tracer.span("reference", || {
        sequential_reference(&mesh, model, &owner, case.nranks, &case.opts)
    });
    let scale = q_ref.iter().fold(1.0f64, |acc, v| acc.max(v.abs()));
    for (op, (_, _, r)) in ops.iter_mut().zip(&reports) {
        let matches = ref_converged
            && r.solution.len() == q_ref.len()
            && r.solution
                .iter()
                .zip(&q_ref)
                .all(|(a, b)| (a - b).abs() / scale < REFERENCE_RTOL);
        op.ok &= matches;
    }
    let failed = ops.iter().filter(|o| !o.ok).count();

    let untraced: Vec<(f64, usize)> = reports
        .iter()
        .filter(|(t, _, _)| !t)
        .map(|(_, w, r)| (*w, r.linear_iters.len()))
        .collect();
    let solve_times: Vec<f64> = untraced.iter().map(|u| u.0).collect();
    // Per-step wall time is not visible from outside the ranks: a solve's
    // wall time over its step count.
    let per_step: Vec<f64> = untraced.iter().map(|&(w, n)| ratio(w, n as f64)).collect();
    set_end_to_end(
        &mut m,
        &setup,
        &ops,
        window,
        median(&solve_times),
        median(&per_step),
        rss,
    );
    m.set("mesh.build_s", median(&build));
    m.set("mesh.reorder_s", median(&reorder));
    m.set("partition.kway_s", median(&kway));
    m.set("mesh.nverts", mesh.nverts() as f64);
    m.set("mesh.nedges", mesh.nedges() as f64);
    m.set(
        "partition.edge_cut",
        part.quality(&mesh.vertex_graph()).edge_cut as f64,
    );
    if let Some(r) = &last_traced {
        set_layers(&mut m, r);
        m.set("trace.overhead_frac", trace_overhead(&ops));
    }

    let (steps, iters) = reports.first().map_or((0, 0), |(_, _, r)| {
        (r.linear_iters.len(), r.linear_iters.iter().sum::<usize>())
    });
    let summary = vec![format!(
        "{} vertices on {} ranks (edge cut {}); {} solves in {:.2} s; {} failed; \
         {} steps and {} linear iterations per solve",
        mesh.nverts(),
        case.nranks,
        m.get("partition.edge_cut"),
        ops.len(),
        window,
        failed,
        steps,
        iters
    )];
    Outcome {
        attempted: ops.len(),
        failed,
        metrics: m,
        summary,
    }
}
