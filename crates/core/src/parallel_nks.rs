//! Fully distributed pseudo-transient Newton–Krylov–Schwarz — the parallel
//! PETSc-FUN3D execution model.
//!
//! Each rank owns a subdomain of the mesh and holds one layer of ghost
//! vertices.  It slices its ghosted local mesh out of the global one
//! ([`TetMesh::ghosted_submesh`]) and runs the sequential [`Discretization`]
//! on it: after a ghost scatter, the residual, the first-order Jacobian and
//! the pseudo-timestep scale are exact on the owned rows (edges crossing
//! the interface are computed by both sides — the duplicated work the
//! paper's Table 5 discussion notes).  The linear solve is the sequential
//! GMRES over the ranks' owned rows ([`block_jacobi_gmres`]): inner products
//! go through allreduce, and the preconditioner is block Jacobi with ILU(k)
//! on each rank's diagonal block.  The per-phase simulated clock runs
//! throughout, so every solve also yields the paper's Table 3 phase
//! decomposition at the machine model's scale.
//!
//! The setup here is *replicated* (every rank slices the same global mesh),
//! which is standard practice for reproductions at laptop scale; the
//! per-rank compute and communication paths are the real distributed ones.

use crate::dist::{block_jacobi_gmres, DistributedMatrix};
use crate::problem::EulerProblem;
use fun3d_comm::clock::PhaseBreakdown;
use fun3d_comm::ranktrace::MessageLedger;
use fun3d_comm::scatter::{build_scatter_plans, ScatterPlan};
use fun3d_comm::world::{run_world_with, Rank, WorldOptions};
use fun3d_euler::model::FlowModel;
use fun3d_euler::residual::{Discretization, SpatialOrder};
use fun3d_memmodel::machine::MachineSpec;
use fun3d_mesh::tet::TetMesh;
use fun3d_solver::gmres::GmresOptions;
use fun3d_solver::op::PseudoTransientProblem;
use fun3d_sparse::csr::CsrMatrix;
use fun3d_sparse::ilu::{IluFactors, IluOptions};
use fun3d_sparse::layout::FieldLayout;
use fun3d_telemetry::events::{EventRecord, EventStream};
use fun3d_telemetry::Snapshot;

/// The Euler problem on one rank's ghosted submesh, first order and
/// interlaced like the sequential reference.
fn local_problem(submesh: &TetMesh, model: FlowModel) -> EulerProblem<'_> {
    EulerProblem::new(Discretization::new(
        submesh,
        model,
        FieldLayout::Interlaced,
        SpatialOrder::First,
    ))
}

/// The owned rows (the first `nowned_unknowns`) of the local Jacobian at
/// `q`, with the pseudo-time diagonal `d / cfl` added as in the sequential
/// driver.
fn owned_shifted_jacobian(
    problem: &EulerProblem,
    q: &[f64],
    d: &[f64],
    cfl: f64,
    nowned_unknowns: usize,
) -> CsrMatrix {
    let mut jac = problem.jacobian(q);
    jac.shift_diagonal_by(1.0 / cfl, d);
    jac.into_leading_rows(nowned_unknowns)
}

/// Options for the parallel NKS solve (a subset of the sequential options —
/// first order, block Jacobi, assembled operator).
#[derive(Debug, Clone)]
pub struct ParallelNksOptions {
    /// Initial CFL.
    pub cfl0: f64,
    /// SER exponent.
    pub cfl_exponent: f64,
    /// CFL ceiling.
    pub cfl_max: f64,
    /// Pseudo-timestep limit.
    pub max_steps: usize,
    /// Stop at this residual reduction.
    pub target_reduction: f64,
    /// Krylov options.
    pub krylov: GmresOptions,
    /// Subdomain ILU options.
    pub ilu: IluOptions,
    /// Record per-rank span timelines, message ledgers, and cross-rank flow
    /// edges in simulated time (one chrome-trace lane per rank, consumed by
    /// `fun3d-report comm` and the critical-path walk).  Tracing is pure
    /// observation: results and simulated clocks are bitwise identical with
    /// it on or off.
    pub trace_ranks: bool,
    /// Partition family label recorded in the run's `RunMeta` (the solver is
    /// partition-agnostic; callers pass whatever produced `owner`).
    pub partition_family: &'static str,
}

impl Default for ParallelNksOptions {
    fn default() -> Self {
        Self {
            cfl0: 5.0,
            cfl_exponent: 1.2,
            cfl_max: 1e6,
            max_steps: 60,
            target_reduction: 1e-8,
            krylov: GmresOptions {
                restart: 20,
                rtol: 1e-2,
                max_iters: 120,
                ..Default::default()
            },
            ilu: IluOptions::with_fill(1),
            trace_ranks: false,
            partition_family: "kway",
        }
    }
}

/// Result of a parallel NKS run.
#[derive(Debug, Clone)]
pub struct ParallelNksReport {
    /// Residual norm before each step.
    pub residual_history: Vec<f64>,
    /// Linear iterations per step.
    pub linear_iters: Vec<usize>,
    /// Converged?
    pub converged: bool,
    /// Final residual norm.
    pub final_residual: f64,
    /// Per-rank simulated phase breakdowns.
    pub breakdowns: Vec<PhaseBreakdown>,
    /// Simulated parallel time (max over ranks).
    pub sim_time: f64,
    /// Assembled global solution (interlaced layout).
    pub solution: Vec<f64>,
    /// Per-rank telemetry snapshots: measured span trees for
    /// flux/jacobian/ilu/gmres plus nested scatter/allreduce comm spans, and
    /// the simulated phase breakdown ingested under `sim/`.  Merge with
    /// [`fun3d_telemetry::merge`]; export with
    /// [`fun3d_telemetry::chrome_trace`].
    pub telemetry: Vec<Snapshot>,
    /// Structured event stream for the run: a `RunMeta` header, one
    /// synthesized `NewtonStep` per pseudo-timestep (timers are zero — the
    /// per-phase clock here is simulated, not wall), and rank 0's `Scatter`
    /// records.  Feed to `fun3d_telemetry::events::convergence_table` or
    /// write as `fun3d-events/1` JSONL.
    pub events: EventStream,
    /// Per-rank message ledgers (empty ops unless `trace_ranks` was set):
    /// every point-to-point message and collective with its wait/transfer
    /// split, in timeline order.  Feed to [`fun3d_comm::critical_path`].
    pub ledgers: Vec<MessageLedger>,
    /// Per-rank simulated-clock marks: `step_marks[r][0]` at the start of
    /// the Newton loop, then one entry after each pseudo-timestep, so
    /// `marks[i + 1] - marks[i]` is step `i`'s simulated duration on rank
    /// `r`.  Recorded on every run (observation only, no communication).
    pub step_marks: Vec<Vec<f64>>,
}

/// Run the distributed ΨNKS solve on `nranks` message-passing ranks.
pub fn solve_parallel_nks(
    mesh: &TetMesh,
    model: FlowModel,
    owner: &[u32],
    nranks: usize,
    machine: &MachineSpec,
    opts: &ParallelNksOptions,
) -> ParallelNksReport {
    let ncomp = model.ncomp();
    let plans = build_scatter_plans(mesh.nverts(), owner, mesh.edges(), nranks);

    let world_opts = WorldOptions {
        instrument: true,
        trace_ranks: opts.trace_ranks,
    };
    let outputs = run_world_with(nranks, machine, world_opts, |rank| {
        let me = rank.id();
        let tel = rank.telemetry.clone();
        let solve_span = tel.span("nks");
        let (owned, ghosts, plan) = &plans[me];
        let nowned = owned.len();
        let n_own = nowned * ncomp;
        let verts: Vec<usize> = owned.iter().chain(ghosts).copied().collect();
        let submesh = mesh.ghosted_submesh(&verts, nowned);
        let problem = local_problem(&submesh, model);
        let disc = problem.discretization();
        // Local state with ghosts, interlaced; the residual covers every
        // local vertex, but only its owned rows are complete.
        let mut q = problem.initial_state();
        let mut res = vec![0.0; q.len()];
        let mut tag = 0u32;
        let scatter = |rank: &mut Rank, q: &mut Vec<f64>, tag: &mut u32| {
            *tag += 1;
            plan.execute(rank, q, nowned, ncomp, *tag);
        };
        let residual = |rank: &mut Rank, q: &[f64], res: &mut [f64]| {
            let _g = tel.span("flux");
            problem.residual(q, res);
            rank.clock
                .compute(disc.residual_flops(), disc.residual_bytes(), 0.25);
        };
        let owned_norm = |rank: &mut Rank, res: &[f64]| {
            let local: f64 = res[..n_own].iter().map(|v| v * v).sum();
            rank.allreduce_sum_scalar(local).sqrt()
        };
        scatter(rank, &mut q, &mut tag);
        residual(rank, &q, &mut res);
        let r0 = owned_norm(rank, &res);
        let mut rnorm = r0;
        let mut history = vec![r0];
        let mut lin_iters = Vec::new();
        let mut converged = false;
        let mut marks = vec![rank.clock.now()];

        for _step in 0..opts.max_steps {
            if rnorm / r0 <= opts.target_reduction {
                converged = true;
                break;
            }
            let cfl = (opts.cfl0 * (r0 / rnorm).powf(opts.cfl_exponent)).min(opts.cfl_max);
            let d = problem.inverse_timestep_scale(&q);
            let jac_local = {
                let _g = tel.span("jacobian");
                let jac = owned_shifted_jacobian(&problem, &q, &d, cfl, n_own);
                let flops = 250.0 * submesh.nedges() as f64 * (ncomp * ncomp) as f64 / 16.0;
                rank.clock.compute(flops, 12.0 * jac.nnz() as f64, 0.5);
                jac
            };
            // Wire into the distributed-matrix machinery: unknown-level plan.
            let mat = DistributedMatrix {
                // Unknown-level bookkeeping: the Krylov solve sizes itself
                // from these lists, so they must count unknowns, not vertices.
                owned_rows: (0..n_own).collect(),
                ghost_cols: (n_own..q.len()).collect(),
                local: jac_local,
                plan: expand_plan(plan, ncomp),
            };
            let prec = {
                let _g = tel.span("ilu");
                let diag = mat.diagonal_block();
                IluFactors::factor(&diag, &opts.ilu).expect("subdomain ILU failed")
            };
            let rhs: Vec<f64> = res[..n_own].iter().map(|r| -r).collect();
            let mut delta = vec![0.0; n_own];
            let lin = {
                let _g = tel.span("gmres");
                block_jacobi_gmres(rank, &mat, &prec, &rhs, &mut delta, &opts.krylov)
            };
            tel.counter("linear_iters", lin.iterations as f64);
            lin_iters.push(lin.iterations);
            // Line search matching the sequential driver: back off while the
            // residual grows more than 20%, and fall back to the full step
            // if no short step helps (the timestep is the real globalizer).
            // Every rank sees identical (allreduced) norms, so all ranks
            // take the same branch.
            let q_base = q[..n_own].to_vec();
            let mut alpha = 1.0f64;
            let mut full_norm = f64::INFINITY;
            let mut accepted = false;
            for k in 0..4 {
                for i in 0..n_own {
                    q[i] = q_base[i] + alpha * delta[i];
                }
                scatter(rank, &mut q, &mut tag);
                residual(rank, &q, &mut res);
                let tnorm = owned_norm(rank, &res);
                if k == 0 {
                    full_norm = tnorm;
                }
                if tnorm.is_finite() && tnorm <= 1.2 * rnorm {
                    rnorm = tnorm;
                    accepted = true;
                    break;
                }
                alpha *= 0.5;
            }
            if !accepted {
                // Full step anyway (mirrors the sequential fallback).
                for i in 0..n_own {
                    q[i] = q_base[i] + delta[i];
                }
                scatter(rank, &mut q, &mut tag);
                residual(rank, &q, &mut res);
                let check = owned_norm(rank, &res);
                debug_assert!((check - full_norm).abs() <= 1e-9 * full_norm.max(1.0));
                rnorm = full_norm;
            }
            history.push(rnorm);
            marks.push(rank.clock.now());
        }
        if rnorm / r0 <= opts.target_reduction {
            converged = true;
        }
        tel.counter("steps", lin_iters.len() as f64);
        // Fold the simulated clock into the registry so measured and modeled
        // time share one schema, then close the solve span and snapshot.
        rank.clock.flush_trace();
        rank.clock.ingest_into(&tel);
        rank.ledger.close(rank.clock.now());
        rank.ledger.ingest_into(&tel);
        let ledger = std::mem::take(&mut rank.ledger);
        drop(solve_span);
        (
            owned.clone(),
            q[..n_own].to_vec(),
            history,
            lin_iters,
            converged,
            rank.clock.breakdown(),
            rank.clock.now(),
            tel.snapshot(),
            rank.events.drain(),
            ledger,
            marks,
        )
    });

    // Assemble the report from rank 0's history (identical on all ranks).
    let mut solution = vec![0.0; mesh.nverts() * ncomp];
    let mut breakdowns = Vec::with_capacity(nranks);
    let mut telemetry = Vec::with_capacity(nranks);
    let mut ledgers = Vec::with_capacity(nranks);
    let mut step_marks = Vec::with_capacity(nranks);
    let mut sim_time: f64 = 0.0;
    for (verts, ql, _, _, _, bd, t, snap, _, ledger, marks) in &outputs {
        for (l, &g) in verts.iter().enumerate() {
            solution[g * ncomp..(g + 1) * ncomp].copy_from_slice(&ql[l * ncomp..(l + 1) * ncomp]);
        }
        breakdowns.push(*bd);
        telemetry.push(snap.clone());
        ledgers.push(ledger.clone());
        step_marks.push(marks.clone());
        sim_time = sim_time.max(*t);
    }
    let (_, _, history, lin_iters, converged, _, _, _, rank0_events, _, _) =
        outputs.into_iter().next().unwrap();
    let final_residual = *history.last().unwrap();

    // Synthesize the event stream from the (rank-invariant) history.  The
    // per-step timers are simulated here rather than wall-measured, so the
    // NewtonStep timer fields stay zero; CFL is reconstructed from the SER
    // law the loop above applied.
    let mut events = EventStream::new(Vec::new());
    events.records.push(EventRecord::RunMeta {
        name: "parallel_nks".to_string(),
        meta: vec![
            ("nranks".into(), nranks.to_string()),
            ("nverts".into(), mesh.nverts().to_string()),
            ("nthreads".into(), opts.krylov.par.nthreads().to_string()),
            ("partition".into(), opts.partition_family.to_string()),
        ],
    });
    let r0 = history[0];
    for (i, &iters) in lin_iters.iter().enumerate() {
        let cfl = (opts.cfl0 * (r0 / history[i]).powf(opts.cfl_exponent)).min(opts.cfl_max);
        events.records.push(EventRecord::NewtonStep {
            step: i as u64,
            residual_norm: history[i + 1],
            cfl,
            gmres_iters: iters as u64,
            eta: opts.krylov.rtol,
            t_residual: 0.0,
            t_jacobian: 0.0,
            t_precond: 0.0,
            t_krylov: 0.0,
        });
    }
    events.records.extend(
        rank0_events
            .into_iter()
            .filter(|e| matches!(e, EventRecord::Scatter { .. })),
    );

    ParallelNksReport {
        residual_history: history,
        linear_iters: lin_iters,
        converged,
        final_residual,
        breakdowns,
        sim_time,
        solution,
        telemetry,
        events,
        ledgers,
        step_marks,
    }
}

/// Expand a vertex-level scatter plan to unknown level (ncomp unknowns per
/// vertex, interlaced).
fn expand_plan(plan: &ScatterPlan, ncomp: usize) -> ScatterPlan {
    ScatterPlan {
        neighbors: plan.neighbors.clone(),
        send_indices: plan
            .send_indices
            .iter()
            .map(|idx| {
                idx.iter()
                    .flat_map(|&v| (0..ncomp as u32).map(move |c| v * ncomp as u32 + c))
                    .collect()
            })
            .collect(),
        recv_counts: plan.recv_counts.iter().map(|&c| c * ncomp).collect(),
    }
}

/// Convenience: the sequential reference solution for comparison tests.
pub fn sequential_reference(
    mesh: &TetMesh,
    model: FlowModel,
    owner: &[u32],
    nranks: usize,
    opts: &ParallelNksOptions,
) -> (Vec<f64>, Vec<usize>, bool) {
    let disc = Discretization::new(mesh, model, FieldLayout::Interlaced, SpatialOrder::First);
    let mut problem = EulerProblem::new(disc);
    let mut q = problem.initial_state();
    let ncomp = model.ncomp();
    let owned_sets: Vec<Vec<usize>> = (0..nranks)
        .map(|r| {
            (0..mesh.nverts())
                .filter(|&v| owner[v] as usize == r)
                .flat_map(|v| (0..ncomp).map(move |c| v * ncomp + c))
                .collect()
        })
        .collect();
    let seq_opts = fun3d_solver::pseudo::PseudoTransientOptions {
        cfl0: opts.cfl0,
        cfl_exponent: opts.cfl_exponent,
        cfl_max: opts.cfl_max,
        max_steps: opts.max_steps,
        target_reduction: opts.target_reduction,
        krylov: opts.krylov,
        precond: fun3d_solver::pseudo::PrecondSpec::Schwarz {
            owned_sets,
            overlap: 0,
            ilu: opts.ilu,
            restricted: true,
        },
        second_order_switch: None,
        matrix_free: false,
        line_search: false,
        bcsr_block: None,
        forcing: fun3d_solver::pseudo::Forcing::Constant,
        pc_refresh: 1,
    };
    let h = fun3d_solver::pseudo::solve_pseudo_transient(&mut problem, &mut q, &seq_opts);
    let its = h.steps.iter().map(|s| s.linear_iters).collect();
    (q, its, h.converged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fun3d_euler::field::FieldVec;
    use fun3d_mesh::generator::BumpChannelSpec;
    use fun3d_partition::partition_kway;

    fn setup(dims: (usize, usize, usize), nranks: usize) -> (TetMesh, Vec<u32>) {
        let mesh = BumpChannelSpec::with_dims(dims.0, dims.1, dims.2).build();
        let part = partition_kway(&mesh.vertex_graph(), nranks, 3);
        (mesh, part.part)
    }

    /// A smooth perturbation of the freestream, so every flux and Jacobian
    /// block is state dependent.
    fn perturbed_state(mesh: &TetMesh, disc: &Discretization) -> FieldVec {
        let mut q = disc.initial_state();
        for v in 0..mesh.nverts() {
            let mut s = q.get(v);
            let x = mesh.coords()[v];
            for c in 0..disc.ncomp() {
                s[c] += 0.02 * ((c + 1) as f64) * (x[0] - 0.3 * x[2]).sin();
            }
            q.set(v, &s);
        }
        q
    }

    /// Each rank's local vertices (owned, then ghosts) and owned count.
    fn local_vertices(mesh: &TetMesh, owner: &[u32], nranks: usize) -> Vec<(Vec<usize>, usize)> {
        build_scatter_plans(mesh.nverts(), owner, mesh.edges(), nranks)
            .into_iter()
            .map(|(owned, ghosts, _)| {
                let nowned = owned.len();
                (owned.into_iter().chain(ghosts).collect(), nowned)
            })
            .collect()
    }

    /// `q` restricted to the local vertices `verts`.
    fn gather(q: &FieldVec, verts: &[usize]) -> Vec<f64> {
        verts
            .iter()
            .flat_map(|&g| q.get(g)[..q.ncomp()].to_vec())
            .collect()
    }

    #[test]
    fn local_residual_matches_global() {
        // An owned vertex sees the same edges in the same order on its
        // submesh, and a flipped edge yields exactly -F, so the owned rows
        // are bitwise the global ones.
        let nranks = 3;
        let (mesh, owner) = setup((7, 5, 5), nranks);
        let model = FlowModel::incompressible();
        let ncomp = model.ncomp();
        let disc = Discretization::new(&mesh, model, FieldLayout::Interlaced, SpatialOrder::First);
        let qg = perturbed_state(&mesh, &disc);
        let mut rg = FieldVec::zeros(mesh.nverts(), ncomp, FieldLayout::Interlaced);
        disc.residual(&qg, &mut rg, &mut disc.workspace());

        for (verts, nowned) in local_vertices(&mesh, &owner, nranks) {
            let submesh = mesh.ghosted_submesh(&verts, nowned);
            let problem = local_problem(&submesh, model);
            let q = gather(&qg, &verts);
            let mut res = vec![0.0; q.len()];
            problem.residual(&q, &mut res);
            for (l, &g) in verts[..nowned].iter().enumerate() {
                assert_eq!(
                    res[l * ncomp..(l + 1) * ncomp],
                    rg.get(g)[..ncomp],
                    "vertex {g}"
                );
            }
        }
    }

    #[test]
    fn local_shifted_jacobian_matches_global_rows() {
        let nranks = 3;
        let (mesh, owner) = setup((7, 5, 5), nranks);
        let model = FlowModel::compressible();
        let ncomp = model.ncomp();
        let cfl = 7.5;
        let disc = Discretization::new(&mesh, model, FieldLayout::Interlaced, SpatialOrder::First);
        let qg = perturbed_state(&mesh, &disc);
        let global = EulerProblem::new(disc);
        let jg = {
            let q = qg.as_slice();
            let mut jac = global.jacobian(q);
            jac.shift_diagonal_by(1.0 / cfl, &global.inverse_timestep_scale(q));
            jac
        };

        for (verts, nowned) in local_vertices(&mesh, &owner, nranks) {
            let submesh = mesh.ghosted_submesh(&verts, nowned);
            let problem = local_problem(&submesh, model);
            let q = gather(&qg, &verts);
            let d = problem.inverse_timestep_scale(&q);
            let jl = owned_shifted_jacobian(&problem, &q, &d, cfl, nowned * ncomp);
            assert_eq!(jl.nrows(), nowned * ncomp);
            for row in 0..jl.nrows() {
                let grow = verts[row / ncomp] * ncomp + row % ncomp;
                let mut local: Vec<(usize, f64)> = jl
                    .row_cols(row)
                    .iter()
                    .zip(jl.row_vals(row))
                    .map(|(&c, &v)| {
                        let c = c as usize;
                        (verts[c / ncomp] * ncomp + c % ncomp, v)
                    })
                    .collect();
                local.sort_by_key(|&(c, _)| c);
                let want: Vec<(usize, f64)> = jg
                    .row_cols(grow)
                    .iter()
                    .zip(jg.row_vals(grow))
                    .map(|(&c, &v)| (c as usize, v))
                    .collect();
                assert_eq!(local.len(), want.len(), "row {grow}");
                let scale = want.iter().fold(0.0f64, |m, &(_, v)| m.max(v.abs()));
                for (&(lc, lv), &(gc, gv)) in local.iter().zip(&want) {
                    assert_eq!(lc, gc, "row {grow}");
                    assert!(
                        (lv - gv).abs() <= 1e-13 * scale,
                        "row {grow} col {gc}: {lv} vs {gv}"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_nks_converges_and_matches_sequential() {
        let nranks = 4;
        let (mesh, owner) = setup((8, 6, 6), nranks);
        let model = FlowModel::incompressible();
        let opts = ParallelNksOptions {
            max_steps: 50,
            ..Default::default()
        };
        let report = solve_parallel_nks(
            &mesh,
            model,
            &owner,
            nranks,
            &MachineSpec::asci_red(),
            &opts,
        );
        assert!(
            report.converged,
            "parallel reduction {:.2e}",
            report.final_residual / report.residual_history[0]
        );
        // Sequential reference with the same block structure converges to
        // the same state.
        let (q_seq, _its, conv) = sequential_reference(&mesh, model, &owner, nranks, &opts);
        assert!(conv);
        let scale = q_seq.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        for (a, b) in report.solution.iter().zip(&q_seq) {
            assert!(
                (a - b).abs() / scale < 1e-5,
                "solutions diverged: {a} vs {b}"
            );
        }
        assert!(report.sim_time > 0.0);
        assert_eq!(report.breakdowns.len(), nranks);
    }

    #[test]
    fn telemetry_records_phase_spans_per_rank() {
        let nranks = 2;
        let (mesh, owner) = setup((6, 5, 5), nranks);
        let model = FlowModel::incompressible();
        let opts = ParallelNksOptions {
            max_steps: 3,
            target_reduction: 1e-30, // force all 3 steps
            ..Default::default()
        };
        let report = solve_parallel_nks(
            &mesh,
            model,
            &owner,
            nranks,
            &MachineSpec::asci_red(),
            &opts,
        );
        assert_eq!(report.telemetry.len(), nranks);
        for (rank, snap) in report.telemetry.iter().enumerate() {
            assert_eq!(snap.rank, rank);
            for path in [
                "nks",
                "nks/flux",
                "nks/jacobian",
                "nks/ilu",
                "nks/gmres",
                "nks/comm/scatter",
                "nks/gmres/comm/allreduce",
                "sim/compute",
                "sim/scatter",
            ] {
                assert!(snap.span(path).is_some(), "rank {rank} missing span {path}");
            }
            // Measured child spans fit inside the solve span.
            let nks = snap.span("nks").unwrap().total_s;
            let children: f64 = ["nks/flux", "nks/jacobian", "nks/ilu", "nks/gmres"]
                .iter()
                .map(|p| snap.span(p).unwrap().total_s)
                .sum();
            assert!(children <= nks * 1.0001 + 1e-9, "{children} > {nks}");
            // Counters recorded under the solve span.
            assert!(snap.span("nks").unwrap().counter("linear_iters").unwrap() > 0.0);
            assert_eq!(snap.span("nks").unwrap().counter("steps"), Some(3.0));
            // Simulated spans carry the simulated domain tag.
            assert_eq!(
                snap.span("sim/compute").unwrap().domain,
                fun3d_telemetry::TimeDomain::Simulated
            );
        }
        // Chrome trace over all ranks parses and has per-rank tids.
        let trace = fun3d_telemetry::chrome_trace(&report.telemetry);
        let v = fun3d_telemetry::json::Value::parse(&trace).unwrap();
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(!events.is_empty());
    }

    #[test]
    fn event_stream_mirrors_history_and_carries_scatters() {
        let nranks = 2;
        let (mesh, owner) = setup((6, 5, 5), nranks);
        let model = FlowModel::incompressible();
        let opts = ParallelNksOptions {
            max_steps: 3,
            target_reduction: 1e-30, // force all 3 steps
            ..Default::default()
        };
        let report = solve_parallel_nks(
            &mesh,
            model,
            &owner,
            nranks,
            &MachineSpec::asci_red(),
            &opts,
        );
        assert!(matches!(
            &report.events.records[0],
            EventRecord::RunMeta { name, .. } if name == "parallel_nks"
        ));
        let steps = report.events.newton_steps();
        assert_eq!(steps.len(), report.linear_iters.len());
        for (i, s) in steps.iter().enumerate() {
            if let EventRecord::NewtonStep {
                step,
                residual_norm,
                gmres_iters,
                ..
            } = *s
            {
                assert_eq!(*step, i as u64);
                assert_eq!(*residual_norm, report.residual_history[i + 1]);
                assert_eq!(*gmres_iters, report.linear_iters[i] as u64);
            } else {
                unreachable!()
            }
        }
        let scatters = report
            .events
            .records
            .iter()
            .filter(|e| matches!(e, EventRecord::Scatter { .. }))
            .count();
        assert!(scatters > 0, "rank 0 scatter events missing");
        let table = fun3d_telemetry::events::convergence_table(&report.events);
        assert!(table.contains("Convergence (Figure 5)"));
    }

    #[test]
    fn traced_solve_is_bitwise_identical_and_yields_ledgers() {
        let nranks = 3;
        let (mesh, owner) = setup((6, 5, 5), nranks);
        let model = FlowModel::incompressible();
        let base = ParallelNksOptions {
            max_steps: 3,
            target_reduction: 1e-30, // force all 3 steps
            ..Default::default()
        };
        let machine = MachineSpec::asci_red();
        let plain = solve_parallel_nks(&mesh, model, &owner, nranks, &machine, &base);
        let traced_opts = ParallelNksOptions {
            trace_ranks: true,
            ..base.clone()
        };
        let traced = solve_parallel_nks(&mesh, model, &owner, nranks, &machine, &traced_opts);
        // Tracing is pure observation: identical results and clocks.
        assert_eq!(plain.solution, traced.solution);
        assert_eq!(plain.residual_history, traced.residual_history);
        assert_eq!(plain.sim_time, traced.sim_time);
        assert_eq!(plain.step_marks, traced.step_marks);
        // Ledgers fill only when traced.
        assert!(plain.ledgers.iter().all(|l| l.ops().is_empty()));
        assert_eq!(traced.ledgers.len(), nranks);
        for l in &traced.ledgers {
            assert!(l.nsends() > 0, "rank {} sent nothing", l.rank());
            assert!(l.ncollectives() > 0);
        }
        // One mark before the loop plus one per pseudo-timestep, monotone.
        for marks in &traced.step_marks {
            assert_eq!(marks.len(), traced.linear_iters.len() + 1);
            assert!(marks.windows(2).all(|w| w[0] <= w[1]));
        }
        // The critical path covers the whole run and is fully attributed.
        let cp = fun3d_comm::critical_path(&traced.ledgers);
        assert!(cp.total_s > 0.0);
        assert!((cp.accounted_s() - cp.total_s).abs() <= 1e-9 * cp.total_s);
        // Per-rank timeline spans exist; merged trace carries flow edges.
        for (r, snap) in traced.telemetry.iter().enumerate() {
            for phase in ["compute", "scatter", "reduction"] {
                let path = format!("rank{r}/{phase}");
                assert!(snap.span(&path).is_some(), "missing {path}");
            }
        }
        let merged = fun3d_telemetry::merge(&traced.telemetry);
        assert!(!merged.flows.is_empty());
    }

    #[test]
    fn parallel_residual_norm_history_is_rank_invariant() {
        // Running the same problem with different rank counts changes the
        // preconditioner (more blocks) but not the residual evaluation: the
        // initial residual norm must agree exactly.
        let model = FlowModel::incompressible();
        let mut first = None;
        for nranks in [2usize, 4] {
            let (mesh, owner) = setup((7, 5, 5), nranks);
            let opts = ParallelNksOptions {
                max_steps: 1,
                ..Default::default()
            };
            let report = solve_parallel_nks(
                &mesh,
                model,
                &owner,
                nranks,
                &MachineSpec::cray_t3e(),
                &opts,
            );
            let r0 = report.residual_history[0];
            if let Some(f) = first {
                let fd: f64 = f;
                assert!((fd - r0).abs() < 1e-10 * fd, "{fd} vs {r0}");
            }
            first = Some(r0);
        }
    }
}
