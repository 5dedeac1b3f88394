//! `serve-warm`: one closed-loop client against a one-worker engine.

use super::{keep_going, next_is_traced, set_end_to_end, step_times, trace_overhead, Op, Outcome};
use crate::cli::Args;
use crate::inputs::{mesh_spec, request_stream, Request};
use crate::metrics::Metrics;
use crate::stats::{mean, median, peak_rss_mb, ratio};
use crate::trace::Tracer;
use fun3d_core::config::LayoutConfig;
use fun3d_euler::model::FlowModel;
use fun3d_euler::residual::SpatialOrder;
use fun3d_serve::{
    direct_solve, solution_fingerprint, AdmissionPolicy, Engine, EngineConfig, ScenarioClass,
    SolveOutcome, SolveResponse,
};
use fun3d_solver::pseudo::PseudoTransientOptions;
use std::collections::HashMap;
use std::time::Instant;

/// Engine start-ups per run; `setup_s` is their median.
pub const SERVE_SETUP_REPS: usize = 3;

/// A serving workload.
#[derive(Debug, Clone)]
pub struct ServeCase {
    /// The families: incompressible first, compressible second.
    pub families: [ScenarioClass; 2],
    /// Base solver options; each request sets its own `cfl0`.
    pub opts: PseudoTransientOptions,
    /// The request sequence (cycled if the run outlasts it).
    pub requests: Vec<Request>,
    /// Fewest requests a run measures.
    pub min_requests: usize,
}

/// Target vertex count of each `serve-warm` family.
pub const SERVE_VERTICES: usize = 120;
/// Fewest requests per run: p90 then has ten samples beyond it.
pub const SERVE_MIN_REQUESTS: usize = 100;

impl ServeCase {
    /// `serve-warm`: two ~120-vertex families in a 3:1 mix, each request
    /// solved to a 1e-8 reduction with point ILU(1).
    pub fn serve_warm(seed: u64) -> Self {
        let family = |model| ScenarioClass {
            mesh: mesh_spec(SERVE_VERTICES, seed),
            model,
            layout: LayoutConfig::tuned(),
            order: SpatialOrder::First,
        };
        Self {
            families: [
                family(FlowModel::incompressible()),
                family(FlowModel::compressible()),
            ],
            opts: super::converge_options(1, 100),
            requests: request_stream(seed, 4 * SERVE_MIN_REQUESTS),
            min_requests: SERVE_MIN_REQUESTS,
        }
    }

    fn options(&self, cfl0: f64) -> PseudoTransientOptions {
        PseudoTransientOptions {
            cfl0,
            ..self.opts.clone()
        }
    }
}

fn engine_config() -> EngineConfig {
    EngineConfig {
        workers: 1,
        queue_depth: 4,
        policy: AdmissionPolicy::Reject,
        max_batch: 1,
        cache_capacity: 4,
        solver_threads: 1,
        live: None,
    }
}

/// Submit one request and wait for it; the response when it completed
/// healthily, with the client-side latency.
fn call(
    engine: &Engine,
    case: &ServeCase,
    req: &Request,
) -> (Option<SolveResponse>, Instant, Instant) {
    let t0 = Instant::now();
    let outcome = engine
        .submit(&case.families[req.family], &case.options(req.cfl0))
        .map(|h| h.wait());
    let t1 = Instant::now();
    let resp = match outcome {
        Ok(SolveOutcome::Done(r)) => Some(*r),
        Ok(SolveOutcome::Failed(_) | SolveOutcome::Shed) | Err(_) => None,
    };
    (resp, t0, t1)
}

/// Record a traced request's engine segments as spans under `parent`.
/// The segments partition the engine-side latency from admission, which
/// starts inside `submit`, right after the client's start.
fn record_segments(tracer: &Tracer, parent: Option<usize>, start_s: f64, r: &SolveResponse) {
    let mut t = start_s;
    for (name, dur) in [
        ("serve.queue", r.t_queue_s),
        ("serve.batch", r.t_batch_s),
        ("serve.solve", r.t_solve_s),
        ("serve.respond", r.t_respond_s),
    ] {
        tracer.record_under(parent, name, t, t + dur);
        t += dur;
    }
}

/// Run a serving workload for `args.seconds` and at least
/// `case.min_requests` requests.
pub fn run(case: &ServeCase, args: &Args, tracer: &Tracer) -> Outcome {
    let mut m = Metrics::default();

    // Set-up: engine start plus the first, cold request of each family.
    let mut setup = Vec::new();
    let mut family_setup = Vec::new();
    let mut engine = None;
    for _ in 0..SERVE_SETUP_REPS {
        drop(engine.take());
        let id = tracer.enter("setup");
        let t0 = Instant::now();
        let e = tracer.span("serve.engine_start", || Engine::start(&engine_config()));
        for family in 0..case.families.len() {
            let req = Request {
                family,
                cfl0: case.opts.cfl0,
            };
            let (resp, _, _) = tracer.span("serve.cold_request", || call(&e, case, &req));
            family_setup.push(resp.map_or(0.0, |r| r.t_setup_s));
        }
        setup.push(t0.elapsed().as_secs_f64());
        tracer.exit(id);
        engine = Some(e);
    }
    let engine = engine.expect("at least one set-up");

    // Closed loop: the next request goes out when the previous one is back.
    let mut ops = Vec::new();
    let mut sent: Vec<(Request, Option<SolveResponse>)> = Vec::new();
    let start = Instant::now();
    while keep_going(tracer, start, args.seconds, &ops, case.min_requests) {
        let req = case.requests[ops.len() % case.requests.len()];
        let traced = next_is_traced(tracer, ops.len());
        let id = tracer.enter(if traced {
            "request"
        } else {
            "request (untraced)"
        });
        let (resp, t0, t1) = call(&engine, case, &req);
        tracer.exit(id);
        if let (true, Some(r)) = (traced, &resp) {
            record_segments(tracer, id, tracer.at(t0), r);
        }
        ops.push(Op {
            latency_s: (t1 - t0).as_secs_f64(),
            ok: resp.is_some(),
            traced,
        });
        sent.push((req, resp));
    }
    let window = start.elapsed().as_secs_f64();
    let rss = peak_rss_mb();
    let stats = engine.shutdown();

    // References, outside the measured window: the uncached direct solve
    // of every distinct (family, cfl0) the run sent.
    let mut reference: HashMap<(usize, u64), u64> = HashMap::new();
    tracer.span("reference", || {
        for (req, _) in &sent {
            reference
                .entry((req.family, req.cfl0.to_bits()))
                .or_insert_with(|| {
                    let (h, q) = direct_solve(&case.families[req.family], &case.options(req.cfl0));
                    if h.converged && h.anomaly.is_none() {
                        solution_fingerprint(&q)
                    } else {
                        // A reference that itself failed matches nothing.
                        !solution_fingerprint(&q)
                    }
                });
        }
    });
    for (op, (req, resp)) in ops.iter_mut().zip(&sent) {
        let want = reference[&(req.family, req.cfl0.to_bits())];
        op.ok = resp
            .as_ref()
            .is_some_and(|r| r.history.converged && r.solution_fingerprint == want);
    }
    let failed = ops.iter().filter(|o| !o.ok).count();

    let untraced: Vec<&SolveResponse> = sent
        .iter()
        .zip(&ops)
        .filter(|(_, op)| !op.traced)
        .filter_map(|((_, r), _)| r.as_ref())
        .collect();
    let solve_times: Vec<f64> = untraced.iter().map(|r| r.t_solve_s).collect();
    let steps: Vec<f64> = untraced
        .iter()
        .flat_map(|r| step_times(&r.history).into_iter().skip(1))
        .collect();
    set_end_to_end(
        &mut m,
        &setup,
        &ops,
        window,
        median(&solve_times),
        median(&steps),
        rss,
    );

    let traced: Vec<&SolveResponse> = sent
        .iter()
        .zip(&ops)
        .filter(|(_, op)| op.traced)
        .filter_map(|((_, r), _)| r.as_ref())
        .collect();
    if !traced.is_empty() {
        let avg =
            |f: fn(&SolveResponse) -> f64| mean(&traced.iter().map(|r| f(r)).collect::<Vec<_>>());
        m.set("serve.queue_s", avg(|r| r.t_queue_s));
        m.set("serve.family_setup_s", mean(&family_setup));
        m.set("serve.solve_s", avg(|r| r.t_solve_s));
        m.set("serve.respond_s", avg(|r| r.t_respond_s));
        m.set("serve.cache_hit_rate", stats.cache.hit_rate());
        // The engine runs each solve itself, so the euler and solver layers
        // are read from the solver's own per-step timers.
        m.set("euler.residual_s", avg(|r| r.history.phases().residual));
        m.set("euler.jacobian_s", avg(|r| r.history.phases().jacobian));
        m.set("solver.precond_s", avg(|r| r.history.phases().precond));
        m.set("solver.krylov_s", avg(|r| r.history.phases().krylov));
        m.set("solver.newton_steps", avg(|r| r.history.nsteps() as f64));
        m.set(
            "solver.linear_iters",
            avg(|r| r.history.total_linear_iters() as f64),
        );
        let all: Vec<_> = traced.iter().flat_map(|r| r.history.steps.iter()).collect();
        m.set(
            "solver.linear_converged_frac",
            ratio(
                all.iter().filter(|s| s.linear_converged).count() as f64,
                all.len() as f64,
            ),
        );
        m.set(
            "solver.full_step_frac",
            ratio(
                all.iter().filter(|s| s.step_length == 1.0).count() as f64,
                all.len() as f64,
            ),
        );
        m.set("trace.overhead_frac", trace_overhead(&ops));
    }

    let summary = vec![format!(
        "2 families of {} and {} vertices (3:1 incompressible:compressible); 1 worker x 1 \
         solver thread, closed loop, 1 client; {} requests in {:.2} s; {} failed; cache hit \
         rate {:.3}",
        case.families[0].mesh.nverts(),
        case.families[1].mesh.nverts(),
        ops.len(),
        window,
        failed,
        stats.cache.hit_rate()
    )];
    Outcome {
        attempted: ops.len(),
        failed,
        metrics: m,
        summary,
    }
}
