//! End-to-end properties of the serving layer.
//!
//! The load-bearing contract: a solve served from cached, `Arc`-shared
//! family state is **bitwise identical** to the direct (build-everything)
//! path — over randomized mesh families, physics, layouts, and solver
//! tunables, through both `FamilyState::solve` and the full engine.

use fun3d_core::config::LayoutConfig;
use fun3d_euler::model::FlowModel;
use fun3d_serve::presets::{tiny_nks, tiny_scenario};
use fun3d_serve::{
    direct_solve, solution_fingerprint, AdmissionPolicy, Engine, EngineConfig, FamilyState,
    ScenarioClass, StateCache,
};
use fun3d_telemetry::events::EventSink;
use fun3d_telemetry::Registry;
use proptest::prelude::*;

fn scenario(nx: usize, ny: usize, nz: usize, compressible: bool, tuned: bool) -> ScenarioClass {
    let mut sc = tiny_scenario();
    sc.mesh.nx = nx;
    sc.mesh.ny = ny;
    sc.mesh.nz = nz;
    if compressible {
        sc.model = FlowModel::compressible();
    }
    if !tuned {
        sc.layout = LayoutConfig::baseline();
    }
    sc
}

proptest! {
    // Each case runs two full ΨNKS solves; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn cached_and_direct_solves_agree_bitwise(
        nx in 4usize..7,
        ny in 4usize..6,
        nz in 4usize..6,
        compressible in 0usize..2,
        tuned in 0usize..2,
        cfl0 in 2.0f64..8.0,
        fill in 0usize..2,
    ) {
        let sc = scenario(nx, ny, nz, compressible == 1, tuned == 1);
        let mut nks = tiny_nks();
        nks.cfl0 = cfl0;
        nks.precond = fun3d_solver::pseudo::PrecondSpec::Ilu(
            fun3d_sparse::ilu::IluOptions::with_fill(fill),
        );
        let (hd, qd) = direct_solve(&sc, &nks);
        let state = FamilyState::build(&sc, 2);
        // Two cached solves on one shared state: both match the direct path.
        for _ in 0..2 {
            let (hc, qc) = state.solve(&nks, &Registry::disabled(), &EventSink::disabled());
            prop_assert_eq!(&qc, &qd);
            prop_assert_eq!(hc.nsteps(), hd.nsteps());
            prop_assert_eq!(hc.final_residual, hd.final_residual);
            prop_assert_eq!(
                solution_fingerprint(&qc),
                solution_fingerprint(&qd)
            );
        }
    }
}

#[test]
fn engine_results_match_direct_path_across_mixed_families() {
    // Two interleaved families through a live engine with batching: every
    // response must match its family's direct-path solve bitwise.
    let fam_a = scenario(6, 5, 4, false, true);
    let fam_b = scenario(5, 4, 4, true, false);
    let nks = tiny_nks();
    let (_, qa) = direct_solve(&fam_a, &nks);
    let (_, qb) = direct_solve(&fam_b, &nks);
    let eng = Engine::start(&EngineConfig {
        workers: 2,
        queue_depth: 64,
        max_batch: 4,
        cache_capacity: 2,
        ..Default::default()
    });
    let handles: Vec<_> = (0..10)
        .map(|i| {
            let sc = if i % 2 == 0 { &fam_a } else { &fam_b };
            (i, eng.submit(sc, &nks).unwrap())
        })
        .collect();
    for (i, h) in handles {
        let resp = h.wait().done().expect("reject policy never sheds");
        let expect = if i % 2 == 0 { &qa } else { &qb };
        assert_eq!(&resp.solution, expect, "request {i} diverged from direct");
    }
    let stats = eng.shutdown();
    assert_eq!(stats.completed, 10);
    assert_eq!(stats.cache.misses, 2, "one build per family");
}

#[test]
fn eviction_then_rebuild_preserves_results() {
    // Capacity 1 with two alternating families: every lookup after the
    // first evicts; rebuilt state must still match the direct path.
    let fam_a = scenario(5, 4, 4, false, true);
    let fam_b = scenario(4, 4, 4, false, true);
    let nks = tiny_nks();
    let (_, qa) = direct_solve(&fam_a, &nks);
    let (_, qb) = direct_solve(&fam_b, &nks);
    let cache = StateCache::new(1, 1);
    for round in 0..2 {
        for (sc, expect) in [(&fam_a, &qa), (&fam_b, &qb)] {
            let (state, _) = cache.get_or_build(sc);
            let (_, q) = state.solve(&nks, &Registry::disabled(), &EventSink::disabled());
            assert_eq!(&q, expect, "round {round}");
        }
    }
    let s = cache.stats();
    assert_eq!(s.misses, 4, "capacity 1 forces rebuild each swap");
    assert!(s.evictions >= 3);
}

#[test]
fn shed_load_still_returns_correct_results_for_survivors() {
    let sc = scenario(5, 4, 4, false, true);
    let nks = tiny_nks();
    let (_, qd) = direct_solve(&sc, &nks);
    let eng = Engine::start(&EngineConfig {
        workers: 1,
        queue_depth: 2,
        policy: AdmissionPolicy::ShedOldest,
        max_batch: 2,
        ..Default::default()
    });
    let handles: Vec<_> = (0..8).map(|_| eng.submit(&sc, &nks).unwrap()).collect();
    let mut done = 0;
    for h in handles {
        if let Some(resp) = h.wait().done() {
            assert_eq!(resp.solution, qd);
            done += 1;
        }
    }
    let stats = eng.shutdown();
    assert!(done > 0, "at least the in-flight job completes");
    assert_eq!(stats.completed, done as u64);
    assert_eq!(stats.queue.shed + stats.completed, 8);
}
