//! Immutable per-family solver state, shared across concurrent solves.
//!
//! Everything a solve needs that depends only on the [`ScenarioClass`] —
//! the generated mesh with its orderings applied and a k-way partition of
//! the vertex graph — is built once per family and shared behind an `Arc`.
//! A warm solve then skips mesh generation, reordering and partitioning;
//! the symbolic ILU(k) and BCSR setup belongs to the solve itself, which
//! runs it once on its first step and refactors after that.  Results are
//! bitwise identical to the uncached path.

use crate::scenario::{FamilyKey, ScenarioClass};
use fun3d_core::config::apply_orderings;
use fun3d_core::problem::EulerProblem;
use fun3d_euler::residual::Discretization;
use fun3d_mesh::tet::TetMesh;
use fun3d_partition::partition_kway;
use fun3d_solver::pseudo::{
    solve_pseudo_transient_with_events, PseudoTransientOptions, SolveHistory,
};
use fun3d_telemetry::events::EventSink;
use fun3d_telemetry::Registry;

/// Seed for the family partition (deterministic across builds).
const PARTITION_SEED: u64 = 0x5e7e_5e7e;

/// The shared immutable state of one scenario family.
pub struct FamilyState {
    key: FamilyKey,
    scenario: ScenarioClass,
    mesh: TetMesh,
    /// Disjoint owned-vertex sets from a k-way partition of the vertex
    /// graph — reusable by Schwarz-preconditioned requests.
    subdomains: Vec<Vec<usize>>,
    build_time_s: f64,
}

impl std::fmt::Debug for FamilyState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FamilyState")
            .field("nverts", &self.mesh.nverts())
            .field("subdomains", &self.subdomains.len())
            .field("build_time_s", &self.build_time_s)
            .finish()
    }
}

impl FamilyState {
    /// Build the family state: generate and order the mesh, partition its
    /// vertex graph into `nsubdomains` parts.  This is the expensive,
    /// once-per-family step the cache amortizes.
    pub fn build(scenario: &ScenarioClass, nsubdomains: usize) -> Self {
        let t0 = std::time::Instant::now();
        let mesh = apply_orderings(
            scenario.mesh.build(),
            scenario.layout.vertex_ordering,
            scenario.layout.edge_ordering,
        );
        let g = mesh.vertex_graph();
        let k = nsubdomains.clamp(1, mesh.nverts());
        let subdomains = partition_kway(&g, k, PARTITION_SEED).subdomains();
        Self {
            key: scenario.key(),
            scenario: scenario.clone(),
            mesh,
            subdomains,
            build_time_s: t0.elapsed().as_secs_f64(),
        }
    }

    /// The family's cache key.
    pub fn key(&self) -> FamilyKey {
        self.key
    }

    /// The scenario class this state was built for.
    pub fn scenario(&self) -> &ScenarioClass {
        &self.scenario
    }

    /// The ordered mesh.
    pub fn mesh(&self) -> &TetMesh {
        &self.mesh
    }

    /// Owned-vertex sets of the family partition.
    pub fn subdomains(&self) -> &[Vec<usize>] {
        &self.subdomains
    }

    /// Mesh vertices.
    pub fn nverts(&self) -> usize {
        self.mesh.nverts()
    }

    /// Unknowns per solve.
    pub fn nunknowns(&self) -> usize {
        self.mesh.nverts() * self.scenario.model.ncomp()
    }

    /// Seconds the one-time build took (mesh + orderings + partition).
    pub fn build_time_s(&self) -> f64 {
        self.build_time_s
    }

    /// Run one solve against this family's shared state.  Identical in
    /// result to [`direct_solve`] on the same scenario and options, but the
    /// mesh build, orderings and partition are reused.
    pub fn solve(
        &self,
        nks: &PseudoTransientOptions,
        tel: &Registry,
        events: &EventSink,
    ) -> (SolveHistory, Vec<f64>) {
        let mut nks = nks.clone();
        nks.bcsr_block = self.scenario.bcsr_block();
        let disc = Discretization::new(
            &self.mesh,
            self.scenario.model,
            self.scenario.layout.field_layout(),
            self.scenario.order,
        );
        let mut problem = EulerProblem::new(disc);
        let mut q = problem.initial_state();
        let history = solve_pseudo_transient_with_events(&mut problem, &mut q, &nks, tel, events);
        (history, q)
    }
}

/// The uncached reference path: build everything from scratch, exactly as
/// the sequential driver does, and solve cold.  The serve gates pin cached
/// results bitwise against this.
pub fn direct_solve(
    scenario: &ScenarioClass,
    nks: &PseudoTransientOptions,
) -> (SolveHistory, Vec<f64>) {
    let mut nks = nks.clone();
    nks.bcsr_block = scenario.bcsr_block();
    let mesh = apply_orderings(
        scenario.mesh.build(),
        scenario.layout.vertex_ordering,
        scenario.layout.edge_ordering,
    );
    let disc = Discretization::new(
        &mesh,
        scenario.model,
        scenario.layout.field_layout(),
        scenario.order,
    );
    let mut problem = EulerProblem::new(disc);
    let mut q = problem.initial_state();
    let history = solve_pseudo_transient_with_events(
        &mut problem,
        &mut q,
        &nks,
        &Registry::disabled(),
        &EventSink::disabled(),
    );
    (history, q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{tiny_nks, tiny_scenario};

    #[test]
    fn cached_solve_is_bitwise_identical_to_direct() {
        let sc = tiny_scenario();
        let nks = tiny_nks();
        let state = FamilyState::build(&sc, 2);
        let (hd, qd) = direct_solve(&sc, &nks);
        let (hc, qc) = state.solve(&nks, &Registry::disabled(), &EventSink::disabled());
        assert_eq!(qd, qc, "cached path must match direct path bitwise");
        assert_eq!(hd.nsteps(), hc.nsteps());
        assert_eq!(hd.final_residual, hc.final_residual);
        for (a, b) in hd.steps.iter().zip(&hc.steps) {
            assert_eq!(a.residual_norm, b.residual_norm);
            assert_eq!(a.linear_iters, b.linear_iters);
        }
        // Repeat solves on the shared state stay identical.
        let (_, qc2) = state.solve(&nks, &Registry::disabled(), &EventSink::disabled());
        assert_eq!(qd, qc2);
    }

    #[test]
    fn family_partition_covers_all_vertices() {
        let sc = tiny_scenario();
        let state = FamilyState::build(&sc, 3);
        assert_eq!(state.subdomains().len(), 3);
        let mut seen = vec![false; state.nverts()];
        for s in state.subdomains() {
            for &v in s {
                assert!(!seen[v], "vertex {v} owned twice");
                seen[v] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
        assert_eq!(state.nunknowns(), state.nverts() * 4);
        assert!(state.build_time_s() > 0.0);
    }
}
