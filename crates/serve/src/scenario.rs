//! Scenario classes, solve requests, and responses.
//!
//! A **scenario class** is everything that determines the immutable
//! per-family solver state: the mesh generator spec, the flow model, the
//! data-layout enhancements, and the spatial order.  Two requests in the
//! same class share a mesh, its orderings and a partition; only the ΨNKS
//! tunables (CFL law, tolerances, Krylov options) vary per request.

use fun3d_core::config::{CaseConfig, LayoutConfig};
use fun3d_euler::model::FlowModel;
use fun3d_euler::residual::SpatialOrder;
use fun3d_mesh::generator::BumpChannelSpec;
use fun3d_solver::pseudo::{PseudoTransientOptions, SolveHistory};

/// The immutable-state equivalence class of a solve request.
#[derive(Debug, Clone)]
pub struct ScenarioClass {
    /// Mesh generator parameters (the mesh family).
    pub mesh: BumpChannelSpec,
    /// Flow model; with the mesh this fixes the Jacobian pattern.
    pub model: FlowModel,
    /// Data-layout enhancements (orderings, interlacing, blocking).
    pub layout: LayoutConfig,
    /// Spatial order of the residual at start.
    pub order: SpatialOrder,
}

impl ScenarioClass {
    /// The small tuned default (mirrors `CaseConfig::small`).
    pub fn small() -> Self {
        let c = CaseConfig::small();
        Self {
            mesh: c.mesh,
            model: c.model,
            layout: c.layout,
            order: c.order,
        }
    }

    /// The bit-exact cache key for this class.
    pub fn key(&self) -> FamilyKey {
        let m = &self.mesh;
        FamilyKey {
            mesh_dims: [m.nx as u64, m.ny as u64, m.nz as u64],
            mesh_geom: [
                m.length.to_bits(),
                m.span.to_bits(),
                m.height.to_bits(),
                m.bump_height.to_bits(),
                m.bump_center.to_bits(),
                m.bump_width.to_bits(),
                m.grading.to_bits(),
                m.jitter.to_bits(),
            ],
            mesh_seed: m.seed,
            model: match self.model {
                FlowModel::Incompressible { beta } => ModelKey::Incompressible {
                    beta_bits: beta.to_bits(),
                },
                FlowModel::Compressible { gamma } => ModelKey::Compressible {
                    gamma_bits: gamma.to_bits(),
                },
            },
            layout: self.layout,
            order: self.order,
        }
    }

    /// Unknowns per vertex (the structural block size).
    pub fn block_size(&self) -> usize {
        self.model.ncomp()
    }

    /// The BCSR block the solve path uses: structural blocking applies only
    /// in the interlaced layout (same rule as the sequential driver).
    pub fn bcsr_block(&self) -> Option<usize> {
        (self.layout.blocked && self.layout.interlaced).then(|| self.block_size())
    }

    /// Expand into a full `CaseConfig` with the given solver options (the
    /// direct, uncached path runs through this).
    pub fn to_case(&self, nks: PseudoTransientOptions) -> CaseConfig {
        CaseConfig {
            mesh: self.mesh,
            model: self.model,
            layout: self.layout,
            order: self.order,
            nks,
        }
    }
}

/// Bit-exact fingerprint of a [`ScenarioClass`] — the cache key.  Floating
/// fields enter as IEEE bit patterns, so two classes collide only when every
/// parameter is identical (no epsilon aliasing, no hash truncation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FamilyKey {
    mesh_dims: [u64; 3],
    mesh_geom: [u64; 8],
    mesh_seed: u64,
    model: ModelKey,
    layout: LayoutConfig,
    order: SpatialOrder,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ModelKey {
    Incompressible { beta_bits: u64 },
    Compressible { gamma_bits: u64 },
}

/// One queued solve request.
#[derive(Debug, Clone)]
pub struct SolveRequest {
    /// Engine-assigned id (submission order).
    pub id: u64,
    /// The scenario class (selects the shared family state).
    pub scenario: ScenarioClass,
    /// Per-request ΨNKS tunables.  `bcsr_block` is overridden from the
    /// scenario's layout, like the sequential driver does.
    pub nks: PseudoTransientOptions,
}

/// Terminal outcome of a submitted request.
#[derive(Debug, Clone)]
pub enum SolveOutcome {
    /// The solve ran to completion.
    Done(Box<SolveResponse>),
    /// The solver's health monitor tripped and the solve aborted: the
    /// response's `history.anomaly` carries the typed verdict.  Failed
    /// requests burn SLO error budget like over-target completions.
    Failed(Box<SolveResponse>),
    /// Admitted, then dropped by the `ShedOldest` admission policy to make
    /// room for a later arrival.
    Shed,
}

impl SolveOutcome {
    /// The response if the solve completed *healthily*.
    pub fn done(self) -> Option<SolveResponse> {
        match self {
            SolveOutcome::Done(r) => Some(*r),
            SolveOutcome::Failed(_) | SolveOutcome::Shed => None,
        }
    }

    /// The response whether the solve succeeded or aborted on an anomaly
    /// (`None` only for shed jobs).
    pub fn response(self) -> Option<SolveResponse> {
        match self {
            SolveOutcome::Done(r) | SolveOutcome::Failed(r) => Some(*r),
            SolveOutcome::Shed => None,
        }
    }

    /// Whether the solve aborted on a detected anomaly.
    pub fn is_failed(&self) -> bool {
        matches!(self, SolveOutcome::Failed(_))
    }
}

/// A completed solve with its result and serving-side timing attribution.
#[derive(Debug, Clone)]
pub struct SolveResponse {
    /// Request id.
    pub id: u64,
    /// Full ΨNKS history (per-step residuals, iterations, phase timers).
    pub history: SolveHistory,
    /// The converged state vector.
    pub solution: Vec<f64>,
    /// FNV-1a fingerprint of the solution's IEEE bit patterns — lets
    /// callers check result identity without shipping vectors around.
    pub solution_fingerprint: u64,
    /// Whether the family state came from the cache (false exactly once per
    /// family per capacity residency).
    pub cache_hit: bool,
    /// Number of requests served by this worker pass (1 = unbatched).
    pub batch_size: usize,
    /// Seconds spent queued before a worker picked the request up.
    pub t_queue_s: f64,
    /// Seconds from batch pickup to this solve's start: shared state
    /// acquisition plus any earlier same-batch solves (batch assembly).
    pub t_batch_s: f64,
    /// Seconds acquiring the family state, attributed to the request that
    /// paid for it (0 for the rest of its batch).
    pub t_setup_s: f64,
    /// Seconds in the ΨNKS solve itself.
    pub t_solve_s: f64,
    /// Seconds fingerprinting and assembling the response.
    pub t_respond_s: f64,
    /// End-to-end seconds from admission to completion.  The segments
    /// partition it: `t_queue_s + t_batch_s + t_solve_s + t_respond_s`
    /// equals this up to float rounding.
    pub latency_s: f64,
}

/// FNV-1a over the IEEE-754 bit patterns of a state vector.
pub fn solution_fingerprint(q: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in q {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_separate_families_and_unify_repeats() {
        let a = ScenarioClass::small();
        let mut b = ScenarioClass::small();
        assert_eq!(a.key(), b.key());
        b.mesh.nx += 1;
        assert_ne!(a.key(), b.key());
        let mut c = ScenarioClass::small();
        c.model = FlowModel::compressible();
        assert_ne!(a.key(), c.key());
        let mut d = ScenarioClass::small();
        d.layout = LayoutConfig::baseline();
        assert_ne!(a.key(), d.key());
        // f64 params enter bit-exactly.
        let mut e = ScenarioClass::small();
        e.mesh.jitter += 1e-16;
        if e.mesh.jitter != a.mesh.jitter {
            assert_ne!(a.key(), e.key());
        }
    }

    #[test]
    fn bcsr_block_follows_layout() {
        let tuned = ScenarioClass::small();
        assert_eq!(tuned.bcsr_block(), Some(4));
        let mut seg = ScenarioClass::small();
        seg.layout = LayoutConfig::baseline();
        assert_eq!(seg.bcsr_block(), None);
    }

    #[test]
    fn fingerprint_is_bit_sensitive() {
        let q = vec![1.0, 2.0, 3.0];
        let mut q2 = q.clone();
        assert_eq!(solution_fingerprint(&q), solution_fingerprint(&q2));
        q2[1] = f64::from_bits(2.0f64.to_bits() + 1); // next float up
        assert_ne!(solution_fingerprint(&q), solution_fingerprint(&q2));
        // 0.0 and -0.0 compare equal but are different bit patterns.
        assert_ne!(solution_fingerprint(&[0.0]), solution_fingerprint(&[-0.0]));
    }
}
