//! Seeded input generation.  Every input a workload hands the solver — the
//! mesh jitter, the partition seed, the serve request sequence — derives
//! from the `--seed` argument through [`derive`], so one seed always gives
//! bit-identical inputs.

use fun3d_mesh::generator::BumpChannelSpec;

/// Independent input streams drawn from one seed.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    /// `BumpChannelSpec::seed` (interior-node jitter).
    Mesh = 1,
    /// `partition_kway` seed.
    Partition = 2,
    /// Serve request sequence.
    Requests = 3,
}

/// SplitMix64 finalizer of `seed` and the stream tag.
pub fn derive(seed: u64, stream: Stream) -> u64 {
    SplitMix::new(seed ^ ((stream as u64) << 56)).next_u64()
}

/// SplitMix64: a tiny, fully specified generator, so input sequences never
/// depend on another crate's generator choice.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// Start a sequence.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The bump-channel spec closest to `target_vertices`, jittered by `seed`.
pub fn mesh_spec(target_vertices: usize, seed: u64) -> BumpChannelSpec {
    let mut spec = BumpChannelSpec::with_target_vertices(target_vertices);
    spec.seed = derive(seed, Stream::Mesh);
    spec
}

/// One serve request: which family and which initial CFL.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// 0 = incompressible family, 1 = compressible family.
    pub family: usize,
    /// Initial CFL number.
    pub cfl0: f64,
}

/// The initial CFL numbers a request may carry.  All of them converge on
/// both serve families.
pub const SERVE_CFL0: [f64; 3] = [4.0, 5.0, 6.0];

/// `n` requests in a 3:1 incompressible:compressible mix: every block of
/// four holds exactly one compressible request, at a seeded position, and
/// every request draws its CFL from [`SERVE_CFL0`].
pub fn request_stream(seed: u64, n: usize) -> Vec<Request> {
    let mut rng = SplitMix::new(derive(seed, Stream::Requests));
    let mut out = Vec::with_capacity(n);
    let mut comp_at = 0;
    for i in 0..n {
        if i % 4 == 0 {
            comp_at = rng.below(4);
        }
        out.push(Request {
            family: usize::from(i % 4 == comp_at),
            cfl0: SERVE_CFL0[rng.below(SERVE_CFL0.len())],
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fun3d_core::config::apply_orderings;
    use fun3d_mesh::reorder::{EdgeOrdering, VertexOrdering};
    use fun3d_partition::partition_kway;

    /// Mesh coordinates, mesh edges, partition and request sequence.
    type Inputs = (Vec<[f64; 3]>, Vec<[u32; 2]>, Vec<u32>, Vec<Request>);

    /// Everything a workload hands the solver for one seed, at test size.
    fn inputs(seed: u64) -> Inputs {
        let mesh = apply_orderings(
            mesh_spec(300, seed).build(),
            VertexOrdering::ReverseCuthillMcKee,
            EdgeOrdering::VertexSorted,
        );
        let part = partition_kway(&mesh.vertex_graph(), 2, derive(seed, Stream::Partition));
        (
            mesh.coords().to_vec(),
            mesh.edges().to_vec(),
            part.part,
            request_stream(seed, 40),
        )
    }

    fn bits(c: &[[f64; 3]]) -> Vec<u64> {
        c.iter().flatten().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn same_seed_gives_bit_identical_inputs() {
        let a = inputs(11);
        let b = inputs(11);
        assert_eq!(bits(&a.0), bits(&b.0));
        assert_eq!(a.1, b.1);
        assert_eq!(a.2, b.2);
        assert_eq!(a.3, b.3);
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        let a = inputs(11);
        let b = inputs(12);
        assert_ne!(bits(&a.0), bits(&b.0));
        assert_ne!(a.3, b.3);
    }

    #[test]
    fn request_mix_is_three_to_one() {
        let reqs = request_stream(5, 400);
        let comp = reqs.iter().filter(|r| r.family == 1).count();
        assert_eq!(comp, 100);
        assert!(reqs.iter().all(|r| SERVE_CFL0.contains(&r.cfl0)));
    }
}
