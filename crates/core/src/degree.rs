//! Claim 1: the expected number of network neighbors.

use crate::params::NetworkParams;
use manet_geom::linkdist::square_link_cdf;
use std::f64::consts::PI;

/// How the expected degree is computed from `(N, a, r)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DegreeModel {
    /// The paper's Claim 1 (Eqn 1): nodes uniform in a bounded square,
    /// neighbors outside the square not counted, so border nodes see fewer
    /// neighbors. `d = (N−1) · F_a(r)` with Miller's square link-distance
    /// CDF `F_a`.
    BorderCorrected,
    /// Wrap-around square (this workspace's default simulator geometry):
    /// no border effect, `d = (N−1) · πr²/a²`. Reduces the analysis to the
    /// unbounded-plane CV formulas exactly.
    TorusExact,
}

impl DegreeModel {
    /// Pairwise connection probability of two uniformly placed nodes.
    pub fn connection_probability(self, params: &NetworkParams) -> f64 {
        let (r, a) = (params.radius(), params.side());
        match self {
            DegreeModel::BorderCorrected => square_link_cdf(r, a),
            DegreeModel::TorusExact => (PI * r * r / (a * a)).min(1.0),
        }
    }

    /// Expected degree `d` of a random node (Claim 1 for
    /// [`BorderCorrected`](DegreeModel::BorderCorrected)).
    pub fn expected_degree(self, params: &NetworkParams) -> f64 {
        (params.node_count() as f64 - 1.0) * self.connection_probability(params)
    }

    /// Expected number of *cluster-head* neighbors of a cluster-head, when
    /// heads are a thinned uniform process of ratio `p` (the paper's `d′`,
    /// Eqn 9): `d′ = (N·P − 1) · F_a(r)`, clamped at 0 for degenerate `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `p` is within `[0, 1]`.
    pub fn expected_head_degree(self, params: &NetworkParams, p: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&p),
            "head ratio must be in [0, 1], got {p}"
        );
        ((params.node_count() as f64 * p) - 1.0).max(0.0) * self.connection_probability(params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_util::Rng;

    fn params() -> NetworkParams {
        NetworkParams::new(400, 1000.0, 150.0, 10.0).unwrap()
    }

    #[test]
    fn torus_degree_is_plain_disc_fraction() {
        let p = params();
        let d = DegreeModel::TorusExact.expected_degree(&p);
        let expect = 399.0 * PI * 150.0 * 150.0 / 1e6;
        assert!((d - expect).abs() < 1e-9);
    }

    #[test]
    fn border_correction_reduces_degree() {
        let p = params();
        let torus = DegreeModel::TorusExact.expected_degree(&p);
        let corrected = DegreeModel::BorderCorrected.expected_degree(&p);
        assert!(corrected < torus, "{corrected} !< {torus}");
        // The deficit at r/a = 0.15 is the Miller cubic term ≈ (8/3)(r/a)³
        // relative: meaningful but bounded.
        assert!(corrected > 0.8 * torus);
    }

    #[test]
    fn border_corrected_matches_monte_carlo() {
        // Claim 1 validation in miniature (the full version is an
        // experiment binary): drop N uniform points in the square, count
        // mean in-square neighbors.
        let p = params();
        let mut rng = Rng::seed_from_u64(17);
        let region = manet_geom::SquareRegion::new(p.side());
        let mut acc = 0.0;
        let trials = 60;
        for _ in 0..trials {
            let pts: Vec<manet_geom::Vec2> = (0..p.node_count())
                .map(|_| region.sample_uniform(&mut rng))
                .collect();
            let mut rows = manet_geom::NeighborRows::default();
            manet_geom::SpatialGrid::default().neighbor_rows(
                &pts,
                region,
                p.radius(),
                manet_geom::Metric::Euclidean,
                &mut rows,
            );
            acc += rows.entries() as f64 / pts.len() as f64;
        }
        let mc = acc / trials as f64;
        let theory = DegreeModel::BorderCorrected.expected_degree(&p);
        let rel = (mc - theory).abs() / theory;
        assert!(
            rel < 0.02,
            "MC {mc:.3} vs Claim 1 {theory:.3} (rel {rel:.4})"
        );
    }

    #[test]
    fn head_degree_thins_linearly_until_clamp() {
        let p = params();
        let full = DegreeModel::TorusExact.expected_degree(&p);
        let half = DegreeModel::TorusExact.expected_head_degree(&p, 0.5);
        // (N·0.5 − 1)/(N − 1) of the full degree.
        let expect = (200.0 - 1.0) / 399.0 * full;
        assert!((half - expect).abs() < 1e-9);
        assert_eq!(DegreeModel::TorusExact.expected_head_degree(&p, 0.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "head ratio")]
    fn head_degree_rejects_bad_ratio() {
        DegreeModel::TorusExact.expected_head_degree(&params(), 1.5);
    }
}
