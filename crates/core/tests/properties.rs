//! Seeded property tests for the analytical model: the overhead
//! breakdown, linearity in speed, degree models, Eqn 16, and the cluster
//! count and d-hop head-ratio estimates.
//!
//! Each property draws its cases from a fixed-seed `manet_util::Rng`, so
//! a failure names a case that reproduces exactly.

use manet_model::{
    lid, ClusterSizeModel, DegreeModel, HeadContactConvention, NetworkParams, OverheadModel,
    RouteLinkModel,
};
use manet_util::Rng;

/// Parameters across the model's whole space: N ∈ [10, 2000), a ∈
/// [200, 5000) m, r/a ∈ [0.02, 0.45), v ∈ [0, 60) m/s.
fn params(rng: &mut Rng) -> NetworkParams {
    let n = 10 + rng.usize_below(1990);
    let side = rng.f64_range(200.0..5000.0);
    let r_frac = rng.f64_range(0.02..0.45);
    let v = rng.f64_range(0.0..60.0);
    NetworkParams::new(n, side, r_frac * side, v).expect("constructed valid")
}

/// Every frequency and bit rate is finite and non-negative across the
/// whole parameter space, for every model-switch combination.
#[test]
fn breakdown_is_finite_and_nonnegative() {
    let mut rng = Rng::seed_from_u64(1);
    for case in 0..256 {
        let params = params(&mut rng);
        let p = rng.f64_range(1e-6..1.0);
        // Each case takes one of the eight switch combinations in turn.
        let (contact, links, sizes) = (case & 1 != 0, case & 2 != 0, case & 4 != 0);
        for degree_model in [DegreeModel::TorusExact, DegreeModel::BorderCorrected] {
            let mut m = OverheadModel::new(params, degree_model);
            if contact {
                m = m.with_contact_convention(HeadContactConvention::PerEndpoint);
            }
            if links {
                m = m.with_route_links(RouteLinkModel::MemberHeadOnly);
            }
            if sizes {
                m = m.with_size_model(ClusterSizeModel::Exponential);
            }
            let b = m.breakdown(p);
            for x in [
                b.f_hello,
                b.f_cluster,
                b.f_cluster_break,
                b.f_cluster_contact,
                b.f_route,
                b.o_hello,
                b.o_cluster,
                b.o_route,
                b.o_total,
            ] {
                assert!(x.is_finite() && x >= 0.0, "case {case}: {x} out of range");
            }
            assert!(
                (b.o_total - b.o_hello - b.o_cluster - b.o_route).abs()
                    <= 1e-9 * b.o_total.max(1.0),
                "case {case}: total is not the sum"
            );
        }
    }
}

/// All frequencies are exactly linear in speed.
#[test]
fn frequencies_linear_in_speed() {
    let mut rng = Rng::seed_from_u64(2);
    for case in 0..256 {
        let params = params(&mut rng);
        let p = rng.f64_range(0.01..0.9);
        let factor = rng.f64_range(1.5..10.0);
        let m1 = OverheadModel::new(params, DegreeModel::TorusExact);
        let faster = params.with_speed(params.speed() * factor).unwrap();
        let m2 = OverheadModel::new(faster, DegreeModel::TorusExact);
        for (a, b) in [
            (m1.f_hello(), m2.f_hello()),
            (m1.f_cluster(p), m2.f_cluster(p)),
            (m1.f_route(p), m2.f_route(p)),
        ] {
            assert!(
                (b - factor * a).abs() <= 1e-9 * b.max(1.0),
                "case {case}: {b} != {factor}×{a}"
            );
        }
    }
}

/// The border-corrected degree never exceeds the torus degree and both
/// are within [0, N−1].
#[test]
fn degree_models_are_ordered() {
    let mut rng = Rng::seed_from_u64(3);
    for case in 0..256 {
        let params = params(&mut rng);
        let torus = DegreeModel::TorusExact.expected_degree(&params);
        let window = DegreeModel::BorderCorrected.expected_degree(&params);
        assert!(window <= torus + 1e-9, "case {case}");
        assert!(window >= 0.0, "case {case}");
        assert!(
            torus <= params.node_count() as f64 - 1.0 + 1e-9,
            "case {case}"
        );
    }
}

/// Eqn 16's exact solution is always a fixed point, is bounded by its
/// approximation's neighborhood, and decreases with degree.
#[test]
fn lid_exact_p_behaves() {
    let mut rng = Rng::seed_from_u64(4);
    for _ in 0..256 {
        let (d1, d2) = (rng.f64_range(0.5..500.0), rng.f64_range(0.5..500.0));
        let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        let p_lo = lid::p_exact(hi).unwrap();
        let p_hi = lid::p_exact(lo).unwrap();
        assert!(p_lo <= p_hi + 1e-9, "P must decrease with degree");
        for (d, p) in [(lo, p_hi), (hi, p_lo)] {
            assert!((lid::eqn16_rhs(p, d) - p).abs() < 1e-7, "d={d}");
            assert!(p > 0.0 && p <= 1.0, "d={d}: {p}");
            // Approximation within 10% for d ≥ 4 (Figure 4b regime).
            if d >= 4.0 {
                let approx = lid::p_approx(d);
                assert!((p - approx).abs() / p < 0.10, "d={d}: {p} vs {approx}");
            }
        }
    }
}

/// Cluster count estimates are monotone in `N` and anti-monotone in
/// `r`, for both the paper's estimate and Caro–Wei.
#[test]
fn cluster_count_monotonicity() {
    let mut rng = Rng::seed_from_u64(5);
    for _ in 0..256 {
        let n = 20 + rng.usize_below(880);
        let r_frac = rng.f64_range(0.05..0.35);
        let side = 1000.0;
        let p1 = NetworkParams::new(n, side, r_frac * side, 1.0).unwrap();
        let p2 = NetworkParams::new(n * 2, side, r_frac * side, 1.0).unwrap();
        let p3 = NetworkParams::new(n, side, (r_frac * 1.3) * side, 1.0).unwrap();
        for model in [DegreeModel::TorusExact, DegreeModel::BorderCorrected] {
            assert!(
                lid::expected_cluster_count(&p2, model) > lid::expected_cluster_count(&p1, model),
                "n {n}, r/a {r_frac}"
            );
            assert!(
                lid::expected_cluster_count(&p3, model) < lid::expected_cluster_count(&p1, model),
                "n {n}, r/a {r_frac}"
            );
            let cw = lid::p_caro_wei(&p1, model);
            assert!(cw > 0.0 && cw <= 1.0, "n {n}, r/a {r_frac}: {cw}");
            assert!(
                cw < lid::p_approx_for(&p1, model) + 1e-9,
                "n {n}, r/a {r_frac}"
            );
        }
    }
}

/// d-hop head-ratio heuristic nests: more hops, smaller P.
#[test]
fn dhop_heuristic_nests() {
    let mut rng = Rng::seed_from_u64(6);
    for _ in 0..256 {
        let n = 20 + rng.usize_below(880);
        let r_frac = rng.f64_range(0.03..0.2);
        let params = NetworkParams::new(n, 1000.0, r_frac * 1000.0, 1.0).unwrap();
        let p1 = manet_model::dhop::p_approx(&params, 1);
        let p2 = manet_model::dhop::p_approx(&params, 2);
        let p3 = manet_model::dhop::p_approx(&params, 3);
        assert!(p1 >= p2 && p2 >= p3, "n {n}, r/a {r_frac}: {p1} {p2} {p3}");
        assert!(p3 > 0.0, "n {n}, r/a {r_frac}");
    }
}
