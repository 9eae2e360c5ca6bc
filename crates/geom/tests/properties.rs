//! Seeded property tests for the geometry primitives: the torus metric,
//! boundary policies, the unit-disk kernel and the link-distance CDFs.
//!
//! Each property draws its cases from a fixed-seed `manet_util::Rng`, so
//! a failure names a case that reproduces exactly.

use manet_geom::linkdist::{disc_link_cdf, square_link_cdf};
use manet_geom::{BoundaryPolicy, Metric, NeighborRows, SpatialGrid, SquareRegion, Vec2};
use manet_util::Rng;

fn point(rng: &mut Rng, side: f64) -> Vec2 {
    Vec2::new(rng.f64_range(0.0..side), rng.f64_range(0.0..side))
}

#[test]
fn toroidal_distance_never_exceeds_half_diagonal() {
    let m = Metric::toroidal(100.0);
    let mut rng = Rng::seed_from_u64(1);
    for _ in 0..256 {
        let (a, b) = (point(&mut rng, 100.0), point(&mut rng, 100.0));
        let d = m.distance(a, b);
        assert!(d <= 2f64.sqrt() * 50.0 + 1e-9, "{a} {b}: {d}");
    }
}

#[test]
fn toroidal_translation_invariance() {
    let m = Metric::toroidal(10.0);
    let region = SquareRegion::new(10.0);
    let mut rng = Rng::seed_from_u64(2);
    for _ in 0..256 {
        let (a, b) = (point(&mut rng, 10.0), point(&mut rng, 10.0));
        let t = Vec2::new(rng.f64_range(-30.0..30.0), rng.f64_range(-30.0..30.0));
        let d1 = m.distance(a, b);
        let d2 = m.distance(region.wrap(a + t), region.wrap(b + t));
        assert!((d1 - d2).abs() < 1e-9, "{a} {b} + {t}: d1={d1} d2={d2}");
    }
}

#[test]
fn advance_keeps_nodes_inside() {
    let region = SquareRegion::new(50.0);
    let mut rng = Rng::seed_from_u64(3);
    for _ in 0..256 {
        let p = point(&mut rng, 50.0);
        let v = Vec2::new(rng.f64_range(-200.0..200.0), rng.f64_range(-200.0..200.0));
        let dt = rng.f64_range(0.0..5.0);
        let policy = if rng.bernoulli(0.5) {
            BoundaryPolicy::Torus
        } else {
            BoundaryPolicy::Reflect
        };
        let (q, w) = region.advance(p, v, dt, policy);
        assert!(
            region.contains(q),
            "{p} + {v}·{dt} ({policy:?}) escaped to {q}"
        );
        // Speed preserved under both policies.
        assert!(
            (w.norm() - v.norm()).abs() < 1e-9,
            "{policy:?} changed speed"
        );
    }
}

/// The kernel's rows equal the O(N²) `Metric::within` rows: up to 120
/// points on a 40 m square, r ∈ [0.5, 60) (past the side, and past half
/// the side on the torus), both metrics, one grid reused throughout.
#[test]
fn grid_agrees_with_brute_force() {
    let side = 40.0;
    let region = SquareRegion::new(side);
    let mut grid = SpatialGrid::default();
    let mut rng = Rng::seed_from_u64(4);
    for case in 0..128 {
        let n = rng.usize_below(120);
        let positions: Vec<Vec2> = (0..n).map(|_| point(&mut rng, side)).collect();
        let radius = rng.f64_range(0.5..60.0);
        let metric = if rng.bernoulli(0.5) {
            Metric::toroidal(side)
        } else {
            Metric::Euclidean
        };
        let mut rows = NeighborRows::default();
        grid.neighbor_rows(&positions, region, radius, metric, &mut rows);
        assert_eq!(rows.len(), n);
        for (i, row) in rows.iter().enumerate() {
            let expected: Vec<u32> = (0..n as u32)
                .filter(|&j| {
                    j as usize != i && metric.within(positions[i], positions[j as usize], radius)
                })
                .collect();
            assert_eq!(
                row, &expected,
                "case {case}: node {i}, r {radius}, {metric:?}"
            );
        }
    }
}

#[test]
fn square_cdf_is_a_cdf() {
    let mut rng = Rng::seed_from_u64(5);
    for _ in 0..256 {
        let (x1, x2) = (rng.f64_range(0.0..1.5), rng.f64_range(0.0..1.5));
        let (lo, hi) = (x1.min(x2), x1.max(x2));
        let (f_lo, f_hi) = (square_link_cdf(lo, 1.0), square_link_cdf(hi, 1.0));
        assert!(f_lo <= f_hi + 1e-12, "F({lo}) = {f_lo} > F({hi}) = {f_hi}");
        assert!((0.0..=1.0 + 1e-12).contains(&f_lo), "F({lo}) = {f_lo}");
        assert!((0.0..=1.0 + 1e-12).contains(&f_hi), "F({hi}) = {f_hi}");
    }
}

#[test]
fn disc_cdf_is_a_cdf() {
    let mut rng = Rng::seed_from_u64(6);
    for _ in 0..256 {
        let (x1, x2) = (rng.f64_range(0.0..2.2), rng.f64_range(0.0..2.2));
        let (lo, hi) = (x1.min(x2), x1.max(x2));
        let (f_lo, f_hi) = (disc_link_cdf(lo, 1.0), disc_link_cdf(hi, 1.0));
        assert!(f_lo <= f_hi + 1e-9, "F({lo}) = {f_lo} > F({hi}) = {f_hi}");
        assert!((0.0..=1.0).contains(&f_lo), "F({lo}) = {f_lo}");
    }
}

#[test]
fn wrap_then_metric_equals_unbounded_euclidean_for_short_hops() {
    // A torus locally looks Euclidean: for points whose Euclidean distance is
    // far below side/2, both metrics agree.
    let m = Metric::toroidal(1000.0);
    let mut rng = Rng::seed_from_u64(9);
    for _ in 0..1000 {
        let a = Vec2::new(rng.f64_range(400.0..600.0), rng.f64_range(400.0..600.0));
        let b = Vec2::new(
            a.x + rng.f64_range(-50.0..50.0),
            a.y + rng.f64_range(-50.0..50.0),
        );
        assert!((m.distance(a, b) - a.distance(b)).abs() < 1e-9);
    }
}
