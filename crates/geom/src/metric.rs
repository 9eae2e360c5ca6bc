//! Distance metrics: plain Euclidean and toroidal (minimum image).
//!
//! The choice of metric is load-bearing for the reproduction: with the
//! toroidal metric the wrap-around square has **no border effect**, so the
//! expected node degree is exactly `(N−1)·πr²/a²` and matches the unbounded
//! constant-velocity analysis; with the Euclidean metric inside a bounded
//! window, degrees follow Miller's border-corrected CDF (paper Claim 1).

use crate::vec2::Vec2;

/// A distance metric on the deployment region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Metric {
    /// Straight-line distance.
    Euclidean,
    /// Minimum-image distance on the torus obtained by identifying opposite
    /// edges of a square with the given side.
    Toroidal {
        /// Side length of the underlying square.
        side: f64,
    },
}

impl Metric {
    /// Toroidal metric for a square of side `side`.
    ///
    /// # Panics
    ///
    /// Panics if `side` is not strictly positive and finite.
    pub fn toroidal(side: f64) -> Self {
        assert!(
            side > 0.0 && side.is_finite(),
            "side must be positive and finite"
        );
        Metric::Toroidal { side }
    }

    /// Squared distance between `a` and `b` under this metric.
    ///
    /// For the toroidal metric both points are assumed to lie within
    /// `[0, side)²` (as maintained by
    /// [`SquareRegion::wrap`](crate::region::SquareRegion::wrap)).
    #[inline]
    pub fn distance_sq(&self, a: Vec2, b: Vec2) -> f64 {
        match *self {
            Metric::Euclidean => a.distance_sq(b),
            Metric::Toroidal { side } => {
                let dx = min_image((a.x - b.x).abs(), side);
                let dy = min_image((a.y - b.y).abs(), side);
                dx * dx + dy * dy
            }
        }
    }

    /// Distance between `a` and `b` under this metric.
    #[inline]
    pub fn distance(&self, a: Vec2, b: Vec2) -> f64 {
        self.distance_sq(a, b).sqrt()
    }

    /// Whether `a` and `b` are within `radius` of each other.
    #[inline]
    pub fn within(&self, a: Vec2, b: Vec2, radius: f64) -> bool {
        self.distance_sq(a, b) <= radius * radius
    }
}

/// Folds an absolute coordinate difference into the minimum-image
/// distance `[0, side/2]`: an out-of-range difference (`d ≥ side`) is
/// first reduced by `rem_euclid`, off the hot path, then [`fold`]ed.
#[inline]
fn min_image(d: f64, side: f64) -> f64 {
    fold(if d < side { d } else { reduce(d, side) }, side)
}

/// The minimum-image fold of an in-range difference `d ∈ [0, side]`,
/// branch-free: the one definition behind [`Metric::distance_sq`] and
/// the unit-disk kernel's candidate re-test, so both decide every pair
/// bit for bit alike.
///
/// When `d > side/2`, `side − d` is exact (Sterbenz) and the smaller;
/// otherwise it rounds to at least `side/2 ≥ d`. `|a − b|` rounds the
/// same both ways, so the metric is symmetric to the last bit.
#[inline]
pub(crate) fn fold(d: f64, side: f64) -> f64 {
    d.min(side - d)
}

/// Reduces an out-of-range difference into `[0, side)`.
#[cold]
#[inline(never)]
fn reduce(d: f64, side: f64) -> f64 {
    d.rem_euclid(side)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euclidean_matches_vec2() {
        let m = Metric::Euclidean;
        let a = Vec2::new(0.0, 0.0);
        let b = Vec2::new(3.0, 4.0);
        assert_eq!(m.distance(a, b), 5.0);
        assert!(m.within(a, b, 5.0));
        assert!(!m.within(a, b, 4.999));
    }

    #[test]
    fn toroidal_wraps_shortest_path() {
        let m = Metric::toroidal(10.0);
        let a = Vec2::new(0.5, 5.0);
        let b = Vec2::new(9.5, 5.0);
        // Across the seam the distance is 1, not 9.
        assert!((m.distance(a, b) - 1.0).abs() < 1e-12);
        // Diagonal seam crossing.
        let c = Vec2::new(0.5, 0.5);
        let d = Vec2::new(9.5, 9.5);
        assert!((m.distance(c, d) - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn toroidal_max_distance_is_half_diagonal() {
        let m = Metric::toroidal(10.0);
        let a = Vec2::new(0.0, 0.0);
        let b = Vec2::new(5.0, 5.0);
        assert!((m.distance(a, b) - 50f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn metric_axioms_hold_on_samples() {
        use manet_util::Rng;
        let m = Metric::toroidal(7.0);
        let mut rng = Rng::seed_from_u64(3);
        let sample = |rng: &mut Rng| Vec2::new(rng.f64_range(0.0..7.0), rng.f64_range(0.0..7.0));
        for _ in 0..500 {
            let a = sample(&mut rng);
            let b = sample(&mut rng);
            let c = sample(&mut rng);
            // Symmetry.
            assert!((m.distance(a, b) - m.distance(b, a)).abs() < 1e-12);
            // Identity.
            assert_eq!(m.distance(a, a), 0.0);
            // Triangle inequality.
            assert!(m.distance(a, c) <= m.distance(a, b) + m.distance(b, c) + 1e-12);
        }
    }

    /// A negative difference once went through `(delta + side) − side`,
    /// which rounds: `distance_sq(a, b)` and `distance_sq(b, a)` differed
    /// in the last bits, so a link at exactly `r` could be one-sided.
    #[test]
    fn toroidal_distance_is_bitwise_symmetric() {
        use manet_util::Rng;
        let m = Metric::toroidal(1000.0);
        let (a, b) = (Vec2::new(0.1, 0.0), Vec2::new(0.3, 0.0));
        assert_eq!(m.distance_sq(a, b), m.distance_sq(b, a));
        assert_eq!(m.distance_sq(a, b), 0.039999999999999994);
        let mut rng = Rng::seed_from_u64(0x5E77);
        for side in [7.0, 1000.0, 15_811.388_300_841_898] {
            let m = Metric::toroidal(side);
            let mut sample = || Vec2::new(rng.f64_range(0.0..side), rng.f64_range(0.0..side));
            for _ in 0..2000 {
                let (a, b) = (sample(), sample());
                assert_eq!(m.distance_sq(a, b), m.distance_sq(b, a), "{a} {b}");
            }
        }
    }

    /// The branch-free fold equals the branching one it replaced, bit for
    /// bit, both inside `Metric::distance_sq` and applied straight to an
    /// in-range difference (the kernel's candidate re-test).
    #[test]
    fn branch_free_fold_is_bitwise_the_branching_fold() {
        use manet_util::Rng;
        fn branching(d: f64, side: f64) -> f64 {
            let d = if d < side { d } else { d.rem_euclid(side) };
            if d > side * 0.5 {
                side - d
            } else {
                d
            }
        }
        fn branching_d2(a: Vec2, b: Vec2, side: f64) -> f64 {
            let dx = branching((a.x - b.x).abs(), side);
            let dy = branching((a.y - b.y).abs(), side);
            dx * dx + dy * dy
        }
        let (a, b) = (Vec2::new(0.1, 0.0), Vec2::new(0.3, 0.0));
        let m = Metric::toroidal(1000.0);
        assert_eq!(
            m.distance_sq(a, b).to_bits(),
            branching_d2(a, b, 1000.0).to_bits()
        );
        assert_eq!(
            fold(0.2, 1000.0).to_bits(),
            branching(0.2, 1000.0).to_bits()
        );
        let mut rng = Rng::seed_from_u64(0xF01D);
        for side in [7.0, 1000.0, 15_811.388_300_841_898] {
            let m = Metric::toroidal(side);
            let mut sample = || Vec2::new(rng.f64_range(0.0..side), rng.f64_range(0.0..side));
            for _ in 0..4000 {
                let (a, b) = (sample(), sample());
                let want = branching_d2(a, b, side).to_bits();
                assert_eq!(m.distance_sq(a, b).to_bits(), want, "side {side}: {a} {b}");
                let (dx, dy) = (fold((a.x - b.x).abs(), side), fold((a.y - b.y).abs(), side));
                assert_eq!((dx * dx + dy * dy).to_bits(), want, "side {side}: {a} {b}");
            }
            // The fold's own edge cases: 0, exactly half the side, just
            // either side of it, and the out-of-range branch.
            let half = side * 0.5;
            for d in [
                0.0,
                half,
                half.next_down(),
                half.next_up(),
                side.next_down(),
                side,
                2.5 * side,
            ] {
                assert_eq!(
                    min_image(d, side).to_bits(),
                    branching(d, side).to_bits(),
                    "{d}"
                );
            }
        }
    }

    #[test]
    fn toroidal_folds_out_of_range_differences() {
        let m = Metric::toroidal(10.0);
        // 23 ≡ 3 (mod 10): one wrap, then the direct 3.
        let d = m.distance(Vec2::new(0.0, 0.0), Vec2::new(23.0, 0.0));
        assert!((d - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn toroidal_rejects_bad_side() {
        Metric::toroidal(-1.0);
    }
}
