//! The paper's simulation mobility model: epoch-based random direction on a
//! wrap-around square.

use crate::Mobility;
use manet_geom::{BoundaryPolicy, SquareRegion, Vec2};
use manet_util::Rng;

/// Epoch-based random-direction mobility (the paper's "special case of RWP",
/// Section 4):
///
/// * at every epoch boundary (every `epoch` seconds) each node draws a fresh
///   direction uniformly from `[0, 2π)`;
/// * between epochs it moves in that direction at the common speed `v`;
/// * a node crossing the border reappears on the opposite border and keeps
///   moving (torus wrap) without changing direction.
///
/// The paper's description synchronizes all nodes on common epoch boundaries;
/// [`EpochRandomDirection::with_phase_jitter`] instead staggers the epoch
/// clocks uniformly, which removes the (analysis-irrelevant) simultaneity
/// artifact. Both variants preserve a uniform spatial distribution and the
/// CV link-change rate; the default matches the paper.
///
/// # Example
///
/// ```
/// use manet_mobility::{EpochRandomDirection, Mobility};
/// use manet_geom::SquareRegion;
/// use manet_util::Rng;
///
/// let mut rng = Rng::seed_from_u64(1);
/// let mut erd = EpochRandomDirection::new(SquareRegion::new(500.0), 20, 10.0, 30.0, &mut rng);
/// for _ in 0..100 { erd.step(0.5, &mut rng); }
/// assert!(erd.positions().iter().all(|&p| erd.region().contains(p)));
/// ```
#[derive(Debug, Clone)]
pub struct EpochRandomDirection {
    region: SquareRegion,
    speed: f64,
    epoch: f64,
    positions: Vec<Vec2>,
    directions: Vec<Vec2>,
    /// Per-node speeds (all equal to `speed` in the paper's model; the
    /// heterogeneous constructor draws them per node).
    speeds: Vec<f64>,
    /// Per-node time remaining until the next direction redraw.
    time_left: Vec<f64>,
}

impl EpochRandomDirection {
    /// Creates `n` nodes with synchronized epoch clocks (the paper's model).
    ///
    /// # Panics
    ///
    /// Panics if `speed` is negative/not finite or `epoch` is not strictly
    /// positive/finite.
    pub fn new(region: SquareRegion, n: usize, speed: f64, epoch: f64, rng: &mut Rng) -> Self {
        Self::build(region, n, speed, epoch, rng, false)
    }

    /// Creates `n` nodes whose epoch clocks are uniformly staggered.
    pub fn with_phase_jitter(
        region: SquareRegion,
        n: usize,
        speed: f64,
        epoch: f64,
        rng: &mut Rng,
    ) -> Self {
        Self::build(region, n, speed, epoch, rng, true)
    }

    /// Creates `n` nodes whose speeds are drawn uniformly from
    /// `[v_min, v_max]` once at start — a heterogeneous fleet (pedestrians
    /// among vehicles), the setting where mobility-aware head election
    /// (MobDHop/MOBIC style) differs from identity-based election.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ v_min ≤ v_max` (finite) and `epoch > 0`.
    pub fn with_speed_range(
        region: SquareRegion,
        n: usize,
        v_min: f64,
        v_max: f64,
        epoch: f64,
        rng: &mut Rng,
    ) -> Self {
        assert!(
            v_min >= 0.0 && v_min <= v_max && v_max.is_finite(),
            "need 0 <= v_min <= v_max (finite)"
        );
        let mut model = Self::build(region, n, (v_min + v_max) / 2.0, epoch, rng, false);
        model.speeds = (0..n)
            .map(|_| {
                if v_min == v_max {
                    v_min
                } else {
                    rng.f64_range(v_min..v_max)
                }
            })
            .collect();
        model
    }

    fn build(
        region: SquareRegion,
        n: usize,
        speed: f64,
        epoch: f64,
        rng: &mut Rng,
        jitter: bool,
    ) -> Self {
        assert!(
            speed >= 0.0 && speed.is_finite(),
            "speed must be non-negative and finite"
        );
        assert!(
            epoch > 0.0 && epoch.is_finite(),
            "epoch must be positive and finite"
        );
        let positions = crate::uniform_placement(region, n, rng);
        let directions = (0..n).map(|_| Vec2::from_angle(rng.angle())).collect();
        let time_left = (0..n)
            .map(|_| {
                if jitter {
                    rng.f64_range(0.0..epoch)
                } else {
                    epoch
                }
            })
            .collect();
        EpochRandomDirection {
            region,
            speed,
            epoch,
            positions,
            directions,
            speeds: vec![speed; n],
            time_left,
        }
    }

    /// The common (or mean, for heterogeneous fleets) node speed `v`.
    pub fn speed(&self) -> f64 {
        self.speed
    }

    /// Per-node speeds.
    pub fn speeds(&self) -> &[f64] {
        &self.speeds
    }

    /// The epoch length `τ` between direction redraws.
    pub fn epoch(&self) -> f64 {
        self.epoch
    }

    /// Current unit direction vectors.
    pub fn directions(&self) -> &[Vec2] {
        &self.directions
    }
}

impl Mobility for EpochRandomDirection {
    fn len(&self) -> usize {
        self.positions.len()
    }

    fn positions(&self) -> &[Vec2] {
        &self.positions
    }

    fn region(&self) -> SquareRegion {
        self.region
    }

    fn step(&mut self, dt: f64, rng: &mut Rng) {
        debug_assert!(dt >= 0.0);
        for i in 0..self.positions.len() {
            // A step may span several epoch boundaries; walk them in order so
            // the trajectory is independent of the tick size.
            let mut remaining = dt;
            while remaining > 0.0 {
                let leg = remaining.min(self.time_left[i]);
                let vel = self.directions[i] * self.speeds[i];
                let (np, _) =
                    self.region
                        .advance(self.positions[i], vel, leg, BoundaryPolicy::Torus);
                self.positions[i] = np;
                self.time_left[i] -= leg;
                remaining -= leg;
                if self.time_left[i] <= 0.0 {
                    self.directions[i] = Vec2::from_angle(rng.angle());
                    self.time_left[i] = self.epoch;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{assert_constant_speed, assert_near_uniform};

    #[test]
    fn constant_speed_within_an_epoch() {
        let mut rng = Rng::seed_from_u64(10);
        let mut erd =
            EpochRandomDirection::new(SquareRegion::new(200.0), 30, 4.0, 1000.0, &mut rng);
        for _ in 0..5 {
            assert_constant_speed(&mut erd, &mut rng, 4.0, 0.5);
        }
    }

    #[test]
    fn directions_redraw_exactly_at_epochs() {
        let mut rng = Rng::seed_from_u64(11);
        let mut erd = EpochRandomDirection::new(SquareRegion::new(200.0), 8, 1.0, 5.0, &mut rng);
        let d0 = erd.directions().to_vec();
        erd.step(4.9, &mut rng);
        assert_eq!(
            erd.directions(),
            d0.as_slice(),
            "no redraw before the epoch"
        );
        erd.step(0.2, &mut rng);
        // All nodes redraw at the synchronized boundary; a uniform redraw
        // matching the old direction has probability ~0.
        assert!(erd.directions().iter().zip(&d0).all(|(a, b)| a != b));
    }

    #[test]
    fn trajectory_is_tick_size_invariant() {
        let region = SquareRegion::new(100.0);
        let make = || {
            let mut rng = Rng::seed_from_u64(12);
            let erd = EpochRandomDirection::new(region, 10, 3.0, 7.0, &mut rng);
            (erd, rng)
        };
        // Walk 21 seconds in coarse vs fine ticks. Direction redraws consume
        // RNG in the same per-node order because steps never reorder nodes.
        let (mut coarse, mut rng_a) = make();
        for _ in 0..3 {
            coarse.step(7.0, &mut rng_a);
        }
        let (mut fine, mut rng_b) = make();
        for _ in 0..84 {
            fine.step(0.25, &mut rng_b);
        }
        for (a, b) in coarse.positions().iter().zip(fine.positions()) {
            assert!(a.distance(*b) < 1e-6, "coarse {a} vs fine {b}");
        }
    }

    #[test]
    fn preserves_uniform_distribution() {
        let mut rng = Rng::seed_from_u64(13);
        let mut erd =
            EpochRandomDirection::new(SquareRegion::new(100.0), 4000, 5.0, 10.0, &mut rng);
        for _ in 0..100 {
            erd.step(1.0, &mut rng);
        }
        assert_near_uniform(erd.positions(), 100.0, 4, 0.25);
    }

    #[test]
    fn phase_jitter_desynchronizes_redraws() {
        let mut rng = Rng::seed_from_u64(14);
        let mut erd = EpochRandomDirection::with_phase_jitter(
            SquareRegion::new(100.0),
            64,
            2.0,
            10.0,
            &mut rng,
        );
        let d0 = erd.directions().to_vec();
        erd.step(5.0, &mut rng);
        let changed = erd
            .directions()
            .iter()
            .zip(&d0)
            .filter(|(a, b)| a != b)
            .count();
        // About half of the staggered nodes should have hit a boundary.
        assert!((10..=54).contains(&changed), "changed = {changed}");
    }

    #[test]
    fn accessors() {
        let mut rng = Rng::seed_from_u64(15);
        let erd = EpochRandomDirection::new(SquareRegion::new(10.0), 3, 1.5, 2.5, &mut rng);
        assert_eq!(erd.speed(), 1.5);
        assert_eq!(erd.epoch(), 2.5);
        assert_eq!(erd.len(), 3);
    }
}

#[cfg(test)]
mod hetero_tests {
    use super::*;
    use manet_geom::Metric;

    #[test]
    fn heterogeneous_speeds_are_respected_per_node() {
        let mut rng = Rng::seed_from_u64(70);
        let region = SquareRegion::new(500.0);
        let mut erd = EpochRandomDirection::with_speed_range(region, 40, 1.0, 20.0, 50.0, &mut rng);
        let speeds = erd.speeds().to_vec();
        assert!(speeds.iter().all(|&v| (1.0..20.0).contains(&v)));
        assert!(speeds.iter().any(|&v| v < 5.0) && speeds.iter().any(|&v| v > 15.0));
        let before = erd.positions().to_vec();
        erd.step(2.0, &mut rng);
        let metric = Metric::toroidal(500.0);
        for (i, (a, b)) in before.iter().zip(erd.positions()).enumerate() {
            let moved = metric.distance(*a, *b);
            assert!((moved - speeds[i] * 2.0).abs() < 1e-9, "node {i}");
        }
    }

    #[test]
    fn equal_bounds_collapse_to_common_speed() {
        let mut rng = Rng::seed_from_u64(71);
        let region = SquareRegion::new(100.0);
        let erd = EpochRandomDirection::with_speed_range(region, 5, 3.0, 3.0, 10.0, &mut rng);
        assert!(erd.speeds().iter().all(|&v| v == 3.0));
    }

    #[test]
    #[should_panic(expected = "v_min")]
    fn reversed_speed_bounds_panic() {
        let mut rng = Rng::seed_from_u64(72);
        EpochRandomDirection::with_speed_range(SquareRegion::new(10.0), 2, 5.0, 1.0, 1.0, &mut rng);
    }
}
