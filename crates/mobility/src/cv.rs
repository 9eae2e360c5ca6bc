//! The Constant Velocity model on a torus.

use crate::Mobility;
use manet_geom::{BoundaryPolicy, SquareRegion, Vec2};
use manet_util::Rng;

/// Constant Velocity (CV) mobility (Cho & Hayes), realized on a torus.
///
/// Every node picks one direction uniformly at random at `t = 0` and moves
/// in it forever at the common speed `v`. On the wrap-around square this is
/// exactly the dynamics the paper's analysis assumes: uniform stationary
/// spatial distribution and per-node link generation/break rates of
/// `8ρrv/π` each (with the toroidal metric, i.e. no border effect).
///
/// # Example
///
/// ```
/// use manet_mobility::{ConstantVelocity, Mobility};
/// use manet_geom::SquareRegion;
/// use manet_util::Rng;
///
/// let mut rng = Rng::seed_from_u64(3);
/// let mut cv = ConstantVelocity::new(SquareRegion::new(100.0), 10, 5.0, &mut rng);
/// cv.step(1.0, &mut rng);
/// assert!(cv.positions().iter().all(|&p| cv.region().contains(p)));
/// ```
#[derive(Debug, Clone)]
pub struct ConstantVelocity {
    region: SquareRegion,
    speed: f64,
    positions: Vec<Vec2>,
    velocities: Vec<Vec2>,
}

impl ConstantVelocity {
    /// Creates `n` nodes at uniform positions with uniform directions.
    ///
    /// # Panics
    ///
    /// Panics if `speed` is negative or not finite.
    pub fn new(region: SquareRegion, n: usize, speed: f64, rng: &mut Rng) -> Self {
        assert!(
            speed >= 0.0 && speed.is_finite(),
            "speed must be non-negative and finite"
        );
        let positions = crate::uniform_placement(region, n, rng);
        let velocities = (0..n)
            .map(|_| Vec2::from_angle(rng.angle()) * speed)
            .collect();
        ConstantVelocity {
            region,
            speed,
            positions,
            velocities,
        }
    }

    /// The common node speed `v`.
    pub fn speed(&self) -> f64 {
        self.speed
    }

    /// Per-node velocity vectors.
    pub fn velocities(&self) -> &[Vec2] {
        &self.velocities
    }
}

impl Mobility for ConstantVelocity {
    fn len(&self) -> usize {
        self.positions.len()
    }

    fn positions(&self) -> &[Vec2] {
        &self.positions
    }

    fn region(&self) -> SquareRegion {
        self.region
    }

    fn step(&mut self, dt: f64, _rng: &mut Rng) {
        for (p, v) in self.positions.iter_mut().zip(&self.velocities) {
            let (np, _) = self.region.advance(*p, *v, dt, BoundaryPolicy::Torus);
            *p = np;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{assert_constant_speed, assert_near_uniform};

    #[test]
    fn moves_at_constant_speed() {
        let mut rng = Rng::seed_from_u64(1);
        let mut cv = ConstantVelocity::new(SquareRegion::new(100.0), 50, 7.0, &mut rng);
        for _ in 0..10 {
            assert_constant_speed(&mut cv, &mut rng, 7.0, 0.3);
        }
    }

    #[test]
    fn direction_never_changes() {
        let mut rng = Rng::seed_from_u64(2);
        let mut cv = ConstantVelocity::new(SquareRegion::new(100.0), 5, 3.0, &mut rng);
        let v0 = cv.velocities().to_vec();
        for _ in 0..100 {
            cv.step(0.5, &mut rng);
        }
        assert_eq!(cv.velocities(), v0.as_slice());
    }

    #[test]
    fn stationary_distribution_stays_uniform() {
        let mut rng = Rng::seed_from_u64(3);
        let mut cv = ConstantVelocity::new(SquareRegion::new(100.0), 4000, 5.0, &mut rng);
        for _ in 0..200 {
            cv.step(1.0, &mut rng);
        }
        assert_near_uniform(cv.positions(), 100.0, 4, 0.25);
    }

    #[test]
    fn zero_speed_is_static() {
        let mut rng = Rng::seed_from_u64(4);
        let mut cv = ConstantVelocity::new(SquareRegion::new(50.0), 10, 0.0, &mut rng);
        let before = cv.positions().to_vec();
        cv.step(10.0, &mut rng);
        assert_eq!(cv.positions(), before.as_slice());
        assert_eq!(cv.speed(), 0.0);
        assert_eq!(cv.len(), 10);
        assert!(!cv.is_empty());
    }
}
