//! Mobility models for mobile ad hoc network simulation.
//!
//! The paper's analysis rests on the **Constant Velocity (CV)** model
//! (Cho & Hayes) and its bounded variant **BCV**; its simulations use a
//! special **epoch-based random-direction** model on a wrap-around square,
//! chosen because it preserves CV's two analysis-friendly properties:
//! uniform node spatial distribution and a tractable link-change rate.
//! Classic **Random Waypoint** and **Random Walk** are included so the
//! paper's claim that they are analysis-hostile (center-biased stationary
//! distribution, intractable link dynamics) can be demonstrated empirically
//! (`mobility_sensitivity` experiment).
//!
//! All models implement [`Mobility`]; the simulator drives them through
//! trait objects.
//!
//! # Example
//!
//! ```
//! use manet_mobility::{EpochRandomDirection, Mobility};
//! use manet_geom::SquareRegion;
//! use manet_util::Rng;
//!
//! let mut rng = Rng::seed_from_u64(1);
//! let mut model = EpochRandomDirection::new(SquareRegion::new(1000.0), 50, 10.0, 20.0, &mut rng);
//! model.step(0.25, &mut rng);
//! assert_eq!(model.positions().len(), 50);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cv;
mod erd;
pub mod rates;
mod rwp;
pub mod trace;
mod walk;

pub use cv::ConstantVelocity;
pub use erd::EpochRandomDirection;
pub use rwp::RandomWaypoint;
pub use trace::{RecordedTrace, TraceRecorder};
pub use walk::RandomWalk;

use manet_geom::{SquareRegion, Vec2};
use manet_util::Rng;

/// A mobility model owning the kinematic state of a fleet of nodes.
///
/// Implementations must keep every reported position inside
/// [`Mobility::region`] at all times.
pub trait Mobility {
    /// Number of nodes.
    fn len(&self) -> usize;

    /// Whether the model holds no nodes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current positions, all inside [`Mobility::region`].
    fn positions(&self) -> &[Vec2];

    /// The deployment region.
    fn region(&self) -> SquareRegion;

    /// Advances every node by `dt` seconds.
    fn step(&mut self, dt: f64, rng: &mut Rng);
}

/// Places `n` i.i.d. uniform points in `region` (the initial condition every
/// model in this crate uses).
pub fn uniform_placement(region: SquareRegion, n: usize, rng: &mut Rng) -> Vec<Vec2> {
    (0..n).map(|_| region.sample_uniform(rng)).collect()
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use manet_geom::Metric;

    /// Asserts that one `step(dt)` displaces every node by exactly
    /// `speed·dt` in torus distance (for constant-speed models on a torus).
    pub fn assert_constant_speed<M: Mobility>(model: &mut M, rng: &mut Rng, speed: f64, dt: f64) {
        let metric = Metric::toroidal(model.region().side());
        let before = model.positions().to_vec();
        model.step(dt, rng);
        for (a, b) in before.iter().zip(model.positions()) {
            let moved = metric.distance(*a, *b);
            assert!(
                (moved - speed * dt).abs() < 1e-9,
                "node moved {moved}, expected {}",
                speed * dt
            );
        }
    }

    /// Chi-square-ish uniformity check: occupancy of a k×k partition after
    /// many steps should be near-uniform.
    pub fn assert_near_uniform(positions: &[Vec2], side: f64, k: usize, tolerance: f64) {
        let mut counts = vec![0usize; k * k];
        for p in positions {
            let cx = ((p.x / side * k as f64) as usize).min(k - 1);
            let cy = ((p.y / side * k as f64) as usize).min(k - 1);
            counts[cy * k + cx] += 1;
        }
        let expected = positions.len() as f64 / (k * k) as f64;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expected).abs() <= tolerance * expected,
                "cell {i}: {c} vs expected {expected}"
            );
        }
    }
}
