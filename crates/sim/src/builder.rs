//! Fluent construction of simulation worlds.

use crate::counters::MessageSizes;
use crate::error::{positive, SimError};
use crate::fault::FaultPlan;
use crate::world::{HelloMode, World};
use manet_geom::{Metric, SquareRegion};
use manet_mobility::{
    ConstantVelocity, EpochRandomDirection, Mobility, RandomWalk, RandomWaypoint,
};
use manet_util::Rng;

/// Which mobility model the builder instantiates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MobilityKind {
    /// The paper's simulation model: epoch-based random direction on a
    /// wrap-around square (toroidal metric). Default.
    EpochRandomDirection {
        /// Seconds between synchronized direction redraws.
        epoch: f64,
    },
    /// Constant Velocity on a torus (toroidal metric).
    ConstantVelocity,
    /// Classic Random Waypoint in a bounded square (Euclidean metric).
    RandomWaypoint {
        /// Pause time on arrival, seconds.
        pause: f64,
    },
    /// Random Walk with reflecting borders (Euclidean metric).
    RandomWalk {
        /// Minimum leg duration, seconds.
        min_leg: f64,
        /// Maximum leg duration, seconds.
        max_leg: f64,
    },
}

/// Builder for [`World`] with the workspace's default experiment geometry.
///
/// Defaults (see DESIGN.md §5): side 1000 m, 400 nodes, range 150 m, speed
/// 10 m/s, epoch-random-direction mobility with τ = 20 s, tick 0.25 s,
/// event-driven HELLO, default message sizes, seed 1.
///
/// # Example
///
/// ```
/// use manet_sim::SimBuilder;
///
/// let world = SimBuilder::new().nodes(100).radius(120.0).seed(3).build();
/// assert_eq!(world.node_count(), 100);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimBuilder {
    side: f64,
    nodes: usize,
    radius: f64,
    speed: f64,
    dt: f64,
    seed: u64,
    mobility: MobilityKind,
    hello: HelloMode,
    fault: FaultPlan,
}

impl Default for SimBuilder {
    fn default() -> Self {
        SimBuilder {
            side: 1000.0,
            nodes: 400,
            radius: 150.0,
            speed: 10.0,
            dt: 0.25,
            seed: 1,
            mobility: MobilityKind::EpochRandomDirection { epoch: 20.0 },
            hello: HelloMode::EventDriven,
            fault: FaultPlan::ideal(),
        }
    }
}

impl SimBuilder {
    /// Starts from the default configuration.
    pub fn new() -> Self {
        SimBuilder::default()
    }

    /// Side length `a` of the square region, meters.
    pub fn side(mut self, side: f64) -> Self {
        self.side = side;
        self
    }

    /// Number of nodes `N`.
    pub fn nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes;
        self
    }

    /// Transmission range `r`, meters.
    pub fn radius(mut self, radius: f64) -> Self {
        self.radius = radius;
        self
    }

    /// Common node speed `v`, m/s.
    pub fn speed(mut self, speed: f64) -> Self {
        self.speed = speed;
        self
    }

    /// Tick length, seconds.
    pub fn dt(mut self, dt: f64) -> Self {
        self.dt = dt;
        self
    }

    /// RNG seed (controls placement, motion, and protocol tie-breaking).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Mobility model.
    pub fn mobility(mut self, kind: MobilityKind) -> Self {
        self.mobility = kind;
        self
    }

    /// HELLO emission mode.
    pub fn hello_mode(mut self, mode: HelloMode) -> Self {
        self.hello = mode;
        self
    }

    /// Fault plan: channel loss model plus node churn schedule. The default
    /// [`FaultPlan::ideal`] reproduces the paper's lossless, immortal-node
    /// setting exactly.
    pub fn fault(mut self, fault: FaultPlan) -> Self {
        self.fault = fault;
        self
    }

    /// Node density `N/a²` implied by the current configuration.
    pub fn density(&self) -> f64 {
        self.nodes as f64 / (self.side * self.side)
    }

    /// Builds the world.
    ///
    /// The distance metric is chosen to match the mobility model's boundary
    /// behavior: toroidal for wrap-around models, Euclidean for bounded
    /// ones.
    ///
    /// # Panics
    ///
    /// Panics on invalid geometry (non-positive side/radius/dt, or a
    /// transmission range that is not below the region side, which the
    /// paper's model requires: `r < a`). Use [`SimBuilder::try_build`] for
    /// a typed error instead.
    pub fn build(self) -> World {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds the world, returning a typed [`SimError`] on invalid
    /// geometry, timing, or fault-plan parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NonPositive`] for non-positive side/radius/dt,
    /// [`SimError::RadiusExceedsSide`] unless `r < a`, and
    /// [`SimError::Fault`] for an invalid fault plan.
    pub fn try_build(self) -> Result<World, SimError> {
        positive("side", self.side)?;
        positive("radius", self.radius)?;
        positive("dt", self.dt)?;
        if self.radius >= self.side {
            return Err(SimError::RadiusExceedsSide {
                radius: self.radius,
                side: self.side,
            });
        }
        let region = SquareRegion::new(self.side);
        // Distinct, deterministic streams for placement/motion vs the world.
        let mut placement_rng = Rng::seed_from_u64(self.seed.wrapping_mul(0x9E37_79B9));
        let (mobility, metric): (Box<dyn Mobility>, Metric) = match self.mobility {
            MobilityKind::EpochRandomDirection { epoch } => (
                Box::new(EpochRandomDirection::new(
                    region,
                    self.nodes,
                    self.speed,
                    epoch,
                    &mut placement_rng,
                )),
                Metric::toroidal(self.side),
            ),
            MobilityKind::ConstantVelocity => (
                Box::new(ConstantVelocity::new(
                    region,
                    self.nodes,
                    self.speed,
                    &mut placement_rng,
                )),
                Metric::toroidal(self.side),
            ),
            MobilityKind::RandomWaypoint { pause } => (
                Box::new(RandomWaypoint::new(
                    region,
                    self.nodes,
                    self.speed.max(f64::MIN_POSITIVE),
                    self.speed.max(f64::MIN_POSITIVE),
                    pause,
                    &mut placement_rng,
                )),
                Metric::Euclidean,
            ),
            MobilityKind::RandomWalk { min_leg, max_leg } => (
                Box::new(RandomWalk::new(
                    region,
                    self.nodes,
                    self.speed,
                    min_leg,
                    max_leg,
                    &mut placement_rng,
                )),
                Metric::Euclidean,
            ),
        };
        World::try_new(
            mobility,
            self.radius,
            self.dt,
            metric,
            self.hello,
            MessageSizes::default(),
            self.seed,
            self.fault,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_build_a_world() {
        let w = SimBuilder::new().nodes(50).build();
        assert_eq!(w.node_count(), 50);
        assert_eq!(w.radius(), 150.0);
        assert_eq!(w.dt(), 0.25);
        assert_eq!(w.region().side(), 1000.0);
        assert_eq!(w.metric(), Metric::toroidal(1000.0));
    }

    #[test]
    fn density_helper() {
        let b = SimBuilder::new().side(100.0).nodes(400);
        assert!((b.density() - 0.04).abs() < 1e-12);
    }

    #[test]
    fn bounded_models_get_euclidean_metric() {
        let w = SimBuilder::new()
            .nodes(10)
            .mobility(MobilityKind::RandomWaypoint { pause: 1.0 })
            .build();
        assert_eq!(w.metric(), Metric::Euclidean);
        let w = SimBuilder::new()
            .nodes(10)
            .mobility(MobilityKind::RandomWalk {
                min_leg: 1.0,
                max_leg: 2.0,
            })
            .build();
        assert_eq!(w.metric(), Metric::Euclidean);
    }

    #[test]
    fn same_seed_same_world() {
        let make = || {
            let mut w = SimBuilder::new().nodes(40).seed(77).build();
            let mut q = crate::QuietCtx::new();
            w.run_for(5.0, &mut q.ctx());
            w.positions().to_vec()
        };
        assert_eq!(make(), make());
    }

    #[test]
    #[should_panic(expected = "r < a")]
    fn radius_at_least_side_panics() {
        SimBuilder::new().side(100.0).radius(100.0).build();
    }

    #[test]
    fn try_build_returns_typed_errors() {
        use crate::SimError;
        let err = SimBuilder::new()
            .side(100.0)
            .radius(100.0)
            .try_build()
            .unwrap_err();
        assert_eq!(
            err,
            SimError::RadiusExceedsSide {
                radius: 100.0,
                side: 100.0
            }
        );
        assert!(SimBuilder::new().side(0.0).try_build().is_err());
        assert!(SimBuilder::new().dt(-1.0).try_build().is_err());
        let err = SimBuilder::new()
            .fault(crate::FaultPlan {
                loss: crate::LossModel::Bernoulli { p: 2.0 },
                churn: Default::default(),
                seed: 0,
            })
            .try_build()
            .unwrap_err();
        assert!(matches!(err, SimError::Fault(_)));
    }

    #[test]
    fn ideal_fault_plan_is_counter_identical_to_baseline() {
        use crate::{FaultPlan, MessageKind};
        let trace = |with_plan: bool| {
            let mut b = SimBuilder::new().nodes(80).seed(21);
            if with_plan {
                b = b.fault(FaultPlan::ideal());
            }
            let mut w = b.build();
            let mut q = crate::QuietCtx::new();
            w.run_for(20.0, &mut q.ctx());
            let c = w.counters().clone();
            (
                c.messages(MessageKind::Hello),
                c.links_generated(),
                c.links_broken(),
                w.positions().to_vec(),
            )
        };
        assert_eq!(trace(false), trace(true));
    }
}
