//! [`ShardedStack`]: the canonical protocol stack ticked over a shard
//! plane.
//!
//! A thin pairing of a [`ProtocolStack`] and a [`ShardPlane`]: every tick
//! runs the same canonical stage order
//! (Mobility → Topology → HELLO → Cluster → Route → Telemetry), with the
//! plane as the stage bundle (`StackStages`). The plane rebuilds the
//! topology with ghost margins on its worker pool; mobility, HELLO,
//! Cluster and Route take the sequential trait defaults. The stack
//! inherits the monolithic stack's counters, reports, and traces
//! bit-for-bit — the golden-parity tests in the workspace root pin this.

use crate::interconnect::InterconnectConfig;
use crate::plane::{ShardPlane, ShardReport};
use manet_geom::{ShardDims, ShardLayout, ShardLayoutError};
use manet_sim::{FaultError, HelloProtocol, StepCtx, World};
use manet_stack::{ClusterLayer, ProtocolStack, RouteLayer, StackReport};
use manet_telemetry::ShardSnapshot;
use std::ops::{Deref, DerefMut};

/// A [`ProtocolStack`] ticked with a [`ShardPlane`] as its stage bundle.
///
/// Dereferences to the inner [`ProtocolStack`] for everything except
/// `tick`/`run`, which are shadowed to route through the plane. Calling
/// the inner stack's own `tick` (through `DerefMut`) is harmless — it
/// produces the identical result on the monolithic path — but wastes the
/// sharding.
pub struct ShardedStack<C, R> {
    stack: ProtocolStack<C, R>,
    plane: ShardPlane,
}

impl<C: ClusterLayer, R: RouteLayer> ShardedStack<C, R> {
    /// Wraps an assembled stack with a shard plane of `dims`.
    ///
    /// # Errors
    ///
    /// Fails when the layout is too fine for the world's radio radius
    /// (see [`ShardPlane::new`]).
    pub fn new(stack: ProtocolStack<C, R>, dims: ShardDims) -> Result<Self, ShardLayoutError> {
        let plane = ShardPlane::for_world(stack.world(), dims)?;
        Ok(ShardedStack { stack, plane })
    }

    /// The sharded ideal stack (see [`ProtocolStack::ideal`]).
    pub fn ideal(
        world: World,
        cluster: C,
        route: R,
        dims: ShardDims,
    ) -> Result<Self, ShardLayoutError> {
        ShardedStack::new(ProtocolStack::ideal(world, cluster, route), dims)
    }

    /// The sharded fault-plane stack (see [`ProtocolStack::faulty`]).
    pub fn faulty(
        world: World,
        cluster: C,
        route: R,
        hello: HelloProtocol,
        dims: ShardDims,
    ) -> Result<Self, ShardLayoutError> {
        ShardedStack::new(ProtocolStack::faulty(world, cluster, route, hello), dims)
    }

    /// Caps the shard worker pool (see [`ShardPlane::with_workers`]).
    #[must_use]
    pub fn with_workers(mut self, n: usize) -> Self {
        self.plane = self.plane.with_workers(n);
        self
    }

    /// Replaces the plane's interconnect (see
    /// [`ShardPlane::with_interconnect`]).
    ///
    /// # Errors
    ///
    /// Fails when the config's loss model or stall schedule is invalid
    /// for this layout.
    pub fn with_interconnect(mut self, config: InterconnectConfig) -> Result<Self, FaultError> {
        self.plane = self.plane.with_interconnect(config)?;
        Ok(self)
    }

    /// A point-in-time shard + link-health view for the Prometheus
    /// exporter (see [`ShardPlane::snapshot`]).
    pub fn shard_snapshot(&self) -> ShardSnapshot {
        self.plane.snapshot()
    }

    /// Advances the stack by one tick with the shard plane as the stage
    /// bundle: the topology is rebuilt shard-locally, every other stage
    /// runs its sequential default.
    pub fn tick(&mut self, ctx: &mut StepCtx<'_, '_>) -> StackReport {
        self.stack.tick_staged(ctx, &mut self.plane)
    }

    /// Runs whole ticks until at least `seconds` more simulated time has
    /// elapsed, returning the aggregated report.
    pub fn run(&mut self, seconds: f64, ctx: &mut StepCtx<'_, '_>) -> StackReport {
        self.stack.run_staged(seconds, ctx, &mut self.plane)
    }

    /// Advances only the world — mobility, topology, world-driven HELLO —
    /// on the plane for at least `seconds`, leaving the protocol layers
    /// untouched: a warmup that lets the geometry settle before the layers
    /// run.
    pub fn run_world_for(&mut self, seconds: f64, ctx: &mut StepCtx<'_, '_>) {
        self.stack
            .world_mut()
            .run_for_staged(seconds, ctx, &mut self.plane);
    }

    /// The shard plane.
    pub fn plane(&self) -> &ShardPlane {
        &self.plane
    }

    /// The shard layout geometry.
    pub fn layout(&self) -> &ShardLayout {
        self.plane.layout()
    }

    /// Aggregated shard statistics for the most recent tick.
    pub fn shard_report(&self) -> ShardReport {
        self.plane.report()
    }

    /// The inner monolithic stack.
    pub fn stack(&self) -> &ProtocolStack<C, R> {
        &self.stack
    }

    /// Decomposes into the inner stack and the plane.
    pub fn into_parts(self) -> (ProtocolStack<C, R>, ShardPlane) {
        (self.stack, self.plane)
    }
}

impl<C, R> Deref for ShardedStack<C, R> {
    type Target = ProtocolStack<C, R>;
    fn deref(&self) -> &Self::Target {
        &self.stack
    }
}

impl<C, R> DerefMut for ShardedStack<C, R> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.stack
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_cluster::{Backoff, Clustering, LowestId, SelfHealing};
    use manet_geom::ShardDims;
    use manet_routing::intra::IntraClusterRouting;
    use manet_sim::{
        ChurnSchedule, FaultPlan, HelloMode, LossModel, MobilityKind, QuietCtx, SimBuilder,
    };

    const NODES: usize = 120;

    /// A 120-node world under `mobility`; `faulty` adds 10% Bernoulli loss
    /// and crash/recover churn at 0.004 crashes/node/s.
    fn world(seed: u64, mobility: MobilityKind, faulty: bool) -> World {
        let builder = SimBuilder::new()
            .nodes(NODES)
            .side(500.0)
            .radius(80.0)
            .speed(10.0)
            .mobility(mobility)
            .dt(0.5)
            .seed(seed);
        if !faulty {
            return builder.hello_mode(HelloMode::EventDriven).build();
        }
        let churn = ChurnSchedule::poisson(NODES, 0.004, 10.0, 40.0, seed).unwrap();
        let plan = FaultPlan {
            loss: LossModel::Bernoulli { p: 0.1 },
            churn,
            seed,
        };
        builder
            .hello_mode(HelloMode::Disabled)
            .fault(plan.validated().unwrap())
            .build()
    }

    fn ideal(w: World) -> ProtocolStack<Clustering<LowestId>, IntraClusterRouting> {
        let c = Clustering::form(LowestId, w.topology());
        ProtocolStack::ideal(w, c, IntraClusterRouting::new())
    }

    fn faulty(w: World) -> ProtocolStack<SelfHealing<LowestId>, IntraClusterRouting> {
        let healer = SelfHealing::new(
            Clustering::form(LowestId, w.topology()),
            Backoff::default(),
            8,
        );
        let hello = HelloProtocol::new(NODES, 1.0, 3.0);
        ProtocolStack::faulty(w, healer, IntraClusterRouting::new(), hello)
    }

    /// Ticks `mono` (`ProtocolStack::tick`) and `sharded` side by side,
    /// requiring equal reports every tick and equal end states.
    fn assert_lockstep<C: ClusterLayer, R: RouteLayer>(
        mut mono: ProtocolStack<C, R>,
        mut sharded: ShardedStack<C, R>,
        what: &str,
    ) {
        let mut qa = QuietCtx::new();
        let mut qb = QuietCtx::new();
        mono.prime(&mut qa.ctx());
        sharded.prime(&mut qb.ctx());
        for tick in 0..60 {
            let a = mono.tick(&mut qa.ctx());
            let b = sharded.tick(&mut qb.ctx());
            assert_eq!(a, b, "{what}: tick {tick} diverged");
        }
        assert_eq!(
            mono.world().counters(),
            sharded.world().counters(),
            "{what}"
        );
        assert_eq!(
            mono.world().positions(),
            sharded.world().positions(),
            "{what}"
        );
    }

    /// The sharded stack's reports equal the monolithic stack's, tick by
    /// tick, for the ideal and the faulty stack at every layout — on the
    /// paper's torus and on the bounded (Euclidean) worlds of random
    /// waypoint and random walk.
    #[test]
    fn sharded_reports_match_monolithic() {
        for mobility in [
            MobilityKind::EpochRandomDirection { epoch: 20.0 },
            MobilityKind::RandomWaypoint { pause: 0.0 },
            MobilityKind::RandomWalk {
                min_leg: 5.0,
                max_leg: 25.0,
            },
        ] {
            for dims in ["1x1", "2x2", "4x1", "4x2"] {
                let dims = ShardDims::parse(dims).unwrap();
                let what = format!("{mobility:?} {dims}");
                let sharded = ShardedStack::new(ideal(world(42, mobility, false)), dims).unwrap();
                let mono = ideal(world(42, mobility, false));
                assert_lockstep(mono, sharded, &format!("ideal {what}"));
                let sharded = ShardedStack::new(faulty(world(42, mobility, true)), dims).unwrap();
                let mono = faulty(world(42, mobility, true));
                assert_lockstep(mono, sharded, &format!("faulty {what}"));
            }
        }
    }

    /// Deref exposes the inner stack's accessors; the shard report sees
    /// the plane.
    #[test]
    fn accessors_reach_both_halves() {
        let w = world(7, MobilityKind::EpochRandomDirection { epoch: 20.0 }, false);
        let c = Clustering::form(LowestId, w.topology());
        let dims = ShardDims::parse("2x2").unwrap();
        let mut s = ShardedStack::ideal(w, c, IntraClusterRouting::new(), dims)
            .unwrap()
            .with_workers(1);
        let mut q = QuietCtx::new();
        s.prime(&mut q.ctx());
        s.tick(&mut q.ctx());
        assert_eq!(s.layout().count(), 4);
        assert_eq!(s.shard_report().shards, 4);
        assert!(s.world().time() > 0.0); // via Deref
        assert_eq!(s.plane().workers(), 1);
        let (stack, plane) = s.into_parts();
        assert!(stack.world().time() > 0.0);
        assert_eq!(plane.layout().count(), 4);
    }

    /// A world-only warmup on the plane advances exactly like
    /// `World::run_for` and leaves the layers untouched.
    #[test]
    fn world_warmup_matches_the_monolithic_world() {
        let mobility = MobilityKind::EpochRandomDirection { epoch: 20.0 };
        let mut mono = world(3, mobility, false);
        let mut sharded =
            ShardedStack::new(ideal(world(3, mobility, false)), ShardDims::unit()).unwrap();
        let heads = sharded.cluster().head_count();
        let mut q = QuietCtx::new();
        mono.run_for(20.0, &mut q.ctx());
        sharded.run_world_for(20.0, &mut q.ctx());
        assert_eq!(mono.time(), sharded.world().time());
        assert_eq!(mono.topology(), sharded.world().topology());
        assert_eq!(mono.counters(), sharded.world().counters());
        assert_eq!(sharded.cluster().head_count(), heads);
    }

    /// The default worker pool is one thread per shard up to the host
    /// parallelism, so a single-shard plane runs inline.
    #[test]
    fn default_workers_follow_the_layout() {
        let w = world(5, MobilityKind::EpochRandomDirection { epoch: 20.0 }, false);
        let unit = ShardedStack::new(ideal(w), ShardDims::unit()).unwrap();
        assert_eq!(unit.plane().workers(), 1);
        let w = world(5, MobilityKind::EpochRandomDirection { epoch: 20.0 }, false);
        let quad = ShardedStack::new(ideal(w), ShardDims::parse("2x2").unwrap()).unwrap();
        assert_eq!(quad.plane().workers(), crate::plane::default_workers(4));
        assert!((1..=4).contains(&quad.plane().workers()));
    }

    /// A layout too fine for the radius is a construction-time error.
    #[test]
    fn oversharded_world_is_rejected() {
        let w = world(1, MobilityKind::EpochRandomDirection { epoch: 20.0 }, false);
        let c = Clustering::form(LowestId, w.topology());
        let dims = ShardDims::parse("16x16").unwrap();
        assert!(ShardedStack::ideal(w, c, IntraClusterRouting::new(), dims).is_err());
    }
}
