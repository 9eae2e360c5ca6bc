//! The HELLO/Cluster/Route stage traits of the canonical tick, plus the
//! monolithic default bundle.
//!
//! `ProtocolStack` owns the stage *order*; the [`StackStages`] bundle it
//! owns supplies each stage's *strategy* — the same split the
//! [`TopologyBuilder`] pattern established for the topology rebuild
//! (DESIGN.md §13, generalized in §17). Every default method delegates to
//! the layer's single entry point, so [`MonoStages`] is bit-identical to
//! the pre-stage stack by construction. The shard plane takes these same
//! defaults and overrides only the topology rebuild.

use crate::layer::{ClusterLayer, RouteLayer};
use manet_cluster::{ClusterAssignment, ClusterFlow};
use manet_routing::intra::RouteUpdateOutcome;
use manet_sim::{
    Channel, GridTopology, HelloProtocol, MobilityStage, StepCtx, Topology, TopologyBuilder,
};

/// The explicit-HELLO stage: how the beaconing protocol is advanced when a
/// `HelloDriver::Explicit` is attached (the `World` driver has no
/// stage-level work).
pub trait HelloStage {
    /// Advances `proto` one tick over `topology`, returning
    /// `(sent, lost)`.
    fn hello(
        &mut self,
        proto: &mut HelloProtocol,
        topology: &Topology,
        channel: &mut Channel,
        alive: &[bool],
        ctx: &mut StepCtx<'_, '_>,
    ) -> (u64, u64) {
        proto.step(topology, channel, alive, ctx) // stage-exempt: monolithic default
    }
}

/// The cluster-maintenance stage: how the cluster layer's pass is driven.
pub trait ClusterStage {
    /// Runs one maintenance pass of `layer`.
    fn cluster(
        &mut self,
        layer: &mut dyn ClusterLayer,
        topology: &Topology,
        alive: &[bool],
        channel: &mut Channel,
        ctx: &mut StepCtx<'_, '_>,
    ) -> ClusterFlow {
        layer.maintain(topology, alive, channel, ctx) // stage-exempt: monolithic default
    }
}

/// The route-update stage: how the routing layer's tick is driven.
pub trait RouteStage {
    /// Advances `layer` by one tick of length `dt`.
    #[allow(clippy::too_many_arguments)]
    fn route(
        &mut self,
        layer: &mut dyn RouteLayer,
        dt: f64,
        topology: &Topology,
        clusters: &dyn ClusterAssignment,
        channel: &mut Channel,
        ctx: &mut StepCtx<'_, '_>,
    ) -> RouteUpdateOutcome {
        layer.update(dt, topology, clusters, channel, ctx) // stage-exempt: monolithic default
    }
}

/// The full stage bundle a `ProtocolStack` owns (and
/// `ProtocolStack::tick_staged` takes): one object supplying every
/// delegated stage of the canonical tick —
/// Mobility → Topology → HELLO → Cluster → Route.
///
/// Blanket-implemented, so the shard plane and [`MonoStages`] (which
/// implement all five traits) qualify automatically.
pub trait StackStages:
    MobilityStage + TopologyBuilder + HelloStage + ClusterStage + RouteStage
{
}

impl<T: MobilityStage + TopologyBuilder + HelloStage + ClusterStage + RouteStage> StackStages
    for T
{
}

/// The monolithic stage bundle, and a `ProtocolStack`'s default:
/// sequential mobility, one global spatial grid, and direct delegation to
/// every layer's single entry point.
#[derive(Debug, Clone, Copy, Default)]
pub struct MonoStages(GridTopology);

impl MonoStages {
    /// The default monolithic bundle.
    pub fn new() -> Self {
        MonoStages::default()
    }
}

impl MobilityStage for MonoStages {}
impl HelloStage for MonoStages {}
impl ClusterStage for MonoStages {}
impl RouteStage for MonoStages {}

impl TopologyBuilder for MonoStages {
    fn build_into(
        &mut self,
        positions: &[manet_geom::Vec2],
        region: manet_geom::SquareRegion,
        radius: f64,
        metric: manet_geom::Metric,
        grid: &mut Option<manet_geom::SpatialGrid>,
        out: &mut Topology,
        probe: &mut manet_telemetry::Probe<'_>,
        now: f64,
    ) {
        self.0
            .build_into(positions, region, radius, metric, grid, out, probe, now)
    }
}
