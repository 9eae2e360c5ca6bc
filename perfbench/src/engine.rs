//! The one place the benchmark names the stack's stage bundles
//! (`MonoStages`, `ShardPlane`) and `ProtocolStack::tick_staged`, so a
//! rename of those touches only this file.
//!
//! [`Traced`] implements the five stage traits by forwarding to a real
//! bundle, recording around each call a span (stage, start, end, parent
//! tick) and the allocations made while it was open.

use crate::alloc;
use manet_cluster::{ClusterAssignment, Clustering, LowestId};
use manet_geom::{Metric, ShardDims, SpatialGrid, SquareRegion, Vec2};
use manet_mobility::Mobility;
use manet_routing::intra::{IntraClusterRouting, RouteUpdateOutcome};
use manet_shard::{ShardPlane, ShardReport};
use manet_sim::{Channel, HelloProtocol, MobilityStage, StepCtx, Topology, TopologyBuilder, World};
use manet_stack::{
    ClusterFlow, ClusterLayer, ClusterStage, HelloStage, MonoStages, ProtocolStack, RouteLayer,
    RouteStage, StackReport, StackStages,
};
use manet_telemetry::Probe;
use manet_util::Rng;
use std::time::Instant;

/// The stack every simulation workload runs: LID clustering plus
/// intra-cluster routing.
pub type Stack = ProtocolStack<Clustering<LowestId>, IntraClusterRouting>;

/// A span's layer: the whole tick, or one delegated stage of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    Tick,
    Mobility,
    Topology,
    Hello,
    Cluster,
    Route,
}

impl Stage {
    /// The delegated stages, children of a tick span.
    pub const CHILDREN: [Stage; 5] = [
        Stage::Mobility,
        Stage::Topology,
        Stage::Hello,
        Stage::Cluster,
        Stage::Route,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Stage::Tick => "tick",
            Stage::Mobility => "mobility",
            Stage::Topology => "topology",
            Stage::Hello => "hello",
            Stage::Cluster => "cluster",
            Stage::Route => "route",
        }
    }
}

/// One recorded span: `tick` is the parent tick's index.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub tick: u32,
    pub stage: Stage,
    pub start_ns: u64,
    pub end_ns: u64,
    pub allocs: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// In-memory span store; written out once the run ends.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    tick: u32,
    pub spans: Vec<Span>,
}

impl Recorder {
    /// A recorder with room for `ticks` ticks, so recording never grows
    /// the store (and so never allocates) inside a span.
    pub fn with_ticks(ticks: usize) -> Recorder {
        Recorder {
            origin: Instant::now(),
            tick: 0,
            spans: Vec::with_capacity(ticks * (Stage::CHILDREN.len() + 1)),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    fn push(&mut self, stage: Stage, start: Instant, allocs_before: u64) {
        let allocs = alloc::count() - allocs_before;
        let end = Instant::now();
        self.spans.push(Span {
            tick: self.tick,
            stage,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            allocs,
        });
    }

    fn record<T>(&mut self, stage: Stage, call: impl FnOnce() -> T) -> T {
        let a0 = alloc::count();
        let t0 = Instant::now();
        let out = call();
        self.push(stage, t0, a0);
        out
    }
}

/// A stage bundle whose every call is recorded into a [`Recorder`].
struct Traced<'a, S> {
    inner: &'a mut S,
    rec: &'a mut Recorder,
}

impl<S: MobilityStage> MobilityStage for Traced<'_, S> {
    fn advance(&mut self, mobility: &mut dyn Mobility, dt: f64, rng: &mut Rng) {
        let inner = &mut *self.inner;
        self.rec
            .record(Stage::Mobility, || inner.advance(mobility, dt, rng))
    }
}

impl<S: TopologyBuilder> TopologyBuilder for Traced<'_, S> {
    fn build_into(
        &mut self,
        positions: &[Vec2],
        region: SquareRegion,
        radius: f64,
        metric: Metric,
        grid: &mut Option<SpatialGrid>,
        out: &mut Topology,
        probe: &mut Probe<'_>,
        now: f64,
    ) {
        let inner = &mut *self.inner;
        self.rec.record(Stage::Topology, || {
            inner.build_into(positions, region, radius, metric, grid, out, probe, now)
        })
    }
}

impl<S: HelloStage> HelloStage for Traced<'_, S> {
    fn hello(
        &mut self,
        proto: &mut HelloProtocol,
        topology: &Topology,
        channel: &mut Channel,
        alive: &[bool],
        ctx: &mut StepCtx<'_, '_>,
    ) -> (u64, u64) {
        let inner = &mut *self.inner;
        self.rec.record(Stage::Hello, || {
            inner.hello(proto, topology, channel, alive, ctx)
        })
    }
}

impl<S: ClusterStage> ClusterStage for Traced<'_, S> {
    fn cluster(
        &mut self,
        layer: &mut dyn ClusterLayer,
        topology: &Topology,
        alive: &[bool],
        channel: &mut Channel,
        ctx: &mut StepCtx<'_, '_>,
    ) -> ClusterFlow {
        let inner = &mut *self.inner;
        self.rec.record(Stage::Cluster, || {
            inner.cluster(layer, topology, alive, channel, ctx)
        })
    }
}

impl<S: RouteStage> RouteStage for Traced<'_, S> {
    fn route(
        &mut self,
        layer: &mut dyn RouteLayer,
        dt: f64,
        topology: &Topology,
        clusters: &dyn ClusterAssignment,
        channel: &mut Channel,
        ctx: &mut StepCtx<'_, '_>,
    ) -> RouteUpdateOutcome {
        let inner = &mut *self.inner;
        self.rec.record(Stage::Route, || {
            inner.route(layer, dt, topology, clusters, channel, ctx)
        })
    }
}

/// Ticks `stack` through `stages` with every stage call recorded, inside a
/// tick span.
fn tick_traced<S: StackStages>(
    stack: &mut Stack,
    ctx: &mut StepCtx<'_, '_>,
    stages: &mut S,
    rec: &mut Recorder,
) -> StackReport {
    let a0 = alloc::count();
    let t0 = Instant::now();
    let report = stack.tick_staged(ctx, &mut Traced { inner: stages, rec });
    rec.push(Stage::Tick, t0, a0);
    rec.tick += 1;
    report
}

/// The stage bundle a workload runs.
pub enum Stages {
    /// The default monolithic bundle of `ProtocolStack::tick`.
    Mono,
    /// The shard plane, as `ShardedStack` drives it.
    Plane(Box<ShardPlane>),
}

impl Stages {
    /// The shard plane at `dims` with a `workers`-thread pool, sized for
    /// `world`.
    pub fn plane(world: &World, dims: ShardDims, workers: usize) -> Result<Stages, String> {
        ShardPlane::for_world(world, dims)
            .map(|plane| Stages::Plane(Box::new(plane.with_workers(workers))))
            .map_err(|e| format!("shard layout {dims}: {e}"))
    }

    /// One untraced tick, the way users run this bundle.
    pub fn tick(&mut self, stack: &mut Stack, ctx: &mut StepCtx<'_, '_>) -> StackReport {
        match self {
            Stages::Mono => stack.tick(ctx),
            Stages::Plane(plane) => stack.tick_staged(ctx, &mut **plane),
        }
    }

    /// One traced tick through the same bundle.
    pub fn tick_traced(
        &mut self,
        stack: &mut Stack,
        ctx: &mut StepCtx<'_, '_>,
        rec: &mut Recorder,
    ) -> StackReport {
        match self {
            Stages::Mono => tick_traced(stack, ctx, &mut MonoStages::new(), rec),
            Stages::Plane(plane) => tick_traced(stack, ctx, &mut **plane, rec),
        }
    }

    /// The plane's statistics for the latest tick (`None` when monolithic).
    pub fn shard_report(&self) -> Option<ShardReport> {
        match self {
            Stages::Mono => None,
            Stages::Plane(plane) => Some(plane.report()),
        }
    }
}
