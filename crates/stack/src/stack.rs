//! [`ProtocolStack`]: the one place the per-tick stage order lives.

use crate::layer::{ClusterLayer, RouteLayer};
use crate::report::StackReport;
use crate::stage::{MonoStages, StackStages};
use manet_sim::{
    Channel, HelloMode, HelloProtocol, LossModel, MessageKind, StepCtx, World, STREAM_CLUSTER,
    STREAM_HELLO, STREAM_ROUTE,
};
use manet_telemetry::{AuditSample, EventKind, Layer, MsgClass, Phase};

/// Who drives HELLO beaconing each tick.
pub enum HelloDriver {
    /// The world's built-in HELLO accounting (its `HelloMode`), already
    /// applied inside `World::step`. The stack adds nothing.
    World,
    /// An explicit [`HelloProtocol`] stepped by the stack right after the
    /// world tick, over its own channel (lossy HELLO with soft-state
    /// neighbor views). The world must run `HelloMode::Disabled`, so
    /// beacons are not double-counted ([`ProtocolStack::new`] checks it in
    /// debug builds).
    Explicit {
        /// The beaconing protocol.
        proto: HelloProtocol,
        /// The channel its deliveries are drawn on.
        channel: Channel,
    },
}

impl HelloDriver {
    /// An explicit driver over `channel`.
    pub fn explicit(proto: HelloProtocol, channel: Channel) -> Self {
        HelloDriver::Explicit { proto, channel }
    }

    /// The explicit protocol, when one is attached.
    pub fn proto(&self) -> Option<&HelloProtocol> {
        match self {
            HelloDriver::World => None,
            HelloDriver::Explicit { proto, .. } => Some(proto),
        }
    }
}

/// The staged protocol stack: a [`World`] plus pluggable cluster and
/// routing layers, advanced by the canonical tick
/// `Mobility → Topology → HELLO → Cluster → Route → Telemetry`.
///
/// Every tick:
///
/// 1. `World::step_staged(ctx, stages)` — mobility, churn, topology
///    diff, world-driven HELLO; sets `ctx.now` to the post-tick time.
/// 2. The explicit HELLO driver beacons (if attached), its attempted
///    sends recorded as `HELLO` in the shared counters.
/// 3. The cluster layer maintains (timed as the `Cluster` stage span),
///    its ordinary sends emitted as one batched `MsgSent` rollup.
/// 4. The routing layer updates (timed as the `Routing` stage span),
///    likewise rolled up.
/// 5. A `ClusterGauge` snapshot is emitted and the tick's CLUSTER /
///    RETX / REPAIR / ROUTE traffic is recorded into the counters.
///
/// The stack owns its stage bundle `S` ([`StackStages`]), which supplies
/// every delegated stage. [`ProtocolStack::new`], [`ProtocolStack::ideal`]
/// and [`ProtocolStack::faulty`] install the monolithic [`MonoStages`];
/// [`ProtocolStack::with_stages`] swaps in another bundle, such as a
/// shard plane.
///
/// The per-tick counter recording is equivalent to the accumulated
/// post-hoc recording the pre-stack harnesses did, because
/// `World::begin_measurement` resets the counters at the window start.
pub struct ProtocolStack<C, R, S = MonoStages> {
    parts: Parts<C, R>,
    stages: S,
}

/// The world and the layers: everything a tick drives, apart from the
/// bundle it drives them through, so a tick can borrow both.
struct Parts<C, R> {
    world: World,
    cluster: C,
    route: R,
    hello: HelloDriver,
    ch_cluster: Channel,
    ch_route: Channel,
}

impl<C: ClusterLayer, R: RouteLayer> ProtocolStack<C, R> {
    /// Assembles a stack from explicit parts, on the monolithic
    /// [`MonoStages`] bundle.
    ///
    /// In debug builds, panics when an explicit HELLO driver meets a world
    /// that counts its own HELLOs (any mode but `HelloMode::Disabled`).
    pub fn new(
        world: World,
        cluster: C,
        route: R,
        hello: HelloDriver,
        ch_cluster: Channel,
        ch_route: Channel,
    ) -> Self {
        debug_assert!(
            matches!(hello, HelloDriver::World) || world.hello_mode() == HelloMode::Disabled,
            "an explicit HELLO driver needs HelloMode::Disabled on the world"
        );
        ProtocolStack {
            parts: Parts {
                world,
                cluster,
                route,
                hello,
                ch_cluster,
                ch_route,
            },
            stages: MonoStages::new(),
        }
    }

    /// The ideal (loss-free) stack: world-driven HELLO, ideal CLUSTER and
    /// ROUTE channels that consume no randomness.
    pub fn ideal(world: World, cluster: C, route: R) -> Self {
        let ideal = || Channel::new(LossModel::Ideal, 0);
        ProtocolStack::new(world, cluster, route, HelloDriver::World, ideal(), ideal())
    }

    /// The fault-plane stack: an explicit lossy HELLO protocol plus
    /// CLUSTER and ROUTE channels forked from the world's [`FaultPlan`]
    /// on the conventional per-layer streams.
    ///
    /// [`FaultPlan`]: manet_sim::FaultPlan
    pub fn faulty(world: World, cluster: C, route: R, hello: HelloProtocol) -> Self {
        let ch_hello = world.fault().channel(STREAM_HELLO);
        let ch_cluster = world.fault().channel(STREAM_CLUSTER);
        let ch_route = world.fault().channel(STREAM_ROUTE);
        ProtocolStack::new(
            world,
            cluster,
            route,
            HelloDriver::explicit(hello, ch_hello),
            ch_cluster,
            ch_route,
        )
    }
}

impl<C: ClusterLayer, R: RouteLayer, S: StackStages> ProtocolStack<C, R, S> {
    /// This stack on `stages` instead of its current bundle: every later
    /// [`ProtocolStack::tick`], [`ProtocolStack::run`] and
    /// [`ProtocolStack::run_world_for`] goes through it.
    pub fn with_stages<T: StackStages>(self, stages: T) -> ProtocolStack<C, R, T> {
        ProtocolStack {
            parts: self.parts,
            stages,
        }
    }

    /// The stage bundle the stack ticks through.
    pub fn stages(&self) -> &S {
        &self.stages
    }

    /// Fills the routing layer's baseline from the current structure
    /// without charging any traffic (the first update of a fresh routing
    /// layer is the uncharged snapshot; it draws no channel randomness).
    pub fn prime(&mut self, ctx: &mut StepCtx<'_, '_>) {
        // The uncharged baseline fill happens outside the canonical
        // tick, so it does not go through a RouteStage (stage-exempt).
        self.parts.route.update(
            0.0,
            self.parts.world.topology(),
            self.parts.cluster.assignment(),
            &mut self.parts.ch_route,
            ctx,
        );
    }

    /// Advances the whole stack by one tick in the canonical stage order,
    /// through the stack's own bundle.
    pub fn tick(&mut self, ctx: &mut StepCtx<'_, '_>) -> StackReport {
        self.parts.tick(ctx, &mut self.stages)
    }

    /// [`ProtocolStack::tick`] through an explicit [`StackStages`] bundle
    /// instead of the stack's own — one that wraps it, say, to time each
    /// stage. The stage *order*, the counters, and the telemetry are the
    /// shared tick code, so any bundle whose stages produce the same
    /// layer outputs yields a bit-identical tick.
    pub fn tick_staged<T: StackStages>(
        &mut self,
        ctx: &mut StepCtx<'_, '_>,
        stages: &mut T,
    ) -> StackReport {
        self.parts.tick(ctx, stages)
    }

    /// Runs whole ticks until at least `seconds` more simulated time has
    /// elapsed, returning the aggregated report.
    pub fn run(&mut self, seconds: f64, ctx: &mut StepCtx<'_, '_>) -> StackReport {
        let mut agg = StackReport::default();
        let target = self.parts.world.time() + seconds;
        // Same float-drift tolerance as `World::run_for`.
        while self.parts.world.time() + self.parts.world.dt() * 0.5 < target {
            agg.absorb(self.tick(ctx));
        }
        agg
    }

    /// Advances only the world — mobility, topology, world-driven HELLO —
    /// through the stack's bundle for at least `seconds`, leaving the
    /// protocol layers untouched: a warmup that lets the geometry settle
    /// before the layers run.
    pub fn run_world_for(&mut self, seconds: f64, ctx: &mut StepCtx<'_, '_>) {
        self.parts
            .world
            .run_for_staged(seconds, ctx, &mut self.stages);
    }

    /// A post-maintenance structural invariant sample for the audit plane.
    pub fn audit_sample(&self, now: f64) -> AuditSample {
        let (world, cluster) = (&self.parts.world, &self.parts.cluster);
        let (pairs, headless) = cluster.audit_sample(world.topology());
        AuditSample {
            time: now,
            adjacent_head_pairs: pairs,
            headless_members: headless,
            repair_pending: 0,
        }
    }

    /// The simulated world.
    pub fn world(&self) -> &World {
        &self.parts.world
    }

    /// Mutable world access (measurement windows, counters).
    pub fn world_mut(&mut self) -> &mut World {
        &mut self.parts.world
    }

    /// The cluster layer.
    pub fn cluster(&self) -> &C {
        &self.parts.cluster
    }

    /// The explicit HELLO protocol, when one is attached.
    pub fn hello(&self) -> Option<&HelloProtocol> {
        self.parts.hello.proto()
    }

    /// Disjoint mutable access to the stages, for setup/drain phases that
    /// drive one layer outside the canonical tick.
    pub fn split_mut(&mut self) -> (&mut World, &mut C, &mut R) {
        (
            &mut self.parts.world,
            &mut self.parts.cluster,
            &mut self.parts.route,
        )
    }

    /// Decomposes the stack back into its parts (the bundle is dropped).
    pub fn into_parts(self) -> (World, C, R, HelloDriver) {
        let p = self.parts;
        (p.world, p.cluster, p.route, p.hello)
    }
}

impl<C: ClusterLayer, R: RouteLayer> Parts<C, R> {
    /// The canonical tick through `stages`.
    fn tick<S: StackStages>(&mut self, ctx: &mut StepCtx<'_, '_>, stages: &mut S) -> StackReport {
        // Root span of the tick hierarchy; every stage span below nests
        // inside it. Inert unless a span recorder is attached.
        let mut tick_span = ctx.tick_span();
        let ctx = &mut *tick_span;
        let step = self.world.step_staged(ctx, stages);
        let now = ctx.now;

        let (hello_sent, hello_lost) = match &mut self.hello {
            HelloDriver::World => (0, step.hello_lost as u64),
            HelloDriver::Explicit { proto, channel } => stages.hello(
                proto,
                self.world.topology(),
                channel,
                self.world.alive(),
                ctx,
            ),
        };
        if hello_sent > 0 {
            self.world
                .counters_mut()
                .record_kind(MessageKind::Hello, hello_sent);
        }

        let t0 = ctx.probe.phase_start();
        let flow = stages.cluster(
            &mut self.cluster,
            self.world.topology(),
            self.world.alive(),
            &mut self.ch_cluster,
            ctx,
        );
        ctx.probe.phase_end(Phase::Cluster, t0);
        let cluster_sent = flow.cluster_messages();
        if cluster_sent > 0 {
            ctx.probe.emit(
                now,
                Layer::Cluster,
                EventKind::MsgSent {
                    class: MsgClass::Cluster,
                    count: cluster_sent,
                },
            );
        }

        let t0 = ctx.probe.phase_start();
        let route = stages.route(
            &mut self.route,
            self.world.dt(),
            self.world.topology(),
            self.cluster.assignment(),
            &mut self.ch_route,
            ctx,
        );
        ctx.probe.phase_end(Phase::Routing, t0);
        let route_sent = route.attempted_messages();
        if route_sent > 0 {
            ctx.probe.emit(
                now,
                Layer::Routing,
                EventKind::MsgSent {
                    class: MsgClass::Route,
                    count: route_sent,
                },
            );
        }

        let heads = self.cluster.head_count() as u64;
        ctx.probe
            .emit(now, Layer::Cluster, EventKind::ClusterGauge { heads });

        flow.record(self.world.counters_mut());
        self.world
            .counters_mut()
            .record_kind(MessageKind::Route, route_sent);

        StackReport {
            time: step.time,
            generated: step.generated as u64,
            broken: step.broken as u64,
            crashed: step.crashed as u64,
            recovered: step.recovered as u64,
            hello_sent,
            hello_lost,
            cluster: flow,
            route,
            heads,
            head_ratio: match self.world.node_count() {
                0 => 0.0,
                n => heads as f64 / n as f64,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{NoClustering, NoRouting};
    use manet_cluster::{Backoff, ClusterFlow, Clustering, LowestId, SelfHealing};
    use manet_routing::intra::{IntraClusterRouting, RouteUpdateOutcome};
    use manet_sim::{Counters, FaultPlan, HelloMode, LossModel, QuietCtx, SimBuilder, World};

    fn small_world(seed: u64) -> World {
        SimBuilder::new()
            .nodes(60)
            .side(400.0)
            .radius(100.0)
            .speed(8.0)
            .dt(0.5)
            .seed(seed)
            .hello_mode(HelloMode::EventDriven)
            .build()
    }

    /// The stack tick must be observationally identical to the hand-rolled
    /// loop it replaced: same counters, same outcomes, same structure.
    #[test]
    fn ideal_tick_matches_manual_loop() {
        let ticks = 80;
        // Manual loop (the pre-stack orchestration).
        let mut world = small_world(9);
        let mut clustering = Clustering::form(LowestId, world.topology());
        let mut routing = IntraClusterRouting::new();
        let mut ch = Channel::new(LossModel::Ideal, 0);
        let mut q = QuietCtx::new();
        // stage-exempt: the manual twin the stack parity test compares to
        routing.update(0.0, world.topology(), &clustering, &mut ch, &mut q.ctx());
        let mut maint = ClusterFlow::default();
        let mut route = RouteUpdateOutcome::default();
        for _ in 0..ticks {
            let mut ctx = q.ctx();
            world.step(&mut ctx);
            // stage-exempt: manual twin
            maint.absorb(clustering.maintain(world.topology(), &mut ctx).into());
            // stage-exempt: manual twin
            route.absorb(routing.update(
                world.dt(),
                world.topology(),
                &clustering,
                &mut ch,
                &mut ctx,
            ));
        }
        let mut manual_counters = Counters::new();
        std::mem::swap(world.counters_mut(), &mut manual_counters);
        manual_counters.record_kind(MessageKind::Cluster, maint.cluster_messages());
        manual_counters.record_kind(MessageKind::Route, route.attempted_messages());

        // Stack loop.
        let world = small_world(9);
        let clustering = Clustering::form(LowestId, world.topology());
        let mut stack = ProtocolStack::ideal(world, clustering, IntraClusterRouting::new());
        let mut q = QuietCtx::new();
        stack.prime(&mut q.ctx());
        let mut agg = StackReport::default();
        for _ in 0..ticks {
            agg.absorb(stack.tick(&mut q.ctx()));
        }

        assert_eq!(agg.cluster.maintenance, maint.maintenance);
        assert_eq!(agg.route, route);
        assert_eq!(agg.msgs_lost(), 0);
        for kind in [
            MessageKind::Hello,
            MessageKind::Cluster,
            MessageKind::Route,
            MessageKind::Retransmit,
            MessageKind::Repair,
        ] {
            // RETX/REPAIR are recorded (as zero) by the stack but never by
            // the ideal manual loop; messages compare equal regardless.
            assert_eq!(
                stack.world().counters().messages(kind),
                manual_counters.messages(kind),
                "{kind:?} counters must match the manual loop"
            );
        }
        assert!(stack.world().counters().bytes_consistent());
        assert_eq!(agg.heads, stack.cluster().head_count() as u64);
    }

    /// Same equivalence for the fault-plane stack (lossy channels, explicit
    /// HELLO, self-healing maintenance), including the RNG stream split.
    #[test]
    fn faulty_tick_matches_manual_loop() {
        let ticks = 80;
        let plan = || {
            FaultPlan {
                loss: LossModel::Bernoulli { p: 0.2 },
                churn: manet_sim::ChurnSchedule::none(),
                seed: 0xFEED,
            }
            .validated()
            .unwrap()
        };
        let build = || {
            SimBuilder::new()
                .nodes(60)
                .side(400.0)
                .radius(100.0)
                .speed(8.0)
                .dt(0.5)
                .seed(4)
                .hello_mode(HelloMode::Disabled)
                .fault(plan())
                .build()
        };

        // Manual loop.
        let mut world = build();
        let mut ch_hello = world.fault().channel(STREAM_HELLO);
        let mut ch_cluster = world.fault().channel(STREAM_CLUSTER);
        let mut ch_route = world.fault().channel(STREAM_ROUTE);
        let mut hello = HelloProtocol::new(60, 1.0, 3.0);
        let clustering = Clustering::form(LowestId, world.topology());
        let mut healer = SelfHealing::new(clustering, Backoff::default(), 8);
        let mut routing = IntraClusterRouting::new();
        let mut q = QuietCtx::new();
        // stage-exempt: the manual twin the stack parity test compares to
        routing.update(
            0.0,
            world.topology(),
            healer.clustering(),
            &mut ch_route,
            &mut q.ctx(),
        );
        let mut hello_sent = 0u64;
        let mut repair = ClusterFlow::default();
        let mut route = RouteUpdateOutcome::default();
        for _ in 0..ticks {
            let mut ctx = q.ctx();
            world.step(&mut ctx);
            hello_sent +=
                hello // stage-exempt: manual twin
                    .step(world.topology(), &mut ch_hello, world.alive(), &mut ctx)
                    .0;
            repair.absorb(
                healer // stage-exempt: manual twin
                    .step(world.topology(), world.alive(), &mut ch_cluster, &mut ctx),
            );
            // stage-exempt: manual twin
            route.absorb(routing.update(
                world.dt(),
                world.topology(),
                healer.clustering(),
                &mut ch_route,
                &mut ctx,
            ));
        }

        // Stack loop.
        let world = build();
        let clustering = Clustering::form(LowestId, world.topology());
        let healer2 = SelfHealing::new(clustering, Backoff::default(), 8);
        let mut stack = ProtocolStack::faulty(
            world,
            healer2,
            IntraClusterRouting::new(),
            HelloProtocol::new(60, 1.0, 3.0),
        );
        let mut q = QuietCtx::new();
        stack.prime(&mut q.ctx());
        let mut agg = StackReport::default();
        for _ in 0..ticks {
            agg.absorb(stack.tick(&mut q.ctx()));
        }

        assert_eq!(agg.hello_sent, hello_sent);
        assert_eq!(agg.cluster, repair);
        assert_eq!(agg.route, route);
        // Lossy channels at p = 0.2 must have lost something somewhere.
        assert!(agg.msgs_lost() > 0, "expected channel losses");
        assert_eq!(
            agg.msgs_lost(),
            agg.hello_lost + repair.maintenance.lost_sends + route.lost_messages
        );
    }

    /// The degenerate stack (no clustering, no routing, explicit HELLO)
    /// still runs the pipeline and accounts beacons.
    #[test]
    fn hello_only_stack_counts_beacons() {
        let world = SimBuilder::new()
            .nodes(40)
            .side(300.0)
            .radius(100.0)
            .dt(0.5)
            .seed(3)
            .hello_mode(HelloMode::Disabled)
            .build();
        let hello = HelloProtocol::new(40, 1.0, 3.0);
        let mut stack = ProtocolStack::new(
            world,
            NoClustering,
            NoRouting,
            HelloDriver::explicit(hello, Channel::new(LossModel::Ideal, 0)),
            Channel::new(LossModel::Ideal, 0),
            Channel::new(LossModel::Ideal, 0),
        );
        let mut q = QuietCtx::new();
        let agg = stack.run(20.0, &mut q.ctx());
        assert!(agg.hello_sent > 0);
        assert_eq!(agg.hello_lost, 0);
        assert_eq!(agg.cluster, ClusterFlow::default());
        assert_eq!(agg.route, RouteUpdateOutcome::default());
        assert_eq!(
            stack.world().counters().messages(MessageKind::Hello),
            agg.hello_sent
        );
        assert!(stack.hello().is_some());
        assert!((stack.world().time() - 20.0).abs() < 1e-9);
    }

    /// An explicit HELLO driver on a world that counts its own HELLOs
    /// would count every beacon twice: debug builds refuse the pairing.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "HelloMode::Disabled")]
    fn explicit_hello_on_a_counting_world_panics() {
        let hello = HelloProtocol::new(60, 1.0, 3.0);
        ProtocolStack::faulty(small_world(6), NoClustering, NoRouting, hello);
    }
}
