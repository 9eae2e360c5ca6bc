//! The simulation world: mobility + link tracking + HELLO + accounting.

use crate::counters::{Counters, MessageKind, MessageSizes};
use crate::ctx::StepCtx;
use crate::error::{positive, SimError};
use crate::fault::{Channel, ChurnKind, FaultPlan, STREAM_HELLO};
use crate::stage::WorldStages;
use crate::topology::{GridTopology, LinkEvent, LinkEventKind, Topology};
use manet_geom::{Metric, SpatialGrid, SquareRegion, Vec2};
use manet_mobility::Mobility;
use manet_telemetry::{EventKind, Layer, Phase, Probe, RootCause};
use manet_util::stats::Summary;
use manet_util::Rng;
use std::fmt;

/// Summary of one simulation tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepReport {
    /// Simulation time after the tick.
    pub time: f64,
    /// Links generated during the tick.
    pub generated: usize,
    /// Links broken during the tick.
    pub broken: usize,
    /// Nodes that crashed during the tick (churn schedule).
    pub crashed: usize,
    /// Nodes that recovered during the tick (churn schedule).
    pub recovered: usize,
    /// HELLO deliveries dropped by the fault plane during the tick (zero on
    /// an ideal channel; attempted sends are still counted as overhead).
    pub hello_lost: usize,
}

/// A deterministic time-stepped MANET world.
///
/// Owns a mobility model, recomputes the unit-disk topology every tick,
/// emits [`LinkEvent`]s, runs the HELLO layer, and accumulates
/// control-message [`Counters`]. Higher layers (clustering, routing) are
/// driven externally from the event stream — see the crate docs.
///
/// HELLO is counted event-driven, the paper's lower bound: a node beacons
/// exactly when it gains a new neighbor (one HELLO per endpoint per link
/// generation), and link breaks are detected by soft timers at no
/// transmission cost. A stack that beacons with its own
/// [`HelloProtocol`](crate::HelloProtocol) switches this counting off
/// ([`World::stop_counting_hello`]), so no beacon is counted twice.
///
/// The world also owns its topology kernel: the slot every
/// [`TopologyBuilder`](crate::TopologyBuilder) builds on, whose link
/// schedule carries over from tick to tick, and the spare topology the
/// next tick is written into. So a world steps the same, and stays
/// allocation-free, whatever context and whichever 1x1 builder each tick
/// comes through.
///
/// A tick's link events are the kernel's flips when they lead from the
/// current topology, and the row diff otherwise. Under churn the world
/// masks each tick's rows after the kernel wrote them, so it also keeps
/// the stamp the kernel tagged before the mask and the mask itself: when
/// the flips lead from that unmasked output, it masks them into the
/// tick's events (the flips between nodes up on both ticks, plus the
/// links of the nodes that crashed or recovered) instead of diffing, and
/// a tick with no node down skips the mask.
pub struct World {
    mobility: Box<dyn Mobility>,
    region: SquareRegion,
    metric: Metric,
    radius: f64,
    dt: f64,
    time: f64,
    measure_start: f64,
    sizes: MessageSizes,
    /// Whether the world counts event-driven HELLOs (see
    /// [`World::stop_counting_hello`]).
    counts_hello: bool,
    /// The current topology, which also carries the link events of the
    /// latest tick (`Topology::diff_from`).
    topology: Topology,
    /// The kernel slot handed to every topology build: the unit-disk
    /// kernel's 1x1 frame and its link schedule, which re-tests the due
    /// pairs and records the flips against the stamp of the topology it
    /// wrote last tick. `None` until a 1x1 builder first fills it (a world
    /// on a multi-shard plane never holds one).
    grid: Option<SpatialGrid>,
    /// The next-tick topology buffer, swapped with `topology` after the
    /// tick's events are in, so both row stores keep their capacities.
    spare: Topology,
    /// The stamp the kernel tagged on the current topology's rows before
    /// the crash mask: the rows its next flips lead from.
    unmasked: u64,
    /// The up/down state the current topology was masked by (all up when
    /// no node was down).
    mask: Vec<bool>,
    /// Debug builds' row diff of a tick whose builder recorded the
    /// events, checked against them (unused in release builds).
    check: Vec<LinkEvent>,
    counters: Counters,
    degree_samples: Summary,
    rng: Rng,
    fault: FaultPlan,
    /// The world's own HELLO-delivery channel (forked from the fault plan;
    /// consumes no randomness when the loss model is ideal).
    hello_channel: Channel,
    /// Per-node up/down state driven by the churn schedule.
    alive: Vec<bool>,
    /// Index of the next unapplied churn event.
    churn_cursor: usize,
}

impl fmt::Debug for World {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("World")
            .field("time", &self.time)
            .field("nodes", &self.mobility.len())
            .field("radius", &self.radius)
            .field("dt", &self.dt)
            .finish_non_exhaustive()
    }
}

impl World {
    /// Creates a world over an existing mobility model.
    ///
    /// `metric` should match the mobility model's boundary behavior:
    /// toroidal for wrap-around models, Euclidean for bounded ones. Most
    /// callers should use [`SimBuilder`](crate::SimBuilder) instead.
    ///
    /// # Panics
    ///
    /// Panics unless `radius` and `dt` are strictly positive and finite.
    pub fn new(
        mobility: Box<dyn Mobility>,
        radius: f64,
        dt: f64,
        metric: Metric,
        sizes: MessageSizes,
        seed: u64,
    ) -> Self {
        World::try_new(
            mobility,
            radius,
            dt,
            metric,
            sizes,
            seed,
            FaultPlan::ideal(),
        )
        .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a world over an existing mobility model with a fault plan,
    /// returning a typed error on invalid parameters.
    ///
    /// With [`FaultPlan::ideal`] the world is byte-for-byte equivalent to
    /// one from [`World::new`]: no loss draws, no churn, identical counters.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NonPositive`] for a non-positive `radius` or
    /// `dt`, and [`SimError::Fault`] for invalid fault-plan parameters or a
    /// churn event naming a node outside the population.
    #[allow(clippy::too_many_arguments)]
    pub fn try_new(
        mobility: Box<dyn Mobility>,
        radius: f64,
        dt: f64,
        metric: Metric,
        sizes: MessageSizes,
        seed: u64,
        fault: FaultPlan,
    ) -> Result<Self, SimError> {
        positive("radius", radius)?;
        positive("dt", dt)?;
        let fault = fault.validated()?;
        fault.churn.check_population(mobility.len())?;
        let region = mobility.region();
        // The first topology comes from a temporary kernel, so a world on
        // a multi-shard plane never holds a 1x1 one.
        let mut topology = Topology::compute(mobility.positions(), region, radius, metric);
        let alive = vec![true; mobility.len()];
        let hello_channel = fault.channel(STREAM_HELLO);
        let mut world = World {
            mobility,
            region,
            metric,
            radius,
            dt,
            time: 0.0,
            measure_start: 0.0,
            sizes,
            counts_hello: true,
            topology: Topology::empty(0),
            grid: None,
            spare: Topology::default(),
            unmasked: 0,
            mask: Vec::new(),
            check: Vec::new(),
            counters: Counters::with_sizes(sizes),
            degree_samples: Summary::new(),
            rng: Rng::seed_from_u64(seed),
            fault,
            hello_channel,
            alive,
            churn_cursor: 0,
        };
        // Apply any time-zero churn before exposing the initial topology.
        world.apply_due_churn(&mut Probe::off());
        if !world.fault.churn.is_empty() {
            topology.retain_alive(&world.alive);
        }
        world.topology = topology;
        world.mask.clone_from(&world.alive);
        Ok(world)
    }

    /// Applies every churn event scheduled at or before the current time,
    /// returning `(crashed, recovered)` counts. With attribution enabled
    /// each churn event opens a `Churn` root and is noted in the tracker,
    /// so the link changes it provokes this tick chain to it.
    fn apply_due_churn(&mut self, probe: &mut Probe<'_>) -> (usize, usize) {
        let (mut crashed, mut recovered) = (0, 0);
        let now = self.time;
        while self.churn_cursor < self.fault.churn.events().len() {
            let e = self.fault.churn.events()[self.churn_cursor];
            if e.time > now {
                break;
            }
            self.churn_cursor += 1;
            let up = &mut self.alive[e.node as usize];
            let flipped = match e.kind {
                ChurnKind::Crash if *up => {
                    *up = false;
                    crashed += 1;
                    true
                }
                ChurnKind::Recover if !*up => {
                    *up = true;
                    recovered += 1;
                    true
                }
                _ => false,
            };
            if flipped {
                let cause = probe.causes().map(|t| {
                    let c = t.allocate(RootCause::Churn);
                    t.note_churn(e.node, now, c);
                    c
                });
                let kind = match e.kind {
                    ChurnKind::Crash => EventKind::NodeCrashed { node: e.node },
                    ChurnKind::Recover => EventKind::NodeRecovered { node: e.node },
                };
                probe.emit_caused(now, Layer::Sim, kind, cause);
            }
        }
        (crashed, recovered)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.mobility.len()
    }

    /// Current simulation time in seconds.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Tick length in seconds.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Unit-disk transmission range.
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Deployment region.
    pub fn region(&self) -> SquareRegion {
        self.region
    }

    /// Distance metric in force.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Message size table used for byte accounting.
    pub fn sizes(&self) -> MessageSizes {
        self.sizes
    }

    /// Stops counting event-driven HELLOs: the owner beacons with its own
    /// [`HelloProtocol`](crate::HelloProtocol) and records those sends
    /// itself. `ProtocolStack::new` calls this for an explicit HELLO
    /// driver; nothing turns the counting back on.
    pub fn stop_counting_hello(&mut self) {
        self.counts_hello = false;
    }

    /// Current node positions.
    pub fn positions(&self) -> &[Vec2] {
        self.mobility.positions()
    }

    /// Current unit-disk topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Link events produced by the most recent [`World::step`]: the
    /// current topology's, so `topology().events_since(s)` returns them
    /// for the stamp `s` the topology had before that step.
    pub fn last_events(&self) -> &[LinkEvent] {
        self.topology.events()
    }

    /// Control-message counters for the current measurement window.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Mutable access to the counters, for protocol layers driven on top of
    /// the world to record their own traffic.
    pub fn counters_mut(&mut self) -> &mut Counters {
        &mut self.counters
    }

    /// The fault plan in force (ideal unless built with faults).
    pub fn fault(&self) -> &FaultPlan {
        &self.fault
    }

    /// Per-node up/down state (all `true` without churn).
    pub fn alive(&self) -> &[bool] {
        &self.alive
    }

    /// Whether node `u` is currently up.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of bounds.
    pub fn is_alive(&self, u: crate::NodeId) -> bool {
        self.alive[u as usize]
    }

    /// Mean of the per-tick mean degree over the measurement window.
    pub fn mean_degree(&self) -> f64 {
        self.degree_samples.mean()
    }

    /// Marks the start of the measurement window: zeroes all counters and
    /// degree samples. Call once the warmup has mixed the system into steady
    /// state.
    pub fn begin_measurement(&mut self) {
        self.counters.reset();
        self.degree_samples = Summary::new();
        self.measure_start = self.time;
    }

    /// Seconds elapsed since [`World::begin_measurement`].
    pub fn measured_time(&self) -> f64 {
        self.time - self.measure_start
    }

    /// Advances the world by one tick of `dt` seconds and returns a summary.
    ///
    /// Order of operations: move nodes → apply due churn events → recompute
    /// topology (crashed nodes lose all links) → link events (the kernel's
    /// flips, masked under churn, or the row diff) → account link events
    /// and HELLO traffic.
    ///
    /// Cross-cutting planes ride in the [`StepCtx`]: telemetry flows
    /// through `ctx.probe` (with [`Probe::off`] the tick is quiet at zero
    /// cost — same draws, same counters, same report). The topology
    /// rebuild recycles the world's own kernel and spare topology, making
    /// the steady-state topology/diff path allocation-free. `ctx.now` is
    /// refreshed to the post-tick clock so downstream layers driven in the
    /// same tick observe it.
    pub fn step(&mut self, ctx: &mut StepCtx<'_, '_>) -> StepReport {
        self.step_staged(ctx, &mut GridTopology)
    }

    /// [`World::step`] with an explicit [`WorldStages`] bundle supplying
    /// both the mobility advance and the topology rebuild (the shard plane
    /// implements both; DESIGN.md §17). Everything downstream of the two
    /// delegated stages — churn, diff, link events, HELLO, counters — is
    /// this world's shared code, so any bundle producing the same
    /// positions and neighbor rows yields a bit-identical tick.
    pub fn step_staged(
        &mut self,
        ctx: &mut StepCtx<'_, '_>,
        stages: &mut dyn WorldStages,
    ) -> StepReport {
        let t0 = ctx.probe.phase_start();
        stages.advance(&mut *self.mobility, self.dt, &mut self.rng);
        ctx.probe.phase_end(Phase::Mobility, t0);
        self.time += self.dt;
        ctx.now = self.time;
        let (crashed, recovered) = self.apply_due_churn(ctx.probe);

        let t0 = ctx.probe.phase_start();
        // Rebuild the next topology into the spare through the world's
        // kernel slot: both keep their capacities across ticks, and the
        // swap recycles the current topology's row store as next tick's
        // spare. The events land in the new topology: the builder's, when
        // it recorded them against exactly the current topology (a link
        // schedule's flips, masked on a churned world when they lead from
        // the kernel's previous, unmasked rows), else the row diff's.
        let spare = &mut self.spare;
        stages.build_into(
            self.mobility.positions(),
            self.region,
            self.radius,
            self.metric,
            &mut self.grid,
            spare,
            &mut *ctx.probe,
            self.time,
        );
        if !self.fault.churn.is_empty() {
            let unmasked = spare.stamp();
            if spare.events_since(self.unmasked).is_some() {
                // A tick with every node up, after one with every node up,
                // keeps the flips as they are; any other masks them.
                if self.topology.stamp() != self.unmasked || self.alive.contains(&false) {
                    spare.mask_flips(&mut self.topology, &self.mask, &self.alive);
                }
            } else if self.alive.contains(&false) {
                spare.retain_alive(&self.alive);
            }
            self.unmasked = unmasked;
            self.mask.copy_from_slice(&self.alive);
        }
        if spare.events_since(self.topology.stamp()).is_none() {
            spare.diff_from(&mut self.topology);
        } else if cfg!(debug_assertions) {
            spare.debug_check_events(&self.topology, &mut self.check);
        }
        std::mem::swap(&mut self.topology, spare);

        let mut generated = 0usize;
        let mut broken = 0usize;
        // With attribution: each link change opens its own root, unless an
        // endpoint churned this very tick — then it chains to the churn
        // root instead. Generation causes are kept so event-driven HELLO
        // sends below can be charged per link.
        let mut gen_causes = Vec::new();
        for e in self.topology.events() {
            let chained = ctx
                .probe
                .causes()
                .and_then(|t| {
                    t.churn_cause(e.a, self.time)
                        .or_else(|| t.churn_cause(e.b, self.time))
                })
                .map(Some);
            match e.kind {
                LinkEventKind::Generated => {
                    generated += 1;
                    self.counters.record_link_generated();
                    let cause = chained.unwrap_or_else(|| ctx.probe.root(RootCause::LinkGen));
                    ctx.probe.emit_caused(
                        self.time,
                        Layer::Sim,
                        EventKind::LinkUp { a: e.a, b: e.b },
                        cause,
                    );
                    if ctx.probe.is_attributing() {
                        gen_causes.push(cause);
                    }
                }
                LinkEventKind::Broken => {
                    broken += 1;
                    self.counters.record_link_broken();
                    let cause = chained.unwrap_or_else(|| ctx.probe.root(RootCause::LinkBreak));
                    ctx.probe.emit_caused(
                        self.time,
                        Layer::Sim,
                        EventKind::LinkDown { a: e.a, b: e.b },
                        cause,
                    );
                }
            }
        }
        ctx.probe.phase_end(Phase::Topology, t0);

        let t0 = ctx.probe.phase_start();
        // Each new link prompts one beacon from each endpoint.
        let hello_sent = if self.counts_hello {
            2 * generated as u64
        } else {
            0
        };
        let mut hello_lost = 0usize;
        if hello_sent > 0 {
            self.counters.record_kind(MessageKind::Hello, hello_sent);
            if !gen_causes.is_empty() {
                debug_assert_eq!(hello_sent, 2 * gen_causes.len() as u64);
                // Attributed event-driven HELLO: two beacons per generated
                // link, each send charged to its link's root. The counts
                // sum to the batch below, so windowed series and counters
                // are unchanged.
                for &cause in &gen_causes {
                    ctx.probe.emit_caused(
                        self.time,
                        Layer::Sim,
                        EventKind::MsgSent {
                            class: MessageKind::Hello.into(),
                            count: 2,
                        },
                        cause,
                    );
                }
            } else {
                ctx.probe.emit(
                    self.time,
                    Layer::Sim,
                    EventKind::MsgSent {
                        class: MessageKind::Hello.into(),
                        count: hello_sent,
                    },
                );
            }
            // Overhead is paid at the sender, so attempted sends are counted
            // above regardless; a lossy channel additionally drops receptions.
            // The ideal channel consumes no randomness, and the draws come
            // from the world's own forked channel, so loss observation never
            // perturbs mobility or higher layers.
            let lost = self.hello_channel.lost_of(hello_sent);
            hello_lost = lost as usize;
            if lost > 0 {
                let cause = ctx.probe.root(RootCause::ChannelLoss);
                ctx.probe.emit_caused(
                    self.time,
                    Layer::Sim,
                    EventKind::MsgLost {
                        class: MessageKind::Hello.into(),
                        count: lost,
                    },
                    cause,
                );
            }
        }
        ctx.probe.phase_end(Phase::Hello, t0);

        self.degree_samples.push(self.topology.mean_degree());
        StepReport {
            time: self.time,
            generated,
            broken,
            crashed,
            recovered,
            hello_lost,
        }
    }

    /// Runs whole ticks until at least `seconds` more simulated time has
    /// elapsed.
    pub fn run_for(&mut self, seconds: f64, ctx: &mut StepCtx<'_, '_>) {
        self.run_for_staged(seconds, ctx, &mut GridTopology);
    }

    /// [`World::run_for`] with every tick on an explicit [`WorldStages`]
    /// bundle (see [`World::step_staged`]).
    pub fn run_for_staged(
        &mut self,
        seconds: f64,
        ctx: &mut StepCtx<'_, '_>,
        stages: &mut dyn WorldStages,
    ) {
        let target = self.time + seconds;
        // Tolerate float drift: never run an extra tick for rounding noise.
        while self.time + self.dt * 0.5 < target {
            self.step_staged(ctx, stages);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::QuietCtx;
    use manet_mobility::{ConstantVelocity, EpochRandomDirection};

    fn small_world(seed: u64) -> World {
        let region = SquareRegion::new(200.0);
        let mut rng = Rng::seed_from_u64(seed);
        let mobility = EpochRandomDirection::new(region, 60, 8.0, 15.0, &mut rng);
        World::new(
            Box::new(mobility),
            40.0,
            0.25,
            Metric::toroidal(200.0),
            MessageSizes::default(),
            seed ^ 0xABCD,
        )
    }

    #[test]
    fn time_advances_and_events_flow() {
        let mut w = small_world(1);
        let mut q = QuietCtx::new();
        let r = w.step(&mut q.ctx());
        assert!((r.time - 0.25).abs() < 1e-12);
        w.run_for(10.0, &mut q.ctx());
        assert!((w.time() - 10.25).abs() < 1e-9);
        // In a mobile world links must have churned.
        assert!(w.counters().links_generated() + w.counters().links_broken() > 0);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed| {
            let mut w = small_world(seed);
            let mut q = QuietCtx::new();
            w.run_for(20.0, &mut q.ctx());
            (
                w.counters().links_generated(),
                w.counters().links_broken(),
                w.counters().messages(MessageKind::Hello),
                w.positions().to_vec(),
            )
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
        assert_eq!(a.2, b.2);
        assert_eq!(a.3, b.3);
        let c = run(43);
        assert_ne!(a.3, c.3);
    }

    #[test]
    fn event_driven_hello_counts_two_per_generation() {
        let mut w = small_world(2);
        let mut q = QuietCtx::new();
        w.run_for(30.0, &mut q.ctx());
        assert_eq!(
            w.counters().messages(MessageKind::Hello),
            2 * w.counters().links_generated()
        );
    }

    #[test]
    fn measurement_window_excludes_warmup() {
        let mut w = small_world(4);
        let mut q = QuietCtx::new();
        w.run_for(10.0, &mut q.ctx());
        let warm = w.counters().links_generated();
        assert!(warm > 0);
        w.begin_measurement();
        assert_eq!(w.counters().links_generated(), 0);
        assert_eq!(w.measured_time(), 0.0);
        w.run_for(5.0, &mut q.ctx());
        assert!((w.measured_time() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn link_events_are_symmetric_in_steady_state() {
        // Over a long window on a torus, generation and break counts agree
        // within statistical noise.
        let mut w = small_world(5);
        let mut q = QuietCtx::new();
        w.run_for(30.0, &mut q.ctx());
        w.begin_measurement();
        w.run_for(400.0, &mut q.ctx());
        let gen = w.counters().links_generated() as f64;
        let brk = w.counters().links_broken() as f64;
        assert!(gen > 100.0);
        assert!((gen - brk).abs() / gen < 0.1, "gen {gen} vs brk {brk}");
    }

    #[test]
    fn measured_link_rate_matches_cv_theory() {
        // Claim 2 calibration: CV on a torus with toroidal metric should
        // produce per-node total link change rate ≈ 16·d·v/(π²·r) with
        // d = (N−1)·πr²/a².
        let side = 1000.0;
        let (n, r, v) = (300usize, 120.0, 10.0);
        let region = SquareRegion::new(side);
        let mut rng = Rng::seed_from_u64(6);
        let mobility = ConstantVelocity::new(region, n, v, &mut rng);
        let mut w = World::new(
            Box::new(mobility),
            r,
            0.2,
            Metric::toroidal(side),
            MessageSizes::default(),
            7,
        );
        let mut q = QuietCtx::new();
        w.run_for(50.0, &mut q.ctx());
        w.begin_measurement();
        w.run_for(600.0, &mut q.ctx());
        let elapsed = w.measured_time();
        let rate = w.counters().per_node_link_generation_rate(n, elapsed)
            + w.counters().per_node_link_break_rate(n, elapsed);
        let d = (n as f64 - 1.0) * std::f64::consts::PI * r * r / (side * side);
        let theory = 16.0 * d * v / (std::f64::consts::PI.powi(2) * r);
        let rel = (rate - theory).abs() / theory;
        assert!(
            rel < 0.1,
            "measured {rate:.4} vs theory {theory:.4} (rel err {rel:.3})"
        );
    }

    #[test]
    fn lossy_channel_reports_hello_losses_but_counts_attempts() {
        let region = SquareRegion::new(200.0);
        let mut rng = Rng::seed_from_u64(21);
        let mobility = EpochRandomDirection::new(region, 60, 8.0, 15.0, &mut rng);
        let mut w = World::try_new(
            Box::new(mobility),
            40.0,
            0.25,
            Metric::toroidal(200.0),
            MessageSizes::default(),
            77,
            crate::FaultPlan::bernoulli(1.0, 5).unwrap(),
        )
        .unwrap();
        let mut q = QuietCtx::new();
        let mut lost = 0usize;
        for _ in 0..80 {
            lost += w.step(&mut q.ctx()).hello_lost;
        }
        let sent = w.counters().messages(MessageKind::Hello);
        assert!(sent > 0);
        // p = 1: every delivery drops, yet every attempt is still charged.
        assert_eq!(lost as u64, sent);
        assert!(w.counters().bytes_consistent());
    }

    #[test]
    fn ideal_channel_reports_zero_losses() {
        let mut w = small_world(31);
        let mut q = QuietCtx::new();
        for _ in 0..40 {
            let r = w.step(&mut q.ctx());
            assert_eq!(r.hello_lost, 0);
        }
    }

    #[test]
    fn degree_samples_stream_into_a_constant_size_summary() {
        // Regression for the old unbounded-Vec design: degree sampling must
        // accumulate into a fixed-size streaming summary so multi-hour runs
        // hold memory constant, while `mean_degree` keeps its semantics
        // (mean of the per-tick mean degrees).
        let mut w = small_world(12);
        let mut q = QuietCtx::new();
        let mut sum = 0.0;
        let mut ticks = 0u64;
        for _ in 0..200 {
            w.step(&mut q.ctx());
            sum += w.topology().mean_degree();
            ticks += 1;
        }
        assert!((w.mean_degree() - sum / ticks as f64).abs() < 1e-9);
        // Compile-time bound: the accumulator is a few scalars, not a Vec
        // of one sample per tick.
        const _: () = assert!(std::mem::size_of::<Summary>() <= 64);
    }

    #[test]
    fn noop_probe_step_matches_untraced() {
        use manet_telemetry::NoopSubscriber;
        let mut plain = small_world(55);
        let mut traced = small_world(55);
        let mut q = QuietCtx::new();
        let mut noop = NoopSubscriber;
        for _ in 0..60 {
            let a = plain.step(&mut q.ctx());
            let mut probe = Probe::subscriber(&mut noop);
            let b = traced.step(&mut StepCtx::new(&mut probe));
            assert_eq!(a, b);
        }
        assert_eq!(plain.counters(), traced.counters());
        assert_eq!(plain.positions(), traced.positions());
    }

    #[test]
    fn traced_step_emits_link_and_hello_events() {
        use manet_telemetry::Event;

        let mut w = small_world(9);
        let mut sink = Vec::<Event>::new();
        let mut generated = 0usize;
        let mut broken = 0usize;
        for _ in 0..40 {
            let mut probe = Probe::subscriber(&mut sink);
            let r = w.step(&mut StepCtx::new(&mut probe));
            generated += r.generated;
            broken += r.broken;
        }
        let ups = sink
            .iter()
            .filter(|e| matches!(e.kind, EventKind::LinkUp { .. }))
            .count();
        let downs = sink
            .iter()
            .filter(|e| matches!(e.kind, EventKind::LinkDown { .. }))
            .count();
        assert_eq!(ups, generated);
        assert_eq!(downs, broken);
        let hellos: u64 = sink
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::MsgSent {
                    class: manet_telemetry::MsgClass::Hello,
                    count,
                } => Some(count),
                _ => None,
            })
            .sum();
        assert_eq!(hellos, w.counters().messages(MessageKind::Hello));
        assert!(sink.iter().all(|e| e.layer == Layer::Sim));
    }

    #[test]
    fn attributed_step_tags_every_link_and_hello_send() {
        use manet_telemetry::{CauseTracker, Event, RootCause};

        let mut plain = small_world(73);
        let mut traced = small_world(73);
        let mut q = QuietCtx::new();
        let mut sink = Vec::<Event>::new();
        let mut tracker = CauseTracker::new();
        for _ in 0..40 {
            let a = plain.step(&mut q.ctx());
            let mut probe = Probe::with_causes(Some(&mut sink), Some(&mut tracker));
            let b = traced.step(&mut StepCtx::new(&mut probe));
            assert_eq!(a, b, "attribution must not perturb the simulation");
        }
        assert_eq!(plain.counters(), traced.counters());
        assert_eq!(plain.positions(), traced.positions());
        assert!(!sink.is_empty());
        assert!(
            sink.iter().all(|e| e.cause.is_some()),
            "every sim event has a root in an attributed event-driven run"
        );
        // Event-driven HELLO splits into per-link sends of 2, each sharing
        // its LinkUp's root; the counts still reconcile with the counters.
        let mut hello = 0u64;
        for e in &sink {
            if let EventKind::MsgSent { count, .. } = e.kind {
                assert_eq!(count, 2);
                assert_eq!(e.cause.unwrap().root, RootCause::LinkGen);
                hello += count;
            }
        }
        assert_eq!(hello, traced.counters().messages(MessageKind::Hello));
        let link_ups = sink
            .iter()
            .filter(|e| matches!(e.kind, EventKind::LinkUp { .. }))
            .count() as u64;
        assert_eq!(hello, 2 * link_ups);
    }

    /// Twenty static nodes (so only churn changes the topology), node 3
    /// crashing at t = 1 s and recovering at t = 3 s.
    fn churned_world() -> World {
        use crate::fault::{ChurnEvent, ChurnKind, ChurnSchedule};
        let region = SquareRegion::new(100.0);
        let mut rng = Rng::seed_from_u64(11);
        let mobility = ConstantVelocity::new(region, 20, 0.0, &mut rng);
        let fault = crate::FaultPlan {
            loss: crate::LossModel::Ideal,
            churn: ChurnSchedule::new(vec![
                ChurnEvent {
                    time: 1.0,
                    node: 3,
                    kind: ChurnKind::Crash,
                },
                ChurnEvent {
                    time: 3.0,
                    node: 3,
                    kind: ChurnKind::Recover,
                },
            ]),
            seed: 0,
        };
        World::try_new(
            Box::new(mobility),
            40.0,
            0.5,
            Metric::toroidal(100.0),
            MessageSizes::default(),
            5,
            fault,
        )
        .unwrap()
    }

    /// The churned world's ticks after the first two take the kernel's
    /// flips through the crash mask, the recovery tick that leaves every
    /// node up included: none diffs its rows, which would empty the
    /// events of the topology it replaced.
    #[test]
    fn churned_ticks_keep_the_kernels_flips() {
        let mut w = churned_world();
        let mut q = QuietCtx::new();
        let (mut crashed, mut recovered) = (0, 0);
        let mut before = 0;
        for tick in 1..=10 {
            let last = w.topology().stamp();
            let r = w.step(&mut q.ctx());
            crashed += r.crashed;
            recovered += r.recovered;
            if tick > 2 {
                let kept = w.spare.events_since(before).is_some();
                assert!(kept, "tick {tick} diffed its rows");
            }
            before = last;
        }
        assert_eq!((crashed, recovered), (1, 1));
    }

    #[test]
    fn churned_link_changes_chain_to_the_churn_root() {
        use manet_telemetry::{CauseTracker, Event, RootCause};

        let mut w = churned_world();
        assert!(w.topology().degree(3) > 0);
        let mut sink = Vec::<Event>::new();
        let mut tracker = CauseTracker::new();
        while w.time() < 3.5 {
            let mut probe = Probe::with_causes(Some(&mut sink), Some(&mut tracker));
            w.step(&mut StepCtx::new(&mut probe));
        }
        // The crash's link breaks and the recovery's link formations (and
        // their HELLO beacons) all chain to the churn roots — static nodes,
        // so churn is the only cause of topology change.
        let crash_cause = sink
            .iter()
            .find(|e| matches!(e.kind, EventKind::NodeCrashed { node: 3 }))
            .and_then(|e| e.cause)
            .expect("crash event recorded with a cause");
        assert_eq!(crash_cause.root, RootCause::Churn);
        let downs: Vec<_> = sink
            .iter()
            .filter(|e| matches!(e.kind, EventKind::LinkDown { .. }))
            .collect();
        assert!(!downs.is_empty());
        assert!(downs.iter().all(|e| e.cause == Some(crash_cause)));
        let recover_cause = sink
            .iter()
            .find(|e| matches!(e.kind, EventKind::NodeRecovered { node: 3 }))
            .and_then(|e| e.cause)
            .expect("recovery event recorded with a cause");
        let ups: Vec<_> = sink
            .iter()
            .filter(|e| matches!(e.kind, EventKind::LinkUp { .. }))
            .collect();
        assert!(!ups.is_empty());
        assert!(ups.iter().all(|e| e.cause == Some(recover_cause)));
        assert!(sink.iter().all(|e| match e.kind {
            EventKind::MsgSent { .. } => e.cause == Some(recover_cause),
            _ => true,
        }));
    }

    #[test]
    fn equal_rows_from_two_worlds_compare_equal() {
        let (mut a, mut b) = (small_world(41), small_world(41));
        let mut q = QuietCtx::new();
        for _ in 0..20 {
            a.step(&mut q.ctx());
            b.step(&mut q.ctx());
        }
        assert_ne!(a.topology().stamp(), b.topology().stamp());
        assert_eq!(a.topology(), b.topology());
    }

    #[test]
    fn debug_is_nonempty() {
        let w = small_world(8);
        let s = format!("{w:?}");
        assert!(s.contains("World"));
    }

    #[test]
    fn churn_strips_and_restores_links() {
        let mut w = churned_world();
        let degree = w.topology().degree(3);
        assert!(degree > 0, "test needs node 3 connected");
        let links_before = w.topology().link_count();
        let mut q = QuietCtx::new();
        w.step(&mut q.ctx());
        let r = w.step(&mut q.ctx()); // t = 1.0: crash fires
        assert_eq!(r.crashed, 1);
        assert!(!w.is_alive(3));
        assert_eq!(w.alive().iter().filter(|&&up| up).count(), 19);
        assert_eq!(w.topology().degree(3), 0);
        assert_eq!(w.topology().link_count(), links_before - degree);
        let mut recovered = 0;
        while w.time() < 3.5 {
            recovered += w.step(&mut q.ctx()).recovered;
        }
        assert_eq!(recovered, 1);
        assert!(w.is_alive(3));
        assert_eq!(w.topology().degree(3), degree);
        // Recovery re-generates the node's links (drives the HELLO path).
        assert!(w.counters().links_generated() >= degree as u64);
    }

    #[test]
    fn churn_event_out_of_population_is_an_error() {
        use crate::fault::{ChurnEvent, ChurnKind, ChurnSchedule};
        let region = SquareRegion::new(50.0);
        let mut rng = Rng::seed_from_u64(2);
        let mobility = ConstantVelocity::new(region, 4, 1.0, &mut rng);
        let fault = crate::FaultPlan {
            loss: crate::LossModel::Ideal,
            churn: ChurnSchedule::new(vec![ChurnEvent {
                time: 1.0,
                node: 9,
                kind: ChurnKind::Crash,
            }]),
            seed: 0,
        };
        let err = World::try_new(
            Box::new(mobility),
            10.0,
            0.5,
            Metric::toroidal(50.0),
            MessageSizes::default(),
            1,
            fault,
        )
        .unwrap_err();
        assert!(err.to_string().contains("node 9"));
    }

    #[test]
    fn try_new_rejects_bad_geometry_with_typed_errors() {
        let make = |radius: f64, dt: f64| {
            let region = SquareRegion::new(50.0);
            let mut rng = Rng::seed_from_u64(2);
            let mobility = ConstantVelocity::new(region, 4, 1.0, &mut rng);
            World::try_new(
                Box::new(mobility),
                radius,
                dt,
                Metric::toroidal(50.0),
                MessageSizes::default(),
                1,
                crate::FaultPlan::ideal(),
            )
        };
        assert!(make(0.0, 0.5).unwrap_err().to_string().contains("radius"));
        assert!(make(10.0, f64::NAN).unwrap_err().to_string().contains("dt"));
        assert!(make(10.0, 0.5).is_ok());
    }

    #[test]
    #[should_panic(expected = "dt")]
    fn zero_dt_panics() {
        let region = SquareRegion::new(10.0);
        let mut rng = Rng::seed_from_u64(1);
        let mobility = ConstantVelocity::new(region, 2, 1.0, &mut rng);
        World::new(
            Box::new(mobility),
            5.0,
            0.0,
            Metric::toroidal(10.0),
            MessageSizes::default(),
            1,
        );
    }
}
