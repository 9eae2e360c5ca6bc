//! The unit-disk kernel's link schedule against O(N²) references, tick
//! by tick: rows against pairwise `Metric::within`, and the events a
//! builder records from the schedule's flips against the row diff.
//!
//! `SpatialGrid` keeps the schedule, reached two ways: directly through
//! `Topology::compute_into` (as `GridTopology` and `World::step` call
//! it), and through a `1x1` shard plane, which builds on the kernel slot
//! its caller passes, as `World::step_staged` passes the world's. Every
//! case drives both through the same position sequence, each chaining its
//! output through two topologies as `World` does, and requires the exact
//! pairwise rows on every tick and, whenever the new topology carries
//! events from the previous one, exactly the events `diff_into` gives.
//! The cases: mobility models that rotate the lists many times over, a
//! world fast enough to fall back to the plain sweep, and the adversarial
//! ones — one context through two worlds, one world through `World::step`
//! and its plane in turn, static nodes, jumping positions, churn, and a
//! reach past half the side. The plane builds no frame, so it counts no
//! boundary links.

use manet_geom::{candidate_reach, FrameGrid, Metric, ShardDims, SpatialGrid, SquareRegion, Vec2};
use manet_mobility::{EpochRandomDirection, Mobility, RandomWalk, RandomWaypoint};
use manet_shard::ShardPlane;
use manet_sim::{
    ChurnSchedule, FaultPlan, GridTopology, HelloMode, LinkEvent, LossModel, MobilityStage, NodeId,
    QuietCtx, SimBuilder, Topology, TopologyBuilder, World,
};
use manet_telemetry::Probe;
use manet_util::Rng;

/// The paper's density (4·10⁻⁴ per m²) at N = 150.
const N: usize = 150;
const RADIUS: f64 = 150.0;
const TICKS: usize = 60;

fn side() -> f64 {
    (N as f64 / 4e-4).sqrt()
}

/// The O(N²) reference rows: every ordered pair through `Metric::within`,
/// less the links of nodes marked dead in `alive`.
fn brute_rows(positions: &[Vec2], radius: f64, metric: Metric, alive: &[bool]) -> Vec<Vec<NodeId>> {
    (0..positions.len())
        .map(|i| {
            (0..positions.len() as NodeId)
                .filter(|&j| {
                    j as usize != i
                        && alive[i]
                        && alive[j as usize]
                        && metric.within(positions[i], positions[j as usize], radius)
                })
                .collect()
        })
        .collect()
}

/// The row diff from `prev` to `next`: the reference for every event.
fn row_diff(prev: &Topology, next: &Topology) -> Vec<LinkEvent> {
    let mut events = Vec::new();
    prev.diff_into(next, &mut events);
    events
}

/// One builder's output, double-buffered as `World` keeps it: the
/// builder writes `next` (the topology of two ticks ago) while `prev`
/// holds the previous tick's.
#[derive(Default)]
struct Chain {
    prev: Topology,
    next: Topology,
    /// Ticks whose topology carried the builder's events from `prev`.
    event_ticks: usize,
}

impl Chain {
    /// Checks `next` against `reference` rows and, when it carries events
    /// from `prev`, those against the row diff; then swaps the buffers.
    fn check(&mut self, reference: &[Vec<NodeId>], what: &str) {
        for (i, row) in reference.iter().enumerate() {
            assert_eq!(
                self.next.neighbors(i as NodeId),
                &row[..],
                "{what}: row {i}"
            );
        }
        if let Some(events) = self.next.events_since(self.prev.stamp()) {
            assert_eq!(
                events,
                &row_diff(&self.prev, &self.next)[..],
                "{what}: events"
            );
            self.event_ticks += 1;
        }
        std::mem::swap(&mut self.prev, &mut self.next);
    }
}

/// The two ways to the schedule, fed one position set per tick.
struct Owners {
    region: SquareRegion,
    radius: f64,
    metric: Metric,
    grid: SpatialGrid,
    mono: Chain,
    plane: ShardPlane,
    /// The kernel slot the plane builds on, kept across ticks as `World`
    /// keeps its own.
    slot: Option<SpatialGrid>,
    planed: Chain,
    /// A bare kernel advanced alongside, to tell which ticks may use the
    /// link schedule.
    probe: FrameGrid,
    list_ticks: usize,
    /// List ticks right after a list tick: the ticks whose flips can
    /// lead from the previous output.
    chainable: usize,
    listed: bool,
}

impl Owners {
    fn new(region: SquareRegion, radius: f64, metric: Metric) -> Self {
        let plane = ShardPlane::new(ShardDims::unit(), region, radius, metric)
            .unwrap()
            .with_workers(1);
        let mut probe = FrameGrid::default();
        probe.configure(1.0, 1.0, radius, metric);
        Owners {
            region,
            radius,
            metric,
            grid: SpatialGrid::default(),
            mono: Chain::default(),
            plane,
            slot: None,
            planed: Chain::default(),
            probe,
            list_ticks: 0,
            chainable: 0,
            listed: false,
        }
    }

    /// Checks both owners' rows and events on `positions` against the
    /// references; `alive`, when given, masks the new topologies as
    /// `World` does under churn.
    fn check(&mut self, positions: &[Vec2], alive: Option<&[bool]>, case: &str, tick: usize) {
        let all = vec![true; positions.len()];
        let masked = alive.is_some();
        let alive = alive.unwrap_or(&all);
        let expected = brute_rows(positions, self.radius, self.metric, alive);
        self.mono.next.compute_into(
            &mut self.grid,
            positions,
            self.region,
            self.radius,
            self.metric,
        );
        self.plane.build_into(
            positions,
            self.region,
            self.radius,
            self.metric,
            &mut self.slot,
            &mut self.planed.next,
            &mut Probe::off(),
            0.0,
        );
        if masked {
            self.mono.next.retain_alive(alive);
            self.planed.next.retain_alive(alive);
        }
        self.mono
            .check(&expected, &format!("{case}: SpatialGrid at tick {tick}"));
        self.planed
            .check(&expected, &format!("{case}: 1x1 plane at tick {tick}"));
        let stats = self.plane.shard_stats().next().unwrap();
        assert_eq!(
            stats.boundary_links, 0,
            "{case}: 1x1 boundary links at tick {tick}"
        );
        let eligible = candidate_reach(self.radius, self.region.side()).is_some();
        let listed = self.probe.advance(positions).is_some() && eligible;
        self.list_ticks += usize::from(listed);
        self.chainable += usize::from(listed && self.listed);
        self.listed = listed;
    }

    /// Requires the builders' events on every list tick that follows a
    /// list tick (none is lost), and so on at least `floor` (in percent)
    /// of all list ticks; returns the list-tick count.
    fn event_floor(&self, case: &str, floor: usize) -> usize {
        for (who, chain) in [("SpatialGrid", &self.mono), ("1x1 plane", &self.planed)] {
            assert_eq!(
                chain.event_ticks, self.chainable,
                "{case}: {who} events against chainable ticks"
            );
            assert!(
                chain.event_ticks * 100 >= self.list_ticks * floor,
                "{case}: {who} events on {} of {} list ticks",
                chain.event_ticks,
                self.list_ticks
            );
        }
        self.list_ticks
    }
}

/// Runs `mobility` for `TICKS` ticks of `dt` under `metric` and returns
/// how many ticks could use the link schedule, requiring the builders'
/// events on at least 90% of them.
fn run_model(case: &str, mut mobility: Box<dyn Mobility>, dt: f64, metric: Metric) -> usize {
    let mut owners = Owners::new(mobility.region(), RADIUS, metric);
    let mut rng = Rng::seed_from_u64(17);
    for tick in 0..TICKS {
        owners.check(mobility.positions(), None, case, tick);
        mobility.step(dt, &mut rng);
    }
    owners.event_floor(case, 90)
}

/// Every tick equals the references on the paper's mobility model and on
/// random waypoint and random walk under both metrics, over a dozen
/// rotations of the lists; a world moving a sixth of the skin per tick
/// sweeps plainly throughout.
#[test]
fn candidate_rows_equal_the_pairwise_reference_every_tick() {
    let region = SquareRegion::new(side());
    let torus = Metric::toroidal(region.side());
    let mut rng = Rng::seed_from_u64(5);
    let erd = EpochRandomDirection::new(region, N, 10.0, 20.0, &mut rng);
    let lists = run_model("erd torus", Box::new(erd), 0.25, torus);
    assert!(lists >= TICKS - 2, "erd torus: lists on {lists} ticks");
    for metric in [Metric::Euclidean, torus] {
        let rwp = RandomWaypoint::new(region, N, 2.0, 20.0, 0.0, &mut rng);
        let lists = run_model(&format!("rwp {metric:?}"), Box::new(rwp), 0.2, metric);
        assert!(lists >= TICKS - 2, "rwp {metric:?}: lists on {lists} ticks");
        let walk = RandomWalk::new(region, N, 15.0, 1.0, 5.0, &mut rng);
        let lists = run_model(&format!("walk {metric:?}"), Box::new(walk), 0.25, metric);
        assert!(
            lists >= TICKS - 2,
            "walk {metric:?}: lists on {lists} ticks"
        );
    }
    let fast = EpochRandomDirection::new(region, N, 40.0, 20.0, &mut rng);
    assert_eq!(run_model("fast erd", Box::new(fast), 0.25, torus), 0);
}

/// Positions whose per-tick speed changes by orders of magnitude, so the
/// rotation period swings every tick and only the drift budget and the
/// pairs' dues keep the rows exact, with jumps to fresh random placements
/// in between.
#[test]
fn varying_speeds_and_jumps_keep_rows_exact() {
    for metric in [Metric::Euclidean, Metric::toroidal(side())] {
        let region = SquareRegion::new(side());
        let mut owners = Owners::new(region, RADIUS, metric);
        let mut rng = Rng::seed_from_u64(29);
        let mut positions: Vec<Vec2> = (0..N).map(|_| region.sample_uniform(&mut rng)).collect();
        let case = format!("varying {metric:?}");
        for tick in 0..4 * TICKS {
            owners.check(&positions, None, &case, tick);
            if tick % 50 == 49 {
                for p in &mut positions {
                    *p = region.sample_uniform(&mut rng);
                }
                continue;
            }
            // Per-axis steps up to 10^u m, u uniform in [-2, 0.7]: from
            // a centimetre to a quarter of the 30 m skin.
            let scale = 10f64.powf(rng.f64_range(-2.0..0.7));
            for p in &mut positions {
                let d = Vec2::new(rng.f64_range(-1.0..1.0), rng.f64_range(-1.0..1.0)) * scale;
                *p = region.wrap(*p + d);
            }
        }
        assert!(
            owners.list_ticks > 2 * TICKS,
            "{metric:?}: lists on {} ticks",
            owners.list_ticks
        );
        // A fallback (a fast tick, a jump; under the Euclidean metric,
        // the wrap is a jump too) cuts the chain for one tick: 146 of 186
        // list ticks chain under it, 205 of 222 on the torus.
        owners.event_floor(&case, 75);
    }
}

/// Static nodes: the lists built once stay exact forever, and every
/// tick after the build carries its (empty) events.
#[test]
fn static_nodes_keep_exact_rows() {
    let region = SquareRegion::new(side());
    let mut rng = Rng::seed_from_u64(3);
    let positions: Vec<Vec2> = (0..N).map(|_| region.sample_uniform(&mut rng)).collect();
    for metric in [Metric::Euclidean, Metric::toroidal(side())] {
        let mut owners = Owners::new(region, RADIUS, metric);
        for tick in 0..TICKS {
            owners.check(&positions, None, "static", tick);
        }
        assert_eq!(owners.event_floor("static", 90), TICKS - 1);
        assert_eq!(owners.mono.event_ticks, TICKS - 2);
    }
}

/// From `r + s ≥ side/2` on the owners sweep plainly, still exactly, and
/// record no events.
#[test]
fn reach_past_half_the_side_sweeps_plainly() {
    let region = SquareRegion::new(300.0);
    let radius = 130.0; // r + s = 156 > 150
    assert!(candidate_reach(radius, 300.0).is_none());
    for metric in [Metric::Euclidean, Metric::toroidal(300.0)] {
        let mut owners = Owners::new(region, radius, metric);
        let mut rng = Rng::seed_from_u64(8);
        let mut erd = EpochRandomDirection::new(region, 60, 5.0, 20.0, &mut rng);
        for tick in 0..TICKS / 2 {
            owners.check(erd.positions(), None, "wide reach", tick);
            erd.step(0.25, &mut rng);
        }
        assert_eq!(owners.list_ticks, 0);
        assert_eq!(owners.mono.event_ticks + owners.planed.event_ticks, 0);
    }
}

/// Checks a world's latest tick: its rows against the reference less the
/// dead nodes, and its events against the diff from `prev`, its
/// topology before the tick.
fn check_world(world: &World, prev: &Topology, what: &str) {
    let expected = brute_rows(world.positions(), RADIUS, world.metric(), world.alive());
    for (i, row) in expected.iter().enumerate() {
        assert_eq!(
            world.topology().neighbors(i as NodeId),
            &row[..],
            "{what}: node {i}"
        );
    }
    let events = world.topology().events_since(prev.stamp());
    assert_eq!(events, Some(world.last_events()), "{what}");
    assert_eq!(
        world.last_events(),
        &row_diff(prev, world.topology())[..],
        "{what}"
    );
}

/// A world-side stage bundle that runs `inner` and notes whether its
/// output carried the kernel's link events from `from`, the world's
/// topology before the tick: exactly the ticks on which `World` takes the
/// kernel's flips instead of diffing its rows.
struct Watched<'a> {
    inner: &'a mut dyn TopologyBuilder,
    from: u64,
    kernel_events: bool,
}

impl MobilityStage for Watched<'_> {}

impl TopologyBuilder for Watched<'_> {
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
        self.inner
            .build_into(positions, region, radius, metric, grid, out, probe, now);
        self.kernel_events = out.events_since(self.from).is_some();
    }
}

/// Steps `world` one tick through `builder` (`World::step` runs
/// `GridTopology`) on a context from `quiet`, checks the tick against the
/// references, and returns whether the kernel handed the world its events.
fn step_watched(
    world: &mut World,
    quiet: &mut QuietCtx,
    builder: &mut dyn TopologyBuilder,
    what: &str,
) -> bool {
    let prev = world.topology().clone();
    let mut watched = Watched {
        inner: builder,
        from: prev.stamp(),
        kernel_events: false,
    };
    world.step_staged(&mut quiet.ctx(), &mut watched);
    check_world(world, &prev, what);
    watched.kernel_events
}

/// A paper-density world at the paper's `v·dt` = 2.5 m, so its kernel
/// runs the link schedule (`P` = 6).
fn paper_world(seed: u64) -> SimBuilder {
    SimBuilder::new()
        .nodes(N)
        .side(side())
        .radius(RADIUS)
        .speed(10.0)
        .dt(0.25)
        .seed(seed)
        .hello_mode(HelloMode::Disabled)
}

/// One context through two worlds that alternate every tick: each world
/// owns its kernel, so each takes its kernel's events on at least 90% of
/// its ticks after its first two (a shared kernel would see every call's
/// positions jump to the other world's and sweep plainly), and its rows
/// and events stay exact.
#[test]
fn one_context_through_two_alternating_worlds() {
    let mut worlds = [paper_world(1).build(), paper_world(2).build()];
    let mut quiet = QuietCtx::new();
    let mut kernel_ticks = [0usize; 2];
    for tick in 0..2 * TICKS {
        let i = tick % 2;
        let what = format!("world {i} tick {tick}");
        let took = step_watched(&mut worlds[i], &mut quiet, &mut GridTopology, &what);
        // Each world's first two ticks are ticks `i` and `i + 2`.
        kernel_ticks[i] += usize::from(took && tick >= 4);
    }
    for (i, &k) in kernel_ticks.iter().enumerate() {
        assert!(
            k * 100 >= (TICKS - 2) * 90,
            "world {i}: kernel events on {k} ticks"
        );
    }
}

/// One world stepped by `World::step` and by its `1x1` plane in turn:
/// both build on the world's one kernel, so the world takes the kernel's
/// events on at least 90% of its ticks after the first two. Two kernels
/// would each see a 5 m step per call, too fast for the schedule.
#[test]
fn world_step_and_its_unit_plane_share_one_kernel() {
    let mut world = paper_world(3).build();
    let mut plane = ShardPlane::for_world(&world, ShardDims::unit())
        .unwrap()
        .with_workers(1);
    let mut quiet = QuietCtx::new();
    let mut kernel_ticks = 0;
    for tick in 0..2 * TICKS {
        let builder: &mut dyn TopologyBuilder = if tick % 2 == 0 {
            &mut GridTopology
        } else {
            &mut plane
        };
        let took = step_watched(&mut world, &mut quiet, builder, &format!("tick {tick}"));
        kernel_ticks += usize::from(took && tick >= 2);
    }
    assert!(
        kernel_ticks * 100 >= (2 * TICKS - 2) * 90,
        "kernel events on {kernel_ticks} of {} ticks",
        2 * TICKS - 2
    );
}

/// Churn crashes and recovers nodes after the build: `World::step` and
/// the 1x1 plane both give the reference rows less the dead nodes, and
/// every masked tick takes the row diff, whose events are exact.
#[test]
fn churn_crash_and_recover_keep_rows_exact() {
    let build = || {
        let churn = ChurnSchedule::poisson(N, 0.05, 2.0, 40.0, 0xC4).unwrap();
        assert!(!churn.is_empty());
        paper_world(9)
            .fault(FaultPlan {
                loss: LossModel::Ideal,
                churn,
                seed: 4,
            })
            .build()
    };
    let (mut mono, mut planed) = (build(), build());
    let mut plane = ShardPlane::for_world(&planed, ShardDims::unit())
        .unwrap()
        .with_workers(1);
    let mut owners = Owners::new(mono.region(), RADIUS, mono.metric());
    let mut quiet = QuietCtx::new();
    let (mut crashed, mut recovered) = (0, 0);
    for tick in 0..3 * TICKS {
        let (prev_mono, prev_planed) = (mono.topology().clone(), planed.topology().clone());
        let report = mono.step(&mut quiet.ctx());
        planed.step_staged(&mut quiet.ctx(), &mut plane);
        crashed += report.crashed;
        recovered += report.recovered;
        check_world(&mono, &prev_mono, &format!("World::step tick {tick}"));
        check_world(&planed, &prev_planed, &format!("1x1 plane tick {tick}"));
        // The same ticks through the owners, masked as a churned world
        // masks every tick: the mask cuts every builder chain.
        owners.check(mono.positions(), Some(mono.alive()), "churn", tick);
    }
    assert!(
        crashed > 0 && recovered > 0,
        "{crashed} crashed, {recovered} recovered"
    );
    assert!(owners.chainable > 2 * TICKS);
    assert_eq!(owners.mono.event_ticks + owners.planed.event_ticks, 0);
}
