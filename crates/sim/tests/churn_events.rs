//! `World::step`'s link events under churn, on a world slow enough for
//! the unit-disk kernel's link schedule: nodes move 1 m per tick against
//! a half skin of 4 m (r = 40 m), so the rotation period is `P = 4` and
//! the kernel records flips on nearly every tick. A crash or recovery
//! masks the rows after the kernel wrote them, so the world turns the
//! flips into the masked tick's events: the flips between nodes up on
//! both ticks, a break for each link of a node that went down and a
//! generation for each link of a node that came up. On every tick those
//! must equal the row diff, for random churn and for the edge cases where
//! both ends of a link change on one tick; a 2x2 shard plane hands the
//! world no flips, so there it takes the diff.

use manet_geom::{FrameGrid, Metric, ShardDims, SpatialGrid, SquareRegion, Vec2};
use manet_mobility::EpochRandomDirection;
use manet_shard::ShardPlane;
use manet_sim::{
    ChurnEvent, ChurnKind, ChurnSchedule, FaultPlan, GridTopology, LossModel, MessageSizes,
    MobilityStage, NodeId, QuietCtx, Topology, TopologyBuilder, World,
};
use manet_telemetry::Probe;
use manet_util::Rng;

const SIDE: f64 = 200.0;
const RADIUS: f64 = 40.0;
const N: usize = 60;
const DT: f64 = 0.25;

fn world(churn: ChurnSchedule) -> World {
    let mut rng = Rng::seed_from_u64(17);
    let mobility = EpochRandomDirection::new(SquareRegion::new(SIDE), N, 4.0, 15.0, &mut rng);
    let fault = FaultPlan {
        loss: LossModel::Ideal,
        churn,
        seed: 0,
    };
    World::try_new(
        Box::new(mobility),
        RADIUS,
        DT,
        Metric::toroidal(SIDE),
        MessageSizes::default(),
        17,
        fault,
    )
    .unwrap()
}

/// A builder that notes whether its output carried the kernel's flips
/// from its previous output: exactly the ticks on which `World` takes
/// the flips, masked when a node is or was down, instead of the row diff.
struct Watched<B> {
    inner: B,
    /// The stamp of the previous output, before the world masked it.
    last: u64,
    chained: bool,
}

impl<B> Watched<B> {
    fn new(inner: B) -> Self {
        Watched {
            inner,
            last: 0,
            chained: false,
        }
    }
}

impl<B> MobilityStage for Watched<B> {}

impl<B: TopologyBuilder> TopologyBuilder for Watched<B> {
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
        self.chained = out.events_since(self.last).is_some();
        self.last = out.stamp();
    }
}

/// What a run saw: churn counts, and the ticks that took the kernel's
/// flips, in all and with a crash or recovery on the tick.
#[derive(Debug, Default)]
struct Seen {
    crashed: usize,
    recovered: usize,
    events: usize,
    chained: usize,
    churn_chained: usize,
    churn_ticks: usize,
}

/// Steps `world` `ticks` times through `builder`, calling `each` after
/// every tick. Every tick takes a fresh stamp and carries its events from
/// the previous topology, and those events are the row diff, computed
/// here.
fn run<B: TopologyBuilder>(
    world: &mut World,
    builder: &mut Watched<B>,
    ticks: usize,
    mut each: impl FnMut(&World),
) -> Seen {
    let mut q = QuietCtx::new();
    let mut diff = Vec::new();
    let mut seen = Seen::default();
    for tick in 1..=ticks {
        let prev = world.topology().clone();
        let report = world.step_staged(&mut q.ctx(), builder);
        assert_ne!(world.topology().stamp(), prev.stamp());
        let carried = world.topology().events_since(prev.stamp());
        assert_eq!(carried, Some(world.last_events()), "tick {tick}");
        diff.clear();
        prev.diff_into(world.topology(), &mut diff);
        assert_eq!(world.last_events(), &diff[..], "tick {tick}");
        seen.crashed += report.crashed;
        seen.recovered += report.recovered;
        seen.events += diff.len();
        seen.chained += usize::from(builder.chained);
        if report.crashed + report.recovered > 0 {
            seen.churn_ticks += 1;
            seen.churn_chained += usize::from(builder.chained);
        }
        each(world);
    }
    seen
}

fn poisson_world() -> World {
    world(ChurnSchedule::poisson(N, 0.05, 2.0, 60.0, 3).unwrap())
}

#[test]
fn the_topology_carries_each_ticks_events_under_churn() {
    let mut world = poisson_world();
    // A bare kernel advanced alongside tells which ticks the schedule
    // may run on, and so which may carry flips from the tick before.
    let mut schedule = FrameGrid::default();
    schedule.configure(SIDE, SIDE, RADIUS, Metric::toroidal(SIDE));
    let (mut listed, mut chainable, mut last) = (0, 0, false);
    let seen = run(&mut world, &mut Watched::new(GridTopology), 240, |w| {
        let now = schedule.advance(w.positions()).is_some();
        listed += usize::from(now);
        chainable += usize::from(now && last);
        last = now;
    });
    assert!(
        seen.crashed > 0 && seen.recovered > 0 && seen.events > 0,
        "{seen:?}"
    );
    assert!(listed >= 238, "the schedule could run on {listed} ticks");
    // Every tick that may take the flips does, churn or not.
    assert_eq!(seen.chained, chainable, "{seen:?}");
    assert!(seen.churn_chained > 100, "{seen:?}");
}

/// The same churned world on a 2x2 shard plane, whose rows come from its
/// shards with no flips: every tick takes the row diff.
#[test]
fn a_multi_shard_plane_takes_the_row_diff_under_churn() {
    let mut world = poisson_world();
    let plane = ShardPlane::for_world(&world, ShardDims::new(2, 2))
        .unwrap()
        .with_workers(1);
    let seen = run(&mut world, &mut Watched::new(plane), 240, |_| {});
    assert!(seen.crashed > 0 && seen.recovered > 0, "{seen:?}");
    assert_eq!(seen.chained, 0, "{seen:?}");
}

/// The first pair `(a, b)` linked, before any crash mask, on each tick of
/// `ticks` and on the tick before it.
fn linked_pair(ticks: &[usize]) -> (NodeId, NodeId) {
    let mut plain = world(ChurnSchedule::none());
    let mut q = QuietCtx::new();
    let mut topologies = vec![plain.topology().clone()];
    for _ in 0..*ticks.iter().max().unwrap() {
        plain.step(&mut q.ctx());
        topologies.push(plain.topology().clone());
    }
    let linked = |a, b| {
        ticks
            .iter()
            .all(|&k| topologies[k].are_linked(a, b) && topologies[k - 1].are_linked(a, b))
    };
    let pair = topologies[ticks[0]].links().find(|&(a, b)| linked(a, b));
    pair.expect("a pair linked on every tick asked for")
}

/// A churn event at the time of tick `k`.
fn at(k: usize, node: NodeId, kind: ChurnKind) -> ChurnEvent {
    ChurnEvent {
        time: k as f64 * DT,
        node,
        kind,
    }
}

/// Runs the world under `events` for 100 ticks: events equal the row
/// diff on every tick, and each tick with a crash or recovery took the
/// kernel's flips through the mask.
fn run_schedule(events: Vec<ChurnEvent>, crashes: usize, recoveries: usize) {
    let mut world = world(ChurnSchedule::new(events));
    let seen = run(&mut world, &mut Watched::new(GridTopology), 100, |_| {});
    assert_eq!(
        (seen.crashed, seen.recovered),
        (crashes, recoveries),
        "{seen:?}"
    );
    assert_eq!(seen.churn_chained, seen.churn_ticks, "{seen:?}");
}

#[test]
fn two_linked_nodes_crash_on_one_tick() {
    let (a, b) = linked_pair(&[40]);
    run_schedule(
        vec![
            at(40, a, ChurnKind::Crash),
            at(40, b, ChurnKind::Crash),
            at(60, a, ChurnKind::Recover),
            at(64, b, ChurnKind::Recover),
        ],
        2,
        2,
    );
}

#[test]
fn two_linked_nodes_recover_on_one_tick() {
    let (a, b) = linked_pair(&[50]);
    run_schedule(
        vec![
            at(30, a, ChurnKind::Crash),
            at(34, b, ChurnKind::Crash),
            at(50, a, ChurnKind::Recover),
            at(50, b, ChurnKind::Recover),
        ],
        2,
        2,
    );
}

#[test]
fn a_node_crashes_on_the_tick_its_neighbor_recovers() {
    let (a, b) = linked_pair(&[50]);
    run_schedule(
        vec![
            at(30, b, ChurnKind::Crash),
            at(50, b, ChurnKind::Recover),
            at(50, a, ChurnKind::Crash),
            at(70, a, ChurnKind::Recover),
        ],
        2,
        2,
    );
}
