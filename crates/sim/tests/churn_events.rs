//! `World::step`'s link events under churn, on a world slow enough for
//! the unit-disk kernel's link schedule: nodes move 1 m per tick against
//! a half skin of 4 m (r = 40 m), so the rotation period is `P = 4` and
//! the kernel records flips on nearly every tick. A crash or recovery
//! masks the rows after the kernel wrote them, so the world must never
//! take those flips as the tick's events.

use manet_geom::{FrameGrid, Metric, SquareRegion};
use manet_mobility::EpochRandomDirection;
use manet_sim::{ChurnSchedule, FaultPlan, HelloMode, LossModel, MessageSizes, QuietCtx, World};
use manet_util::Rng;

/// Every tick takes a fresh stamp and carries its events from the
/// previous topology, and those events are the row diff, computed here.
#[test]
fn the_topology_carries_each_ticks_events_under_churn() {
    let (side, radius, n) = (200.0, 40.0, 60);
    let metric = Metric::toroidal(side);
    let mut rng = Rng::seed_from_u64(17);
    let mobility = EpochRandomDirection::new(SquareRegion::new(side), n, 4.0, 15.0, &mut rng);
    let fault = FaultPlan {
        loss: LossModel::Ideal,
        churn: ChurnSchedule::poisson(n, 0.05, 2.0, 60.0, 3).unwrap(),
        seed: 0,
    };
    let mut world = World::try_new(
        Box::new(mobility),
        radius,
        0.25,
        metric,
        HelloMode::EventDriven,
        MessageSizes::default(),
        17,
        fault,
    )
    .unwrap();
    // A bare kernel advanced alongside tells which ticks the schedule
    // may run on.
    let mut schedule = FrameGrid::default();
    schedule.configure(side, side, radius, metric);
    let mut q = QuietCtx::new();
    let mut diff = Vec::new();
    let (mut crashed, mut recovered, mut events, mut listed) = (0, 0, 0, 0);
    for tick in 0..240 {
        let prev = world.topology().clone();
        let report = world.step(&mut q.ctx());
        crashed += report.crashed;
        recovered += report.recovered;
        assert_ne!(world.topology().stamp(), prev.stamp());
        let carried = world.topology().events_since(prev.stamp());
        assert_eq!(carried, Some(world.last_events()), "tick {tick}");
        diff.clear();
        prev.diff_into(world.topology(), &mut diff);
        assert_eq!(world.last_events(), &diff[..], "tick {tick}");
        events += diff.len();
        listed += usize::from(schedule.advance(world.positions()).is_some());
    }
    assert!(
        crashed > 0 && recovered > 0 && events > 0,
        "{crashed} crashes, {recovered} recoveries, {events} events"
    );
    assert!(listed >= 238, "the schedule could run on {listed} ticks");
}
