//! The protocol stack on a shard plane: a `ProtocolStack` whose stage
//! bundle is a [`ShardPlane`] (`stack.with_stages(plane)`) ticks exactly
//! like the monolithic stack at every layout, and a `1x1` plane under a
//! stall schedule still hands `World` exact rows and link events.

use manet_cluster::{Backoff, Clustering, LowestId, SelfHealing};
use manet_geom::ShardDims;
use manet_routing::intra::IntraClusterRouting;
use manet_shard::{default_workers, InterconnectConfig, ShardPlane, ShardStats};
use manet_sim::{
    ChurnSchedule, FaultPlan, HelloMode, HelloProtocol, LossModel, MobilityKind, QuietCtx,
    SimBuilder, StallEvent, StallSchedule, StepCtx, World,
};
use manet_stack::{ClusterLayer, ProtocolStack, RouteLayer};
use manet_telemetry::{Event, EventKind, Probe};

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

/// `stack` on a plane of `dims` sized for its world.
fn on_plane<C: ClusterLayer, R: RouteLayer>(
    stack: ProtocolStack<C, R>,
    dims: ShardDims,
) -> ProtocolStack<C, R, ShardPlane> {
    let plane = ShardPlane::for_world(stack.world(), dims).unwrap();
    stack.with_stages(plane)
}

/// Ticks `mono` (on `MonoStages`) and `sharded` side by side, requiring
/// equal reports every tick and equal end states.
fn assert_lockstep<C: ClusterLayer, R: RouteLayer>(
    mut mono: ProtocolStack<C, R>,
    mut sharded: ProtocolStack<C, R, ShardPlane>,
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
            let sharded = on_plane(ideal(world(42, mobility, false)), dims);
            let mono = ideal(world(42, mobility, false));
            assert_lockstep(mono, sharded, &format!("ideal {what}"));
            let sharded = on_plane(faulty(world(42, mobility, true)), dims);
            let mono = faulty(world(42, mobility, true));
            assert_lockstep(mono, sharded, &format!("faulty {what}"));
        }
    }
}

/// `with_stages` installs the plane and `stages()` reads it back: the
/// stack's ticks reach it (its per-tick statistics follow the world),
/// and the stack's own accessors still reach the world and the layers.
#[test]
fn accessors_reach_both_halves() {
    let w = world(7, MobilityKind::EpochRandomDirection { epoch: 20.0 }, false);
    let plane = ShardPlane::for_world(&w, ShardDims::parse("2x2").unwrap())
        .unwrap()
        .with_workers(1);
    let mut s = ideal(w).with_stages(plane);
    assert_eq!(s.stages().report().shards, 4);
    assert_eq!(s.stages().report().max_owned, 0, "no tick yet");
    let mut q = QuietCtx::new();
    s.prime(&mut q.ctx());
    s.tick(&mut q.ctx());
    assert_eq!(s.stages().layout().count(), 4);
    assert_eq!(s.stages().workers(), 1);
    let owned: usize = s.stages().shard_stats().map(|st| st.owned).sum();
    assert_eq!(owned, NODES, "the tick ran on the plane");
    assert!(s.world().time() > 0.0);
    assert!(s.cluster().head_count() > 0);
    let (world, ..) = s.into_parts();
    assert!(world.time() > 0.0);
}

/// A world-only warmup on the plane advances exactly like
/// `World::run_for` and leaves the layers untouched.
#[test]
fn world_warmup_matches_the_monolithic_world() {
    let mobility = MobilityKind::EpochRandomDirection { epoch: 20.0 };
    let mut mono = world(3, mobility, false);
    let mut sharded = on_plane(ideal(world(3, mobility, false)), ShardDims::unit());
    let heads = sharded.cluster().head_count();
    let mut q = QuietCtx::new();
    mono.run_for(20.0, &mut q.ctx());
    sharded.run_world_for(20.0, &mut q.ctx());
    assert_eq!(mono.time(), sharded.world().time());
    assert_eq!(mono.topology(), sharded.world().topology());
    assert_eq!(mono.counters(), sharded.world().counters());
    assert_eq!(sharded.cluster().head_count(), heads);
    assert_eq!(sharded.stages().report().max_owned, NODES);
}

/// The default worker pool is one thread per shard up to the host
/// parallelism, so a single-shard plane runs inline.
#[test]
fn default_workers_follow_the_layout() {
    let w = world(5, MobilityKind::EpochRandomDirection { epoch: 20.0 }, false);
    let unit = on_plane(ideal(w), ShardDims::unit());
    assert_eq!(unit.stages().workers(), 1);
    let w = world(5, MobilityKind::EpochRandomDirection { epoch: 20.0 }, false);
    let quad = on_plane(ideal(w), ShardDims::parse("2x2").unwrap());
    assert_eq!(quad.stages().workers(), default_workers(4));
    assert!((1..=4).contains(&quad.stages().workers()));
}

/// A layout too fine for the radius is a construction-time error.
#[test]
fn oversharded_world_is_rejected() {
    let w = world(1, MobilityKind::EpochRandomDirection { epoch: 20.0 }, false);
    assert!(ShardPlane::for_world(&w, ShardDims::parse("16x16").unwrap()).is_err());
}

/// A `1x1` plane with shard 0 stalled twice: every tick emits one
/// `InterconnectStalled` event exactly at each stall's onset, and still
/// gives the rows, link events and report of `World::step` on an
/// identical world; its statistics own every node, with no ghosts, no
/// migrations and no boundary links (it builds no frame). The world
/// moves a tenth of the skin per tick, so the kernel's link
/// schedule runs and hands its flips on, stall or not.
#[test]
fn unit_plane_under_a_stall_schedule_matches_world_step() {
    let build = || {
        SimBuilder::new()
            .nodes(150)
            .side(600.0)
            .radius(120.0)
            .dt(0.25)
            .seed(31)
            .build()
    };
    let stalls = [(5, 12), (40, 3)];
    let stall = |(tick, ticks)| StallEvent {
        tick,
        shard: 0,
        ticks,
    };
    let config = InterconnectConfig {
        stall: StallSchedule::new(stalls.into_iter().map(stall).collect()),
        ..InterconnectConfig::default()
    };
    let (mut mono, mut planed) = (build(), build());
    let mut plane = ShardPlane::for_world(&planed, ShardDims::unit())
        .unwrap()
        .with_interconnect(config)
        .unwrap();
    let mut q = QuietCtx::new();
    for tick in 0..80 {
        let a = mono.step(&mut q.ctx());
        let mut events: Vec<Event> = Vec::new();
        let mut probe = Probe::new(Some(&mut events));
        let b = planed.step_staged(&mut StepCtx::new(&mut probe), &mut plane);
        assert_eq!(a, b, "tick {tick}: step report");
        assert_eq!(mono.topology(), planed.topology(), "tick {tick}: rows");
        assert_eq!(mono.last_events(), planed.last_events(), "tick {tick}");
        assert_eq!(plane.interconnect().tick(), tick);

        let onsets = events.iter().filter_map(|e| match e.kind {
            EventKind::InterconnectStalled { shard, ticks } => Some((shard, ticks)),
            _ => None,
        });
        let expected = stalls.iter().filter(|s| s.0 == tick);
        let expected = expected.map(|&(_, ticks)| (0, u64::from(ticks)));
        assert!(onsets.eq(expected), "tick {tick}: stall onsets");

        let stats = ShardStats {
            owned: 150,
            ..ShardStats::default()
        };
        assert!(plane.shard_stats().eq([stats]), "tick {tick}: shard stats");
    }
}
