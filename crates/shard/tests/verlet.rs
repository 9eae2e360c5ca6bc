//! The unit-disk kernel's Verlet candidate lists against an O(N²)
//! `Metric::within` reference, tick by tick.
//!
//! Both fresh-frame owners keep lists: `SpatialGrid` (behind
//! `GridTopology` and `World::step`) and the `1x1` shard plane. Every
//! case drives both through the same position sequence and requires the
//! exact pairwise rows on every tick: mobility models that rotate the
//! lists many times over, a world fast enough to fall back to the plain
//! sweep, and the adversarial ones — a scratch shared by two worlds,
//! static nodes, jumping positions, churn, and a reach past half the
//! side. The plane's boundary-link count is checked against a
//! brute-force count of the links whose minimum image wraps.

use manet_geom::{candidate_reach, FrameGrid, Metric, ShardDims, SpatialGrid, SquareRegion, Vec2};
use manet_mobility::{EpochRandomDirection, Mobility, RandomWalk, RandomWaypoint};
use manet_shard::ShardPlane;
use manet_sim::{
    ChurnSchedule, FaultPlan, HelloMode, LossModel, NodeId, QuietCtx, SimBuilder, Topology,
    TopologyBuilder,
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

/// The O(N²) reference rows: every ordered pair through `Metric::within`.
fn brute_rows(positions: &[Vec2], radius: f64, metric: Metric) -> Vec<Vec<NodeId>> {
    (0..positions.len())
        .map(|i| {
            (0..positions.len() as NodeId)
                .filter(|&j| {
                    j as usize != i && metric.within(positions[i], positions[j as usize], radius)
                })
                .collect()
        })
        .collect()
}

/// Links `u < v` whose minimum image wraps the torus seam.
fn wrapped_links(positions: &[Vec2], radius: f64, side: f64) -> usize {
    let metric = Metric::toroidal(side);
    let mut count = 0;
    for (u, &a) in positions.iter().enumerate() {
        for &b in &positions[u + 1..] {
            let wraps = (a.x - b.x).abs() > side / 2.0 || (a.y - b.y).abs() > side / 2.0;
            count += usize::from(wraps && metric.within(a, b, radius));
        }
    }
    count
}

/// The two fresh-frame owners, fed one position set per tick.
struct Owners {
    region: SquareRegion,
    radius: f64,
    metric: Metric,
    grid: SpatialGrid,
    plane: ShardPlane,
    /// A bare kernel advanced alongside, to tell which ticks may use the
    /// candidate lists.
    probe: FrameGrid,
    list_ticks: usize,
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
            plane,
            probe,
            list_ticks: 0,
        }
    }

    /// Checks both owners' rows on `positions` against the reference.
    fn check(&mut self, positions: &[Vec2], case: &str, tick: usize) {
        let expected = brute_rows(positions, self.radius, self.metric);
        let mut rows = vec![vec![NodeId::MAX; 2]; positions.len()];
        self.grid
            .neighbor_rows(positions, self.region, self.radius, self.metric, &mut rows);
        assert_eq!(rows, expected, "{case}: SpatialGrid rows at tick {tick}");
        let mut topo = Topology::default();
        self.plane.build_into(
            positions,
            self.region,
            self.radius,
            self.metric,
            &mut None,
            &mut topo,
            &mut Probe::off(),
            0.0,
        );
        for (i, row) in expected.iter().enumerate() {
            assert_eq!(
                topo.neighbors(i as NodeId),
                &row[..],
                "{case}: 1x1 plane row {i} at tick {tick}"
            );
        }
        if let Metric::Toroidal { side } = self.metric {
            let stats = self.plane.shard_stats().next().unwrap();
            assert_eq!(
                stats.boundary_links,
                wrapped_links(positions, self.radius, side),
                "{case}: 1x1 boundary links at tick {tick}"
            );
        }
        let eligible = candidate_reach(self.radius, self.region.side()).is_some();
        if self.probe.advance(positions).is_some() && eligible {
            self.list_ticks += 1;
        }
    }
}

/// Runs `mobility` for `TICKS` ticks of `dt` under `metric` and returns
/// how many ticks could use candidate lists.
fn run_model(case: &str, mut mobility: Box<dyn Mobility>, dt: f64, metric: Metric) -> usize {
    let mut owners = Owners::new(mobility.region(), RADIUS, metric);
    let mut rng = Rng::seed_from_u64(17);
    for tick in 0..TICKS {
        owners.check(mobility.positions(), case, tick);
        mobility.step(dt, &mut rng);
    }
    owners.list_ticks
}

/// Every tick equals the reference on the paper's mobility model and on
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
/// rotation period swings every tick and only the drift budget keeps the
/// lists exact, with jumps to fresh random placements in between.
#[test]
fn varying_speeds_and_jumps_keep_rows_exact() {
    for metric in [Metric::Euclidean, Metric::toroidal(side())] {
        let region = SquareRegion::new(side());
        let mut owners = Owners::new(region, RADIUS, metric);
        let mut rng = Rng::seed_from_u64(29);
        let mut positions: Vec<Vec2> = (0..N).map(|_| region.sample_uniform(&mut rng)).collect();
        for tick in 0..4 * TICKS {
            owners.check(&positions, &format!("varying {metric:?}"), tick);
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
    }
}

/// Static nodes: the lists built once stay exact forever.
#[test]
fn static_nodes_keep_exact_rows() {
    let region = SquareRegion::new(side());
    let mut rng = Rng::seed_from_u64(3);
    let positions: Vec<Vec2> = (0..N).map(|_| region.sample_uniform(&mut rng)).collect();
    for metric in [Metric::Euclidean, Metric::toroidal(side())] {
        let mut owners = Owners::new(region, RADIUS, metric);
        for tick in 0..TICKS {
            owners.check(&positions, "static", tick);
        }
        assert_eq!(owners.list_ticks, TICKS - 1);
    }
}

/// From `r + s ≥ side/2` on the owners sweep plainly, still exactly.
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
            owners.check(erd.positions(), "wide reach", tick);
            erd.step(0.25, &mut rng);
        }
        assert_eq!(owners.list_ticks, 0);
    }
}

/// One scratch stepped through two worlds of the same size: each world's
/// topology stays exact, however the kernel's history interleaves.
#[test]
fn one_scratch_through_two_worlds() {
    let build = |seed| {
        SimBuilder::new()
            .nodes(N)
            .side(side())
            .radius(RADIUS)
            .speed(10.0)
            .dt(0.25)
            .seed(seed)
            .hello_mode(HelloMode::Disabled)
            .build()
    };
    let (mut a, mut b) = (build(1), build(2));
    let mut quiet = QuietCtx::new();
    for tick in 0..TICKS {
        // A run of ticks on one world, then the other.
        let world = if (tick / 7) % 2 == 0 { &mut a } else { &mut b };
        world.step(&mut quiet.ctx());
        let expected = brute_rows(world.positions(), RADIUS, world.metric());
        for (i, row) in expected.iter().enumerate() {
            assert_eq!(
                world.topology().neighbors(i as NodeId),
                &row[..],
                "tick {tick}: node {i}"
            );
        }
    }
}

/// Churn crashes and recovers nodes after the build: `World::step` and
/// the 1x1 plane both give the reference rows less the dead nodes.
#[test]
fn churn_crash_and_recover_keep_rows_exact() {
    let build = || {
        let churn = ChurnSchedule::poisson(N, 0.05, 2.0, 40.0, 0xC4).unwrap();
        assert!(!churn.is_empty());
        SimBuilder::new()
            .nodes(N)
            .side(side())
            .radius(RADIUS)
            .speed(10.0)
            .dt(0.25)
            .seed(9)
            .hello_mode(HelloMode::Disabled)
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
    let (mut qa, mut qb) = (QuietCtx::new(), QuietCtx::new());
    let (mut crashed, mut recovered) = (0, 0);
    for tick in 0..3 * TICKS {
        let report = mono.step(&mut qa.ctx());
        planed.step_staged(&mut qb.ctx(), &mut plane);
        crashed += report.crashed;
        recovered += report.recovered;
        let alive = mono.alive();
        let expected = brute_rows(mono.positions(), RADIUS, mono.metric());
        for (i, row) in expected.iter().enumerate() {
            let live: Vec<NodeId> = if alive[i] {
                row.iter().copied().filter(|&j| alive[j as usize]).collect()
            } else {
                Vec::new()
            };
            assert_eq!(
                mono.topology().neighbors(i as NodeId),
                &live[..],
                "tick {tick}"
            );
            assert_eq!(
                planed.topology().neighbors(i as NodeId),
                &live[..],
                "tick {tick}"
            );
        }
    }
    assert!(
        crashed > 0 && recovered > 0,
        "{crashed} crashed, {recovered} recovered"
    );
}
