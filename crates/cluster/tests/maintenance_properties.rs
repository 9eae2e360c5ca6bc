//! Property and long-run integration tests for the maintenance engine.

use manet_cluster::{
    ClusterStats, Clustering, DHopClustering, HighestConnectivity, LowestId, MaintenanceOutcome,
    Role, StaticWeights,
};
use manet_sim::{MobilityKind, QuietCtx, SimBuilder};
use manet_util::Rng;

/// Invariants hold at every tick of a mobile world, for every policy.
#[test]
fn invariants_hold_through_motion_for_all_policies() {
    for (name, seed) in [("lid", 1u64), ("hcc", 2), ("weights", 3)] {
        let mut world = SimBuilder::new()
            .side(600.0)
            .nodes(120)
            .radius(120.0)
            .speed(15.0)
            .dt(0.5)
            .seed(seed)
            .build();
        match name {
            "lid" => {
                let mut c = Clustering::form(LowestId, world.topology());
                let mut q = QuietCtx::new();
                for _ in 0..200 {
                    world.step(&mut q.ctx());
                    c.maintain(world.topology(), &mut q.ctx());
                    c.check_invariants(world.topology())
                        .unwrap_or_else(|e| panic!("{name}: {e}"));
                }
            }
            "hcc" => {
                let mut c = Clustering::form(HighestConnectivity, world.topology());
                let mut q = QuietCtx::new();
                for _ in 0..200 {
                    world.step(&mut q.ctx());
                    c.maintain(world.topology(), &mut q.ctx());
                    c.check_invariants(world.topology())
                        .unwrap_or_else(|e| panic!("{name}: {e}"));
                }
            }
            _ => {
                let weights = (0..120).map(|i| ((i * 37) % 17) as f64).collect();
                let mut c = Clustering::form(StaticWeights::new(weights), world.topology());
                let mut q = QuietCtx::new();
                for _ in 0..200 {
                    world.step(&mut q.ctx());
                    c.maintain(world.topology(), &mut q.ctx());
                    c.check_invariants(world.topology())
                        .unwrap_or_else(|e| panic!("{name}: {e}"));
                }
            }
        }
    }
}

/// A static world never generates maintenance traffic.
#[test]
fn static_world_is_silent() {
    let mut world = SimBuilder::new().nodes(150).speed(0.0).seed(4).build();
    let mut c = Clustering::form(LowestId, world.topology());
    let mut total = MaintenanceOutcome::default();
    let mut q = QuietCtx::new();
    for _ in 0..50 {
        world.step(&mut q.ctx());
        total.absorb(c.maintain(world.topology(), &mut q.ctx()));
    }
    assert_eq!(total.total_messages(), 0);
}

/// LCC stability: per-node CLUSTER rate is well below the per-node link
/// change rate (most link events do not touch the cluster structure).
#[test]
fn cluster_messages_are_sparser_than_link_events() {
    let mut world = SimBuilder::new().nodes(200).seed(5).build();
    let mut c = Clustering::form(LowestId, world.topology());
    world.begin_measurement();
    let mut msgs = 0u64;
    let mut q = QuietCtx::new();
    for _ in 0..800 {
        world.step(&mut q.ctx());
        msgs += c.maintain(world.topology(), &mut q.ctx()).total_messages();
    }
    let events = world.counters().links_generated() + world.counters().links_broken();
    assert!(events > 0);
    assert!(
        (msgs as f64) < 0.8 * events as f64,
        "CLUSTER msgs {msgs} not sparse vs link events {events}"
    );
}

/// Formation-stage LID head ratio is bracketed by its two analytical
/// anchors. LID formation is exactly random-order greedy maximal
/// independent set construction (ids are uniform relative to geometry), so
/// its head ratio must exceed the Caro–Wei first-round bound
/// `E[1/(deg+1)] ≈ 1/(d+1)` and — empirically, and relevant to judging the
/// paper's Section 5 — falls well below the paper's mean-field
/// approximation `P ≈ 1/√(d+1)` (Eqn 17). EXPERIMENTS.md discusses this
/// gap; the paper itself reports its Fig 5 analysis and simulation curves
/// crossing.
#[test]
fn lid_formation_head_ratio_is_bracketed_by_caro_wei_and_eqn17() {
    let mut ratios = Vec::new();
    let mut degrees = Vec::new();
    for seed in 0..12u64 {
        let world = SimBuilder::new()
            .nodes(400)
            .radius(150.0)
            .seed(seed)
            .build();
        let c = Clustering::form(LowestId, world.topology());
        c.check_invariants(world.topology()).unwrap();
        ratios.push(c.head_ratio());
        degrees.push(world.topology().mean_degree());
    }
    let mean_p: f64 = ratios.iter().sum::<f64>() / ratios.len() as f64;
    let d: f64 = degrees.iter().sum::<f64>() / degrees.len() as f64;
    let caro_wei = 1.0 / (d + 1.0);
    let eqn17 = 1.0 / (d + 1.0).sqrt();
    assert!(
        mean_p > caro_wei,
        "greedy MIS must beat Caro–Wei: P {mean_p:.4} vs {caro_wei:.4}"
    );
    assert!(
        mean_p < eqn17,
        "paper's Eqn 17 overestimates formation P: {mean_p:.4} vs {eqn17:.4}"
    );
}

/// Maintained steady-state head ratio stays in the neighborhood of the
/// formation-stage ratio (head deaths by contact balance head births from
/// stranded members).
#[test]
fn maintained_head_ratio_stays_near_formation_level() {
    let mut world = SimBuilder::new().nodes(400).radius(150.0).seed(6).build();
    let mut c = Clustering::form(LowestId, world.topology());
    let formation_p = c.head_ratio();
    let mut ratios = Vec::new();
    let mut q = QuietCtx::new();
    for t in 0..600 {
        world.step(&mut q.ctx());
        c.maintain(world.topology(), &mut q.ctx());
        if t >= 200 && t % 20 == 0 {
            ratios.push(c.head_ratio());
        }
    }
    let steady_p: f64 = ratios.iter().sum::<f64>() / ratios.len() as f64;
    assert!(
        steady_p > 0.5 * formation_p && steady_p < 1.5 * formation_p,
        "steady P {steady_p:.4} vs formation P {formation_p:.4}"
    );
}

/// Under random-waypoint mobility (bounded region, Euclidean metric) the
/// engine still preserves invariants — exercises the non-torus path.
#[test]
fn invariants_hold_under_random_waypoint() {
    let mut world = SimBuilder::new()
        .nodes(100)
        .speed(20.0)
        .mobility(MobilityKind::RandomWaypoint { pause: 1.0 })
        .seed(7)
        .build();
    let mut c = Clustering::form(LowestId, world.topology());
    let mut q = QuietCtx::new();
    for _ in 0..300 {
        world.step(&mut q.ctx());
        c.maintain(world.topology(), &mut q.ctx());
        c.check_invariants(world.topology()).unwrap();
    }
    let stats = ClusterStats::measure(&c);
    assert_eq!(stats.node_count, 100);
    assert!(stats.cluster_count >= 1);
}

/// Invariants and message accounting through one evolution of a small
/// moving world: P1/P2 hold after every pass, heads equal clusters, every
/// member's head is a head, and a static world stays silent.
fn repairs_evolution(seed: u64, n: usize, radius: f64, speed: f64) {
    let case = format!("seed {seed}, n {n}, radius {radius}, speed {speed}");
    let mut world = SimBuilder::new()
        .side(400.0)
        .nodes(n)
        .radius(radius)
        .speed(speed)
        .dt(1.0)
        .seed(seed)
        .build();
    let mut c = Clustering::form(LowestId, world.topology());
    assert_eq!(c.check_invariants(world.topology()), Ok(()), "{case}");
    let mut total = MaintenanceOutcome::default();
    let mut q = QuietCtx::new();
    for _ in 0..30 {
        world.step(&mut q.ctx());
        total.absorb(c.maintain(world.topology(), &mut q.ctx()));
        assert_eq!(c.check_invariants(world.topology()), Ok(()), "{case}");
    }
    let heads = c.roles().iter().filter(|r| r.is_head()).count();
    assert_eq!(heads, c.clusters().len(), "{case}");
    for (u, r) in c.roles().iter().enumerate() {
        if let Role::Member { head } = r {
            assert!(c.is_head(*head), "{case}: node {u} has non-head head");
        }
    }
    if speed == 0.0 {
        assert_eq!(total.total_messages(), 0, "{case}: static world");
    }
}

/// Invariants and accounting over 24 seeded small worlds (2–59 nodes,
/// radius 30–250 m, speed 0–40 m/s), plus a static world.
#[test]
fn maintenance_repairs_seeded_evolutions() {
    let mut rng = Rng::seed_from_u64(24);
    for _ in 0..24 {
        let seed = rng.u64();
        let n = 2 + rng.usize_below(58);
        let radius = rng.f64_range(30.0..250.0);
        let speed = rng.f64_range(0.0..40.0);
        repairs_evolution(seed, n, radius, speed);
    }
    repairs_evolution(rng.u64(), 40, 100.0, 0.0);
}

/// d-hop invariants (P1(d) and P2(d)) hold through motion: 48 seeded
/// worlds of 10–59 nodes, d = 1–3.
#[test]
fn dhop_invariants_hold_through_motion() {
    let mut rng = Rng::seed_from_u64(48);
    for _ in 0..48 {
        let seed = rng.u64();
        let n = 10 + rng.usize_below(50);
        let hops = 1 + rng.usize_below(3);
        let case = format!("seed {seed}, n {n}, hops {hops}");
        let mut world = SimBuilder::new()
            .side(400.0)
            .nodes(n)
            .radius(80.0)
            .speed(20.0)
            .dt(1.0)
            .seed(seed)
            .build();
        let mut c = DHopClustering::form(&LowestId, world.topology(), hops);
        assert_eq!(c.check_invariants(world.topology()), Ok(()), "{case}");
        let mut q = QuietCtx::new();
        for _ in 0..20 {
            world.step(&mut q.ctx());
            c.maintain(&LowestId, world.topology(), &mut q.ctx());
            assert_eq!(c.check_invariants(world.topology()), Ok(()), "{case}");
        }
    }
}

/// Max-Min formation satisfies P2(d) and partitions the nodes (every
/// head heads itself): 48 seeded 80-node geometries, d = 1–3.
#[test]
fn max_min_always_satisfies_p2() {
    let mut rng = Rng::seed_from_u64(4848);
    for _ in 0..48 {
        let seed = rng.u64();
        let hops = 1 + rng.usize_below(3);
        let case = format!("seed {seed}, hops {hops}");
        let world = SimBuilder::new()
            .side(400.0)
            .nodes(80)
            .radius(70.0)
            .seed(seed)
            .build();
        let c = DHopClustering::form_max_min(world.topology(), hops);
        assert_eq!(c.check_invariants(world.topology()), Ok(()), "{case}");
        for &h in c.assignments() {
            assert_eq!(c.assignments()[h as usize], h, "{case}");
        }
    }
}
