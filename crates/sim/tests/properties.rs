//! Seeded property tests for the simulator's link tracking and
//! accounting: 24 worlds per property, drawn from a fixed-seed
//! `manet_util::Rng`, so a failure names a case that reproduces exactly.

use manet_sim::{LinkEventKind, MessageKind, MobilityKind, QuietCtx, SimBuilder};
use manet_util::Rng;
use std::collections::BTreeSet;

/// Replaying the event stream from the initial topology reconstructs
/// the final topology (events are a complete, consistent diff).
#[test]
fn event_stream_reconstructs_topology() {
    let mut rng = Rng::seed_from_u64(1);
    for _ in 0..24 {
        let seed = rng.u64();
        let n = 5 + rng.usize_below(75);
        let speed = rng.f64_range(0.0..40.0);
        let case = format!("seed {seed}, n {n}, speed {speed}");
        let mut world = SimBuilder::new()
            .side(500.0)
            .nodes(n)
            .radius(90.0)
            .speed(speed)
            .dt(1.0)
            .seed(seed)
            .build();
        let mut links: BTreeSet<(u32, u32)> = world.topology().links().collect();
        let mut q = QuietCtx::new();
        for _ in 0..30 {
            world.step(&mut q.ctx());
            for e in world.last_events() {
                let key = (e.a, e.b);
                match e.kind {
                    LinkEventKind::Generated => {
                        assert!(links.insert(key), "{case}: duplicate generation {key:?}")
                    }
                    LinkEventKind::Broken => {
                        assert!(links.remove(&key), "{case}: break of unknown link {key:?}")
                    }
                }
            }
            let now: BTreeSet<(u32, u32)> = world.topology().links().collect();
            assert_eq!(links, now, "{case}");
        }
    }
}

/// HELLO accounting identity: event-driven beacons are exactly two per
/// link generation, and byte counts follow the size table.
#[test]
fn hello_accounting_identity() {
    let mut rng = Rng::seed_from_u64(2);
    for _ in 0..24 {
        let seed = rng.u64();
        let n = 5 + rng.usize_below(55);
        let mut world = SimBuilder::new()
            .side(400.0)
            .nodes(n)
            .radius(80.0)
            .speed(15.0)
            .dt(0.5)
            .seed(seed)
            .build();
        let mut q = QuietCtx::new();
        for _ in 0..40 {
            world.step(&mut q.ctx());
        }
        let gens = world.counters().links_generated();
        let case = format!("seed {seed}, n {n}");
        assert_eq!(
            world.counters().messages(MessageKind::Hello),
            2 * gens,
            "{case}"
        );
        assert_eq!(
            world.counters().bytes(MessageKind::Hello),
            2 * gens * world.sizes().hello as u64,
            "{case}"
        );
    }
}

/// Degrees are symmetric and bounded by N−1 under every mobility model.
#[test]
fn topology_stays_consistent() {
    let mut rng = Rng::seed_from_u64(3);
    for _ in 0..24 {
        let seed = rng.u64();
        let mobility = match rng.usize_below(4) {
            0 => MobilityKind::EpochRandomDirection { epoch: 10.0 },
            1 => MobilityKind::ConstantVelocity,
            2 => MobilityKind::RandomWaypoint { pause: 0.5 },
            _ => MobilityKind::RandomWalk {
                min_leg: 2.0,
                max_leg: 8.0,
            },
        };
        let case = format!("seed {seed}, {mobility:?}");
        let n = 40usize;
        let mut world = SimBuilder::new()
            .side(300.0)
            .nodes(n)
            .radius(70.0)
            .speed(12.0)
            .dt(0.5)
            .seed(seed)
            .mobility(mobility)
            .build();
        let mut q = QuietCtx::new();
        for _ in 0..20 {
            world.step(&mut q.ctx());
            let topo = world.topology();
            for u in 0..n as u32 {
                assert!(topo.degree(u) < n, "{case}");
                for &w in topo.neighbors(u) {
                    assert!(topo.are_linked(w, u), "{case}: asymmetric link {u}-{w}");
                    assert_ne!(w, u, "{case}: self link");
                }
            }
        }
    }
}
