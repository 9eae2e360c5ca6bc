//! EXT6 — cluster stability vs speed and policy: head lifetimes,
//! membership residence, role-change rates, and the Claim 2 link-lifetime
//! companion.

use crate::harness::{build_world, on_plane, run_measured, Scenario, WorldDriver};
use crate::trace::UNTRACED;
use manet_cluster::{ClusterPolicy, Clustering, HighestConnectivity, LowestId, StabilityTracker};
use manet_sim::{LinkLifetimes, QuietCtx};
use manet_stack::{NoRouting, ProtocolStack};
use manet_util::table::{fmt_sig, Table};

/// One measured stability row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StabilityRow {
    /// Node speed, m/s.
    pub speed: f64,
    /// Mean completed head lifetime, seconds.
    pub head_lifetime: f64,
    /// Mean completed membership residence, seconds.
    pub membership_residence: f64,
    /// Role changes per node per second.
    pub change_rate: f64,
    /// Mean link lifetime (context), seconds.
    pub link_lifetime: f64,
    /// Claim 2's implied mean link lifetime `π²r/(8v)`.
    pub link_lifetime_theory: f64,
}

fn run_policy<P: ClusterPolicy>(
    scenario: &Scenario,
    policy: P,
    speed: f64,
    measure: f64,
) -> StabilityRow {
    let scenario = Scenario { speed, ..*scenario };
    let world = build_world(&scenario, 0.25, 0x57AB);
    let clustering = Clustering::form(policy, world.topology());
    let stack = ProtocolStack::ideal(world, clustering, NoRouting);
    let mut stack = on_plane(stack, None);
    let mut quiet = QuietCtx::new();
    stack.run_world_for(40.0, &mut quiet.ctx());
    {
        let (world, clustering, _) = stack.split_mut();
        // stage-exempt: single-layer convergence probe, not the pipeline
        clustering.maintain(world.topology(), &mut quiet.ctx());
    }
    let mut tracker = StabilityTracker::new(stack.cluster(), stack.world().time());
    let mut links = LinkLifetimes::new();
    run_measured(&mut stack, 0.0, measure, None, UNTRACED, |stack, _, _| {
        let world = stack.world();
        tracker.observe(stack.cluster(), world.time());
        links.observe(world.time(), world.last_events());
    });
    StabilityRow {
        speed,
        head_lifetime: tracker.head_lifetimes().mean(),
        membership_residence: tracker.membership_residences().mean(),
        change_rate: tracker.change_rate(stack.world().measured_time()),
        link_lifetime: links.lifetimes().mean(),
        link_lifetime_theory: LinkLifetimes::claim2_mean_lifetime(scenario.radius, speed),
    }
}

/// Stability vs speed for the LID policy.
pub fn lid_speed_sweep(scenario: &Scenario, measure: f64) -> Vec<StabilityRow> {
    [5.0, 10.0, 20.0, 40.0]
        .into_iter()
        .map(|v| run_policy(scenario, LowestId, v, measure))
        .collect()
}

/// Stability at the default speed for LID vs HCC.
pub fn policy_comparison(scenario: &Scenario, measure: f64) -> Vec<(&'static str, StabilityRow)> {
    vec![
        (
            "lowest-id",
            run_policy(scenario, LowestId, scenario.speed, measure),
        ),
        (
            "highest-connectivity",
            run_policy(scenario, HighestConnectivity, scenario.speed, measure),
        ),
    ]
}

/// Renders the speed sweep.
pub fn speed_table(rows: &[StabilityRow]) -> Table {
    let mut t = Table::new([
        "v [m/s]",
        "head lifetime [s]",
        "membership [s]",
        "role changes /node/s",
        "link lifetime [s]",
        "pi^2 r/(8v)",
    ]);
    for r in rows {
        t.row([
            fmt_sig(r.speed, 3),
            fmt_sig(r.head_lifetime, 4),
            fmt_sig(r.membership_residence, 4),
            fmt_sig(r.change_rate, 3),
            fmt_sig(r.link_lifetime, 4),
            fmt_sig(r.link_lifetime_theory, 4),
        ]);
    }
    t
}

/// Renders the policy comparison.
pub fn policy_table(rows: &[(&'static str, StabilityRow)]) -> Table {
    let mut t = Table::new([
        "policy",
        "head lifetime [s]",
        "membership [s]",
        "role changes /node/s",
    ]);
    for (name, r) in rows {
        t.row([
            name.to_string(),
            fmt_sig(r.head_lifetime, 4),
            fmt_sig(r.membership_residence, 4),
            fmt_sig(r.change_rate, 3),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faster_nodes_shorten_every_lifetime() {
        let scenario = Scenario {
            nodes: 120,
            side: 600.0,
            radius: 100.0,
            ..Scenario::default()
        };
        let rows = lid_speed_sweep(&scenario, 120.0);
        assert_eq!(rows.len(), 4);
        let (slow, fast) = (rows.first().unwrap(), rows.last().unwrap());
        assert!(fast.membership_residence < slow.membership_residence);
        assert!(fast.link_lifetime < slow.link_lifetime);
        assert!(fast.change_rate > slow.change_rate);
        // Link lifetimes track the Claim 2 closed form within noise.
        for r in &rows {
            let rel = (r.link_lifetime - r.link_lifetime_theory).abs() / r.link_lifetime_theory;
            assert!(rel < 0.25, "{r:?} (rel {rel:.3})");
        }
    }
}

/// EXT7 — mobility-aware head election on a heterogeneous fleet
/// (MobDHop/MOBIC premise): per-node speeds drawn from `[1, 19]` m/s, and
/// a churn-weighted policy (probe the per-node link churn, give slow
/// nodes high weight) compared with identity-based LID on the *same*
/// trajectories.
pub fn mobility_aware_comparison(measure: f64) -> manet_util::table::Table {
    use manet_cluster::{Clustering, StaticWeights};
    use manet_geom::{Metric, SquareRegion};
    use manet_mobility::EpochRandomDirection;
    use manet_sim::{MessageSizes, World};
    use manet_util::{Rng, Summary};

    let side = 1000.0;
    let n = 400usize;
    let radius = 150.0;
    let probe = 60.0;
    let dt = 0.25;

    // Deterministic heterogeneous fleet; rebuilt identically per policy.
    let build = || {
        let mut rng = Rng::seed_from_u64(0xE417);
        let erd = EpochRandomDirection::with_speed_range(
            SquareRegion::new(side),
            n,
            1.0,
            19.0,
            20.0,
            &mut rng,
        );
        let speeds = erd.speeds().to_vec();
        let world = World::new(
            Box::new(erd),
            radius,
            dt,
            Metric::toroidal(side),
            MessageSizes::default(),
            0xE418,
        );
        (WorldDriver::new(world), speeds)
    };

    // Probe pass: count per-node link events to estimate churn.
    let mut quiet = manet_sim::QuietCtx::new();
    let (mut world, _) = build();
    let mut churn = vec![0u64; n];
    for _ in 0..(probe / dt) as usize {
        world.step(&mut quiet.ctx());
        for e in world.last_events() {
            churn[e.a as usize] += 1;
            churn[e.b as usize] += 1;
        }
    }
    let weights: Vec<f64> = churn.iter().map(|&c| 1.0 / (1.0 + c as f64)).collect();

    let mut t = manet_util::table::Table::new([
        "policy",
        "mean head speed [m/s]",
        "head lifetime [s]",
        "membership [s]",
        "role changes /node/s",
    ]);
    enum Which {
        Lid,
        Churn,
    }
    for (name, which) in [
        ("lowest-id", Which::Lid),
        ("churn-weighted (MOBIC-style)", Which::Churn),
    ] {
        let (mut world, speeds) = build();
        // Re-run the probe period so both policies cluster the same
        // steady-state geometry the weights were measured on.
        for _ in 0..(probe / dt) as usize {
            world.step(&mut quiet.ctx());
        }
        macro_rules! run {
            ($policy:expr) => {{
                let mut clustering = Clustering::form($policy, world.topology());
                let mut tracker = StabilityTracker::new(&clustering, world.time());
                let mut head_speed = Summary::new();
                world.begin_measurement();
                for _ in 0..(measure / dt) as usize {
                    world.step(&mut quiet.ctx());
                    // stage-exempt: single-layer cluster study, not the pipeline
                    clustering.maintain(world.topology(), &mut quiet.ctx());
                    tracker.observe(&clustering, world.time());
                }
                for u in 0..n as u32 {
                    if clustering.is_head(u) {
                        head_speed.push(speeds[u as usize]);
                    }
                }
                (tracker, head_speed)
            }};
        }
        let (tracker, head_speed) = match which {
            Which::Lid => run!(manet_cluster::LowestId),
            Which::Churn => run!(StaticWeights::new(weights.clone())),
        };
        t.row([
            name.to_string(),
            manet_util::table::fmt_sig(head_speed.mean(), 3),
            manet_util::table::fmt_sig(tracker.head_lifetimes().mean(), 4),
            manet_util::table::fmt_sig(tracker.membership_residences().mean(), 4),
            manet_util::table::fmt_sig(tracker.change_rate(world.measured_time()), 3),
        ]);
    }
    t
}

#[cfg(test)]
mod ext7_tests {
    #[test]
    fn mobility_aware_table_renders_two_policies() {
        let t = super::mobility_aware_comparison(60.0);
        assert_eq!(t.len(), 2);
        let rendered = t.to_ascii();
        assert!(rendered.contains("churn-weighted"));
    }
}
