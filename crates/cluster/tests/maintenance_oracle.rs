//! The maintenance rule as written, kept as a test oracle. The engine
//! resolves head–head contacts in one forward pass over the sorted
//! pre-pass head pairs; the rule rescans for the lowest live pair after
//! every resolution. `Clustering::maintain` must match the rescan role
//! for role and count for count, under seeded crashes, losses and
//! deferrals.

use manet_cluster::{
    Attempt, ClusterPolicy, Clustering, FaultHooks, HighestConnectivity, LowestId,
    MaintenanceOutcome, Role,
};
use manet_sim::{NodeId, Scratch, SimBuilder, StepCtx, Topology, World};
use manet_telemetry::Probe;
use manet_util::Rng;

/// Counts a send that did not go through; true when it was delivered.
fn delivered(attempt: Attempt, outcome: &mut MaintenanceOutcome) -> bool {
    match attempt {
        Attempt::Delivered => return true,
        Attempt::Lost => outcome.lost_sends += 1,
        Attempt::Deferred => outcome.deferred_sends += 1,
    }
    false
}

/// One maintenance pass over `roles`, phase by phase, without telemetry.
fn oracle<P: ClusterPolicy>(
    policy: &P,
    roles: &mut [Role],
    topology: &Topology,
    hooks: &mut dyn FaultHooks,
) -> MaintenanceOutcome {
    let n = roles.len();
    let mut outcome = MaintenanceOutcome::default();
    // Phase 1: live members orphaned by a broken head link (true) or a
    // head that stopped being one (false).
    let mut orphan: Vec<Option<bool>> = vec![None; n];
    for u in 0..n as NodeId {
        if let Role::Member { head } = roles[u as usize] {
            if !hooks.is_alive(u) {
                continue;
            }
            if !topology.are_linked(u, head) {
                orphan[u as usize] = Some(true);
            } else if !roles[head as usize].is_head() {
                orphan[u as usize] = Some(false);
            }
        }
    }

    // Phase 2: rescan for the lowest adjacent head pair not yet tried.
    let mut unresolved: Vec<(NodeId, NodeId)> = Vec::new();
    loop {
        let contact = (0..n as NodeId)
            .filter(|&a| roles[a as usize].is_head())
            .flat_map(|a| topology.neighbors(a).iter().map(move |&b| (a, b)))
            .find(|&(a, b)| b > a && roles[b as usize].is_head() && !unresolved.contains(&(a, b)));
        let Some((a, b)) = contact else { break };
        let (winner, loser) = if policy.priority(a, topology) > policy.priority(b, topology) {
            (a, b)
        } else {
            (b, a)
        };
        if !delivered(hooks.attempt(loser), &mut outcome) {
            unresolved.push((a, b));
            continue;
        }
        roles[loser as usize] = Role::Member { head: winner };
        outcome.contact_resignations += 1;
        orphan[loser as usize] = None;
        for m in 0..n {
            if roles[m] == (Role::Member { head: loser }) && orphan[m].is_none() {
                orphan[m] = Some(false);
            }
        }
    }

    // Phase 3: orphans re-home to their best neighboring head, or promote.
    for u in 0..n as NodeId {
        let Some(link_broke) = orphan[u as usize] else {
            continue;
        };
        if !delivered(hooks.attempt(u), &mut outcome) {
            continue;
        }
        let best_head = topology
            .neighbors(u)
            .iter()
            .copied()
            .filter(|&x| roles[x as usize].is_head())
            .max_by_key(|&x| policy.priority(x, topology));
        roles[u as usize] = best_head.map_or(Role::Head, |head| Role::Member { head });
        *match (best_head.is_some(), link_broke) {
            (true, true) => &mut outcome.break_reaffiliations,
            (true, false) => &mut outcome.contact_reaffiliations,
            (false, true) => &mut outcome.break_promotions,
            (false, false) => &mut outcome.contact_promotions,
        } += 1;
    }
    outcome
}

/// A seeded fault plane: this tick's crash mask, and one draw per send
/// that loses or defers it.
#[derive(Clone)]
struct Chaos {
    alive: Vec<bool>,
    rng: Rng,
}

impl FaultHooks for Chaos {
    fn is_alive(&self, u: NodeId) -> bool {
        self.alive[u as usize]
    }

    fn attempt(&mut self, _u: NodeId) -> Attempt {
        match self.rng.f64() {
            x if x < 0.15 => Attempt::Lost,
            x if x < 0.25 => Attempt::Deferred,
            _ => Attempt::Delivered,
        }
    }
}

/// Runs 40 faulty passes of a moving world through the oracle and
/// `maintain`, asserting they agree after each.
fn check_against_oracle<P: ClusterPolicy + Clone>(policy: P, mut world: World, rng: &mut Rng) {
    let mut clustering = Clustering::form(policy.clone(), world.topology());
    let mut roles = clustering.roles().to_vec();
    let mut probe = Probe::off();
    let mut scratch = Scratch::new();
    for tick in 0..40 {
        world.step(&mut StepCtx::new(&mut probe, &mut scratch));
        let n = world.topology().len();
        let chaos = Chaos {
            alive: (0..n).map(|_| !rng.bernoulli(0.05)).collect(),
            rng: rng.fork(tick as u64),
        };
        let mut topology = world.topology().clone();
        topology.retain_alive(&chaos.alive);
        let expect = oracle(&policy, &mut roles, &topology, &mut chaos.clone());

        let mut hooks = chaos;
        let mut ctx = StepCtx::new(&mut probe, &mut scratch).with_hooks(&mut hooks);
        let got = clustering.maintain(&topology, &mut ctx);
        assert_eq!(
            (got, clustering.roles()),
            (expect, &roles[..]),
            "maintain, tick {tick}"
        );
    }
}

/// `maintain` equals the rescan on random moving topologies under
/// crashes, losses and deferrals, for two policies.
#[test]
fn maintenance_matches_the_rescan_oracle_under_faults() {
    let mut rng = Rng::seed_from_u64(0x5eed_0a11);
    for case in 0..16u64 {
        let world = SimBuilder::new()
            .side(400.0)
            .nodes(20 + rng.usize_below(60))
            .radius(rng.f64_range(50.0..150.0))
            .speed(rng.f64_range(5.0..40.0))
            .dt(1.0)
            .seed(case)
            .build();
        if case % 2 == 0 {
            check_against_oracle(LowestId, world, &mut rng);
        } else {
            check_against_oracle(HighestConnectivity, world, &mut rng);
        }
    }
}

/// How the topology of one pass relates to the previous pass's.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Pass {
    /// Chained, no fault hooks.
    Ideal,
    /// Chained, with losses and deferrals.
    Lossy,
    /// Chained, with some nodes down (their links masked out, as
    /// `World` masks them under churn) and losses.
    Crash,
    /// The world stepped once with no pass in between.
    Gap,
    /// The topology was edited after its events (its chain is cut).
    Cut,
}

/// Runs a pass on `clustering` under `hooks` (none when `None`).
fn pass<P: ClusterPolicy>(
    clustering: &mut Clustering<P>,
    topology: &Topology,
    hooks: Option<Chaos>,
) -> MaintenanceOutcome {
    let mut probe = Probe::off();
    let mut scratch = Scratch::new();
    let ctx = StepCtx::new(&mut probe, &mut scratch);
    match hooks {
        Some(mut hooks) => clustering.maintain(topology, &mut ctx.with_hooks(&mut hooks)),
        None => clustering.maintain(topology, &mut StepCtx::new(&mut probe, &mut scratch)),
    }
}

/// Runs 60 passes of random kinds of a moving world on `events` and on a
/// twin fed a copy of every topology whose chain is cut, so it scans on
/// every pass; asserts they agree after each. Returns the event passes
/// and all passes.
fn check_against_scan<P: ClusterPolicy + Clone>(
    policy: P,
    mut world: World,
    rng: &mut Rng,
    case: u64,
) -> (u64, u64) {
    let n = world.node_count();
    let mut events = Clustering::form(policy, world.topology());
    let mut scan = events.clone();
    let all_alive = vec![true; n];
    let mut last = world.topology().clone();
    let mut probe = Probe::off();
    let mut scratch = Scratch::new();
    let mut passes = 0;
    for tick in 0..60u64 {
        let kind = match rng.f64() {
            x if x < 0.6 => Pass::Ideal,
            x if x < 0.7 => Pass::Lossy,
            x if x < 0.8 => Pass::Crash,
            x if x < 0.9 => Pass::Gap,
            _ => Pass::Cut,
        };
        if kind == Pass::Gap {
            world.step(&mut StepCtx::new(&mut probe, &mut scratch));
        }
        world.step(&mut StepCtx::new(&mut probe, &mut scratch));
        let alive: Vec<bool> = match kind {
            Pass::Crash => (0..n).map(|_| !rng.bernoulli(0.1)).collect(),
            _ => all_alive.clone(),
        };
        let mut topology = world.topology().clone();
        match kind {
            Pass::Gap => {}
            Pass::Cut => topology.retain_alive(&all_alive),
            _ => {
                topology.retain_alive(&alive);
                topology.diff_from(&mut last);
            }
        }
        last = topology.clone();
        let mut cut = topology.clone();
        cut.retain_alive(&all_alive);
        let hooks = match kind {
            Pass::Lossy | Pass::Crash => Some(Chaos {
                alive,
                rng: rng.fork(tick),
            }),
            _ => None,
        };
        let got = pass(&mut events, &topology, hooks.clone());
        let expect = pass(&mut scan, &cut, hooks);
        assert_eq!(
            (got, events.roles()),
            (expect, scan.roles()),
            "case {case}, tick {tick}, {kind:?} pass"
        );
        assert_eq!(events.head_count(), scan.head_count());
        passes += 1;
    }
    assert_eq!(scan.event_passes(), 0, "a cut chain always scans");
    (events.event_passes(), passes)
}

/// A pass that reads its lists from the link events finds what the scan
/// finds, role for role and count for count, over ideal, lossy, crashed,
/// gapped and cut passes in random order, for two policies. Both paths
/// must be taken.
#[test]
fn event_passes_match_the_scan() {
    let mut rng = Rng::seed_from_u64(0xe7e7_0a11);
    let (mut event_passes, mut passes) = (0, 0);
    for case in 0..12u64 {
        let world = SimBuilder::new()
            .side(400.0)
            .nodes(30 + rng.usize_below(70))
            .radius(rng.f64_range(60.0..150.0))
            .speed(rng.f64_range(5.0..30.0))
            .dt(1.0)
            .seed(case)
            .build();
        let (e, p) = if case % 2 == 0 {
            check_against_scan(LowestId, world, &mut rng, case)
        } else {
            check_against_scan(HighestConnectivity, world, &mut rng, case)
        };
        event_passes += e;
        passes += p;
    }
    assert!(
        event_passes > 0 && event_passes < passes,
        "both paths run ({event_passes} event passes of {passes})"
    );
}

/// On an ideal world whose every pass chains from the last, the passes
/// after the first read their lists from the link events.
#[test]
fn ideal_passes_take_the_event_path() {
    let mut world = SimBuilder::new()
        .nodes(400)
        .side(1000.0)
        .radius(150.0)
        .speed(10.0)
        .dt(0.25)
        .seed(1)
        .build();
    let mut clustering = Clustering::form(LowestId, world.topology());
    let mut probe = Probe::off();
    let mut scratch = Scratch::new();
    let (mut passes, mut messages) = (0, 0);
    for _ in 0..200 {
        world.step(&mut StepCtx::new(&mut probe, &mut scratch));
        let outcome = clustering.maintain(
            world.topology(),
            &mut StepCtx::new(&mut probe, &mut scratch),
        );
        messages += outcome.total_messages();
        passes += 1;
    }
    assert!(messages > 0, "the world must churn roles");
    let after_first = passes - 1;
    assert!(
        clustering.event_passes() * 10 >= after_first * 9,
        "{} event passes of {after_first} after the first",
        clustering.event_passes()
    );
}
