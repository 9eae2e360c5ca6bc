//! The maintenance rule as written, kept as a test oracle. The engine
//! resolves head–head contacts in one forward pass over the sorted
//! pre-pass head pairs; the rule rescans for the lowest live pair after
//! every resolution. Both engine entry points must match the rescan role
//! for role and count for count, under seeded crashes, losses and
//! deferrals.

use manet_cluster::{
    Attempt, ClusterPolicy, Clustering, FaultHooks, HighestConnectivity, LowestId,
    MaintenanceOutcome, Role,
};
use manet_sim::{
    FramePartition, NodeId, Scratch, SimBuilder, StageScope, StepCtx, Topology, World,
};
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

/// A random partition of `0..n` into 2–5 frames, each frame ascending.
fn random_frames(n: usize, rng: &mut Rng) -> FramePartition {
    let count = 2 + rng.usize_below(4);
    let mut lists = vec![Vec::new(); count];
    for u in 0..n as NodeId {
        lists[rng.usize_below(count)].push(u);
    }
    let mut frames = FramePartition::new();
    frames.rebuild(lists.iter().map(Vec::as_slice));
    frames
}

/// Runs 40 faulty passes of a moving world through the oracle,
/// `maintain` and `maintain_scoped`, asserting they agree after each.
fn check_against_oracle<P: ClusterPolicy + Clone>(policy: P, mut world: World, rng: &mut Rng) {
    let mut sequential = Clustering::form(policy.clone(), world.topology());
    let mut scoped = sequential.clone();
    let mut roles = sequential.roles().to_vec();
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

        let mut hooks = chaos.clone();
        let mut ctx = StepCtx::new(&mut probe, &mut scratch).with_hooks(&mut hooks);
        let got = sequential.maintain(&topology, &mut ctx);
        assert_eq!(
            (got, sequential.roles()),
            (expect, &roles[..]),
            "maintain, tick {tick}"
        );

        let frames = random_frames(n, rng);
        let workers = 1 + tick % 2;
        let mut timings = vec![None; frames.frame_count().max(workers)];
        let mut scope = StageScope::new(&frames, workers, &mut timings);
        let mut hooks = chaos;
        let mut ctx = StepCtx::new(&mut probe, &mut scratch).with_hooks(&mut hooks);
        let got = scoped.maintain_scoped(&topology, &mut ctx, &mut scope);
        assert_eq!(
            (got, scoped.roles()),
            (expect, &roles[..]),
            "scoped, tick {tick}"
        );
    }
}

/// Both engine entry points equal the rescan on random moving topologies
/// under crashes, losses and deferrals, for two policies.
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
