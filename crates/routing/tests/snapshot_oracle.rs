//! The route snapshot diff as first written, kept as a test oracle.
//! `IntraClusterRouting` keeps each tick's clusters in flat per-node
//! vectors and diffs them from the topology's link events when they chain
//! from its previous pass, node by node otherwise; the reference files
//! every cluster's node and link lists in a `BTreeMap` and diffs the maps
//! cluster by cluster. Both must charge the same rounds, draw the same
//! messages from their channels, schedule the same re-syncs and emit the
//! same events with the same causes, tick for tick, under both update
//! policies, on ideal, Bernoulli and Gilbert–Elliott channels, for
//! assignments whose head keys are heads (LID, d-hop), are not always
//! heads (`SelfHealing` after a lost re-home), or are every node. World
//! steps with no pass between them (gaps) send some passes down the
//! node-by-node path, and a second layer whose topology's chain is always
//! cut takes it on every pass.

use manet_cluster::{
    Backoff, ClusterAssignment, Clustering, DHopClustering, LowestId, SelfHealing,
};
use manet_routing::intra::{IntraClusterRouting, RouteUpdateOutcome, UpdatePolicy};
use manet_sim::{
    Channel, LossModel, NodeId, QuietCtx, Scratch, SimBuilder, StepCtx, Topology, World,
};
use manet_telemetry::{Cause, CauseTracker, Event, EventKind, Layer, MsgClass, Probe, RootCause};
use manet_util::Rng;
use std::collections::{BTreeMap, BTreeSet};

/// One cluster's internal topology.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct ClusterSnapshot {
    /// All cluster nodes (head + members), sorted.
    nodes: Vec<NodeId>,
    /// Intra-cluster links `(a, b)` with `a < b`, sorted.
    links: Vec<(NodeId, NodeId)>,
}

/// Every cluster keyed by its head value.
fn cluster_snapshots(
    topology: &Topology,
    clustering: &dyn ClusterAssignment,
) -> BTreeMap<NodeId, ClusterSnapshot> {
    let n = topology.len() as NodeId;
    let heads: Vec<NodeId> = (0..n).map(|u| clustering.cluster_head_of(u)).collect();
    let mut map: BTreeMap<NodeId, ClusterSnapshot> = BTreeMap::new();
    for a in 0..n {
        let head = heads[a as usize];
        let snap = map.entry(head).or_default();
        snap.nodes.push(a);
        for &b in topology.neighbors(a) {
            if b > a && heads[b as usize] == head {
                snap.links.push((a, b));
            }
        }
    }
    map
}

/// `|a Δ b|` of two sorted slices.
fn symmetric_difference_len<T: Ord>(a: &[T], b: &[T]) -> usize {
    let a: BTreeSet<&T> = a.iter().collect();
    let b: BTreeSet<&T> = b.iter().collect();
    a.symmetric_difference(&b).count()
}

/// The map-diffing layer: one message at a time through the channel.
#[derive(Default)]
struct Reference {
    prev: BTreeMap<NodeId, ClusterSnapshot>,
    initialized: bool,
    policy: UpdatePolicy,
    dirty: BTreeSet<NodeId>,
    accum: f64,
    resync_pending: BTreeSet<NodeId>,
    resync_cause: BTreeMap<NodeId, Cause>,
}

impl Reference {
    fn new(policy: UpdatePolicy) -> Self {
        Reference {
            policy,
            ..Reference::default()
        }
    }

    fn compute_charges(
        &mut self,
        dt: f64,
        current: &BTreeMap<NodeId, ClusterSnapshot>,
    ) -> Vec<(NodeId, u64, u64)> {
        let mut charges = Vec::new();
        if !self.initialized {
            return charges;
        }
        match self.policy {
            UpdatePolicy::PerChange => {
                for (&head, snap) in current {
                    let rounds = match self.prev.get(&head) {
                        Some(prev) if prev == snap => 0,
                        Some(prev) => symmetric_difference_len(&prev.links, &snap.links).max(1),
                        None => 1,
                    };
                    if rounds > 0 {
                        charges.push((head, rounds as u64, snap.nodes.len() as u64));
                    }
                }
            }
            UpdatePolicy::Coalesced { interval } => {
                for (&head, snap) in current {
                    if self.prev.get(&head) != Some(snap) {
                        self.dirty.insert(head);
                    }
                }
                self.accum += dt;
                while self.accum >= interval {
                    self.accum -= interval;
                    for head in std::mem::take(&mut self.dirty) {
                        if let Some(snap) = current.get(&head) {
                            charges.push((head, 1, snap.nodes.len() as u64));
                        }
                    }
                }
            }
        }
        charges
    }

    /// Sends `sends` messages one `deliver` at a time; true when all arrive.
    fn transmit(channel: &mut Channel, sends: u64, outcome: &mut RouteUpdateOutcome) -> bool {
        let mut clean = true;
        for _ in 0..sends {
            if !channel.deliver() {
                outcome.lost_messages += 1;
                clean = false;
            }
        }
        clean
    }

    fn update(
        &mut self,
        dt: f64,
        topology: &Topology,
        clustering: &dyn ClusterAssignment,
        channel: &mut Channel,
        probe: &mut Probe<'_>,
        now: f64,
    ) -> RouteUpdateOutcome {
        let current = cluster_snapshots(topology, clustering);
        let mut outcome = RouteUpdateOutcome::default();
        let mut loss_cause: Option<Cause> = None;
        for head in std::mem::take(&mut self.resync_pending) {
            let stored = self.resync_cause.remove(&head);
            let Some(snap) = current.get(&head) else {
                continue;
            };
            let cause = stored.or_else(|| probe.root(RootCause::ChannelLoss));
            let m = snap.nodes.len() as u64;
            outcome.resync_rounds += 1;
            outcome.resync_messages += m;
            outcome.route_entries += m * m;
            let kind = EventKind::RouteRoundStarted {
                head,
                size: m,
                rounds: 1,
            };
            probe.emit_caused(now, Layer::Routing, kind, cause);
            if !Self::transmit(channel, m, &mut outcome) {
                if loss_cause.is_none() {
                    loss_cause = probe.root(RootCause::ChannelLoss);
                }
                self.resync_pending.insert(head);
                if let Some(c) = loss_cause {
                    self.resync_cause.insert(head, c);
                }
            }
        }
        for (head, rounds, m) in self.compute_charges(dt, &current) {
            outcome.clusters_updated += 1;
            outcome.update_rounds += rounds;
            outcome.route_messages += rounds * m;
            outcome.route_entries += rounds * m * m;
            let cause = probe.root(RootCause::IntraClusterChange);
            let kind = EventKind::RouteRoundStarted {
                head,
                size: m,
                rounds,
            };
            probe.emit_caused(now, Layer::Routing, kind, cause);
            if !Self::transmit(channel, rounds * m, &mut outcome) {
                if loss_cause.is_none() {
                    loss_cause = probe.root(RootCause::ChannelLoss);
                }
                self.resync_pending.insert(head);
                if let Some(c) = loss_cause {
                    self.resync_cause.insert(head, c);
                }
            }
        }
        if outcome.lost_messages > 0 {
            let kind = EventKind::MsgLost {
                class: MsgClass::Route,
                count: outcome.lost_messages,
            };
            probe.emit_caused(now, Layer::Routing, kind, loss_cause);
        }
        self.prev = current;
        self.initialized = true;
        outcome
    }
}

/// Every node heads itself, as a flat network's `NoClustering` does.
struct Identity(usize);

impl ClusterAssignment for Identity {
    fn node_count(&self) -> usize {
        self.0
    }

    fn cluster_head_of(&self, u: NodeId) -> NodeId {
        u
    }
}

/// A cluster structure that evolves with the world.
enum Structure {
    Lid(Clustering<LowestId>),
    /// Crash churn plus a lossy CLUSTER channel: lost re-homes leave
    /// members keyed by heads that resigned.
    Healing {
        healer: Box<SelfHealing<LowestId>>,
        alive: Vec<bool>,
        channel: Channel,
        rng: Rng,
        /// The masked topology of the previous pass.
        last: Topology,
    },
    DHop(DHopClustering),
    Identity(Identity),
}

impl Structure {
    fn form(kind: usize, world: &World, seed: u64) -> Self {
        let topology = world.topology();
        match kind {
            0 => Structure::Lid(Clustering::form(LowestId, topology)),
            1 => Structure::Healing {
                healer: Box::new(SelfHealing::new(
                    Clustering::form(LowestId, topology),
                    Backoff {
                        base_ticks: 1,
                        max_exponent: 2,
                    },
                    8,
                )),
                alive: vec![true; topology.len()],
                channel: Channel::new(LossModel::Bernoulli { p: 0.3 }, seed),
                rng: Rng::seed_from_u64(seed),
                last: topology.clone(),
            },
            2 => Structure::DHop(DHopClustering::form(&LowestId, topology, 2)),
            _ => Structure::Identity(Identity(topology.len())),
        }
    }

    /// Maintains the structure against the world's new topology and
    /// returns the topology the routing layer sees. The crash mask edits
    /// it, which cuts its event chain; unless the world `gapped`, the
    /// masked topology records its events from the previous pass's.
    fn advance(&mut self, world: &World, gapped: bool) -> Topology {
        let mut q = QuietCtx::new();
        let mut topology = world.topology().clone();
        match self {
            Structure::Lid(c) => {
                c.maintain(&topology, &mut q.ctx());
            }
            Structure::Healing {
                healer,
                alive,
                channel,
                rng,
                last,
            } => {
                for up in alive.iter_mut() {
                    if rng.bernoulli(0.02) {
                        *up = !*up;
                    }
                }
                topology.retain_alive(alive);
                if !gapped {
                    topology.diff_from(last);
                }
                *last = topology.clone();
                healer.step(&topology, alive, channel, &mut q.ctx());
            }
            Structure::DHop(d) => {
                d.maintain(&LowestId, &topology, &mut q.ctx());
            }
            Structure::Identity(_) => {}
        }
        topology
    }

    fn assignment(&self) -> &dyn ClusterAssignment {
        match self {
            Structure::Lid(c) => c,
            Structure::Healing { healer, .. } => healer.clustering(),
            Structure::DHop(d) => d,
            Structure::Identity(i) => i,
        }
    }
}

/// One layer with its own identically seeded channel and cause tracker.
struct Side {
    layer: IntraClusterRouting,
    channel: Channel,
    causes: CauseTracker,
}

impl Side {
    fn new(policy: UpdatePolicy, loss: LossModel, seed: u64) -> Self {
        Side {
            layer: IntraClusterRouting::with_policy(policy),
            channel: Channel::new(loss, seed),
            causes: CauseTracker::new(),
        }
    }

    /// One pass; returns its outcome, backlog and emitted events.
    fn tick(
        &mut self,
        world: &World,
        topology: &Topology,
        clustering: &dyn ClusterAssignment,
    ) -> (RouteUpdateOutcome, usize, Vec<Event>) {
        let mut events = Vec::<Event>::new();
        let mut probe = Probe::with_causes(Some(&mut events), Some(&mut self.causes));
        let mut scratch = Scratch::new();
        let outcome = self.layer.update(
            world.dt(),
            topology,
            clustering,
            &mut self.channel,
            &mut StepCtx::new(&mut probe, &mut scratch).at(world.time()),
        );
        (outcome, self.layer.resync_backlog(), events)
    }
}

/// The layer fed the structure's topology, the same layer fed a copy
/// whose event chain is cut (so every pass reads every row), and the
/// reference.
struct Lockstep {
    label: String,
    flat: Side,
    full: Side,
    reference: Reference,
    ref_channel: Channel,
    ref_causes: CauseTracker,
}

impl Lockstep {
    fn new(policy: UpdatePolicy, loss: LossModel, seed: u64) -> Self {
        Lockstep {
            label: format!("{policy:?} on {loss:?}"),
            flat: Side::new(policy, loss, seed),
            full: Side::new(policy, loss, seed),
            reference: Reference::new(policy),
            ref_channel: Channel::new(loss, seed),
            ref_causes: CauseTracker::new(),
        }
    }

    fn tick(
        &mut self,
        world: &World,
        topology: &Topology,
        cut: &Topology,
        clustering: &dyn ClusterAssignment,
    ) {
        let now = world.time();
        let flat = self.flat.tick(world, topology, clustering);
        let full = self.full.tick(world, cut, clustering);
        assert_eq!(
            flat, full,
            "{} at t = {now}: event vs full pass",
            self.label
        );
        let mut ref_events = Vec::<Event>::new();
        let mut probe = Probe::with_causes(Some(&mut ref_events), Some(&mut self.ref_causes));
        let expect = self.reference.update(
            world.dt(),
            topology,
            clustering,
            &mut self.ref_channel,
            &mut probe,
            now,
        );
        assert_eq!(
            flat,
            (expect, self.reference.resync_pending.len(), ref_events),
            "{} at t = {now}",
            self.label
        );
    }
}

#[test]
fn flat_diff_matches_the_map_diff_oracle() {
    let losses = [
        LossModel::Ideal,
        LossModel::Bernoulli { p: 0.2 },
        LossModel::GilbertElliott {
            p_gb: 0.1,
            p_bg: 0.3,
            loss_good: 0.02,
            loss_bad: 0.6,
        },
    ];
    let policies = [
        UpdatePolicy::PerChange,
        UpdatePolicy::Coalesced { interval: 2.0 },
    ];
    let mut rng = Rng::seed_from_u64(0x5eed_4007e);
    let mut charged = 0;
    let (mut passes, mut event_passes) = (0, 0);
    for case in 0..12u64 {
        let mut world = SimBuilder::new()
            .side(400.0)
            .nodes(20 + rng.usize_below(101))
            .radius(rng.f64_range(50.0..150.0))
            .speed(rng.f64_range(5.0..40.0))
            .dt(0.5)
            .seed(case)
            .build();
        let mut structure = Structure::form(case as usize % 4, &world, case);
        let mut pairs: Vec<Lockstep> = policies
            .iter()
            .flat_map(|&policy| losses.iter().map(move |&loss| (policy, loss)))
            .map(|(policy, loss)| Lockstep::new(policy, loss, rng.u64()))
            .collect();
        let all_alive = vec![true; world.node_count()];
        let mut q = QuietCtx::new();
        let mut seen = 0;
        let (mut case_events, mut case_full) = (0, 0);
        for _ in 0..40 {
            // A gap: world steps with no pass in between.
            let gapped = rng.bernoulli(0.25);
            if gapped {
                for _ in 0..1 + rng.usize_below(2) {
                    world.step(&mut q.ctx());
                }
            }
            world.step(&mut q.ctx());
            let topology = structure.advance(&world, gapped);
            let mut cut = topology.clone();
            cut.retain_alive(&all_alive);
            if topology.events_since(seen).is_some() {
                case_events += 1;
            } else if seen != 0 {
                case_full += 1;
            }
            seen = topology.stamp();
            for pair in &mut pairs {
                pair.tick(&world, &topology, &cut, structure.assignment());
            }
        }
        assert!(
            case_events > 0 && case_full > 0,
            "case {case} diffs on both paths ({case_events} event, {case_full} full passes)"
        );
        passes += case_events + case_full;
        event_passes += case_events;
        charged += pairs
            .iter()
            .filter(|p| p.flat.causes.allocated() > 0)
            .count();
    }
    assert!(charged > 0, "the worlds must charge some ROUTE rounds");
    assert!(
        event_passes * 2 > passes,
        "most passes take the event path ({event_passes} of {passes})"
    );
}

/// An event pass leaves its row edits pending on the layer's link
/// snapshot, which applies them at a bound. A gap or a cut chain arriving
/// after `k` event passes, with `k` just below, at and just above the
/// first pass that applies them, must charge what the map oracle
/// charges, under both policies on an ideal and a lossy channel, and so
/// must the event passes after it.
#[test]
fn fallback_after_pending_edits_matches_the_map_oracle() {
    let build = || {
        SimBuilder::new()
            .side(400.0)
            .nodes(90)
            .radius(90.0)
            .speed(20.0)
            .dt(0.5)
            .seed(7)
            .build()
    };
    let mut q = QuietCtx::new();
    // A dry run finds the first pass that applies the pending edits.
    let mut world = build();
    let mut structure = Structure::form(0, &world, 7);
    let mut layer = IntraClusterRouting::new();
    let mut channel = Channel::new(LossModel::Ideal, 0);
    let (mut pending, mut bound) = (0, None);
    for k in 0..60 {
        if k > 0 {
            world.step(&mut q.ctx());
        }
        let topology = structure.advance(&world, false);
        let mut ctx = QuietCtx::new();
        layer.update(
            world.dt(),
            &topology,
            structure.assignment(),
            &mut channel,
            &mut ctx.ctx(),
        );
        if layer.pending_edits() < pending {
            bound = Some(k);
            break;
        }
        pending = layer.pending_edits();
    }
    let bound = bound.expect("the pending edits reach the bound");
    assert!(
        bound >= 3,
        "the bound holds several passes' edits ({bound})"
    );

    let all_alive = vec![true; world.node_count()];
    for k in [bound - 1, bound, bound + 1] {
        for cut_chain in [false, true] {
            let mut world = build();
            let mut structure = Structure::form(0, &world, 7);
            let mut pairs: Vec<Lockstep> = [
                UpdatePolicy::PerChange,
                UpdatePolicy::Coalesced { interval: 2.0 },
            ]
            .into_iter()
            .flat_map(|policy| {
                [LossModel::Ideal, LossModel::Bernoulli { p: 0.2 }]
                    .into_iter()
                    .map(move |loss| Lockstep::new(policy, loss, 11))
            })
            .collect();
            let mut seen = 0;
            for pass in 0..k + 6 {
                let fallback = pass == k + 1;
                let gapped = fallback && !cut_chain;
                if pass > 0 {
                    if gapped {
                        world.step(&mut q.ctx());
                    }
                    world.step(&mut q.ctx());
                }
                let mut topology = structure.advance(&world, gapped);
                if fallback {
                    let held = pairs[0].flat.layer.pending_edits();
                    assert_eq!(held > 0, k != bound, "k = {k}: {held} pending edits");
                    if cut_chain {
                        topology.retain_alive(&all_alive);
                    }
                }
                // After a cut chain the next pass falls back too: the world's
                // topology chains from its own, not from the cut copy.
                let after_cut = cut_chain && pass == k + 2;
                assert_eq!(
                    topology.events_since(seen).is_some(),
                    pass > 0 && !fallback && !after_cut,
                    "k = {k}, pass {pass}"
                );
                seen = topology.stamp();
                let mut cut = topology.clone();
                cut.retain_alive(&all_alive);
                for pair in &mut pairs {
                    pair.tick(&world, &topology, &cut, structure.assignment());
                }
            }
        }
    }
}
