//! Cluster formation and reactive LCC-style maintenance.

use crate::policy::ClusterPolicy;
use crate::Role;
use manet_sim::{Counters, LinkEvent, LinkEventKind, MessageKind, NodeId, StepCtx, Topology};
use manet_telemetry::{Cause, EventKind, Layer, RootCause};
use std::fmt;

// The fault plane lives with the rest of the per-tick context in
// `manet-sim`; re-exported here because the maintenance engine is its main
// consumer and pre-refactor code imported it from this module.
pub use manet_sim::{Attempt, FaultHooks, NoFaults};

/// A violation of the one-hop clustering invariants P1/P2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvariantViolation {
    /// Two cluster-heads are directly connected (violates P1).
    AdjacentHeads(NodeId, NodeId),
    /// A member's head is not currently a head (violates P2).
    HeadIsNotHead {
        /// The misaffiliated member.
        member: NodeId,
        /// Its recorded (non-)head.
        head: NodeId,
    },
    /// A member is not within one hop of its head (violates P2).
    HeadOutOfRange {
        /// The stranded member.
        member: NodeId,
        /// Its recorded head.
        head: NodeId,
    },
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            InvariantViolation::AdjacentHeads(a, b) => {
                write!(f, "cluster-heads {a} and {b} are directly connected (P1)")
            }
            InvariantViolation::HeadIsNotHead { member, head } => {
                write!(
                    f,
                    "member {member} is affiliated with {head}, which is not a head (P2)"
                )
            }
            InvariantViolation::HeadOutOfRange { member, head } => {
                write!(f, "member {member} is out of range of its head {head} (P2)")
            }
        }
    }
}

impl std::error::Error for InvariantViolation {}

/// Why a member lost its affiliation during a maintenance pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OrphanCause {
    /// The member↔head link broke (the paper's first CLUSTER trigger).
    LinkBroke,
    /// The member's head resigned after a head–head contact (part of the
    /// paper's second CLUSTER trigger).
    HeadResigned,
}

/// CLUSTER-message accounting for one maintenance pass, decomposed by
/// trigger so the analytical terms of Eqns 6–11 can be validated
/// independently.
///
/// Every field counts messages; each re-affiliation, promotion, or
/// resignation transmits exactly one CLUSTER message (the paper's
/// lower-bound convention).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MaintenanceOutcome {
    /// Members that lost the link to their head and joined another head.
    pub break_reaffiliations: u64,
    /// Members that lost the link to their head and promoted themselves.
    pub break_promotions: u64,
    /// Heads that resigned after coming into contact with a stronger head.
    pub contact_resignations: u64,
    /// Members re-homed because their head resigned.
    pub contact_reaffiliations: u64,
    /// Members promoted because their head resigned and no head was in
    /// range.
    pub contact_promotions: u64,
    /// Sends attempted but lost on a faulty channel (the role change did
    /// not commit; the overhead was still paid). Always 0 under
    /// [`NoFaults`].
    pub lost_sends: u64,
    /// Repair attempts suppressed by backoff this pass (no transmission,
    /// no overhead). Always 0 under [`NoFaults`].
    pub deferred_sends: u64,
}

impl MaintenanceOutcome {
    /// Messages attributable to member–head link breaks (paper Eqns 6–7).
    pub fn break_triggered_messages(&self) -> u64 {
        self.break_reaffiliations + self.break_promotions
    }

    /// Messages attributable to head–head contacts (paper Eqns 8–10).
    pub fn contact_triggered_messages(&self) -> u64 {
        self.contact_resignations + self.contact_reaffiliations + self.contact_promotions
    }

    /// All CLUSTER messages whose role change committed in this pass.
    pub fn total_messages(&self) -> u64 {
        self.break_triggered_messages() + self.contact_triggered_messages()
    }

    /// All CLUSTER transmissions attempted in this pass — committed plus
    /// lost. This is the overhead a real radio pays; it equals
    /// [`total_messages`](Self::total_messages) on an ideal channel.
    pub fn attempted_messages(&self) -> u64 {
        self.total_messages() + self.lost_sends
    }

    /// Accumulates another pass into this one.
    pub fn absorb(&mut self, other: MaintenanceOutcome) {
        self.break_reaffiliations += other.break_reaffiliations;
        self.break_promotions += other.break_promotions;
        self.contact_resignations += other.contact_resignations;
        self.contact_reaffiliations += other.contact_reaffiliations;
        self.contact_promotions += other.contact_promotions;
        self.lost_sends += other.lost_sends;
        self.deferred_sends += other.deferred_sends;
    }
}

/// One tick's cluster-maintenance traffic, decomposed the way the shared
/// [`Counters`] account it: ordinary first-attempt sends vs retries vs
/// fault-repair traffic — what a [`SelfHealing`](crate::SelfHealing)
/// step and every stack cluster layer report.
///
/// Plain (fault-free) maintenance reports zero retransmissions and
/// repairs, so [`ClusterFlow::cluster_messages`] collapses onto
/// [`MaintenanceOutcome::total_messages`] for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClusterFlow {
    /// The underlying maintenance pass (committed + lost + deferred).
    pub maintenance: MaintenanceOutcome,
    /// Attempted sends that were retries of previously lost sends.
    pub retransmissions: u64,
    /// First-attempt sends repairing fault damage (crashed head, stale
    /// state after recovery) rather than ordinary mobility churn.
    pub repairs: u64,
    /// P1/P2 violations among live nodes remaining after the pass.
    pub violations_left: u64,
}

impl ClusterFlow {
    /// First-attempt CLUSTER sends attributable to ordinary mobility.
    pub fn cluster_messages(&self) -> u64 {
        self.maintenance.attempted_messages() - self.retransmissions - self.repairs
    }

    /// Records this flow into shared counters: ordinary sends as
    /// `CLUSTER`, retries as `RETX`, fault repairs as `REPAIR`. Bytes come
    /// from the counters' own embedded size table (`record_kind`), so the
    /// byte-consistency invariant holds by construction.
    pub fn record(&self, counters: &mut Counters) {
        counters.record_kind(MessageKind::Cluster, self.cluster_messages());
        counters.record_kind(MessageKind::Retransmit, self.retransmissions);
        counters.record_kind(MessageKind::Repair, self.repairs);
    }

    /// Accumulates another tick into this one (keeping the *latest*
    /// `violations_left`).
    pub fn absorb(&mut self, other: ClusterFlow) {
        self.maintenance.absorb(other.maintenance);
        self.retransmissions += other.retransmissions;
        self.repairs += other.repairs;
        self.violations_left = other.violations_left;
    }
}

impl From<MaintenanceOutcome> for ClusterFlow {
    fn from(maintenance: MaintenanceOutcome) -> Self {
        ClusterFlow {
            maintenance,
            ..ClusterFlow::default()
        }
    }
}

/// Convergence statistics of the formation stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FormationStats {
    /// Synchronous local-maxima rounds until every node was decided.
    pub rounds: usize,
}

/// What a maintenance pass reads from the pre-pass roles: broken
/// affiliations `(member, head, link_broke)` — `link_broke` is false when
/// the recorded head quietly stopped being one — and adjacent head pairs
/// `(a, b)` with `a < b`, both sorted.
#[derive(Debug, Clone, Default)]
struct Scan {
    broken: Vec<(NodeId, NodeId, bool)>,
    contacts: Vec<(NodeId, NodeId)>,
}

impl Scan {
    /// Replaces the lists with what the ids `0..n` see: pure reads of
    /// `roles` and `topology`, no RNG, no telemetry.
    fn rescan(&mut self, roles: &[Role], topology: &Topology) {
        self.broken.clear();
        self.contacts.clear();
        for u in 0..roles.len() as NodeId {
            match roles[u as usize] {
                Role::Member { head } => {
                    if !topology.are_linked(u, head) {
                        self.broken.push((u, head, true));
                    } else if !roles[head as usize].is_head() {
                        self.broken.push((u, head, false));
                    }
                }
                Role::Head => {
                    for &b in topology.neighbors(u) {
                        if b > u && roles[b as usize].is_head() {
                            self.contacts.push((u, b));
                        }
                    }
                }
            }
        }
    }

    /// Replaces the lists with the same lists as [`Scan::rescan`], read
    /// from the link `events` since a topology on which `roles` satisfied
    /// P1 and P2. Then every member was linked to its head and no two
    /// heads were linked, so an affiliation can only have broken with a
    /// broken link from a member to its head, and two heads can only be
    /// adjacent through a generated link: two role reads per event.
    fn rescan_events(&mut self, roles: &[Role], events: &[LinkEvent]) {
        self.broken.clear();
        self.contacts.clear();
        for e in events {
            let (a, b) = (e.a, e.b);
            match e.kind {
                LinkEventKind::Broken => {
                    if roles[a as usize] == (Role::Member { head: b }) {
                        self.broken.push((a, b, true));
                    } else if roles[b as usize] == (Role::Member { head: a }) {
                        self.broken.push((b, a, true));
                    }
                }
                LinkEventKind::Generated => {
                    if roles[a as usize].is_head() && roles[b as usize].is_head() {
                        self.contacts.push((a, b));
                    }
                }
            }
        }
        // A broken entry's member is either endpoint, so that list needs
        // the sort; the contacts come sorted with the events, in `(a, b)`
        // order, and the sort only checks them.
        self.broken.sort_unstable();
        self.contacts.sort_unstable();
    }
}

/// Buffers a maintenance pass reuses, so a steady-state pass does not
/// allocate.
#[derive(Debug, Clone, Default)]
struct PassBuffers {
    /// The scan the commit applies.
    scan: Scan,
    /// Per node: why it was orphaned this pass and the root cause its
    /// re-home or promotion will carry (`None` without a cause tracker).
    /// `None` for every node between passes.
    orphans: Vec<Option<(OrphanCause, Option<Cause>)>>,
    /// The nodes whose `orphans` slot this pass set, in the order set
    /// (phase 3 sorts and deduplicates them, then resets their slots).
    orphaned: Vec<NodeId>,
    /// The scan's broken links as `(head, member)` pairs, sorted, so a
    /// resignation finds the loser's unlinked members by binary search.
    broken_by_head: Vec<(NodeId, NodeId)>,
}

impl PassBuffers {
    /// Buffers for `n` nodes. The scan's lists get room for an eighth of
    /// the nodes each, far more than the few broken affiliations and head
    /// contacts a steady-state pass finds, so they never grow there; a
    /// node's slot is set at most once per pass, so `orphaned` never does.
    fn for_nodes(n: usize) -> Self {
        let room = n / 8 + 8;
        PassBuffers {
            scan: Scan {
                broken: Vec::with_capacity(room),
                contacts: Vec::with_capacity(room),
            },
            orphans: vec![None; n],
            orphaned: Vec::with_capacity(n),
            broken_by_head: Vec::with_capacity(room),
        }
    }
}

/// A live one-hop cluster structure: per-node roles plus the policy that
/// arbitrates headship contests.
///
/// Construct with [`Clustering::form`] (the initial formation stage, whose
/// messages the paper does not count) and keep consistent with a moving
/// topology by calling [`Clustering::maintain`] every tick.
#[derive(Debug, Clone)]
pub struct Clustering<P> {
    policy: P,
    roles: Vec<Role>,
    /// How many of `roles` are heads, kept at every role write.
    heads: usize,
    buffers: PassBuffers,
    /// The stamp of the topology the previous pass read; 0 before the
    /// first pass.
    stamp: u64,
    /// Whether the previous pass left P1 and P2 intact: it lost and
    /// deferred no send, and no node was down.
    clean: bool,
    /// Passes that read their lists from the topology's link events.
    event_passes: u64,
}

impl<P: ClusterPolicy> Clustering<P> {
    /// Runs the formation stage on a static topology.
    ///
    /// Iterative local-maxima rounds: an undecided node whose priority beats
    /// every undecided neighbor becomes a head; undecided neighbors of new
    /// heads immediately join their best neighboring head. For
    /// [`LowestId`](crate::LowestId) this computes exactly the classic LID
    /// outcome.
    pub fn form(policy: P, topology: &Topology) -> Self {
        Self::form_with_stats(policy, topology).0
    }

    /// [`form`](Self::form), also reporting how many synchronous rounds the
    /// distributed algorithm needs to converge — the "convergence time"
    /// metric of the authors' companion analysis (Er & Seah, PMWMNC 2005).
    pub fn form_with_stats(policy: P, topology: &Topology) -> (Self, FormationStats) {
        let n = topology.len();
        let mut roles: Vec<Option<Role>> = vec![None; n];
        let mut undecided = n;
        let mut rounds = 0usize;
        while undecided > 0 {
            rounds += 1;
            // Heads of this round: undecided local maxima among undecided
            // closed neighborhoods. No two can be adjacent.
            let mut round_heads = Vec::new();
            for u in 0..n as NodeId {
                if roles[u as usize].is_some() {
                    continue;
                }
                let pu = policy.priority(u, topology);
                let wins = topology
                    .neighbors(u)
                    .iter()
                    .filter(|&&w| roles[w as usize].is_none())
                    .all(|&w| pu > policy.priority(w, topology));
                if wins {
                    round_heads.push(u);
                }
            }
            debug_assert!(!round_heads.is_empty(), "formation must make progress");
            for &h in &round_heads {
                roles[h as usize] = Some(Role::Head);
                undecided -= 1;
            }
            // Undecided neighbors of the new heads join their best
            // neighboring head.
            for &h in &round_heads {
                for &w in topology.neighbors(h) {
                    if roles[w as usize].is_some() {
                        continue;
                    }
                    let best = topology
                        .neighbors(w)
                        .iter()
                        .filter(|&&x| matches!(roles[x as usize], Some(Role::Head)))
                        .max_by_key(|&&x| policy.priority(x, topology))
                        .copied()
                        .expect("w is adjacent to at least head h");
                    roles[w as usize] = Some(Role::Member { head: best });
                    undecided -= 1;
                }
            }
        }
        let roles = roles
            .into_iter()
            .map(|r| r.expect("all nodes decided"))
            .collect();
        let clustering = Clustering::with_roles(policy, roles, PassBuffers::for_nodes(n));
        (clustering, FormationStats { rounds })
    }

    /// A clustering with the given roles and pass buffers, before its
    /// first pass.
    fn with_roles(policy: P, roles: Vec<Role>, buffers: PassBuffers) -> Self {
        Clustering {
            heads: roles.iter().filter(|r| r.is_head()).count(),
            policy,
            roles,
            buffers,
            stamp: 0,
            clean: true,
            event_passes: 0,
        }
    }

    /// Repairs the cluster structure against a new topology, returning the
    /// CLUSTER messages this pass would transmit.
    ///
    /// Reactive LCC semantics — nothing changes unless P1/P2 broke:
    ///
    /// 1. members whose head link disappeared are orphaned;
    /// 2. adjacent head pairs are resolved lowest-pair-first: the
    ///    lower-priority head resigns (one message), joins the winner, and
    ///    orphans its members;
    /// 3. orphans re-affiliate with their best neighboring head (one message
    ///    each) or promote themselves to head (one message) when no head is
    ///    in range. Orphans are processed in id order, so a freshly promoted
    ///    orphan can adopt later orphans — chain reactions are executed and
    ///    counted, which is why measured counts can slightly exceed the
    ///    paper's lower bound.
    ///
    /// A pass is a pure scan of the pre-pass roles, then the sequential
    /// commit. The scan reads the ids `0..n`, except on an *event pass*:
    /// when the previous pass left P1 and P2 intact (no lost or deferred
    /// send, no node down), `ctx` carries no fault hooks (so no node is
    /// down and no send can fail), and the topology carries the link
    /// events from the one the previous pass read
    /// ([`Topology::events_since`]), the same lists come from those
    /// events alone. Every other pass scans: the first, one after a world
    /// step with no pass, one on a topology edited after its events (a
    /// crash mask), one after a lossy, deferred or crashed pass, and
    /// every pass under fault hooks, as [`SelfHealing`](crate::SelfHealing)
    /// runs them.
    ///
    /// The cross-cutting planes ride in `ctx`:
    ///
    /// - **Faults** (`ctx.hooks`) decide which nodes are up and whether
    ///   each CLUSTER send goes through. An [`Attempt::Lost`] send pays its
    ///   overhead (`lost_sends`) but does *not* commit the role change, so
    ///   the invariant violation persists into later passes until a retry
    ///   succeeds; [`Attempt::Deferred`] (backoff) pays nothing. Crashed
    ///   nodes are skipped entirely — they neither orphan themselves nor
    ///   transmit. Without hooks the pass is ideal: identical role changes,
    ///   identical counts.
    /// - **Telemetry** (`ctx.probe`): every committed role change is
    ///   emitted (`HeadResigned`, `MemberReaffiliated`, `HeadElected`)
    ///   stamped with `ctx.now`. When the probe carries a `CauseTracker`,
    ///   every event is tagged with its root cause — a fresh `HeadLoss`
    ///   root per broken member↔head link (chained to a same-tick `Churn`
    ///   root when the head just crashed or recovered), a fresh
    ///   `HeadContact` root per committed resignation (carried by the
    ///   loser's orphaned members through their re-homes), and the stored
    ///   resignation cause for members whose recorded head quietly stopped
    ///   being one. Orphanings additionally emit `HeadLost` marker events;
    ///   these exist only under attribution, so a traced-but-unattributed
    ///   run remains event-for-event identical (one event per committed
    ///   CLUSTER message).
    pub fn maintain(
        &mut self,
        topology: &Topology,
        ctx: &mut StepCtx<'_, '_>,
    ) -> MaintenanceOutcome {
        assert_eq!(
            topology.len(),
            self.roles.len(),
            "topology node count changed under a live clustering"
        );
        let events = if self.clean && ctx.hooks.is_none() {
            topology.events_since(self.stamp)
        } else {
            None
        };
        match events {
            Some(events) => {
                self.buffers.scan.rescan_events(&self.roles, events);
                self.event_passes += 1;
            }
            None => self.buffers.scan.rescan(&self.roles, topology),
        }
        let outcome = self.commit(topology, ctx);
        self.stamp = topology.stamp();
        outcome
    }

    /// The sequential half of a pass, applying `self.buffers.scan` — every
    /// role write, cause allocation, fault attempt and emission, in id
    /// order.
    ///
    /// Phase 2 is one forward pass over the sorted head pairs with a
    /// validity re-check. The rule resolves the lowest adjacent head pair
    /// first, rescanning after each resolution; resignations only ever
    /// *remove* heads and phase 1 writes no roles, so no pair absent from
    /// the pre-pass scan can appear, every pair below the current one is
    /// already resolved, retired (an endpoint resigned) or lost for this
    /// pass, and the forward pass visits the same pairs in the same order
    /// (`tests/maintenance_oracle.rs` pins this against the rescan).
    ///
    /// A resignation orphans the loser's members without a scan of all
    /// roles: a pre-pass member is either still linked to the loser or in
    /// the scan's broken list under it (the scan covers every node, and a
    /// pre-pass head has no `link_broke == false` entries), and a head that
    /// lost to it earlier in the pass is adjacent to it. Both lists are
    /// walked merged in ascending id order, the order a full scan visits.
    fn commit(&mut self, topology: &Topology, ctx: &mut StepCtx<'_, '_>) -> MaintenanceOutcome {
        let now = ctx.now;
        let n = self.roles.len();
        let Clustering {
            policy,
            roles,
            heads,
            buffers,
            ..
        } = self;
        let PassBuffers {
            scan,
            orphans,
            orphaned,
            broken_by_head,
        } = buffers;
        // Buffers built empty (a hand-made clustering) size themselves once.
        if orphans.len() != n {
            orphans.clear();
            orphans.resize(n, None);
        }
        broken_by_head.clear();
        broken_by_head.extend(
            scan.broken
                .iter()
                .filter(|&&(_, _, link_broke)| link_broke)
                .map(|&(m, head, _)| (head, m)),
        );
        broken_by_head.sort_unstable();
        let mut outcome = MaintenanceOutcome::default();

        // Phase 1: live members whose affiliation is broken — the head link
        // is gone, or (only possible after a lost repair or a recovery from
        // a crash) the recorded head is no longer a head.
        for &(u, head, link_broke) in &scan.broken {
            if !ctx.is_alive(u) {
                continue;
            }
            let orphan = if link_broke {
                // Chain to a same-tick churn root (the head or the member
                // itself just crashed/recovered); otherwise this is the
                // paper's first CLUSTER trigger.
                let why = ctx.probe.causes().map(|t| {
                    t.churn_cause(head, now)
                        .or_else(|| t.churn_cause(u, now))
                        .unwrap_or_else(|| t.allocate(RootCause::HeadLoss))
                });
                (OrphanCause::LinkBroke, why)
            } else {
                // The head resigned in an earlier pass (this member's
                // re-home was lost) — keep charging that contact.
                let why = ctx.probe.causes().map(|t| {
                    t.resignation_cause(head)
                        .unwrap_or_else(|| t.allocate(RootCause::HeadLoss))
                });
                (OrphanCause::HeadResigned, why)
            };
            orphans[u as usize] = Some(orphan);
            orphaned.push(u);
            if ctx.probe.is_attributing() {
                ctx.probe.emit_caused(
                    now,
                    Layer::Cluster,
                    EventKind::HeadLost { member: u, head },
                    orphan.1,
                );
            }
        }

        // Phase 2: resolve head–head contacts, lowest pair first. A pair
        // whose endpoint already resigned is skipped; a lost or deferred
        // resignation leaves both heads in place until the next pass.
        for &(a, b) in &scan.contacts {
            if !(roles[a as usize].is_head() && roles[b as usize].is_head()) {
                continue;
            }
            let (winner, loser) = if policy.priority(a, topology) > policy.priority(b, topology) {
                (a, b)
            } else {
                (b, a)
            };
            // The loser resigns and announces its new affiliation: 1 msg.
            match ctx.attempt(loser) {
                Attempt::Delivered => {
                    roles[loser as usize] = Role::Member { head: winner };
                    *heads -= 1;
                    outcome.contact_resignations += 1;
                    // One fresh HeadContact root covers the resignation
                    // and every re-home it forces; remembered so members
                    // whose re-home is lost keep charging this contact.
                    let why = ctx.probe.causes().map(|t| {
                        let c = t.allocate(RootCause::HeadContact);
                        t.note_resignation(loser, c);
                        c
                    });
                    ctx.probe.emit_caused(
                        now,
                        Layer::Cluster,
                        EventKind::HeadResigned {
                            node: loser,
                            new_head: winner,
                        },
                        why,
                    );
                    // The loser just re-homed itself; its members are
                    // orphaned (unless already orphaned by a break).
                    orphans[loser as usize] = None;
                    let lo = broken_by_head.partition_point(|&(h, _)| h < loser);
                    let hi = broken_by_head.partition_point(|&(h, _)| h <= loser);
                    let unlinked = broken_by_head[lo..hi].iter().map(|&(_, m)| m);
                    for m in merge_ascending(topology.neighbors(loser).iter().copied(), unlinked) {
                        let slot = &mut orphans[m as usize];
                        if roles[m as usize] == (Role::Member { head: loser }) && slot.is_none() {
                            *slot = Some((OrphanCause::HeadResigned, why));
                            orphaned.push(m);
                            if ctx.probe.is_attributing() {
                                ctx.probe.emit_caused(
                                    now,
                                    Layer::Cluster,
                                    EventKind::HeadLost {
                                        member: m,
                                        head: loser,
                                    },
                                    why,
                                );
                            }
                        }
                    }
                }
                Attempt::Lost => outcome.lost_sends += 1,
                Attempt::Deferred => outcome.deferred_sends += 1,
            }
        }

        // Phase 3: orphans re-affiliate or promote, in id order. A lost
        // announcement leaves the stale role in place for a later retry.
        // Only the slots set this pass are walked, and reset.
        orphaned.sort_unstable();
        orphaned.dedup();
        for &u in orphaned.iter() {
            let Some((cause, why)) = orphans[u as usize].take() else {
                continue;
            };
            match ctx.attempt(u) {
                Attempt::Delivered => {}
                Attempt::Lost => {
                    outcome.lost_sends += 1;
                    continue;
                }
                Attempt::Deferred => {
                    outcome.deferred_sends += 1;
                    continue;
                }
            }
            let best_head = topology
                .neighbors(u)
                .iter()
                .filter(|&&x| roles[x as usize].is_head())
                .max_by_key(|&&x| policy.priority(x, topology))
                .copied();
            if let Some(h) = best_head {
                roles[u as usize] = Role::Member { head: h };
                match cause {
                    OrphanCause::LinkBroke => outcome.break_reaffiliations += 1,
                    OrphanCause::HeadResigned => outcome.contact_reaffiliations += 1,
                }
                ctx.probe.emit_caused(
                    now,
                    Layer::Cluster,
                    EventKind::MemberReaffiliated { member: u, head: h },
                    why,
                );
            } else {
                roles[u as usize] = Role::Head;
                *heads += 1;
                match cause {
                    OrphanCause::LinkBroke => outcome.break_promotions += 1,
                    OrphanCause::HeadResigned => outcome.contact_promotions += 1,
                }
                if let Some(t) = ctx.probe.causes() {
                    t.clear_resignation(u);
                }
                ctx.probe
                    .emit_caused(now, Layer::Cluster, EventKind::HeadElected { node: u }, why);
            }
        }
        orphaned.clear();

        // The engine only guarantees clean invariants when nothing was
        // lost, deferred, or down this pass; the next pass may then read
        // its lists from the link events.
        self.clean = outcome.lost_sends == 0
            && outcome.deferred_sends == 0
            && (ctx.hooks.is_none() || (0..n as NodeId).all(|u| ctx.is_alive(u)));
        if self.clean {
            debug_assert_eq!(self.check_invariants(topology), Ok(()));
        }
        debug_assert_eq!(
            self.heads,
            self.roles.iter().filter(|r| r.is_head()).count(),
            "head count out of step with the roles"
        );
        outcome
    }

    /// Verifies P1 and P2 against a topology.
    ///
    /// # Errors
    ///
    /// Returns the first violation found, scanning nodes in id order.
    pub fn check_invariants(&self, topology: &Topology) -> Result<(), InvariantViolation> {
        for u in 0..self.roles.len() as NodeId {
            match self.roles[u as usize] {
                Role::Head => {
                    for &w in topology.neighbors(u) {
                        if w > u && self.roles[w as usize].is_head() {
                            return Err(InvariantViolation::AdjacentHeads(u, w));
                        }
                    }
                }
                Role::Member { head } => {
                    if !self.roles[head as usize].is_head() {
                        return Err(InvariantViolation::HeadIsNotHead { member: u, head });
                    }
                    if !topology.are_linked(u, head) {
                        return Err(InvariantViolation::HeadOutOfRange { member: u, head });
                    }
                }
            }
        }
        Ok(())
    }

    /// Collects *every* P1/P2 violation against a topology, in node-id
    /// order (where [`check_invariants`](Self::check_invariants) stops at
    /// the first).
    pub fn violations(&self, topology: &Topology) -> Vec<InvariantViolation> {
        let mut out = Vec::new();
        self.violations_where(topology, |_| true, |v| out.push(v));
        out
    }

    /// [`violations`](Self::violations) restricted to live nodes: crashed
    /// nodes are exempt as subjects (a dead radio has no role to violate),
    /// but a live member affiliated with a dead head still shows up as
    /// [`InvariantViolation::HeadOutOfRange`] because the dead head's links
    /// are gone.
    ///
    /// # Panics
    ///
    /// Panics if `alive.len()` differs from the node count.
    pub fn violations_among(&self, topology: &Topology, alive: &[bool]) -> Vec<InvariantViolation> {
        assert_eq!(alive.len(), self.roles.len(), "alive mask size mismatch");
        let mut out = Vec::new();
        self.violations_where(topology, |u| alive[u as usize], |v| out.push(v));
        out
    }

    /// How many violations [`violations_among`](Self::violations_among)
    /// would collect, counted in the same walk without collecting them.
    ///
    /// # Panics
    ///
    /// Panics if `alive.len()` differs from the node count.
    pub(crate) fn violation_count_among(&self, topology: &Topology, alive: &[bool]) -> u64 {
        assert_eq!(alive.len(), self.roles.len(), "alive mask size mismatch");
        let mut count = 0;
        self.violations_where(topology, |u| alive[u as usize], |_| count += 1);
        count
    }

    /// Hands every P1/P2 violation among the nodes `subject` accepts to
    /// `found`, in node-id order.
    fn violations_where(
        &self,
        topology: &Topology,
        subject: impl Fn(NodeId) -> bool,
        mut found: impl FnMut(InvariantViolation),
    ) {
        for u in 0..self.roles.len() as NodeId {
            if !subject(u) {
                continue;
            }
            match self.roles[u as usize] {
                Role::Head => {
                    for &w in topology.neighbors(u) {
                        if w > u && self.roles[w as usize].is_head() && subject(w) {
                            found(InvariantViolation::AdjacentHeads(u, w));
                        }
                    }
                }
                Role::Member { head } => {
                    if !self.roles[head as usize].is_head() {
                        found(InvariantViolation::HeadIsNotHead { member: u, head });
                    } else if !topology.are_linked(u, head) {
                        found(InvariantViolation::HeadOutOfRange { member: u, head });
                    }
                }
            }
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Per-node roles, indexed by node id.
    pub fn roles(&self) -> &[Role] {
        &self.roles
    }

    /// Role of node `u`.
    pub fn role(&self, u: NodeId) -> Role {
        self.roles[u as usize]
    }

    /// Whether node `u` is a cluster-head.
    pub fn is_head(&self, u: NodeId) -> bool {
        self.roles[u as usize].is_head()
    }

    /// The head of node `u`'s cluster (`u` itself when `u` is a head).
    pub fn head_of(&self, u: NodeId) -> NodeId {
        match self.roles[u as usize] {
            Role::Head => u,
            Role::Member { head } => head,
        }
    }

    /// Number of cluster-heads (= number of clusters). O(1): the count is
    /// kept at every role write.
    pub fn head_count(&self) -> usize {
        self.heads
    }

    /// How many maintenance passes read their lists from the topology's
    /// link events instead of scanning every node (see
    /// [`maintain`](Self::maintain)); both give the same outcome.
    pub fn event_passes(&self) -> u64 {
        self.event_passes
    }

    /// Fraction of nodes that are heads — the paper's `P`.
    pub fn head_ratio(&self) -> f64 {
        if self.roles.is_empty() {
            0.0
        } else {
            self.head_count() as f64 / self.roles.len() as f64
        }
    }

    /// Members of head `h` (excluding `h` itself); empty when `h` is not a
    /// head.
    pub fn members_of(&self, h: NodeId) -> Vec<NodeId> {
        self.roles
            .iter()
            .enumerate()
            .filter_map(|(u, r)| match r {
                Role::Member { head } if *head == h => Some(u as NodeId),
                _ => None,
            })
            .collect()
    }

    /// All clusters as `(head, members)` pairs, ordered by head id.
    pub fn clusters(&self) -> Vec<(NodeId, Vec<NodeId>)> {
        (0..self.roles.len() as NodeId)
            .filter(|&h| self.is_head(h))
            .map(|h| (h, self.members_of(h)))
            .collect()
    }
}

/// The ascending merge of two ascending id streams.
fn merge_ascending(
    a: impl Iterator<Item = NodeId>,
    b: impl Iterator<Item = NodeId>,
) -> impl Iterator<Item = NodeId> {
    let (mut a, mut b) = (a.peekable(), b.peekable());
    std::iter::from_fn(move || match (a.peek(), b.peek()) {
        (Some(x), Some(y)) if y < x => b.next(),
        (Some(_), _) => a.next(),
        (None, _) => b.next(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{ClusterPolicy, HighestConnectivity, LowestId};
    use manet_geom::{Metric, SquareRegion, Vec2};
    use manet_sim::QuietCtx;
    use manet_telemetry::Probe;

    /// One quiet ideal-plane maintenance pass.
    fn m<P: ClusterPolicy>(c: &mut Clustering<P>, t: &Topology) -> MaintenanceOutcome {
        let mut q = QuietCtx::new();
        c.maintain(t, &mut q.ctx())
    }

    /// One quiet pass under explicit fault hooks.
    fn mf<P: ClusterPolicy>(
        c: &mut Clustering<P>,
        t: &Topology,
        hooks: &mut dyn FaultHooks,
    ) -> MaintenanceOutcome {
        let mut probe = Probe::off();
        c.maintain(t, &mut StepCtx::new(&mut probe).with_hooks(hooks))
    }

    /// A LID clustering with hand-written roles and empty pass buffers.
    fn hand_made(roles: Vec<Role>) -> Clustering<LowestId> {
        Clustering::with_roles(LowestId, roles, PassBuffers::default())
    }

    /// Builds a topology from explicit positions with unit-disk radius.
    fn topo(positions: &[(f64, f64)], radius: f64) -> Topology {
        let pts: Vec<Vec2> = positions.iter().map(|&(x, y)| Vec2::new(x, y)).collect();
        Topology::compute(&pts, SquareRegion::new(1000.0), radius, Metric::Euclidean)
    }

    /// A path topology 0—1—2—…—(k−1), spacing 1, radius 1.1.
    fn path(k: usize) -> Topology {
        let pts: Vec<(f64, f64)> = (0..k).map(|i| (i as f64, 0.0)).collect();
        topo(&pts, 1.1)
    }

    #[test]
    fn lid_formation_on_a_path_matches_the_spec() {
        // Sequential LID on a 5-path: 0 heads {0,1}; 2 is the smallest
        // undecided in {2,3}; 4 is alone. Heads = {0, 2, 4}.
        let t = path(5);
        let c = Clustering::form(LowestId, &t);
        assert_eq!(
            c.roles(),
            &[
                Role::Head,
                Role::Member { head: 0 },
                Role::Head,
                Role::Member { head: 2 },
                Role::Head,
            ]
        );
        assert_eq!(c.head_count(), 3);
        assert!((c.head_ratio() - 0.6).abs() < 1e-12);
        c.check_invariants(&t).unwrap();
    }

    #[test]
    fn formation_star_prefers_center_under_hcc_but_not_lid() {
        // Star: center node 4 adjacent to 0..3 (which are pairwise far).
        let pts = [
            (0.0, 10.0),
            (20.0, 10.0),
            (10.0, 0.0),
            (10.0, 20.0),
            (10.0, 10.0),
        ];
        let t = topo(&pts, 11.0);
        let lid = Clustering::form(LowestId, &t);
        // LID: node 0 is the global minimum → head; center 4 joins 0; the
        // leaves 1,2,3 are then alone among undecided → heads.
        assert!(lid.is_head(0));
        assert_eq!(lid.role(4), Role::Member { head: 0 });
        assert!(lid.is_head(1) && lid.is_head(2) && lid.is_head(3));
        lid.check_invariants(&t).unwrap();

        let hcc = Clustering::form(HighestConnectivity, &t);
        // HCC: the center has degree 4, beats every leaf.
        assert!(hcc.is_head(4));
        for leaf in 0..4 {
            assert_eq!(hcc.role(leaf), Role::Member { head: 4 });
        }
        hcc.check_invariants(&t).unwrap();
        assert_eq!(hcc.head_count(), 1);
    }

    #[test]
    fn isolated_nodes_become_singleton_heads() {
        let t = topo(&[(0.0, 0.0), (100.0, 100.0)], 1.0);
        let c = Clustering::form(LowestId, &t);
        assert!(c.is_head(0) && c.is_head(1));
        assert_eq!(c.clusters(), vec![(0, vec![]), (1, vec![])]);
    }

    #[test]
    fn member_head_break_reaffiliates_to_another_head() {
        // 0—1—2: LID heads {0, 2}? No: 0 heads {0,1}; 2 smallest undecided
        // among {2} → head. 1 is member of 0.
        let t0 = path(3);
        let mut c = Clustering::form(LowestId, &t0);
        assert_eq!(c.role(1), Role::Member { head: 0 });
        // Node 0 moves away; 1 stays adjacent to 2 only.
        let t1 = topo(&[(500.0, 0.0), (1.0, 0.0), (2.0, 0.0)], 1.1);
        let o = m(&mut c, &t1);
        assert_eq!(c.role(1), Role::Member { head: 2 });
        assert_eq!(o.break_reaffiliations, 1);
        assert_eq!(o.total_messages(), 1);
        c.check_invariants(&t1).unwrap();
    }

    #[test]
    fn member_head_break_promotes_when_no_head_in_range() {
        let t0 = path(2); // 0 head, 1 member of 0
        let mut c = Clustering::form(LowestId, &t0);
        let t1 = topo(&[(0.0, 0.0), (50.0, 0.0)], 1.1);
        let o = m(&mut c, &t1);
        assert!(c.is_head(1));
        assert_eq!(o.break_promotions, 1);
        assert_eq!(o.total_messages(), 1);
        c.check_invariants(&t1).unwrap();
    }

    #[test]
    fn head_contact_resigns_the_weaker_head_and_rehomes_members() {
        // Two 2-clusters far apart: heads 0 and 2 with members 1 and 3.
        let t0 = topo(&[(0.0, 0.0), (1.0, 0.0), (10.0, 0.0), (11.0, 0.0)], 1.1);
        let mut c = Clustering::form(LowestId, &t0);
        assert!(c.is_head(0) && c.is_head(2));
        // Heads drift into contact; everyone ends up mutually visible
        // except nothing else changes.
        let t1 = topo(&[(5.0, 0.0), (4.5, 0.0), (5.5, 0.0), (6.0, 0.0)], 2.0);
        let o = m(&mut c, &t1);
        // LID: head 0 beats head 2; 2 resigns and joins 0 (1 msg); 2's
        // member 3 re-homes (1 msg) — it is adjacent to 0 here.
        assert!(c.is_head(0));
        assert_eq!(c.role(2), Role::Member { head: 0 });
        assert_eq!(c.role(3), Role::Member { head: 0 });
        assert_eq!(o.contact_resignations, 1);
        assert_eq!(o.contact_reaffiliations, 1);
        assert_eq!(o.total_messages(), 2);
        c.check_invariants(&t1).unwrap();
    }

    #[test]
    fn head_contact_member_out_of_winner_range_promotes() {
        // Head 0 at x=0; head 1 at x=1.4 with member 2 at x=2.8 (radius
        // 1.5): after contact, 1 resigns to 0; 2 hears no head (0 is at
        // distance 2.8, 1 resigned) → promotes itself.
        let pts = [(0.0, 0.0), (1.4, 0.0), (2.8, 0.0)];
        let t0 = topo(&[(0.0, 0.0), (20.0, 0.0), (21.4, 0.0)], 1.5);
        let mut c = Clustering::form(LowestId, &t0);
        assert!(c.is_head(0) && c.is_head(1));
        assert_eq!(c.role(2), Role::Member { head: 1 });
        let t1 = topo(&pts, 1.5);
        let o = m(&mut c, &t1);
        assert!(c.is_head(0));
        assert_eq!(c.role(1), Role::Member { head: 0 });
        assert!(c.is_head(2), "stranded member promotes");
        assert_eq!(o.contact_resignations, 1);
        assert_eq!(o.contact_promotions, 1);
        c.check_invariants(&t1).unwrap();
    }

    #[test]
    fn chain_reaction_is_executed_and_counted() {
        // Three heads in a row coming into mutual contact: 0—1—2 all heads
        // before the tick (they were far apart).
        let t0 = topo(&[(0.0, 0.0), (10.0, 0.0), (20.0, 0.0)], 1.1);
        let mut c = Clustering::form(LowestId, &t0);
        assert_eq!(c.head_count(), 3);
        let t1 = path(3);
        let o = m(&mut c, &t1);
        // Contacts: (0,1) → 1 resigns to 0. Then (0,2)? Not adjacent (path).
        // 2 stays head; no member of 1 existed.
        assert!(c.is_head(0));
        assert_eq!(c.role(1), Role::Member { head: 0 });
        assert!(c.is_head(2));
        assert_eq!(o.contact_resignations, 1);
        assert_eq!(o.total_messages(), 1);
        c.check_invariants(&t1).unwrap();
    }

    #[test]
    fn no_events_means_no_messages() {
        let t = path(6);
        let mut c = Clustering::form(LowestId, &t);
        let o = m(&mut c, &t);
        assert_eq!(o, MaintenanceOutcome::default());
        assert_eq!(o.total_messages(), 0);
    }

    #[test]
    fn outcome_absorb_accumulates() {
        let mut a = MaintenanceOutcome {
            break_reaffiliations: 1,
            break_promotions: 2,
            contact_resignations: 3,
            contact_reaffiliations: 4,
            contact_promotions: 5,
            lost_sends: 6,
            deferred_sends: 7,
        };
        a.absorb(a);
        assert_eq!(a.total_messages(), 30);
        assert_eq!(a.break_triggered_messages(), 6);
        assert_eq!(a.contact_triggered_messages(), 24);
        assert_eq!(a.attempted_messages(), 42);
        assert_eq!(a.lost_sends, 12);
        assert_eq!(a.deferred_sends, 14);
    }

    #[test]
    fn invariant_checker_reports_violations() {
        let t = path(2);
        let c = hand_made(vec![Role::Head, Role::Head]);
        assert_eq!(
            c.check_invariants(&t),
            Err(InvariantViolation::AdjacentHeads(0, 1))
        );
        let c = hand_made(vec![Role::Member { head: 1 }, Role::Member { head: 0 }]);
        assert!(matches!(
            c.check_invariants(&t),
            Err(InvariantViolation::HeadIsNotHead { member: 0, head: 1 })
        ));
        let t_far = topo(&[(0.0, 0.0), (50.0, 0.0)], 1.0);
        let c = hand_made(vec![Role::Head, Role::Member { head: 0 }]);
        assert!(matches!(
            c.check_invariants(&t_far),
            Err(InvariantViolation::HeadOutOfRange { member: 1, head: 0 })
        ));
        // Display is informative.
        let msg = InvariantViolation::AdjacentHeads(3, 4).to_string();
        assert!(msg.contains("P1"));
    }

    #[test]
    fn violations_reports_every_breakage() {
        let t = path(4);
        let c = hand_made(vec![
            Role::Head,
            Role::Head,
            Role::Member { head: 3 },
            Role::Member { head: 0 },
        ]);
        let v = c.violations(&t);
        // (0,1) adjacent heads; 2's head 3 is not a head; 3's head 0 is out
        // of range on a 4-path.
        assert_eq!(v.len(), 3);
        assert_eq!(v[0], InvariantViolation::AdjacentHeads(0, 1));
        assert!(matches!(
            v[1],
            InvariantViolation::HeadIsNotHead { member: 2, .. }
        ));
        assert!(matches!(
            v[2],
            InvariantViolation::HeadOutOfRange { member: 3, .. }
        ));
        // Dead subjects are exempt; their heads' links are judged as-is.
        let v = c.violations_among(&t, &[true, false, false, true]);
        assert_eq!(v.len(), 1);
        assert!(matches!(
            v[0],
            InvariantViolation::HeadOutOfRange { member: 3, .. }
        ));
        // A consistent clustering reports nothing.
        let ok = Clustering::form(LowestId, &t);
        assert!(ok.violations(&t).is_empty());
    }

    /// Forces a deterministic loss pattern: the k-th attempt succeeds iff
    /// `pattern[k % len]`.
    struct ScriptedLoss {
        pattern: Vec<bool>,
        k: usize,
    }

    impl FaultHooks for ScriptedLoss {
        fn attempt(&mut self, _u: NodeId) -> Attempt {
            let ok = self.pattern[self.k % self.pattern.len()];
            self.k += 1;
            if ok {
                Attempt::Delivered
            } else {
                Attempt::Lost
            }
        }
    }

    #[test]
    fn lost_resignation_keeps_adjacent_heads_until_retry() {
        // Two singleton heads drift into contact.
        let t0 = topo(&[(0.0, 0.0), (10.0, 0.0)], 1.1);
        let mut c = Clustering::form(LowestId, &t0);
        assert!(c.is_head(0) && c.is_head(1));
        let t1 = path(2);
        let mut lossy = ScriptedLoss {
            pattern: vec![false],
            k: 0,
        };
        let o = mf(&mut c, &t1, &mut lossy);
        // The resignation was attempted (overhead paid) but did not commit.
        assert_eq!(o.lost_sends, 1);
        assert_eq!(o.total_messages(), 0);
        assert_eq!(o.attempted_messages(), 1);
        assert!(
            c.is_head(0) && c.is_head(1),
            "lost resignation must not commit"
        );
        assert_eq!(c.violations(&t1).len(), 1);
        // Retry succeeds and heals the structure.
        let mut fine = ScriptedLoss {
            pattern: vec![true],
            k: 0,
        };
        let o = mf(&mut c, &t1, &mut fine);
        assert_eq!(o.contact_resignations, 1);
        assert!(c.violations(&t1).is_empty());
        c.check_invariants(&t1).unwrap();
    }

    #[test]
    fn lost_reaffiliation_retries_until_it_commits() {
        // 0—1—2 with 1 member of 0; 0 walks away.
        let t0 = path(3);
        let mut c = Clustering::form(LowestId, &t0);
        let t1 = topo(&[(500.0, 0.0), (1.0, 0.0), (2.0, 0.0)], 1.1);
        let mut lossy = ScriptedLoss {
            pattern: vec![false, false, true],
            k: 0,
        };
        let mut lost = 0;
        let mut passes = 0;
        while !c.violations(&t1).is_empty() {
            let o = mf(&mut c, &t1, &mut lossy);
            lost += o.lost_sends;
            passes += 1;
            assert!(passes <= 5, "must converge quickly");
        }
        assert_eq!(lost, 2, "two losses before the scripted success");
        assert_eq!(c.role(1), Role::Member { head: 2 });
        c.check_invariants(&t1).unwrap();
    }

    #[test]
    fn crashed_nodes_neither_act_nor_transmit() {
        // 0—1—2, node 0 (the head) crashes: only node 1 must react.
        let t0 = path(3);
        let mut c = Clustering::form(LowestId, &t0);
        let mut masked = t0.clone();
        let alive = [false, true, true];
        masked.retain_alive(&alive);

        struct CrashOnly {
            alive: [bool; 3],
            senders: Vec<NodeId>,
        }
        impl FaultHooks for CrashOnly {
            fn is_alive(&self, u: NodeId) -> bool {
                self.alive[u as usize]
            }
            fn attempt(&mut self, u: NodeId) -> Attempt {
                self.senders.push(u);
                Attempt::Delivered
            }
        }
        let mut hooks = CrashOnly {
            alive,
            senders: Vec::new(),
        };
        let o = mf(&mut c, &masked, &mut hooks);
        // 1 lost its head → re-homes to head 2 (which stayed a head).
        assert_eq!(hooks.senders, vec![1]);
        assert_eq!(o.break_reaffiliations, 1);
        assert_eq!(c.role(1), Role::Member { head: 2 });
        // The dead node's stale role is exempt while down.
        assert!(c.violations_among(&masked, &alive).is_empty());
    }

    #[test]
    fn hookless_maintain_matches_nofaults_hooks() {
        use manet_sim::SimBuilder;
        let mut world = SimBuilder::new().nodes(80).seed(13).build();
        let mut a = Clustering::form(LowestId, world.topology());
        let mut b = a.clone();
        let mut q = QuietCtx::new();
        for _ in 0..50 {
            world.step(&mut q.ctx());
            let oa = m(&mut a, world.topology());
            let ob = mf(&mut b, world.topology(), &mut NoFaults);
            assert_eq!(oa, ob);
            assert_eq!(a.roles(), b.roles());
        }
    }

    #[test]
    fn traced_maintenance_emits_one_event_per_committed_role_change() {
        use manet_sim::SimBuilder;
        use manet_telemetry::Event;

        let mut world = SimBuilder::new().nodes(80).seed(17).build();
        let mut c = Clustering::form(LowestId, world.topology());
        let mut sink = Vec::<Event>::new();
        let mut total = MaintenanceOutcome::default();
        let mut q = QuietCtx::new();
        for _ in 0..60 {
            world.step(&mut q.ctx());
            let mut probe = Probe::subscriber(&mut sink);
            total.absorb(c.maintain(
                world.topology(),
                &mut StepCtx::new(&mut probe).at(world.time()),
            ));
        }
        assert!(total.total_messages() > 0, "mobile world must churn roles");
        let count = |f: fn(&EventKind) -> bool| sink.iter().filter(|e| f(&e.kind)).count() as u64;
        assert_eq!(
            count(|k| matches!(k, EventKind::HeadResigned { .. })),
            total.contact_resignations
        );
        assert_eq!(
            count(|k| matches!(k, EventKind::MemberReaffiliated { .. })),
            total.break_reaffiliations + total.contact_reaffiliations
        );
        assert_eq!(
            count(|k| matches!(k, EventKind::HeadElected { .. })),
            total.break_promotions + total.contact_promotions
        );
        // One event per committed CLUSTER message.
        assert_eq!(sink.len() as u64, total.total_messages());
        assert!(sink.iter().all(|e| e.layer == Layer::Cluster));
        // Timestamps are the sim times passed in, monotone over the run.
        assert!(sink.windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn attributed_maintenance_chains_every_event_to_a_root() {
        use manet_telemetry::{CauseTracker, Event};

        // Head contact: heads 0 and 2 (members 1 and 3) drift together.
        let t0 = topo(&[(0.0, 0.0), (1.0, 0.0), (10.0, 0.0), (11.0, 0.0)], 1.1);
        let mut c = Clustering::form(LowestId, &t0);
        let t1 = topo(&[(5.0, 0.0), (4.5, 0.0), (5.5, 0.0), (6.0, 0.0)], 2.0);
        let mut sink = Vec::<Event>::new();
        let mut tracker = CauseTracker::new();
        let mut probe = Probe::with_causes(Some(&mut sink), Some(&mut tracker));
        let o = c.maintain(&t1, &mut StepCtx::new(&mut probe).at(1.0));
        // Accounting is untouched by attribution.
        assert_eq!(o.contact_resignations, 1);
        assert_eq!(o.contact_reaffiliations, 1);
        // Every event carries a cause; the resignation anchors a single
        // HeadContact root shared by the orphaning and the re-home.
        assert!(sink.iter().all(|e| e.cause.is_some()));
        let resigned = sink
            .iter()
            .find(|e| matches!(e.kind, EventKind::HeadResigned { .. }))
            .expect("resignation emitted");
        let root = resigned.cause.unwrap();
        assert_eq!(root.root, RootCause::HeadContact);
        let lost: Vec<_> = sink
            .iter()
            .filter(|e| matches!(e.kind, EventKind::HeadLost { .. }))
            .collect();
        assert_eq!(lost.len(), 1, "loser's member 3 is orphaned");
        assert_eq!(lost[0].cause.unwrap().id, root.id);
        let rehomed = sink
            .iter()
            .find(|e| matches!(e.kind, EventKind::MemberReaffiliated { .. }))
            .expect("re-home emitted");
        assert_eq!(rehomed.cause.unwrap().id, root.id);

        // Member↔head break: a fresh HeadLoss root covers HeadLost + the
        // re-affiliation.
        let b0 = path(3);
        let mut c = Clustering::form(LowestId, &b0);
        let b1 = topo(&[(500.0, 0.0), (1.0, 0.0), (2.0, 0.0)], 1.1);
        let mut sink = Vec::<Event>::new();
        let mut tracker = CauseTracker::new();
        let mut probe = Probe::with_causes(Some(&mut sink), Some(&mut tracker));
        let o = c.maintain(&b1, &mut StepCtx::new(&mut probe).at(2.0));
        assert_eq!(o.break_reaffiliations, 1);
        assert_eq!(sink.len(), 2, "HeadLost marker + re-affiliation");
        let root = sink[0].cause.unwrap();
        assert!(matches!(sink[0].kind, EventKind::HeadLost { .. }));
        assert_eq!(root.root, RootCause::HeadLoss);
        assert_eq!(sink[1].cause.unwrap().id, root.id);
    }

    #[test]
    fn unattributed_tracing_emits_no_headlost_markers() {
        use manet_telemetry::Event;

        let t0 = path(3);
        let mut c = Clustering::form(LowestId, &t0);
        let t1 = topo(&[(500.0, 0.0), (1.0, 0.0), (2.0, 0.0)], 1.1);
        let mut sink = Vec::<Event>::new();
        let mut probe = Probe::subscriber(&mut sink);
        let o = c.maintain(&t1, &mut StepCtx::new(&mut probe).at(1.0));
        assert_eq!(o.total_messages(), 1);
        // Without a cause tracker the event stream is exactly the PR2
        // contract: one uncaused event per committed CLUSTER message.
        assert_eq!(sink.len(), 1);
        assert!(sink.iter().all(|e| e.cause.is_none()));
    }

    #[test]
    fn head_of_and_members_of() {
        let t = path(3);
        let c = Clustering::form(LowestId, &t);
        assert_eq!(c.head_of(0), 0);
        assert_eq!(c.head_of(1), 0);
        assert_eq!(c.members_of(0), vec![1]);
        assert!(c.members_of(1).is_empty());
        assert_eq!(c.policy().name(), "lowest-id");
    }
}

#[cfg(test)]
mod formation_stats_tests {
    use super::*;
    use crate::policy::LowestId;
    use manet_geom::{Metric, SquareRegion, Vec2};

    #[test]
    fn descending_id_path_needs_many_rounds() {
        // Reversed ids along a path force sequential decisions: the global
        // minimum sits at one end and each round only peels a few nodes.
        let k = 12usize;
        let pts: Vec<Vec2> = (0..k).map(|i| Vec2::new((k - 1 - i) as f64, 0.0)).collect();
        let topo = Topology::compute(&pts, SquareRegion::new(100.0), 1.1, Metric::Euclidean);
        let (c, stats) = Clustering::form_with_stats(LowestId, &topo);
        c.check_invariants(&topo).unwrap();
        assert!(stats.rounds >= 3, "rounds {}", stats.rounds);
    }

    #[test]
    fn single_round_when_every_head_wins_immediately() {
        // Isolated nodes: everyone is a local maximum in round 1.
        let pts = [Vec2::new(0.0, 0.0), Vec2::new(50.0, 50.0)];
        let topo = Topology::compute(&pts, SquareRegion::new(100.0), 1.0, Metric::Euclidean);
        let (_, stats) = Clustering::form_with_stats(LowestId, &topo);
        assert_eq!(stats.rounds, 1);
    }

    #[test]
    fn rounds_grow_slowly_with_network_size() {
        use manet_sim::SimBuilder;
        let mut prev = 0usize;
        for n in [100usize, 400] {
            let world = SimBuilder::new().nodes(n).seed(3).build();
            let (_, stats) = Clustering::form_with_stats(LowestId, world.topology());
            assert!(stats.rounds < 30, "rounds {}", stats.rounds);
            prev = prev.max(stats.rounds);
        }
        assert!(prev >= 1);
    }
}
