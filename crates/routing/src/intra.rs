//! Proactive intra-cluster distance-vector routing.
//!
//! Inside a one-hop cluster every node proactively maintains routes to
//! every co-cluster node. The update rule is the paper's lower bound
//! (Section 3.5.3): whenever the cluster's internal topology changes —
//! a member joins or leaves, or a link between two co-cluster nodes forms
//! or breaks — one update round propagates through the cluster, costing one
//! ROUTE message per cluster node.

use manet_cluster::ClusterAssignment;
use manet_sim::{Channel, LinkEvent, LinkEventKind, NodeId, SimError, StepCtx, Topology};
use manet_telemetry::{Cause, EventKind, Layer, MsgClass, RootCause};

/// ROUTE-message accounting for one update pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RouteUpdateOutcome {
    /// Clusters whose internal topology changed this pass.
    pub clusters_updated: u64,
    /// Update broadcast rounds executed — one per intra-cluster link
    /// change (the paper's Section 3.5.3 rule: "every link change within
    /// the cluster will initiate a round of routing information
    /// broadcasting"), plus one for a freshly formed cluster.
    pub update_rounds: u64,
    /// ROUTE messages transmitted (sum of cluster sizes over updated
    /// clusters).
    pub route_messages: u64,
    /// Routing-table entries carried by those messages (each node
    /// broadcasts its full intra-cluster table of `m` entries, so an
    /// updated cluster of size `m` contributes `m²` entries).
    pub route_entries: u64,
    /// Messages lost on a faulty channel (⊆ `route_messages` +
    /// `resync_messages`). Always 0 on an ideal channel.
    pub lost_messages: u64,
    /// Fallback re-sync rounds: full-table re-broadcasts in clusters whose
    /// previous round lost at least one message.
    pub resync_rounds: u64,
    /// ROUTE messages spent on fallback re-sync rounds.
    pub resync_messages: u64,
}

impl RouteUpdateOutcome {
    /// All ROUTE transmissions attempted this pass, regular plus re-sync.
    pub fn attempted_messages(&self) -> u64 {
        self.route_messages + self.resync_messages
    }

    /// Accumulates another pass into this one.
    pub fn absorb(&mut self, other: RouteUpdateOutcome) {
        self.clusters_updated += other.clusters_updated;
        self.update_rounds += other.update_rounds;
        self.route_messages += other.route_messages;
        self.route_entries += other.route_entries;
        self.lost_messages += other.lost_messages;
        self.resync_rounds += other.resync_rounds;
        self.resync_messages += other.resync_messages;
    }
}

/// One pass's cluster keys in flat vectors reused across passes.
///
/// Clusters are keyed by head value — `cluster_head_of`, which is always
/// a node id but not always a head (a `SelfHealing` member whose re-home
/// was lost keeps its resigned head) — so per-key vectors have one slot
/// per node.
#[derive(Debug, Clone, Default)]
struct Heads {
    /// Per node: its head key.
    head: Vec<NodeId>,
    /// Per head key: how many nodes name it (0 = no such cluster).
    size: Vec<u32>,
}

impl Heads {
    /// Refills every node's head key and every key's size from this
    /// pass's assignment.
    fn fill<C: ClusterAssignment + ?Sized>(&mut self, n: usize, clustering: &C) {
        let Heads { head, size } = self;
        head.clear();
        head.extend((0..n as NodeId).map(|u| clustering.cluster_head_of(u)));
        size.clear();
        size.resize(n, 0);
        for &h in head.iter() {
            size[h as usize] += 1;
        }
    }
}

/// Every node `a`'s intra-cluster links `(a, b)`, `b > a`, as flat rows
/// with `u32` offsets, like the topology's own: row `a` is
/// `links[offsets[a]..offsets[a + 1]]`. A filled row is sorted, because
/// neighbor rows are; a materialized one holds its links in any order.
/// Link `(a, b)` belongs to the cluster of `a`'s head when `b` shares
/// it, so each cluster's links are the union of its nodes' rows.
#[derive(Debug, Clone, Default)]
struct LinkRows {
    offsets: Vec<u32>,
    links: Vec<NodeId>,
}

impl LinkRows {
    /// Refills the rows from `topology` under the head keys `head`.
    fn fill(&mut self, topology: &Topology, head: &[NodeId]) {
        self.offsets.clear();
        self.offsets.push(0);
        self.links.clear();
        for a in 0..topology.len() as NodeId {
            let h = head[a as usize];
            self.links.extend(
                topology
                    .neighbors(a)
                    .iter()
                    .filter(|&&b| b > a && head[b as usize] == h),
            );
            self.offsets.push(offset(self.links.len()));
        }
    }

    /// Node `a`'s intra-cluster links to higher ids.
    fn row(&self, a: usize) -> &[NodeId] {
        &self.links[self.offsets[a] as usize..self.offsets[a + 1] as usize]
    }
}

/// A row offset as stored.
///
/// # Panics
///
/// Panics past `u32::MAX` links.
fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("an intra-cluster snapshot holds at most u32::MAX links")
}

/// The intra-cluster links of the previous pass, kept lazily: one
/// materialized snapshot, plus the row edits of the event passes since
/// it was taken. An edit `(a, b)` names a link `b` that entered or left
/// row `a`; it takes `b` out of the row if it is there and puts it in
/// otherwise, so edits commute, and two of the same link cancel.
///
/// Only a fallback pass reads the rows, so an event pass just appends
/// its edits. They are applied when a fallback pass needs the rows, when
/// they outnumber the snapshot's links (applying them then costs about
/// what recording them did, so each edit pays O(1)), and when their
/// buffer, sized at the first pass, is full.
#[derive(Debug, Clone, Default)]
struct LinkSnapshot {
    /// The materialized rows.
    rows: LinkRows,
    /// The pending edits, in the order recorded.
    edits: Vec<(NodeId, NodeId)>,
    /// During a materialization: the pending edits' links grouped by
    /// row, then every row's insertions, in row order. It has `edits`'
    /// capacity.
    grouped: Vec<NodeId>,
    /// Per row, during a materialization: where its group ends, then
    /// where its insertions end.
    ends: Vec<u32>,
    /// Per node, clear outside a materialization or a node diff: whether
    /// the row at hand holds, or has an odd number of edits of, the link
    /// to it.
    marks: Vec<bool>,
}

impl LinkSnapshot {
    /// Sets the snapshot to `topology`'s links under the head keys
    /// `head`, with no pending edits, and sizes the edit buffers for its
    /// `n` rows: room for two edits per node, plus two bursts of
    /// resignation cascades (64 moved nodes of degree 64), which holds a
    /// few passes' edits.
    fn fill(&mut self, topology: &Topology, head: &[NodeId]) {
        let n = topology.len();
        self.rows.fill(topology, head);
        clear_with_room(&mut self.edits, n + 64 * 64);
        clear_with_room(&mut self.grouped, n + 64 * 64);
        self.ends.clear();
        self.ends.resize(n, 0);
        self.marks.clear();
        self.marks.resize(n, false);
    }

    /// Records an edit of row `a` by link `b`, applying the pending edits
    /// first when their buffer is full.
    fn toggle(&mut self, a: NodeId, b: NodeId) {
        if self.edits.len() == self.edits.capacity() {
            self.materialize();
        }
        self.edits.push((a, b));
    }

    /// Applies the pending edits once they outnumber the snapshot's
    /// links.
    fn settle(&mut self) {
        if self.edits.len() > self.rows.links.len() {
            self.materialize();
        }
    }

    /// Applies every pending edit to the snapshot, in place. One counting
    /// pass groups the edits by row. A forward walk over the rows then
    /// moves the links down over the removed ones: an edited row flips a
    /// mark per edit, keeps its unmarked links, and moves the marked
    /// links of its group that it did not hold, its insertions, down to
    /// the front of `grouped`, clearing every mark it reads. A backward
    /// walk moves the links up to make room for the insertions, run by
    /// run between the rows that have some, and writes them at the ends
    /// of their rows. Each move only goes the way of its walk, so no
    /// link is overwritten before it is read.
    fn materialize(&mut self) {
        if self.edits.is_empty() {
            return;
        }
        let LinkSnapshot {
            rows: LinkRows { offsets, links },
            edits,
            grouped,
            ends,
            marks,
        } = self;
        ends.fill(0);
        for &(a, _) in edits.iter() {
            ends[a as usize] += 1;
        }
        let mut end = 0;
        for e in ends.iter_mut() {
            end += *e;
            *e = end;
        }
        grouped.clear();
        grouped.resize(edits.len(), 0);
        for &(a, b) in edits.iter() {
            let at = &mut ends[a as usize];
            *at -= 1;
            grouped[*at as usize] = b;
        }
        edits.clear();
        // The scatter left each group's start in `ends`; one row down,
        // they are the group ends.
        ends.rotate_left(1);
        if let Some(last) = ends.last_mut() {
            *last = offset(grouped.len());
        }

        // Forward: `shift` links removed so far; the rows from `run` on
        // are yet to move down by it.
        let (mut shift, mut run, mut inserted, mut from) = (0, 0, 0, 0);
        for (a, end) in ends.iter_mut().enumerate() {
            let (start, stop) = (offsets[a] as usize, offsets[a + 1] as usize);
            let to = *end as usize;
            offsets[a] = offset(start - shift);
            *end = offset(inserted);
            if from == to {
                continue;
            }
            links.copy_within(run..start, run - shift);
            let mut kept = start - shift;
            for &b in &grouped[from..to] {
                marks[b as usize] ^= true;
            }
            for k in start..stop {
                let b = links[k];
                if !std::mem::take(&mut marks[b as usize]) {
                    links[kept] = b;
                    kept += 1;
                }
            }
            for k in from..to {
                let b = grouped[k];
                if std::mem::take(&mut marks[b as usize]) {
                    grouped[inserted] = b;
                    inserted += 1;
                }
            }
            *end = offset(inserted);
            (shift, run, from) = (stop - kept, stop, to);
        }
        let total = links.len();
        links.copy_within(run..total, run - shift);
        let n = ends.len();
        offsets[n] = offset(total - shift);

        // Backward: the links at and above `hi` have moved up already;
        // the ones below it move up by the insertions in the rows before
        // theirs.
        let kept = total - shift;
        links.resize(kept + inserted, 0);
        let mut hi = kept;
        for a in (0..n).rev() {
            let end = offsets[a + 1] as usize;
            let (before, through) = (
                if a == 0 { 0 } else { ends[a - 1] as usize },
                ends[a] as usize,
            );
            offsets[a + 1] = offset(end + through);
            if before == through {
                continue;
            }
            links.copy_within(end..hi, end + through);
            links[end + before..end + through].copy_from_slice(&grouped[before..through]);
            hi = end;
        }
    }
}

/// When update rounds are transmitted.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum UpdatePolicy {
    /// One broadcast round per intra-cluster link change — the paper's
    /// lower-bound counting convention (Section 3.5.3). Default.
    #[default]
    PerChange,
    /// Rate-limited triggered updates: changes are coalesced and each
    /// dirty cluster transmits at most one round per `interval` seconds —
    /// how deployed proactive protocols actually behave. Pass the real
    /// tick length as `dt` to [`IntraClusterRouting::update`].
    Coalesced {
        /// Minimum seconds between rounds in one cluster.
        interval: f64,
    },
}

/// The proactive intra-cluster routing layer.
///
/// Call [`IntraClusterRouting::update`] once per tick after cluster
/// maintenance; it diffs each cluster's internal topology against the
/// previous tick and charges ROUTE broadcast rounds per [`UpdatePolicy`].
/// The first call fills the baseline and charges nothing (the paper
/// excludes initial table population along with cluster formation).
///
/// A pass whose topology carries the link events from the previous
/// pass's topology ([`Topology::events_since`]) charges from those events
/// and the nodes whose head changed; any other pass re-reads every row.
/// Both give the same charges. Every buffer is reused across passes, so
/// a steady-state pass does not allocate.
#[derive(Debug, Clone, Default)]
pub struct IntraClusterRouting {
    /// The previous pass's cluster keys.
    prev: Heads,
    /// This pass's cluster keys; swapped into `prev` when the pass
    /// commits.
    cur: Heads,
    /// The previous pass's intra-cluster links (after a pass commits,
    /// this pass's).
    links: LinkSnapshot,
    /// The stamp of the previous pass's topology; 0 before the first pass.
    stamp: u64,
    policy: UpdatePolicy,
    /// Per head key: intra-cluster link changes this pass (zeroed again
    /// before the pass returns).
    link_changes: Vec<u64>,
    /// Head keys whose cluster changed this pass, sorted and deduplicated.
    changed: Vec<NodeId>,
    /// Event pass: the nodes whose head key changed, ascending.
    moved: Vec<NodeId>,
    /// Event pass: `(moved node, other node)` of every generated link
    /// with a moved endpoint, sorted.
    moved_generated: Vec<(NodeId, NodeId)>,
    /// This pass's charges as `(head, rounds, cluster size)`, ascending.
    charges: Vec<(NodeId, u64, u64)>,
    /// Coalesced clusters awaiting the next flush, sorted and deduplicated.
    dirty: Vec<NodeId>,
    accum: f64,
    /// Clusters whose last lossy round dropped at least one ROUTE message;
    /// they re-broadcast a full round on the next pass (fallback re-sync).
    /// Sorted and deduplicated.
    resync_pending: Vec<NodeId>,
    /// Last pass's pending list while this pass re-syncs it.
    resync_due: Vec<NodeId>,
    /// The `ChannelLoss` cause that scheduled the pending re-syncs, so each
    /// re-sync round is attributed to the loss that forced it (only set
    /// when a cause tracker is attached). One pass allocates at most one
    /// such root, so every pending cluster shares it.
    resync_cause: Option<Cause>,
}

impl IntraClusterRouting {
    /// Creates a layer with the paper's per-change policy; the first
    /// [`update`](Self::update) call establishes the baseline without
    /// charging messages.
    pub fn new() -> Self {
        IntraClusterRouting::default()
    }

    /// Creates a layer with an explicit update policy.
    ///
    /// # Panics
    ///
    /// Panics if a coalesced interval is not strictly positive and finite.
    pub fn with_policy(policy: UpdatePolicy) -> Self {
        Self::try_with_policy(policy).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`with_policy`](Self::with_policy) returning a typed error instead of
    /// panicking on an invalid coalescing interval.
    pub fn try_with_policy(policy: UpdatePolicy) -> Result<Self, SimError> {
        if let UpdatePolicy::Coalesced { interval } = policy {
            if !(interval > 0.0 && interval.is_finite()) {
                return Err(SimError::NonPositive {
                    name: "coalescing interval",
                    value: interval,
                });
            }
        }
        Ok(IntraClusterRouting {
            policy,
            ..IntraClusterRouting::default()
        })
    }

    /// Diffs the cluster-internal topologies against the previous tick and
    /// returns the ROUTE traffic charged.
    ///
    /// `dt` is the tick length, used only by the
    /// [`UpdatePolicy::Coalesced`] rate limiter (ignored under
    /// `PerChange`). Every ROUTE message is drawn through `channel`; a
    /// cluster whose round loses at least one message is left with
    /// inconsistent tables, so it is marked for a **fallback re-sync**: on
    /// the next pass the whole cluster re-broadcasts one full round (`m`
    /// messages, `m²` entries) before any regular charging, repeating
    /// until a round goes through clean or the cluster dissolves. An ideal
    /// channel consumes no randomness and never schedules re-syncs.
    ///
    /// Telemetry flows through `ctx.probe`: every cluster charged this
    /// pass emits one `RouteRoundStarted` event (re-syncs with
    /// `rounds: 1`) stamped `ctx.now`, and losses on the channel emit one
    /// batched `MsgLost` event for the pass. With
    /// [`Probe::off`](manet_telemetry::Probe::off) the pass is quiet with
    /// identical outcomes.
    ///
    /// # Panics
    ///
    /// Panics if the topology's node count differs from the previous
    /// pass's.
    pub fn update<C: ClusterAssignment + ?Sized>(
        &mut self,
        dt: f64,
        topology: &Topology,
        clustering: &C,
        channel: &mut Channel,
        ctx: &mut StepCtx<'_, '_>,
    ) -> RouteUpdateOutcome {
        if self.stamp != 0 {
            assert_eq!(
                topology.len(),
                self.prev.head.len(),
                "topology node count changed under live intra-cluster routing"
            );
        }
        self.cur.fill(topology.len(), clustering);
        // `events_since(0)` is `None`, so the first pass fills.
        if let Some(events) = topology.events_since(self.stamp) {
            self.diff_events(topology, events);
            self.links.settle();
        } else if self.stamp != 0 {
            self.links.materialize();
            self.diff(topology);
            self.links.rows.fill(topology, &self.cur.head);
        } else {
            // The baseline pass sizes the event pass's buffers from n,
            // with room for a burst of resignation cascades on top (64
            // moved nodes of degree 64), which at small n can move
            // several times n links in one pass.
            self.links.fill(topology, &self.cur.head);
            clear_with_room(&mut self.moved_generated, topology.len() + 64 * 64);
        }
        let outcome = self.charge(dt, channel, ctx);
        for &h in &self.changed {
            self.link_changes[h as usize] = 0;
        }
        self.changed.clear();
        std::mem::swap(&mut self.prev, &mut self.cur);
        self.stamp = topology.stamp();
        outcome
    }

    /// Fills `changed` and `link_changes` from the previous pass's rows
    /// (the snapshot, materialized) to this pass's, read from `topology`
    /// under this pass's keys, node by node. A node that kept its head
    /// adds its row's symmetric difference to that cluster; a node that
    /// moved takes its old row out of its old cluster and brings its new
    /// row into its new one, and both clusters change because their node
    /// sets do. Summed per key, this is each cluster's link-set
    /// symmetric difference.
    fn diff(&mut self, topology: &Topology) {
        let IntraClusterRouting {
            prev,
            cur,
            links,
            link_changes,
            changed,
            ..
        } = self;
        let LinkSnapshot { rows, marks, .. } = links;
        link_changes.resize(cur.head.len(), 0);
        for (a, (&h1, &h2)) in prev.head.iter().zip(&cur.head).enumerate() {
            let before = rows.row(a);
            let after = topology
                .neighbors(a as NodeId)
                .iter()
                .filter(|&&b| b as usize > a && cur.head[b as usize] == h2);
            if h1 == h2 {
                for &b in before {
                    marks[b as usize] = true;
                }
                let (mut len, mut common) = (0, 0);
                for &b in after {
                    len += 1;
                    common += usize::from(marks[b as usize]);
                }
                for &b in before {
                    marks[b as usize] = false;
                }
                let diff = before.len() + len - 2 * common;
                if diff > 0 {
                    changed.push(h1);
                    link_changes[h1 as usize] += diff as u64;
                }
            } else {
                changed.extend([h1, h2]);
                link_changes[h1 as usize] += before.len() as u64;
                link_changes[h2 as usize] += after.count() as u64;
            }
        }
        changed.sort_unstable();
        changed.dedup();
    }

    /// The same `changed` and `link_changes` as [`Self::diff`], per link
    /// instead of per node, from `events`: the link events from the
    /// previous pass's topology to `topology`. `cur` holds this pass's
    /// heads; its rows are set here.
    ///
    /// A link's cluster is its endpoints' shared key while it exists, and
    /// none otherwise; a link whose cluster differs before and after adds
    /// one change to each side that holds it. Only two kinds of link can
    /// differ: those with an event, and those of a *moved* node (one whose
    /// key changed; both its keys change, as in the node diff). Every
    /// event classifies its link. A moved node's other links are the ones
    /// in its current row that were not generated this tick; each is
    /// classified once, from its smaller moved endpoint. A link that
    /// enters or leaves a cluster enters or leaves its smaller endpoint's
    /// row: that edit is left pending on the snapshot.
    fn diff_events(&mut self, topology: &Topology, events: &[LinkEvent]) {
        let IntraClusterRouting {
            prev,
            cur,
            links,
            link_changes,
            changed,
            moved,
            moved_generated,
            ..
        } = self;
        let n = cur.head.len();
        link_changes.resize(n, 0);
        let (old, new) = (&prev.head, &cur.head);
        // Each buffer gets room for the most entries this pass can make.
        clear_with_room(moved, n);
        let mut moved_links = 0;
        for (u, (&h1, &h2)) in old.iter().zip(new).enumerate() {
            if h1 != h2 {
                moved.push(u as NodeId);
                moved_links += topology.degree(u as NodeId);
            }
        }
        // Both keys of every moved node, and at most one first change per
        // key.
        clear_with_room(changed, 2 * moved.len() + n);
        for &u in moved.iter() {
            changed.extend([old[u as usize], new[u as usize]]);
        }
        clear_with_room(moved_generated, moved_links);
        let mut classify = |a: NodeId, b: NodeId, before: Option<NodeId>, after: Option<NodeId>| {
            if before == after {
                return;
            }
            if before.is_some() != after.is_some() {
                links.toggle(a.min(b), a.max(b));
            }
            for h in [before, after].into_iter().flatten() {
                let count = &mut link_changes[h as usize];
                if *count == 0 {
                    changed.push(h);
                }
                *count += 1;
            }
        };
        let cluster = |heads: &[NodeId], u: NodeId, v: NodeId| {
            let h = heads[u as usize];
            (h == heads[v as usize]).then_some(h)
        };

        for e in events {
            let (a, b) = (e.a, e.b);
            let generated = e.kind == LinkEventKind::Generated;
            let before = if generated { None } else { cluster(old, a, b) };
            let after = if generated { cluster(new, a, b) } else { None };
            classify(a, b, before, after);
            if generated {
                for (u, v) in [(a, b), (b, a)] {
                    if old[u as usize] != new[u as usize] {
                        moved_generated.push((u, v));
                    }
                }
            }
        }
        moved_generated.sort_unstable();

        // The links of moved nodes that exist before and after. Every
        // generated link is in its endpoints' current rows, so the walk
        // meets each `(u, v)` of `moved_generated` in order. Both keys of
        // a moved node are in `changed` already, and differ, so a link is
        // counted in each key that holds it and edits the rows when only
        // one does.
        let mut fresh = moved_generated.iter().peekable();
        for &u in moved.iter() {
            let (h1, h2) = (old[u as usize], new[u as usize]);
            for &v in topology.neighbors(u) {
                if fresh.next_if_eq(&&(u, v)).is_some() {
                    continue;
                }
                let (g1, g2) = (old[v as usize], new[v as usize]);
                if v < u && g1 != g2 {
                    continue;
                }
                let (before, after) = (g1 == h1, g2 == h2);
                link_changes[h1 as usize] += u64::from(before);
                link_changes[h2 as usize] += u64::from(after);
                if before != after {
                    links.toggle(u.min(v), u.max(v));
                }
            }
        }
        changed.sort_unstable();
        changed.dedup();
    }

    /// The charging half of an update pass: transmits the re-syncs and
    /// this pass's charges, in ascending head order. Sequential — every
    /// channel draw and emission happens here in deterministic order.
    fn charge(
        &mut self,
        dt: f64,
        channel: &mut Channel,
        ctx: &mut StepCtx<'_, '_>,
    ) -> RouteUpdateOutcome {
        let now = ctx.now;
        let probe = &mut *ctx.probe;
        let mut outcome = RouteUpdateOutcome::default();
        // One ChannelLoss root covers every message dropped this pass (and
        // the re-syncs those drops schedule); allocated on first loss.
        let mut loss_cause: Option<Cause> = None;
        let stored = self.resync_cause.take();
        std::mem::swap(&mut self.resync_pending, &mut self.resync_due);
        self.resync_pending.clear();
        // Fallback re-sync rounds for clusters whose previous pass lost
        // messages. A dissolved cluster (no node names its head any more)
        // is dropped: the membership change itself triggers regular rounds
        // in whatever clusters absorbed its nodes.
        for &head in &self.resync_due {
            let m = u64::from(self.cur.size[head as usize]);
            if m == 0 {
                continue;
            }
            let cause = stored.or_else(|| probe.root(RootCause::ChannelLoss));
            outcome.resync_rounds += 1;
            outcome.resync_messages += m;
            outcome.route_entries += m * m;
            probe.emit_caused(
                now,
                Layer::Routing,
                EventKind::RouteRoundStarted {
                    head,
                    size: m,
                    rounds: 1,
                },
                cause,
            );
            let lost = channel.lost_of(m);
            if lost > 0 {
                outcome.lost_messages += lost;
                if loss_cause.is_none() {
                    loss_cause = probe.root(RootCause::ChannelLoss);
                }
                self.resync_pending.push(head);
            }
        }
        self.compute_charges(dt);
        for &(head, rounds, m) in &self.charges {
            outcome.clusters_updated += 1;
            outcome.update_rounds += rounds;
            outcome.route_messages += rounds * m;
            outcome.route_entries += rounds * m * m;
            let cause = probe.root(RootCause::IntraClusterChange);
            probe.emit_caused(
                now,
                Layer::Routing,
                EventKind::RouteRoundStarted {
                    head,
                    size: m,
                    rounds,
                },
                cause,
            );
            let lost = channel.lost_of(rounds * m);
            if lost > 0 {
                outcome.lost_messages += lost;
                if loss_cause.is_none() {
                    loss_cause = probe.root(RootCause::ChannelLoss);
                }
                self.resync_pending.push(head);
            }
        }
        self.resync_pending.sort_unstable();
        self.resync_pending.dedup();
        self.resync_cause = loss_cause;
        if outcome.lost_messages > 0 {
            probe.emit_caused(
                now,
                Layer::Routing,
                EventKind::MsgLost {
                    class: MsgClass::Route,
                    count: outcome.lost_messages,
                },
                loss_cause,
            );
        }
        outcome
    }

    /// Clusters currently awaiting a fallback re-sync round.
    pub fn resync_backlog(&self) -> usize {
        self.resync_pending.len()
    }

    /// Row edits that event passes recorded since the intra-cluster link
    /// snapshot was last materialized; a fallback pass applies them
    /// first.
    pub fn pending_edits(&self) -> usize {
        self.links.edits.len()
    }

    /// Fills `charges` with this pass's `(head, rounds, cluster size)`
    /// triples, per the active [`UpdatePolicy`], from the diffed
    /// `changed` keys. Advances the coalescing clock and dirty set.
    fn compute_charges(&mut self, dt: f64) {
        let IntraClusterRouting {
            prev,
            cur,
            stamp,
            policy,
            link_changes,
            changed,
            charges,
            dirty,
            accum,
            ..
        } = self;
        // A pass charges at most its changed clusters and the dirty ones
        // it flushes; a burst of them (a crashed head's members
        // re-homing, say) replaces the buffer with room to spare rather
        // than growing it in steps.
        clear_with_room(charges, changed.len() + dirty.len());
        if *stamp == 0 {
            return;
        }
        let size = |h: NodeId| u64::from(cur.size[h as usize]);
        match *policy {
            UpdatePolicy::PerChange => {
                for &head in changed.iter() {
                    let m = size(head);
                    // A dissolved cluster has no one left to update.
                    if m == 0 {
                        continue;
                    }
                    // One broadcast round per intra-cluster link change; a
                    // cluster whose head is new this tick rebuilds its
                    // tables in one round. Pure membership churn with no
                    // link change inside the link set is impossible for
                    // joins (a joiner brings its head link) but a leaver
                    // whose links all broke is already counted; still
                    // guarantee at least one round for any change.
                    let rounds = if prev.size[head as usize] == 0 {
                        1
                    } else {
                        link_changes[head as usize].max(1)
                    };
                    charges.push((head, rounds, m));
                }
            }
            UpdatePolicy::Coalesced { interval } => {
                dirty.extend(changed.iter().filter(|&&h| size(h) > 0));
                dirty.sort_unstable();
                dirty.dedup();
                *accum += dt;
                while *accum >= interval {
                    *accum -= interval;
                    for head in dirty.drain(..) {
                        if size(head) > 0 {
                            charges.push((head, 1, size(head)));
                        }
                    }
                }
            }
        }
    }
}

/// Empties `buf` and gives it room for `bound` entries. A buffer that is
/// too small is replaced, not grown, so its stale entries are not copied,
/// by one with room for twice the bound, so that a bound creeping upward
/// over the first passes does not replace it again.
fn clear_with_room<T>(buf: &mut Vec<T>, bound: usize) {
    buf.clear();
    if buf.capacity() < bound {
        *buf = Vec::with_capacity(2 * bound);
    }
}

/// Queryable intra-cluster routing tables: shortest paths restricted to
/// links between co-cluster nodes.
///
/// In a well-formed one-hop cluster every pair is connected through the
/// head in at most two hops, but the tables are computed generically (BFS
/// per cluster) so they stay correct for d-hop extensions.
#[derive(Debug, Clone)]
pub struct IntraTables {
    /// `next_hop[u][v]` = next hop from `u` toward `v`, for co-cluster
    /// pairs; dense `N×N` matrix (`None` = no intra-cluster route).
    next_hop: Vec<Vec<Option<NodeId>>>,
}

impl IntraTables {
    /// Builds tables for the current topology and cluster structure.
    pub fn build<C: ClusterAssignment + ?Sized>(topology: &Topology, clustering: &C) -> Self {
        let n = topology.len();
        let mut next_hop = vec![vec![None; n]; n];
        // BFS from every node over intra-cluster links only.
        for src in 0..n as NodeId {
            let src_head = clustering.cluster_head_of(src);
            let mut parent: Vec<Option<NodeId>> = vec![None; n];
            let mut visited = vec![false; n];
            visited[src as usize] = true;
            let mut queue = std::collections::VecDeque::from([src]);
            while let Some(u) = queue.pop_front() {
                for &w in topology.neighbors(u) {
                    if !visited[w as usize] && clustering.cluster_head_of(w) == src_head {
                        visited[w as usize] = true;
                        parent[w as usize] = Some(u);
                        queue.push_back(w);
                    }
                }
            }
            for dst in 0..n as NodeId {
                if dst == src || !visited[dst as usize] {
                    continue;
                }
                // Walk the parent chain back to the hop after `src`.
                let mut hop = dst;
                while let Some(p) = parent[hop as usize] {
                    if p == src {
                        break;
                    }
                    hop = p;
                }
                next_hop[src as usize][dst as usize] = Some(hop);
            }
        }
        IntraTables { next_hop }
    }

    /// Next hop from `u` toward co-cluster destination `v`.
    pub fn next_hop(&self, u: NodeId, v: NodeId) -> Option<NodeId> {
        self.next_hop[u as usize][v as usize]
    }

    /// Full path from `u` to `v` (inclusive), or `None` when `v` is not
    /// intra-cluster reachable.
    ///
    /// # Panics
    ///
    /// Panics if the table is internally inconsistent (a next hop chain that
    /// does not terminate), which would indicate a construction bug.
    pub fn path(&self, u: NodeId, v: NodeId) -> Option<Vec<NodeId>> {
        if u == v {
            return Some(vec![u]);
        }
        let mut path = vec![u];
        let mut cur = u;
        let limit = self.next_hop.len() + 1;
        for _ in 0..limit {
            cur = self.next_hop(cur, v)?;
            path.push(cur);
            if cur == v {
                return Some(path);
            }
        }
        panic!("next-hop chain from {u} to {v} does not terminate");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_cluster::{Clustering, LowestId};
    use manet_geom::{Metric, SquareRegion, Vec2};
    use manet_sim::{LossModel, QuietCtx};
    use manet_telemetry::Probe;

    fn ideal() -> Channel {
        Channel::new(LossModel::Ideal, 0)
    }

    /// One quiet update pass over an ideal channel.
    fn up<C: ClusterAssignment + ?Sized>(
        r: &mut IntraClusterRouting,
        t: &Topology,
        c: &C,
    ) -> RouteUpdateOutcome {
        r.update(0.0, t, c, &mut ideal(), &mut QuietCtx::new().ctx())
    }

    /// One quiet update pass over an explicit channel.
    fn up_on<C: ClusterAssignment + ?Sized>(
        r: &mut IntraClusterRouting,
        t: &Topology,
        c: &C,
        channel: &mut Channel,
    ) -> RouteUpdateOutcome {
        r.update(0.0, t, c, channel, &mut QuietCtx::new().ctx())
    }

    /// One quiet maintenance pass.
    fn m(c: &mut Clustering<LowestId>, t: &Topology) {
        c.maintain(t, &mut QuietCtx::new().ctx());
    }

    fn topo(positions: &[(f64, f64)], radius: f64) -> Topology {
        let pts: Vec<Vec2> = positions.iter().map(|&(x, y)| Vec2::new(x, y)).collect();
        Topology::compute(&pts, SquareRegion::new(1000.0), radius, Metric::Euclidean)
    }

    #[test]
    fn first_update_is_free_then_stable_is_silent() {
        let t = topo(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], 1.1);
        let c = Clustering::form(LowestId, &t);
        let mut r = IntraClusterRouting::new();
        assert_eq!(up(&mut r, &t, &c), RouteUpdateOutcome::default());
        assert_eq!(up(&mut r, &t, &c), RouteUpdateOutcome::default());
    }

    #[test]
    fn membership_change_charges_one_round_of_cluster_size() {
        // Cluster {0:head, 1, 2} in a triangle; node 2 then walks away and
        // promotes itself.
        let t0 = topo(&[(0.0, 0.0), (1.0, 0.0), (0.5, 0.8)], 1.2);
        let mut c = Clustering::form(LowestId, &t0);
        assert_eq!(c.head_count(), 1);
        let mut r = IntraClusterRouting::new();
        up(&mut r, &t0, &c);

        let t1 = topo(&[(0.0, 0.0), (1.0, 0.0), (500.0, 500.0)], 1.2);
        m(&mut c, &t1);
        let o = up(&mut r, &t1, &c);
        // Cluster 0 lost links (0,2) and (1,2): two rounds of 2 messages
        // through the shrunken cluster {0,1}; the new singleton cluster 2
        // rebuilds in one round of 1 message.
        assert_eq!(o.clusters_updated, 2);
        assert_eq!(o.update_rounds, 3);
        assert_eq!(o.route_messages, 5);
    }

    #[test]
    fn intra_link_change_without_membership_change_charges() {
        // Head 0 with members 1, 2; members drift apart (losing the 1–2
        // link) while both stay linked to the head.
        let t0 = topo(&[(0.0, 10.0), (0.9, 10.3), (0.9, 9.7)], 1.0);
        let mut c = Clustering::form(LowestId, &t0);
        assert_eq!(c.head_count(), 1);
        let mut r = IntraClusterRouting::new();
        up(&mut r, &t0, &c);
        let t1 = topo(&[(0.0, 10.0), (0.6, 10.7), (0.6, 9.3)], 1.0);
        let o_cluster = c.maintain(&t1, &mut QuietCtx::new().ctx());
        assert_eq!(o_cluster.total_messages(), 0, "no cluster change");
        let o = up(&mut r, &t1, &c);
        assert_eq!(o.clusters_updated, 1);
        assert_eq!(o.route_messages, 3);
    }

    #[test]
    fn unrelated_clusters_are_not_charged() {
        let t0 = topo(&[(0.0, 0.0), (1.0, 0.0), (100.0, 0.0), (101.0, 0.0)], 1.2);
        let mut c = Clustering::form(LowestId, &t0);
        let mut r = IntraClusterRouting::new();
        up(&mut r, &t0, &c);
        // Only the second cluster's internal link geometry changes: member 3
        // orbits its head 2 (distance stays < 1.2, no membership change, no
        // intra-link change → actually no change at all; then verify zero).
        let t1 = topo(&[(0.0, 0.0), (1.0, 0.0), (100.0, 0.0), (100.0, 1.0)], 1.2);
        m(&mut c, &t1);
        let o = up(&mut r, &t1, &c);
        assert_eq!(o.route_messages, 0, "same link sets → no ROUTE traffic");
    }

    #[test]
    fn tables_route_through_the_head_in_one_hop_clusters() {
        // Members 1 and 2 are linked only through head 0.
        let t = topo(&[(0.0, 10.0), (0.6, 10.7), (0.6, 9.3)], 1.0);
        let c = Clustering::form(LowestId, &t);
        let tables = IntraTables::build(&t, &c);
        assert_eq!(tables.path(1, 2), Some(vec![1, 0, 2]));
        assert_eq!(tables.next_hop(1, 0), Some(0));
        assert_eq!(tables.path(0, 0), Some(vec![0]));
    }

    #[test]
    fn tables_do_not_cross_cluster_boundaries() {
        // Two adjacent-but-distinct clusters: inter-cluster pairs have no
        // intra-cluster route even when physically linked.
        let t = topo(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)], 1.1);
        let c = Clustering::form(LowestId, &t);
        // LID on a 4-path: heads {0, 2}; 1→0, 3→2.
        let tables = IntraTables::build(&t, &c);
        assert_eq!(tables.next_hop(1, 0), Some(0));
        assert_eq!(tables.next_hop(3, 2), Some(2));
        assert_eq!(
            tables.next_hop(1, 2),
            None,
            "1 and 2 are in different clusters"
        );
        assert_eq!(tables.path(0, 3), None);
    }

    #[test]
    fn table_paths_match_bfs_distances() {
        // Random blob: verify every intra-cluster path is shortest.
        use manet_util::Rng;
        let mut rng = Rng::seed_from_u64(5);
        let region = SquareRegion::new(100.0);
        let pts: Vec<Vec2> = (0..50).map(|_| region.sample_uniform(&mut rng)).collect();
        let t = Topology::compute(&pts, region, 25.0, Metric::Euclidean);
        let c = Clustering::form(LowestId, &t);
        let tables = IntraTables::build(&t, &c);
        // Reference: BFS over intra-cluster links.
        for u in 0..50u32 {
            for v in 0..50u32 {
                if u == v || c.head_of(u) != c.head_of(v) {
                    continue;
                }
                let expect = bfs_dist_intra(&t, &c, u, v);
                let got = tables.path(u, v).map(|p| p.len() - 1);
                assert_eq!(got, expect, "pair {u}->{v}");
            }
        }
    }

    fn bfs_dist_intra(
        t: &Topology,
        c: &Clustering<LowestId>,
        src: NodeId,
        dst: NodeId,
    ) -> Option<usize> {
        let mut dist = vec![None; t.len()];
        dist[src as usize] = Some(0);
        let mut q = std::collections::VecDeque::from([src]);
        while let Some(u) = q.pop_front() {
            for &w in t.neighbors(u) {
                if c.head_of(w) == c.head_of(src) && dist[w as usize].is_none() {
                    dist[w as usize] = Some(dist[u as usize].unwrap() + 1);
                    q.push_back(w);
                }
            }
        }
        dist[dst as usize]
    }

    #[test]
    fn outcome_absorb() {
        let mut a = RouteUpdateOutcome {
            clusters_updated: 1,
            update_rounds: 1,
            route_messages: 5,
            route_entries: 25,
            lost_messages: 1,
            resync_rounds: 1,
            resync_messages: 3,
        };
        a.absorb(RouteUpdateOutcome {
            clusters_updated: 2,
            update_rounds: 2,
            route_messages: 7,
            route_entries: 49,
            lost_messages: 2,
            resync_rounds: 1,
            resync_messages: 4,
        });
        assert_eq!(
            a,
            RouteUpdateOutcome {
                clusters_updated: 3,
                update_rounds: 3,
                route_messages: 12,
                route_entries: 74,
                lost_messages: 3,
                resync_rounds: 2,
                resync_messages: 7,
            }
        );
        assert_eq!(a.attempted_messages(), 19);
    }

    #[test]
    fn try_with_policy_rejects_bad_interval() {
        let err = IntraClusterRouting::try_with_policy(UpdatePolicy::Coalesced { interval: 0.0 })
            .unwrap_err();
        assert!(err.to_string().contains("coalescing interval"), "{err}");
        assert!(
            IntraClusterRouting::try_with_policy(UpdatePolicy::Coalesced { interval: 2.0 }).is_ok()
        );
    }

    #[test]
    fn lossy_update_on_ideal_channel_matches_plain_update() {
        use manet_mobility::{Mobility, RandomWaypoint};
        use manet_sim::FaultPlan;
        use manet_util::Rng;
        let region = SquareRegion::new(300.0);
        let mut rng = Rng::seed_from_u64(11);
        let mut mob = RandomWaypoint::new(region, 40, 1.0, 8.0, 0.0, &mut rng);
        let mut channel = FaultPlan::ideal().channel(manet_sim::STREAM_ROUTE);
        let mut plain = IntraClusterRouting::new();
        let mut lossy = IntraClusterRouting::new();
        let mut t = Topology::compute(mob.positions(), region, 80.0, Metric::Euclidean);
        let mut c_plain = Clustering::form(LowestId, &t);
        let mut c_lossy = c_plain.clone();
        for _ in 0..30 {
            let a = up(&mut plain, &t, &c_plain);
            let b = up_on(&mut lossy, &t, &c_lossy, &mut channel);
            assert_eq!(a, b);
            mob.step(1.0, &mut rng);
            t = Topology::compute(mob.positions(), region, 80.0, Metric::Euclidean);
            m(&mut c_plain, &t);
            m(&mut c_lossy, &t);
        }
        assert_eq!(lossy.resync_backlog(), 0);
    }

    #[test]
    fn lost_round_triggers_fallback_resync_until_clean() {
        use manet_sim::{FaultPlan, LossModel};
        // Stable 3-node cluster; one internal link change, then stability.
        let t0 = topo(&[(0.0, 10.0), (0.9, 10.3), (0.9, 9.7)], 1.0);
        let c = Clustering::form(LowestId, &t0);
        let mut r = IntraClusterRouting::new();
        // Everything is lost: each pass re-marks the cluster.
        let mut black_hole = FaultPlan {
            loss: LossModel::Bernoulli { p: 1.0 },
            ..FaultPlan::ideal()
        }
        .channel(manet_sim::STREAM_ROUTE);
        up_on(&mut r, &t0, &c, &mut black_hole);
        let t1 = topo(&[(0.0, 10.0), (0.6, 10.7), (0.6, 9.3)], 1.0);
        let o = up_on(&mut r, &t1, &c, &mut black_hole);
        assert_eq!(o.route_messages, 3);
        assert_eq!(o.lost_messages, 3);
        assert_eq!(
            r.resync_backlog(),
            1,
            "lossy round leaves the cluster pending"
        );
        // Next pass with no topology change: a pure re-sync round, still lost.
        let o = up_on(&mut r, &t1, &c, &mut black_hole);
        assert_eq!(o.route_messages, 0, "no regular charge without a change");
        assert_eq!(o.resync_rounds, 1);
        assert_eq!(o.resync_messages, 3);
        assert_eq!(o.lost_messages, 3);
        assert_eq!(r.resync_backlog(), 1);
        // Channel heals: one clean re-sync round clears the backlog.
        let mut clean = FaultPlan::ideal().channel(manet_sim::STREAM_ROUTE);
        let o = up_on(&mut r, &t1, &c, &mut clean);
        assert_eq!(o.resync_rounds, 1);
        assert_eq!(o.resync_messages, 3);
        assert_eq!(o.lost_messages, 0);
        assert_eq!(r.resync_backlog(), 0);
        // Fully quiescent afterwards.
        assert_eq!(
            up_on(&mut r, &t1, &c, &mut clean),
            RouteUpdateOutcome::default()
        );
    }

    #[test]
    fn dissolved_cluster_drops_its_pending_resync() {
        use manet_sim::{FaultPlan, LossModel};
        // Head 0 with member 1; the pair separates, so cluster 0 shrinks to a
        // singleton and node 1 self-promotes. The old 2-node cluster's pending
        // re-sync must not charge messages for the vanished membership.
        let t0 = topo(&[(0.0, 0.0), (1.0, 0.0), (100.0, 0.0)], 1.2);
        let mut c = Clustering::form(LowestId, &t0);
        let mut r = IntraClusterRouting::new();
        let mut black_hole = FaultPlan {
            loss: LossModel::Bernoulli { p: 1.0 },
            ..FaultPlan::ideal()
        }
        .channel(manet_sim::STREAM_ROUTE);
        up_on(&mut r, &t0, &c, &mut black_hole);
        // Nudge node 2 to dirty an unrelated link set? No — instead break the
        // 0–1 link so cluster 0's round is charged (and lost).
        let t1 = topo(&[(0.0, 0.0), (50.0, 0.0), (100.0, 0.0)], 1.2);
        m(&mut c, &t1);
        let o = up_on(&mut r, &t1, &c, &mut black_hole);
        assert!(o.lost_messages > 0);
        let pending_before = r.resync_backlog();
        assert!(pending_before > 0);
        // Cluster 0 is now a singleton that keeps losing its re-syncs; its
        // backlog persists but never exceeds the live cluster count.
        let o = up_on(&mut r, &t1, &c, &mut black_hole);
        assert_eq!(o.resync_rounds as usize, pending_before);
        // Heal: all re-syncs drain.
        let mut clean = FaultPlan::ideal().channel(manet_sim::STREAM_ROUTE);
        up_on(&mut r, &t1, &c, &mut clean);
        assert_eq!(r.resync_backlog(), 0);
    }

    #[test]
    fn traced_update_emits_one_round_event_per_charged_cluster() {
        use manet_telemetry::Event;

        // Cluster {0:head, 1, 2}; node 2 walks away and self-promotes.
        let t0 = topo(&[(0.0, 0.0), (1.0, 0.0), (0.5, 0.8)], 1.2);
        let mut c = Clustering::form(LowestId, &t0);
        let mut r = IntraClusterRouting::new();
        up(&mut r, &t0, &c);
        let t1 = topo(&[(0.0, 0.0), (1.0, 0.0), (500.0, 500.0)], 1.2);
        m(&mut c, &t1);
        let mut sink = Vec::<Event>::new();
        let mut probe = Probe::subscriber(&mut sink);
        let o = r.update(
            0.0,
            &t1,
            &c,
            &mut ideal(),
            &mut StepCtx::new(&mut probe).at(3.5),
        );
        assert_eq!(o.clusters_updated, 2);
        assert_eq!(sink.len(), 2, "one RouteRoundStarted per charged cluster");
        let mut msgs = 0;
        let mut rounds = 0;
        for e in &sink {
            assert_eq!(e.layer, Layer::Routing);
            assert_eq!(e.time, 3.5);
            match e.kind {
                EventKind::RouteRoundStarted {
                    size, rounds: k, ..
                } => {
                    msgs += k * size;
                    rounds += k;
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
        assert_eq!(rounds, o.update_rounds);
        assert_eq!(msgs, o.route_messages, "events reconstruct the charge");
    }

    #[test]
    fn traced_lossy_update_emits_resync_rounds_and_losses() {
        use manet_sim::{FaultPlan, LossModel};
        use manet_telemetry::Event;

        let t0 = topo(&[(0.0, 10.0), (0.9, 10.3), (0.9, 9.7)], 1.0);
        let c = Clustering::form(LowestId, &t0);
        let mut r = IntraClusterRouting::new();
        let mut black_hole = FaultPlan {
            loss: LossModel::Bernoulli { p: 1.0 },
            ..FaultPlan::ideal()
        }
        .channel(manet_sim::STREAM_ROUTE);
        up_on(&mut r, &t0, &c, &mut black_hole);
        let t1 = topo(&[(0.0, 10.0), (0.6, 10.7), (0.6, 9.3)], 1.0);
        let mut sink = Vec::<Event>::new();
        let mut probe = Probe::subscriber(&mut sink);
        let o = r.update(
            0.0,
            &t1,
            &c,
            &mut black_hole,
            &mut StepCtx::new(&mut probe).at(1.0),
        );
        assert_eq!(o.lost_messages, 3);
        // One charged round plus one batched loss event.
        assert!(sink.iter().any(|e| matches!(
            e.kind,
            EventKind::RouteRoundStarted {
                rounds: 1,
                size: 3,
                ..
            }
        )));
        assert!(sink.iter().any(|e| e.kind
            == EventKind::MsgLost {
                class: MsgClass::Route,
                count: 3,
            }));
        // Next pass: the pure re-sync round is also a RouteRoundStarted.
        let mut sink2 = Vec::<Event>::new();
        let mut probe2 = Probe::subscriber(&mut sink2);
        let o = r.update(
            0.0,
            &t1,
            &c,
            &mut black_hole,
            &mut StepCtx::new(&mut probe2).at(2.0),
        );
        assert_eq!(o.resync_rounds, 1);
        assert_eq!(
            sink2
                .iter()
                .filter(|e| matches!(e.kind, EventKind::RouteRoundStarted { .. }))
                .count(),
            1
        );
    }

    #[test]
    fn attributed_updates_chain_resyncs_to_the_loss_that_forced_them() {
        use manet_sim::{FaultPlan, LossModel};
        use manet_telemetry::{CauseTracker, Event};

        let t0 = topo(&[(0.0, 10.0), (0.9, 10.3), (0.9, 9.7)], 1.0);
        let c = Clustering::form(LowestId, &t0);
        let mut r = IntraClusterRouting::new();
        let mut black_hole = FaultPlan {
            loss: LossModel::Bernoulli { p: 1.0 },
            ..FaultPlan::ideal()
        }
        .channel(manet_sim::STREAM_ROUTE);
        let mut tracker = CauseTracker::new();
        {
            let mut probe = Probe::with_causes(None, Some(&mut tracker));
            r.update(
                0.0,
                &t0,
                &c,
                &mut black_hole,
                &mut StepCtx::new(&mut probe).at(0.0),
            );
        }
        // An internal link change: the regular round carries a fresh
        // IntraClusterChange root; its losses carry a ChannelLoss root.
        let t1 = topo(&[(0.0, 10.0), (0.6, 10.7), (0.6, 9.3)], 1.0);
        let mut sink = Vec::<Event>::new();
        {
            let mut probe = Probe::with_causes(Some(&mut sink), Some(&mut tracker));
            r.update(
                0.0,
                &t1,
                &c,
                &mut black_hole,
                &mut StepCtx::new(&mut probe).at(1.0),
            );
        }
        let round = sink
            .iter()
            .find(|e| matches!(e.kind, EventKind::RouteRoundStarted { .. }))
            .expect("regular round emitted");
        assert_eq!(round.cause.unwrap().root, RootCause::IntraClusterChange);
        let lost = sink
            .iter()
            .find(|e| matches!(e.kind, EventKind::MsgLost { .. }))
            .expect("loss emitted");
        let loss_root = lost.cause.unwrap();
        assert_eq!(loss_root.root, RootCause::ChannelLoss);
        // Next pass: the pure re-sync round is attributed to that loss.
        let mut sink2 = Vec::<Event>::new();
        {
            let mut probe = Probe::with_causes(Some(&mut sink2), Some(&mut tracker));
            r.update(
                0.0,
                &t1,
                &c,
                &mut black_hole,
                &mut StepCtx::new(&mut probe).at(2.0),
            );
        }
        let resync = sink2
            .iter()
            .find(|e| matches!(e.kind, EventKind::RouteRoundStarted { .. }))
            .expect("re-sync round emitted");
        assert_eq!(resync.cause.unwrap().id, loss_root.id);
    }

    #[test]
    #[should_panic(expected = "node count changed")]
    fn node_count_change_between_passes_panics() {
        let t0 = topo(&[(0.0, 0.0), (1.0, 0.0)], 1.2);
        let mut r = IntraClusterRouting::new();
        up(&mut r, &t0, &Clustering::form(LowestId, &t0));
        let t1 = topo(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], 1.2);
        up(&mut r, &t1, &Clustering::form(LowestId, &t1));
    }

    #[test]
    fn entries_are_cluster_size_squared() {
        // One cluster of 3 changes internally → 3 messages, 9 entries.
        let t0 = topo(&[(0.0, 10.0), (0.9, 10.3), (0.9, 9.7)], 1.0);
        let mut c = Clustering::form(LowestId, &t0);
        let mut r = IntraClusterRouting::new();
        up(&mut r, &t0, &c);
        let t1 = topo(&[(0.0, 10.0), (0.6, 10.7), (0.6, 9.3)], 1.0);
        m(&mut c, &t1);
        let o = up(&mut r, &t1, &c);
        assert_eq!(o.route_messages, 3);
        assert_eq!(o.route_entries, 9);
    }
}
