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

/// One tick's cluster structure in flat vectors reused across ticks.
///
/// Clusters are keyed by head value — `cluster_head_of`, which is always
/// a node id but not always a head (a `SelfHealing` member whose re-home
/// was lost keeps its resigned head) — so per-key vectors have one slot
/// per node. Link `(a, b)`, `a < b`, belongs to the cluster of `a`'s head
/// when `b` shares it, so each cluster's links are the union of its
/// nodes' rows.
#[derive(Debug, Clone, Default)]
struct Snapshot {
    /// Per node: its head key.
    head: Vec<NodeId>,
    /// Per head key: how many nodes name it (0 = no such cluster).
    size: Vec<u32>,
    /// CSR row offsets: node `a`'s row is `links[offsets[a]..offsets[a + 1]]`.
    offsets: Vec<usize>,
    /// The `b` of every intra-cluster link `(a, b)` with `b > a`, rows in
    /// ascending `a`; each row is sorted because neighbor rows are.
    links: Vec<NodeId>,
}

impl Snapshot {
    /// Refills every node's head key and every key's size from this
    /// tick's assignment, and empties the rows.
    fn fill_heads<C: ClusterAssignment + ?Sized>(&mut self, n: usize, clustering: &C) {
        let Snapshot {
            head,
            size,
            offsets,
            links,
        } = self;
        head.clear();
        head.extend((0..n as NodeId).map(|u| clustering.cluster_head_of(u)));
        size.clear();
        size.resize(n, 0);
        for &h in head.iter() {
            size[h as usize] += 1;
        }
        offsets.clear();
        offsets.push(0);
        links.clear();
    }

    /// Appends node `a`'s row, read from this tick's topology.
    fn push_row(&mut self, topology: &Topology, a: NodeId) {
        let h = self.head[a as usize];
        let head = &self.head;
        self.links.extend(
            topology
                .neighbors(a)
                .iter()
                .filter(|&&b| b > a && head[b as usize] == h),
        );
        self.offsets.push(self.links.len());
    }

    /// Sets the rows to `prev`'s with `edits` applied: each sorted key
    /// `a << 32 | b` takes link `b` out of row `a` if it is there, and
    /// puts it in otherwise. `prev`'s links are copied between the edits'
    /// positions, and its offsets shifted by the edits before them.
    fn edit_rows(&mut self, prev: &Snapshot, edits: &[u64]) {
        self.offsets.clone_from(&prev.offsets);
        self.links.clear();
        let (mut copied, mut shift, mut fixed) = (0, 0isize, 0);
        for &key in edits {
            let (a, b) = ((key >> 32) as usize, key as NodeId);
            for o in &mut self.offsets[fixed + 1..=a] {
                *o = o.wrapping_add_signed(shift);
            }
            fixed = a;
            let (lo, hi) = (prev.offsets[a], prev.offsets[a + 1]);
            let at = lo + prev.links[lo..hi].partition_point(|&x| x < b);
            self.links.extend_from_slice(&prev.links[copied..at]);
            if at < hi && prev.links[at] == b {
                copied = at + 1;
                shift -= 1;
            } else {
                self.links.push(b);
                copied = at;
                shift += 1;
            }
        }
        self.links.extend_from_slice(&prev.links[copied..]);
        for o in &mut self.offsets[fixed + 1..] {
            *o = o.wrapping_add_signed(shift);
        }
    }

    /// Node `a`'s intra-cluster links to higher ids.
    fn row(&self, a: usize) -> &[NodeId] {
        &self.links[self.offsets[a]..self.offsets[a + 1]]
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
    /// The previous pass's clusters.
    prev: Snapshot,
    /// This pass's clusters; swapped into `prev` when the pass commits.
    cur: Snapshot,
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
    /// Event pass: every link `(a, b)`, `a < b`, that enters or leaves
    /// node `a`'s row, as the key `a << 32 | b`, so that sorting the keys
    /// sorts the links.
    row_edits: Vec<u64>,
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
        self.cur.fill_heads(topology.len(), clustering);
        // `events_since(0)` is `None`, so the first pass fills.
        if let Some(events) = topology.events_since(self.stamp) {
            self.diff_events(topology, events);
        } else {
            for a in 0..topology.len() as NodeId {
                self.cur.push_row(topology, a);
            }
            if self.stamp != 0 {
                self.diff();
            } else {
                // The baseline pass sizes the event pass's edit buffers
                // from n, with room for a burst of resignation cascades on
                // top (64 moved nodes of degree 64), which at small n can
                // move several times n links in one pass.
                let (n, burst) = (topology.len(), 64 * 64);
                clear_with_room(&mut self.moved_generated, n + burst);
                clear_with_room(&mut self.row_edits, 2 * n + burst);
            }
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

    /// Fills `changed` and `link_changes` from `prev` → `cur`, node by
    /// node. A node that kept its head adds its row's symmetric difference
    /// to that cluster; a node that moved takes its old row out of its old
    /// cluster and brings its new row into its new one, and both clusters
    /// change because their node sets do. Summed per key, this is each
    /// cluster's link-set symmetric difference.
    fn diff(&mut self) {
        let IntraClusterRouting {
            prev,
            cur,
            link_changes,
            changed,
            ..
        } = self;
        link_changes.resize(cur.head.len(), 0);
        for (a, (&h1, &h2)) in prev.head.iter().zip(&cur.head).enumerate() {
            let (before, after) = (prev.row(a), cur.row(a));
            if h1 == h2 {
                if before != after {
                    changed.push(h1);
                    link_changes[h1 as usize] +=
                        sorted_symmetric_difference_len(before, after) as u64;
                }
            } else {
                changed.extend([h1, h2]);
                link_changes[h1 as usize] += before.len() as u64;
                link_changes[h2 as usize] += after.len() as u64;
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
    /// row: those edits are applied to the old rows, and every other row
    /// is copied from `prev`.
    fn diff_events(&mut self, topology: &Topology, events: &[LinkEvent]) {
        let IntraClusterRouting {
            prev,
            cur,
            link_changes,
            changed,
            moved,
            moved_generated,
            row_edits,
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
        clear_with_room(row_edits, events.len() + moved_links);
        let mut classify = |a: NodeId, b: NodeId, before: Option<NodeId>, after: Option<NodeId>| {
            if before == after {
                return;
            }
            if before.is_some() != after.is_some() {
                row_edits.push((u64::from(a.min(b)) << 32) | u64::from(a.max(b)));
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
        // meets each `(u, v)` of `moved_generated` in order.
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
                classify(u, v, (g1 == h1).then_some(h1), (g2 == h2).then_some(h2));
            }
        }
        changed.sort_unstable();
        changed.dedup();

        row_edits.sort_unstable();
        cur.edit_rows(prev, row_edits);
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
        charges.clear();
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

/// Number of elements in exactly one of two sorted slices (symmetric
/// difference cardinality).
fn sorted_symmetric_difference_len<T: Ord>(a: &[T], b: &[T]) -> usize {
    let (mut i, mut j, mut count) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                i += 1;
                count += 1;
            }
            std::cmp::Ordering::Greater => {
                j += 1;
                count += 1;
            }
        }
    }
    count + (a.len() - i) + (b.len() - j)
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
    use manet_sim::{LossModel, QuietCtx, Scratch};
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
        let mut scratch = Scratch::new();
        let o = r.update(
            0.0,
            &t1,
            &c,
            &mut ideal(),
            &mut StepCtx::new(&mut probe, &mut scratch).at(3.5),
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
        let mut scratch = Scratch::new();
        let o = r.update(
            0.0,
            &t1,
            &c,
            &mut black_hole,
            &mut StepCtx::new(&mut probe, &mut scratch).at(1.0),
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
            &mut StepCtx::new(&mut probe2, &mut scratch).at(2.0),
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
        let mut scratch = Scratch::new();
        {
            let mut probe = Probe::with_causes(None, Some(&mut tracker));
            r.update(
                0.0,
                &t0,
                &c,
                &mut black_hole,
                &mut StepCtx::new(&mut probe, &mut scratch).at(0.0),
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
                &mut StepCtx::new(&mut probe, &mut scratch).at(1.0),
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
                &mut StepCtx::new(&mut probe, &mut scratch).at(2.0),
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
