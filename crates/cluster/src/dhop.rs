//! d-hop clustering: members up to `d` hops from their head.
//!
//! The paper analyzes one-hop clusters and names multi-hop algorithms —
//! MobDHop (the authors' own) and Max-Min — as the natural extension
//! (Section 7). This module provides:
//!
//! * [`DHopClustering`] — a greedy d-hop generalization of the engine in
//!   [`crate::engine`]: the best-priority undecided node within a d-hop
//!   neighborhood becomes head, everyone within `d` hops joins, and
//!   reactive maintenance re-homes members whose head drifts out of
//!   d-hop reach (the d-hop analogue of LCC).
//! * [`DHopClustering::form_max_min`] — the Max-Min d-cluster formation
//!   heuristic (Amis, Prakash, Vuong & Huynh, INFOCOM 2000): `d` rounds of
//!   max-flooding followed by `d` rounds of min-flooding, with the three
//!   published election rules, plus a deterministic repair pass that
//!   guarantees every node ends up within `d` hops of a declared head
//!   (the paper achieves this via convergecast; we repair directly).
//!
//! The d-hop invariants generalize the paper's P1/P2:
//!
//! * **P1(d)** *(optional, greedy formation only)* — no two heads within
//!   `d` hops of each other;
//! * **P2(d)** — every member is within `d` hops of its head.

use crate::engine::MaintenanceOutcome;
use crate::policy::ClusterPolicy;
use manet_sim::{NodeId, StepCtx, Topology};
use manet_telemetry::{Cause, EventKind, Layer, RootCause};
use std::collections::VecDeque;

/// Transient "no head" marker used *within* a maintenance pass: a member
/// orphaned by its head's resignation has its pointer cleared immediately
/// (rather than left dangling at the resigned head) and is re-homed
/// before the pass returns. Never escapes [`DHopClustering::maintain`].
const NO_HEAD: NodeId = NodeId::MAX;

/// A d-hop cluster structure: per-node head assignment plus the hop bound.
#[derive(Debug, Clone)]
pub struct DHopClustering {
    hops: usize,
    head_of: Vec<NodeId>,
    /// Whether maintenance enforces P1(d) (greedy structures do; Max-Min
    /// structures do not guarantee head separation).
    enforce_separation: bool,
}

/// BFS distances from `src`, truncated at `limit` (entries beyond are
/// `usize::MAX`).
fn bfs_distances(topology: &Topology, src: NodeId, limit: usize) -> Vec<usize> {
    let mut dist = vec![usize::MAX; topology.len()];
    dist[src as usize] = 0;
    let mut q = VecDeque::from([src]);
    while let Some(u) = q.pop_front() {
        let du = dist[u as usize];
        if du == limit {
            continue;
        }
        for &w in topology.neighbors(u) {
            if dist[w as usize] == usize::MAX {
                dist[w as usize] = du + 1;
                q.push_back(w);
            }
        }
    }
    dist
}

/// Nodes within `limit` hops of `src` (excluding `src`), ascending.
fn nodes_within(topology: &Topology, src: NodeId, limit: usize) -> Vec<NodeId> {
    bfs_distances(topology, src, limit)
        .iter()
        .enumerate()
        .filter(|&(u, &d)| d <= limit && u as NodeId != src)
        .map(|(u, _)| u as NodeId)
        .collect()
}

impl DHopClustering {
    /// Greedy d-hop formation under `policy` (reduces to the classic
    /// one-hop engine's outcome at `hops = 1`).
    ///
    /// # Panics
    ///
    /// Panics if `hops == 0`.
    pub fn form<P: ClusterPolicy>(policy: &P, topology: &Topology, hops: usize) -> Self {
        assert!(hops >= 1, "hops must be at least 1");
        let n = topology.len();
        let mut head_of: Vec<Option<NodeId>> = vec![None; n];
        let mut undecided = n;
        while undecided > 0 {
            let mut winners = Vec::new();
            for u in 0..n as NodeId {
                if head_of[u as usize].is_some() {
                    continue;
                }
                let pu = policy.priority(u, topology);
                let wins = nodes_within(topology, u, hops)
                    .into_iter()
                    .filter(|&w| head_of[w as usize].is_none())
                    .all(|w| pu > policy.priority(w, topology));
                if wins {
                    winners.push(u);
                }
            }
            debug_assert!(!winners.is_empty(), "d-hop formation must make progress");
            for &h in &winners {
                head_of[h as usize] = Some(h);
                undecided -= 1;
            }
            // Undecided nodes within reach of a new head join the best one.
            for &h in &winners {
                for w in nodes_within(topology, h, hops) {
                    if head_of[w as usize].is_some() {
                        continue;
                    }
                    let best = nodes_within(topology, w, hops)
                        .into_iter()
                        .filter(|&x| head_of[x as usize] == Some(x))
                        .max_by_key(|&x| policy.priority(x, topology))
                        .expect("w is within reach of at least head h");
                    head_of[w as usize] = Some(best);
                    undecided -= 1;
                }
            }
        }
        DHopClustering {
            hops,
            head_of: head_of
                .into_iter()
                .map(|h| h.expect("all decided"))
                .collect(),
            enforce_separation: true,
        }
    }

    /// Max-Min d-cluster formation (Amis et al.): 2·d flooding rounds and
    /// the three election rules, then a repair pass enforcing P2(d).
    ///
    /// # Panics
    ///
    /// Panics if `hops == 0`.
    pub fn form_max_min(topology: &Topology, hops: usize) -> Self {
        assert!(hops >= 1, "hops must be at least 1");
        let n = topology.len();
        if n == 0 {
            return DHopClustering {
                hops,
                head_of: Vec::new(),
                enforce_separation: false,
            };
        }
        // Max phase: d rounds of neighborhood-max over node ids.
        let mut w: Vec<NodeId> = (0..n as NodeId).collect();
        let mut maxlists: Vec<Vec<NodeId>> = vec![Vec::with_capacity(hops); n];
        for _ in 0..hops {
            let mut next = w.clone();
            for (u, slot) in next.iter_mut().enumerate() {
                for &nb in topology.neighbors(u as NodeId) {
                    *slot = (*slot).max(w[nb as usize]);
                }
            }
            w = next;
            for (u, lists) in maxlists.iter_mut().enumerate() {
                lists.push(w[u]);
            }
        }
        // Min phase: d rounds of neighborhood-min over the max-phase
        // result.
        let mut s = w.clone();
        let mut minlists: Vec<Vec<NodeId>> = vec![Vec::with_capacity(hops); n];
        for _ in 0..hops {
            let mut next = s.clone();
            for (u, slot) in next.iter_mut().enumerate() {
                for &nb in topology.neighbors(u as NodeId) {
                    *slot = (*slot).min(s[nb as usize]);
                }
            }
            s = next;
            for (u, lists) in minlists.iter_mut().enumerate() {
                lists.push(s[u]);
            }
        }
        // Election rules.
        let mut head_of: Vec<NodeId> = (0..n as NodeId).collect();
        for (u, slot) in head_of.iter_mut().enumerate() {
            let id = u as NodeId;
            if minlists[u].contains(&id) {
                // Rule 1: own id survived the min phase → clusterhead.
                *slot = id;
            } else {
                // Rule 2: minimum "node pair" (value seen in both phases).
                let pair = minlists[u]
                    .iter()
                    .filter(|v| maxlists[u].contains(v))
                    .copied()
                    .min();
                match pair {
                    Some(p) => *slot = p,
                    // Rule 3: the first round's max.
                    None => *slot = maxlists[u][0],
                }
            }
        }
        // Repair pass (replaces the paper's convergecast): any node pointed
        // to as head declares itself head; then any node whose head is not
        // within d hops re-points to the nearest declared head (ties to the
        // lowest id), or self-promotes.
        let mut is_head = vec![false; n];
        for &h in &head_of {
            is_head[h as usize] = true;
        }
        for u in 0..n {
            if is_head[u] {
                head_of[u] = u as NodeId;
            }
        }
        for u in 0..n as NodeId {
            let dist = bfs_distances(topology, u, hops);
            let current = head_of[u as usize];
            if dist[current as usize] <= hops {
                continue;
            }
            let replacement = (0..n as NodeId)
                .filter(|&h| is_head[h as usize] && dist[h as usize] <= hops)
                .min_by_key(|&h| (dist[h as usize], h));
            match replacement {
                Some(h) => head_of[u as usize] = h,
                None => {
                    head_of[u as usize] = u;
                    is_head[u as usize] = true;
                }
            }
        }
        DHopClustering {
            hops,
            head_of,
            enforce_separation: false,
        }
    }

    /// Hop bound `d`.
    pub fn hops(&self) -> usize {
        self.hops
    }

    /// The head assignment, indexed by node id.
    pub fn assignments(&self) -> &[NodeId] {
        &self.head_of
    }

    /// Whether node `u` is a head.
    pub fn is_head(&self, u: NodeId) -> bool {
        self.head_of[u as usize] == u
    }

    /// Number of clusters.
    pub fn head_count(&self) -> usize {
        (0..self.head_of.len() as NodeId)
            .filter(|&u| self.is_head(u))
            .count()
    }

    /// Reactive maintenance (d-hop LCC): re-homes members whose head is
    /// out of d-hop reach, resolves head proximity when separation is
    /// enforced, and counts CLUSTER messages with the same conventions as
    /// the one-hop engine.
    ///
    /// Telemetry flows through `ctx.probe`: committed role changes are
    /// emitted (`HeadResigned`, `MemberReaffiliated`, `HeadElected`)
    /// stamped with `ctx.now`, each tagged with its root cause when the
    /// probe carries a `CauseTracker` — one fresh `HeadContact` root per
    /// resignation (shared with the orphanings and re-homes it forces),
    /// one fresh `HeadLoss` root per out-of-reach member. With
    /// [`Probe::off`](manet_telemetry::Probe::off) the pass is quiet with
    /// identical outcomes.
    pub fn maintain<P: ClusterPolicy>(
        &mut self,
        policy: &P,
        topology: &Topology,
        ctx: &mut StepCtx<'_, '_>,
    ) -> MaintenanceOutcome {
        let now = ctx.now;
        let probe = &mut *ctx.probe;
        assert_eq!(topology.len(), self.head_of.len(), "node count changed");
        let n = self.head_of.len();
        let mut outcome = MaintenanceOutcome::default();

        // Head proximity resolution (P1(d)), analogous to head contacts.
        // Members orphaned by a resignation have their pointer cleared to
        // NO_HEAD *at resignation time* — not left dangling at the
        // resigned head — and are re-homed below with the contact
        // attribution.
        let mut orphan_why: Vec<Option<Cause>> = vec![None; n];
        if self.enforce_separation {
            loop {
                let heads: Vec<NodeId> = (0..n as NodeId).filter(|&u| self.is_head(u)).collect();
                let mut contact = None;
                'outer: for &a in &heads {
                    let dist = bfs_distances(topology, a, self.hops);
                    for &b in &heads {
                        if b > a && dist[b as usize] <= self.hops {
                            contact = Some((a, b));
                            break 'outer;
                        }
                    }
                }
                let Some((a, b)) = contact else { break };
                let (winner, loser) = if policy.priority(a, topology) > policy.priority(b, topology)
                {
                    (a, b)
                } else {
                    (b, a)
                };
                let cause = probe.root(RootCause::HeadContact);
                for u in 0..n as NodeId {
                    if u != loser && self.head_of[u as usize] == loser {
                        self.head_of[u as usize] = NO_HEAD;
                        orphan_why[u as usize] = cause;
                        if probe.is_attributing() {
                            probe.emit_caused(
                                now,
                                Layer::Cluster,
                                EventKind::HeadLost {
                                    member: u,
                                    head: loser,
                                },
                                cause,
                            );
                        }
                    }
                }
                // The loser joins the winner (within d hops by contact).
                self.head_of[loser as usize] = winner;
                outcome.contact_resignations += 1;
                probe.emit_caused(
                    now,
                    Layer::Cluster,
                    EventKind::HeadResigned {
                        node: loser,
                        new_head: winner,
                    },
                    cause,
                );
            }
        }

        // Re-home members whose head is gone or out of reach (P2(d)).
        for u in 0..n as NodeId {
            let head = self.head_of[u as usize];
            if head == u {
                continue; // a head
            }
            let from_contact = head == NO_HEAD;
            let dist = bfs_distances(topology, u, self.hops);
            // NO_HEAD must be checked before indexing with `head`.
            let valid = !from_contact
                && self.head_of[head as usize] == head
                && dist[head as usize] <= self.hops;
            if valid {
                continue;
            }
            let mut why = orphan_why[u as usize];
            if !from_contact {
                why = probe.root(RootCause::HeadLoss);
                if probe.is_attributing() {
                    probe.emit_caused(
                        now,
                        Layer::Cluster,
                        EventKind::HeadLost { member: u, head },
                        why,
                    );
                }
            }
            let replacement = (0..n as NodeId)
                .filter(|&h| {
                    h != u && self.head_of[h as usize] == h && dist[h as usize] <= self.hops
                })
                .max_by_key(|&h| policy.priority(h, topology));
            match replacement {
                Some(h) => {
                    self.head_of[u as usize] = h;
                    if from_contact {
                        outcome.contact_reaffiliations += 1;
                    } else {
                        outcome.break_reaffiliations += 1;
                    }
                    probe.emit_caused(
                        now,
                        Layer::Cluster,
                        EventKind::MemberReaffiliated { member: u, head: h },
                        why,
                    );
                }
                None => {
                    self.head_of[u as usize] = u;
                    if from_contact {
                        outcome.contact_promotions += 1;
                    } else {
                        outcome.break_promotions += 1;
                    }
                    probe.emit_caused(now, Layer::Cluster, EventKind::HeadElected { node: u }, why);
                }
            }
        }
        debug_assert!(self.head_of.iter().all(|&h| h != NO_HEAD));
        debug_assert_eq!(self.check_invariants(topology), Ok(()));
        outcome
    }

    /// Verifies P2(d) (and P1(d) when separation is enforced).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn check_invariants(&self, topology: &Topology) -> Result<(), String> {
        let n = self.head_of.len();
        for u in 0..n as NodeId {
            let head = self.head_of[u as usize];
            if self.head_of[head as usize] != head {
                return Err(format!("node {u} points at {head}, which is not a head"));
            }
            if head != u {
                let dist = bfs_distances(topology, u, self.hops);
                if dist[head as usize] > self.hops {
                    return Err(format!(
                        "node {u} is {} hops from its head {head} (bound {})",
                        if dist[head as usize] == usize::MAX {
                            "∞".to_string()
                        } else {
                            dist[head as usize].to_string()
                        },
                        self.hops
                    ));
                }
            }
        }
        if self.enforce_separation {
            let heads: Vec<NodeId> = (0..n as NodeId).filter(|&u| self.is_head(u)).collect();
            for &a in &heads {
                let dist = bfs_distances(topology, a, self.hops);
                for &b in &heads {
                    if b > a && dist[b as usize] <= self.hops {
                        return Err(format!("heads {a} and {b} are within {} hops", self.hops));
                    }
                }
            }
        }
        Ok(())
    }
}

impl crate::assignment::ClusterAssignment for DHopClustering {
    fn node_count(&self) -> usize {
        self.head_of.len()
    }

    fn cluster_head_of(&self, u: NodeId) -> NodeId {
        self.head_of[u as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::ClusterAssignment;
    use crate::policy::LowestId;
    use manet_geom::{Metric, SquareRegion, Vec2};

    fn path(k: usize) -> Topology {
        let pts: Vec<Vec2> = (0..k).map(|i| Vec2::new(i as f64, 0.0)).collect();
        Topology::compute(&pts, SquareRegion::new(1000.0), 1.1, Metric::Euclidean)
    }

    #[test]
    fn one_hop_greedy_matches_classic_lid_on_a_path() {
        let t = path(5);
        let d1 = DHopClustering::form(&LowestId, &t, 1);
        // Classic LID heads on a 5-path: {0, 2, 4}.
        assert_eq!(
            (0..5u32).filter(|&u| d1.is_head(u)).collect::<Vec<_>>(),
            vec![0, 2, 4]
        );
        d1.check_invariants(&t).unwrap();
    }

    #[test]
    fn two_hop_forms_fewer_clusters_than_one_hop() {
        let t = path(9);
        let d1 = DHopClustering::form(&LowestId, &t, 1);
        let d2 = DHopClustering::form(&LowestId, &t, 2);
        assert!(d2.head_count() < d1.head_count());
        d2.check_invariants(&t).unwrap();
        // 2-hop on a 9-path: 0 claims {1,2}; 3..: lowest undecided local
        // minimum 3 claims {4,5}; 6 claims {7,8}. Heads {0,3,6}.
        assert_eq!(
            (0..9u32).filter(|&u| d2.is_head(u)).collect::<Vec<_>>(),
            vec![0, 3, 6]
        );
        assert_eq!(d2.hops(), 2);
    }

    #[test]
    fn bfs_distances_truncate() {
        let t = path(6);
        let d = bfs_distances(&t, 0, 3);
        assert_eq!(&d[..5], &[0, 1, 2, 3, usize::MAX]);
    }

    #[test]
    fn maintenance_rehomes_out_of_reach_members() {
        let t0 = path(3);
        let mut c = DHopClustering::form(&LowestId, &t0, 2);
        // Single cluster headed by 0.
        assert_eq!(c.head_count(), 1);
        // Node 2 drifts beyond 2 hops (disconnects entirely).
        let pts = [
            Vec2::new(0.0, 0.0),
            Vec2::new(1.0, 0.0),
            Vec2::new(500.0, 0.0),
        ];
        let t1 = Topology::compute(&pts, SquareRegion::new(1000.0), 1.1, Metric::Euclidean);
        let mut q = manet_sim::QuietCtx::new();
        let o = c.maintain(&LowestId, &t1, &mut q.ctx());
        assert!(c.is_head(2), "stranded node promotes");
        assert_eq!(o.break_promotions, 1);
        c.check_invariants(&t1).unwrap();
    }

    #[test]
    fn maintenance_resolves_head_proximity() {
        // Two separate 2-hop clusters that then connect into one path.
        let pts0 = [
            Vec2::new(0.0, 0.0),
            Vec2::new(1.0, 0.0),
            Vec2::new(100.0, 0.0),
            Vec2::new(101.0, 0.0),
        ];
        let t0 = Topology::compute(&pts0, SquareRegion::new(1000.0), 1.1, Metric::Euclidean);
        let mut c = DHopClustering::form(&LowestId, &t0, 2);
        assert_eq!(c.head_count(), 2);
        let t1 = path(4); // 0-1-2-3: heads 0 and 2 are now 2 hops apart
        let mut q = manet_sim::QuietCtx::new();
        let o = c.maintain(&LowestId, &t1, &mut q.ctx());
        assert_eq!(o.contact_resignations, 1, "head 2 resigns to head 0");
        // Former member 3 is 3 hops from head 0, so it must promote itself
        // — counted with the contact attribution.
        assert_eq!(o.contact_promotions, 1);
        c.check_invariants(&t1).unwrap();
        assert!(c.is_head(0) && !c.is_head(2) && c.is_head(3));
        assert_eq!(c.head_count(), 2);
    }

    #[test]
    fn resignation_clears_orphan_pointers_and_attributes_the_contact() {
        use manet_telemetry::{CauseTracker, Event, Probe};

        // Same scenario as `maintenance_resolves_head_proximity`: heads 0
        // and 2 come within 2 hops; head 2 resigns and its member 3 (now 3
        // hops from head 0) must promote itself.
        let pts0 = [
            Vec2::new(0.0, 0.0),
            Vec2::new(1.0, 0.0),
            Vec2::new(100.0, 0.0),
            Vec2::new(101.0, 0.0),
        ];
        let t0 = Topology::compute(&pts0, SquareRegion::new(1000.0), 1.1, Metric::Euclidean);
        let mut c = DHopClustering::form(&LowestId, &t0, 2);
        let t1 = path(4);
        let mut sink = Vec::<Event>::new();
        let mut tracker = CauseTracker::new();
        let mut probe = Probe::with_causes(Some(&mut sink), Some(&mut tracker));
        let mut scratch = manet_sim::Scratch::new();
        let o = c.maintain(
            &LowestId,
            &t1,
            &mut StepCtx::new(&mut probe, &mut scratch).at(1.0),
        );
        // Accounting matches the untraced path exactly.
        assert_eq!(o.contact_resignations, 1);
        assert_eq!(o.contact_promotions, 1);
        // The orphaning is recorded *at resignation time*: a HeadLost event
        // naming the resigned head, sharing the resignation's HeadContact
        // root, and the promotion it forces carries the same root — the
        // member never re-homes off a dangling pointer.
        let resigned = sink
            .iter()
            .find(|e| matches!(e.kind, EventKind::HeadResigned { .. }))
            .expect("resignation emitted");
        let root = resigned.cause.unwrap();
        assert_eq!(root.root, RootCause::HeadContact);
        let lost = sink
            .iter()
            .find(|e| matches!(e.kind, EventKind::HeadLost { .. }))
            .expect("orphaning emitted");
        assert_eq!(lost.kind, EventKind::HeadLost { member: 3, head: 2 });
        assert_eq!(lost.cause.unwrap().id, root.id);
        let elected = sink
            .iter()
            .find(|e| matches!(e.kind, EventKind::HeadElected { .. }))
            .expect("promotion emitted");
        assert_eq!(elected.cause.unwrap().id, root.id);
        // No transient NO_HEAD marker escapes the pass.
        assert!(c.assignments().iter().all(|&h| (h as usize) < 4));
        c.check_invariants(&t1).unwrap();
    }

    #[test]
    fn max_min_covers_every_node_within_d_hops() {
        use manet_util::Rng;
        let region = SquareRegion::new(300.0);
        let mut rng = Rng::seed_from_u64(11);
        for hops in [1usize, 2, 3] {
            let pts: Vec<Vec2> = (0..120).map(|_| region.sample_uniform(&mut rng)).collect();
            let t = Topology::compute(&pts, region, 60.0, Metric::Euclidean);
            let c = DHopClustering::form_max_min(&t, hops);
            c.check_invariants(&t)
                .unwrap_or_else(|e| panic!("hops={hops}: {e}"));
            assert!(c.head_count() >= 1);
        }
    }

    #[test]
    fn max_min_larger_d_gives_fewer_heads() {
        use manet_util::Rng;
        let region = SquareRegion::new(300.0);
        let mut rng = Rng::seed_from_u64(12);
        let pts: Vec<Vec2> = (0..150).map(|_| region.sample_uniform(&mut rng)).collect();
        let t = Topology::compute(&pts, region, 45.0, Metric::Euclidean);
        let h1 = DHopClustering::form_max_min(&t, 1).head_count();
        let h3 = DHopClustering::form_max_min(&t, 3).head_count();
        assert!(h3 < h1, "d=3 heads {h3} !< d=1 heads {h1}");
    }

    #[test]
    fn max_min_rules_on_a_path() {
        // On 0-1-2 with d=1 the floods give maxlists [1],[2],[2] and
        // minlists [1],[1],[2]: node 1 and node 2 see their own id in the
        // min phase (rule 1 heads — Max-Min favors large ids and does NOT
        // enforce head separation); node 0 elects node pair 1 (rule 2).
        let t = path(3);
        let c = DHopClustering::form_max_min(&t, 1);
        assert!(!c.is_head(0));
        assert!(c.is_head(1) && c.is_head(2));
        assert_eq!(c.assignments()[0], 1);
        c.check_invariants(&t).unwrap();
    }

    #[test]
    fn assignment_trait_view() {
        let t = path(5);
        let c = DHopClustering::form(&LowestId, &t, 2);
        let a: &dyn ClusterAssignment = &c;
        assert_eq!(a.node_count(), 5);
        assert_eq!(a.cluster_count(), c.head_count());
        let sizes: usize = (0..5u32)
            .filter(|&h| a.is_cluster_head(h))
            .map(|h| a.cluster_size_of(h))
            .sum();
        assert_eq!(sizes, 5);
    }

    #[test]
    #[should_panic(expected = "hops")]
    fn zero_hops_panics() {
        DHopClustering::form(&LowestId, &path(2), 0);
    }
}
