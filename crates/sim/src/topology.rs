//! Link tracking: the unit-disk topology and its tick-to-tick diff.

use crate::NodeId;
use manet_geom::{Metric, NeighborRows, SpatialGrid, SquareRegion, Vec2};
use manet_telemetry::Probe;
use std::sync::atomic::{AtomicU64, Ordering};

/// Whether a link appeared or disappeared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkEventKind {
    /// Two nodes moved into transmission range of each other.
    Generated,
    /// Two previously linked nodes moved out of range.
    Broken,
}

/// A single link change between a pair of nodes, with `a < b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkEvent {
    /// What happened.
    pub kind: LinkEventKind,
    /// Lower-numbered endpoint.
    pub a: NodeId,
    /// Higher-numbered endpoint.
    pub b: NodeId,
}

/// Strategy for recomputing the per-tick unit-disk topology.
///
/// `World::step_staged` delegates only the neighbor-list computation to the
/// builder; everything downstream — the alive mask, the diff, link events,
/// HELLO accounting, counters — is shared `World` code. Any builder that
/// produces the same sorted neighbor rows as [`GridTopology`] is therefore
/// observationally identical to the monolithic world by construction. The
/// shard plane (`manet-shard`) is the non-trivial implementation.
///
/// A 1x1 builder holds no kernel of its own: it builds on the world's
/// kernel slot, so every 1x1 builder of one world steps one link
/// schedule.
pub trait TopologyBuilder {
    /// Recomputes the topology of `positions` into `out`, reusing `out`'s
    /// row store and, for a 1x1 build, the world's kernel slot `grid`
    /// (`None` until a build first fills it). Every
    /// row of `out` must end up sorted and cover exactly the unit-disk
    /// neighbors under `metric` — except that a builder with a degraded
    /// internal view (e.g. the shard plane under interconnect faults) may
    /// conservatively omit links, provided it emits the corresponding
    /// telemetry through `probe` at sim time `now`.
    ///
    /// A builder that writes `out` with [`Topology::compute_into`] also
    /// records there the link schedule's flips as the tick's link events,
    /// against the stamp of the grid's previous output; `World` then takes
    /// them instead of diffing the rows whenever that output is its
    /// current topology, unedited.
    #[allow(clippy::too_many_arguments)]
    fn build_into(
        &mut self,
        positions: &[Vec2],
        region: SquareRegion,
        radius: f64,
        metric: Metric,
        grid: &mut Option<SpatialGrid>,
        out: &mut Topology,
        probe: &mut Probe<'_>,
        now: f64,
    );
}

/// The default [`TopologyBuilder`]: the unit-disk kernel on one 1x1
/// frame in the world's kernel slot, whose link schedule carries over
/// from tick to tick and hands its flips on as the tick's events (see
/// [`SpatialGrid`] and [`Topology::compute_into`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct GridTopology;

impl TopologyBuilder for GridTopology {
    fn build_into(
        &mut self,
        positions: &[Vec2],
        region: SquareRegion,
        radius: f64,
        metric: Metric,
        grid: &mut Option<SpatialGrid>,
        out: &mut Topology,
        _probe: &mut Probe<'_>,
        _now: f64,
    ) {
        let grid = grid.get_or_insert_with(SpatialGrid::default);
        out.compute_into(grid, positions, region, radius, metric);
    }
}

/// The current unit-disk topology: per-node sorted neighbor lists, held
/// in one flat row store ([`NeighborRows`]).
///
/// Recomputed from node positions every tick — exactly, whether the
/// kernel swept its frame or ran its link schedule; the [`LinkEvent`]
/// stream that drives the HELLO, CLUSTER, and ROUTE protocol layers is
/// the schedule's flips or the row diff [`Topology::diff_into`].
///
/// Every topology carries a [`stamp`](Topology::stamp), a process-unique
/// id that changes with every edit of its rows, and may carry the link
/// events that lead to it from a predecessor ([`Topology::diff_from`] or
/// [`Topology::compute_into`], read back by [`Topology::events_since`]).
/// Equality compares rows only; a clone keeps the stamp and the events,
/// since its rows are the same.
#[derive(Debug, Clone)]
pub struct Topology {
    rows: NeighborRows,
    /// This content's identity: fresh on every edit, never 0.
    stamp: u64,
    /// The stamp of the topology `events` lead from; 0 when there is none.
    base: u64,
    /// The link events from the topology stamped `base` to this one.
    events: Vec<LinkEvent>,
}

/// The next unused stamp. It publishes no other data, so `Relaxed`
/// suffices: each `fetch_add` still returns a distinct value.
static NEXT_STAMP: AtomicU64 = AtomicU64::new(1);

impl Default for Topology {
    fn default() -> Self {
        Topology::empty(0)
    }
}

impl PartialEq for Topology {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
    }
}

impl Eq for Topology {}

impl Topology {
    /// An empty topology over `n` nodes (no links).
    pub fn empty(n: usize) -> Self {
        Topology {
            rows: NeighborRows::empty(n),
            stamp: NEXT_STAMP.fetch_add(1, Ordering::Relaxed),
            base: 0,
            events: Vec::new(),
        }
    }

    /// Marks the rows as edited: a fresh stamp, and no events.
    fn touch(&mut self) {
        self.stamp = NEXT_STAMP.fetch_add(1, Ordering::Relaxed);
        self.base = 0;
        self.events.clear();
    }

    /// This topology's identity: a process-unique id, never 0, that
    /// changes whenever the rows are edited. Equal stamps mean equal rows.
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// The link events that lead to this topology from the one stamped
    /// `stamp`: `Some` only when [`Topology::diff_from`] or
    /// [`Topology::compute_into`] recorded them against exactly that stamp
    /// and the rows were not edited since.
    pub fn events_since(&self, stamp: u64) -> Option<&[LinkEvent]> {
        (self.base != 0 && self.base == stamp).then_some(&self.events[..])
    }

    /// The events recorded by the last [`Topology::diff_from`] (empty
    /// after an edit).
    pub(crate) fn events(&self) -> &[LinkEvent] {
        &self.events
    }

    /// Records in this topology the link events that turn `prev` into it
    /// (`prev.diff_into(self, ..)`), so that `events_since(prev.stamp())`
    /// returns them. The event buffers trade places: this topology diffs
    /// into `prev`'s, and `prev`, which keeps its rows and stamp but no
    /// events, gets this one's, emptied. A double-buffered tick that only
    /// diffs thus passes one buffer back and forth, and no buffer is
    /// dropped.
    ///
    /// # Panics
    ///
    /// Panics if the node counts differ.
    pub fn diff_from(&mut self, prev: &mut Topology) {
        let mut events = std::mem::replace(&mut prev.events, std::mem::take(&mut self.events));
        prev.events.clear();
        prev.base = 0;
        events.clear();
        prev.diff_into(self, &mut events);
        self.events = events;
        self.base = prev.stamp;
    }

    /// The debug builds' check of recorded events: diffs `prev` into
    /// `buf`, a reused buffer, and asserts that the result equals the
    /// events this topology holds.
    pub(crate) fn debug_check_events(&self, prev: &Topology, buf: &mut Vec<LinkEvent>) {
        buf.clear();
        buf.reserve(self.events.len());
        prev.diff_into(self, buf);
        debug_assert_eq!(
            buf, &self.events,
            "recorded link events differ from the row diff"
        );
    }

    /// Computes the topology of `positions` under `metric` with unit-disk
    /// `radius`: one plain sweep on a fresh grid, with no candidate lists.
    pub fn compute(positions: &[Vec2], region: SquareRegion, radius: f64, metric: Metric) -> Self {
        let mut topo = Topology::default();
        topo.compute_into(
            &mut SpatialGrid::default(),
            positions,
            region,
            radius,
            metric,
        );
        topo
    }

    /// Recomputes this topology in place through `grid`, reusing the
    /// grid's frame buffers and this topology's row store.
    ///
    /// Equivalent to `*self = Topology::compute(..)`, but allocation-free
    /// in the steady state: the store reallocates only when the degree
    /// sum outgrows its capacity, an eighth past the largest earlier
    /// fill. When the grid's
    /// link schedule ran right after a call whose output was another
    /// topology, stamped `s`, this one holds the flips as its events from
    /// `s` ([`manet_geom::FrameGrid::flips`]). The grid's output is tagged
    /// with this topology's stamp, so that the next call's flips can name
    /// it.
    pub fn compute_into(
        &mut self,
        grid: &mut SpatialGrid,
        positions: &[Vec2],
        region: SquareRegion,
        radius: f64,
        metric: Metric,
    ) {
        grid.neighbor_rows(positions, region, radius, metric, self.rows_to_fill());
        let kernel = grid.kernel_mut();
        if let Some((base, flips)) = kernel.flips() {
            self.events.extend(flips.iter().map(|f| LinkEvent {
                kind: if f.up {
                    LinkEventKind::Generated
                } else {
                    LinkEventKind::Broken
                },
                a: f.a,
                b: f.b,
            }));
            self.base = base;
        }
        kernel.tag_output(self.stamp);
    }

    /// Empties the row store and exposes it, for [`TopologyBuilder`]s
    /// that write the rows themselves (e.g. by copying per-shard rows).
    ///
    /// The builder must append one sorted row per node, in id order. The
    /// store keeps its capacity, and the topology takes a fresh stamp and
    /// drops its events.
    pub fn rows_to_fill(&mut self) -> &mut NeighborRows {
        self.touch();
        self.rows.clear();
        &mut self.rows
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the topology covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Sorted neighbor list of node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn neighbors(&self, i: NodeId) -> &[NodeId] {
        self.rows.row(i as usize)
    }

    /// Degree of node `i`.
    pub fn degree(&self, i: NodeId) -> usize {
        self.rows.row_len(i as usize)
    }

    /// Whether nodes `a` and `b` are directly linked.
    pub fn are_linked(&self, a: NodeId, b: NodeId) -> bool {
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Mean degree over all nodes (0 for an empty topology). O(1): the
    /// store holds the degree sum.
    pub fn mean_degree(&self) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        self.rows.entries() as f64 / self.rows.len() as f64
    }

    /// Total number of (undirected) links.
    pub fn link_count(&self) -> usize {
        self.rows.entries() / 2
    }

    /// Iterates all links as `(a, b)` pairs with `a < b`.
    pub fn links(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.rows.iter().enumerate().flat_map(|(i, ns)| {
            let i = i as NodeId;
            ns.iter()
                .copied()
                .filter(move |&j| i < j)
                .map(move |j| (i, j))
        })
    }

    /// Removes every link incident to a node marked dead in `alive` (a
    /// crashed radio neither sends nor receives, so all its links vanish
    /// from the ground truth). Neighbor lists stay sorted. Like any edit,
    /// this takes a fresh stamp and drops the events, even when no link
    /// goes.
    ///
    /// # Panics
    ///
    /// Panics if `alive.len()` differs from the node count.
    pub fn retain_alive(&mut self, alive: &[bool]) {
        assert_eq!(self.rows.len(), alive.len(), "alive mask size mismatch");
        self.touch();
        self.rows
            .retain(|u, w| alive[u as usize] && alive[w as usize]);
    }

    /// Appends to `out` the link events that transform `self` into `next`.
    ///
    /// Both topologies must cover the same node count; events are emitted
    /// once per pair (`a < b`) in deterministic order.
    ///
    /// # Panics
    ///
    /// Panics if the node counts differ.
    pub fn diff_into(&self, next: &Topology, out: &mut Vec<LinkEvent>) {
        assert_eq!(
            self.len(),
            next.len(),
            "topology size changed between ticks"
        );
        for (i, (old, new)) in self.rows.iter().zip(next.rows.iter()).enumerate() {
            // Merge-walk the two sorted lists.
            let (mut oi, mut ni) = (0, 0);
            let a = i as NodeId;
            while oi < old.len() || ni < new.len() {
                match (old.get(oi), new.get(ni)) {
                    (Some(&o), Some(&n)) if o == n => {
                        oi += 1;
                        ni += 1;
                    }
                    (Some(&o), Some(&n)) if o < n => {
                        if a < o {
                            out.push(LinkEvent {
                                kind: LinkEventKind::Broken,
                                a,
                                b: o,
                            });
                        }
                        oi += 1;
                    }
                    (Some(_), Some(&n)) => {
                        if a < n {
                            out.push(LinkEvent {
                                kind: LinkEventKind::Generated,
                                a,
                                b: n,
                            });
                        }
                        ni += 1;
                    }
                    (Some(&o), None) => {
                        if a < o {
                            out.push(LinkEvent {
                                kind: LinkEventKind::Broken,
                                a,
                                b: o,
                            });
                        }
                        oi += 1;
                    }
                    (None, Some(&n)) => {
                        if a < n {
                            out.push(LinkEvent {
                                kind: LinkEventKind::Generated,
                                a,
                                b: n,
                            });
                        }
                        ni += 1;
                    }
                    (None, None) => unreachable!(),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_util::Rng;

    fn topo_from_lists(lists: Vec<Vec<NodeId>>) -> Topology {
        Topology {
            rows: lists.into_iter().collect(),
            ..Topology::default()
        }
    }

    #[test]
    fn compute_matches_pairwise_definition() {
        let region = SquareRegion::new(50.0);
        let mut rng = Rng::seed_from_u64(1);
        let positions: Vec<Vec2> = (0..60).map(|_| region.sample_uniform(&mut rng)).collect();
        let metric = Metric::toroidal(50.0);
        let topo = Topology::compute(&positions, region, 10.0, metric);
        for i in 0..60u32 {
            for j in 0..60u32 {
                if i == j {
                    continue;
                }
                let expect = metric.within(positions[i as usize], positions[j as usize], 10.0);
                assert_eq!(topo.are_linked(i, j), expect, "pair {i},{j}");
            }
        }
        // Symmetry of the neighbor lists.
        let total: usize = (0..60u32).map(|i| topo.degree(i)).sum();
        assert_eq!(total % 2, 0);
        assert_eq!(topo.link_count(), total / 2);
        assert!((topo.mean_degree() - total as f64 / 60.0).abs() < 1e-12);
    }

    #[test]
    fn links_iterator_is_unique_and_ordered() {
        let t = topo_from_lists(vec![vec![1, 2], vec![0, 2], vec![0, 1]]);
        let links: Vec<_> = t.links().collect();
        assert_eq!(links, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn diff_detects_generation_and_break() {
        let before = topo_from_lists(vec![vec![1], vec![0], vec![]]);
        let after = topo_from_lists(vec![vec![2], vec![], vec![0]]);
        let mut events = Vec::new();
        before.diff_into(&after, &mut events);
        assert_eq!(
            events,
            vec![
                LinkEvent {
                    kind: LinkEventKind::Broken,
                    a: 0,
                    b: 1
                },
                LinkEvent {
                    kind: LinkEventKind::Generated,
                    a: 0,
                    b: 2
                },
            ]
        );
    }

    #[test]
    fn diff_of_identical_topologies_is_empty() {
        let t = topo_from_lists(vec![vec![1, 2], vec![0], vec![0]]);
        let mut events = Vec::new();
        t.diff_into(&t.clone(), &mut events);
        assert!(events.is_empty());
    }

    #[test]
    fn diff_interleaved_ids_all_cases() {
        // Exercises every branch of the merge walk.
        let before = topo_from_lists(vec![
            vec![1, 3, 5],
            vec![0],
            vec![],
            vec![0],
            vec![],
            vec![0],
        ]);
        let after = topo_from_lists(vec![
            vec![2, 3, 4],
            vec![],
            vec![0],
            vec![0],
            vec![0],
            vec![],
        ]);
        let mut events = Vec::new();
        before.diff_into(&after, &mut events);
        use LinkEventKind::*;
        let mut got = events;
        got.sort_by_key(|e| (e.a, e.b));
        assert_eq!(
            got,
            vec![
                LinkEvent {
                    kind: Broken,
                    a: 0,
                    b: 1
                },
                LinkEvent {
                    kind: Generated,
                    a: 0,
                    b: 2
                },
                LinkEvent {
                    kind: Generated,
                    a: 0,
                    b: 4
                },
                LinkEvent {
                    kind: Broken,
                    a: 0,
                    b: 5
                },
            ]
        );
    }

    #[test]
    #[should_panic(expected = "size changed")]
    fn diff_rejects_mismatched_sizes() {
        let a = Topology::empty(3);
        let b = Topology::empty(4);
        a.diff_into(&b, &mut Vec::new());
    }

    #[test]
    fn retain_alive_strips_dead_links_both_ways() {
        let mut t = topo_from_lists(vec![vec![1, 2], vec![0, 2], vec![0, 1], vec![]]);
        t.retain_alive(&[true, false, true, true]);
        assert_eq!(t.neighbors(0), &[2]);
        assert_eq!(t.neighbors(1), &[] as &[NodeId]);
        assert_eq!(t.neighbors(2), &[0]);
        assert_eq!(t.link_count(), 1);
        // All-alive mask is a no-op.
        let mut u = topo_from_lists(vec![vec![1], vec![0]]);
        let orig = u.clone();
        u.retain_alive(&[true, true]);
        assert_eq!(u.neighbors(0), orig.neighbors(0));
        assert_eq!(u.neighbors(1), orig.neighbors(1));
    }

    #[test]
    #[should_panic(expected = "alive mask")]
    fn retain_alive_rejects_wrong_mask_size() {
        Topology::empty(3).retain_alive(&[true, true]);
    }

    #[test]
    fn events_since_answers_only_the_exact_predecessor() {
        let mut before = topo_from_lists(vec![vec![1], vec![0], vec![]]);
        let mut after = topo_from_lists(vec![vec![2], vec![], vec![0]]);
        let mut expect = Vec::new();
        before.diff_into(&after, &mut expect);
        let (base, own) = (before.stamp(), after.stamp());
        assert!(base != 0 && own != 0 && base != own);
        assert_eq!(after.events_since(base), None, "nothing recorded yet");
        after.diff_from(&mut before);
        assert_eq!(after.events_since(base), Some(&expect[..]));
        assert_eq!(after.stamp(), own, "recording events is not an edit");
        for other in [0, own, base + own] {
            assert_eq!(after.events_since(other), None, "stamp {other}");
        }
        // The predecessor gave up its buffer and its own events.
        assert_eq!(before.stamp(), base);
        assert_eq!(before.events(), &[] as &[LinkEvent]);
    }

    #[test]
    fn edits_cut_the_chain_and_clones_keep_it() {
        let mut before = topo_from_lists(vec![vec![1], vec![0], vec![]]);
        let mut after = topo_from_lists(vec![vec![2], vec![], vec![0]]);
        after.diff_from(&mut before);
        let base = before.stamp();
        let events = after.events_since(base).unwrap().to_vec();
        let clone = after.clone();
        assert_eq!(clone.stamp(), after.stamp());
        assert_eq!(clone.events_since(base), Some(&events[..]));

        let mut masked = after.clone();
        masked.retain_alive(&[true; 3]);
        assert_eq!(masked, after, "an all-alive mask keeps every link");
        assert_ne!(masked.stamp(), after.stamp());
        assert_eq!(masked.events_since(base), None);

        let mut rebuilt = after.clone();
        rebuilt.rows_to_fill();
        assert_ne!(rebuilt.stamp(), after.stamp());
        assert_eq!(rebuilt.events_since(base), None);

        let pts = [Vec2::new(0.0, 0.0), Vec2::new(1.0, 0.0)];
        let mut computed = after.clone();
        computed.compute_into(
            &mut SpatialGrid::default(),
            &pts,
            SquareRegion::new(10.0),
            2.0,
            Metric::Euclidean,
        );
        assert_eq!(computed.events_since(base), None);
        assert_ne!(computed.stamp(), after.stamp());
    }

    #[test]
    fn empty_topology() {
        let t = Topology::empty(0);
        assert!(t.is_empty());
        assert_eq!(t.mean_degree(), 0.0);
        assert_eq!(t.link_count(), 0);
    }
}

impl Topology {
    /// Labels connected components; returns `(labels, component_count)`
    /// with labels in `0..count`, assigned in order of lowest contained
    /// node id.
    pub fn components(&self) -> (Vec<usize>, usize) {
        let n = self.rows.len();
        let mut label = vec![usize::MAX; n];
        let mut count = 0;
        for start in 0..n {
            if label[start] != usize::MAX {
                continue;
            }
            let mut stack = vec![start];
            label[start] = count;
            while let Some(u) = stack.pop() {
                for &w in self.rows.row(u) {
                    if label[w as usize] == usize::MAX {
                        label[w as usize] = count;
                        stack.push(w as usize);
                    }
                }
            }
            count += 1;
        }
        (label, count)
    }

    /// Whether every node can reach every other node.
    pub fn is_connected(&self) -> bool {
        self.rows.len() <= 1 || self.components().1 == 1
    }

    /// Fraction of unordered node pairs that are mutually reachable
    /// (1.0 for a connected topology, 0.0 for fully isolated nodes).
    pub fn pair_connectivity(&self) -> f64 {
        let n = self.rows.len();
        if n < 2 {
            return 1.0;
        }
        let (labels, count) = self.components();
        let mut sizes = vec![0u64; count];
        for &l in &labels {
            sizes[l] += 1;
        }
        let reachable: u64 = sizes.iter().map(|&s| s * (s - 1) / 2).sum();
        let total = (n as u64) * (n as u64 - 1) / 2;
        reachable as f64 / total as f64
    }
}

#[cfg(test)]
mod component_tests {
    use super::*;
    use manet_geom::{Metric, SquareRegion, Vec2};

    fn topo(positions: &[(f64, f64)], radius: f64) -> Topology {
        let pts: Vec<Vec2> = positions.iter().map(|&(x, y)| Vec2::new(x, y)).collect();
        Topology::compute(&pts, SquareRegion::new(1000.0), radius, Metric::Euclidean)
    }

    #[test]
    fn components_of_two_islands() {
        let t = topo(&[(0.0, 0.0), (1.0, 0.0), (500.0, 0.0), (501.0, 0.0)], 1.5);
        let (labels, count) = t.components();
        assert_eq!(count, 2);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], labels[3]);
        assert_ne!(labels[0], labels[2]);
        assert!(!t.is_connected());
        // Reachable pairs: 1 + 1 of 6.
        assert!((t.pair_connectivity() - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn connected_path() {
        let pts: Vec<(f64, f64)> = (0..6).map(|i| (i as f64, 0.0)).collect();
        let t = topo(&pts, 1.1);
        assert!(t.is_connected());
        assert_eq!(t.pair_connectivity(), 1.0);
        assert_eq!(t.components().1, 1);
    }

    #[test]
    fn degenerate_sizes() {
        assert!(Topology::empty(0).is_connected());
        assert!(Topology::empty(1).is_connected());
        assert_eq!(Topology::empty(1).pair_connectivity(), 1.0);
        let isolated = Topology::empty(4);
        assert_eq!(isolated.components().1, 4);
        assert_eq!(isolated.pair_connectivity(), 0.0);
    }
}
