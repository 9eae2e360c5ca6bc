//! The shard plane: a [`TopologyBuilder`] that computes the unit-disk
//! topology shard-locally with ghost margins and merges deterministically.
//!
//! A `1x1` plane has no peer to exchange with, so it builds its rows with
//! the monolithic builder ([`Topology::compute_into`] on a [`SpatialGrid`]
//! it owns, link schedule and all) and keeps only the interconnect's tick
//! (stall-onset events) and the shard spans. Per tick of a larger layout,
//! [`ShardPlane::build_into`] runs four phases:
//!
//! 1. **Owner + ghost exchange** (sequential, O(N)): every node is
//!    assigned to the shard whose tile contains it. Ownership transfers
//!    and cross-shard ghost replication are *messages* on the fallible
//!    [`Interconnect`]: migrations are unit sends with retry/backoff
//!    (the old owner retains the node meanwhile), and ghosts are staged
//!    into per-pair batches whose delivery, staleness, and recovery the
//!    interconnect arbitrates. Images into a node's own shard (periodic
//!    self-images along a torus axis of one tile) never touch the
//!    interconnect; they are in-process pushes.
//! 2. **Per-shard compute** (parallel over a scoped worker pool): each
//!    shard sweeps its frame with the workspace's one unit-disk kernel,
//!    [`FrameGrid`], writing sorted neighbor rows for its owned nodes.
//!    Shards share nothing mutable, so any worker count produces the same
//!    rows — all fault-plane decisions happen on the sequential exchange
//!    path.
//! 3. **Merge** (sequential, in id order): each shard wrote its owned
//!    rows, in ascending id order, into its own flat row store
//!    ([`NeighborRows`]); the merge copies them into the global
//!    [`Topology`]'s store node by node, reading each node's shard from
//!    the owner ledger and the shard's next row from one cursor per
//!    shard. Every store keeps its capacity, so the steady state stays
//!    allocation-free.
//! 4. **Reconciliation** (sequential, fault ticks only): when the
//!    interconnect lost, stalled, or served stale data this tick, shard
//!    views can disagree about boundary links. A symmetrization sweep
//!    drops every link the two endpoints' owners do not both see —
//!    conservative (a link requires agreement) and deterministic. On an
//!    ideal interconnect the sweep never runs and the plane is
//!    bit-identical to a plane without the message layer.
//!
//! **Bit-exactness.** Every link decision equals `Metric::within` on the
//! untranslated coordinates ([`FrameGrid::sweep`] defers borderline
//! pairs to the global metric), and the monolithic builder runs the same
//! kernel on a 1x1 frame. The whole tick — counters, events, traces — is
//! therefore bit-identical at any shard count.

use crate::interconnect::{Interconnect, InterconnectConfig};
use manet_geom::{
    ghost_margin, FrameGrid, Metric, NeighborRows, ShardDims, ShardLayout, ShardLayoutError,
    SpatialGrid, SquareRegion, Vec2,
};
use manet_sim::{FaultError, MobilityStage, Topology, TopologyBuilder, World};
use manet_stack::{ClusterStage, HelloStage, RouteStage};
use manet_telemetry::{Phase, Probe, ShardGaugeRow, ShardSnapshot, SpanLabel};
use std::time::{Duration, Instant};

/// Owner shard of a node not yet assigned (before its first tick).
const UNASSIGNED: u16 = u16::MAX;

/// The default worker pool of a plane with `shards` shards: one thread per
/// shard, capped at the host's available parallelism. A `1x1` plane thus
/// computes its topology inline on the caller's thread.
pub fn default_workers(shards: usize) -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(shards)
        .max(1)
}

/// Per-shard, per-tick statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Nodes owned by this shard this tick.
    pub owned: usize,
    /// Ghost entries replicated into this shard's frame this tick (0 on
    /// a `1x1` plane, which builds no frame).
    pub ghosts: usize,
    /// Nodes that migrated into this shard since the previous tick.
    pub migrations_in: usize,
    /// Nodes that migrated out of this shard since the previous tick.
    pub migrations_out: usize,
    /// Links discovered through a ghost entry, counted once globally at
    /// the endpoint with the smaller node id (cross-shard links and
    /// periodic wrap links). 0 on a `1x1` plane, which builds no frame
    /// and so has no boundary.
    pub boundary_links: usize,
}

/// Aggregated per-tick shard statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardReport {
    /// Shard count in the layout.
    pub shards: usize,
    /// Total ghost entries across shards.
    pub ghosts: usize,
    /// Total owner migrations since the previous tick.
    pub migrations: usize,
    /// Total boundary links (see [`ShardStats::boundary_links`]).
    pub boundary_links: usize,
    /// Smallest per-shard owned population (load-balance floor).
    pub min_owned: usize,
    /// Largest per-shard owned population (load-balance ceiling).
    pub max_owned: usize,
}

/// One shard's working state: its frame-local point set (owned prefix,
/// then ghosts), computed neighbor rows, grid scratch, and statistics.
#[derive(Debug, Default)]
struct ShardState {
    /// Global node ids, owned nodes first, then ghost entries.
    ids: Vec<u32>,
    /// Frame-local coordinates, parallel to `ids`.
    pts: Vec<Vec2>,
    /// Length of the owned prefix of `ids`/`pts`.
    owned: usize,
    /// Computed neighbor rows for the owned prefix, in its order (global
    /// ids, sorted).
    rows: NeighborRows,
    grid: FrameGrid,
    stats: ShardStats,
    /// Wall-clock measurement of this tick's `compute` call, taken on the
    /// worker thread when the probe records spans. The main thread folds
    /// it into the span recorder after the join (in shard-index order, so
    /// the record stream is deterministic and worker-count invariant).
    timed: Option<(Instant, Duration)>,
}

impl ShardState {
    /// Computes sorted neighbor rows for this shard's owned nodes.
    ///
    /// `positions` are the global coordinates: the sweep consults them
    /// only for the rare borderline pairs inside the decision band.
    fn compute(&mut self, positions: &[Vec2]) {
        self.stats.boundary_links =
            self.grid
                .sweep(&self.ids, &self.pts, self.owned, positions, &mut self.rows);
    }
}

/// The shard plane: a stage bundle for `World::step_staged`, and for a
/// `ProtocolStack` that owns it (`stack.with_stages(plane)`).
///
/// Only the topology rebuild is sharded: the mobility, HELLO, cluster and
/// route stages take their traits' sequential defaults, because a scan
/// over `0..n` needs no thread spawn and no merge (DESIGN.md §17). A
/// `1x1` plane builds its rows with the monolithic builder, so it runs
/// the same topology code as `World::step`.
#[derive(Debug)]
pub struct ShardPlane {
    layout: ShardLayout,
    region: SquareRegion,
    radius: f64,
    metric: Metric,
    workers: usize,
    shards: Vec<ShardState>,
    /// Authoritative owner shard of each node (the migration ledger).
    /// Under interconnect faults this can lag the tile assignment: a
    /// node whose migration message was lost stays owned by its old
    /// shard until the retry lands or retention becomes impossible.
    owner: Vec<u16>,
    /// The fallible message layer between shards.
    interconnect: Interconnect,
    /// Scratch: nodes retained by their old owner this tick, with their
    /// home tile and tile-local coordinates (sorted by node id).
    retained: Vec<(u32, u16, Vec2)>,
    /// Scratch: per shard, the next of its rows the merge copies.
    cursors: Vec<usize>,
    /// The monolithic builder's grid, on which a `1x1` plane builds.
    grid: SpatialGrid,
}

impl ShardPlane {
    /// A plane tiling `region` into `dims` shards for unit-disk `radius`
    /// links under `metric`, with a ghost margin one radius wide (plus a
    /// relative epsilon absorbing frame-translation rounding).
    ///
    /// # Errors
    ///
    /// Fails when a tile would be narrower than the margin (links could
    /// skip a shard) or the shard count exceeds the owner encoding.
    ///
    /// # Panics
    ///
    /// Panics if a toroidal `metric` has a different period than the
    /// region side.
    pub fn new(
        dims: ShardDims,
        region: SquareRegion,
        radius: f64,
        metric: Metric,
    ) -> Result<Self, ShardLayoutError> {
        let wrap = match metric {
            Metric::Euclidean => false,
            Metric::Toroidal { side } => {
                assert!(
                    side == region.side(),
                    "toroidal metric period {side} != region side {}",
                    region.side()
                );
                true
            }
        };
        // Margin ≥ r guarantees link capture.
        let layout = ShardLayout::new(dims, region, ghost_margin(radius), wrap)?;
        let mut shards = Vec::with_capacity(dims.count());
        for _ in 0..dims.count() {
            let mut s = ShardState::default();
            s.grid
                .configure(layout.frame_w(), layout.frame_h(), radius, metric);
            shards.push(s);
        }
        let interconnect = Interconnect::new(InterconnectConfig::default(), dims.count())
            .expect("the default interconnect config is valid");
        Ok(ShardPlane {
            layout,
            region,
            radius,
            metric,
            workers: default_workers(dims.count()),
            shards,
            owner: Vec::new(),
            interconnect,
            retained: Vec::new(),
            cursors: vec![0; dims.count()],
            grid: SpatialGrid::default(),
        })
    }

    /// A plane configured from a world's geometry, with per-shard scratch
    /// capacities pre-sized for the world's population (so the steady
    /// state is allocation-free from the first tick instead of warming up
    /// over many — pinned by this crate's `tests/alloc_free.rs`).
    pub fn for_world(world: &World, dims: ShardDims) -> Result<Self, ShardLayoutError> {
        let mut plane = ShardPlane::new(dims, world.region(), world.radius(), world.metric())?;
        plane.presize(world.node_count());
        Ok(plane)
    }

    /// Pre-sizes per-shard scratch from the expected population: each
    /// shard's point set is sized for its owned share plus the ghost
    /// margin band. Uniform placement makes `n / shards` the right
    /// first-order estimate; generous slack absorbs density fluctuations
    /// so the steady-state tick never reallocates. The row stores size
    /// themselves on the first ticks. A `1x1` plane builds no frame (its
    /// [`SpatialGrid`] sizes itself), so it reserves nothing.
    fn presize(&mut self, n: usize) {
        let shards = self.shards.len();
        if n == 0 || shards < 2 {
            return;
        }
        let density = n as f64 / (self.region.side() * self.region.side());
        // Owned share plus the margin band around the tile, then 50% slack.
        let frame_pop = density * self.layout.frame_w() * self.layout.frame_h();
        let cap = ((frame_pop * 1.5).ceil() as usize).max(16);
        for s in &mut self.shards {
            s.ids.reserve(cap);
            s.pts.reserve(cap);
            s.grid.reserve(cap);
        }
        self.owner.reserve(n);
        self.retained.reserve(64.max(n / 64));
    }

    /// Caps the worker pool at `n` threads (default: [`default_workers`]).
    /// `1` runs shards inline on the caller's thread — same rows, same
    /// merge order, no thread spawns (the configuration the
    /// allocation-free test pins).
    #[must_use]
    pub fn with_workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Replaces the interconnect with one running under `config` (the
    /// default is the ideal, loss-free interconnect).
    ///
    /// # Errors
    ///
    /// Rejects an invalid loss model or a stall schedule naming a shard
    /// outside this layout.
    pub fn with_interconnect(mut self, config: InterconnectConfig) -> Result<Self, FaultError> {
        self.interconnect = Interconnect::new(config, self.shards.len())?;
        Ok(self)
    }

    /// The shard interconnect (link health, fault statistics).
    pub fn interconnect(&self) -> &Interconnect {
        &self.interconnect
    }

    /// The worker-pool cap.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The shard layout geometry.
    pub fn layout(&self) -> &ShardLayout {
        &self.layout
    }

    /// Per-shard statistics for the most recent tick, in shard-index
    /// order.
    pub fn shard_stats(&self) -> impl ExactSizeIterator<Item = ShardStats> + '_ {
        self.shards.iter().map(|s| s.stats)
    }

    /// Aggregated statistics for the most recent tick.
    pub fn report(&self) -> ShardReport {
        let mut r = ShardReport {
            shards: self.shards.len(),
            min_owned: usize::MAX,
            ..ShardReport::default()
        };
        for s in &self.shards {
            r.ghosts += s.stats.ghosts;
            r.migrations += s.stats.migrations_in;
            r.boundary_links += s.stats.boundary_links;
            r.min_owned = r.min_owned.min(s.stats.owned);
            r.max_owned = r.max_owned.max(s.stats.owned);
        }
        if r.min_owned == usize::MAX {
            r.min_owned = 0;
        }
        r
    }

    /// A point-in-time shard + interconnect view for the Prometheus
    /// exporter (see `manet_telemetry::prometheus_text`).
    pub fn snapshot(&self) -> ShardSnapshot {
        let mut snap = ShardSnapshot::default();
        for (i, s) in self.shards.iter().enumerate() {
            snap.shards.push(ShardGaugeRow {
                shard: i as u16,
                owned: s.stats.owned as u64,
                ghosts: s.stats.ghosts as u64,
                migrations_in: s.stats.migrations_in as u64,
                migrations_out: s.stats.migrations_out as u64,
                boundary_links: s.stats.boundary_links as u64,
            });
        }
        let (up, degraded, down) = self.interconnect.links().health_counts();
        snap.links_up = up;
        snap.links_degraded = degraded;
        snap.links_down = down;
        snap.max_ghost_staleness = self.interconnect.max_staleness();
        snap
    }

    /// Phase 1: assign owners (migrations as fallible unit messages),
    /// place every node in its owner's frame, and move ghost images —
    /// in-process for a node's own shard, via the interconnect's staged
    /// batches for every other shard.
    fn exchange(&mut self, positions: &[Vec2], probe: &mut Probe<'_>, now: f64) {
        let n = positions.len();
        for s in &mut self.shards {
            s.ids.clear();
            s.pts.clear();
            s.stats.migrations_in = 0;
            s.stats.migrations_out = 0;
        }
        // A population change (only possible across reconstruction)
        // resets the ledger and interconnect rather than faking traffic.
        if self.owner.len() != n {
            self.owner.clear();
            self.owner.resize(n, UNASSIGNED);
            self.interconnect.reset();
        }
        self.interconnect.begin_tick(probe, now);

        // Ownership and owned placement, in node-id order (migration
        // channel draws interleave deterministically with ghost syncs).
        let mut retained = std::mem::take(&mut self.retained);
        retained.clear();
        for (i, &p) in positions.iter().enumerate() {
            let (tile, local) = self.layout.owner_local(p);
            let prev = self.owner[i];
            let (o, lp) = if prev == UNASSIGNED || prev as usize == tile {
                self.owner[i] = tile as u16;
                (tile, local)
            } else {
                // The node crossed into another shard's tile: ownership
                // moves only if the transfer message lands. Otherwise the
                // old owner retains it at its ghost-image coordinates —
                // possible exactly while the node is within the margin.
                let placement = image_in(&self.layout, prev, p);
                let moves = self.interconnect.migrate(
                    i as u32,
                    prev,
                    tile as u16,
                    placement.is_some(),
                    probe,
                    now,
                );
                if moves {
                    self.shards[prev as usize].stats.migrations_out += 1;
                    self.shards[tile].stats.migrations_in += 1;
                    self.owner[i] = tile as u16;
                    (tile, local)
                } else {
                    let lp = placement.expect("retained node has an image in its owner's frame");
                    retained.push((i as u32, tile as u16, local));
                    (prev as usize, lp)
                }
            };
            self.shards[o].ids.push(i as u32);
            self.shards[o].pts.push(lp);
        }
        for s in &mut self.shards {
            s.owned = s.ids.len();
            s.stats.owned = s.owned;
        }

        // Ghost images: a retained node's identity position is itself a
        // ghost for its home tile, and its first own-shard image was
        // consumed above as its owned placement.
        {
            let layout = self.layout;
            let ShardPlane {
                shards,
                owner,
                interconnect,
                ..
            } = self;
            let mut next_retained = 0usize;
            for (i, &p) in positions.iter().enumerate() {
                let o = owner[i];
                let mut skip_own_image = false;
                if let Some(&(node, tile, local)) = retained.get(next_retained) {
                    if node == i as u32 {
                        interconnect.stage(o, tile, node, local);
                        skip_own_image = true;
                        next_retained += 1;
                    }
                }
                layout.for_each_ghost_image(p, |s, lp| {
                    if s as u16 == o {
                        if skip_own_image {
                            skip_own_image = false; // the owned placement
                        } else {
                            shards[s].ids.push(i as u32);
                            shards[s].pts.push(lp);
                        }
                    } else {
                        interconnect.stage(o, s as u16, i as u32, lp);
                    }
                });
            }
        }
        self.retained = retained;

        // Deliver (or lose) this tick's batches, then consume every
        // pair's cached — possibly stale, possibly dropped — view.
        self.interconnect.sync(probe, now);
        let shards = &mut self.shards;
        self.interconnect.consume(probe, now, |dst, ids, pts| {
            let sh = &mut shards[dst as usize];
            sh.ids.extend_from_slice(ids);
            sh.pts.extend_from_slice(pts);
        });
        for s in &mut self.shards {
            s.stats.ghosts = s.ids.len() - s.owned;
        }
    }
}

impl MobilityStage for ShardPlane {}
impl HelloStage for ShardPlane {}
impl ClusterStage for ShardPlane {}
impl RouteStage for ShardPlane {}

/// First ghost image of `p` landing in `shard`, if any (the frame-local
/// placement a retaining owner uses).
fn image_in(layout: &ShardLayout, shard: u16, p: Vec2) -> Option<Vec2> {
    let mut found = None;
    layout.for_each_ghost_image(p, |s, lp| {
        if found.is_none() && s == shard as usize {
            found = Some(lp);
        }
    });
    found
}

impl TopologyBuilder for ShardPlane {
    #[allow(clippy::too_many_arguments)]
    fn build_into(
        &mut self,
        positions: &[Vec2],
        region: SquareRegion,
        radius: f64,
        metric: Metric,
        _grid: &mut Option<manet_geom::SpatialGrid>,
        out: &mut Topology,
        probe: &mut Probe<'_>,
        now: f64,
    ) {
        assert!(
            region == self.region && radius == self.radius && metric == self.metric,
            "world geometry changed under the shard plane"
        );
        if let [shard] = &mut self.shards[..] {
            // One shard: no peer to exchange with or disagree with, so the
            // monolithic builder's rows (and its link events) are exact.
            let t0 = probe.phase_start();
            self.interconnect.begin_tick(probe, now);
            probe.phase_end(Phase::ShardFlush, t0);
            let c0 = probe.is_spanning().then(Instant::now);
            out.compute_into(&mut self.grid, positions, region, radius, metric);
            if let Some(c0) = c0 {
                probe.span_sample(SpanLabel::ShardCompute, Some(0), None, c0, c0.elapsed());
            }
            let t0 = probe.phase_start();
            shard.stats = ShardStats {
                owned: positions.len(),
                ..ShardStats::default()
            };
            probe.phase_end(Phase::ShardMerge, t0);
            return;
        }
        let t0 = probe.phase_start();
        self.exchange(positions, probe, now);
        probe.phase_end(Phase::ShardFlush, t0);

        // Phase 2: per-shard neighbor rows. Shards are mutually
        // independent, so the worker split affects wall-clock only. When
        // spans are recorded each shard self-times its compute; the probe
        // is not shared across workers, so the measurements are folded in
        // afterwards.
        let record_spans = probe.is_spanning();
        let workers = self.workers.min(self.shards.len()).max(1);
        let timed_compute = |s: &mut ShardState| {
            if record_spans {
                let c0 = Instant::now();
                s.compute(positions);
                s.timed = Some((c0, c0.elapsed()));
            } else {
                s.compute(positions);
            }
        };
        if workers == 1 {
            for s in &mut self.shards {
                timed_compute(s);
            }
        } else {
            let chunk = self.shards.len().div_ceil(workers);
            let timed_compute = &timed_compute;
            std::thread::scope(|scope| {
                for group in self.shards.chunks_mut(chunk) {
                    scope.spawn(move || {
                        for s in group {
                            timed_compute(s);
                        }
                    });
                }
            });
        }
        if record_spans {
            for (i, s) in self.shards.iter_mut().enumerate() {
                if let Some((at, dur)) = s.timed.take() {
                    probe.span_sample(SpanLabel::ShardCompute, Some(i as u16), None, at, dur);
                }
            }
        }

        // Phase 3: deterministic merge in id order. Each shard's rows
        // follow its owned ids, which ascend, so node i's row is the next
        // one of its owner's store.
        let t0 = probe.phase_start();
        let rows = out.rows_to_fill();
        rows.reserve(
            positions.len(),
            self.shards.iter().map(|s| s.rows.entries()).sum(),
        );
        self.cursors.fill(0);
        for &o in &self.owner {
            let cursor = &mut self.cursors[o as usize];
            rows.push_row(self.shards[o as usize].rows.row(*cursor));
            *cursor += 1;
        }

        // Phase 4: reconciliation. Stale ghost views can produce
        // asymmetric rows (u sees v through an old cache while v's shard
        // dropped u). Under an interconnect fault this tick, keep only
        // mutually agreed links — conservative, deterministic, and a
        // no-op on the ideal path.
        if self.interconnect.fault_tick() {
            rows.retain_mutual();
        }
        probe.phase_end(Phase::ShardMerge, t0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_sim::{NodeId, QuietCtx};
    use manet_util::Rng;

    fn random_points(n: usize, side: f64, seed: u64) -> Vec<Vec2> {
        let region = SquareRegion::new(side);
        let mut rng = Rng::seed_from_u64(seed);
        (0..n).map(|_| region.sample_uniform(&mut rng)).collect()
    }

    /// The O(N²) reference rows: every ordered pair through
    /// `Metric::within`, independent of the kernel under test.
    fn brute_rows(pts: &[Vec2], radius: f64, metric: Metric) -> Vec<Vec<NodeId>> {
        (0..pts.len())
            .map(|i| {
                (0..pts.len() as NodeId)
                    .filter(|&j| j as usize != i && metric.within(pts[i], pts[j as usize], radius))
                    .collect()
            })
            .collect()
    }

    fn build(plane: &mut ShardPlane, pts: &[Vec2], radius: f64, metric: Metric) -> Topology {
        let mut topo = Topology::default();
        let mut grid = None;
        let mut probe = Probe::off();
        plane.build_into(
            pts,
            plane.region,
            radius,
            metric,
            &mut grid,
            &mut topo,
            &mut probe,
            0.0,
        );
        topo
    }

    /// Rows from the shard plane equal the monolithic rows for every
    /// layout, including self-image wrap at kx == 1 / ky == 1.
    #[test]
    fn sharded_rows_equal_monolithic_rows() {
        let (side, radius) = (400.0, 60.0);
        let region = SquareRegion::new(side);
        let metric = Metric::toroidal(side);
        let pts = random_points(300, side, 11);
        let reference = brute_rows(&pts, radius, metric);
        for dims in ["1x1", "2x2", "4x1", "1x3", "3x2"] {
            let dims = ShardDims::parse(dims).unwrap();
            let mut plane = ShardPlane::new(dims, region, radius, metric)
                .unwrap()
                .with_workers(1);
            let topo = build(&mut plane, &pts, radius, metric);
            assert_eq!(topo.len(), reference.len());
            for (i, row) in reference.iter().enumerate() {
                assert_eq!(
                    topo.neighbors(i as NodeId),
                    row,
                    "{dims}: node {i} rows diverge"
                );
            }
        }
    }

    /// Euclidean (bounded) worlds shard too: margins simply stop at the
    /// region boundary.
    #[test]
    fn bounded_metric_rows_equal_monolithic_rows() {
        let (side, radius) = (300.0, 45.0);
        let region = SquareRegion::new(side);
        let metric = Metric::Euclidean;
        let pts = random_points(200, side, 5);
        let reference = brute_rows(&pts, radius, metric);
        let dims = ShardDims::parse("3x3").unwrap();
        let mut plane = ShardPlane::new(dims, region, radius, metric)
            .unwrap()
            .with_workers(1);
        let topo = build(&mut plane, &pts, radius, metric);
        for (i, row) in reference.iter().enumerate() {
            assert_eq!(topo.neighbors(i as NodeId), row, "node {i}");
        }
    }

    /// Any worker count produces identical rows (shards share nothing).
    #[test]
    fn worker_count_does_not_change_rows() {
        let (side, radius) = (400.0, 60.0);
        let region = SquareRegion::new(side);
        let metric = Metric::toroidal(side);
        let pts = random_points(250, side, 23);
        let dims = ShardDims::parse("2x3").unwrap();
        let run = |workers| {
            let mut plane = ShardPlane::new(dims, region, radius, metric)
                .unwrap()
                .with_workers(workers);
            build(&mut plane, &pts, radius, metric)
        };
        let one = run(1);
        for workers in [2, 3, 8] {
            let multi = run(workers);
            for i in 0..pts.len() as NodeId {
                assert_eq!(one.neighbors(i), multi.neighbors(i), "workers={workers}");
            }
        }
    }

    /// Ownership partitions the population; ghost totals and migrations
    /// are consistent across a moving world.
    #[test]
    fn ownership_partitions_and_migrations_balance() {
        use manet_mobility::ConstantVelocity;
        use manet_sim::{HelloMode, MessageSizes, World};
        let side = 300.0;
        let region = SquareRegion::new(side);
        let mut rng = Rng::seed_from_u64(3);
        let mobility = ConstantVelocity::new(region, 150, 40.0, &mut rng);
        let mut world = World::new(
            Box::new(mobility),
            45.0,
            0.5,
            Metric::toroidal(side),
            HelloMode::EventDriven,
            MessageSizes::default(),
            77,
        );
        let dims = ShardDims::parse("3x2").unwrap();
        let mut plane = ShardPlane::for_world(&world, dims).unwrap().with_workers(1);
        let mut q = QuietCtx::new();
        let mut total_migrations = 0usize;
        for tick in 0..60 {
            world.step_staged(&mut q.ctx(), &mut plane);
            let owned: usize = plane.shard_stats().map(|s| s.owned).sum();
            assert_eq!(owned, 150, "tick {tick}: owners must partition the nodes");
            let inflow: usize = plane.shard_stats().map(|s| s.migrations_in).sum();
            let outflow: usize = plane.shard_stats().map(|s| s.migrations_out).sum();
            assert_eq!(inflow, outflow, "tick {tick}: migration flow imbalance");
            total_migrations += inflow;
            let r = plane.report();
            assert_eq!(r.shards, 6);
            assert_eq!(r.migrations, inflow);
            assert!(r.min_owned <= 150 / 6 && r.max_owned >= 150 / 6);
        }
        // Fast nodes on a small torus must cross tile boundaries.
        assert!(total_migrations > 0, "expected shard migrations");
    }

    /// Boundary links count each ghost-discovered link exactly once.
    #[test]
    fn boundary_links_count_cross_shard_links_once() {
        let (side, radius) = (200.0, 30.0);
        let region = SquareRegion::new(side);
        let metric = Metric::toroidal(side);
        let pts = random_points(120, side, 9);
        let dims = ShardDims::parse("2x2").unwrap();
        let mut plane = ShardPlane::new(dims, region, radius, metric)
            .unwrap()
            .with_workers(1);
        build(&mut plane, &pts, radius, metric);
        let layout = *plane.layout();
        let expected = brute_rows(&pts, radius, metric)
            .iter()
            .enumerate()
            .flat_map(|(a, row)| row.iter().map(move |&b| (a, b as usize)))
            .filter(|&(a, b)| a < b && layout.owner_of(pts[a]) != layout.owner_of(pts[b]))
            .count();
        let counted: usize = plane.shard_stats().map(|s| s.boundary_links).sum();
        // Every cross-shard link is ghost-discovered; same-shard wrap
        // links can add to the count but not with these wide tiles.
        assert_eq!(counted, expected);
        assert!(expected > 0, "test scenario should straddle shards");
    }

    #[test]
    fn too_fine_layout_is_rejected() {
        let region = SquareRegion::new(200.0);
        let err = ShardPlane::new(
            ShardDims::parse("8x8").unwrap(),
            region,
            30.0,
            Metric::toroidal(200.0),
        )
        .unwrap_err();
        assert!(matches!(err, ShardLayoutError::TileTooSmall { .. }));
    }

    /// An explicitly configured ideal interconnect is pass-through: the
    /// chaos machinery enabled but fault-free yields the monolithic rows.
    #[test]
    fn explicit_ideal_interconnect_is_pass_through() {
        let (side, radius) = (400.0, 60.0);
        let region = SquareRegion::new(side);
        let metric = Metric::toroidal(side);
        let pts = random_points(250, side, 17);
        let reference = brute_rows(&pts, radius, metric);
        let mut plane = ShardPlane::new(ShardDims::parse("2x2").unwrap(), region, radius, metric)
            .unwrap()
            .with_interconnect(InterconnectConfig::default())
            .unwrap()
            .with_workers(1);
        let topo = build(&mut plane, &pts, radius, metric);
        for (i, row) in reference.iter().enumerate() {
            assert_eq!(topo.neighbors(i as NodeId), row, "node {i}");
        }
    }

    /// Bounded staleness: while a stalled peer's ghost view is within the
    /// bound the cached rows keep boundary links alive; one tick past the
    /// bound every link into the stalled shard is dropped — conservatively
    /// and symmetrically — and no boundary link survives.
    #[test]
    fn stale_ghost_views_expire_at_the_staleness_bound() {
        use manet_sim::{StallEvent, StallSchedule};
        let (side, radius) = (400.0, 60.0);
        let region = SquareRegion::new(side);
        let metric = Metric::toroidal(side);
        let pts = random_points(250, side, 29);
        let reference = brute_rows(&pts, radius, metric);
        let dims = ShardDims::parse("2x2").unwrap();
        let max_staleness = 3u64;
        // Shard 0 freezes from tick 1 onward; everything else stays up.
        let config = InterconnectConfig {
            stall: StallSchedule::new(vec![StallEvent {
                tick: 1,
                shard: 0,
                ticks: 60,
            }]),
            max_ghost_staleness: max_staleness,
            ..InterconnectConfig::default()
        };
        let mut plane = ShardPlane::new(dims, region, radius, metric)
            .unwrap()
            .with_interconnect(config)
            .unwrap()
            .with_workers(1);
        let in_stalled: Vec<bool> = pts
            .iter()
            .map(|&p| plane.layout().owner_of(p) == 0)
            .collect();
        let crossing = |i: usize| {
            reference[i]
                .iter()
                .any(|&j| in_stalled[i] != in_stalled[j as usize])
        };
        assert!(
            (0..pts.len()).any(crossing),
            "scenario must have boundary links into the stalled shard"
        );
        // Ticks 0..=max: the cached ghost view (static points, so stale ==
        // fresh) keeps every boundary link; past the bound they all drop.
        for tick in 0..=(max_staleness + 3) {
            let topo = build(&mut plane, &pts, radius, metric);
            let expired = tick > max_staleness;
            for i in 0..pts.len() {
                let expected: Vec<NodeId> = reference[i]
                    .iter()
                    .copied()
                    .filter(|&j| !expired || in_stalled[i] == in_stalled[j as usize])
                    .collect();
                assert_eq!(
                    topo.neighbors(i as NodeId),
                    &expected[..],
                    "tick {tick}: node {i} rows diverge (expired={expired})"
                );
            }
        }
        // The stalled shard heard from no one: its ghost set is empty.
        let stats: Vec<ShardStats> = plane.shard_stats().collect();
        assert_eq!(stats[0].ghosts, 0, "stalled shard must drop all ghosts");
    }

    /// Chaos is worker-count invariant: the same seeded fault plan yields
    /// identical topologies, events, and shard stats at 1 and 4 workers.
    #[test]
    fn chaos_rows_are_worker_count_invariant() {
        use manet_mobility::ConstantVelocity;
        use manet_sim::{HelloMode, LossModel, MessageSizes, StallSchedule, World};
        let side = 300.0;
        let region = SquareRegion::new(side);
        let dims = ShardDims::parse("3x2").unwrap();
        let chaos = || InterconnectConfig {
            loss: LossModel::Bernoulli { p: 0.3 },
            stall: StallSchedule::poisson(dims.count(), 0.05, 2.0, 64, 5).unwrap(),
            seed: 13,
            max_ghost_staleness: 2,
            ..InterconnectConfig::default()
        };
        let build_world = || {
            let mut rng = Rng::seed_from_u64(3);
            let mobility = ConstantVelocity::new(region, 150, 40.0, &mut rng);
            World::new(
                Box::new(mobility),
                45.0,
                0.5,
                Metric::toroidal(side),
                HelloMode::EventDriven,
                MessageSizes::default(),
                77,
            )
        };
        let (mut wa, mut wb) = (build_world(), build_world());
        let mut pa = ShardPlane::for_world(&wa, dims)
            .unwrap()
            .with_interconnect(chaos())
            .unwrap()
            .with_workers(1);
        let mut pb = ShardPlane::for_world(&wb, dims)
            .unwrap()
            .with_interconnect(chaos())
            .unwrap()
            .with_workers(4);
        let mut qa = QuietCtx::new();
        let mut qb = QuietCtx::new();
        for tick in 0..60 {
            let a = wa.step_staged(&mut qa.ctx(), &mut pa);
            let b = wb.step_staged(&mut qb.ctx(), &mut pb);
            assert_eq!(a, b, "tick {tick}: step report diverged");
            assert_eq!(
                wa.last_events(),
                wb.last_events(),
                "tick {tick}: link events diverged"
            );
            let sa: Vec<ShardStats> = pa.shard_stats().collect();
            let sb: Vec<ShardStats> = pb.shard_stats().collect();
            assert_eq!(sa, sb, "tick {tick}: shard stats diverged");
        }
        assert_eq!(wa.topology(), wb.topology());
        assert_eq!(wa.counters(), wb.counters());
        assert!(
            pa.interconnect().migrations_lost() > 0,
            "chaos config must actually inject faults for this test to bite"
        );
        assert_eq!(
            pa.interconnect().migrations_lost(),
            pb.interconnect().migrations_lost(),
            "fault statistics must match across worker counts"
        );
    }

    /// A shard can decide a boundary link on a stale or lost ghost view
    /// while the peer shard decides it on a fresh one; on such a tick the
    /// reconciliation keeps only the links both endpoints see, so every
    /// merged row is mirrored by its partners' rows.
    #[test]
    fn faulty_ticks_merge_mirrored_rows() {
        use manet_mobility::ConstantVelocity;
        use manet_sim::{HelloMode, LossModel, MessageSizes, StallSchedule, World};
        let side = 300.0;
        let region = SquareRegion::new(side);
        let dims = ShardDims::parse("3x2").unwrap();
        let mut rng = Rng::seed_from_u64(3);
        let mobility = ConstantVelocity::new(region, 150, 40.0, &mut rng);
        let mut world = World::new(
            Box::new(mobility),
            45.0,
            0.5,
            Metric::toroidal(side),
            HelloMode::EventDriven,
            MessageSizes::default(),
            77,
        );
        let config = InterconnectConfig {
            loss: LossModel::Bernoulli { p: 0.3 },
            stall: StallSchedule::poisson(dims.count(), 0.05, 2.0, 64, 5).unwrap(),
            seed: 13,
            max_ghost_staleness: 2,
            ..InterconnectConfig::default()
        };
        let mut plane = ShardPlane::for_world(&world, dims)
            .unwrap()
            .with_interconnect(config)
            .unwrap()
            .with_workers(1);
        let mut q = QuietCtx::new();
        let mut fault_ticks = 0;
        for tick in 0..60 {
            world.step_staged(&mut q.ctx(), &mut plane);
            fault_ticks += usize::from(plane.interconnect().fault_tick());
            let topo = world.topology();
            for u in 0..topo.len() as NodeId {
                for &v in topo.neighbors(u) {
                    assert!(topo.are_linked(v, u), "tick {tick}: {u} sees {v} alone");
                }
            }
        }
        assert!(fault_ticks > 10, "only {fault_ticks} fault ticks");
    }

    /// Crash-mid-migration property: under a lossy, stalling interconnect
    /// with node churn, the ownership ledger stays an exact partition —
    /// every node (alive or crashed) is owned by exactly one shard, never
    /// double-owned, never orphaned — and migration flows stay balanced.
    #[test]
    fn crashed_node_is_never_double_owned_or_orphaned() {
        use manet_sim::{
            ChurnSchedule, FaultPlan, HelloMode, LossModel, QuietCtx, SimBuilder, StallSchedule,
        };
        for seed in [5u64, 19] {
            let n = 120;
            let churn =
                ChurnSchedule::poisson(n, 0.02, 10.0, 60.0, seed ^ 0xC).expect("valid churn rates");
            assert!(!churn.is_empty(), "seed {seed}: churn must actually fire");
            let mut world = SimBuilder::new()
                .nodes(n)
                .side(450.0)
                .radius(90.0)
                .speed(25.0)
                .dt(0.5)
                .seed(seed)
                .hello_mode(HelloMode::EventDriven)
                .fault(FaultPlan {
                    loss: LossModel::Bernoulli { p: 0.1 },
                    churn,
                    seed,
                })
                .build();
            let dims = ShardDims::parse("3x3").unwrap();
            let config = InterconnectConfig {
                loss: LossModel::Bernoulli { p: 0.4 },
                stall: StallSchedule::poisson(dims.count(), 0.05, 2.0, 130, seed).unwrap(),
                seed: seed ^ 0x1C,
                max_ghost_staleness: 2,
                ..InterconnectConfig::default()
            };
            let mut plane = ShardPlane::for_world(&world, dims)
                .unwrap()
                .with_interconnect(config)
                .unwrap()
                .with_workers(1);
            let mut q = QuietCtx::new();
            let mut owned_by = vec![0u32; n];
            let mut total_migrations = 0usize;
            for tick in 0..120 {
                world.step_staged(&mut q.ctx(), &mut plane);
                owned_by.iter_mut().for_each(|c| *c = 0);
                for s in &plane.shards {
                    for &id in &s.ids[..s.owned] {
                        owned_by[id as usize] += 1;
                    }
                }
                for (i, &count) in owned_by.iter().enumerate() {
                    assert_eq!(
                        count, 1,
                        "seed {seed} tick {tick}: node {i} owned {count} times"
                    );
                }
                let m_in: usize = plane.shard_stats().map(|s| s.migrations_in).sum();
                let m_out: usize = plane.shard_stats().map(|s| s.migrations_out).sum();
                assert_eq!(m_in, m_out, "seed {seed} tick {tick}: flow imbalance");
                total_migrations += m_in;
            }
            assert!(
                total_migrations > 50,
                "seed {seed}: only {total_migrations} migrations — under-exercised"
            );
            assert!(
                plane.interconnect().migrations_lost() > 0,
                "seed {seed}: the chaos plan never dropped a migration"
            );
        }
    }
}
