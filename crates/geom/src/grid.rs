//! The unit-disk kernel: the one piece of code that turns positions into
//! neighbor rows.
//!
//! [`FrameGrid`] works on a *frame*: a rectangle in plain Euclidean
//! coordinates holding owned items (the nodes whose rows are wanted) and
//! ghost items (images of nodes that can link to them). Each rebuild
//! copies the frame into cell order, then sweeps the owned items one row
//! at a time: three contiguous cell-row slices around the item's cell go
//! through a branch-free distance prefilter, and the few hits are decided
//! exactly (see [`FrameGrid::sweep`]).
//!
//! Two builders feed it. The shard plane (`manet-shard`) runs it once
//! per shard on the frame its ghost exchange assembled. [`SpatialGrid`]
//! runs it on a 1x1 frame: every node owned, plus its periodic
//! self-images on a torus. Both therefore produce the same rows.

use crate::metric::Metric;
use crate::region::SquareRegion;
use crate::shard::{ShardDims, ShardLayout};
use crate::vec2::Vec2;

/// Relative width of the decision band around `r²` inside which the
/// frame-local Euclidean distance defers to the global metric.
const BAND_REL: f64 = 1e-9;

/// The ghost-margin width a frame needs for radio radius `radius`: one
/// radius, plus a relative and an absolute slack that absorb the
/// ulp-level error of tile-relative offsets. A shard layout can run a
/// world exactly when its tiles are at least this wide.
pub fn ghost_margin(radius: f64) -> f64 {
    radius * (1.0 + 1e-9) + 1e-9
}

/// The capacity floor of a neighbor row: the expected unit-disk degree
/// `ρπr²` of `n` uniform nodes on a square of side `side`, doubled for
/// slack. Rows topped up to it stop growing after the first tick.
pub fn row_floor(n: usize, side: f64, radius: f64) -> usize {
    let density = n as f64 / (side * side);
    let degree = (density * std::f64::consts::PI * radius * radius * 2.0).ceil() as usize;
    degree.max(8)
}

/// A CSR cell grid over one `[0, w) × [0, h)` frame, with cells at least
/// one radius wide so every pair within the radius sits in the same or an
/// adjacent cell.
///
/// All buffers are reused across sweeps; once [`FrameGrid::reserve`] has
/// sized them for the frame, the steady state is allocation-free.
#[derive(Debug, Default)]
pub struct FrameGrid {
    ncx: usize,
    ncy: usize,
    inv_cw: f64,
    inv_ch: f64,
    radius: f64,
    metric: Option<Metric>,
    /// CSR cell boundaries: cell `c` holds sorted items
    /// `starts[c]..starts[c + 1]`.
    starts: Vec<u32>,
    /// Cell of each frame item, in frame order.
    cell_of: Vec<u32>,
    /// The frame in cell order: coordinates, global id, and frame index
    /// (the ghost flag: an index past the owned prefix marks a ghost).
    xs: Vec<f64>,
    ys: Vec<f64>,
    ids: Vec<u32>,
    slots: Vec<u32>,
    /// Prefilter hits of the current row: sorted index and squared
    /// distance. As long as the frame, so no slice can overflow it.
    hits: Vec<u32>,
    hit_d2: Vec<f64>,
}

impl FrameGrid {
    /// Sets the frame extents, the link radius (also the minimum cell
    /// size) and the metric that decides borderline pairs.
    ///
    /// # Panics
    ///
    /// Panics unless `w`, `h` and `radius` are positive and finite.
    pub fn configure(&mut self, w: f64, h: f64, radius: f64, metric: Metric) {
        assert!(
            w > 0.0 && h > 0.0 && w.is_finite() && h.is_finite(),
            "frame grid needs positive finite extents"
        );
        assert!(
            radius > 0.0 && radius.is_finite(),
            "radius must be positive and finite"
        );
        self.ncx = ((w / radius) as usize).max(1);
        self.ncy = ((h / radius) as usize).max(1);
        self.inv_cw = self.ncx as f64 / w;
        self.inv_ch = self.ncy as f64 / h;
        self.radius = radius;
        self.metric = Some(metric);
    }

    /// Sizes every per-item buffer for frames of up to `items` entries.
    pub fn reserve(&mut self, items: usize) {
        for v in [
            &mut self.cell_of,
            &mut self.ids,
            &mut self.slots,
            &mut self.hits,
        ] {
            v.reserve(items.saturating_sub(v.len()));
        }
        for v in [&mut self.xs, &mut self.ys, &mut self.hit_d2] {
            v.reserve(items.saturating_sub(v.len()));
        }
    }

    /// Cell index of a frame-local point (clamped to the frame, so
    /// rounding noise at the edges stays in range).
    fn cell(&self, p: Vec2) -> u32 {
        let cx = ((p.x * self.inv_cw) as usize).min(self.ncx - 1);
        let cy = ((p.y * self.inv_ch) as usize).min(self.ncy - 1);
        (cy * self.ncx + cx) as u32
    }

    /// Copies the frame into cell order (a stable counting sort).
    fn rebuild(&mut self, ids: &[u32], pts: &[Vec2]) {
        let ncells = self.ncx * self.ncy;
        let n = pts.len();
        self.starts.clear();
        self.starts.resize(ncells + 1, 0);
        self.cell_of.clear();
        for &p in pts {
            let c = self.cell(p);
            self.cell_of.push(c);
            self.starts[c as usize + 1] += 1;
        }
        for c in 0..ncells {
            self.starts[c + 1] += self.starts[c];
        }
        self.xs.resize(n, 0.0);
        self.ys.resize(n, 0.0);
        self.ids.resize(n, 0);
        self.slots.resize(n, 0);
        self.hits.resize(n, 0);
        self.hit_d2.resize(n, 0.0);
        // Scatter with `starts[c]` as cell c's cursor; afterwards each
        // cursor sits on the next cell's start, so shift them back.
        for (i, &c) in self.cell_of.iter().enumerate() {
            let k = self.starts[c as usize] as usize;
            self.starts[c as usize] += 1;
            self.xs[k] = pts[i].x;
            self.ys[k] = pts[i].y;
            self.ids[k] = ids[i];
            self.slots[k] = i as u32;
        }
        self.starts.copy_within(0..ncells, 1);
        self.starts[0] = 0;
    }

    /// Writes the sorted neighbor row of every owned item: `rows[k]` for
    /// frame item `k < rows.len()` (the owned prefix), in global ids.
    /// Items `rows.len()..` are ghosts. Returns the boundary-link count:
    /// links to a ghost item whose id is larger than the owned endpoint's.
    ///
    /// Each owned item scans the three cell-row slices around its cell.
    /// A branch-free prefilter `d² ≤ r² + band` collects the hits, with
    /// `band = r²·1e-9`. A hit outside the band is decided by its
    /// frame-local `d²`. Inside the band, the frame translation's
    /// rounding could flip the decision, so the global metric decides on
    /// the untranslated `positions`. Every decision thus equals
    /// `metric.within` on the original coordinates. A node never links
    /// to itself or its own images, and a link seen through two images
    /// appears once.
    ///
    /// Each row is cleared, topped up to `row_cap` capacity, filled and
    /// sorted in turn.
    ///
    /// # Panics
    ///
    /// Panics if the grid was never configured, if `ids` and `pts`
    /// differ in length, or if the owned prefix exceeds the frame.
    pub fn sweep(
        &mut self,
        ids: &[u32],
        pts: &[Vec2],
        positions: &[Vec2],
        rows: &mut [Vec<u32>],
        row_cap: usize,
    ) -> usize {
        let metric = self.metric.expect("configure the grid before sweeping");
        assert_eq!(ids.len(), pts.len(), "frame ids and points differ");
        let owned = rows.len();
        assert!(owned <= ids.len(), "owned prefix exceeds the frame");
        self.rebuild(ids, pts);
        let radius = self.radius;
        let r2 = radius * radius;
        let band = r2 * BAND_REL;
        let r2_hi = r2 + band;
        let (ncx, ncy) = (self.ncx, self.ncy);
        let FrameGrid {
            starts,
            cell_of,
            xs,
            ys,
            ids: sids,
            slots,
            hits,
            hit_d2,
            ..
        } = self;
        let mut boundary = 0;
        // Rows in frame order, so they are written (and first allocated)
        // in the order every later stage reads them.
        for (k, row) in rows.iter_mut().enumerate() {
            let c = cell_of[k] as usize;
            let (cx, cy) = (c % ncx, c / ncx);
            let (x0, x1) = (cx.saturating_sub(1), (cx + 1).min(ncx - 1));
            let (x, y, own) = (pts[k].x, pts[k].y, ids[k]);
            let mut nh = 0;
            for band_row in cy.saturating_sub(1)..=(cy + 1).min(ncy - 1) {
                let base = band_row * ncx;
                let (lo, hi) = (starts[base + x0] as usize, starts[base + x1 + 1] as usize);
                for (j, (&xj, &yj)) in xs[lo..hi].iter().zip(&ys[lo..hi]).enumerate() {
                    let (dx, dy) = (xj - x, yj - y);
                    let d2 = dx * dx + dy * dy;
                    hits[nh] = (lo + j) as u32;
                    hit_d2[nh] = d2;
                    nh += usize::from(d2 <= r2_hi);
                }
            }
            row.clear();
            if row.capacity() < row_cap {
                row.reserve(row_cap);
            }
            for (&j, &d2) in hits[..nh].iter().zip(&hit_d2[..nh]) {
                let j = j as usize;
                let id = sids[j];
                if id == own {
                    continue; // the item itself or its own image
                }
                let within = if (d2 - r2).abs() <= band {
                    metric.within(positions[own as usize], positions[id as usize], radius)
                } else {
                    d2 <= r2
                };
                if within {
                    row.push(id);
                    if slots[j] as usize >= owned && own < id {
                        boundary += 1;
                    }
                }
            }
            row.sort_unstable();
            // Narrow frames can show one neighbor through two images;
            // the link set has it once.
            row.dedup();
        }
        boundary
    }
}

/// The monolithic topology builder's frame: a 1x1 [`ShardLayout`] with
/// every node owned in id order, plus its periodic self-images on a
/// torus, swept by the shared [`FrameGrid`] kernel.
///
/// # Example
///
/// ```
/// use manet_geom::{Metric, SpatialGrid, SquareRegion, Vec2};
///
/// let region = SquareRegion::new(100.0);
/// let positions = vec![Vec2::new(1.0, 1.0), Vec2::new(3.0, 1.0), Vec2::new(60.0, 60.0)];
/// let mut rows = vec![Vec::new(); positions.len()];
/// SpatialGrid::default().neighbor_rows(&positions, region, 5.0, Metric::Euclidean, &mut rows);
/// assert_eq!(rows, vec![vec![1], vec![0], vec![]]);
/// ```
#[derive(Debug, Default)]
pub struct SpatialGrid {
    /// Global ids of the frame items: `0..n` owned, then images.
    ids: Vec<u32>,
    /// Frame-local coordinates, parallel to `ids`.
    pts: Vec<Vec2>,
    kernel: FrameGrid,
}

impl SpatialGrid {
    /// Writes into `rows[i]` the sorted ids of every node within `radius`
    /// of node `i` under `metric`, reusing this grid's buffers and the
    /// rows' capacities.
    ///
    /// Positions must lie inside the region (wrap them first for a
    /// torus). Any radius works, including one wider than the region.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is not positive and finite, if `rows` and
    /// `positions` differ in length, if more than `u32::MAX` positions
    /// are given, or if a toroidal metric's period differs from the
    /// region side.
    pub fn neighbor_rows(
        &mut self,
        positions: &[Vec2],
        region: SquareRegion,
        radius: f64,
        metric: Metric,
        rows: &mut [Vec<u32>],
    ) {
        assert!(
            radius > 0.0 && radius.is_finite(),
            "radius must be positive and finite"
        );
        assert_eq!(rows.len(), positions.len(), "one row per position");
        assert!(positions.len() <= u32::MAX as usize, "too many positions");
        let side = region.side();
        let wrap = match metric {
            Metric::Euclidean => false,
            Metric::Toroidal { side: period } => {
                assert!(
                    period == side,
                    "toroidal metric period {period} != region side {side}"
                );
                true
            }
        };
        // One radius of margin, capped at the side: a link's nearest
        // image is at most side/2 away per axis, so a side-wide margin
        // captures every link even when the radius exceeds the side.
        let margin = ghost_margin(radius).min(side);
        let layout = ShardLayout::new(ShardDims::unit(), region, margin, wrap)
            .expect("a 1x1 layout whose margin is at most the side is valid");
        let (w, h) = (layout.frame_w(), layout.frame_h());
        self.kernel.configure(w, h, radius, metric);
        let n = positions.len();
        let images = if wrap { w * h / (side * side) } else { 1.0 };
        let frame_cap = ((n as f64 * images * 1.5).ceil() as usize).max(16);
        self.ids.clear();
        self.pts.clear();
        self.ids.reserve(frame_cap);
        self.pts.reserve(frame_cap);
        self.kernel.reserve(frame_cap);
        for (i, &p) in positions.iter().enumerate() {
            debug_assert!(region.contains(p), "position {p} outside region");
            self.ids.push(i as u32);
            self.pts.push(layout.owner_local(p).1);
        }
        for (i, &p) in positions.iter().enumerate() {
            layout.for_each_ghost_image(p, |_, lp| {
                self.ids.push(i as u32);
                self.pts.push(lp);
            });
        }
        self.kernel.sweep(
            &self.ids,
            &self.pts,
            positions,
            rows,
            row_floor(n, side, radius),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_util::Rng;

    fn random_positions(n: usize, side: f64, seed: u64) -> Vec<Vec2> {
        let region = SquareRegion::new(side);
        let mut rng = Rng::seed_from_u64(seed);
        (0..n).map(|_| region.sample_uniform(&mut rng)).collect()
    }

    /// The O(N²) reference: every ordered pair through `Metric::within`.
    fn brute_rows(positions: &[Vec2], radius: f64, metric: Metric) -> Vec<Vec<u32>> {
        (0..positions.len())
            .map(|i| {
                (0..positions.len() as u32)
                    .filter(|&j| {
                        j as usize != i
                            && metric.within(positions[i], positions[j as usize], radius)
                    })
                    .collect()
            })
            .collect()
    }

    fn rows_of(
        grid: &mut SpatialGrid,
        positions: &[Vec2],
        side: f64,
        radius: f64,
        metric: Metric,
    ) -> Vec<Vec<u32>> {
        // Dirty rows: the kernel must overwrite whatever they held.
        let mut rows = vec![vec![u32::MAX; 3]; positions.len()];
        grid.neighbor_rows(
            positions,
            SquareRegion::new(side),
            radius,
            metric,
            &mut rows,
        );
        rows
    }

    #[test]
    fn matches_brute_force_euclidean() {
        let side = 100.0;
        let positions = random_positions(200, side, 42);
        // 150 > side: the whole bounded square is one neighborhood.
        for radius in [3.0, 17.0, 60.0, 150.0] {
            let rows = rows_of(
                &mut SpatialGrid::default(),
                &positions,
                side,
                radius,
                Metric::Euclidean,
            );
            assert_eq!(
                rows,
                brute_rows(&positions, radius, Metric::Euclidean),
                "radius {radius}"
            );
        }
    }

    #[test]
    fn matches_brute_force_toroidal() {
        let side = 50.0;
        let positions = random_positions(150, side, 7);
        // 30 > side/2 and 60 > side: several images of a node can lie
        // within range of another; each link still appears once.
        for radius in [2.0, 9.0, 20.0, 30.0, 60.0] {
            let metric = Metric::toroidal(side);
            let rows = rows_of(
                &mut SpatialGrid::default(),
                &positions,
                side,
                radius,
                metric,
            );
            assert_eq!(
                rows,
                brute_rows(&positions, radius, metric),
                "radius {radius}"
            );
        }
    }

    #[test]
    fn radius_larger_than_region_links_everything() {
        let side = 5.0;
        let positions = random_positions(20, side, 4);
        for metric in [Metric::Euclidean, Metric::toroidal(side)] {
            let rows = rows_of(&mut SpatialGrid::default(), &positions, side, 50.0, metric);
            for (i, row) in rows.iter().enumerate() {
                let all: Vec<u32> = (0..20).filter(|&j| j != i as u32).collect();
                assert_eq!(row, &all, "{metric:?} node {i}");
            }
        }
    }

    #[test]
    fn rebuild_matches_fresh_build_across_parameter_changes() {
        let mut grid = SpatialGrid::default();
        // Same shape, changed radius (cell count changes), changed region
        // and metric: each reused sweep equals a fresh grid and the
        // brute-force rows.
        for (n, side, radius, metric, seed) in [
            (120, 100.0, 9.0, Metric::Euclidean, 11u64),
            (120, 100.0, 31.0, Metric::Euclidean, 12),
            (60, 40.0, 7.0, Metric::toroidal(40.0), 13),
            (200, 40.0, 3.0, Metric::toroidal(40.0), 14),
            (30, 40.0, 25.0, Metric::toroidal(40.0), 15),
        ] {
            let positions = random_positions(n, side, seed);
            let reused = rows_of(&mut grid, &positions, side, radius, metric);
            let fresh = rows_of(
                &mut SpatialGrid::default(),
                &positions,
                side,
                radius,
                metric,
            );
            assert_eq!(reused, fresh, "seed {seed}");
            assert_eq!(
                reused,
                brute_rows(&positions, radius, metric),
                "seed {seed}"
            );
        }
    }

    /// Two nodes 0.2 m apart on a 1000 m torus at r = 0.2 − 1 ulp: the
    /// link sits inside the decision band, and the global metric must
    /// give both endpoints the same answer.
    #[test]
    fn borderline_torus_link_is_symmetric() {
        let side = 1000.0;
        let positions = [Vec2::new(0.1, 0.0), Vec2::new(0.3, 0.0)];
        let rows = rows_of(
            &mut SpatialGrid::default(),
            &positions,
            side,
            0.19999999999999998,
            Metric::toroidal(side),
        );
        assert_eq!(rows, vec![vec![1], vec![0]]);
    }

    #[test]
    fn empty_grid_is_fine() {
        let rows = rows_of(
            &mut SpatialGrid::default(),
            &[],
            10.0,
            2.0,
            Metric::Euclidean,
        );
        assert!(rows.is_empty());
    }

    #[test]
    #[should_panic(expected = "radius")]
    fn zero_radius_panics() {
        rows_of(
            &mut SpatialGrid::default(),
            &[],
            10.0,
            0.0,
            Metric::Euclidean,
        );
    }

    /// The kernel on a hand-built frame: a ghost image links to an owned
    /// item and counts as a boundary link; ghost–ghost pairs get no row.
    #[test]
    fn frame_sweep_writes_owned_rows_and_counts_boundary_links() {
        let positions = [
            Vec2::new(1.0, 1.0),
            Vec2::new(2.0, 1.0),
            Vec2::new(9.0, 9.0),
            Vec2::new(8.5, 9.0),
        ];
        // Frame-local coordinates: 0 and 1 owned, 2 and 3 as ghosts near
        // them (their translated images).
        let ids = [0, 1, 2, 3];
        let pts = [
            Vec2::new(1.0, 1.0),
            Vec2::new(2.0, 1.0),
            Vec2::new(2.5, 1.5),
            Vec2::new(2.6, 1.5),
        ];
        let mut grid = FrameGrid::default();
        grid.configure(10.0, 6.0, 1.5, Metric::Euclidean);
        let mut rows = vec![Vec::new(); 2];
        let boundary = grid.sweep(&ids, &pts, &positions, &mut rows, 4);
        assert_eq!(rows, vec![vec![1], vec![0, 2, 3]]);
        assert_eq!(boundary, 2);
        assert!(rows.iter().all(|r| r.capacity() >= 4));
    }

    /// Inside the band the frame-local `d²` (here perturbed on purpose,
    /// as a translation's rounding would) does not decide: the global
    /// metric on the untranslated positions does.
    #[test]
    fn band_pairs_defer_to_the_global_metric() {
        // Node 1 sits exactly at r globally; node 2 just past it.
        let positions = [
            Vec2::new(0.0, 0.0),
            Vec2::new(1.0, 0.0),
            Vec2::new(0.0, 1.000_000_000_4),
        ];
        // Locally node 1 reads just past r and node 2 just inside it.
        let pts = [
            Vec2::new(0.0, 0.0),
            Vec2::new(1.000_000_000_1, 0.0),
            Vec2::new(0.0, 0.999_999_999_8),
        ];
        let mut grid = FrameGrid::default();
        grid.configure(10.0, 10.0, 1.0, Metric::Euclidean);
        let mut rows = vec![Vec::new(); 3];
        grid.sweep(&[0, 1, 2], &pts, &positions, &mut rows, 4);
        assert_eq!(rows, vec![vec![1], vec![0], vec![]]);
    }

    #[test]
    #[should_panic(expected = "positive finite")]
    fn zero_extent_is_rejected() {
        FrameGrid::default().configure(0.0, 1.0, 1.0, Metric::Euclidean);
    }
}
