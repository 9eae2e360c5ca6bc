//! The unit-disk kernel: the one piece of code that turns positions into
//! neighbor rows.
//!
//! [`FrameGrid`] works on a *frame*: a rectangle in plain Euclidean
//! coordinates holding owned items (the nodes whose rows are wanted) and
//! ghost items (images of nodes that can link to them). A sweep copies
//! the frame into cell order, then visits the owned items one row at a
//! time: three contiguous cell-row slices around the item's cell go
//! through a branch-free distance prefilter, and the few hits are decided
//! exactly (see [`FrameGrid::sweep`]).
//!
//! [`SpatialGrid`], the monolithic builder, owns every node in id order
//! and rebuilds from each call's positions, so it can instead keep a
//! *link schedule*: every candidate pair within `r + s` (skin
//! `s = 0.2·r`), once, in its smaller id's list, with the drift before
//! which it cannot flip. Each call re-tests only the pairs that are due
//! and rebuilds a rotating slice of the lists; the flips edit the
//! kernel's own sorted rows, which are copied out, and are kept, sorted,
//! as the call's link changes (see [`FrameGrid::advance`] and
//! [`FrameGrid::flips`]).
//!
//! Two builders feed it. [`SpatialGrid`] runs it on a 1x1 frame: every
//! node owned, plus its periodic self-images on a torus, or the link
//! schedule. The shard plane (`manet-shard`) builds a one-shard layout
//! through [`SpatialGrid`] and sweeps each shard of a larger layout on
//! the frame its ghost exchange assembled. Both therefore produce the
//! same rows.

use crate::metric::{fold, Metric};
use crate::region::SquareRegion;
use crate::rows::NeighborRows;
use crate::shard::{ShardDims, ShardLayout};
use crate::vec2::Vec2;

/// Relative width of the decision band around `r²` inside which the
/// frame-local Euclidean distance defers to the global metric.
const BAND_REL: f64 = 1e-9;

/// The Verlet skin `s` relative to the radius: a candidate list holds
/// every item within `r + s`, so it keeps every link until some node has
/// moved `s/2` since the list was built.
const SKIN_REL: f64 = 0.2;

/// The share of the skin a list's drift budget leaves unused, and of the
/// radius a pair's flip bound leaves unused, absorbing the rounding of
/// frame-local coordinates, distances and the measured steps.
const SLACK_REL: f64 = 1e-6;

/// The shortest rotation period worth keeping lists for: `P = 4`, lists
/// that live three calls. Below it a third or more of the lists rebuild
/// every call, and lists of that life measured no faster than the plain
/// sweep at N = 100 000.
const MIN_PERIOD: u64 = 4;

/// The ghost-margin width a frame needs for radio radius `radius`: one
/// radius, plus a relative and an absolute slack that absorb the
/// ulp-level error of tile-relative offsets. A shard layout can run a
/// world exactly when its tiles are at least this wide.
pub fn ghost_margin(radius: f64) -> f64 {
    radius * (1.0 + 1e-9) + 1e-9
}

/// The capacity floor of a link-schedule list or row: the expected
/// unit-disk degree `ρπr²` of `n` uniform nodes on `area`, doubled for
/// slack. Rows created at it stop growing after the first tick.
fn row_floor(n: usize, area: f64, radius: f64) -> usize {
    let density = n as f64 / area;
    let degree = (density * std::f64::consts::PI * radius * radius * 2.0).ceil() as usize;
    degree.max(8)
}

/// The reach `r + s` of the candidate lists for radius `radius` on a
/// square of side `side`, or `None` when lists do not apply: from
/// `r + s ≥ side/2` on, a list holds nearly every node, and on a torus a
/// node could show through two images.
pub fn candidate_reach(radius: f64, side: f64) -> Option<f64> {
    let reach = reach(radius);
    (reach < side * 0.5).then_some(reach)
}

/// The reach `r + s` of a candidate list.
fn reach(radius: f64) -> f64 {
    radius + radius * SKIN_REL
}

/// `x ≥ 0` as an `f32` not above it, branch-free: shrunk by `2⁻²³`
/// first, more than the `2⁻²⁴` a conversion can round up (below `f32`'s
/// normal range the error is absolute, ~10⁻⁴⁵, inside the slack).
fn f32_down(x: f64) -> f32 {
    (x * (1.0 - F32_EPS)) as f32
}

/// `x ≥ 0` as an `f32` not below it (see [`f32_down`]).
fn f32_up(x: f64) -> f32 {
    (x * (1.0 + F32_EPS)) as f32
}

/// Twice `f32`'s relative rounding bound.
const F32_EPS: f64 = f32::EPSILON as f64;

/// The frame in cell order over a rectangular CSR cell grid whose cells
/// are at least one sweep reach wide, so every pair within the reach
/// sits in the same or an adjacent cell. A *wrapping* grid tiles a torus
/// square: the cells past one edge are those at the other.
#[derive(Debug, Default)]
struct CellFrame {
    ncx: usize,
    ncy: usize,
    inv_cw: f64,
    inv_ch: f64,
    /// The torus side a wrapping grid tiles (`None`: no wrap).
    wrap: Option<f64>,
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
}

impl CellFrame {
    /// Sizes the cells of a `w × h` frame for pairs within `reach`.
    fn set_cells(&mut self, w: f64, h: f64, reach: f64, wrap: Option<f64>) {
        self.ncx = ((w / reach) as usize).max(1);
        self.ncy = ((h / reach) as usize).max(1);
        self.inv_cw = self.ncx as f64 / w;
        self.inv_ch = self.ncy as f64 / h;
        self.wrap = wrap;
    }

    /// Cell index of a frame-local point (clamped to the frame, so
    /// rounding noise at the edges stays in range).
    fn cell(&self, p: Vec2) -> u32 {
        let cx = ((p.x * self.inv_cw) as usize).min(self.ncx - 1);
        let cy = ((p.y * self.inv_ch) as usize).min(self.ncy - 1);
        (cy * self.ncx + cx) as u32
    }

    /// Copies the frame into cell order (a stable counting sort); without
    /// `ids`, item `i` has id `i`.
    fn rebuild(&mut self, ids: Option<&[u32]>, pts: &[Vec2]) {
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
        // Scatter with `starts[c]` as cell c's cursor; afterwards each
        // cursor sits on the next cell's start, so shift them back.
        for (i, &c) in self.cell_of.iter().enumerate() {
            let k = self.starts[c as usize] as usize;
            self.starts[c as usize] += 1;
            self.xs[k] = pts[i].x;
            self.ys[k] = pts[i].y;
            self.ids[k] = ids.map_or(i as u32, |ids| ids[i]);
            self.slots[k] = i as u32;
        }
        self.starts.copy_within(0..ncells, 1);
        self.starts[0] = 0;
    }

    /// The sorted-item ranges of the three cell-row slices around frame
    /// item `k`'s cell (on a non-wrapping grid).
    fn slices(&self, k: usize) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
        let ncx = self.ncx;
        let c = self.cell_of[k] as usize;
        let (cx, cy) = (c % ncx, c / ncx);
        let (x0, x1) = (cx.saturating_sub(1), (cx + 1).min(ncx - 1));
        (cy.saturating_sub(1)..=(cy + 1).min(self.ncy - 1)).map(move |band_row| {
            let base = band_row * ncx;
            self.starts[base + x0] as usize..self.starts[base + x1 + 1] as usize
        })
    }

    /// The cell spans `(first, last, shift)` of one axis around cell
    /// `c` of `nc` on a wrapping grid over `side`: up to three cells, each
    /// once, with the shift that brings cell `c`'s items next to a span
    /// across the seam. A grid under three cells wide scans every cell,
    /// unshifted.
    fn wrap_spans(c: usize, nc: usize, side: f64) -> ([(usize, usize, f64); 2], usize) {
        match c {
            _ if nc < 3 => ([(0, nc - 1, 0.0); 2], 1),
            0 => ([(0, 1, 0.0), (nc - 1, nc - 1, side)], 2),
            c if c == nc - 1 => ([(c - 1, c, 0.0), (0, 0, -side)], 2),
            c => ([(c - 1, c + 1, 0.0); 2], 1),
        }
    }

    /// Collects into `hits` (sorted index) and `hit_d2` (frame-local
    /// squared distance) every item with `d² ≤ lim` from frame item `k`
    /// at `p`, through a branch-free prefilter. Returns the hit count.
    fn scan(&self, k: usize, p: Vec2, lim: f64, hits: &mut [u32], hit_d2: &mut [f64]) -> usize {
        let mut nh = 0;
        for range in self.slices(k) {
            let lo = range.start;
            for (j, (&xj, &yj)) in self.xs[range.clone()]
                .iter()
                .zip(&self.ys[range])
                .enumerate()
            {
                let (dx, dy) = (xj - p.x, yj - p.y);
                let d2 = dx * dx + dy * dy;
                hits[nh] = (lo + j) as u32;
                hit_d2[nh] = d2;
                nh += usize::from(d2 <= lim);
            }
        }
        nh
    }

    /// Collects into `out` the id, above `above`, of every item within
    /// `√lim` of item `k` at `p` (the candidate scan: a branch-free
    /// Euclidean prefilter decides). On a wrapping grid over `side` a
    /// span across the seam is scanned with `p` shifted by the side; a
    /// grid under three cells wide folds every difference instead.
    /// Returns the hit count.
    fn scan_ids(&self, k: usize, p: Vec2, lim: f64, above: u32, out: &mut [u32]) -> usize {
        let mut nh = 0;
        let mut scan = |range: std::ops::Range<usize>, q: Vec2, fold_side: Option<f64>| {
            let (xs, ys, ids) = (
                &self.xs[range.clone()],
                &self.ys[range.clone()],
                &self.ids[range],
            );
            if let Some(side) = fold_side {
                for ((&xj, &yj), &id) in xs.iter().zip(ys).zip(ids) {
                    let (dx, dy) = (fold((q.x - xj).abs(), side), fold((q.y - yj).abs(), side));
                    out[nh] = id;
                    nh += usize::from((dx * dx + dy * dy <= lim) & (id > above));
                }
                return;
            }
            for ((&xj, &yj), &id) in xs.iter().zip(ys).zip(ids) {
                let (dx, dy) = (q.x - xj, q.y - yj);
                out[nh] = id;
                nh += usize::from((dx * dx + dy * dy <= lim) & (id > above));
            }
        };
        let Some(side) = self.wrap else {
            for range in self.slices(k) {
                scan(range, p, None);
            }
            return nh;
        };
        let ncx = self.ncx;
        let c = self.cell_of[k] as usize;
        let (xs, nxs) = Self::wrap_spans(c % ncx, ncx, side);
        let (ys, nys) = Self::wrap_spans(c / ncx, self.ncy, side);
        let fold_side = (self.ncx < 3 || self.ncy < 3).then_some(side);
        for &(y0, y1, sy) in &ys[..nys] {
            for row in y0..=y1 {
                let base = row * ncx;
                for &(x0, x1, sx) in &xs[..nxs] {
                    let range =
                        self.starts[base + x0] as usize..self.starts[base + x1 + 1] as usize;
                    scan(range, Vec2::new(p.x + sx, p.y + sy), fold_side);
                }
            }
        }
        nh
    }
}

/// A link that the latest link-schedule call added or removed, between
/// the nodes `a < b` (see [`FrameGrid::flips`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkFlip {
    /// The smaller id.
    pub a: u32,
    /// The larger id.
    pub b: u32,
    /// Whether the link now exists (`false`: it broke).
    pub up: bool,
}

/// A pair's *due* `d ≥ 0` (the drift past its list's build before which
/// it cannot flip) with its link state in the sign bit: negative while
/// the pair is linked. `code.abs()` reads the due back.
fn due_code(due: f32, linked: bool) -> f32 {
    f32::from_bits(due.to_bits() | u32::from(linked) << 31)
}

/// Appends `flip` to `flips`, keeping the flips from `from` on (the
/// current node's, all with `flip.a`) sorted by `b`.
fn push_flip(flips: &mut Vec<LinkFlip>, from: usize, flip: LinkFlip) {
    flips.push(flip);
    let mut i = flips.len() - 1;
    while i > from && flips[i - 1].b > flip.b {
        flips[i] = flips[i - 1];
        i -= 1;
    }
    flips[i] = flip;
}

/// The link schedule of [`FrameGrid::verlet_rows`]: the positions of
/// the previous [`FrameGrid::advance`], the drift since the history
/// began, one candidate list per node, and the rows the lists' link
/// states spell out.
#[derive(Debug, Default)]
struct Schedule {
    /// Global positions at the previous `advance` (empty: no history).
    prev: Vec<Vec2>,
    /// The sum of every `advance`'s largest per-node step, rounded up:
    /// no node has moved farther than `drift − d` since it read `d`.
    drift: f64,
    /// `advance` calls so far: the phase of the rotation.
    calls: u64,
    /// Per node: its partners, the larger ids within `r + s` at its
    /// list's build, in scan order.
    lists: Vec<Vec<u32>>,
    /// Per node, parallel to `lists`: each pair's due and link state
    /// ([`due_code`]), 4 bytes, so a pair takes 8.
    dues: Vec<Vec<f32>>,
    /// Per node: the drift at its list's build.
    built: Vec<f64>,
    /// Per node: the drift past which its list may miss a link (`−∞`
    /// when it holds none).
    expires: Vec<f64>,
    /// Per node: the sorted row of the last call that ran the schedule.
    rows: Vec<Vec<u32>>,
    /// Whether the lists and `rows` hold a schedule (false until the
    /// first call with history builds every list, and after `forget`).
    live: bool,
    /// Whether the latest call wrote its rows from the schedule.
    wrote: bool,
    /// Per node: the rebuild epoch that marked it as a linked partner.
    marks: Vec<u32>,
    epoch: u32,
    /// The latest call's flips, sorted by `(a, b)`.
    flips: Vec<LinkFlip>,
    /// The buffer `flips` is merged into.
    merged: Vec<LinkFlip>,
    /// The caller's tag for the latest call's rows (0: none).
    tag: u64,
    /// The tag of the rows the flips lead from (0: they lead from no
    /// tagged output).
    base: u64,
    /// Capacity of a list holding every candidate within `r + s` (a
    /// [`row_floor`] at that reach). A node's list keeps only its pairs
    /// with larger ids, so it is created, by the first call that builds
    /// it, at the matching share of `cap`.
    cap: usize,
}

impl Schedule {
    /// Drops the history and the schedule.
    fn forget(&mut self) {
        self.prev.clear();
        self.drift = 0.0;
        self.expires.fill(f64::NEG_INFINITY);
        self.live = false;
    }

    /// Sizes the per-node state for `n` nodes; new nodes hold no list.
    /// Node `k`'s list holds only larger ids, so it gets the share
    /// `(n − 1 − k)/(n − 1)` of the full capacity, plus a floor.
    fn fit(&mut self, n: usize) {
        if self.lists.len() < n {
            let span = n.max(2) - 1;
            for k in self.lists.len()..n {
                let cap = (self.cap * (span - k.min(span))).div_ceil(span) + 8;
                self.lists.push(Vec::with_capacity(cap));
                self.dues.push(Vec::with_capacity(cap));
            }
            self.built.resize(n, 0.0);
            self.expires.resize(n, f64::NEG_INFINITY);
            self.rows.resize_with(n, Vec::new);
            self.marks.resize(n, 0);
            self.flips.reserve(n);
            self.merged.reserve(n);
        }
    }
}

/// Inserts (`up`) or removes `id` in the sorted `row`.
fn edit_row(row: &mut Vec<u32>, id: u32, up: bool) {
    let at = row.partition_point(|&x| x < id);
    if up {
        debug_assert_ne!(row.get(at), Some(&id), "flip adds a present link");
        row.insert(at, id);
    } else {
        debug_assert_eq!(row.get(at), Some(&id), "flip removes an absent link");
        row.remove(at);
    }
}

/// The unit-disk kernel over one `[0, w) × [0, h)` frame (see the module
/// docs).
///
/// All buffers are reused across sweeps; once [`FrameGrid::reserve`] has
/// sized them for the frame, the steady state is allocation-free (a
/// [`SpatialGrid`] sizes its link schedule itself).
///
/// A caller that keeps its rows in a versioned container (a `Topology`)
/// can tag each call's output ([`FrameGrid::tag_output`]); a call that
/// ran the schedule right after one whose rows were tagged then records
/// its flips against that tag ([`FrameGrid::flips`]), so the container
/// can carry them as the link events from its predecessor.
#[derive(Debug, Default)]
pub struct FrameGrid {
    w: f64,
    h: f64,
    radius: f64,
    metric: Option<Metric>,
    frame: CellFrame,
    /// Prefilter hits of the current row: sorted index and squared
    /// distance; the schedule reuses `hits` for candidate ids and due
    /// pairs. As long as the frame, so no slice can overflow it.
    hits: Vec<u32>,
    hit_d2: Vec<f64>,
    verlet: Schedule,
}

impl FrameGrid {
    /// Sets the frame extents, the link radius and the metric that
    /// decides borderline pairs. Each sweep sizes its cells for its own
    /// reach (`r`, or `r + s` for candidate lists). A changed radius or
    /// metric drops the schedule's history.
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
        if radius != self.radius || Some(metric) != self.metric {
            self.verlet.forget();
        }
        self.w = w;
        self.h = h;
        self.radius = radius;
        self.metric = Some(metric);
    }

    /// Sizes every per-item buffer for frames of up to `items` entries.
    pub fn reserve(&mut self, items: usize) {
        let f = &mut self.frame;
        for v in [&mut f.cell_of, &mut f.ids, &mut f.slots, &mut self.hits] {
            v.reserve(items.saturating_sub(v.len()));
        }
        for v in [&mut f.xs, &mut f.ys, &mut self.hit_d2] {
            v.reserve(items.saturating_sub(v.len()));
        }
    }

    /// The link flips of the latest call, sorted by `(a, b)`, with the
    /// tag of the rows they lead from: `Some` only when that call ran the
    /// schedule, and the call before it did too and had its rows tagged
    /// ([`FrameGrid::tag_output`]). Applied to those rows, the flips give
    /// the latest call's rows.
    pub fn flips(&self) -> Option<(u64, &[LinkFlip])> {
        let v = &self.verlet;
        (v.base != 0).then_some((v.base, &v.flips[..]))
    }

    /// Tags the rows the latest call wrote, so that the next call's flips
    /// can name them (`0` leaves them untagged). A caller tags only rows
    /// it keeps exactly as written.
    pub fn tag_output(&mut self, tag: u64) {
        self.verlet.tag = tag;
    }

    /// Cell-sorts the frame for sweeps within `reach` and sizes the hit
    /// buffers to it.
    fn bin(&mut self, ids: &[u32], pts: &[Vec2], reach: f64) {
        self.frame.set_cells(self.w, self.h, reach, None);
        self.frame.rebuild(Some(ids), pts);
        self.hits.resize(pts.len(), 0);
        self.hit_d2.resize(pts.len(), 0.0);
    }

    /// Replaces `rows` with the sorted neighbor row of every owned item:
    /// row `k` for frame item `k < owned` (the owned prefix), in global
    /// ids. Items `owned..` are ghosts. Returns the boundary-link count:
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
    /// Each row is appended to the store in owned order, then sorted and
    /// deduplicated in place. The call records no flips.
    ///
    /// # Panics
    ///
    /// Panics if the grid was never configured, if `ids` and `pts`
    /// differ in length, or if the owned prefix exceeds the frame.
    pub fn sweep(
        &mut self,
        ids: &[u32],
        pts: &[Vec2],
        owned: usize,
        positions: &[Vec2],
        rows: &mut NeighborRows,
    ) -> usize {
        let metric = self.metric.expect("configure the grid before sweeping");
        assert_eq!(ids.len(), pts.len(), "frame ids and points differ");
        assert!(owned <= ids.len(), "owned prefix exceeds the frame");
        let v = &mut self.verlet;
        (v.wrote, v.tag, v.base) = (false, 0, 0);
        let radius = self.radius;
        self.bin(ids, pts, radius);
        let r2 = radius * radius;
        let band = r2 * BAND_REL;
        let FrameGrid {
            frame,
            hits,
            hit_d2,
            ..
        } = self;
        let mut boundary = 0;
        // The previous fill sizes this one; a first fill, the frame's
        // density (every item, owned or ghost, is a possible neighbor).
        let hint = match rows.entries() {
            0 => {
                let density = ids.len() as f64 / (self.w * self.h);
                (owned as f64 * density * std::f64::consts::PI * r2) as usize
            }
            e => e,
        };
        rows.clear();
        rows.reserve(owned, hint);
        for k in 0..owned {
            let own = ids[k];
            let nh = frame.scan(k, pts[k], r2 + band, hits, hit_d2);
            rows.reserve(1, nh);
            for (&j, &d2) in hits[..nh].iter().zip(&hit_d2[..nh]) {
                let j = j as usize;
                let id = frame.ids[j];
                if id == own {
                    continue; // the item itself or its own image
                }
                let within = if (d2 - r2).abs() <= band {
                    metric.within(positions[own as usize], positions[id as usize], radius)
                } else {
                    d2 <= r2
                };
                if within {
                    rows.push(id);
                    if frame.slots[j] as usize >= owned && own < id {
                        boundary += 1;
                    }
                }
            }
            // Narrow frames can show one neighbor through two images;
            // the link set has it once.
            rows.close_sorted_row();
        }
        boundary
    }

    /// Opens a link-schedule call: measures the largest step, under the
    /// metric, of any of the `positions` since the previous call, adds it
    /// to the drift, and returns the rotation period for the schedule
    /// [`SpatialGrid`] runs: one more than a list's *lifetime*
    /// `L = ⌊(s/2)(1 − 10⁻⁶) / step⌋`, the calls after its build through
    /// which a list stays valid at this step. A list rebuilt by the
    /// rotation is thus rebuilt again on the call its drift budget runs
    /// out, whether the step is `v·dt` exactly or, as measured, a hair
    /// above it.
    ///
    /// Returns `None` when this call must run [`FrameGrid::sweep`]
    /// instead: on the first call, after a change of node count, radius
    /// or metric, on a non-finite step or a position outside the torus
    /// square, and when `P < 4` (lists that live two calls or less would
    /// rebuild a third of the lists or more every call). All but the
    /// last drop the schedule. A call with `P < 4` keeps it: the drift
    /// still grows, so every list and every pair's due stays a sound
    /// bound for the next call that runs the schedule.
    ///
    /// # Panics
    ///
    /// Panics if the grid was never configured.
    pub fn advance(&mut self, positions: &[Vec2]) -> Option<u64> {
        let metric = self.metric.expect("configure the grid before advancing");
        let v = &mut self.verlet;
        v.calls += 1;
        if v.prev.len() != positions.len() {
            v.forget();
            v.prev.extend_from_slice(positions);
            return None;
        }
        // NaN sticks, so a non-finite position cannot hide a step. The
        // torus re-test folds differences without range reduction, so it
        // needs every position inside the square.
        let side = match metric {
            Metric::Euclidean => f64::INFINITY,
            Metric::Toroidal { side } => side,
        };
        let mut max_d2 = 0.0f64;
        let mut inside = true;
        for (p, &q) in v.prev.iter_mut().zip(positions) {
            let d2 = metric.distance_sq(*p, q);
            if d2 > max_d2 || d2.is_nan() {
                max_d2 = d2;
            }
            inside &= (0.0..=side).contains(&q.x) && (0.0..=side).contains(&q.y);
            *p = q;
        }
        let step = max_d2.sqrt();
        if !(step.is_finite() && inside) {
            v.forget();
            v.prev.extend_from_slice(positions);
            return None;
        }
        if step > 0.0 {
            v.drift = (v.drift + step).next_up();
        }
        // A zero step gives an infinite lifetime, saturated to u64::MAX.
        let budget = 0.5 * SKIN_REL * (1.0 - SLACK_REL) * self.radius;
        let period = ((budget / step).floor() as u64).saturating_add(1);
        (period >= MIN_PERIOD).then_some(period)
    }

    /// Writes the rows that [`FrameGrid::sweep`] writes on a frame of
    /// every node of `positions` in id order (with its periodic images on
    /// a torus) from the link schedule, one row per node, replacing
    /// `rows`; `period` comes from this call's [`FrameGrid::advance`]. The
    /// schedule reads the untranslated `positions` alone: it bins them on
    /// a grid of cells at least `r + s` wide over the configured extents,
    /// or over the torus square with the grid wrapping at its edges.
    ///
    /// Every candidate pair `u < v` within `r + s` is kept once, in `u`'s
    /// list, with its link state and its *due*: the drift before which it
    /// cannot flip. A pair tested at drift `D` with distance `d` is due at
    /// `D + |d − r|/2` (less a `1e-6·r` slack, rounded down): two nodes
    /// close or part by at most twice the drift's growth.
    ///
    /// Node `u` rebuilds its list when the rotation reaches it,
    /// `(u + calls) mod period = 0`, or when its drift budget is spent. A
    /// rebuild scans the binned nodes around `u` at `r + s` and tests every
    /// candidate with the squared distance the scan computed. The list then holds every link
    /// until the drift grows by `s/2` (less a `1e-6` share) past its
    /// build: two nodes within `r` now were within `r + s` then, by the
    /// triangle inequality. Every other list re-tests only its due pairs.
    /// A test is the metric's own squared distance (on a torus, the
    /// metric's branch-free fold of the in-range differences) against
    /// `r²`, so every link equals `metric.within`.
    ///
    /// A test that disagrees with the pair's state, and a rebuild that
    /// loses a linked partner, is a flip. The flips are sorted by
    /// `(a, b)` and edit the kernel's sorted rows in place (no list or
    /// row is sorted), and the rows are copied into `rows`. The first
    /// call with history, or the first after the schedule was dropped,
    /// builds every list and its rows from scratch and records no flips
    /// (see [`FrameGrid::flips`]).
    ///
    /// # Panics
    ///
    /// Panics if the grid was never configured, or if `r + s` is not
    /// below half a torus side.
    fn verlet_rows(&mut self, period: u64, positions: &[Vec2], rows: &mut NeighborRows) {
        let metric = self.metric.expect("configure the grid before sweeping");
        let n = positions.len();
        let radius = self.radius;
        let (skin, reach) = (radius * SKIN_REL, reach(radius));
        let (w, h, fold_side) = match metric {
            Metric::Euclidean => (self.w, self.h, None),
            Metric::Toroidal { side } => {
                assert!(
                    candidate_reach(radius, side).is_some(),
                    "candidate reach must stay below side/2"
                );
                (side, side, Some(side))
            }
        };
        let period = period.max(1);
        let v = &mut self.verlet;
        v.cap = row_floor(n, w * h, reach);
        v.fit(n);
        let prev_tag = std::mem::take(&mut v.tag);
        let full = !v.live;
        v.base = if v.live && v.wrote { prev_tag } else { 0 };
        v.flips.clear();
        // Node k is due at k ≡ −calls (mod period).
        let first_due = (period - v.calls % period) % period;
        let rebuilds = full || first_due < n as u64 || v.expires[..n].iter().any(|&e| v.drift > e);
        if rebuilds {
            self.frame.set_cells(w, h, reach, fold_side);
            self.frame.rebuild(None, positions);
            self.hits.resize(n, 0);
        }
        let r2 = radius * radius;
        let lim = reach * reach * (1.0 + BAND_REL);
        let slack = radius * SLACK_REL;
        let FrameGrid {
            frame,
            hits,
            verlet: v,
            ..
        } = self;
        let drift = v.drift;
        let expiry = (drift + 0.5 * skin * (1.0 - SLACK_REL)).next_down();
        // The metric's squared distance, and the drift a pair at that
        // squared distance needs before it can flip.
        let dist2 = |a: Vec2, b: Vec2| match metric {
            Metric::Euclidean => a.distance_sq(b),
            Metric::Toroidal { side } => {
                let dx = fold((a.x - b.x).abs(), side);
                let dy = fold((a.y - b.y).abs(), side);
                dx * dx + dy * dy
            }
        };
        let gap = |d2: f64| (0.5 * (d2.sqrt() - radius).abs() - slack).max(0.0);
        if full {
            let room = row_floor(n, w * h, radius);
            for row in &mut v.rows[..n] {
                row.clear();
                if row.capacity() < room {
                    row.reserve(room);
                }
            }
        }
        // Rebuild the rotation's slice and the stale lists, testing every
        // candidate against the link state the list held. Each node's
        // flips follow the earlier nodes', kept in `(a, b)` order.
        let mut next_due = first_due;
        for k in 0..n {
            let due = k as u64 == next_due;
            if due {
                next_due = next_due.saturating_add(period);
            }
            if !(full || due || drift > v.expires[k]) {
                continue;
            }
            let own = k as u32;
            let me = positions[k];
            let from = v.flips.len();
            // Mark the partners this list links now (row k past k).
            v.epoch = v.epoch.wrapping_add(1);
            if v.epoch == 0 {
                v.marks.fill(0);
                v.epoch = 1;
            }
            let epoch = v.epoch;
            let tail = v.rows[k].partition_point(|&id| id < own);
            for &id in &v.rows[k][tail..] {
                v.marks[id as usize] = epoch;
            }
            let nh = frame.scan_ids(k, me, lim, own, hits);
            let Schedule {
                lists,
                dues,
                rows: krows,
                marks,
                flips,
                ..
            } = &mut *v;
            let (list, codes) = (&mut lists[k], &mut dues[k]);
            list.clear();
            list.extend_from_slice(&hits[..nh]);
            codes.clear();
            codes.extend(list.iter().map(|&id| {
                let d2 = dist2(me, positions[id as usize]);
                let linked = d2 <= r2;
                let was = marks[id as usize] == epoch;
                marks[id as usize] = 0;
                if linked != was {
                    if full {
                        // From scratch: row k's tail is sorted below.
                        krows[id as usize].push(own);
                        krows[k].push(id);
                    } else {
                        let flip = LinkFlip {
                            a: own,
                            b: id,
                            up: linked,
                        };
                        push_flip(flips, from, flip);
                    }
                }
                due_code(f32_down(gap(d2)), linked)
            }));
            if full {
                krows[k][tail..].sort_unstable();
            }
            // A partner the scan no longer reaches is past r + s.
            for &id in &krows[k][tail..] {
                if marks[id as usize] == epoch {
                    let flip = LinkFlip {
                        a: own,
                        b: id,
                        up: false,
                    };
                    push_flip(flips, from, flip);
                }
            }
            v.built[k] = drift;
            v.expires[k] = expiry;
        }
        // Every other list re-tests its due pairs: a branch-free gather,
        // then the tests. A list built at this drift has none: no node has
        // moved since.
        let rebuilt = v.flips.len();
        for k in 0..n {
            let since = drift - v.built[k];
            if since == 0.0 {
                continue;
            }
            let now = f32_up(since);
            let own = k as u32;
            let me = positions[k];
            let from = v.flips.len();
            let codes = &mut v.dues[k];
            if hits.len() < codes.len() {
                hits.resize(codes.len(), 0);
            }
            let mut nd = 0;
            for (i, &code) in codes.iter().enumerate() {
                hits[nd] = i as u32;
                nd += usize::from(code.abs() <= now);
            }
            for &i in &hits[..nd] {
                let (id, code) = (v.lists[k][i as usize], &mut codes[i as usize]);
                let d2 = dist2(me, positions[id as usize]);
                let linked = d2 <= r2;
                if linked != code.is_sign_negative() {
                    let flip = LinkFlip {
                        a: own,
                        b: id,
                        up: linked,
                    };
                    push_flip(&mut v.flips, from, flip);
                }
                *code = due_code(f32_down(since + gap(d2)), linked);
            }
        }
        // Merge the two passes' runs, each in `(a, b)` order (a node
        // either rebuilt or gathered, so no pair is in both).
        let (first, second) = v.flips.split_at(rebuilt);
        let (mut i, mut j) = (0, 0);
        v.merged.clear();
        while i < first.len() && j < second.len() {
            if (first[i].a, first[i].b) < (second[j].a, second[j].b) {
                v.merged.push(first[i]);
                i += 1;
            } else {
                v.merged.push(second[j]);
                j += 1;
            }
        }
        v.merged.extend_from_slice(&first[i..]);
        v.merged.extend_from_slice(&second[j..]);
        std::mem::swap(&mut v.flips, &mut v.merged);
        for f in &v.flips {
            edit_row(&mut v.rows[f.a as usize], f.b, f.up);
            edit_row(&mut v.rows[f.b as usize], f.a, f.up);
        }
        (v.live, v.wrote) = (true, true);
        rows.clear();
        rows.reserve(n, v.rows[..n].iter().map(Vec::len).sum());
        for src in &v.rows[..n] {
            rows.push_row(src);
        }
    }
}

/// The monolithic topology builder's frame: a 1x1 [`ShardLayout`] with
/// every node owned in id order, plus its periodic self-images on a
/// torus, swept by the shared [`FrameGrid`] kernel.
///
/// The frame is fresh by construction (built from each call's
/// positions) and owns every node in id order, so consecutive calls
/// keep the kernel's link schedule (see [`FrameGrid::advance`]). A call
/// with no history (a new grid, or a changed node count, radius or
/// metric) and a call whose nodes moved a sixth of the skin or more
/// sweep plainly at `r`, on a margin of one radius. Every call's rows
/// are exact either way.
///
/// A caller that versions its rows can tag each call's output through
/// [`SpatialGrid::kernel_mut`]; a call that ran the schedule right after
/// a tagged one then records its link flips against that tag
/// ([`FrameGrid::flips`]).
///
/// # Example
///
/// ```
/// use manet_geom::{Metric, NeighborRows, SpatialGrid, SquareRegion, Vec2};
///
/// let region = SquareRegion::new(100.0);
/// let positions = vec![Vec2::new(1.0, 1.0), Vec2::new(3.0, 1.0), Vec2::new(60.0, 60.0)];
/// let mut rows = NeighborRows::default();
/// SpatialGrid::default().neighbor_rows(&positions, region, 5.0, Metric::Euclidean, &mut rows);
/// let expect: NeighborRows = [&[1][..], &[0], &[]].into_iter().collect();
/// assert_eq!(rows, expect);
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
    /// The kernel, for its link flips and output tag
    /// ([`FrameGrid::flips`], [`FrameGrid::tag_output`]).
    pub fn kernel_mut(&mut self) -> &mut FrameGrid {
        &mut self.kernel
    }

    /// Replaces `rows` with one row per node: row `i` holds the sorted
    /// ids of every node within `radius` of node `i` under `metric`. This
    /// grid's buffers and the store's are reused.
    ///
    /// Positions must lie inside the region (wrap them first for a
    /// torus). Any radius works, including one wider than the region.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is not positive and finite, if more than
    /// `u32::MAX` positions are given, or if a toroidal metric's period
    /// differs from the region side.
    pub fn neighbor_rows(
        &mut self,
        positions: &[Vec2],
        region: SquareRegion,
        radius: f64,
        metric: Metric,
        rows: &mut NeighborRows,
    ) {
        assert!(
            radius > 0.0 && radius.is_finite(),
            "radius must be positive and finite"
        );
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
        let n = positions.len();
        // The schedule bins the positions themselves, over the square.
        self.kernel.configure(side, side, radius, metric);
        if candidate_reach(radius, side).is_some() {
            if let Some(period) = self.kernel.advance(positions) {
                self.kernel.verlet_rows(period, positions, rows);
                return;
            }
        }
        // One radius of margin, capped at the side: a link's nearest
        // image is at most side/2 away per axis, so a side-wide margin
        // captures every link even when the radius exceeds the side.
        let layout = ShardLayout::new(
            ShardDims::unit(),
            region,
            ghost_margin(radius).min(side),
            wrap,
        )
        .expect("a 1x1 layout whose margin is at most the side is valid");
        let (w, h) = (layout.frame_w(), layout.frame_h());
        self.kernel.configure(w, h, radius, metric);
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
        self.kernel.sweep(&self.ids, &self.pts, n, positions, rows);
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
        let mut rows: NeighborRows = (0..positions.len() + 2).map(|_| [u32::MAX; 3]).collect();
        grid.neighbor_rows(
            positions,
            SquareRegion::new(side),
            radius,
            metric,
            &mut rows,
        );
        rows.iter().map(<[u32]>::to_vec).collect()
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
        let mut rows = NeighborRows::default();
        let boundary = grid.sweep(&ids, &pts, 2, &positions, &mut rows);
        assert_eq!(rows, [&[1][..], &[0, 2, 3]].into_iter().collect());
        assert_eq!(boundary, 2);
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
        let mut rows = NeighborRows::default();
        grid.sweep(&[0, 1, 2], &pts, 3, &positions, &mut rows);
        assert_eq!(rows, [&[1][..], &[0], &[]].into_iter().collect());
    }

    #[test]
    #[should_panic(expected = "positive finite")]
    fn zero_extent_is_rejected() {
        FrameGrid::default().configure(0.0, 1.0, 1.0, Metric::Euclidean);
    }

    fn shifted(positions: &[Vec2], dx: f64) -> Vec<Vec2> {
        positions.iter().map(|p| Vec2::new(p.x + dx, p.y)).collect()
    }

    /// `P` is a list's lifetime plus one once there is history; every
    /// reason to sweep plainly gives `None`.
    #[test]
    fn advance_opens_a_period_only_with_history() {
        let mut grid = FrameGrid::default();
        grid.configure(100.0, 100.0, 150.0, Metric::toroidal(1000.0));
        let base = vec![Vec2::new(10.0, 10.0), Vec2::new(500.0, 20.0)];
        assert_eq!(grid.advance(&base), None, "no history");
        assert_eq!(grid.advance(&base), Some(u64::MAX), "static");
        // s/2 = 15 m, less the slack: a list lives 5 calls at 2.5 m steps
        // and expires on the 6th, whether the step is exact or a rounding
        // hair above it.
        assert_eq!(grid.advance(&shifted(&base, 2.5)), Some(6));
        let above = 2.5 * (1.0 + 1e-15);
        assert_eq!(grid.advance(&shifted(&base, 2.5 + above)), Some(6));
        // 3.75 m: a life of 3 calls, the shortest kept.
        assert_eq!(grid.advance(&shifted(&base, 8.75)), Some(4));
        assert_eq!(grid.advance(&shifted(&base, 13.75)), None, "5 m: P = 3");
        let five = 5.000_000_000_001_5;
        assert_eq!(grid.advance(&shifted(&base, 13.75 + five)), None, "P = 3");
        assert_eq!(grid.advance(&shifted(&base, 13.75 + five)), Some(u64::MAX));
        assert_eq!(grid.advance(&base[..1]), None, "node count changed");
        assert_eq!(grid.advance(&base[..1]), Some(u64::MAX));
        let nan = [Vec2::new(f64::NAN, 10.0)];
        assert_eq!(grid.advance(&nan), None, "non-finite step");
        assert_eq!(grid.advance(&base[..1]), None, "NaN left no history");
        assert_eq!(
            grid.advance(&[Vec2::new(1000.5, 10.0)]),
            None,
            "off the square"
        );
        assert_eq!(grid.advance(&base[..1]), None);
        assert_eq!(grid.advance(&base[..1]), Some(u64::MAX));
        grid.configure(100.0, 100.0, 120.0, Metric::toroidal(1000.0));
        assert_eq!(grid.advance(&base[..1]), None, "radius changed");
    }

    fn verlet_rows(grid: &mut SpatialGrid, positions: &[Vec2], metric: Metric) -> Vec<Vec<u32>> {
        rows_of(grid, positions, 1000.0, 150.0, metric)
    }

    /// Static nodes never rebuild a list or re-test a pair: a list
    /// emptied after the build stays empty, the rows stay exact from the
    /// kernel's own rows, and every call flips nothing.
    #[test]
    fn static_frames_never_rebuild_a_list() {
        let metric = Metric::toroidal(1000.0);
        let positions = random_positions(300, 1000.0, 21);
        let mut grid = SpatialGrid::default();
        verlet_rows(&mut grid, &positions, metric); // no history: plain
        verlet_rows(&mut grid, &positions, metric); // every list built
        let k = (0..300)
            .find(|&k| !grid.kernel.verlet.lists[k].is_empty())
            .unwrap();
        grid.kernel.verlet.lists[k].clear();
        grid.kernel.verlet.dues[k].clear();
        let expected = brute_rows(&positions, 150.0, metric);
        for call in 0..40 {
            grid.kernel_mut().tag_output(call + 1);
            let rows = verlet_rows(&mut grid, &positions, metric);
            assert!(
                grid.kernel.verlet.lists[k].is_empty(),
                "list {k} was rebuilt"
            );
            assert_eq!(rows, expected);
            let flips = grid.kernel.flips().expect("a tagged predecessor");
            assert_eq!(flips, (call + 1, &[][..]));
        }
    }

    /// Moving nodes rebuild every list within one rotation: lists emptied
    /// on purpose come back, each rebuild finds the flips its pairs missed
    /// against the kernel's rows, and the rows are exact after `P` calls.
    #[test]
    fn one_rotation_rebuilds_every_list() {
        let metric = Metric::toroidal(1000.0);
        let mut positions = random_positions(300, 1000.0, 22);
        let mut grid = SpatialGrid::default();
        verlet_rows(&mut grid, &positions, metric);
        verlet_rows(&mut grid, &positions, metric);
        let v = &mut grid.kernel.verlet;
        for (list, codes) in v.lists.iter_mut().zip(&mut v.dues) {
            list.clear();
            codes.clear();
        }
        let cleared = grid.kernel.verlet.drift;
        let region = SquareRegion::new(1000.0);
        // 2.5 m per call: P = 6.
        for call in 0..6 {
            positions = positions
                .iter()
                .map(|&p| region.wrap(p + Vec2::new(2.5, 0.0)))
                .collect();
            let rows = verlet_rows(&mut grid, &positions, metric);
            if call == 5 {
                assert!(grid.kernel.verlet.built.iter().all(|&b| b > cleared));
                assert_eq!(rows, brute_rows(&positions, 150.0, metric));
            }
        }
    }

    /// Each call's flips, applied to the previous call's rows, give its
    /// rows; they come sorted by `(a, b)`, only against a tagged
    /// predecessor that ran the schedule, and a fallback cuts the chain.
    /// The 400 m square is under three cells of `r + s` wide, so its torus
    /// scan folds every difference instead of shifting seam spans.
    #[test]
    fn flips_lead_from_the_tagged_previous_rows() {
        for (side, n) in [(1000.0, 300), (400.0, 60)] {
            for metric in [Metric::Euclidean, Metric::toroidal(side)] {
                let case = format!("{metric:?} on {side} m");
                let region = SquareRegion::new(side);
                let mut rng = Rng::seed_from_u64(23);
                let mut positions = random_positions(n, side, 23);
                let mut grid = SpatialGrid::default();
                let mut prev = rows_of(&mut grid, &positions, side, 150.0, metric);
                let (mut chained, mut flipped) = (0, 0);
                for call in 1..120u64 {
                    // Mostly 2 m steps, with a fast call (P < 3) now and then.
                    let scale = if call % 37 == 0 { 20.0 } else { 2.0 };
                    for p in &mut positions {
                        let d = Vec2::new(rng.f64_range(-1.0..1.0), rng.f64_range(-1.0..1.0));
                        let q = *p + d * scale;
                        *p = match metric {
                            Metric::Euclidean => {
                                let edge = side - 1.0;
                                Vec2::new(q.x.clamp(0.0, edge), q.y.clamp(0.0, edge))
                            }
                            Metric::Toroidal { .. } => region.wrap(q),
                        };
                    }
                    let rows = rows_of(&mut grid, &positions, side, 150.0, metric);
                    assert_eq!(rows, brute_rows(&positions, 150.0, metric), "{case}");
                    let expect_chain = call >= 2 && call % 37 != 0 && call % 37 != 1;
                    match grid.kernel.flips() {
                        Some((base, flips)) => {
                            assert!(expect_chain, "{case} call {call}: unexpected flips");
                            assert_eq!(base, call, "{case} call {call}: base");
                            assert!(flips
                                .windows(2)
                                .all(|w| (w[0].a, w[0].b) < (w[1].a, w[1].b)));
                            let mut edited = prev.clone();
                            for f in flips {
                                assert!(f.a < f.b);
                                edit_row(&mut edited[f.a as usize], f.b, f.up);
                                edit_row(&mut edited[f.b as usize], f.a, f.up);
                            }
                            assert_eq!(edited, rows, "{case} call {call}");
                            chained += 1;
                            flipped += flips.len();
                        }
                        None => assert!(!expect_chain, "{case} call {call}: no flips"),
                    }
                    grid.kernel_mut().tag_output(call + 1);
                    prev = rows;
                }
                assert!(
                    chained > 100 && flipped > n,
                    "{case}: {chained} calls, {flipped} flips"
                );
                // An untagged output leaves the next call's flips unanchored.
                grid.kernel_mut().tag_output(0);
                rows_of(&mut grid, &positions, side, 150.0, metric);
                assert_eq!(grid.kernel.flips(), None);
            }
        }
    }
}
