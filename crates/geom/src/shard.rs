//! Spatial shard layout: tiling the deployment region into a `kx × ky`
//! grid of shards, each owning a rectangular tile plus a read-only ghost
//! margin replicated from its neighbors.
//!
//! This module holds the pure geometry: which shard owns a point, and
//! which neighboring shards need a ghost image of it (and at what
//! frame-local coordinates). The ghost-margin invariant is the heart of
//! the shard plane (DESIGN.md §13): with a margin at least one radio
//! radius wide, every unit-disk link is visible to the shard owning
//! either endpoint, so per-shard neighbor computation loses nothing.
//!
//! On a torus the margins wrap: a node near `x = 0` is a ghost of the
//! rightmost column of shards (appearing past their right edge at
//! `x + side`). With `kx == 1` the "left" and "right" neighbors are the
//! shard itself, and the images become the periodic self-images that make
//! the single-shard layout exactly equivalent to the monolithic world.

use crate::region::SquareRegion;
use crate::vec2::Vec2;
use std::fmt;

/// Shard grid dimensions: `kx` columns × `ky` rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardDims {
    /// Number of shard columns (tiles along x).
    pub kx: usize,
    /// Number of shard rows (tiles along y).
    pub ky: usize,
}

impl ShardDims {
    /// A `kx × ky` grid.
    pub fn new(kx: usize, ky: usize) -> Self {
        ShardDims { kx, ky }
    }

    /// The unsharded layout (one shard owning everything).
    pub fn unit() -> Self {
        ShardDims { kx: 1, ky: 1 }
    }

    /// Total shard count.
    pub fn count(&self) -> usize {
        self.kx * self.ky
    }

    /// Parses the CLI form `"KXxKY"` (e.g. `"2x3"`), also accepting a
    /// bare `"K"` as shorthand for `"Kx1"`.
    pub fn parse(s: &str) -> Result<Self, ShardLayoutError> {
        let bad = || ShardLayoutError::BadDims(s.to_string());
        let (kx, ky) = match s.split_once(['x', 'X']) {
            Some((a, b)) => (
                a.trim().parse::<usize>().map_err(|_| bad())?,
                b.trim().parse::<usize>().map_err(|_| bad())?,
            ),
            None => (s.trim().parse::<usize>().map_err(|_| bad())?, 1),
        };
        if kx == 0 || ky == 0 {
            return Err(bad());
        }
        Ok(ShardDims { kx, ky })
    }
}

impl fmt::Display for ShardDims {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.kx, self.ky)
    }
}

/// Why a shard layout could not be constructed.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardLayoutError {
    /// The dims string was not `KXxKY` with positive integers.
    BadDims(String),
    /// The margin was not strictly positive and finite.
    BadMargin(f64),
    /// A tile is narrower than the ghost margin, so a link could span
    /// non-adjacent shards and escape the ghost exchange.
    TileTooSmall {
        /// Offending tile extent (width or height).
        tile: f64,
        /// Required minimum (the margin).
        margin: f64,
    },
    /// More shards than the owner encoding supports.
    TooManyShards(usize),
}

impl fmt::Display for ShardLayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardLayoutError::BadDims(s) => {
                write!(
                    f,
                    "shard dims must be KXxKY with positive integers, got {s:?}"
                )
            }
            ShardLayoutError::BadMargin(m) => {
                write!(f, "ghost margin must be positive and finite, got {m}")
            }
            ShardLayoutError::TileTooSmall { tile, margin } => write!(
                f,
                "shard tile extent {tile} is smaller than the ghost margin {margin}; \
                 links could span non-adjacent shards — use fewer shards"
            ),
            ShardLayoutError::TooManyShards(n) => {
                write!(f, "{n} shards exceeds the supported maximum of 65535")
            }
        }
    }
}

impl std::error::Error for ShardLayoutError {}

/// A concrete shard tiling of a square region.
///
/// Each shard `(sx, sy)` owns the half-open tile
/// `[sx·tw, (sx+1)·tw) × [sy·th, (sy+1)·th)` and computes in a local
/// *frame* of size `(tw + 2m) × (th + 2m)`: the tile translated so its
/// origin sits at `(m, m)`, surrounded by a ghost margin of width `m`.
/// Shard indices are row-major: `index = sy·kx + sx`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardLayout {
    dims: ShardDims,
    side: f64,
    tile_w: f64,
    tile_h: f64,
    margin: f64,
    /// Whether margins wrap around the region boundary (torus).
    wrap: bool,
}

impl ShardLayout {
    /// Lays `dims` shards over `region` with a ghost margin of `margin`.
    ///
    /// `wrap` selects toroidal margins (images wrap around the region
    /// boundary) versus bounded ones (no images past the region edge).
    ///
    /// # Errors
    ///
    /// Rejects non-positive margins, layouts whose tiles are narrower
    /// than the margin (the capture invariant needs links to reach at
    /// most one tile over), and more than `u16::MAX` shards.
    pub fn new(
        dims: ShardDims,
        region: SquareRegion,
        margin: f64,
        wrap: bool,
    ) -> Result<Self, ShardLayoutError> {
        if dims.count() == 0 {
            return Err(ShardLayoutError::BadDims(dims.to_string()));
        }
        if dims.count() > u16::MAX as usize {
            return Err(ShardLayoutError::TooManyShards(dims.count()));
        }
        if !(margin.is_finite() && margin > 0.0) {
            return Err(ShardLayoutError::BadMargin(margin));
        }
        let side = region.side();
        let tile_w = side / dims.kx as f64;
        let tile_h = side / dims.ky as f64;
        for tile in [tile_w, tile_h] {
            if tile < margin {
                return Err(ShardLayoutError::TileTooSmall { tile, margin });
            }
        }
        Ok(ShardLayout {
            dims,
            side,
            tile_w,
            tile_h,
            margin,
            wrap,
        })
    }

    /// The grid dimensions.
    pub fn dims(&self) -> ShardDims {
        self.dims
    }

    /// Total shard count.
    pub fn count(&self) -> usize {
        self.dims.count()
    }

    /// Tile width (x extent owned by one shard).
    pub fn tile_w(&self) -> f64 {
        self.tile_w
    }

    /// Tile height (y extent owned by one shard).
    pub fn tile_h(&self) -> f64 {
        self.tile_h
    }

    /// Ghost margin width.
    pub fn margin(&self) -> f64 {
        self.margin
    }

    /// Local frame width (`tile_w + 2·margin`).
    pub fn frame_w(&self) -> f64 {
        self.tile_w + 2.0 * self.margin
    }

    /// Local frame height (`tile_h + 2·margin`).
    pub fn frame_h(&self) -> f64 {
        self.tile_h + 2.0 * self.margin
    }

    /// Whether margins wrap around the region boundary.
    pub fn wraps(&self) -> bool {
        self.wrap
    }

    /// Row-major shard index of tile `(sx, sy)`.
    pub fn shard_index(&self, sx: usize, sy: usize) -> usize {
        sy * self.dims.kx + sx
    }

    /// Tile coordinates `(sx, sy)` owning point `p` (clamped so points on
    /// the far region boundary land in the last tile).
    pub fn tile_of(&self, p: Vec2) -> (usize, usize) {
        let sx = ((p.x / self.tile_w) as usize).min(self.dims.kx - 1);
        let sy = ((p.y / self.tile_h) as usize).min(self.dims.ky - 1);
        (sx, sy)
    }

    /// Row-major index of the shard owning `p`.
    pub fn owner_of(&self, p: Vec2) -> usize {
        let (sx, sy) = self.tile_of(p);
        self.shard_index(sx, sy)
    }

    /// The owner shard of `p` and `p`'s coordinates in that shard's local
    /// frame (tile origin translated to `(margin, margin)`).
    pub fn owner_local(&self, p: Vec2) -> (usize, Vec2) {
        let (sx, sy) = self.tile_of(p);
        let ox = p.x - sx as f64 * self.tile_w;
        let oy = p.y - sy as f64 * self.tile_h;
        (
            self.shard_index(sx, sy),
            Vec2::new(ox + self.margin, oy + self.margin),
        )
    }

    /// Visits every ghost image of `p`: each neighboring shard whose
    /// margin contains `p`, with `p`'s coordinates in that shard's local
    /// frame. A point deep inside a tile visits nothing; a corner point
    /// visits up to three shards (or, with `kx == 1`/`ky == 1` on a
    /// torus, the same shard again as a periodic self-image).
    pub fn for_each_ghost_image(&self, p: Vec2, mut f: impl FnMut(usize, Vec2)) {
        let (sx, sy) = self.tile_of(p);
        let ox = p.x - sx as f64 * self.tile_w;
        let oy = p.y - sy as f64 * self.tile_h;
        let m = self.margin;
        // dx ∈ {-1, 0, 1}: which x-neighbor sees the image, and at what
        // local x. `None` = that side's margin does not contain p.
        let mut xs: [Option<(isize, f64)>; 3] = [None; 3];
        xs[0] = Some((0, ox + m));
        if ox <= m {
            xs[1] = Some((-1, ox + self.tile_w + m));
        }
        if self.tile_w - ox <= m {
            xs[2] = Some((1, ox - self.tile_w + m));
        }
        let mut ys: [Option<(isize, f64)>; 3] = [None; 3];
        ys[0] = Some((0, oy + m));
        if oy <= m {
            ys[1] = Some((-1, oy + self.tile_h + m));
        }
        if self.tile_h - oy <= m {
            ys[2] = Some((1, oy - self.tile_h + m));
        }
        for &(dy, ly) in ys.iter().flatten() {
            for &(dx, lx) in xs.iter().flatten() {
                if dx == 0 && dy == 0 {
                    continue; // the owner entry, not a ghost
                }
                let Some(nsx) = self.neighbor(sx, dx, self.dims.kx) else {
                    continue;
                };
                let Some(nsy) = self.neighbor(sy, dy, self.dims.ky) else {
                    continue;
                };
                f(self.shard_index(nsx, nsy), Vec2::new(lx, ly));
            }
        }
    }

    /// The axis neighbor `s + d` under the wrap policy (`None` when the
    /// region is bounded and the neighbor would fall outside).
    fn neighbor(&self, s: usize, d: isize, k: usize) -> Option<usize> {
        match d {
            0 => Some(s),
            -1 if s > 0 => Some(s - 1),
            -1 if self.wrap => Some(k - 1),
            1 if s + 1 < k => Some(s + 1),
            1 if self.wrap => Some(0),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::Metric;
    use manet_util::Rng;

    #[test]
    fn parse_accepts_kxky_and_bare_k() {
        assert_eq!(ShardDims::parse("2x3").unwrap(), ShardDims::new(2, 3));
        assert_eq!(ShardDims::parse("4X1").unwrap(), ShardDims::new(4, 1));
        assert_eq!(ShardDims::parse("8").unwrap(), ShardDims::new(8, 1));
        assert_eq!(ShardDims::parse("1x1").unwrap(), ShardDims::unit());
        assert!(ShardDims::parse("0x2").is_err());
        assert!(ShardDims::parse("2x").is_err());
        assert!(ShardDims::parse("axb").is_err());
        assert_eq!(ShardDims::new(2, 3).to_string(), "2x3");
    }

    #[test]
    fn layout_rejects_degenerate_parameters() {
        let region = SquareRegion::new(100.0);
        assert!(matches!(
            ShardLayout::new(ShardDims::new(2, 2), region, 0.0, true),
            Err(ShardLayoutError::BadMargin(_))
        ));
        // 100/8 = 12.5 < margin 20: a link could skip a tile.
        assert!(matches!(
            ShardLayout::new(ShardDims::new(8, 1), region, 20.0, true),
            Err(ShardLayoutError::TileTooSmall { .. })
        ));
        assert!(ShardLayout::new(ShardDims::new(4, 4), region, 20.0, true).is_ok());
    }

    #[test]
    fn owners_partition_the_region() {
        let region = SquareRegion::new(120.0);
        let layout = ShardLayout::new(ShardDims::new(3, 2), region, 15.0, true).unwrap();
        let mut rng = Rng::seed_from_u64(7);
        for _ in 0..500 {
            let p = region.sample_uniform(&mut rng);
            let owner = layout.owner_of(p);
            assert!(owner < 6);
            let (o2, local) = layout.owner_local(p);
            assert_eq!(owner, o2);
            // Owned locals land in the tile part of the frame.
            assert!(local.x >= layout.margin() - 1e-9);
            assert!(local.x <= layout.margin() + layout.tile_w() + 1e-9);
            assert!(local.y >= layout.margin() - 1e-9);
            assert!(local.y <= layout.margin() + layout.tile_h() + 1e-9);
        }
        // Boundary points stay in range.
        assert_eq!(layout.tile_of(Vec2::new(0.0, 0.0)), (0, 0));
        let eps = Vec2::new(120.0 - 1e-12, 120.0 - 1e-12);
        assert_eq!(layout.tile_of(eps), (2, 1));
    }

    /// The capture invariant: for any two points within `radius` under the
    /// toroidal metric, the owner frame of each point contains an image of
    /// the other within (Euclidean) `radius` in local coordinates.
    #[test]
    fn ghost_margin_captures_every_link() {
        let side = 200.0;
        let region = SquareRegion::new(side);
        let radius = 30.0;
        let metric = Metric::toroidal(side);
        for dims in [
            ShardDims::new(1, 1),
            ShardDims::new(2, 2),
            ShardDims::new(4, 1),
            ShardDims::new(3, 4),
        ] {
            let layout = ShardLayout::new(dims, region, radius, true).unwrap();
            let mut rng = Rng::seed_from_u64(99);
            let pts: Vec<Vec2> = (0..300).map(|_| region.sample_uniform(&mut rng)).collect();
            for i in 0..pts.len() {
                for j in 0..pts.len() {
                    if i == j || !metric.within(pts[i], pts[j], radius) {
                        continue;
                    }
                    let (owner, local_i) = layout.owner_local(pts[i]);
                    // Collect every image of j in owner's frame.
                    let mut found = false;
                    let (oj, lj) = layout.owner_local(pts[j]);
                    let mut consider = |shard: usize, lp: Vec2| {
                        if shard == owner {
                            let (dx, dy) = (lp.x - local_i.x, lp.y - local_i.y);
                            if (dx * dx + dy * dy).sqrt() <= radius + 1e-6 {
                                found = true;
                            }
                        }
                    };
                    consider(oj, lj);
                    layout.for_each_ghost_image(pts[j], &mut consider);
                    assert!(
                        found,
                        "{dims}: linked pair {i},{j} invisible to owner shard"
                    );
                }
            }
        }
    }

    #[test]
    fn unit_layout_self_images_wrap_the_torus() {
        let region = SquareRegion::new(100.0);
        let layout = ShardLayout::new(ShardDims::unit(), region, 20.0, true).unwrap();
        // A point near x=0 must reappear past the right edge of the frame.
        let p = Vec2::new(5.0, 50.0);
        let mut images = Vec::new();
        layout.for_each_ghost_image(p, |s, lp| images.push((s, lp)));
        assert!(images.iter().all(|&(s, _)| s == 0));
        assert!(images
            .iter()
            .any(|&(_, lp)| (lp.x - 125.0).abs() < 1e-9 && (lp.y - 70.0).abs() < 1e-9));
        // Without wrap there are no images at all.
        let bounded = ShardLayout::new(ShardDims::unit(), region, 20.0, false).unwrap();
        let mut none = 0;
        bounded.for_each_ghost_image(p, |_, _| none += 1);
        assert_eq!(none, 0);
    }

    #[test]
    fn corner_points_image_to_three_neighbors() {
        let region = SquareRegion::new(200.0);
        let layout = ShardLayout::new(ShardDims::new(2, 2), region, 25.0, true).unwrap();
        // Near the center cross: images into the right, lower, and
        // diagonal shard.
        let p = Vec2::new(99.0, 99.0); // tile (0,0), near both inner edges
        let mut shards = Vec::new();
        layout.for_each_ghost_image(p, |s, _| shards.push(s));
        shards.sort_unstable();
        assert_eq!(shards, vec![1, 2, 3]);
    }
}
