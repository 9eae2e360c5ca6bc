//! 2D geometry for mobile ad hoc network simulation and analysis.
//!
//! Provides the spatial substrate shared by the simulator
//! (`manet-sim`) and the analytical model (`manet-model`):
//!
//! * [`vec2`] — a minimal 2D vector type.
//! * [`region`] — the bounded square deployment region with boundary
//!   policies (toroidal wrap-around, reflection).
//! * [`metric`] — Euclidean and toroidal (minimum-image) distance metrics.
//! * [`grid`] — the unit-disk kernel: a cell-ordered frame swept one
//!   owned row at a time, under both metrics, with a per-pair link
//!   schedule on fresh frames that re-tests only the pairs that may have
//!   flipped and reports the flips. Every topology builder runs it.
//! * [`rows`] — the flat neighbor-row store the kernel writes and every
//!   topology holds: row offsets plus one `u32` id buffer.
//! * [`linkdist`] — link-distance distributions: Miller's CDF for uniform
//!   points in a square (the paper's Claim 1 substrate) and the disc
//!   line-picking CDF used by the intra-cluster ROUTE model.
//! * [`shard`] — spatial shard tilings with ghost margins, the geometry
//!   under the sharded world (`manet-shard`).
//!
//! # Example
//!
//! ```
//! use manet_geom::prelude::*;
//! use manet_util::Rng;
//!
//! let region = SquareRegion::new(1000.0);
//! let mut rng = Rng::seed_from_u64(1);
//! let p = region.sample_uniform(&mut rng);
//! assert!(region.contains(p));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod grid;
pub mod linkdist;
pub mod metric;
pub mod region;
pub mod rows;
pub mod shard;
pub mod vec2;

/// Convenient glob-import of the most used items.
pub mod prelude {
    pub use crate::grid::SpatialGrid;
    pub use crate::metric::Metric;
    pub use crate::region::{BoundaryPolicy, SquareRegion};
    pub use crate::shard::{ShardDims, ShardLayout};
    pub use crate::vec2::Vec2;
}

pub use grid::{candidate_reach, ghost_margin, FrameGrid, LinkFlip, SpatialGrid};
pub use metric::Metric;
pub use region::{BoundaryPolicy, SquareRegion};
pub use rows::NeighborRows;
pub use shard::{ShardDims, ShardLayout, ShardLayoutError};
pub use vec2::Vec2;
