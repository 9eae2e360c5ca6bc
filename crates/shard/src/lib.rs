//! Spatially sharded MANET worlds: ghost margins, owner migration, and a
//! deterministic parallel topology rebuild (DESIGN.md §13).
//!
//! The monolithic `World` recomputes one global topology per tick, which
//! caps the population the simulator can sweep. This crate exploits the
//! same locality the paper's clustering bounds rest on — nodes only
//! interact within one radio radius `r` — to partition the region into a
//! `kx × ky` grid of **shards**. Each shard owns the nodes inside its
//! tile and sees a read-only **ghost margin** one radius wide replicated
//! from its neighbors, so its owned nodes' neighbor lists are computable
//! entirely shard-locally:
//!
//! * **Ghost-margin invariant** — with margin ≥ r, both endpoints of any
//!   unit-disk link are inside the owner frame of *each* endpoint, so no
//!   link escapes per-shard computation.
//! * **Determinism contract** — shards compute independently (any worker
//!   count, any scheduling), then merge in shard-index order; every link
//!   decision defers to the global metric when a frame-local distance is
//!   within an epsilon band of `r²`. Counters, reports, and traces are
//!   therefore bit-identical run-to-run *and* to the monolithic
//!   [`ProtocolStack`](manet_stack::ProtocolStack) at any shard count.
//!
//! The plane shards the topology rebuild only. Mobility, HELLO, Cluster
//! and Route run their sequential stage defaults on the caller's thread,
//! and a `1x1` plane builds its rows with the monolithic builder. A
//! [`ProtocolStack`](manet_stack::ProtocolStack) ticks over a plane once
//! the plane is its stage bundle (`stack.with_stages(plane)`).
//!
//! # Quickstart
//!
//! ```
//! use manet_cluster::{Clustering, LowestId};
//! use manet_geom::ShardDims;
//! use manet_routing::intra::IntraClusterRouting;
//! use manet_shard::ShardPlane;
//! use manet_sim::{QuietCtx, SimBuilder};
//! use manet_stack::ProtocolStack;
//!
//! let world = SimBuilder::new().nodes(200).side(800.0).radius(100.0).build();
//! let plane = ShardPlane::for_world(&world, ShardDims::parse("2x2").unwrap()).unwrap();
//! let clustering = Clustering::form(LowestId, world.topology());
//! let mut stack = ProtocolStack::ideal(world, clustering, IntraClusterRouting::new())
//!     .with_stages(plane);
//! let mut q = QuietCtx::new();
//! stack.prime(&mut q.ctx());
//! let report = stack.run(10.0, &mut q.ctx());
//! assert!(report.generated > 0);
//! assert_eq!(stack.stages().report().shards, 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod interconnect;
pub mod link;
pub mod plane;

pub use interconnect::{GhostBatch, Interconnect, InterconnectConfig, InterconnectMsg};
pub use link::{LinkHealth, LinkManager, ShardLink};
pub use manet_geom::{ShardDims, ShardLayout, ShardLayoutError};
pub use plane::{default_workers, ShardPlane, ShardReport, ShardStats};
