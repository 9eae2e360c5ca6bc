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
//! and Route run their sequential stage defaults on the caller's thread.
//!
//! # Quickstart
//!
//! ```
//! use manet_cluster::{Clustering, LowestId};
//! use manet_geom::ShardDims;
//! use manet_routing::intra::IntraClusterRouting;
//! use manet_shard::ShardedStack;
//! use manet_sim::{QuietCtx, SimBuilder};
//!
//! let world = SimBuilder::new().nodes(200).side(800.0).radius(100.0).build();
//! let clustering = Clustering::form(LowestId, world.topology());
//! let mut stack = ShardedStack::ideal(
//!     world,
//!     clustering,
//!     IntraClusterRouting::new(),
//!     ShardDims::parse("2x2").unwrap(),
//! )
//! .unwrap();
//! let mut q = QuietCtx::new();
//! stack.prime(&mut q.ctx());
//! let report = stack.run(10.0, &mut q.ctx());
//! assert!(report.generated > 0);
//! assert_eq!(stack.shard_report().shards, 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod interconnect;
pub mod link;
pub mod plane;
pub mod stack;

pub use interconnect::{GhostBatch, Interconnect, InterconnectConfig, InterconnectMsg};
pub use link::{LinkHealth, LinkManager, ShardLink};
pub use manet_geom::{ShardDims, ShardLayout, ShardLayoutError};
pub use plane::{default_workers, ShardPlane, ShardReport, ShardStats};
pub use stack::ShardedStack;
