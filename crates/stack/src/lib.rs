//! The canonical protocol-stack tick pipeline.
//!
//! Before this crate existed, every experiment harness hand-rolled the
//! same per-tick orchestration — step the world, drive HELLO, maintain the
//! cluster structure, update intra-cluster routes, roll the traffic into
//! the shared counters — and each copy drifted in event order, counter
//! accounting, and fault plumbing. [`ProtocolStack`] owns that loop once:
//!
//! ```text
//! Mobility → Topology → HELLO → Cluster → Route → Telemetry
//! ```
//!
//! The stages are pluggable:
//!
//! * [`ClusterLayer`] — the cluster-maintenance stage. Implemented by the
//!   plain one-hop [`Clustering`] engine, the self-healing
//!   [`SelfHealing`] wrapper (retry-with-backoff under faults), the d-hop
//!   [`DHopLayer`], and [`NoClustering`].
//! * [`RouteLayer`] — the proactive routing stage. Implemented by
//!   [`IntraClusterRouting`] and [`NoRouting`].
//! * [`HelloDriver`] — who beacons: the world's built-in HELLO accounting
//!   ([`HelloDriver::World`]) or an explicit [`HelloProtocol`] with its
//!   own channel ([`HelloDriver::explicit`]).
//!
//! Each [`ProtocolStack::tick`] returns a [`StackReport`] aggregating the
//! whole tick across layers — including [`StackReport::msgs_lost`], the
//! cross-layer loss total (the world-level `StepReport` reports HELLO
//! drops only, as `hello_lost`).
//!
//! Telemetry, fault injection, and scratch reuse all flow through the one
//! [`StepCtx`] handed to `tick`: a hookless [`QuietCtx`](manet_sim::QuietCtx)
//! runs the stack silently; a probe-carrying ctx makes the same tick emit
//! the full event stream (batched `MsgSent` rollups per layer, a
//! `ClusterGauge` every tick, per-stage spans) with bit-identical
//! protocol state.
//!
//! # Example
//!
//! ```
//! use manet_cluster::{Clustering, LowestId};
//! use manet_routing::intra::IntraClusterRouting;
//! use manet_sim::{QuietCtx, SimBuilder};
//! use manet_stack::ProtocolStack;
//!
//! let world = SimBuilder::new().nodes(80).seed(2).build();
//! let clustering = Clustering::form(LowestId, world.topology());
//! let mut stack = ProtocolStack::ideal(world, clustering, IntraClusterRouting::new());
//! let mut quiet = QuietCtx::new();
//! stack.prime(&mut quiet.ctx()); // uncharged baseline route fill
//! let report = stack.run(10.0, &mut quiet.ctx());
//! assert_eq!(report.msgs_lost(), 0); // ideal channels lose nothing
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod layer;
pub mod report;
pub mod stack;
pub mod stage;

pub use layer::{ClusterLayer, DHopLayer, NoClustering, NoRouting, RouteLayer};
pub use report::StackReport;
pub use stack::{HelloDriver, ProtocolStack};
pub use stage::{ClusterStage, HelloStage, MonoStages, RouteStage, StackStages};

// Re-exported so downstream code can name the stage types without adding
// direct dependencies on every layer crate.
pub use manet_cluster::{ClusterFlow, Clustering, DHopClustering, SelfHealing};
pub use manet_routing::intra::IntraClusterRouting;
pub use manet_sim::{HelloProtocol, StepCtx};
