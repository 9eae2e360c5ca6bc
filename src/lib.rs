//! `clustered-manet`: a reproduction of *"Analysis of Clustering and
//! Routing Overhead for Clustered Mobile Ad Hoc Networks"* (Xue, Er &
//! Seah, ICDCS 2006) as a production-quality Rust workspace.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`model`] — the paper's contribution: closed-form lower bounds for
//!   HELLO / CLUSTER / ROUTE control overhead and the Lowest-ID head-ratio
//!   analysis.
//! * [`sim`] — a deterministic time-stepped MANET simulator (unit-disk
//!   links, link events, HELLO beaconing, message accounting).
//! * [`cluster`] — one-hop clustering: LID, HCC, DMAC-style weights, with
//!   reactive LCC maintenance enforcing the paper's P1/P2 invariants.
//! * [`routing`] — proactive intra-cluster distance-vector, reactive
//!   inter-cluster discovery, and a flat DSDV baseline.
//! * [`mobility`] — CV / BCV, the paper's epoch random-direction model,
//!   classic random waypoint, and random walk.
//! * [`telemetry`] — the observability plane: structured event tracing,
//!   tumbling-window time series, JSONL persistence, and per-stage
//!   wall-clock spans with the tick-phase profile read from them
//!   (zero-cost when disabled).
//! * [`shard`] — spatially sharded worlds: ghost-margin shard plane and
//!   a deterministic parallel tick bit-identical to the monolithic stack
//!   (DESIGN.md §13).
//! * [`geom`], [`util`] — the spatial and numeric substrate.
//! * [`experiments`] — the harnesses that regenerate every figure and
//!   table of the paper (see DESIGN.md §5 and EXPERIMENTS.md).
//! * [`jobs`] — simulation-as-a-service: the `manet serve-jobs` scenario
//!   server with a bounded job queue, worker pool, and content-addressed
//!   seeded result cache (DESIGN.md §18).
//!
//! # Quickstart
//!
//! Predict the control overhead of a deployment, then confirm it in
//! simulation (this is `examples/quickstart.rs` in miniature):
//!
//! ```
//! use clustered_manet::model::{DegreeModel, NetworkParams, OverheadModel};
//! use clustered_manet::cluster::{Clustering, LowestId};
//! use clustered_manet::routing::intra::IntraClusterRouting;
//! use clustered_manet::sim::{QuietCtx, SimBuilder};
//! use clustered_manet::stack::ProtocolStack;
//!
//! // Analytical prediction.
//! let params = NetworkParams::new(200, 800.0, 120.0, 8.0)?;
//! let model = OverheadModel::new(params, DegreeModel::TorusExact);
//! let p = clustered_manet::model::lid::p_approx(model.expected_degree());
//! let predicted = model.breakdown(p);
//!
//! // Simulated confirmation (shortened run) through the staged stack:
//! // Mobility → Topology → HELLO → Cluster → Route per tick.
//! let world = SimBuilder::new()
//!     .side(800.0).nodes(200).radius(120.0).speed(8.0).seed(1).build();
//! let clustering = Clustering::form(LowestId, world.topology());
//! let mut stack = ProtocolStack::ideal(world, clustering, IntraClusterRouting::new());
//! let mut quiet = QuietCtx::new();
//! stack.prime(&mut quiet.ctx());
//! stack.world_mut().begin_measurement();
//! let agg = stack.run(50.0, &mut quiet.ctx());
//! assert_eq!(agg.msgs_lost(), 0, "the ideal stack loses nothing");
//! let f_hello = stack.world().counters().per_node_rate(
//!     clustered_manet::sim::MessageKind::Hello, 200, stack.world().measured_time());
//! assert!((f_hello - predicted.f_hello).abs() / predicted.f_hello < 0.5);
//! # Ok::<(), clustered_manet::model::params::ParamError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The paper's analytical overhead model (re-export of `manet-model`).
pub mod model {
    pub use manet_model::*;
}

/// The MANET simulator (re-export of `manet-sim`).
pub mod sim {
    pub use manet_sim::*;
}

/// One-hop clustering algorithms (re-export of `manet-cluster`).
pub mod cluster {
    pub use manet_cluster::*;
}

/// Routing substrates (re-export of `manet-routing`).
pub mod routing {
    pub use manet_routing::*;
}

/// The canonical protocol-stack tick pipeline (re-export of
/// `manet-stack`).
pub mod stack {
    pub use manet_stack::*;
}

/// Sharded worlds: ghost margins and the deterministic parallel tick
/// (re-export of `manet-shard`).
pub mod shard {
    pub use manet_shard::*;
}

/// Mobility models (re-export of `manet-mobility`).
pub mod mobility {
    pub use manet_mobility::*;
}

/// Telemetry plane: events, windows, traces, spans (re-export of
/// `manet-telemetry`).
pub mod telemetry {
    pub use manet_telemetry::*;
}

/// Geometry primitives (re-export of `manet-geom`).
pub mod geom {
    pub use manet_geom::*;
}

/// RNG, statistics, solvers, tables (re-export of `manet-util`).
pub mod util {
    pub use manet_util::*;
}

/// Figure/table regeneration harnesses (re-export of `manet-experiments`).
pub mod experiments {
    pub use manet_experiments::*;
}

/// Simulation-as-a-service jobs plane: scenario server, bounded queue,
/// seeded result cache (re-export of `manet-jobs`).
pub mod jobs {
    pub use manet_jobs::*;
}
