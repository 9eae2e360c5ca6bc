//! A deterministic, time-stepped wireless ad hoc network simulator.
//!
//! The simulator models what the paper measures and nothing more: node
//! motion (via any [`manet_mobility::Mobility`] model), unit-disk links
//! under a configurable [`manet_geom::Metric`], the link **generation** and
//! **break** events the motion induces, the HELLO neighbor-discovery
//! protocol, and per-message-type control-overhead accounting. Radio
//! details (interference, MAC, propagation) play no role in the paper's
//! metrics and are deliberately out of scope — see DESIGN.md §2.
//!
//! Protocol layers (clustering in `manet-cluster`, routing in
//! `manet-routing`) are driven *on top of* the simulator: each
//! [`World::step`] returns the tick's [`LinkEvent`]s, the layers react and
//! report how many control messages they emitted, and the shared
//! [`Counters`] accumulate them.
//!
//! # Example
//!
//! ```
//! use manet_sim::{MessageKind, QuietCtx, SimBuilder};
//!
//! let mut world = SimBuilder::new()
//!     .side(500.0)
//!     .nodes(80)
//!     .radius(100.0)
//!     .speed(10.0)
//!     .seed(7)
//!     .build();
//! let mut quiet = QuietCtx::new();
//! world.run_for(30.0, &mut quiet.ctx());          // warm up
//! world.begin_measurement();
//! world.run_for(60.0, &mut quiet.ctx());
//! let f_hello = world.counters().per_node_rate(
//!     MessageKind::Hello,
//!     world.node_count(),
//!     world.measured_time(),
//! );
//! assert!(f_hello > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod counters;
pub mod ctx;
pub mod error;
pub mod fault;
pub mod hello;
pub mod lifetime;
pub mod stage;
pub mod topology;
pub mod world;

pub use builder::{MobilityKind, SimBuilder};
pub use counters::{Counters, MessageKind, MessageSizes};
pub use ctx::{Attempt, FaultHooks, NoFaults, QuietCtx, StepCtx, TickSpan};
pub use error::SimError;
pub use fault::{
    Channel, ChurnEvent, ChurnKind, ChurnSchedule, FaultError, FaultPlan, LossModel, StallEvent,
    StallSchedule, STREAM_CLUSTER, STREAM_HELLO, STREAM_ROUTE,
};
pub use hello::{HelloProtocol, ViewAccuracy};
pub use lifetime::LinkLifetimes;
pub use stage::{MobilityStage, WorldStages};
pub use topology::{GridTopology, LinkEvent, LinkEventKind, Topology, TopologyBuilder};
pub use world::{StepReport, World};

/// Identifier of a node, an index into the simulation's node arrays.
pub type NodeId = u32;
