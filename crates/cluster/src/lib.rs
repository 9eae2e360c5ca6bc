//! One-hop clustering algorithms for mobile ad hoc networks.
//!
//! Implements the class of clustering algorithms the paper analyzes: every
//! node is either a **cluster-head** or a **member** affiliated with exactly
//! one neighboring head, and the structure satisfies the two properties of
//! the paper's Section 2:
//!
//! * **P1** — no two cluster-heads are directly connected;
//! * **P2** — every member has exactly one cluster-head, at most one hop
//!   away.
//!
//! The crate separates *policy* from *mechanism*:
//!
//! * [`policy`] — how headship contests are decided. [`LowestId`] (the
//!   paper's case-study algorithm), [`HighestConnectivity`] (HCC), and
//!   [`StaticWeights`] (DMAC-style generic weights) are provided.
//! * [`engine`] — shared formation and **reactive LCC-style maintenance**
//!   (Least Clusterhead Change): clusters are only touched when P1/P2 break,
//!   which is the lower-bound maintenance regime the paper analyzes. The
//!   engine counts every CLUSTER message it would transmit, split by
//!   trigger (member–head link break vs head–head contact) so the analytical
//!   decomposition of Eqns 6–11 can be validated term by term.
//! * [`stats`] — head-ratio and cluster-size statistics (the paper's `P`
//!   and `m`).
//!
//! # Example
//!
//! ```
//! use manet_cluster::{Clustering, LowestId};
//! use manet_sim::{QuietCtx, SimBuilder};
//!
//! let mut world = SimBuilder::new().nodes(100).seed(5).build();
//! let mut clustering = Clustering::form(LowestId, world.topology());
//! clustering.check_invariants(world.topology()).unwrap();
//! let mut quiet = QuietCtx::new();
//! for _ in 0..40 {
//!     world.step(&mut quiet.ctx());
//!     let outcome = clustering.maintain(world.topology(), &mut quiet.ctx());
//!     let _ = outcome.total_messages();
//!     clustering.check_invariants(world.topology()).unwrap();
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assignment;
pub mod dhop;
pub mod engine;
pub mod policy;
pub mod repair;
pub mod stability;
pub mod stats;

pub use assignment::ClusterAssignment;
pub use dhop::DHopClustering;
pub use engine::{
    Attempt, ClusterFlow, Clustering, FaultHooks, FormationStats, InvariantViolation,
    MaintenanceOutcome, NoFaults,
};
pub use policy::{ClusterPolicy, HighestConnectivity, LowestId, Priority, StaticWeights};
pub use repair::{Backoff, SelfHealing};
pub use stability::StabilityTracker;
pub use stats::ClusterStats;

use manet_sim::NodeId;

/// The role a node holds in the cluster structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// The node leads a cluster.
    Head,
    /// The node is affiliated with the (one-hop) head `head`.
    Member {
        /// The node's cluster-head.
        head: NodeId,
    },
}

impl Role {
    /// Whether this role is `Head`.
    pub fn is_head(self) -> bool {
        matches!(self, Role::Head)
    }
}
