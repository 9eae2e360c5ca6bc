//! Analytical model of clustering and routing control overhead for one-hop
//! clustered mobile ad hoc networks.
//!
//! This crate is the Rust implementation of the contribution of
//!
//! > Xue, Er & Seah, *"Analysis of Clustering and Routing Overhead for
//! > Clustered Mobile Ad Hoc Networks"*, ICDCS 2006,
//!
//! which derives closed-form lower bounds for the per-node frequency and
//! bit rate of the three control-message categories of a clustered MANET —
//! HELLO (neighbor discovery), CLUSTER (reactive cluster maintenance), and
//! ROUTE (proactive intra-cluster routing) — as functions of network size
//! `N`, density `ρ`, transmission range `r`, node speed `v`, and the
//! cluster-head ratio `P`.
//!
//! Module map (equation numbers refer to the paper; see DESIGN.md §4 for
//! the reconstruction notes — the available text is OCR-corrupted around
//! every display equation):
//!
//! * [`params`] — [`NetworkParams`]: the `(N, a, r, v, sizes)` tuple with
//!   validation.
//! * [`degree`] — Claim 1: expected degree under the border-corrected
//!   (Miller) and torus-exact models (Eqn 1).
//! * [`overhead`] — Eqns 4–14: `f_hello`, `f_cluster` (decomposed into its
//!   member–head-break and head–contact terms), `f_route`, and the
//!   corresponding bit overheads.
//! * [`lid`] — Section 5: the Lowest-ID head ratio, exact (Eqn 16, fixed
//!   point) and approximate (Eqns 17–18), plus the Caro–Wei comparison
//!   estimate this reproduction adds.
//! * [`asymptotics`] — Section 6: numerical verification of the Θ-notation
//!   growth exponents.
//!
//! # Example
//!
//! ```
//! use manet_model::{DegreeModel, NetworkParams, OverheadModel};
//!
//! let params = NetworkParams::new(400, 1000.0, 150.0, 10.0)?;
//! let model = OverheadModel::new(params, DegreeModel::TorusExact);
//! let p = manet_model::lid::p_approx(model.expected_degree());
//! let b = model.breakdown(p);
//! assert!(b.f_route > b.f_cluster); // ROUTE dominates (paper §6)
//! # Ok::<(), manet_model::params::ParamError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asymptotics;
pub mod capacity;
pub mod degree;
pub mod dhop;
pub mod lid;
pub mod overhead;
pub mod params;

pub use degree::DegreeModel;
pub use overhead::{
    contact_unit_cost, route_unit_cost, ClusterSizeModel, HeadContactConvention, OverheadBreakdown,
    OverheadModel, RouteLinkModel,
};
pub use params::NetworkParams;
