//! The control-overhead lower bounds (paper Eqns 4–14).
//!
//! All frequencies are **per node per second**; bit overheads are **bits
//! per node per second**. The cluster-head ratio `P` is a free input —
//! measure it from a live system or predict it with [`crate::lid`] — which
//! is exactly how the paper treats it ("P … can be viewed as a metric of a
//! particular clustering algorithm").
//!
//! Two deliberately exposed modeling switches record ambiguities in the
//! paper's corrupted equations (DESIGN.md §4):
//!
//! * [`HeadContactConvention`] — whether the head–head contact event rate
//!   divides by 2 for pair double-counting ([`PerPair`] is the convention
//!   our simulator confirms; [`PerEndpoint`] is the literal reading of the
//!   paper's Eqn 10).
//! * [`RouteLinkModel`] — whether intra-cluster links include
//!   member↔member pairs (the κ disc-overlap term). [`WithMemberMember`]
//!   is required to reproduce the paper's own Θ(r) growth for ROUTE
//!   (Section 6); [`MemberHeadOnly`] is the naive star-topology reading.
//!
//! [`PerPair`]: HeadContactConvention::PerPair
//! [`PerEndpoint`]: HeadContactConvention::PerEndpoint
//! [`WithMemberMember`]: RouteLinkModel::WithMemberMember
//! [`MemberHeadOnly`]: RouteLinkModel::MemberHeadOnly

use crate::degree::DegreeModel;
use crate::params::NetworkParams;
use manet_geom::linkdist::DISC_SAME_RADIUS_LINK_PROB;
use std::f64::consts::PI;

/// Counting convention for head–head contact events (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum HeadContactConvention {
    /// Each contact counted once per head pair (event rate `NP·λ′/2`).
    /// Matches the simulator.
    #[default]
    PerPair,
    /// Each contact counted at both heads (event rate `NP·λ′`), the literal
    /// reading of the paper's Eqn 10. Exactly 2× `PerPair`.
    PerEndpoint,
}

/// Which links count as "within the cluster" for ROUTE updates (see module
/// docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RouteLinkModel {
    /// Member↔head links plus member↔member links between co-members
    /// (probability κ ≈ 0.5865 that two nodes in the head's disc are in
    /// range of each other). Default; matches this workspace's simulator,
    /// which re-broadcasts on *every* intra-cluster link change.
    #[default]
    WithMemberMember,
    /// Only the `m−1` member↔head star links — the literal reading of the
    /// paper's Eqn 13 (`f_routing = 16v(1−P)/(π²·r·P)`).
    MemberHeadOnly,
}

/// How cluster sizes are distributed around the mean `m = 1/P` when
/// evaluating the ROUTE bound.
///
/// The intra-cluster link count `L(m)` is convex in `m`, and per-node
/// ROUTE traffic weights clusters by a further factor of `m`
/// (`f = 2μ·E[L(m)·m]/E[m]`), so size dispersion inflates traffic well
/// above the paper's point estimate `2μ·L(m̄)`. Our LID simulations
/// measure a factor ≈ 4.5–5 — between [`Fixed`] (×1) and [`Exponential`]
/// (×6 asymptotically); see the `route_model_ablation` experiment.
///
/// [`Fixed`]: ClusterSizeModel::Fixed
/// [`Exponential`]: ClusterSizeModel::Exponential
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ClusterSizeModel {
    /// All clusters have exactly the mean size (the paper's implicit
    /// assumption). Default.
    #[default]
    Fixed,
    /// Cluster sizes exponentially distributed with mean `m̄`:
    /// `E[m²] = 2m̄²`, `E[m³] = 6m̄³`.
    Exponential,
}

/// Per-node overhead decomposition returned by
/// [`OverheadModel::breakdown`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadBreakdown {
    /// HELLO frequency (Eqn 4), msgs/node/s.
    pub f_hello: f64,
    /// CLUSTER frequency, member–head-break term (Eqns 6–7), msgs/node/s.
    pub f_cluster_break: f64,
    /// CLUSTER frequency, head–contact term (Eqns 8–10), msgs/node/s.
    pub f_cluster_contact: f64,
    /// Total CLUSTER frequency (Eqn 11), msgs/node/s.
    pub f_cluster: f64,
    /// ROUTE frequency (Eqn 13), msgs/node/s.
    pub f_route: f64,
    /// HELLO bit overhead (Eqn 5), bits/node/s.
    pub o_hello: f64,
    /// CLUSTER bit overhead (Eqn 12), bits/node/s.
    pub o_cluster: f64,
    /// ROUTE bit overhead (Eqn 14), bits/node/s.
    pub o_route: f64,
    /// Total control overhead `O_hello + O_cluster + O_route`, bits/node/s.
    pub o_total: f64,
}

/// The assembled overhead model: parameters + degree model + conventions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadModel {
    params: NetworkParams,
    degree_model: DegreeModel,
    contact_convention: HeadContactConvention,
    route_links: RouteLinkModel,
    size_model: ClusterSizeModel,
}

impl OverheadModel {
    /// Creates a model with the default conventions (`PerPair`,
    /// `WithMemberMember`).
    pub fn new(params: NetworkParams, degree_model: DegreeModel) -> Self {
        OverheadModel {
            params,
            degree_model,
            contact_convention: HeadContactConvention::default(),
            route_links: RouteLinkModel::default(),
            size_model: ClusterSizeModel::default(),
        }
    }

    /// Overrides the cluster-size dispersion model for the ROUTE bound.
    pub fn with_size_model(mut self, m: ClusterSizeModel) -> Self {
        self.size_model = m;
        self
    }

    /// Overrides the head-contact counting convention.
    pub fn with_contact_convention(mut self, c: HeadContactConvention) -> Self {
        self.contact_convention = c;
        self
    }

    /// Overrides the intra-cluster link model for ROUTE.
    pub fn with_route_links(mut self, m: RouteLinkModel) -> Self {
        self.route_links = m;
        self
    }

    /// The parameters in force.
    pub fn params(&self) -> &NetworkParams {
        &self.params
    }

    /// The degree model in force.
    pub fn degree_model(&self) -> DegreeModel {
        self.degree_model
    }

    /// Expected degree `d` (Claim 1 / torus variant).
    pub fn expected_degree(&self) -> f64 {
        self.degree_model.expected_degree(&self.params)
    }

    /// Per-node total link change rate `λ = 16·d·v/(π²·r)` (Claim 2,
    /// Eqn 3).
    pub fn link_change_rate(&self) -> f64 {
        manet_mobility::rates::link_change_rate_for_degree(
            self.expected_degree(),
            self.params.radius(),
            self.params.speed(),
        )
    }

    /// Per-link break rate `μ = 8v/(π²·r)`.
    fn per_link_break_rate(&self) -> f64 {
        manet_mobility::rates::per_link_break_rate(self.params.radius(), self.params.speed())
    }

    /// HELLO frequency (Eqn 4): the link generation rate,
    /// `f_hello = 8·d·v/(π²·r)`.
    pub fn f_hello(&self) -> f64 {
        self.link_change_rate() / 2.0
    }

    /// CLUSTER frequency from member–head link breaks (Eqns 6–7), averaged
    /// over all `N` nodes: each of the `N(1−P)` members holds one link to
    /// its head, breaking at the per-link rate `μ`, and answers with one
    /// CLUSTER message: `f = (1−P)·μ = 8·v·(1−P)/(π²·r)`.
    ///
    /// # Panics
    ///
    /// Panics unless `p ∈ [0, 1]`.
    pub fn f_cluster_break(&self, p: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&p),
            "head ratio must be in [0, 1], got {p}"
        );
        (1.0 - p) * self.per_link_break_rate()
    }

    /// CLUSTER frequency from head–head contacts (Eqns 8–10), averaged over
    /// all `N` nodes.
    ///
    /// Per-head contact generation rate `λ′ = 8·d′·v/(π²·r)` with the
    /// thinned head degree `d′` (Eqn 9); each contact re-homes a whole
    /// cluster (`m = 1/P` messages). Under [`HeadContactConvention::PerPair`]
    /// the network event rate is `N·P·λ′/2`, giving per-node frequency
    /// `λ′/2 · (P·m) = 4·d′·v/(π²·r)`; `PerEndpoint` doubles it.
    ///
    /// # Panics
    ///
    /// Panics unless `p ∈ [0, 1]`.
    pub fn f_cluster_contact(&self, p: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&p),
            "head ratio must be in [0, 1], got {p}"
        );
        let d_head = self.degree_model.expected_head_degree(&self.params, p);
        let lambda_gen_head = 8.0 * d_head * self.params.speed() / (PI * PI * self.params.radius());
        match self.contact_convention {
            HeadContactConvention::PerPair => lambda_gen_head / 2.0,
            HeadContactConvention::PerEndpoint => lambda_gen_head,
        }
    }

    /// Total CLUSTER frequency (Eqn 11).
    pub fn f_cluster(&self, p: f64) -> f64 {
        self.f_cluster_break(p) + self.f_cluster_contact(p)
    }

    /// Expected number of intra-cluster links per cluster, `L(m)`, for mean
    /// cluster size `m = 1/P`: the `m−1` member–head links plus (under
    /// [`RouteLinkModel::WithMemberMember`]) `κ·(m−1)(m−2)/2` member pairs
    /// within range (members live in the head's disc of radius `r`; two
    /// uniform points in that disc are within `r` with probability
    /// κ ≈ 0.5865).
    pub fn intra_cluster_links(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p <= 1.0, "head ratio must be in (0, 1], got {p}");
        let m = 1.0 / p;
        let star = (m - 1.0).max(0.0);
        match self.route_links {
            RouteLinkModel::MemberHeadOnly => star,
            RouteLinkModel::WithMemberMember => {
                let pairs = ((m - 1.0) * (m - 2.0) / 2.0).max(0.0);
                star + DISC_SAME_RADIUS_LINK_PROB * pairs
            }
        }
    }

    /// ROUTE frequency (Eqn 13 reconstruction): every intra-cluster link
    /// change (break or generation, total per-link rate `2μ`) triggers one
    /// update round through the cluster at one message per node, so the
    /// per-node frequency equals the per-cluster intra-link change rate:
    /// `f_route = 2·μ·L(1/P)`.
    ///
    /// # Panics
    ///
    /// Panics unless `p ∈ (0, 1]`.
    pub fn f_route(&self, p: f64) -> f64 {
        let mu = self.per_link_break_rate();
        match self.size_model {
            ClusterSizeModel::Fixed => 2.0 * mu * self.intra_cluster_links(p),
            ClusterSizeModel::Exponential => {
                // f = 2μ·E[L(m)·m]/E[m] with m ~ Exp(m̄):
                //   member–head part: E[(m−1)m]/m̄ = 2m̄ − 1
                //   member pairs:     E[(m−1)(m−2)m/2]/m̄ = 3m̄² − 3m̄ + 1
                assert!(p > 0.0 && p <= 1.0, "head ratio must be in (0, 1], got {p}");
                let m = 1.0 / p;
                let star = (2.0 * m - 1.0).max(0.0);
                let pairs = match self.route_links {
                    RouteLinkModel::MemberHeadOnly => 0.0,
                    RouteLinkModel::WithMemberMember => {
                        DISC_SAME_RADIUS_LINK_PROB * (3.0 * m * m - 3.0 * m + 1.0).max(0.0)
                    }
                };
                2.0 * mu * (star + pairs)
            }
        }
    }

    /// Expected CLUSTER messages per head-contact event.
    ///
    /// Delegates to the module-level [`contact_unit_cost`].
    ///
    /// # Panics
    ///
    /// Panics unless `p ∈ (0, 1]`.
    pub fn contact_unit_cost(&self, p: f64) -> f64 {
        contact_unit_cost(p)
    }

    /// Expected ROUTE messages per intra-cluster link change.
    ///
    /// Delegates to the module-level [`route_unit_cost`] with this
    /// model's [`RouteLinkModel`] convention.
    ///
    /// # Panics
    ///
    /// Panics unless `p ∈ (0, 1]`.
    pub fn route_unit_cost(&self, p: f64) -> f64 {
        route_unit_cost(p, self.route_links)
    }

    /// Full per-node breakdown at head ratio `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `p ∈ (0, 1]`.
    pub fn breakdown(&self, p: f64) -> OverheadBreakdown {
        let sizes = self.params.sizes();
        let f_hello = self.f_hello();
        let f_cluster_break = self.f_cluster_break(p);
        let f_cluster_contact = self.f_cluster_contact(p);
        let f_cluster = f_cluster_break + f_cluster_contact;
        let f_route = self.f_route(p);
        let o_hello = f_hello * sizes.hello as f64 * 8.0;
        let o_cluster = f_cluster * sizes.cluster as f64 * 8.0;
        // Each ROUTE message carries the node's full intra-cluster table,
        // `m = 1/P` entries of `p_route` bytes (Eqn 14). The paper's Θ rows
        // for ROUTE (`Θ(r)·Θ(ρ)·Θ(v)`) and its conclusion that ROUTE
        // dominates total overhead are only consistent with its Eqn 13
        // under this reading — the `1/P²` visible in the corrupted Eqn 14
        // denominator.
        let entries_per_message = 1.0 / p;
        let o_route = f_route * entries_per_message * sizes.route_entry as f64 * 8.0;
        OverheadBreakdown {
            f_hello,
            f_cluster_break,
            f_cluster_contact,
            f_cluster,
            f_route,
            o_hello,
            o_cluster,
            o_route,
            o_total: o_hello + o_cluster + o_route,
        }
    }
}

/// Gamma shape of the normalized 2-D Poisson–Voronoi cell-area
/// distribution (Kiang's classic fit). Cluster populations inherit the
/// dispersion of the head dominance regions, so the size distribution is
/// modeled as `m ~ Gamma(k, m̄/k)`.
pub const VORONOI_AREA_GAMMA_SHAPE: f64 = 3.575;

/// Expected CLUSTER messages per head-contact event: the losing cluster
/// dissolves, costing one resignation plus one re-affiliation per member,
/// i.e. the loser's population at contact time.
///
/// The paper's first-order factor is the mean size `m̄ = 1/P` (Eqn 10).
/// That overstates the per-event cost: a cluster that loses a contact
/// resigns and later re-emerges at size 1 (a fresh promotion), regrowing
/// toward `m̄` until its next contact. Sampling the regrowth uniformly in
/// time — contacts arrive roughly independently of cluster age — catches
/// the loser midway, at `(m̄ + 1)/2`.
///
/// # Panics
///
/// Panics unless `p ∈ (0, 1]`.
pub fn contact_unit_cost(p: f64) -> f64 {
    assert!(p > 0.0 && p <= 1.0, "head ratio must be in (0, 1], got {p}");
    (1.0 / p + 1.0) / 2.0
}

/// Expected ROUTE messages per intra-cluster link change: one sync round
/// of `m` messages through the cluster whose link changed.
///
/// Link changes land on clusters in proportion to their intra-cluster
/// link count `L(m)`, so the per-change cost is the link-weighted mean
/// size `E[m·L(m)] / E[L(m)]` — strictly above the first-order `m̄ = 1/P`
/// whenever sizes disperse, because `L` grows quadratically in `m`. The
/// size distribution is modeled as `Gamma(k)` with mean `m̄` and the
/// Poisson–Voronoi shape [`VORONOI_AREA_GAMMA_SHAPE`], giving closed-form
/// moments `E[m²] = m̄²(1+1/k)` and `E[m³] = m̄³(1+1/k)(1+2/k)`.
///
/// # Panics
///
/// Panics unless `p ∈ (0, 1]`.
pub fn route_unit_cost(p: f64, links: RouteLinkModel) -> f64 {
    assert!(p > 0.0 && p <= 1.0, "head ratio must be in (0, 1], got {p}");
    let m = 1.0 / p;
    let k = VORONOI_AREA_GAMMA_SHAPE;
    let m2 = m * m * (1.0 + 1.0 / k);
    let m3 = m * m * m * (1.0 + 1.0 / k) * (1.0 + 2.0 / k);
    // E[L] and E[m·L] for L(m) = (m−1) + κ·(m−1)(m−2)/2.
    let (links_mean, links_size_weighted) = match links {
        RouteLinkModel::MemberHeadOnly => ((m - 1.0).max(0.0), (m2 - m).max(0.0)),
        RouteLinkModel::WithMemberMember => {
            let half_kappa = DISC_SAME_RADIUS_LINK_PROB / 2.0;
            let el = (m - 1.0) + half_kappa * (m2 - 3.0 * m + 2.0);
            let eml = (m2 - m) + half_kappa * (m3 - 3.0 * m2 + 2.0 * m);
            (el.max(0.0), eml.max(0.0))
        }
    };
    if links_mean <= 0.0 {
        m
    } else {
        links_size_weighted / links_mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> OverheadModel {
        let params = NetworkParams::new(400, 1000.0, 150.0, 10.0).unwrap();
        OverheadModel::new(params, DegreeModel::TorusExact)
    }

    #[test]
    fn contact_unit_cost_is_midway_through_regrowth() {
        // Singleton clusters (p = 1) cost exactly the one resignation.
        assert!((contact_unit_cost(1.0) - 1.0).abs() < 1e-12);
        // Mean size 10 → loser caught midway between 1 and 10.
        assert!((contact_unit_cost(0.1) - 5.5).abs() < 1e-12);
    }

    #[test]
    fn route_unit_cost_is_size_biased_above_the_mean() {
        for links in [
            RouteLinkModel::MemberHeadOnly,
            RouteLinkModel::WithMemberMember,
        ] {
            let cost = route_unit_cost(0.1, links);
            // Link-weighting over a dispersed size distribution pulls the
            // per-change cost above the plain mean m̄ = 10 ...
            assert!(cost > 10.0, "{links:?}: {cost}");
            // ... but stays below the exponential-dispersion extreme.
            assert!(cost < 30.0, "{links:?}: {cost}");
        }
        // Member-member pairs weight large clusters harder than the star.
        assert!(
            route_unit_cost(0.1, RouteLinkModel::WithMemberMember)
                > route_unit_cost(0.1, RouteLinkModel::MemberHeadOnly)
        );
        // Degenerate all-heads network: a round is a single self message.
        assert!((route_unit_cost(1.0, RouteLinkModel::MemberHeadOnly) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hello_equals_half_the_link_change_rate() {
        let m = model();
        assert!((m.f_hello() - m.link_change_rate() / 2.0).abs() < 1e-15);
        // Closed form: 8 d v / (π² r).
        let d = m.expected_degree();
        let expect = 8.0 * d * 10.0 / (PI * PI * 150.0);
        assert!((m.f_hello() - expect).abs() < 1e-12);
    }

    #[test]
    fn cluster_terms_behave_with_p() {
        let m = model();
        // Break term decreases linearly in P.
        assert!(m.f_cluster_break(0.1) > m.f_cluster_break(0.5));
        assert_eq!(m.f_cluster_break(1.0), 0.0);
        // Contact term increases with P (more heads, more contacts).
        assert!(m.f_cluster_contact(0.3) > m.f_cluster_contact(0.05));
        assert_eq!(m.f_cluster_contact(0.0), 0.0);
        // Total is the sum.
        let p = 0.2;
        assert!((m.f_cluster(p) - m.f_cluster_break(p) - m.f_cluster_contact(p)).abs() < 1e-15);
    }

    #[test]
    fn per_endpoint_convention_doubles_contact_term() {
        let m = model();
        let m2 = model().with_contact_convention(HeadContactConvention::PerEndpoint);
        let p = 0.1;
        assert!((m2.f_cluster_contact(p) - 2.0 * m.f_cluster_contact(p)).abs() < 1e-12);
    }

    #[test]
    fn route_link_models_nest() {
        let with = model();
        let without = model().with_route_links(RouteLinkModel::MemberHeadOnly);
        let p = 0.1; // m = 10
        assert!(with.intra_cluster_links(p) > without.intra_cluster_links(p));
        assert!((without.intra_cluster_links(p) - 9.0).abs() < 1e-12);
        let kappa = DISC_SAME_RADIUS_LINK_PROB;
        let expect = 9.0 + kappa * 9.0 * 8.0 / 2.0;
        assert!((with.intra_cluster_links(p) - expect).abs() < 1e-12);
        // Singleton clusters (P = 1) carry no intra links and no ROUTE load.
        assert_eq!(with.intra_cluster_links(1.0), 0.0);
        assert_eq!(with.f_route(1.0), 0.0);
    }

    #[test]
    fn breakdown_is_internally_consistent() {
        let m = model();
        let b = m.breakdown(0.064);
        assert!((b.f_cluster - b.f_cluster_break - b.f_cluster_contact).abs() < 1e-15);
        assert!((b.o_total - b.o_hello - b.o_cluster - b.o_route).abs() < 1e-9);
        assert!((b.o_hello - b.f_hello * 128.0).abs() < 1e-9); // 16 B = 128 bits
                                                               // The paper's headline: ROUTE dominates.
        assert!(b.o_route > b.o_cluster && b.o_route > b.o_hello);
    }

    #[test]
    fn frequencies_scale_linearly_with_speed() {
        let p = 0.1;
        let m1 = model();
        let params2 = NetworkParams::new(400, 1000.0, 150.0, 20.0).unwrap();
        let m2 = OverheadModel::new(params2, DegreeModel::TorusExact);
        for (a, b) in [
            (m1.f_hello(), m2.f_hello()),
            (m1.f_cluster(p), m2.f_cluster(p)),
            (m1.f_route(p), m2.f_route(p)),
        ] {
            assert!((b - 2.0 * a).abs() < 1e-9, "{b} != 2×{a}");
        }
    }

    #[test]
    fn zero_speed_means_zero_overhead() {
        let params = NetworkParams::new(400, 1000.0, 150.0, 0.0).unwrap();
        let m = OverheadModel::new(params, DegreeModel::TorusExact);
        let b = m.breakdown(0.1);
        assert_eq!(b.o_total, 0.0);
    }

    #[test]
    #[should_panic(expected = "head ratio")]
    fn bad_ratio_panics() {
        model().f_cluster(1.5);
    }
}
#[cfg(test)]
mod size_model_tests {
    use super::*;

    #[test]
    fn exponential_dispersion_inflates_route_by_about_six() {
        let params = NetworkParams::new(400, 1000.0, 150.0, 10.0).unwrap();
        let fixed = OverheadModel::new(params, DegreeModel::TorusExact);
        let exp = fixed.with_size_model(ClusterSizeModel::Exponential);
        let p = 0.02; // m = 50, deep in the quadratic regime
        let ratio = exp.f_route(p) / fixed.f_route(p);
        assert!((5.0..7.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn dispersion_affects_only_route() {
        let params = NetworkParams::new(400, 1000.0, 150.0, 10.0).unwrap();
        let fixed = OverheadModel::new(params, DegreeModel::TorusExact);
        let exp = fixed.with_size_model(ClusterSizeModel::Exponential);
        assert_eq!(fixed.f_hello(), exp.f_hello());
        assert_eq!(fixed.f_cluster(0.1), exp.f_cluster(0.1));
    }
}
