//! Pluggable cluster and routing stages of the canonical tick pipeline.

use manet_cluster::{
    ClusterAssignment, ClusterPolicy, Clustering, DHopClustering, InvariantViolation,
    MaintenanceOutcome, RepairOutcome, SelfHealing,
};
use manet_routing::intra::{IntraClusterRouting, RouteUpdateOutcome};
use manet_sim::{Channel, Counters, MessageKind, NodeId, StageScope, StepCtx, Topology};

/// One tick's cluster-maintenance traffic, decomposed the way the shared
/// [`Counters`] account it: ordinary first-attempt sends vs retries vs
/// fault-repair traffic.
///
/// Plain (fault-free) cluster layers report zero retransmissions and
/// repairs, so [`ClusterFlow::cluster_messages`] collapses onto
/// [`MaintenanceOutcome::total_messages`] for them.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClusterFlow {
    /// The structural maintenance outcome (role changes, lost/deferred
    /// sends).
    pub maintenance: MaintenanceOutcome,
    /// Retries of previously lost sends.
    pub retransmissions: u64,
    /// Crash/recovery repair traffic.
    pub repairs: u64,
    /// P1/P2 violations among live nodes still open after this pass.
    pub violations_left: u64,
}

impl ClusterFlow {
    /// First-attempt CLUSTER sends attributable to ordinary mobility.
    pub fn cluster_messages(&self) -> u64 {
        self.maintenance.attempted_messages() - self.retransmissions - self.repairs
    }

    /// Records this flow into shared counters: ordinary sends as
    /// `CLUSTER`, retries as `RETX`, fault repairs as `REPAIR`.
    pub fn record(&self, counters: &mut Counters) {
        counters.record_kind(MessageKind::Cluster, self.cluster_messages());
        counters.record_kind(MessageKind::Retransmit, self.retransmissions);
        counters.record_kind(MessageKind::Repair, self.repairs);
    }

    /// Accumulates another tick into this one (keeping the *latest*
    /// `violations_left`).
    pub fn absorb(&mut self, other: ClusterFlow) {
        self.maintenance.absorb(other.maintenance);
        self.retransmissions += other.retransmissions;
        self.repairs += other.repairs;
        self.violations_left = other.violations_left;
    }
}

impl From<MaintenanceOutcome> for ClusterFlow {
    fn from(maintenance: MaintenanceOutcome) -> Self {
        ClusterFlow {
            maintenance,
            ..ClusterFlow::default()
        }
    }
}

impl From<RepairOutcome> for ClusterFlow {
    fn from(o: RepairOutcome) -> Self {
        ClusterFlow {
            maintenance: o.maintenance,
            retransmissions: o.retransmissions,
            repairs: o.repairs,
            violations_left: o.violations_left,
        }
    }
}

/// The cluster-maintenance stage of the pipeline.
///
/// Fault-free implementations ignore `alive` and `channel`; the
/// self-healing layer threads both into its retry gate. Either way the
/// stage runs under the tick's [`StepCtx`], so telemetry and explicit
/// fault hooks compose uniformly.
pub trait ClusterLayer {
    /// Runs one maintenance pass over the current topology.
    fn maintain(
        &mut self,
        topology: &Topology,
        alive: &[bool],
        channel: &mut Channel,
        ctx: &mut StepCtx<'_, '_>,
    ) -> ClusterFlow;

    /// [`ClusterLayer::maintain`] with a scoped worker pool for layers
    /// whose read-only scan can fan out per owner frame (DESIGN.md §17);
    /// such layers run the same sequential commit after either scan. The
    /// default ignores the scope and runs `maintain`.
    fn maintain_scoped(
        &mut self,
        topology: &Topology,
        alive: &[bool],
        channel: &mut Channel,
        ctx: &mut StepCtx<'_, '_>,
        scope: &mut StageScope<'_>,
    ) -> ClusterFlow {
        let _ = scope;
        self.maintain(topology, alive, channel, ctx) // stage-exempt: monolithic default
    }

    /// The node→head assignment the routing stage consumes.
    fn assignment(&self) -> &dyn ClusterAssignment;

    /// Current number of cluster-heads.
    fn head_count(&self) -> usize;

    /// Current head ratio `P` (heads / nodes).
    fn head_ratio(&self) -> f64;

    /// Structural invariant sample for the audit plane: `(adjacent head
    /// pairs, members without a reachable head)`. Layers whose invariants
    /// are not the one-hop P1/P2 pair return empty samples.
    fn audit_sample(&self, topology: &Topology) -> (Vec<(NodeId, NodeId)>, Vec<NodeId>) {
        let _ = topology;
        (Vec::new(), Vec::new())
    }
}

/// Splits one-hop P1/P2 violations into the audit plane's two families.
fn one_hop_audit<P: ClusterPolicy>(
    clustering: &Clustering<P>,
    topology: &Topology,
) -> (Vec<(NodeId, NodeId)>, Vec<NodeId>) {
    let mut pairs = Vec::new();
    let mut headless = Vec::new();
    for v in clustering.violations(topology) {
        match v {
            InvariantViolation::AdjacentHeads(a, b) => pairs.push((a, b)),
            InvariantViolation::HeadIsNotHead { member, .. }
            | InvariantViolation::HeadOutOfRange { member, .. } => headless.push(member),
        }
    }
    (pairs, headless)
}

impl<P: ClusterPolicy> ClusterLayer for Clustering<P> {
    fn maintain(
        &mut self,
        topology: &Topology,
        _alive: &[bool],
        _channel: &mut Channel,
        ctx: &mut StepCtx<'_, '_>,
    ) -> ClusterFlow {
        Clustering::maintain(self, topology, ctx).into()
    }

    fn maintain_scoped(
        &mut self,
        topology: &Topology,
        _alive: &[bool],
        _channel: &mut Channel,
        ctx: &mut StepCtx<'_, '_>,
        scope: &mut StageScope<'_>,
    ) -> ClusterFlow {
        Clustering::maintain_scoped(self, topology, ctx, scope).into()
    }

    fn assignment(&self) -> &dyn ClusterAssignment {
        self
    }

    fn head_count(&self) -> usize {
        Clustering::head_count(self)
    }

    fn head_ratio(&self) -> f64 {
        Clustering::head_ratio(self)
    }

    fn audit_sample(&self, topology: &Topology) -> (Vec<(NodeId, NodeId)>, Vec<NodeId>) {
        one_hop_audit(self, topology)
    }
}

impl<P: ClusterPolicy> ClusterLayer for SelfHealing<P> {
    fn maintain(
        &mut self,
        topology: &Topology,
        alive: &[bool],
        channel: &mut Channel,
        ctx: &mut StepCtx<'_, '_>,
    ) -> ClusterFlow {
        self.step(topology, alive, channel, ctx).into()
    }

    fn assignment(&self) -> &dyn ClusterAssignment {
        self.clustering()
    }

    fn head_count(&self) -> usize {
        self.clustering().head_count()
    }

    fn head_ratio(&self) -> f64 {
        self.clustering().head_ratio()
    }

    fn audit_sample(&self, topology: &Topology) -> (Vec<(NodeId, NodeId)>, Vec<NodeId>) {
        one_hop_audit(self.clustering(), topology)
    }
}

/// A d-hop cluster structure paired with the policy that maintains it, so
/// the stack can drive [`DHopClustering::maintain`] (which takes the
/// policy per call) through the uniform [`ClusterLayer`] interface.
pub struct DHopLayer<P: ClusterPolicy> {
    /// The headship policy maintenance re-runs locally.
    pub policy: P,
    /// The d-hop structure itself.
    pub clustering: DHopClustering,
}

impl<P: ClusterPolicy> DHopLayer<P> {
    /// Wraps an existing d-hop structure with its maintenance policy.
    pub fn new(policy: P, clustering: DHopClustering) -> Self {
        DHopLayer { policy, clustering }
    }
}

impl<P: ClusterPolicy> ClusterLayer for DHopLayer<P> {
    fn maintain(
        &mut self,
        topology: &Topology,
        _alive: &[bool],
        _channel: &mut Channel,
        ctx: &mut StepCtx<'_, '_>,
    ) -> ClusterFlow {
        // stage-exempt: the d-hop layer's monolithic adapter
        self.clustering.maintain(&self.policy, topology, ctx).into()
    }

    fn assignment(&self) -> &dyn ClusterAssignment {
        &self.clustering
    }

    fn head_count(&self) -> usize {
        self.clustering.head_count()
    }

    fn head_ratio(&self) -> f64 {
        self.clustering.head_ratio()
    }
    // audit_sample: default empty — the d-hop invariants are not the
    // one-hop P1/P2 pair the audit plane samples.
}

/// A cluster-less stage: no structure, no maintenance traffic. Useful when
/// exercising a single layer (e.g. HELLO accuracy sweeps) through the
/// same pipeline.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoClustering;

impl ClusterAssignment for NoClustering {
    fn node_count(&self) -> usize {
        0
    }

    fn cluster_head_of(&self, u: NodeId) -> NodeId {
        u
    }
}

impl ClusterLayer for NoClustering {
    fn maintain(
        &mut self,
        _topology: &Topology,
        _alive: &[bool],
        _channel: &mut Channel,
        _ctx: &mut StepCtx<'_, '_>,
    ) -> ClusterFlow {
        ClusterFlow::default()
    }

    fn assignment(&self) -> &dyn ClusterAssignment {
        self
    }

    fn head_count(&self) -> usize {
        0
    }

    fn head_ratio(&self) -> f64 {
        0.0
    }
}

/// The proactive routing stage of the pipeline.
pub trait RouteLayer {
    /// Advances the routing layer by one tick of length `dt`.
    fn update(
        &mut self,
        dt: f64,
        topology: &Topology,
        clusters: &dyn ClusterAssignment,
        channel: &mut Channel,
        ctx: &mut StepCtx<'_, '_>,
    ) -> RouteUpdateOutcome;

    /// [`RouteLayer::update`] with a scoped worker pool for layers whose
    /// snapshot scans can fan out per owner frame (DESIGN.md §17). The
    /// default ignores the scope and stays sequential.
    #[allow(clippy::too_many_arguments)]
    fn update_scoped(
        &mut self,
        dt: f64,
        topology: &Topology,
        clusters: &dyn ClusterAssignment,
        channel: &mut Channel,
        ctx: &mut StepCtx<'_, '_>,
        scope: &mut StageScope<'_>,
    ) -> RouteUpdateOutcome {
        let _ = scope;
        self.update(dt, topology, clusters, channel, ctx) // stage-exempt: monolithic default
    }
}

impl RouteLayer for IntraClusterRouting {
    fn update(
        &mut self,
        dt: f64,
        topology: &Topology,
        clusters: &dyn ClusterAssignment,
        channel: &mut Channel,
        ctx: &mut StepCtx<'_, '_>,
    ) -> RouteUpdateOutcome {
        IntraClusterRouting::update(self, dt, topology, clusters, channel, ctx)
    }

    fn update_scoped(
        &mut self,
        dt: f64,
        topology: &Topology,
        clusters: &dyn ClusterAssignment,
        channel: &mut Channel,
        ctx: &mut StepCtx<'_, '_>,
        scope: &mut StageScope<'_>,
    ) -> RouteUpdateOutcome {
        IntraClusterRouting::update_scoped(self, dt, topology, clusters, channel, ctx, scope)
    }
}

/// A routing-less stage: no tables, no ROUTE traffic.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoRouting;

impl RouteLayer for NoRouting {
    fn update(
        &mut self,
        _dt: f64,
        _topology: &Topology,
        _clusters: &dyn ClusterAssignment,
        _channel: &mut Channel,
        _ctx: &mut StepCtx<'_, '_>,
    ) -> RouteUpdateOutcome {
        RouteUpdateOutcome::default()
    }
}
