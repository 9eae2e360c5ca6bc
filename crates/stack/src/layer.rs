//! Pluggable cluster and routing stages of the canonical tick pipeline.

use manet_cluster::{
    ClusterAssignment, ClusterFlow, ClusterPolicy, Clustering, DHopClustering, InvariantViolation,
    SelfHealing,
};
use manet_routing::intra::{IntraClusterRouting, RouteUpdateOutcome};
use manet_sim::{Channel, NodeId, StepCtx, Topology};

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

    /// The node→head assignment the routing stage consumes.
    fn assignment(&self) -> &dyn ClusterAssignment;

    /// Current number of cluster-heads.
    fn head_count(&self) -> usize;

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

    fn assignment(&self) -> &dyn ClusterAssignment {
        self
    }

    fn head_count(&self) -> usize {
        Clustering::head_count(self)
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
        self.step(topology, alive, channel, ctx)
    }

    fn assignment(&self) -> &dyn ClusterAssignment {
        self.clustering()
    }

    fn head_count(&self) -> usize {
        self.clustering().head_count()
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
