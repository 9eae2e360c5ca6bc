//! The aggregated per-tick (or per-window) report of a stack run.

use manet_cluster::ClusterFlow;
use manet_routing::intra::RouteUpdateOutcome;

/// Everything one [`ProtocolStack::tick`](crate::ProtocolStack::tick)
/// produced, across all layers.
///
/// Unlike the world-level `StepReport` — whose `hello_lost` counts HELLO
/// drops only — [`StackReport::msgs_lost`] aggregates losses from every
/// layer the stack drove this tick.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StackReport {
    /// Simulation time after the tick (latest tick when aggregated).
    pub time: f64,
    /// Links generated.
    pub generated: u64,
    /// Links broken.
    pub broken: u64,
    /// Nodes crashed (churn schedule).
    pub crashed: u64,
    /// Nodes recovered (churn schedule).
    pub recovered: u64,
    /// HELLO beacons attempted by an explicit [`HelloDriver`]
    /// (0 under [`HelloDriver::World`], whose beacons are accounted in the
    /// world's counters).
    ///
    /// [`HelloDriver`]: crate::HelloDriver
    /// [`HelloDriver::World`]: crate::HelloDriver::World
    pub hello_sent: u64,
    /// HELLO deliveries dropped by the channel (both drivers).
    pub hello_lost: u64,
    /// Cluster-maintenance traffic, decomposed.
    pub cluster: ClusterFlow,
    /// Proactive routing traffic.
    pub route: RouteUpdateOutcome,
    /// Cluster-heads after the tick (latest when aggregated).
    pub heads: u64,
    /// Head ratio `P` after the tick (latest when aggregated).
    pub head_ratio: f64,
}

impl StackReport {
    /// Control messages dropped by the channel this tick, across HELLO,
    /// CLUSTER, and ROUTE. Zero on ideal channels.
    pub fn msgs_lost(&self) -> u64 {
        self.hello_lost + self.cluster.maintenance.lost_sends + self.route.lost_messages
    }

    /// Control messages *attempted* this tick across the explicit layers
    /// (overhead is paid at the sender whether or not delivery succeeds).
    /// World-driven HELLO beacons are excluded — they live in the world's
    /// counters.
    pub fn attempted_messages(&self) -> u64 {
        self.hello_sent
            + self.cluster.maintenance.attempted_messages()
            + self.route.attempted_messages()
    }

    /// Accumulates another tick into this report. Counts add; `time`,
    /// `heads`, `head_ratio`, and the cluster flow's `violations_left`
    /// keep the latest value.
    pub fn absorb(&mut self, other: StackReport) {
        self.time = other.time;
        self.generated += other.generated;
        self.broken += other.broken;
        self.crashed += other.crashed;
        self.recovered += other.recovered;
        self.hello_sent += other.hello_sent;
        self.hello_lost += other.hello_lost;
        self.cluster.absorb(other.cluster);
        self.route.absorb(other.route);
        self.heads = other.heads;
        self.head_ratio = other.head_ratio;
    }
}
