//! Structured events, the [`Subscriber`] sink trait, and the [`Probe`]
//! handle layers use to emit them.
//!
//! The design mirrors the fault plane's `FaultHooks` pattern: every
//! instrumented code path takes a `&mut Probe`, whose disabled form
//! ([`Probe::off`]) contains two `None`s. The `#[inline]` emit/phase hooks
//! then collapse to a branch on a `None` that the optimizer removes, so an
//! untraced run is bit-identical to a build where telemetry was never
//! attached (guarded by the counters-parity integration test).

use crate::cause::{Cause, CauseId, CauseTracker, RootCause};
use crate::profile::Phase;
use crate::span::{SpanLabel, SpanRecorder, SpanStart};
use std::time::{Duration, Instant};

/// Identifier of a node (mirrors `manet_sim::NodeId`; the telemetry crate
/// sits below the simulator in the dependency graph and cannot import it).
pub type NodeId = u32;

/// The protocol layer an event originates from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layer {
    /// The simulation world: links, churn, world-driven HELLO accounting.
    Sim,
    /// The HELLO protocol proper (`manet-sim::hello`).
    Hello,
    /// Cluster maintenance and repair (`manet-cluster`).
    Cluster,
    /// Intra-cluster routing (`manet-routing`).
    Routing,
}

impl Layer {
    /// All layers, in display order.
    pub const ALL: [Layer; 4] = [Layer::Sim, Layer::Hello, Layer::Cluster, Layer::Routing];

    /// Stable lowercase name (used in JSONL traces).
    pub fn name(self) -> &'static str {
        match self {
            Layer::Sim => "sim",
            Layer::Hello => "hello",
            Layer::Cluster => "cluster",
            Layer::Routing => "routing",
        }
    }

    /// Inverse of [`Layer::name`].
    pub fn from_name(name: &str) -> Option<Layer> {
        Layer::ALL.into_iter().find(|l| l.name() == name)
    }
}

/// Control-message category, mirroring `manet_sim::MessageKind` one-to-one
/// (the simulator provides the `From<MessageKind>` conversion).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgClass {
    /// Neighbor-discovery beacon.
    Hello,
    /// Cluster-maintenance message.
    Cluster,
    /// Proactive intra-cluster routing update.
    Route,
    /// Reactive inter-cluster route request.
    RouteRequest,
    /// Reactive inter-cluster route reply.
    RouteReply,
    /// Full-table dump of the flat proactive baseline.
    TableDump,
    /// Backoff-scheduled resend of a lost CLUSTER message.
    Retransmit,
    /// Fault-repair traffic.
    Repair,
}

impl MsgClass {
    /// All classes, in `MessageKind` index order.
    pub const ALL: [MsgClass; 8] = [
        MsgClass::Hello,
        MsgClass::Cluster,
        MsgClass::Route,
        MsgClass::RouteRequest,
        MsgClass::RouteReply,
        MsgClass::TableDump,
        MsgClass::Retransmit,
        MsgClass::Repair,
    ];

    /// Dense index (identical to `MessageKind::index` on the sim side).
    pub fn index(self) -> usize {
        match self {
            MsgClass::Hello => 0,
            MsgClass::Cluster => 1,
            MsgClass::Route => 2,
            MsgClass::RouteRequest => 3,
            MsgClass::RouteReply => 4,
            MsgClass::TableDump => 5,
            MsgClass::Retransmit => 6,
            MsgClass::Repair => 7,
        }
    }

    /// Stable uppercase name matching `MessageKind`'s `Display`.
    pub fn name(self) -> &'static str {
        match self {
            MsgClass::Hello => "HELLO",
            MsgClass::Cluster => "CLUSTER",
            MsgClass::Route => "ROUTE",
            MsgClass::RouteRequest => "RREQ",
            MsgClass::RouteReply => "RREP",
            MsgClass::TableDump => "TABLE",
            MsgClass::Retransmit => "RETX",
            MsgClass::Repair => "REPAIR",
        }
    }

    /// Inverse of [`MsgClass::name`].
    pub fn from_name(name: &str) -> Option<MsgClass> {
        MsgClass::ALL.into_iter().find(|c| c.name() == name)
    }
}

/// What happened. Counts are batched per tick where the source naturally
/// produces batches (`MsgSent`/`MsgLost`) and unitary where identity
/// matters (role changes, churn, links).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A link formed between `a < b`.
    LinkUp {
        /// Lower endpoint.
        a: NodeId,
        /// Higher endpoint.
        b: NodeId,
    },
    /// A link broke between `a < b`.
    LinkDown {
        /// Lower endpoint.
        a: NodeId,
        /// Higher endpoint.
        b: NodeId,
    },
    /// A node crashed (churn schedule).
    NodeCrashed {
        /// The node that went down.
        node: NodeId,
    },
    /// A node recovered (churn schedule).
    NodeRecovered {
        /// The node that came back up.
        node: NodeId,
    },
    /// `count` control messages of `class` were transmitted (attempted —
    /// overhead is paid at the sender whether or not the channel delivers).
    MsgSent {
        /// Message category.
        class: MsgClass,
        /// Number of messages.
        count: u64,
    },
    /// `count` deliveries of `class` were dropped by the fault plane.
    MsgLost {
        /// Message category.
        class: MsgClass,
        /// Number of lost deliveries.
        count: u64,
    },
    /// A node became a cluster-head (self-promotion during maintenance;
    /// initial formation is not traced, matching the paper's accounting).
    HeadElected {
        /// The promoted node.
        node: NodeId,
    },
    /// A head resigned after a head–head contact and re-homed.
    HeadResigned {
        /// The resigning head.
        node: NodeId,
        /// The head it affiliated with.
        new_head: NodeId,
    },
    /// A member switched clusters.
    MemberReaffiliated {
        /// The re-homed member.
        member: NodeId,
        /// Its new head.
        head: NodeId,
    },
    /// A member lost its head (link break, resignation, or crash) and is
    /// orphaned until re-homed — the anchor of a `HeadLoss` root cause.
    HeadLost {
        /// The orphaned member.
        member: NodeId,
        /// The head it lost.
        head: NodeId,
    },
    /// A cluster started `rounds` ROUTE broadcast round(s).
    RouteRoundStarted {
        /// The cluster's head.
        head: NodeId,
        /// Cluster size (messages per round).
        size: u64,
        /// Rounds charged this pass.
        rounds: u64,
    },
    /// A lost CLUSTER send entered backoff: the node will retry after
    /// `wait_ticks` maintenance ticks.
    RetxScheduled {
        /// The backing-off sender.
        node: NodeId,
        /// Ticks until the retry gate opens.
        wait_ticks: u64,
    },
    /// Periodic gauge: current number of cluster-heads.
    ClusterGauge {
        /// Head count at sample time.
        heads: u64,
    },
    /// A shard-interconnect batch from `src` to `dst` (ghost sync or an
    /// owner migration) was dropped by the interconnect channel.
    InterconnectLost {
        /// Sending shard (row-major index).
        src: u16,
        /// Receiving shard.
        dst: u16,
        /// Entries in the lost batch (1 for a migration).
        count: u64,
    },
    /// A shard's interconnect endpoints froze (stall schedule): it stops
    /// sending and receiving shard messages for `ticks` ticks.
    InterconnectStalled {
        /// The stalled shard.
        shard: u16,
        /// Stall duration in ticks.
        ticks: u64,
    },
    /// The ghost view of `src` held by `dst` exceeded the staleness bound
    /// and was conservatively dropped (boundary links to that peer vanish
    /// until the link recovers).
    GhostStale {
        /// Shard whose ghosts went stale.
        src: u16,
        /// Shard holding the stale view.
        dst: u16,
        /// Age of the dropped view in ticks.
        staleness: u64,
        /// Ghost entries dropped.
        dropped: u64,
    },
    /// A shard link delivered again after one or more missed syncs; the
    /// receiver resynchronized its ghost view from the fresh batch.
    InterconnectRecovered {
        /// Sending shard.
        src: u16,
        /// Receiving shard.
        dst: u16,
        /// Ghost entries in the resynchronized view.
        resync: u64,
    },
}

impl EventKind {
    /// Stable snake_case name (used in JSONL traces).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::LinkUp { .. } => "link_up",
            EventKind::LinkDown { .. } => "link_down",
            EventKind::NodeCrashed { .. } => "node_crashed",
            EventKind::NodeRecovered { .. } => "node_recovered",
            EventKind::MsgSent { .. } => "msg_sent",
            EventKind::MsgLost { .. } => "msg_lost",
            EventKind::HeadElected { .. } => "head_elected",
            EventKind::HeadResigned { .. } => "head_resigned",
            EventKind::MemberReaffiliated { .. } => "member_reaffiliated",
            EventKind::HeadLost { .. } => "head_lost",
            EventKind::RouteRoundStarted { .. } => "route_round_started",
            EventKind::RetxScheduled { .. } => "retx_scheduled",
            EventKind::ClusterGauge { .. } => "cluster_gauge",
            EventKind::InterconnectLost { .. } => "interconnect_lost",
            EventKind::InterconnectStalled { .. } => "interconnect_stalled",
            EventKind::GhostStale { .. } => "ghost_stale",
            EventKind::InterconnectRecovered { .. } => "interconnect_recovered",
        }
    }
}

/// One structured telemetry event: when, from which layer, what, and
/// (with attribution enabled) why.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Simulation time, seconds.
    pub time: f64,
    /// Originating layer.
    pub layer: Layer,
    /// Payload.
    pub kind: EventKind,
    /// Root cause, when a [`CauseTracker`] is attached; `None` otherwise.
    pub cause: Option<Cause>,
}

/// A sink for telemetry events.
///
/// Implementations must tolerate events arriving out of strict time order
/// within one tick (layers are driven sequentially at the same sim time).
pub trait Subscriber {
    /// Receives one event.
    fn event(&mut self, event: &Event);
}

/// The static no-op sink: receives and discards.
///
/// Attaching a `NoopSubscriber` must leave every simulation observable
/// (counters, roles, positions, RNG state) bit-identical to a run with no
/// subscriber at all — the telemetry plane's zero-cost contract.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopSubscriber;

impl Subscriber for NoopSubscriber {
    #[inline]
    fn event(&mut self, _event: &Event) {}
}

/// Records every event, in arrival order.
impl Subscriber for Vec<Event> {
    fn event(&mut self, event: &Event) {
        self.push(*event);
    }
}

/// The handle instrumented code paths thread through the stack: an optional
/// event sink, an optional cause tracker for root-cause attribution, and an
/// optional span recorder — the run's one wall-clock timer, per tick, per
/// stage and per shard.
///
/// [`Probe::off`] is the zero-cost disabled form; every hook is `#[inline]`
/// and reduces to a `None` check.
#[derive(Debug, Default)]
pub struct Probe<'a> {
    sub: Option<&'a mut dyn Subscriber>,
    causes: Option<&'a mut CauseTracker>,
    spans: Option<&'a mut SpanRecorder>,
}

impl std::fmt::Debug for dyn Subscriber + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Subscriber")
    }
}

impl<'a> Probe<'a> {
    /// The disabled probe: no subscriber, no attribution, no spans.
    #[inline]
    pub fn off() -> Probe<'static> {
        Probe {
            sub: None,
            causes: None,
            spans: None,
        }
    }

    /// A probe with an optional subscriber (no attribution; see
    /// [`Probe::with_causes`]).
    pub fn new(sub: Option<&'a mut dyn Subscriber>) -> Probe<'a> {
        Probe::with_causes(sub, None)
    }

    /// A probe from optional parts including a cause tracker.
    pub fn with_causes(
        sub: Option<&'a mut dyn Subscriber>,
        causes: Option<&'a mut CauseTracker>,
    ) -> Probe<'a> {
        Probe {
            sub,
            causes,
            spans: None,
        }
    }

    /// A tracing-only probe (no timing, no attribution).
    pub fn subscriber(sub: &'a mut dyn Subscriber) -> Probe<'a> {
        Probe::new(Some(sub))
    }

    /// Attaches (or detaches) a span recorder, builder style. The span
    /// plane is orthogonal to the other probe parts: a probe can time
    /// stages with or without a subscriber.
    #[must_use]
    pub fn with_spans(mut self, spans: Option<&'a mut SpanRecorder>) -> Probe<'a> {
        self.spans = spans;
        self
    }

    /// Whether a subscriber is attached.
    #[inline]
    pub fn is_tracing(&self) -> bool {
        self.sub.is_some()
    }

    /// Whether a cause tracker is attached (attribution enabled).
    #[inline]
    pub fn is_attributing(&self) -> bool {
        self.causes.is_some()
    }

    /// Whether a span recorder is attached.
    #[inline]
    pub fn is_spanning(&self) -> bool {
        self.spans.is_some()
    }

    /// The attached cause tracker, if any.
    #[inline]
    pub fn causes(&mut self) -> Option<&mut CauseTracker> {
        self.causes.as_deref_mut()
    }

    /// Allocates a fresh root cause when attribution is enabled (`None`
    /// otherwise, so disabled paths pay one branch).
    #[inline]
    pub fn root(&mut self, root: RootCause) -> Option<Cause> {
        self.causes.as_deref_mut().map(|t| t.allocate(root))
    }

    /// Emits one uncaused event (no-op without a subscriber).
    #[inline]
    pub fn emit(&mut self, time: f64, layer: Layer, kind: EventKind) {
        self.emit_caused(time, layer, kind, None);
    }

    /// Emits one event carrying an optional cause (no-op without a
    /// subscriber).
    #[inline]
    pub fn emit_caused(&mut self, time: f64, layer: Layer, kind: EventKind, cause: Option<Cause>) {
        if let Some(sub) = self.sub.as_deref_mut() {
            sub.event(&Event {
                time,
                layer,
                kind,
                cause,
            });
        }
    }

    /// Runs `f`, charging its wall-clock time to `phase` when a span
    /// recorder is attached. Use
    /// [`Probe::phase_start`]/[`Probe::phase_end`] instead when the timed
    /// region itself needs the probe.
    #[inline]
    pub fn phase<T>(&mut self, phase: Phase, f: impl FnOnce() -> T) -> T {
        let t0 = self.phase_start();
        let out = f();
        self.phase_end(phase, t0);
        out
    }

    /// Starts timing a phase whose body needs `&mut self` (returns `None`
    /// without a span recorder, so the disabled path never reads the
    /// clock).
    #[inline]
    pub fn phase_start(&mut self) -> Option<SpanStart> {
        self.span_open()
    }

    /// Ends a timing started by [`Probe::phase_start`], closing it as a
    /// main-thread `Stage` span.
    #[inline]
    pub fn phase_end(&mut self, phase: Phase, start: Option<SpanStart>) {
        self.span_close(start, SpanLabel::Stage(phase), None, None);
    }

    /// Opens the root tick span (and advances the recorder's tick
    /// counter). `None` without a span recorder.
    #[inline]
    pub fn tick_start(&mut self) -> Option<SpanStart> {
        self.spans.as_deref_mut().map(|s| {
            s.start_tick();
            s.open()
        })
    }

    /// Closes the root tick span opened by [`Probe::tick_start`].
    #[inline]
    pub fn tick_end(&mut self, start: Option<SpanStart>) {
        if let (Some(spans), Some(t0)) = (self.spans.as_deref_mut(), start) {
            spans.close(t0, SpanLabel::Tick, None, None);
        }
    }

    /// Opens a leaf span (interconnect hops and other sub-stages).
    /// `None` without a span recorder, so the disabled path never reads
    /// the clock.
    #[inline]
    pub fn span_open(&mut self) -> Option<SpanStart> {
        self.spans.as_deref_mut().map(|s| s.open())
    }

    /// Closes a leaf span opened by [`Probe::span_open`], tagging it with
    /// a shard and an optional causal link into the attribution plane.
    #[inline]
    pub fn span_close(
        &mut self,
        start: Option<SpanStart>,
        label: SpanLabel,
        shard: Option<u16>,
        cause: Option<CauseId>,
    ) {
        if let (Some(spans), Some(t0)) = (self.spans.as_deref_mut(), start) {
            spans.close(t0, label, shard, cause);
        }
    }

    /// Folds in a span measured off-thread (e.g. one shard worker's
    /// compute time, recorded by the main thread after the join so
    /// sequence numbers stay deterministic and worker-count invariant).
    #[inline]
    pub fn span_sample(
        &mut self,
        label: SpanLabel,
        shard: Option<u16>,
        cause: Option<CauseId>,
        at: Instant,
        dur: Duration,
    ) {
        if let Some(spans) = self.spans.as_deref_mut() {
            spans.record_external(label, shard, cause, at, dur);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_probe_is_inert() {
        let mut p = Probe::off();
        assert!(!p.is_tracing());
        assert!(!p.is_spanning());
        p.emit(1.0, Layer::Sim, EventKind::ClusterGauge { heads: 3 });
        assert_eq!(p.phase_start(), None);
        let x = p.phase(Phase::Mobility, || 41 + 1);
        assert_eq!(x, 42);
    }

    #[test]
    fn emit_reaches_the_subscriber() {
        let mut sink = Vec::<Event>::new();
        {
            let mut p = Probe::subscriber(&mut sink);
            assert!(p.is_tracing());
            p.emit(0.5, Layer::Cluster, EventKind::HeadElected { node: 7 });
            p.emit(
                0.5,
                Layer::Routing,
                EventKind::RouteRoundStarted {
                    head: 2,
                    size: 5,
                    rounds: 1,
                },
            );
        }
        assert_eq!(sink.len(), 2);
        assert_eq!(sink[0].layer, Layer::Cluster);
        assert_eq!(sink[0].kind, EventKind::HeadElected { node: 7 });
        assert_eq!(sink[1].time, 0.5);
    }

    #[test]
    fn phase_records_a_stage_span() {
        let mut spans = crate::span::SpanRecorder::new();
        {
            let mut p = Probe::new(None).with_spans(Some(&mut spans));
            assert!(p.is_spanning());
            let out = p.phase(Phase::Topology, || "done");
            assert_eq!(out, "done");
            let t0 = p.phase_start();
            assert!(t0.is_some());
            p.phase_end(Phase::Cluster, t0);
        }
        let count = |phase| {
            spans
                .hist(SpanLabel::Stage(phase), None)
                .map_or(0, |h| h.count())
        };
        assert_eq!(count(Phase::Topology), 1);
        assert_eq!(count(Phase::Cluster), 1);
        assert_eq!(count(Phase::Mobility), 0);
        assert_eq!(spans.profile().get(Phase::Cluster).unwrap().count, 1);
    }

    /// Beyond the phase hooks, the span recorder sees tick, leaf and
    /// off-thread spans; the disabled probe opens none of them.
    #[test]
    fn tick_leaf_and_off_thread_spans_reach_the_recorder() {
        let mut spans = crate::span::SpanRecorder::new();
        {
            let mut p = Probe::new(None).with_spans(Some(&mut spans));
            let tick = p.tick_start();
            assert!(tick.is_some());
            let t0 = p.phase_start();
            p.phase_end(Phase::Topology, t0);
            let s = p.span_open();
            p.span_close(s, SpanLabel::IcSend, Some(1), Some(CauseId(9)));
            p.span_sample(
                SpanLabel::ShardCompute,
                Some(0),
                None,
                Instant::now(),
                Duration::from_micros(10),
            );
            p.tick_end(tick);
        }
        assert_eq!(spans.spans_recorded(), 4);
        assert_eq!(spans.tick(), 1);
        assert!(spans.hist(SpanLabel::Tick, None).is_some());
        assert!(spans.hist(SpanLabel::IcSend, Some(1)).is_some());
        assert!(spans.hist(SpanLabel::ShardCompute, Some(0)).is_some());
        // The disabled probe opens nothing.
        let mut p = Probe::off();
        assert!(!p.is_spanning());
        assert_eq!(p.tick_start(), None);
        assert_eq!(p.span_open(), None);
    }

    #[test]
    fn caused_emits_carry_the_allocated_root() {
        let mut sink = Vec::<Event>::new();
        let mut tracker = CauseTracker::new();
        {
            let mut p = Probe::with_causes(Some(&mut sink), Some(&mut tracker));
            assert!(p.is_attributing());
            let cause = p.root(RootCause::HeadContact);
            assert!(cause.is_some());
            p.emit_caused(
                1.0,
                Layer::Cluster,
                EventKind::HeadResigned {
                    node: 3,
                    new_head: 1,
                },
                cause,
            );
            p.emit(1.0, Layer::Sim, EventKind::ClusterGauge { heads: 2 });
        }
        assert_eq!(tracker.allocated(), 1);
        assert_eq!(sink[0].cause.map(|c| c.root), Some(RootCause::HeadContact));
        assert_eq!(sink[1].cause, None);
        // A probe without a tracker never allocates.
        let mut p = Probe::off();
        assert!(!p.is_attributing());
        assert_eq!(p.root(RootCause::LinkGen), None);
        assert!(p.causes().is_none());
    }

    #[test]
    fn names_round_trip() {
        for layer in Layer::ALL {
            assert_eq!(Layer::from_name(layer.name()), Some(layer));
        }
        for class in MsgClass::ALL {
            assert_eq!(MsgClass::from_name(class.name()), Some(class));
        }
        assert_eq!(Layer::from_name("nope"), None);
        assert_eq!(MsgClass::from_name("nope"), None);
        assert_eq!(EventKind::LinkUp { a: 0, b: 1 }.name(), "link_up");
    }

    #[test]
    fn class_indices_are_dense_and_ordered() {
        for (i, class) in MsgClass::ALL.into_iter().enumerate() {
            assert_eq!(class.index(), i);
        }
    }
}
