//! The root-cause overhead ledger: folds a caused event stream into
//! "messages per root event" — the quantity the paper's closed forms
//! actually predict.
//!
//! Every root cause has a well-defined *anchor* event kind (the root event
//! itself, e.g. `LinkUp` for [`RootCause::LinkGen`]); derived events carry
//! the anchor's [`CauseId`]. The ledger aggregates attributed messages per
//! `RootCause` × [`MsgClass`], counts anchors (weighted, so one
//! `RouteRoundStarted` charging `rounds` rounds counts as `rounds` link
//! changes), and keeps a causal-chain index from each [`CauseId`] to its
//! chain's summary — making "CLUSTER msgs per head contact" a single
//! division ([`AttributionLedger::unit_cost`]).
//!
//! Message charging mirrors the engine contracts established in PR 2:
//! every committed role change (`HeadResigned` / `MemberReaffiliated` /
//! `HeadElected`) is exactly one CLUSTER message, and one
//! `RouteRoundStarted { size, rounds }` is `rounds · size` ROUTE messages.
//! Caused `MsgSent` events (per-link event-driven HELLO) charge their
//! count directly. Uncaused `MsgSent` events land in a separate bucket:
//! in a standard traced run the per-tick CLUSTER/ROUTE rollups are
//! *duplicates* of the per-event charges above (a useful cross-check, see
//! `attribution_report`), while uncaused HELLO counts are periodic
//! beacons with no single root event.

use crate::cause::{CauseId, RootCause};
use crate::event::{Event, EventKind, MsgClass, Subscriber};
use std::collections::BTreeMap;

/// Whether `kind` is the anchor (the recorded root event itself) of a
/// chain with root cause `root`. Shared by the ledger and the
/// completeness tests: every allocated `CauseId` must eventually appear on
/// exactly one anchor event.
pub fn is_root_anchor(kind: &EventKind, root: RootCause) -> bool {
    match root {
        RootCause::LinkGen => matches!(kind, EventKind::LinkUp { .. }),
        RootCause::LinkBreak => matches!(kind, EventKind::LinkDown { .. }),
        RootCause::HeadLoss => matches!(kind, EventKind::HeadLost { .. }),
        RootCause::HeadContact => matches!(kind, EventKind::HeadResigned { .. }),
        RootCause::IntraClusterChange => matches!(kind, EventKind::RouteRoundStarted { .. }),
        RootCause::Churn => matches!(
            kind,
            EventKind::NodeCrashed { .. } | EventKind::NodeRecovered { .. }
        ),
        RootCause::ChannelLoss => matches!(
            kind,
            EventKind::MsgLost { .. } | EventKind::RetxScheduled { .. }
        ),
        // Every interconnect event is a detection site: each allocates its
        // own root at the moment the fault (or recovery) is observed, so
        // none can leave an unanchored chain behind.
        RootCause::InterconnectFault => matches!(
            kind,
            EventKind::InterconnectLost { .. }
                | EventKind::InterconnectStalled { .. }
                | EventKind::GhostStale { .. }
                | EventKind::InterconnectRecovered { .. }
        ),
    }
}

/// The number of root events one anchor stands for: a
/// `RouteRoundStarted` charging `rounds` rounds represents `rounds`
/// intra-cluster link changes, a batched `MsgLost` represents `count`
/// channel losses, and every other anchor is one event.
pub fn root_weight(kind: &EventKind) -> u64 {
    match *kind {
        EventKind::RouteRoundStarted { rounds, .. } => rounds,
        EventKind::MsgLost { count, .. } => count,
        _ => 1,
    }
}

/// Number of distinct root-cause kinds ([`RootCause::ALL`]'s length),
/// the row dimension of the ledger's per-root tables.
const ROOTS: usize = RootCause::ALL.len();

/// Summary of one causal chain (all events sharing a [`CauseId`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChainEntry {
    /// The chain's root cause.
    pub root: RootCause,
    /// Total anchor weight seen (0 until the anchor event arrives).
    pub weight: u64,
    /// Time of the first event carrying this id.
    pub first_time: f64,
    /// Number of events carrying this id (anchor included).
    pub derived: u64,
    /// Control messages charged to this chain.
    pub msgs: u64,
}

/// Per-class message sizes (bytes), indexed by [`MsgClass::index`].
///
/// Defaults mirror `manet_sim::MessageSizes`: 16 B HELLO, 24 B CLUSTER,
/// 12 B per ROUTE/RREQ/RREP/TABLE entry, 24 B RETX/REPAIR.
pub const DEFAULT_CLASS_SIZES: [u64; 8] = [16, 24, 12, 12, 12, 12, 24, 24];

/// Streaming aggregation of attributed overhead: messages and bytes per
/// [`RootCause`] × [`MsgClass`], anchor counts, and a causal-chain index.
#[derive(Debug, Clone)]
pub struct AttributionLedger {
    msgs: [[u64; 8]; ROOTS],
    lost: [[u64; 8]; ROOTS],
    uncaused: [u64; 8],
    anchors: [u64; ROOTS],
    weights: [u64; ROOTS],
    sizes: [u64; 8],
    chains: BTreeMap<CauseId, ChainEntry>,
    events_seen: u64,
}

impl Default for AttributionLedger {
    fn default() -> Self {
        AttributionLedger::new()
    }
}

impl AttributionLedger {
    /// An empty ledger with [`DEFAULT_CLASS_SIZES`].
    pub fn new() -> Self {
        AttributionLedger::with_sizes(DEFAULT_CLASS_SIZES)
    }

    /// An empty ledger with a custom per-class size table.
    pub fn with_sizes(sizes: [u64; 8]) -> Self {
        AttributionLedger {
            msgs: [[0; 8]; ROOTS],
            lost: [[0; 8]; ROOTS],
            uncaused: [0; 8],
            anchors: [0; ROOTS],
            weights: [0; ROOTS],
            sizes,
            chains: BTreeMap::new(),
            events_seen: 0,
        }
    }

    /// Builds a ledger by replaying recorded events (e.g. a read trace).
    pub fn replay<'a>(events: impl IntoIterator<Item = &'a Event>) -> Self {
        let mut ledger = AttributionLedger::new();
        for e in events {
            ledger.absorb(e);
        }
        ledger
    }

    /// Folds one event into the ledger (also the [`Subscriber`] body).
    pub fn absorb(&mut self, event: &Event) {
        self.events_seen += 1;
        let Some(cause) = event.cause else {
            if let EventKind::MsgSent { class, count } = event.kind {
                self.uncaused[class.index()] += count;
            }
            return;
        };
        let r = cause.root.index();
        let entry = self.chains.entry(cause.id).or_insert(ChainEntry {
            root: cause.root,
            weight: 0,
            first_time: event.time,
            derived: 0,
            msgs: 0,
        });
        entry.derived += 1;
        if is_root_anchor(&event.kind, cause.root) {
            let w = root_weight(&event.kind);
            entry.weight += w;
            self.weights[r] += w;
            self.anchors[r] += 1;
        }
        let charged = match event.kind {
            EventKind::MsgSent { class, count } => Some((class, count)),
            EventKind::HeadResigned { .. }
            | EventKind::MemberReaffiliated { .. }
            | EventKind::HeadElected { .. } => Some((MsgClass::Cluster, 1)),
            EventKind::RouteRoundStarted { size, rounds, .. } => {
                Some((MsgClass::Route, rounds * size))
            }
            _ => None,
        };
        if let Some((class, count)) = charged {
            self.msgs[r][class.index()] += count;
            entry.msgs += count;
        }
        if let EventKind::MsgLost { class, count } = event.kind {
            self.lost[r][class.index()] += count;
        }
    }

    /// Total events absorbed (caused or not).
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// Attributed messages of `class` charged to `root`.
    pub fn msgs(&self, root: RootCause, class: MsgClass) -> u64 {
        self.msgs[root.index()][class.index()]
    }

    /// Attributed bytes of `class` charged to `root` (via the size table).
    pub fn bytes(&self, root: RootCause, class: MsgClass) -> u64 {
        self.msgs(root, class) * self.sizes[class.index()]
    }

    /// Lost deliveries of `class` charged to `root`.
    pub fn lost(&self, root: RootCause, class: MsgClass) -> u64 {
        self.lost[root.index()][class.index()]
    }

    /// Attributed messages of `class` summed over all roots.
    pub fn attributed_total(&self, class: MsgClass) -> u64 {
        RootCause::ALL.iter().map(|&r| self.msgs(r, class)).sum()
    }

    /// Messages of `class` seen on *uncaused* `MsgSent` events (periodic
    /// beacons, per-tick rollups — see the module docs).
    pub fn uncaused_msgs(&self, class: MsgClass) -> u64 {
        self.uncaused[class.index()]
    }

    /// Number of anchor events recorded for `root`.
    pub fn root_events(&self, root: RootCause) -> u64 {
        self.anchors[root.index()]
    }

    /// Total anchor weight for `root` (= root-event count, with batched
    /// anchors expanded per [`root_weight`]).
    pub fn root_weight_total(&self, root: RootCause) -> u64 {
        self.weights[root.index()]
    }

    /// Measured per-event unit cost: attributed `class` messages per root
    /// event of `root`. `None` when no anchor has been recorded.
    pub fn unit_cost(&self, root: RootCause, class: MsgClass) -> Option<f64> {
        let w = self.root_weight_total(root);
        if w == 0 {
            None
        } else {
            Some(self.msgs(root, class) as f64 / w as f64)
        }
    }

    /// The causal-chain index: every [`CauseId`] seen, with its summary.
    pub fn chains(&self) -> &BTreeMap<CauseId, ChainEntry> {
        &self.chains
    }

    /// One chain's summary.
    pub fn chain(&self, id: CauseId) -> Option<&ChainEntry> {
        self.chains.get(&id)
    }

    /// Chains that never received their anchor event — must be empty for a
    /// complete trace (checked by the attribution completeness tests).
    pub fn unanchored_chains(&self) -> Vec<CauseId> {
        self.chains
            .iter()
            .filter(|(_, e)| e.weight == 0)
            .map(|(&id, _)| id)
            .collect()
    }
}

impl Subscriber for AttributionLedger {
    fn event(&mut self, event: &Event) {
        self.absorb(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cause::{Cause, CauseTracker};
    use crate::event::Layer;

    fn caused(time: f64, layer: Layer, kind: EventKind, cause: Cause) -> Event {
        Event {
            time,
            layer,
            kind,
            cause: Some(cause),
        }
    }

    #[test]
    fn anchors_cover_every_root_exactly_once() {
        // Each root has at least one anchor kind, and no anchor kind
        // anchors two different roots.
        let kinds = [
            EventKind::LinkUp { a: 0, b: 1 },
            EventKind::LinkDown { a: 0, b: 1 },
            EventKind::HeadLost { member: 0, head: 1 },
            EventKind::HeadResigned {
                node: 0,
                new_head: 1,
            },
            EventKind::RouteRoundStarted {
                head: 0,
                size: 3,
                rounds: 1,
            },
            EventKind::NodeCrashed { node: 0 },
            EventKind::MsgLost {
                class: MsgClass::Hello,
                count: 1,
            },
            EventKind::InterconnectLost {
                src: 0,
                dst: 1,
                count: 1,
            },
        ];
        for root in RootCause::ALL {
            assert_eq!(
                kinds.iter().filter(|k| is_root_anchor(k, root)).count(),
                1,
                "{root:?}"
            );
        }
        for kind in &kinds {
            assert_eq!(
                RootCause::ALL
                    .into_iter()
                    .filter(|&r| is_root_anchor(kind, r))
                    .count(),
                1,
                "{kind:?}"
            );
        }
    }

    #[test]
    fn head_contact_chain_yields_cluster_unit_cost() {
        let mut t = CauseTracker::new();
        let contact = t.allocate(RootCause::HeadContact);
        let mut ledger = AttributionLedger::new();
        // Anchor: the resignation (1 CLUSTER msg). Derived: two members of
        // the losing head re-home (1 CLUSTER msg each).
        ledger.absorb(&caused(
            1.0,
            Layer::Cluster,
            EventKind::HeadResigned {
                node: 5,
                new_head: 2,
            },
            contact,
        ));
        for member in [6, 7] {
            ledger.absorb(&caused(
                1.0,
                Layer::Cluster,
                EventKind::HeadLost { member, head: 5 },
                contact,
            ));
            ledger.absorb(&caused(
                1.0,
                Layer::Cluster,
                EventKind::MemberReaffiliated { member, head: 2 },
                contact,
            ));
        }
        assert_eq!(ledger.msgs(RootCause::HeadContact, MsgClass::Cluster), 3);
        assert_eq!(ledger.root_events(RootCause::HeadContact), 1);
        assert_eq!(
            ledger.unit_cost(RootCause::HeadContact, MsgClass::Cluster),
            Some(3.0)
        );
        assert_eq!(
            ledger.bytes(RootCause::HeadContact, MsgClass::Cluster),
            3 * 24
        );
        let entry = ledger.chain(contact.id).unwrap();
        assert_eq!(entry.derived, 5);
        assert_eq!(entry.msgs, 3);
        assert_eq!(entry.weight, 1);
        assert!(ledger.unanchored_chains().is_empty());
    }

    #[test]
    fn route_rounds_charge_rounds_times_size_per_weighted_anchor() {
        let mut t = CauseTracker::new();
        let mut ledger = AttributionLedger::new();
        let change = t.allocate(RootCause::IntraClusterChange);
        ledger.absorb(&caused(
            2.0,
            Layer::Routing,
            EventKind::RouteRoundStarted {
                head: 3,
                size: 7,
                rounds: 2,
            },
            change,
        ));
        assert_eq!(
            ledger.msgs(RootCause::IntraClusterChange, MsgClass::Route),
            14
        );
        assert_eq!(ledger.root_weight_total(RootCause::IntraClusterChange), 2);
        assert_eq!(
            ledger.unit_cost(RootCause::IntraClusterChange, MsgClass::Route),
            Some(7.0)
        );
    }

    #[test]
    fn uncaused_and_unanchored_bookkeeping() {
        let mut t = CauseTracker::new();
        let mut ledger = AttributionLedger::new();
        ledger.absorb(&Event {
            time: 0.5,
            layer: Layer::Sim,
            kind: EventKind::MsgSent {
                class: MsgClass::Hello,
                count: 9,
            },
            cause: None,
        });
        assert_eq!(ledger.uncaused_msgs(MsgClass::Hello), 9);
        assert_eq!(ledger.attributed_total(MsgClass::Hello), 0);
        // A derived event whose anchor never arrives is flagged.
        let orphaned = t.allocate(RootCause::HeadLoss);
        ledger.absorb(&caused(
            1.0,
            Layer::Cluster,
            EventKind::MemberReaffiliated { member: 1, head: 2 },
            orphaned,
        ));
        assert_eq!(ledger.unanchored_chains(), vec![orphaned.id]);
        assert_eq!(
            ledger.unit_cost(RootCause::HeadLoss, MsgClass::Cluster),
            None
        );
        assert_eq!(ledger.events_seen(), 2);
        // Losses charge the lost table, not msgs.
        let loss = t.allocate(RootCause::ChannelLoss);
        ledger.absorb(&caused(
            1.5,
            Layer::Hello,
            EventKind::MsgLost {
                class: MsgClass::Hello,
                count: 4,
            },
            loss,
        ));
        assert_eq!(ledger.lost(RootCause::ChannelLoss, MsgClass::Hello), 4);
        assert_eq!(ledger.root_weight_total(RootCause::ChannelLoss), 4);
        assert_eq!(ledger.msgs(RootCause::ChannelLoss, MsgClass::Hello), 0);
    }

    #[test]
    fn per_link_hello_sends_yield_the_paper_unit_cost() {
        let mut t = CauseTracker::new();
        let mut ledger = AttributionLedger::new();
        for i in 0..5u32 {
            let gen = t.allocate(RootCause::LinkGen);
            ledger.absorb(&caused(
                1.0,
                Layer::Sim,
                EventKind::LinkUp { a: i, b: i + 1 },
                gen,
            ));
            ledger.absorb(&caused(
                1.0,
                Layer::Sim,
                EventKind::MsgSent {
                    class: MsgClass::Hello,
                    count: 2,
                },
                gen,
            ));
        }
        // Event-driven HELLO: two beacons per link generation.
        assert_eq!(
            ledger.unit_cost(RootCause::LinkGen, MsgClass::Hello),
            Some(2.0)
        );
        assert_eq!(ledger.chains().len(), 5);
    }
}
