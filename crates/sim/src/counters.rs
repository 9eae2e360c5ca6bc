//! Control-message accounting.
//!
//! The paper's central metric is the per-node frequency (and bit rate) of
//! each control-message category over a measurement window. [`Counters`]
//! accumulates message and byte counts per [`MessageKind`]; the warmup
//! period is excluded by calling [`Counters::reset`] (or
//! `World::begin_measurement`) once the system reaches steady state.

use std::fmt;

/// The control-message categories tracked by the reproduction.
///
/// `Hello`, `Cluster`, and `Route` are the paper's three categories
/// (Section 2). The remaining kinds support the reactive inter-cluster
/// routing extension and the flat-DSDV baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageKind {
    /// Neighbor-discovery beacon.
    Hello,
    /// Cluster-maintenance message (role/affiliation change).
    Cluster,
    /// Proactive intra-cluster routing update (one routing-table entry).
    Route,
    /// Reactive inter-cluster route request (extension).
    RouteRequest,
    /// Reactive inter-cluster route reply (extension).
    RouteReply,
    /// Full-table dump of the flat proactive baseline (DSDV-like).
    TableDump,
    /// Retransmission of a lost CLUSTER message under the fault plane
    /// (backoff-scheduled resend; zero on an ideal channel).
    Retransmit,
    /// Repair traffic: messages spent re-establishing cluster structure
    /// after a detected fault (crashed head, decayed neighbor view).
    Repair,
}

impl MessageKind {
    /// All kinds, in display order.
    pub const ALL: [MessageKind; 8] = [
        MessageKind::Hello,
        MessageKind::Cluster,
        MessageKind::Route,
        MessageKind::RouteRequest,
        MessageKind::RouteReply,
        MessageKind::TableDump,
        MessageKind::Retransmit,
        MessageKind::Repair,
    ];

    fn index(self) -> usize {
        match self {
            MessageKind::Hello => 0,
            MessageKind::Cluster => 1,
            MessageKind::Route => 2,
            MessageKind::RouteRequest => 3,
            MessageKind::RouteReply => 4,
            MessageKind::TableDump => 5,
            MessageKind::Retransmit => 6,
            MessageKind::Repair => 7,
        }
    }
}

impl From<MessageKind> for manet_telemetry::MsgClass {
    /// The telemetry plane mirrors `MessageKind` one-to-one (it sits below
    /// this crate in the dependency graph, so the conversion lives here).
    fn from(kind: MessageKind) -> manet_telemetry::MsgClass {
        use manet_telemetry::MsgClass;
        match kind {
            MessageKind::Hello => MsgClass::Hello,
            MessageKind::Cluster => MsgClass::Cluster,
            MessageKind::Route => MsgClass::Route,
            MessageKind::RouteRequest => MsgClass::RouteRequest,
            MessageKind::RouteReply => MsgClass::RouteReply,
            MessageKind::TableDump => MsgClass::TableDump,
            MessageKind::Retransmit => MsgClass::Retransmit,
            MessageKind::Repair => MsgClass::Repair,
        }
    }
}

impl fmt::Display for MessageKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MessageKind::Hello => "HELLO",
            MessageKind::Cluster => "CLUSTER",
            MessageKind::Route => "ROUTE",
            MessageKind::RouteRequest => "RREQ",
            MessageKind::RouteReply => "RREP",
            MessageKind::TableDump => "TABLE",
            MessageKind::Retransmit => "RETX",
            MessageKind::Repair => "REPAIR",
        };
        f.write_str(s)
    }
}

/// Sizes, in bytes, used to convert message counts into bit overheads
/// (the paper's `p_hello`, `p_cluster`, `p_route`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageSizes {
    /// Size of one HELLO beacon.
    pub hello: u32,
    /// Size of one CLUSTER maintenance message.
    pub cluster: u32,
    /// Size of one routing-table entry (a ROUTE message carries one entry in
    /// the lower-bound model).
    pub route_entry: u32,
}

impl Default for MessageSizes {
    /// `p_hello = 16 B`, `p_cluster = 24 B`, `p_route = 12 B` — compact
    /// packet layouts typical of MANET control traffic (see DESIGN.md §5).
    fn default() -> Self {
        MessageSizes {
            hello: 16,
            cluster: 24,
            route_entry: 12,
        }
    }
}

impl MessageSizes {
    /// Size in bytes for one message of `kind` (table dumps and discovery
    /// messages are counted as route entries).
    pub fn size_of(&self, kind: MessageKind) -> u32 {
        match kind {
            MessageKind::Hello => self.hello,
            MessageKind::Cluster => self.cluster,
            MessageKind::Route
            | MessageKind::RouteRequest
            | MessageKind::RouteReply
            | MessageKind::TableDump => self.route_entry,
            // A retransmission or repair carries a CLUSTER-format payload.
            MessageKind::Retransmit | MessageKind::Repair => self.cluster,
        }
    }
}

/// Accumulates message and byte counts per [`MessageKind`].
///
/// Counters carry their own [`MessageSizes`] so byte accounting is
/// consistent *by construction*: the preferred recording entry point,
/// [`Counters::record_kind`], derives bytes from the embedded size table,
/// and [`Counters::bytes_consistent`] checks the invariant
/// `bytes(kind) == messages(kind) * size_of(kind)` for callers that still
/// use the raw [`Counters::record`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    messages: [u64; 8],
    bytes: [u64; 8],
    /// Link events observed in the current window.
    links_generated: u64,
    /// Link breaks observed in the current window.
    links_broken: u64,
    /// The size table byte accounting is checked against.
    sizes: MessageSizes,
}

impl Counters {
    /// Creates zeroed counters with the default size table.
    pub fn new() -> Self {
        Counters::default()
    }

    /// Creates zeroed counters with a custom size table.
    pub fn with_sizes(sizes: MessageSizes) -> Self {
        Counters {
            sizes,
            ..Counters::default()
        }
    }

    /// The embedded size table.
    pub fn sizes(&self) -> MessageSizes {
        self.sizes
    }

    /// Records `count` messages of `kind` totaling `bytes` bytes.
    ///
    /// Prefer [`Counters::record_kind`], which derives `bytes` from the
    /// embedded size table and cannot introduce byte-accounting drift.
    pub fn record(&mut self, kind: MessageKind, count: u64, bytes: u64) {
        let i = kind.index();
        self.messages[i] += count;
        self.bytes[i] += bytes;
    }

    /// Records `count` messages of `kind`, sized via the embedded size
    /// table — the checked entry point that keeps
    /// [`Counters::bytes_consistent`] true by construction.
    pub fn record_kind(&mut self, kind: MessageKind, count: u64) {
        let i = kind.index();
        self.messages[i] += count;
        self.bytes[i] += count * self.sizes.size_of(kind) as u64;
    }

    /// Whether every kind's byte total equals `messages * size_of(kind)`
    /// under the embedded size table.
    pub fn bytes_consistent(&self) -> bool {
        MessageKind::ALL
            .into_iter()
            .all(|kind| self.bytes(kind) == self.messages(kind) * self.sizes.size_of(kind) as u64)
    }

    /// Records one link-generation event.
    pub fn record_link_generated(&mut self) {
        self.links_generated += 1;
    }

    /// Records one link-break event.
    pub fn record_link_broken(&mut self) {
        self.links_broken += 1;
    }

    /// Total messages of `kind` in the current window.
    pub fn messages(&self, kind: MessageKind) -> u64 {
        self.messages[kind.index()]
    }

    /// Total bytes of `kind` in the current window.
    pub fn bytes(&self, kind: MessageKind) -> u64 {
        self.bytes[kind.index()]
    }

    /// Link generations observed in the current window.
    pub fn links_generated(&self) -> u64 {
        self.links_generated
    }

    /// Link breaks observed in the current window.
    pub fn links_broken(&self) -> u64 {
        self.links_broken
    }

    /// Per-node message frequency of `kind` over a window of `elapsed`
    /// seconds shared by `nodes` nodes (messages / node / second).
    ///
    /// Returns 0 for an empty window or node set.
    pub fn per_node_rate(&self, kind: MessageKind, nodes: usize, elapsed: f64) -> f64 {
        if nodes == 0 || elapsed <= 0.0 {
            0.0
        } else {
            self.messages(kind) as f64 / nodes as f64 / elapsed
        }
    }

    /// Per-node bit rate of `kind` (bits / node / second).
    pub fn per_node_bit_rate(&self, kind: MessageKind, nodes: usize, elapsed: f64) -> f64 {
        if nodes == 0 || elapsed <= 0.0 {
            0.0
        } else {
            self.bytes(kind) as f64 * 8.0 / nodes as f64 / elapsed
        }
    }

    /// Per-node link generation rate over the window.
    pub fn per_node_link_generation_rate(&self, nodes: usize, elapsed: f64) -> f64 {
        if nodes == 0 || elapsed <= 0.0 {
            0.0
        } else {
            // Each event involves two endpoints; the per-node rate counts an
            // event at both ends (matching the analysis convention where each
            // node independently notices its own neighbor change).
            2.0 * self.links_generated as f64 / nodes as f64 / elapsed
        }
    }

    /// Per-node link break rate over the window.
    pub fn per_node_link_break_rate(&self, nodes: usize, elapsed: f64) -> f64 {
        if nodes == 0 || elapsed <= 0.0 {
            0.0
        } else {
            2.0 * self.links_broken as f64 / nodes as f64 / elapsed
        }
    }

    /// Zeroes every counter (start of a measurement window), preserving
    /// the embedded size table.
    pub fn reset(&mut self) {
        *self = Counters::with_sizes(self.sizes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_read_back() {
        let mut c = Counters::new();
        c.record(MessageKind::Hello, 3, 48);
        c.record(MessageKind::Hello, 1, 16);
        c.record(MessageKind::Route, 5, 60);
        assert_eq!(c.messages(MessageKind::Hello), 4);
        assert_eq!(c.bytes(MessageKind::Hello), 64);
        assert_eq!(c.messages(MessageKind::Route), 5);
        assert_eq!(c.messages(MessageKind::Cluster), 0);
    }

    #[test]
    fn record_kind_uses_embedded_sizes_and_stays_consistent() {
        let mut c = Counters::new();
        c.record_kind(MessageKind::Hello, 3);
        c.record_kind(MessageKind::Retransmit, 2);
        assert_eq!(c.bytes(MessageKind::Hello), 48);
        // RETX carries a CLUSTER-format payload (24 B).
        assert_eq!(c.bytes(MessageKind::Retransmit), 48);
        assert!(c.bytes_consistent());
        // Raw `record` can drift; the checker catches it.
        c.record(MessageKind::Route, 1, 999);
        assert!(!c.bytes_consistent());
    }

    #[test]
    fn with_sizes_survives_reset() {
        let sizes = MessageSizes {
            hello: 8,
            cluster: 40,
            route_entry: 20,
        };
        let mut c = Counters::with_sizes(sizes);
        c.record_kind(MessageKind::Hello, 2);
        assert_eq!(c.bytes(MessageKind::Hello), 16);
        c.reset();
        assert_eq!(c.sizes(), sizes);
        assert_eq!(c.messages(MessageKind::Hello), 0);
        c.record_kind(MessageKind::Cluster, 1);
        assert_eq!(c.bytes(MessageKind::Cluster), 40);
        assert!(c.bytes_consistent());
    }

    #[test]
    fn message_kind_maps_onto_telemetry_class() {
        use manet_telemetry::MsgClass;
        for (kind, class) in MessageKind::ALL.into_iter().zip(MsgClass::ALL) {
            assert_eq!(MsgClass::from(kind), class);
            assert_eq!(kind.to_string(), class.name());
        }
    }

    #[test]
    fn rates() {
        let mut c = Counters::new();
        c.record(MessageKind::Hello, 100, 1600);
        assert_eq!(c.per_node_rate(MessageKind::Hello, 10, 10.0), 1.0);
        assert_eq!(c.per_node_bit_rate(MessageKind::Hello, 10, 10.0), 128.0);
        assert_eq!(c.per_node_rate(MessageKind::Hello, 0, 10.0), 0.0);
        assert_eq!(c.per_node_rate(MessageKind::Hello, 10, 0.0), 0.0);
    }

    #[test]
    fn link_event_rates_count_both_endpoints() {
        let mut c = Counters::new();
        for _ in 0..50 {
            c.record_link_generated();
        }
        for _ in 0..30 {
            c.record_link_broken();
        }
        assert_eq!(c.links_generated(), 50);
        assert_eq!(c.links_broken(), 30);
        assert_eq!(c.per_node_link_generation_rate(10, 10.0), 1.0);
        assert_eq!(c.per_node_link_break_rate(10, 10.0), 0.6);
    }

    #[test]
    fn reset_zeroes_everything() {
        let mut c = Counters::new();
        c.record(MessageKind::TableDump, 7, 70);
        c.record_link_generated();
        c.reset();
        assert_eq!(c, Counters::new());
    }

    #[test]
    fn kind_display_and_all() {
        let names: Vec<String> = MessageKind::ALL.iter().map(|k| k.to_string()).collect();
        assert_eq!(
            names,
            ["HELLO", "CLUSTER", "ROUTE", "RREQ", "RREP", "TABLE", "RETX", "REPAIR"]
        );
    }

    #[test]
    fn default_sizes() {
        let s = MessageSizes::default();
        assert_eq!(s.size_of(MessageKind::Hello), 16);
        assert_eq!(s.size_of(MessageKind::Cluster), 24);
        assert_eq!(s.size_of(MessageKind::Route), 12);
        assert_eq!(s.size_of(MessageKind::TableDump), 12);
        assert_eq!(s.size_of(MessageKind::Retransmit), 24);
        assert_eq!(s.size_of(MessageKind::Repair), 24);
    }
}
