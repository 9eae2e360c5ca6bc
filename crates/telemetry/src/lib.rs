//! Telemetry plane for the clustered-MANET stack.
//!
//! The paper's claims are about *rates over time* — per-node HELLO /
//! CLUSTER / ROUTE frequencies as functions of `N`, `v`, `r`, `P` — but
//! end-of-run `Counters` totals hide transients: warmup convergence,
//! post-churn repair storms, election cascades. This crate adds the
//! missing observability without perturbing the simulation:
//!
//! * [`event`] — structured [`Event`]s (`LinkUp`/`LinkDown`,
//!   `HeadElected`/`HeadResigned`, `MemberReaffiliated`,
//!   `RouteRoundStarted`, `RetxScheduled`, `NodeCrashed`/`NodeRecovered`,
//!   batched `MsgSent`/`MsgLost`) carrying sim-time, node ids, and the
//!   originating [`Layer`]; the [`Subscriber`] sink trait; and the
//!   [`Probe`] handle instrumented code paths thread through the stack.
//!   [`Probe::off`] is the zero-cost disabled form — all hooks are
//!   `#[inline]` branches on `None`, so an untraced run is bit-identical
//!   to a build with telemetry never attached (mirroring the fault
//!   plane's `FaultHooks` pattern).
//! * [`window`] — a [`WindowedRecorder`]: fixed-width tumbling windows
//!   over sim time yielding per-class rate series, cluster-count and
//!   head-change series, link-churn series, and warmup detection (first
//!   window within tolerance of the steady-state rate).
//! * [`hist`] — fixed-capacity, zero-alloc, log2-bucketed streaming
//!   [`Histogram`]s (record / merge / p50–p99 quantiles) whose memory
//!   footprint is a compile-time constant — the storage behind the
//!   span plane and safe for unbounded-length server runs.
//! * [`profile`] — the tick [`Phase`]s (mobility / topology / shard
//!   flush + merge / HELLO / cluster / routing) and the [`ProfileReport`]
//!   of per-phase min / mean / p99 / max summaries, a view of the span
//!   recorder's stage histograms.
//! * [`sink`] — JSONL persistence ([`JsonlSink`], [`read_trace`]) and the
//!   [`TraceOut`] fan-out used by traced harness runs.
//! * [`cause`] — the root-cause taxonomy ([`RootCause`], [`CauseId`]) and
//!   the [`CauseTracker`] that threads "why" through the layers: every
//!   event optionally carries the [`Cause`] that triggered it, so a trace
//!   can be folded into the paper's per-event overhead decomposition.
//! * [`attribution`] — the streaming [`AttributionLedger`]: messages and
//!   bytes per `RootCause` × `MsgClass`, measured per-event unit costs,
//!   and a causal-chain index queryable by [`CauseId`].
//! * [`audit`] — windowed runtime invariant monitors ([`AuditMonitor`]):
//!   head separation and live-head persistence with grace windows, repair
//!   drain, and exact trace ↔ counter reconciliation, reported as
//!   structured [`AuditViolation`]s instead of panics.
//! * [`export`] — a Prometheus text-exposition snapshot exporter
//!   ([`prometheus_text`]) over recorder totals, the ledger, the shard
//!   plane and the span histograms.
//! * [`serve`] — the one zero-dependency [`HttpListener`] (one accept
//!   thread, one request deadline, one `/quit`) that every HTTP frontend
//!   hands its routes to, and the live exporter on it ([`serve_metrics`]):
//!   `/metrics`, `/health`, and `/flight` from [`TelemetrySnapshot`]s the
//!   tick loop publishes once per tumbling window via an `Arc` swap —
//!   scrapers can never block the hot path.
//! * [`flight`] — the [`FlightRecorder`]: a bounded ring over the live
//!   event stream, dumped as replayable JSONL (same codec as [`sink`])
//!   when an audit violation fires — chaos post-mortems without paying
//!   for full tracing.
//! * [`span`] — the span plane, the one wall-clock timer: hierarchical
//!   spans (tick → stage → shard → interconnect hop) recorded through the
//!   probe's phase hooks, aggregated per `(label, shard)` into streaming
//!   histograms by a [`SpanRecorder`] with an optional bounded raw ring,
//!   and exported as Chrome trace-event JSON ([`chrome_trace_json`]) for
//!   Perfetto / `chrome://tracing`.
//!
//! The crate depends only on `manet-util` (for the in-house JSON layer),
//! keeping the workspace hermetic, and sits *below* the simulator in the
//! dependency graph: it defines its own [`MsgClass`] mirror of the sim's
//! `MessageKind`, and the sim provides the `From` conversion.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attribution;
pub mod audit;
pub mod cause;
pub mod event;
pub mod export;
pub mod flight;
pub mod hist;
pub mod profile;
pub mod serve;
pub mod sink;
pub mod span;
pub mod window;

pub use attribution::{is_root_anchor, root_weight, AttributionLedger, ChainEntry};
pub use audit::{AuditConfig, AuditMonitor, AuditReport, AuditSample, AuditViolation};
pub use cause::{Cause, CauseId, CauseTracker, RootCause};
pub use event::{Event, EventKind, Layer, MsgClass, NodeId, NoopSubscriber, Probe, Subscriber};
pub use export::{
    escape_label_value, prometheus_text, write_histogram, ShardGaugeRow, ShardSnapshot,
};
pub use flight::{FlightRecorder, FlightTrigger};
pub use hist::{Histogram, HIST_BUCKETS};
pub use profile::{Phase, PhaseSummary, ProfileReport};
pub use serve::{
    serve_metrics, HttpListener, HttpRequest, HttpResponse, Publisher, TelemetrySnapshot,
    MAX_REQUEST_BODY, REQUEST_DEADLINE,
};
pub use sink::{read_trace, JsonlSink, Trace, TraceMeta, TraceOut};
pub use span::{chrome_trace_json, RawSpan, SpanLabel, SpanRecorder, SpanStart, SpanTimebase};
pub use window::{WindowStats, WindowedRecorder};
