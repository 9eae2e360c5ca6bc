//! The span plane: hierarchical wall-clock spans (tick → stage → shard →
//! sub-stage) with O(shards × stages) steady-state memory and a Chrome
//! trace-event exporter.
//!
//! A [`SpanRecorder`] is the run's only per-stage timer: every closed
//! span folds into a per-`(label, shard)` streaming [`Histogram`], and
//! the tick-phase [`ProfileReport`] is a view of the main-thread stage
//! histograms ([`SpanRecorder::profile`]). The per-shard cells say
//! *which shard* is the straggler and how interconnect traffic
//! interleaves with the merge. The recorder optionally retains the most
//! recent spans verbatim in a bounded ring (the
//! [`FlightRecorder`](crate::FlightRecorder) shape) for exact timelines.
//!
//! Spans are opened and closed through the [`Probe`](crate::Probe)
//! hooks, so the disabled path builds no spans, reads no clock, and
//! stays byte-identical to a probe-less run — the same zero-cost
//! contract the event plane honors.
//!
//! Two timebases are exported ([`chrome_trace_json`]):
//!
//! - [`SpanTimebase::Wall`] — measured microseconds since the recorder
//!   was created; what you load into Perfetto / `chrome://tracing`.
//! - [`SpanTimebase::Canonical`] — timestamps derived from the
//!   deterministic open/close sequence numbers instead of the clock, so
//!   the same seed produces a byte-identical dump (pinned by an
//!   integration test). Nesting is preserved: a child opens after and
//!   closes before its parent, so its synthetic interval is strictly
//!   inside the parent's.

use crate::cause::CauseId;
use crate::hist::Histogram;
use crate::profile::{Phase, PhaseSummary, ProfileReport};
use manet_util::json::Value;
use std::time::{Duration, Instant};

/// What a span timed. `Stage` spans are the tick phases the profile
/// reports; the extra variants cover work a flat per-phase view cannot
/// attribute: the whole tick, one shard's topology compute, and one
/// directed interconnect hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanLabel {
    /// One whole protocol-stack tick (the root of the hierarchy).
    Tick,
    /// One tick phase (mobility, topology, hello, cluster, routing,
    /// shard_flush, shard_merge).
    Stage(Phase),
    /// One shard's local neighbor-row compute inside the topology stage
    /// (carries the shard index; runs on that shard's worker).
    ShardCompute,
    /// One directed interconnect send (ghost sync / migration staging)
    /// from the shard carried in the span's `shard` field.
    IcSend,
    /// One directed interconnect delivery into the shard carried in the
    /// span's `shard` field.
    IcDeliver,
}

impl SpanLabel {
    /// All labels, in hierarchy order. `Stage` appears once per
    /// [`Phase::ALL`] entry.
    pub const ALL: [SpanLabel; 11] = [
        SpanLabel::Tick,
        SpanLabel::Stage(Phase::Mobility),
        SpanLabel::Stage(Phase::Topology),
        SpanLabel::Stage(Phase::ShardFlush),
        SpanLabel::Stage(Phase::ShardMerge),
        SpanLabel::Stage(Phase::Hello),
        SpanLabel::Stage(Phase::Cluster),
        SpanLabel::Stage(Phase::Routing),
        SpanLabel::ShardCompute,
        SpanLabel::IcSend,
        SpanLabel::IcDeliver,
    ];

    /// Number of distinct labels (dense-index domain size).
    pub const COUNT: usize = 11;

    /// Dense index into per-label storage.
    fn index(self) -> usize {
        match self {
            SpanLabel::Tick => 0,
            SpanLabel::Stage(p) => 1 + p.index(),
            SpanLabel::ShardCompute => 8,
            SpanLabel::IcSend => 9,
            SpanLabel::IcDeliver => 10,
        }
    }

    /// Stable lowercase name (used as the trace-event `name` and the
    /// Prometheus `phase` label).
    pub fn name(self) -> &'static str {
        match self {
            SpanLabel::Tick => "tick",
            SpanLabel::Stage(p) => p.name(),
            SpanLabel::ShardCompute => "shard_compute",
            SpanLabel::IcSend => "ic_send",
            SpanLabel::IcDeliver => "ic_deliver",
        }
    }
}

/// Opaque token returned by [`SpanRecorder::open`] (via the probe's
/// span hooks): the open timestamp plus the deterministic open sequence
/// number the canonical timebase is built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanStart {
    pub(crate) at: Instant,
    pub(crate) seq: u64,
}

impl SpanStart {
    /// The wall-clock open instant.
    pub fn at(&self) -> Instant {
        self.at
    }
}

/// One closed span as retained by the raw ring: what, when (relative to
/// the recorder's epoch), for how long, on which shard, and why.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RawSpan {
    /// Tick counter at close time (1-based; 0 before the first tick span
    /// opens).
    pub tick: u64,
    /// What was timed.
    pub label: SpanLabel,
    /// Shard index for per-shard work; `None` for main-thread stages.
    pub shard: Option<u16>,
    /// Causal link into the attribution plane (e.g. the
    /// `InterconnectFault` cause of a lost sync), when one exists.
    pub cause: Option<CauseId>,
    /// Open time, seconds since the recorder's epoch.
    pub start_s: f64,
    /// Duration, seconds.
    pub dur_s: f64,
    /// Deterministic open order (1-based, recorder-global).
    pub open_seq: u64,
    /// Deterministic close order (recorder-global; > `open_seq`).
    pub close_seq: u64,
}

/// Bounded raw-span ring (same shape as the flight recorder's event
/// ring): preallocated, overwrites oldest once full.
#[derive(Debug, Clone)]
struct SpanRing {
    buf: Vec<RawSpan>,
    cap: usize,
    next: usize,
}

impl SpanRing {
    fn new(cap: usize) -> SpanRing {
        let cap = cap.max(1);
        SpanRing {
            buf: Vec::with_capacity(cap),
            cap,
            next: 0,
        }
    }

    #[inline]
    fn record(&mut self, span: RawSpan) {
        if self.buf.len() < self.cap {
            self.buf.push(span);
        } else {
            self.buf[self.next] = span;
        }
        self.next = (self.next + 1) % self.cap;
    }

    fn iter(&self) -> impl Iterator<Item = &RawSpan> {
        let split = if self.buf.len() < self.cap {
            0
        } else {
            self.next
        };
        self.buf[split..].iter().chain(self.buf[..split].iter())
    }
}

/// Streaming span aggregator: every closed span folds into a
/// per-`(label, shard)` [`Histogram`], so steady-state memory is
/// O(labels × shards) regardless of run length. An optional bounded
/// ring retains the most recent spans verbatim for exact timelines
/// ([`chrome_trace_json`]).
#[derive(Debug, Clone)]
pub struct SpanRecorder {
    epoch: Instant,
    tick: u64,
    seq: u64,
    /// Shard slots allocated so far: slot 0 is main-thread work
    /// (`shard: None`), slot `s + 1` is shard `s`.
    slots: usize,
    /// Slot-major histogram matrix: `agg[slot * COUNT + label]`. Growing
    /// to a new shard appends one row; existing indices never move.
    agg: Vec<Histogram>,
    ring: Option<SpanRing>,
    recorded: u64,
}

impl Default for SpanRecorder {
    fn default() -> Self {
        SpanRecorder::new()
    }
}

impl SpanRecorder {
    /// A recorder with histogram aggregation only (no raw ring).
    pub fn new() -> SpanRecorder {
        SpanRecorder {
            epoch: Instant::now(),
            tick: 0,
            seq: 0,
            slots: 1,
            agg: vec![Histogram::new(); SpanLabel::COUNT],
            ring: None,
            recorded: 0,
        }
    }

    /// Attaches a raw-span ring retaining the last `cap` spans (clamped
    /// to ≥ 1). Builder style.
    #[must_use]
    pub fn with_ring(mut self, cap: usize) -> SpanRecorder {
        self.ring = Some(SpanRing::new(cap));
        self
    }

    /// Current tick counter (incremented by [`SpanRecorder::start_tick`]).
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Advances the tick counter; called when a tick span opens.
    #[inline]
    pub fn start_tick(&mut self) {
        self.tick += 1;
    }

    /// Total spans closed over the recorder's lifetime.
    pub fn spans_recorded(&self) -> u64 {
        self.recorded
    }

    /// Whether no span has been closed yet.
    pub fn is_empty(&self) -> bool {
        self.recorded == 0
    }

    /// Number of shard slots with storage (1 + highest shard index seen;
    /// 1 when no per-shard span was recorded).
    pub fn shard_slots(&self) -> usize {
        self.slots
    }

    /// Spans retained in the raw ring, oldest first (empty without a
    /// ring).
    pub fn ring(&self) -> impl Iterator<Item = &RawSpan> {
        self.ring.iter().flat_map(|r| r.iter())
    }

    /// Number of spans currently retained in the raw ring.
    pub fn ring_len(&self) -> usize {
        self.ring.as_ref().map_or(0, |r| r.buf.len())
    }

    /// The aggregate histogram for `(label, shard)`; `None` when that
    /// cell never received a span. `shard: None` addresses main-thread
    /// work.
    pub fn hist(&self, label: SpanLabel, shard: Option<u16>) -> Option<&Histogram> {
        let slot = shard.map_or(0, |s| s as usize + 1);
        if slot >= self.slots {
            return None;
        }
        let h = &self.agg[slot * SpanLabel::COUNT + label.index()];
        (!h.is_empty()).then_some(h)
    }

    /// The tick-phase profile: [`PhaseSummary::from_histogram`] over each
    /// main-thread `Stage` histogram, in [`Phase::ALL`] order, skipping
    /// phases that never ran.
    pub fn profile(&self) -> ProfileReport {
        let phases = Phase::ALL
            .into_iter()
            .filter_map(|phase| {
                let hist = self.hist(SpanLabel::Stage(phase), None)?;
                Some((phase, PhaseSummary::from_histogram(hist)?))
            })
            .collect();
        ProfileReport { phases }
    }

    /// Opens a span: reads the clock once and takes the next sequence
    /// number.
    #[inline]
    pub fn open(&mut self) -> SpanStart {
        self.seq += 1;
        SpanStart {
            at: Instant::now(),
            seq: self.seq,
        }
    }

    /// Closes a span opened by [`SpanRecorder::open`], reading the clock
    /// for the duration.
    #[inline]
    pub fn close(
        &mut self,
        start: SpanStart,
        label: SpanLabel,
        shard: Option<u16>,
        cause: Option<CauseId>,
    ) {
        let dur = start.at.elapsed();
        self.seq += 1;
        let close_seq = self.seq;
        self.commit(label, shard, cause, start.at, dur, start.seq, close_seq);
    }

    /// Records a span that was timed off-thread (e.g. a shard worker):
    /// both sequence numbers are assigned here, at the deterministic
    /// point the main thread folds the measurement in.
    #[inline]
    pub fn record_external(
        &mut self,
        label: SpanLabel,
        shard: Option<u16>,
        cause: Option<CauseId>,
        at: Instant,
        dur: Duration,
    ) {
        self.seq += 1;
        let open_seq = self.seq;
        self.seq += 1;
        let close_seq = self.seq;
        self.commit(label, shard, cause, at, dur, open_seq, close_seq);
    }

    #[allow(clippy::too_many_arguments)]
    fn commit(
        &mut self,
        label: SpanLabel,
        shard: Option<u16>,
        cause: Option<CauseId>,
        at: Instant,
        dur: Duration,
        open_seq: u64,
        close_seq: u64,
    ) {
        let slot = shard.map_or(0, |s| s as usize + 1);
        if slot >= self.slots {
            // One-time growth per newly seen shard; steady state never
            // reallocates.
            self.agg
                .resize((slot + 1) * SpanLabel::COUNT, Histogram::new());
            self.slots = slot + 1;
        }
        let dur_s = dur.as_secs_f64();
        self.agg[slot * SpanLabel::COUNT + label.index()].record(dur_s);
        self.recorded += 1;
        if let Some(ring) = self.ring.as_mut() {
            ring.record(RawSpan {
                tick: self.tick,
                label,
                shard,
                cause,
                start_s: at.saturating_duration_since(self.epoch).as_secs_f64(),
                dur_s,
                open_seq,
                close_seq,
            });
        }
    }
}

/// Which timestamps a [`chrome_trace_json`] export carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpanTimebase {
    /// Measured wall-clock microseconds since the recorder's epoch — the
    /// profiling view.
    #[default]
    Wall,
    /// Synthetic timestamps from the deterministic open/close sequence
    /// numbers (`ts = 8·open_seq`, `dur = 8·(close_seq − open_seq) + 4`):
    /// same seed ⇒ byte-identical file. Durations are fictitious but
    /// nesting and ordering are exact.
    Canonical,
}

/// Renders the recorder's raw ring as a Chrome trace-event JSON document
/// (`ph: "X"` complete events, `pid` 1, `tid` 0 for the main thread and
/// `shard + 1` per shard), loadable in Perfetto / `chrome://tracing` and
/// parseable by `manet_util::json::Value::parse`.
///
/// Each event's `args` carry the tick and, when present, the span's
/// causal link (`cause`). Thread-name metadata events map `tid`s back to
/// "main" / "shard N".
pub fn chrome_trace_json(rec: &SpanRecorder, timebase: SpanTimebase) -> String {
    let tid_of = |shard: Option<u16>| -> u64 { shard.map_or(0, |s| s as u64 + 1) };
    let mut tids: Vec<u64> = rec.ring().map(|s| tid_of(s.shard)).collect();
    tids.sort_unstable();
    tids.dedup();

    let mut events = Vec::new();
    for &tid in &tids {
        let name = if tid == 0 {
            "main".to_string()
        } else {
            format!("shard {}", tid - 1)
        };
        events.push(Value::Obj(vec![
            ("name".into(), Value::from("thread_name")),
            ("ph".into(), Value::from("M")),
            ("pid".into(), Value::from(1u64)),
            ("tid".into(), Value::from(tid)),
            (
                "args".into(),
                Value::Obj(vec![("name".into(), Value::from(name))]),
            ),
        ]));
    }
    for span in rec.ring() {
        let (ts, dur) = match timebase {
            SpanTimebase::Wall => (span.start_s * 1e6, span.dur_s * 1e6),
            SpanTimebase::Canonical => (
                (span.open_seq * 8) as f64,
                ((span.close_seq - span.open_seq) * 8 + 4) as f64,
            ),
        };
        let mut args = vec![("tick".into(), Value::from(span.tick))];
        if let Some(CauseId(id)) = span.cause {
            args.push(("cause".into(), Value::from(id)));
        }
        events.push(Value::Obj(vec![
            ("name".into(), Value::from(span.label.name())),
            ("cat".into(), Value::from("tick")),
            ("ph".into(), Value::from("X")),
            ("pid".into(), Value::from(1u64)),
            ("tid".into(), Value::from(tid_of(span.shard))),
            ("ts".into(), Value::from(ts)),
            ("dur".into(), Value::from(dur)),
            ("args".into(), Value::Obj(args)),
        ]));
    }
    Value::Obj(vec![
        ("traceEvents".into(), Value::Arr(events)),
        ("displayTimeUnit".into(), Value::from("ms")),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_have_dense_unique_indices_and_names() {
        let mut seen = [false; SpanLabel::COUNT];
        for label in SpanLabel::ALL {
            let i = label.index();
            assert!(i < SpanLabel::COUNT, "{label:?}");
            assert!(!seen[i], "duplicate index for {label:?}");
            seen[i] = true;
            assert!(!label.name().is_empty());
        }
        assert!(seen.iter().all(|&s| s));
        // Names are unique too (they become trace-event names).
        let mut names: Vec<_> = SpanLabel::ALL.iter().map(|l| l.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SpanLabel::COUNT);
    }

    #[test]
    fn open_close_aggregates_per_label_and_shard() {
        let mut rec = SpanRecorder::new();
        assert!(rec.is_empty());
        let s = rec.open();
        rec.close(s, SpanLabel::Stage(Phase::Topology), None, None);
        rec.record_external(
            SpanLabel::ShardCompute,
            Some(2),
            None,
            Instant::now(),
            Duration::from_micros(500),
        );
        assert_eq!(rec.spans_recorded(), 2);
        assert_eq!(rec.shard_slots(), 4, "slots grow to shard index + 2");
        let h = rec.hist(SpanLabel::ShardCompute, Some(2)).unwrap();
        assert_eq!(h.count(), 1);
        assert!((h.sum() - 5e-4).abs() < 1e-9);
        assert!(rec.hist(SpanLabel::ShardCompute, Some(1)).is_none());
        assert!(rec.hist(SpanLabel::Stage(Phase::Topology), None).is_some());
        assert!(rec.hist(SpanLabel::Tick, None).is_none());
        // No ring attached: nothing retained.
        assert_eq!(rec.ring_len(), 0);
        assert_eq!(rec.ring().count(), 0);
    }

    #[test]
    fn ring_wraps_keeping_the_newest_spans() {
        let mut rec = SpanRecorder::new().with_ring(3);
        for i in 0..5u64 {
            rec.start_tick();
            rec.record_external(
                SpanLabel::Tick,
                None,
                None,
                Instant::now(),
                Duration::from_micros(i),
            );
        }
        assert_eq!(rec.ring_len(), 3);
        let ticks: Vec<u64> = rec.ring().map(|s| s.tick).collect();
        assert_eq!(ticks, vec![3, 4, 5], "oldest-first, newest retained");
        assert_eq!(rec.spans_recorded(), 5);
    }

    #[test]
    fn sequence_numbers_are_strictly_ordered() {
        let mut rec = SpanRecorder::new().with_ring(16);
        let outer = rec.open();
        let inner = rec.open();
        rec.close(inner, SpanLabel::Stage(Phase::Mobility), None, None);
        rec.close(outer, SpanLabel::Tick, None, None);
        let spans: Vec<RawSpan> = rec.ring().copied().collect();
        assert_eq!(spans.len(), 2);
        let inner_s = spans.iter().find(|s| s.label != SpanLabel::Tick).unwrap();
        let outer_s = spans.iter().find(|s| s.label == SpanLabel::Tick).unwrap();
        // The child opens after and closes before the parent, so its
        // canonical interval nests strictly inside the parent's.
        assert!(outer_s.open_seq < inner_s.open_seq);
        assert!(inner_s.close_seq < outer_s.close_seq);
        for s in &spans {
            assert!(s.open_seq < s.close_seq);
        }
    }

    #[test]
    fn chrome_trace_round_trips_through_the_json_parser() {
        let mut rec = SpanRecorder::new().with_ring(8);
        rec.start_tick();
        rec.record_external(
            SpanLabel::ShardCompute,
            Some(1),
            Some(CauseId(42)),
            Instant::now(),
            Duration::from_micros(250),
        );
        let s = rec.open();
        rec.close(s, SpanLabel::Tick, None, None);
        let text = chrome_trace_json(&rec, SpanTimebase::Wall);
        let doc = Value::parse(&text).unwrap();
        let events = match doc.get("traceEvents") {
            Some(Value::Arr(evs)) => evs,
            other => panic!("traceEvents missing: {other:?}"),
        };
        // 2 thread_name metadata events (tid 0 and tid 2) + 2 spans.
        assert_eq!(events.len(), 4);
        let span_evs: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .collect();
        assert_eq!(span_evs.len(), 2);
        let shard_ev = span_evs
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("shard_compute"))
            .unwrap();
        assert_eq!(shard_ev.get("tid").and_then(Value::as_u64), Some(2));
        assert_eq!(
            shard_ev
                .get("args")
                .and_then(|a| a.get("cause"))
                .and_then(Value::as_u64),
            Some(42)
        );
        assert!(shard_ev.get("dur").and_then(Value::as_f64).unwrap() > 0.0);
    }

    #[test]
    fn canonical_timebase_is_clock_free_and_nested() {
        let mut rec = SpanRecorder::new().with_ring(8);
        rec.start_tick();
        let outer = rec.open();
        let inner = rec.open();
        rec.close(inner, SpanLabel::Stage(Phase::Hello), None, None);
        rec.close(outer, SpanLabel::Tick, None, None);
        let text = chrome_trace_json(&rec, SpanTimebase::Canonical);
        let doc = Value::parse(&text).unwrap();
        let events = match doc.get("traceEvents") {
            Some(Value::Arr(evs)) => evs,
            _ => unreachable!(),
        };
        let interval = |name: &str| -> (f64, f64) {
            let e = events
                .iter()
                .find(|e| e.get("name").and_then(Value::as_str) == Some(name))
                .unwrap();
            let ts = e.get("ts").and_then(Value::as_f64).unwrap();
            let dur = e.get("dur").and_then(Value::as_f64).unwrap();
            (ts, ts + dur)
        };
        let (t0, t1) = interval("tick");
        let (h0, h1) = interval("hello");
        assert!(t0 < h0 && h1 < t1, "child nests strictly inside parent");
    }
}
