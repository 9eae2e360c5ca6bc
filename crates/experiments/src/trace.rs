//! Traced runs: the telemetry-instrumented twin of the harness loop.
//!
//! [`trace_run`] drives the full ideal stack (HELLO + clustering +
//! intra-cluster routing) with a live [`Probe`], producing a windowed
//! time-series recorder, per-stage wall-clock spans (and the tick-phase
//! profile projected from them), and (optionally) a JSONL trace file.
//! Unlike `measure_lid` it traces from `t = 0` with no warmup cut, so
//! the recorded series *shows* the transient — the trace-report tooling
//! estimates the warmup point from the data instead of assuming it.
//!
//! Every experiment binary accepts `--trace-out <path>` (via
//! [`BinArgs::finish`](crate::cli::BinArgs::finish)): when present, a
//! traced twin of the binary's default scenario runs after the experiment
//! proper and writes its JSONL trace there, summarized on stdout.
//! `bin/trace_report` re-reads such files.

use crate::harness::{ideal_stack, run_measured, CancelToken, Protocol, Scenario, ShardRun};
use manet_cluster::LowestId;
use manet_model::overhead::{contact_unit_cost, route_unit_cost, RouteLinkModel};
use manet_shard::ShardPlane;
use manet_sim::{Counters, MessageKind};
use manet_stack::{ClusterLayer, ProtocolStack, RouteLayer};
use manet_telemetry::{
    chrome_trace_json, prometheus_text, AttributionLedger, AuditConfig, AuditMonitor, AuditReport,
    CauseTracker, Event, FlightRecorder, FlightTrigger, JsonlSink, MsgClass, Probe, ProfileReport,
    Publisher, RootCause, ShardSnapshot, SpanRecorder, SpanTimebase, Subscriber, TelemetrySnapshot,
    TraceMeta, TraceOut, WindowedRecorder,
};
use std::fmt::Write as _;
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Instant;

/// Relative tolerance defining "settled": the warmup point is the first
/// window whose CLUSTER rate is within this fraction of the steady state.
pub const WARMUP_TOLERANCE: f64 = 0.1;

/// Telemetry options for a traced run.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryConfig {
    /// Tumbling-window width for the time series, sim seconds.
    pub window: f64,
    /// JSONL trace output path (`None` = in-memory recording only).
    pub out: Option<PathBuf>,
    /// Run label stamped into the trace meta line.
    pub label: String,
    /// Thread a [`CauseTracker`] through the stack and stream every event
    /// into an [`AttributionLedger`] plus the runtime audit monitors.
    /// Off by default: an unattributed run emits the exact same event
    /// stream as before the attribution plane existed.
    pub attribution: bool,
    /// Prometheus text-format snapshot path, written once after the run.
    pub metrics_out: Option<PathBuf>,
    /// Arm a [`FlightRecorder`] retaining the last `K` events (`None` =
    /// no flight recorder; the plain event path is untouched).
    pub flight: Option<usize>,
    /// Where to dump the flight ring as replayable JSONL: on the first
    /// audit violation, or (when none fires) once at end of run so the
    /// black box is never silently empty.
    pub flight_out: Option<PathBuf>,
    /// Chrome trace-event JSON output path, written once after the run
    /// from the raw-span ring (arms the ring, with
    /// [`DEFAULT_SPAN_RING_CAPACITY`] unless `spans_ring` is set).
    pub spans_out: Option<PathBuf>,
    /// Raw-span ring capacity. Every traced run aggregates its spans into
    /// per-(stage, shard) histograms; the ring that retains spans
    /// verbatim is armed only by this or [`TelemetryConfig::spans_out`].
    pub spans_ring: Option<usize>,
    /// Export spans on the canonical timebase (sequence-derived
    /// timestamps, byte-identical across same-seed runs) instead of wall
    /// clock.
    pub spans_canonical: bool,
}

impl TelemetryConfig {
    /// In-memory telemetry with the default 5 s window.
    pub fn in_memory(label: &str) -> TelemetryConfig {
        TelemetryConfig {
            window: 5.0,
            out: None,
            label: label.to_string(),
            attribution: false,
            metrics_out: None,
            flight: None,
            flight_out: None,
            spans_out: None,
            spans_ring: None,
            spans_canonical: false,
        }
    }

    /// Telemetry teed to a JSONL file with the default 5 s window.
    pub fn to_file(label: &str, path: PathBuf) -> TelemetryConfig {
        TelemetryConfig {
            out: Some(path),
            ..TelemetryConfig::in_memory(label)
        }
    }

    /// Enables causal attribution and the audit monitors.
    pub fn with_attribution(mut self) -> TelemetryConfig {
        self.attribution = true;
        self
    }

    /// Writes a Prometheus text-format metrics snapshot to `path` after
    /// the run. Implies attribution so the snapshot carries the
    /// per-root-cause families.
    pub fn with_metrics_out(mut self, path: PathBuf) -> TelemetryConfig {
        self.metrics_out = Some(path);
        self.attribution = true;
        self
    }

    /// Arms a flight recorder retaining the last `k` events.
    pub fn with_flight(mut self, k: usize) -> TelemetryConfig {
        self.flight = Some(k);
        self
    }

    /// Sets the flight-dump path (arms a default-capacity recorder when
    /// [`TelemetryConfig::flight`] was not set explicitly).
    pub fn with_flight_out(mut self, path: PathBuf) -> TelemetryConfig {
        self.flight_out = Some(path);
        if self.flight.is_none() {
            self.flight = Some(DEFAULT_FLIGHT_CAPACITY);
        }
        self
    }

    /// Writes the raw span ring as Chrome trace-event JSON to `path`
    /// after the run (load it at `ui.perfetto.dev` or `chrome://tracing`).
    pub fn with_spans_out(mut self, path: PathBuf) -> TelemetryConfig {
        self.spans_out = Some(path);
        self
    }

    /// Sets the raw-span ring capacity (and so arms the ring).
    pub fn with_spans_ring(mut self, cap: usize) -> TelemetryConfig {
        self.spans_ring = Some(cap);
        self
    }

    /// The raw-span ring capacity this config arms: `--spans-ring <K>`,
    /// else [`DEFAULT_SPAN_RING_CAPACITY`] when a span dump was asked
    /// for, else `None` (histograms only).
    pub(crate) fn span_ring(&self) -> Option<usize> {
        self.spans_ring
            .or_else(|| self.spans_out.as_ref().map(|_| DEFAULT_SPAN_RING_CAPACITY))
    }

    /// Switches span export to the canonical (sequence-derived,
    /// deterministic) timebase.
    pub fn with_spans_canonical(mut self) -> TelemetryConfig {
        self.spans_canonical = true;
        self
    }

    /// The span-export timebase this config selects.
    pub fn span_timebase(&self) -> SpanTimebase {
        if self.spans_canonical {
            SpanTimebase::Canonical
        } else {
            SpanTimebase::Wall
        }
    }
}

/// Ring capacity when `--flight-out` is given without `--flight <K>`.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;

/// Raw-span ring capacity when `--spans-out` arms the ring without
/// `--spans-ring <K>`.
/// A quick traced run closes a few tens of spans per tick, so 64 Ki spans
/// retain several hundred ticks of full fidelity.
pub const DEFAULT_SPAN_RING_CAPACITY: usize = 1 << 16;

/// Causal-attribution outputs of a traced run, present when
/// [`TelemetryConfig::attribution`] was set.
#[derive(Debug)]
pub struct AttributionRun {
    /// Root-cause overhead ledger streamed over every event of the run.
    pub ledger: AttributionLedger,
    /// Runtime invariant audit: violations plus sample/event counts,
    /// including the end-of-run Counters reconciliation checks.
    pub audit: AuditReport,
}

/// Everything a traced run produced.
#[derive(Debug)]
pub struct TraceRun {
    /// The run's metadata (also the trace file's first line).
    pub meta: TraceMeta,
    /// Final message counters — the ground truth the recorder's window
    /// sums reconcile against.
    pub counters: Counters,
    /// The windowed time series.
    pub recorder: WindowedRecorder,
    /// Tick-phase wall-clock profile: [`SpanRecorder::profile`] of
    /// [`TraceRun::spans`].
    pub profile: ProfileReport,
    /// Causal attribution outputs (`None` unless enabled in the config).
    pub attribution: Option<AttributionRun>,
    /// End-of-run shard + link-health snapshot; also rendered into the
    /// Prometheus metrics snapshot.
    pub shard: ShardSnapshot,
    /// The flight recorder's final ring (`None` unless armed) — what a
    /// dump at end of run would contain, kept for tests and tooling.
    pub flight: Option<FlightRecorder>,
    /// The span recorder: per-(stage, shard) duration histograms, plus
    /// the raw-span ring behind the Chrome trace export when
    /// [`TelemetryConfig::spans_out`] or [`TelemetryConfig::spans_ring`]
    /// armed one. `bin/span_report` builds its critical-path and
    /// imbalance tables from this.
    pub spans: SpanRecorder,
}

/// The consumers every traced event reaches: the trace output, plus the
/// attribution ledger with the audit monitor, and the flight ring, when
/// the run armed them.
#[derive(Debug)]
struct Tee<W: Write> {
    out: TraceOut<W>,
    attribution: Option<(AttributionLedger, AuditMonitor)>,
    flight: Option<FlightRecorder>,
}

impl<W: Write> Subscriber for Tee<W> {
    fn event(&mut self, event: &Event) {
        self.out.event(event);
        if let Some((ledger, audit)) = &mut self.attribution {
            ledger.absorb(event);
            audit.event(event);
        }
        if let Some(flight) = &mut self.flight {
            flight.record(event);
        }
    }
}

/// One traced run's trace and everything that observes it: the meta
/// line, the event consumers ([`TraceOut`]'s windowed recorder and
/// optional JSONL sink, plus the attribution ledger, audit monitor and
/// flight recorder a config arms), the cause tracker, the span recorder,
/// the live publisher, and the closing profile line.
///
/// A capture observes one [`run_measured`] run, whose ticks, warmup and
/// measurement alike, run with the capture's probe, and which hands the
/// capture each ticked stack and, after the last tick, the stack's final
/// state. Two runs carry one: [`trace_run_to_sink`]'s, and the first seed
/// of a measurement handed a capture
/// ([`measure_with_policy_ctl`](crate::harness::measure_with_policy_ctl)),
/// which is how a traced `single` job simulates its seed once.
#[derive(Debug)]
pub struct TraceCapture<W: Write> {
    meta: TraceMeta,
    config: TelemetryConfig,
    tee: Tee<W>,
    tracker: Option<CauseTracker>,
    spans: SpanRecorder,
    trigger: FlightTrigger,
    live: Option<&'static Publisher>,
    started: Instant,
    published_windows: usize,
    ticks: u64,
    /// The first I/O error of a flight dump during the run.
    error: Option<io::Error>,
    /// The run's final counters and shard snapshot.
    end: Option<(Counters, ShardSnapshot)>,
}

impl<W: Write> TraceCapture<W> {
    /// Opens the capture of `protocol`'s first seed over `scenario`
    /// (`warmup + measure` sim seconds from `t = 0`), arms what `config`
    /// asks for, and writes the meta line.
    pub(crate) fn new(
        scenario: &Scenario,
        protocol: &Protocol,
        config: &TelemetryConfig,
        sink: Option<JsonlSink<W>>,
    ) -> TraceCapture<W> {
        let meta = TraceMeta {
            label: config.label.clone(),
            nodes: scenario.nodes as u64,
            window: config.window,
            dt: protocol.dt,
            duration: protocol.warmup + protocol.measure,
            seed: protocol.seeds.first().copied().unwrap_or(1),
        };
        let mut out = TraceOut::new(config.window, sink);
        out.write_meta(&meta);
        let spans = match config.span_ring() {
            Some(cap) => SpanRecorder::new().with_ring(cap),
            None => SpanRecorder::new(),
        };
        let attribution = config.attribution.then(|| {
            (
                AttributionLedger::new(),
                AuditMonitor::new(AuditConfig::default()),
            )
        });
        TraceCapture {
            meta,
            config: config.clone(),
            tee: Tee {
                out,
                attribution,
                flight: config.flight.map(FlightRecorder::new),
            },
            tracker: config.attribution.then(CauseTracker::new),
            spans,
            trigger: FlightTrigger::new(),
            live: live_publisher(),
            started: Instant::now(),
            published_windows: usize::MAX,
            ticks: 0,
            error: None,
            end: None,
        }
    }

    /// The probe one traced tick runs with: every event to the consumers
    /// (straight to the trace output when nothing else is armed, so a
    /// plain trace pays for no tee), every span to the recorder, and
    /// causes to the tracker when attributing.
    pub(crate) fn probe(&mut self) -> Probe<'_> {
        let tee = &mut self.tee;
        let sub: &mut dyn Subscriber = if tee.attribution.is_some() || tee.flight.is_some() {
            tee
        } else {
            &mut tee.out
        };
        Probe::with_causes(Some(sub), self.tracker.as_mut()).with_spans(Some(&mut self.spans))
    }

    /// Observes the tick `stack` just ran, which ended at sim time `time`:
    /// samples the audit monitors, dumps the flight ring the moment the
    /// audit first trips, and publishes a live snapshot once per tumbling
    /// window (never per tick, never on the scraper's clock). A failed
    /// dump is kept for [`TraceCapture::finish`] to return.
    pub(crate) fn after_tick<C: ClusterLayer, R: RouteLayer>(
        &mut self,
        stack: &ProtocolStack<C, R, ShardPlane>,
        time: f64,
    ) {
        self.ticks += 1;
        if let Some((_, audit)) = &mut self.tee.attribution {
            audit.sample(&stack.audit_sample(time));
            if let (Some(fr), Some(path)) = (&self.tee.flight, &self.config.flight_out) {
                if self.trigger.check(audit.violation_count()) {
                    match fr.dump_to(path, &self.meta, "audit-violation") {
                        Ok(()) => println!(
                            "[flight] audit violation: ring dumped -> {}",
                            path.display()
                        ),
                        Err(e) => {
                            self.error.get_or_insert(e);
                        }
                    }
                }
            }
        }
        if let Some(publisher) = self.live {
            let windows = self.tee.out.recorder.windows().len();
            if windows != self.published_windows {
                self.published_windows = windows;
                publisher.publish(self.snapshot(&stack.stages().snapshot(), time));
            }
        }
    }

    /// Takes the final counters and shard snapshot of the run `stack`
    /// just finished.
    pub(crate) fn end<C: ClusterLayer, R: RouteLayer>(
        &mut self,
        stack: &ProtocolStack<C, R, ShardPlane>,
    ) {
        self.end = Some((stack.world().counters().clone(), stack.stages().snapshot()));
    }

    /// One live snapshot: the Prometheus text `--metrics-out` writes at
    /// end of run, plus tick progress for `/health` and the flight ring
    /// for `/flight`.
    fn snapshot(&self, shard: &ShardSnapshot, sim_time: f64) -> TelemetrySnapshot {
        let attribution = self.tee.attribution.as_ref();
        TelemetrySnapshot {
            metrics: prometheus_text(
                &self.tee.out.recorder,
                attribution.map(|(ledger, _)| ledger),
                Some(shard),
                Some(&self.spans),
            ),
            tick: self.ticks,
            sim_time,
            ticks_per_sec: self.ticks as f64 / self.started.elapsed().as_secs_f64().max(1e-9),
            audit_violations: attribution.map_or(0, |(_, audit)| audit.violation_count()),
            flight: self
                .tee
                .flight
                .as_ref()
                .map_or_else(String::new, |fr| fr.dump_string(&self.meta, "live")),
        }
    }

    /// Closes the trace of the ended run: publishes the final snapshot,
    /// writes the profile line, leaves a black box behind when the audit
    /// never tripped, writes the span and metrics files the config names,
    /// and reconciles the audit with the final counters.
    ///
    /// # Errors
    ///
    /// Returns a dump's I/O error from the run, else the sink's first
    /// latched I/O error, else the first failed write here.
    ///
    /// # Panics
    ///
    /// Panics unless [`TraceCapture::end`] took the run's final state.
    pub(crate) fn finish(mut self) -> io::Result<(TraceRun, Option<W>)> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        let (counters, shard) = self.end.take().expect("a capture finishes an ended run");
        if let Some(publisher) = self.live {
            publisher.publish(self.snapshot(&shard, self.meta.duration));
        }
        let profile = self.spans.profile();
        let Tee {
            mut out,
            attribution,
            flight,
        } = self.tee;
        let recorder =
            std::mem::replace(&mut out.recorder, WindowedRecorder::new(self.meta.window));
        let writer = out.finish_into(&profile)?;
        let config = &self.config;
        if let (Some(fr), Some(path), false) = (&flight, &config.flight_out, self.trigger.fired()) {
            fr.dump_to(path, &self.meta, "end-of-run")?;
        }
        if let Some(path) = &config.spans_out {
            std::fs::write(path, chrome_trace_json(&self.spans, config.span_timebase()))?;
        }
        let attribution = attribution.map(|(ledger, mut audit)| {
            for (class, kind) in [
                (MsgClass::Hello, MessageKind::Hello),
                (MsgClass::Cluster, MessageKind::Cluster),
                (MsgClass::Route, MessageKind::Route),
            ] {
                audit.reconcile(class, counters.messages(kind));
            }
            AttributionRun {
                ledger,
                audit: audit.finish(),
            }
        });
        if let Some(path) = &config.metrics_out {
            std::fs::write(
                path,
                prometheus_text(
                    &recorder,
                    attribution.as_ref().map(|a| &a.ledger),
                    Some(&shard),
                    Some(&self.spans),
                ),
            )?;
        }
        let run = TraceRun {
            meta: self.meta,
            counters,
            recorder,
            profile,
            attribution,
            shard,
            flight,
            spans: self.spans,
        };
        Ok((run, writer))
    }
}

/// The `capture` of a measured run that nothing traces
/// ([`run_measured`] takes any writer's capture, so a bare `None` names
/// no type).
pub(crate) const UNTRACED: Option<&mut TraceCapture<Vec<u8>>> = None;

/// An in-memory JSONL sink, as the jobs plane captures traces into.
///
/// The sink writes each line whole, so an empty buffer's first size would
/// be its first line's, the meta line's, and it would double through
/// multiples of that: the 436 KB trace of an N = 200, 60-tick point (an
/// 89-byte meta line) would end in a 712 KiB buffer. Starting at 4 KiB
/// keeps the doublings on powers of two, so that trace ends in 512 KiB,
/// as it did when lines were written piece by piece. A worker holds this
/// buffer and the trace's copy at once when the job finishes.
pub(crate) fn memory_sink() -> JsonlSink<Vec<u8>> {
    JsonlSink::new(Vec::with_capacity(4096))
}

/// The text of an in-memory trace sink's bytes.
///
/// # Errors
///
/// `InvalidData` when the bytes are not UTF-8 (unreachable for the
/// in-house encoders).
pub(crate) fn jsonl_text(writer: Option<Vec<u8>>) -> io::Result<String> {
    let bytes = writer.expect("a provided sink always yields its writer back");
    String::from_utf8(bytes).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Runs the ideal stack once (first seed of `protocol`) with telemetry
/// attached, tracing from `t = 0` for `warmup + measure` sim seconds, on
/// the [`ShardRun`] options `run` (`None` = the default layout), and
/// writes the JSONL trace to [`TelemetryConfig::out`] when one is named.
///
/// The harness emits a batched `MsgSent` event for exactly the count it
/// records into the shared [`Counters`], per layer per tick, so the
/// recorder's per-class window sums reconcile with the final counters by
/// construction. The event stream, recorder and counters are
/// bit-identical across layouts and worker counts for a fixed seed (the
/// root `tests/shard_plane.rs` pins the traced JSONL byte for byte). A
/// fallible interconnect config turns the traced run into a chaos run:
/// ghost syncs and migrations ride seeded lossy links, stalled shards
/// freeze, and the `interconnect_*` event kinds appear in the trace.
///
/// # Errors
///
/// Returns any I/O error from creating or writing the JSONL sink.
///
/// # Panics
///
/// Panics when the layout is too fine for the radius or the interconnect
/// config is invalid; chaos sweeps construct both in code.
pub fn trace_run(
    scenario: &Scenario,
    protocol: &Protocol,
    config: &TelemetryConfig,
    run: Option<&ShardRun>,
) -> io::Result<TraceRun> {
    let sink = config.out.as_ref().map(JsonlSink::create).transpose()?;
    let (run, _) = trace_run_to_sink(scenario, protocol, config, run, sink, None)?
        .expect("a traced run without a cancel token cannot be cancelled");
    Ok(run)
}

/// Captures a traced run's JSONL bytes in memory instead of a file: the
/// writer-generic core over a `Vec<u8>` sink. The returned `String` is
/// the exact file `--trace-out` would have written (meta line, events,
/// profile line) — the jobs plane serves it from `GET /jobs/:id/trace`.
///
/// # Errors
///
/// Returns an I/O error when the sink write fails (unreachable for the
/// in-memory writer) or the trace bytes are not UTF-8 (unreachable for
/// the in-house codec).
pub fn trace_run_to_string(
    scenario: &Scenario,
    protocol: &Protocol,
    config: &TelemetryConfig,
    run: Option<&ShardRun>,
) -> io::Result<(TraceRun, String)> {
    let sink = memory_sink();
    let (run, writer) = trace_run_to_sink(scenario, protocol, config, run, Some(sink), None)?
        .expect("a traced run without a cancel token cannot be cancelled");
    Ok((run, jsonl_text(writer)?))
}

/// The writer-generic, cancellable core of every traced run: a one-seed
/// measured run with no warmup, whose measured span is the trace's whole
/// duration, observed by a [`TraceCapture`] writing to an explicit JSONL
/// `sink` (ignoring [`TelemetryConfig::out`], which only the file-path
/// frontend reads). Hands the writer back alongside the [`TraceRun`] so
/// callers can recover in-memory trace bytes. Polls `cancel` as every
/// measured run does and returns `Ok(None)` once it fired: a cancelled
/// capture yields no trace.
///
/// # Errors
///
/// Returns any I/O error from writing the JSONL sink.
///
/// # Panics
///
/// Panics when the layout is too fine for the radius or the interconnect
/// config is invalid; chaos sweeps construct both in code.
pub fn trace_run_to_sink<W: Write>(
    scenario: &Scenario,
    protocol: &Protocol,
    config: &TelemetryConfig,
    run: Option<&ShardRun>,
    sink: Option<JsonlSink<W>>,
    cancel: Option<&CancelToken>,
) -> io::Result<Option<(TraceRun, Option<W>)>> {
    let mut capture = TraceCapture::new(scenario, protocol, config, sink);
    let mut stack = ideal_stack(scenario, protocol.dt, capture.meta.seed, LowestId, run);
    let duration = capture.meta.duration;
    match run_measured(
        &mut stack,
        0.0,
        duration,
        cancel,
        Some(&mut capture),
        |_, _, _| {},
    ) {
        Some(_) => capture.finish().map(Some),
        None => Ok(None),
    }
}

/// Renders the human summary of a trace: meta, warmup estimate,
/// steady-state per-class rates, churn totals, and the phase profile.
///
/// Shared between the traced twin (fresh runs) and `bin/trace_report`
/// (re-read JSONL files, where the profile may be absent).
pub fn report_text(
    meta: Option<&TraceMeta>,
    recorder: &WindowedRecorder,
    profile: Option<&ProfileReport>,
) -> String {
    let mut s = String::new();
    if let Some(m) = meta {
        let _ = writeln!(
            s,
            "trace: label={} nodes={} dt={} window={}s duration={}s seed={}",
            m.label, m.nodes, m.dt, m.window, m.duration, m.seed
        );
    }
    let _ = writeln!(
        s,
        "events: {} across {} windows of {}s",
        recorder.events_seen(),
        recorder.windows().len(),
        recorder.width()
    );
    match recorder.warmup_time(MsgClass::Cluster, WARMUP_TOLERANCE) {
        Some(t) => {
            let _ = writeln!(
                s,
                "warmup: CLUSTER rate settles within {:.0}% of steady state at t ≈ {t} s",
                WARMUP_TOLERANCE * 100.0
            );
        }
        None => {
            let _ = writeln!(s, "warmup: not enough windows to estimate");
        }
    }
    let mut rates = String::new();
    for class in MsgClass::ALL {
        if recorder.total_msgs(class) == 0 {
            continue;
        }
        if let Some(r) = recorder.steady_state_rate(class) {
            let _ = write!(rates, " {}={:.2}", class.name(), r);
        }
    }
    let _ = writeln!(
        s,
        "steady-state rates (msgs/s):{}",
        if rates.is_empty() { " none" } else { &rates }
    );
    let churn: u64 = recorder.windows().iter().map(|w| w.link_churn()).sum();
    let head_changes: u64 = recorder.head_change_series().iter().sum();
    let _ = writeln!(
        s,
        "link churn: {churn} events; head changes: {head_changes}"
    );
    let heads: Vec<f64> = recorder
        .cluster_count_series()
        .into_iter()
        .flatten()
        .collect();
    if !heads.is_empty() {
        let mean = heads.iter().sum::<f64>() / heads.len() as f64;
        let _ = writeln!(s, "mean cluster count: {mean:.1}");
    }
    match profile {
        Some(p) if !p.is_empty() => {
            let _ = writeln!(s, "tick-phase profile:");
            let _ = write!(s, "{}", p.to_table().to_ascii());
        }
        _ => {
            let _ = writeln!(s, "tick-phase profile: absent");
        }
    }
    s
}

/// Renders the root-cause attribution summary: the per-root ledger
/// breakdown and the measured-vs-analytic per-event unit-cost table.
///
/// The analytic unit costs come from the paper's per-event decomposition
/// (see `crates/core/src/overhead.rs`): an EventDriven link generation
/// costs 2 HELLO beacons; a head loss costs 1 CLUSTER message; a head
/// contact dissolves the losing cluster ([`contact_unit_cost`]); an
/// intra-cluster link change triggers one sync round through the cluster
/// that changed ([`route_unit_cost`]). `p̄` is estimated from the
/// recorder's gauged mean cluster count over `nodes`.
pub fn attribution_text(
    ledger: &AttributionLedger,
    recorder: &WindowedRecorder,
    nodes: u64,
) -> String {
    let mut s = String::new();
    let heads: Vec<f64> = recorder
        .cluster_count_series()
        .into_iter()
        .flatten()
        .collect();
    let mean_heads = if heads.is_empty() {
        0.0
    } else {
        heads.iter().sum::<f64>() / heads.len() as f64
    };
    let m_bar = if mean_heads > 0.0 && nodes > 0 {
        nodes as f64 / mean_heads
    } else {
        0.0
    };
    let _ = writeln!(
        s,
        "root-cause ledger: {} events, {} unanchored chains",
        ledger.events_seen(),
        ledger.unanchored_chains().len()
    );
    let _ = writeln!(
        s,
        "  {:<18} {:>7} {:>7} {:>8} {:>8} {:>8}",
        "root cause", "events", "weight", "HELLO", "CLUSTER", "ROUTE"
    );
    for root in RootCause::ALL {
        let events = ledger.root_events(root);
        let msgs: [u64; 3] = [
            ledger.msgs(root, MsgClass::Hello),
            ledger.msgs(root, MsgClass::Cluster),
            ledger.msgs(root, MsgClass::Route),
        ];
        if events == 0 && msgs.iter().all(|&m| m == 0) {
            continue;
        }
        let _ = writeln!(
            s,
            "  {:<18} {:>7} {:>7} {:>8} {:>8} {:>8}",
            root.name(),
            events,
            ledger.root_weight_total(root),
            msgs[0],
            msgs[1],
            msgs[2]
        );
    }
    let _ = writeln!(
        s,
        "  uncaused batch msgs: HELLO={} CLUSTER={} ROUTE={}",
        ledger.uncaused_msgs(MsgClass::Hello),
        ledger.uncaused_msgs(MsgClass::Cluster),
        ledger.uncaused_msgs(MsgClass::Route)
    );
    let _ = writeln!(
        s,
        "unit costs, measured vs analytic (m\u{304} = {m_bar:.2} from mean heads {mean_heads:.1}):"
    );
    let p_bar = if m_bar > 0.0 { 1.0 / m_bar } else { 1.0 };
    for (root, class, predicted) in [
        (RootCause::LinkGen, MsgClass::Hello, 2.0),
        (RootCause::HeadLoss, MsgClass::Cluster, 1.0),
        (
            RootCause::HeadContact,
            MsgClass::Cluster,
            contact_unit_cost(p_bar),
        ),
        (
            RootCause::IntraClusterChange,
            MsgClass::Route,
            route_unit_cost(p_bar, RouteLinkModel::WithMemberMember),
        ),
    ] {
        match ledger.unit_cost(root, class) {
            Some(measured) => {
                let err = if predicted > 0.0 {
                    (measured - predicted) / predicted * 100.0
                } else {
                    f64::NAN
                };
                let _ = writeln!(
                    s,
                    "  {:<18} per {:<7} measured {:>7.3}  predicted {:>7.3}  err {:>+6.1}%",
                    root.name(),
                    class.name(),
                    measured,
                    predicted,
                    err
                );
            }
            None => {
                let _ = writeln!(
                    s,
                    "  {:<18} per {:<7} no root events observed",
                    root.name(),
                    class.name()
                );
            }
        }
    }
    s
}

/// Renders a one-line audit verdict for a finished run.
pub fn audit_text(report: &AuditReport) -> String {
    if report.is_clean() {
        format!(
            "audit: clean ({} samples, {} events)\n",
            report.samples, report.events
        )
    } else {
        let mut s = format!(
            "audit: {} violation(s) over {} samples:\n",
            report.violations.len(),
            report.samples
        );
        for v in &report.violations {
            let _ = writeln!(s, "  {v}");
        }
        s
    }
}

/// The process-wide live publisher, set once by
/// [`BinArgs`](crate::cli::BinArgs) when `--serve-metrics` is present. Traced runs poll this and publish
/// a snapshot per tumbling window; without it (the default, and always
/// in unit tests) publication is skipped entirely.
static LIVE_PUBLISHER: OnceLock<Publisher> = OnceLock::new();

/// The live publisher installed under `--serve-metrics`, if any.
pub fn live_publisher() -> Option<&'static Publisher> {
    LIVE_PUBLISHER.get()
}

/// Installs `publisher` process-wide (what `--serve-metrics` does);
/// returns `false` when one is already installed. Integration tests that
/// bind their own endpoint (`serve_metrics`) call it directly.
pub fn install_live_publisher(publisher: Publisher) -> bool {
    LIVE_PUBLISHER.set(publisher).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::smoke;
    use manet_telemetry::Phase;

    #[test]
    fn trace_run_reconciles_with_counters_per_class() {
        let (scenario, protocol) = smoke();
        let run = trace_run(
            &scenario,
            &protocol,
            &TelemetryConfig::in_memory("test"),
            None,
        )
        .expect("in-memory run cannot fail on IO");
        assert!(run.counters.bytes_consistent());
        for (class, kind) in [
            (MsgClass::Hello, MessageKind::Hello),
            (MsgClass::Cluster, MessageKind::Cluster),
            (MsgClass::Route, MessageKind::Route),
        ] {
            assert_eq!(
                run.recorder.total_msgs(class),
                run.counters.messages(kind),
                "window sums must reconcile with counters for {}",
                class.name()
            );
            assert!(run.counters.messages(kind) > 0, "{} traffic", class.name());
        }
        // Profiled every tick: the five top-level phases partition it.
        let ticks = ((protocol.warmup + protocol.measure) / protocol.dt).round() as u64;
        for phase in Phase::TICK {
            assert_eq!(run.profile.get(phase).map(|s| s.count), Some(ticks));
        }
        // Every run ticks the shard plane: its flush and merge sub-phases
        // are each recorded once per tick.
        for phase in [Phase::ShardFlush, Phase::ShardMerge] {
            assert_eq!(run.profile.get(phase).map(|s| s.count), Some(ticks));
        }
        let text = report_text(Some(&run.meta), &run.recorder, Some(&run.profile));
        assert!(text.contains("steady-state rates"));
        assert!(text.contains("tick-phase profile"));
    }

    #[test]
    fn attributed_run_reconciles_ledger_audit_and_counters() {
        let (scenario, protocol) = smoke();
        let config = TelemetryConfig::in_memory("attr").with_attribution();
        let run = trace_run(&scenario, &protocol, &config, None).expect("in-memory run");
        let attr = run.attribution.as_ref().expect("attribution enabled");
        // Invariant monitors stay silent on the ideal stack, and the
        // Counters <-> trace reconciliation is exact per class.
        assert!(
            attr.audit.is_clean(),
            "audit violations: {:?}",
            attr.audit.violations
        );
        // Every attributed message reconciles exactly with the shared
        // counters: the ledger charges per-event what the batched
        // rollups charge per-tick.
        for (class, kind) in [
            (MsgClass::Hello, MessageKind::Hello),
            (MsgClass::Cluster, MessageKind::Cluster),
            (MsgClass::Route, MessageKind::Route),
        ] {
            assert_eq!(
                attr.ledger.attributed_total(class),
                run.counters.messages(kind),
                "ledger must reconcile with counters for {}",
                class.name()
            );
        }
        // Every causal chain resolves back to a recorded root event.
        assert!(attr.ledger.unanchored_chains().is_empty());
        // The windowed series still reconciles (attribution does not
        // change what the recorder sees for batched classes).
        assert_eq!(
            run.recorder.total_msgs(MsgClass::Cluster),
            run.counters.messages(MessageKind::Cluster)
        );
        let text = attribution_text(&attr.ledger, &run.recorder, run.meta.nodes);
        assert!(text.contains("unit costs"));
        assert!(text.contains("link_gen"));
        assert!(audit_text(&attr.audit).contains("clean"));
    }

    /// The capture core polls its token as the measurement loops do: a
    /// fired token ends it with no trace, an unfired one changes nothing.
    #[test]
    fn a_fired_token_cancels_the_capture() {
        let (scenario, protocol) = smoke();
        let config = TelemetryConfig::in_memory("cancel");
        let capture = |cancel: &CancelToken| {
            let sink = memory_sink();
            trace_run_to_sink(
                &scenario,
                &protocol,
                &config,
                None,
                Some(sink),
                Some(cancel),
            )
            .expect("in-memory capture")
            .map(|(_, writer)| jsonl_text(writer).expect("UTF-8 trace"))
        };
        let fired = CancelToken::new();
        fired.cancel();
        assert_eq!(capture(&fired), None);
        let text = capture(&CancelToken::new()).expect("an unfired token runs to the end");
        let (_, plain) = trace_run_to_string(&scenario, &protocol, &config, None).unwrap();
        let events = |t: &str| {
            t.lines()
                .filter(|l| l.contains(r#""type":"event""#))
                .count()
        };
        assert_eq!(events(&text), events(&plain));
    }

    #[test]
    fn attribution_off_leaves_no_ledger() {
        let (scenario, protocol) = smoke();
        let run = trace_run(
            &scenario,
            &protocol,
            &TelemetryConfig::in_memory("plain"),
            None,
        )
        .expect("in-memory run");
        assert!(run.attribution.is_none());
        // Spans aggregate, but no span flag armed the raw ring.
        assert_eq!(run.spans.ring_len(), 0);
        assert!(!run.spans.is_empty());
    }

    /// A traced run closes one tick span and one stage span per phase
    /// per tick, and its profile is exactly the span recorder's
    /// projection (one timing source, nothing to reconcile).
    #[test]
    fn traced_run_profile_is_the_span_projection() {
        use manet_telemetry::SpanLabel;
        let (scenario, protocol) = smoke();
        let config =
            TelemetryConfig::in_memory("spans").with_spans_ring(DEFAULT_SPAN_RING_CAPACITY);
        let run = trace_run(&scenario, &protocol, &config, None).expect("in-memory run");
        let spans = &run.spans;
        let ticks = ((protocol.warmup + protocol.measure) / protocol.dt).round() as u64;
        assert_eq!(run.profile, spans.profile());
        assert_eq!(spans.tick(), ticks);
        assert_eq!(spans.hist(SpanLabel::Tick, None).unwrap().count(), ticks);
        for phase in Phase::ALL {
            let h = spans
                .hist(SpanLabel::Stage(phase), None)
                .expect("stage spans on the main thread");
            assert_eq!(h.count(), ticks, "{}", phase.name());
            assert_eq!(run.profile.get(phase).map(|s| s.count), Some(ticks));
        }
        // The raw ring retained every span of this short run.
        assert_eq!(spans.ring_len() as u64, spans.spans_recorded());
    }
}
