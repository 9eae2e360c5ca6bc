//! JSONL trace persistence: serializing events, run metadata, and profiles
//! to line-delimited JSON, and reading whole traces back.
//!
//! A trace file is one JSON object per line, discriminated by `"type"`:
//!
//! ```text
//! {"type":"meta","label":"fig2_vs_velocity","nodes":400,...}
//! {"type":"event","t":0.25,"layer":"sim","kind":"link_up","a":3,"b":17}
//! {"type":"event","t":0.25,"layer":"sim","kind":"msg_sent","class":"HELLO","count":4}
//! ...
//! {"type":"profile","phases":[{"phase":"mobility","count":1600,...},...]}
//! ```
//!
//! The encoder lives here; the JSON layer itself is `manet_util::json`.

use crate::cause::{Cause, CauseId, RootCause};
use crate::event::{Event, EventKind, Layer, MsgClass, Subscriber};
use crate::profile::{Phase, PhaseSummary, ProfileReport};
use crate::window::WindowedRecorder;
use manet_util::json::Value;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Run-level metadata written as the first line of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceMeta {
    /// Human label for the run (usually the experiment binary name).
    pub label: String,
    /// Node count.
    pub nodes: u64,
    /// Recorder window width, sim seconds.
    pub window: f64,
    /// Simulation tick, seconds.
    pub dt: f64,
    /// Traced duration, sim seconds.
    pub duration: f64,
    /// RNG seed of the traced run.
    pub seed: u64,
}

impl TraceMeta {
    /// Encodes as the `{"type":"meta",...}` line payload.
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("type".into(), Value::from("meta")),
            ("label".into(), Value::from(self.label.as_str())),
            ("nodes".into(), Value::from(self.nodes)),
            ("window".into(), Value::from(self.window)),
            ("dt".into(), Value::from(self.dt)),
            ("duration".into(), Value::from(self.duration)),
            ("seed".into(), Value::from(self.seed)),
        ])
    }

    /// Decodes a meta line payload.
    pub fn from_value(v: &Value) -> Option<TraceMeta> {
        Some(TraceMeta {
            label: v.get("label")?.as_str()?.to_string(),
            nodes: v.get("nodes")?.as_u64()?,
            window: v.get("window")?.as_f64()?,
            dt: v.get("dt")?.as_f64()?,
            duration: v.get("duration")?.as_f64()?,
            seed: v.get("seed")?.as_u64()?,
        })
    }
}

/// Encodes one event as its `{"type":"event",...}` line payload.
pub fn event_to_value(event: &Event) -> Value {
    let mut pairs = vec![
        ("type".into(), Value::from("event")),
        ("t".into(), Value::from(event.time)),
        ("layer".into(), Value::from(event.layer.name())),
        ("kind".into(), Value::from(event.kind.name())),
    ];
    let node = |pairs: &mut Vec<(String, Value)>, key: &str, id: u32| {
        pairs.push((key.to_string(), Value::from(u64::from(id))));
    };
    match event.kind {
        EventKind::LinkUp { a, b } | EventKind::LinkDown { a, b } => {
            node(&mut pairs, "a", a);
            node(&mut pairs, "b", b);
        }
        EventKind::NodeCrashed { node: n }
        | EventKind::NodeRecovered { node: n }
        | EventKind::HeadElected { node: n } => node(&mut pairs, "node", n),
        EventKind::MsgSent { class, count } | EventKind::MsgLost { class, count } => {
            pairs.push(("class".into(), Value::from(class.name())));
            pairs.push(("count".into(), Value::from(count)));
        }
        EventKind::HeadResigned { node: n, new_head } => {
            node(&mut pairs, "node", n);
            node(&mut pairs, "new_head", new_head);
        }
        EventKind::MemberReaffiliated { member, head } | EventKind::HeadLost { member, head } => {
            node(&mut pairs, "member", member);
            node(&mut pairs, "head", head);
        }
        EventKind::RouteRoundStarted { head, size, rounds } => {
            node(&mut pairs, "head", head);
            pairs.push(("size".into(), Value::from(size)));
            pairs.push(("rounds".into(), Value::from(rounds)));
        }
        EventKind::RetxScheduled {
            node: n,
            wait_ticks,
        } => {
            node(&mut pairs, "node", n);
            pairs.push(("wait_ticks".into(), Value::from(wait_ticks)));
        }
        EventKind::ClusterGauge { heads } => {
            pairs.push(("heads".into(), Value::from(heads)));
        }
        EventKind::InterconnectLost { src, dst, count } => {
            pairs.push(("src".into(), Value::from(u64::from(src))));
            pairs.push(("dst".into(), Value::from(u64::from(dst))));
            pairs.push(("count".into(), Value::from(count)));
        }
        EventKind::InterconnectStalled { shard, ticks } => {
            pairs.push(("shard".into(), Value::from(u64::from(shard))));
            pairs.push(("ticks".into(), Value::from(ticks)));
        }
        EventKind::GhostStale {
            src,
            dst,
            staleness,
            dropped,
        } => {
            pairs.push(("src".into(), Value::from(u64::from(src))));
            pairs.push(("dst".into(), Value::from(u64::from(dst))));
            pairs.push(("staleness".into(), Value::from(staleness)));
            pairs.push(("dropped".into(), Value::from(dropped)));
        }
        EventKind::InterconnectRecovered { src, dst, resync } => {
            pairs.push(("src".into(), Value::from(u64::from(src))));
            pairs.push(("dst".into(), Value::from(u64::from(dst))));
            pairs.push(("resync".into(), Value::from(resync)));
        }
    }
    if let Some(cause) = event.cause {
        pairs.push(("cause".into(), Value::from(cause.id.0)));
        pairs.push(("root".into(), Value::from(cause.root.name())));
    }
    Value::Obj(pairs)
}

/// Decodes an event line payload (`None` on any shape mismatch).
pub fn event_from_value(v: &Value) -> Option<Event> {
    let time = v.get("t")?.as_f64()?;
    let layer = Layer::from_name(v.get("layer")?.as_str()?)?;
    let node_field = |key: &str| -> Option<u32> { u32::try_from(v.get(key)?.as_u64()?).ok() };
    let shard_field = |key: &str| -> Option<u16> { u16::try_from(v.get(key)?.as_u64()?).ok() };
    let class_field = || MsgClass::from_name(v.get("class")?.as_str()?);
    let kind = match v.get("kind")?.as_str()? {
        "link_up" => EventKind::LinkUp {
            a: node_field("a")?,
            b: node_field("b")?,
        },
        "link_down" => EventKind::LinkDown {
            a: node_field("a")?,
            b: node_field("b")?,
        },
        "node_crashed" => EventKind::NodeCrashed {
            node: node_field("node")?,
        },
        "node_recovered" => EventKind::NodeRecovered {
            node: node_field("node")?,
        },
        "msg_sent" => EventKind::MsgSent {
            class: class_field()?,
            count: v.get("count")?.as_u64()?,
        },
        "msg_lost" => EventKind::MsgLost {
            class: class_field()?,
            count: v.get("count")?.as_u64()?,
        },
        "head_elected" => EventKind::HeadElected {
            node: node_field("node")?,
        },
        "head_resigned" => EventKind::HeadResigned {
            node: node_field("node")?,
            new_head: node_field("new_head")?,
        },
        "member_reaffiliated" => EventKind::MemberReaffiliated {
            member: node_field("member")?,
            head: node_field("head")?,
        },
        "head_lost" => EventKind::HeadLost {
            member: node_field("member")?,
            head: node_field("head")?,
        },
        "route_round_started" => EventKind::RouteRoundStarted {
            head: node_field("head")?,
            size: v.get("size")?.as_u64()?,
            rounds: v.get("rounds")?.as_u64()?,
        },
        "retx_scheduled" => EventKind::RetxScheduled {
            node: node_field("node")?,
            wait_ticks: v.get("wait_ticks")?.as_u64()?,
        },
        "cluster_gauge" => EventKind::ClusterGauge {
            heads: v.get("heads")?.as_u64()?,
        },
        "interconnect_lost" => EventKind::InterconnectLost {
            src: shard_field("src")?,
            dst: shard_field("dst")?,
            count: v.get("count")?.as_u64()?,
        },
        "interconnect_stalled" => EventKind::InterconnectStalled {
            shard: shard_field("shard")?,
            ticks: v.get("ticks")?.as_u64()?,
        },
        "ghost_stale" => EventKind::GhostStale {
            src: shard_field("src")?,
            dst: shard_field("dst")?,
            staleness: v.get("staleness")?.as_u64()?,
            dropped: v.get("dropped")?.as_u64()?,
        },
        "interconnect_recovered" => EventKind::InterconnectRecovered {
            src: shard_field("src")?,
            dst: shard_field("dst")?,
            resync: v.get("resync")?.as_u64()?,
        },
        _ => return None,
    };
    // Cause tagging is optional; both fields must be present together (so
    // pre-attribution traces, which carry neither, still parse).
    let cause = match (v.get("cause"), v.get("root")) {
        (Some(id), Some(root)) => Some(Cause {
            id: CauseId(id.as_u64()?),
            root: RootCause::from_name(root.as_str()?)?,
        }),
        (None, None) => None,
        _ => return None,
    };
    Some(Event {
        time,
        layer,
        kind,
        cause,
    })
}

/// Encodes a profile as its `{"type":"profile",...}` line payload.
pub fn profile_to_value(report: &ProfileReport) -> Value {
    let phases = report
        .phases
        .iter()
        .map(|(phase, s)| {
            Value::Obj(vec![
                ("phase".into(), Value::from(phase.name())),
                ("count".into(), Value::from(s.count)),
                ("total".into(), Value::from(s.total)),
                ("min".into(), Value::from(s.min)),
                ("mean".into(), Value::from(s.mean)),
                ("p99".into(), Value::from(s.p99)),
                ("max".into(), Value::from(s.max)),
            ])
        })
        .collect();
    Value::Obj(vec![
        ("type".into(), Value::from("profile")),
        ("phases".into(), Value::Arr(phases)),
    ])
}

/// Decodes a profile line payload.
pub fn profile_from_value(v: &Value) -> Option<ProfileReport> {
    let mut phases = Vec::new();
    for entry in v.get("phases")?.as_array()? {
        let phase = Phase::from_name(entry.get("phase")?.as_str()?)?;
        phases.push((
            phase,
            PhaseSummary {
                count: entry.get("count")?.as_u64()?,
                total: entry.get("total")?.as_f64()?,
                min: entry.get("min")?.as_f64()?,
                mean: entry.get("mean")?.as_f64()?,
                p99: entry.get("p99")?.as_f64()?,
                max: entry.get("max")?.as_f64()?,
            },
        ));
    }
    Some(ProfileReport { phases })
}

/// A [`Subscriber`] that appends one JSON line per event to a writer.
///
/// `Subscriber::event` cannot return an error, so the first I/O failure is
/// latched and reported by [`JsonlSink::finish`]; later writes are skipped.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    writer: W,
    error: Option<io::Error>,
}

impl JsonlSink<BufWriter<File>> {
    /// Opens (truncates) `path` as a buffered JSONL sink, creating parent
    /// directories.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and file-open failures.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<JsonlSink<BufWriter<File>>> {
        if let Some(parent) = path.as_ref().parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        Ok(JsonlSink::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write> JsonlSink<W> {
    /// Wraps an arbitrary writer.
    pub fn new(writer: W) -> JsonlSink<W> {
        JsonlSink {
            writer,
            error: None,
        }
    }

    fn write_line(&mut self, v: &Value) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = writeln!(self.writer, "{v}") {
            self.error = Some(e);
        }
    }

    /// Writes the run-metadata line (call once, first).
    pub fn write_meta(&mut self, meta: &TraceMeta) {
        self.write_line(&meta.to_value());
    }

    /// Writes the end-of-run profile line.
    pub fn write_profile(&mut self, report: &ProfileReport) {
        self.write_line(&profile_to_value(report));
    }

    /// Flushes and returns the first latched I/O error, if any.
    ///
    /// # Errors
    ///
    /// Returns the first write failure, or the flush failure.
    pub fn finish(self) -> io::Result<()> {
        self.finish_into().map(|_| ())
    }

    /// Like [`JsonlSink::finish`], but hands the flushed writer back —
    /// the in-memory (`Vec<u8>`) sinks the jobs plane captures traces
    /// into need the buffer after the run.
    ///
    /// # Errors
    ///
    /// Returns the first write failure, or the flush failure.
    pub fn finish_into(mut self) -> io::Result<W> {
        match self.error.take() {
            Some(e) => Err(e),
            None => {
                self.writer.flush()?;
                Ok(self.writer)
            }
        }
    }
}

impl<W: Write> Subscriber for JsonlSink<W> {
    fn event(&mut self, event: &Event) {
        self.write_line(&event_to_value(event));
    }
}

/// Fan-out subscriber for traced runs: always feeds a [`WindowedRecorder`],
/// optionally tees every event to a [`JsonlSink`].
#[derive(Debug)]
pub struct TraceOut<W: Write> {
    /// The in-memory windowed aggregation.
    pub recorder: WindowedRecorder,
    /// The optional on-disk tee.
    pub sink: Option<JsonlSink<W>>,
}

impl<W: Write> TraceOut<W> {
    /// A fan-out with the given recorder window width and optional sink.
    pub fn new(window_width: f64, sink: Option<JsonlSink<W>>) -> TraceOut<W> {
        TraceOut {
            recorder: WindowedRecorder::new(window_width),
            sink,
        }
    }

    /// Writes meta through to the sink (recorder has no use for it).
    pub fn write_meta(&mut self, meta: &TraceMeta) {
        if let Some(sink) = &mut self.sink {
            sink.write_meta(meta);
        }
    }

    /// Writes the profile line and closes the sink.
    ///
    /// # Errors
    ///
    /// Returns the sink's first latched I/O error.
    pub fn finish(self, report: &ProfileReport) -> io::Result<()> {
        self.finish_into(report).map(|_| ())
    }

    /// Like [`TraceOut::finish`], but hands the sink's flushed writer
    /// back (`None` when no sink was attached).
    ///
    /// # Errors
    ///
    /// Returns the sink's first latched I/O error.
    pub fn finish_into(self, report: &ProfileReport) -> io::Result<Option<W>> {
        match self.sink {
            Some(mut sink) => {
                if !report.is_empty() {
                    sink.write_profile(report);
                }
                sink.finish_into().map(Some)
            }
            None => Ok(None),
        }
    }
}

impl<W: Write> Subscriber for TraceOut<W> {
    fn event(&mut self, event: &Event) {
        self.recorder.absorb(event);
        if let Some(sink) = &mut self.sink {
            sink.event(event);
        }
    }
}

/// A trace read back from disk.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    /// The meta line, if present.
    pub meta: Option<TraceMeta>,
    /// All event lines, in file order.
    pub events: Vec<Event>,
    /// The profile line, if present.
    pub profile: Option<ProfileReport>,
}

impl Trace {
    /// Replays all events into a fresh recorder of the given window width.
    pub fn replay(&self, window_width: f64) -> WindowedRecorder {
        let mut rec = WindowedRecorder::new(window_width);
        for e in &self.events {
            rec.absorb(e);
        }
        rec
    }
}

/// Reads a JSONL trace file written by [`JsonlSink`].
///
/// # Errors
///
/// Returns `InvalidData` (with the 1-based line number) for unparsable
/// JSON, unknown line types, or malformed payloads; propagates I/O errors.
pub fn read_trace<P: AsRef<Path>>(path: P) -> io::Result<Trace> {
    let reader = BufReader::new(File::open(path)?);
    let mut trace = Trace::default();
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let lineno = i + 1;
        let bad = |what: &str| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("trace line {lineno}: {what}"),
            )
        };
        let v = Value::parse(&line).map_err(|e| bad(&e.to_string()))?;
        match v.get("type").and_then(Value::as_str) {
            Some("meta") => {
                trace.meta =
                    Some(TraceMeta::from_value(&v).ok_or_else(|| bad("malformed meta line"))?);
            }
            Some("event") => {
                trace
                    .events
                    .push(event_from_value(&v).ok_or_else(|| bad("malformed event line"))?);
            }
            Some("profile") => {
                trace.profile =
                    Some(profile_from_value(&v).ok_or_else(|| bad("malformed profile line"))?);
            }
            _ => return Err(bad("unknown line type")),
        }
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time: f64, layer: Layer, kind: EventKind) -> Event {
        Event {
            time,
            layer,
            kind,
            cause: None,
        }
    }

    fn caused(mut event: Event, id: u64, root: RootCause) -> Event {
        event.cause = Some(Cause {
            id: CauseId(id),
            root,
        });
        event
    }

    fn sample_events() -> Vec<Event> {
        vec![
            ev(0.25, Layer::Sim, EventKind::LinkUp { a: 3, b: 17 }),
            ev(0.25, Layer::Sim, EventKind::LinkDown { a: 1, b: 2 }),
            ev(
                0.5,
                Layer::Sim,
                EventKind::MsgSent {
                    class: MsgClass::Hello,
                    count: 12,
                },
            ),
            ev(
                0.5,
                Layer::Hello,
                EventKind::MsgLost {
                    class: MsgClass::Hello,
                    count: 2,
                },
            ),
            ev(0.75, Layer::Sim, EventKind::NodeCrashed { node: 9 }),
            ev(1.0, Layer::Sim, EventKind::NodeRecovered { node: 9 }),
            ev(1.25, Layer::Cluster, EventKind::HeadElected { node: 4 }),
            caused(
                ev(
                    1.25,
                    Layer::Cluster,
                    EventKind::HeadResigned {
                        node: 6,
                        new_head: 4,
                    },
                ),
                3,
                RootCause::HeadContact,
            ),
            ev(
                1.25,
                Layer::Cluster,
                EventKind::MemberReaffiliated { member: 8, head: 4 },
            ),
            caused(
                ev(
                    1.25,
                    Layer::Cluster,
                    EventKind::HeadLost { member: 8, head: 6 },
                ),
                4,
                RootCause::HeadLoss,
            ),
            ev(
                1.5,
                Layer::Routing,
                EventKind::RouteRoundStarted {
                    head: 4,
                    size: 7,
                    rounds: 2,
                },
            ),
            ev(
                1.5,
                Layer::Cluster,
                EventKind::RetxScheduled {
                    node: 6,
                    wait_ticks: 8,
                },
            ),
            ev(2.0, Layer::Cluster, EventKind::ClusterGauge { heads: 40 }),
            caused(
                ev(
                    2.25,
                    Layer::Sim,
                    EventKind::InterconnectLost {
                        src: 0,
                        dst: 1,
                        count: 5,
                    },
                ),
                5,
                RootCause::InterconnectFault,
            ),
            ev(
                2.25,
                Layer::Sim,
                EventKind::InterconnectStalled { shard: 2, ticks: 3 },
            ),
            ev(
                2.5,
                Layer::Sim,
                EventKind::GhostStale {
                    src: 1,
                    dst: 0,
                    staleness: 5,
                    dropped: 4,
                },
            ),
            ev(
                2.75,
                Layer::Sim,
                EventKind::InterconnectRecovered {
                    src: 0,
                    dst: 1,
                    resync: 6,
                },
            ),
        ]
    }

    #[test]
    fn every_event_kind_round_trips_through_json() {
        for event in sample_events() {
            let v = event_to_value(&event);
            let text = v.to_string();
            let parsed = Value::parse(&text).unwrap();
            assert_eq!(event_from_value(&parsed), Some(event), "{text}");
        }
    }

    #[test]
    fn cause_tags_must_come_in_pairs() {
        let v = Value::parse(
            "{\"type\":\"event\",\"t\":1,\"layer\":\"sim\",\"kind\":\"link_up\",\"a\":0,\"b\":1,\"cause\":5}",
        )
        .unwrap();
        assert_eq!(event_from_value(&v), None);
    }

    #[test]
    fn meta_and_profile_round_trip() {
        let meta = TraceMeta {
            label: "fig2".into(),
            nodes: 400,
            window: 5.0,
            dt: 0.25,
            duration: 125.0,
            seed: 11,
        };
        assert_eq!(TraceMeta::from_value(&meta.to_value()), Some(meta.clone()));

        let mut spans = crate::span::SpanRecorder::new();
        for (phase, micros) in [
            (Phase::Mobility, 10),
            (Phase::Routing, 20),
            (Phase::Routing, 40),
        ] {
            spans.record_external(
                crate::span::SpanLabel::Stage(phase),
                None,
                None,
                std::time::Instant::now(),
                std::time::Duration::from_micros(micros),
            );
        }
        let report = spans.profile();
        let back = profile_from_value(&profile_to_value(&report)).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn file_round_trip_and_replay() {
        let dir = std::env::temp_dir().join("manet_telemetry_sink_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested/trace.jsonl");

        let meta = TraceMeta {
            label: "unit".into(),
            nodes: 10,
            window: 1.0,
            dt: 0.25,
            duration: 3.0,
            seed: 7,
        };
        let mut spans = crate::span::SpanRecorder::new();
        let t0 = spans.open();
        spans.close(t0, crate::span::SpanLabel::Stage(Phase::Hello), None, None);
        let report = spans.profile();

        let sink = JsonlSink::create(&path).unwrap();
        let mut out = TraceOut::new(1.0, Some(sink));
        out.write_meta(&meta);
        for e in sample_events() {
            out.event(&e);
        }
        let recorder_totals = out.recorder.total_msgs(MsgClass::Hello);
        out.finish(&report).unwrap();

        let trace = read_trace(&path).unwrap();
        assert_eq!(trace.meta, Some(meta));
        assert_eq!(trace.events, sample_events());
        assert_eq!(trace.profile, Some(report));

        let replayed = trace.replay(1.0);
        assert_eq!(replayed.total_msgs(MsgClass::Hello), recorder_totals);
        assert_eq!(replayed.windows()[1].head_elections, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_trace_rejects_garbage() {
        let dir = std::env::temp_dir().join("manet_telemetry_sink_bad");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let bad_json = dir.join("bad.jsonl");
        std::fs::write(&bad_json, "{not json\n").unwrap();
        let e = read_trace(&bad_json).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert!(e.to_string().contains("line 1"));

        let bad_kind = dir.join("kind.jsonl");
        std::fs::write(
            &bad_kind,
            "{\"type\":\"event\",\"t\":1,\"layer\":\"sim\",\"kind\":\"warp\"}\n",
        )
        .unwrap();
        assert!(read_trace(&bad_kind).is_err());

        let bad_type = dir.join("type.jsonl");
        std::fs::write(&bad_type, "{\"type\":\"mystery\"}\n").unwrap();
        assert!(read_trace(&bad_type).is_err());

        // Blank lines are tolerated.
        let blanks = dir.join("blanks.jsonl");
        std::fs::write(&blanks, "\n\n").unwrap();
        assert_eq!(read_trace(&blanks).unwrap(), Trace::default());

        let _ = std::fs::remove_dir_all(&dir);
    }
}
