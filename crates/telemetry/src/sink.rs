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
use manet_util::json::{self, Value};
use std::fmt::Write as _;
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

/// Appends `event`'s line payload (no newline) to `line`: the one encoder
/// of event lines, behind [`JsonlSink`] and the flight recorder's dumps.
///
/// It writes the text straight, with no [`Value`] tree: the keys and the
/// layer, kind, class and root-cause names are static identifiers that
/// need no escaping, and every number goes through [`json::write_num`],
/// [`Value::Num`]'s own rule (integer ids and counts as `Value::from(u64)`
/// would carry them). So a line is byte for byte what encoding the same
/// object as a [`Value`] writes, which the per-kind test pins.
pub(crate) fn write_event(line: &mut String, event: &Event) {
    line.push_str("{\"type\":\"event\",\"t\":");
    let _ = json::write_num(line, event.time);
    name_field(line, "layer", event.layer.name());
    name_field(line, "kind", event.kind.name());
    match event.kind {
        EventKind::LinkUp { a, b } | EventKind::LinkDown { a, b } => {
            num_field(line, "a", a.into());
            num_field(line, "b", b.into());
        }
        EventKind::NodeCrashed { node }
        | EventKind::NodeRecovered { node }
        | EventKind::HeadElected { node } => num_field(line, "node", node.into()),
        EventKind::MsgSent { class, count } | EventKind::MsgLost { class, count } => {
            name_field(line, "class", class.name());
            num_field(line, "count", count);
        }
        EventKind::HeadResigned { node, new_head } => {
            num_field(line, "node", node.into());
            num_field(line, "new_head", new_head.into());
        }
        EventKind::MemberReaffiliated { member, head } | EventKind::HeadLost { member, head } => {
            num_field(line, "member", member.into());
            num_field(line, "head", head.into());
        }
        EventKind::RouteRoundStarted { head, size, rounds } => {
            num_field(line, "head", head.into());
            num_field(line, "size", size);
            num_field(line, "rounds", rounds);
        }
        EventKind::RetxScheduled { node, wait_ticks } => {
            num_field(line, "node", node.into());
            num_field(line, "wait_ticks", wait_ticks);
        }
        EventKind::ClusterGauge { heads } => num_field(line, "heads", heads),
        EventKind::InterconnectLost { src, dst, count } => {
            num_field(line, "src", src.into());
            num_field(line, "dst", dst.into());
            num_field(line, "count", count);
        }
        EventKind::InterconnectStalled { shard, ticks } => {
            num_field(line, "shard", shard.into());
            num_field(line, "ticks", ticks);
        }
        EventKind::GhostStale {
            src,
            dst,
            staleness,
            dropped,
        } => {
            num_field(line, "src", src.into());
            num_field(line, "dst", dst.into());
            num_field(line, "staleness", staleness);
            num_field(line, "dropped", dropped);
        }
        EventKind::InterconnectRecovered { src, dst, resync } => {
            num_field(line, "src", src.into());
            num_field(line, "dst", dst.into());
            num_field(line, "resync", resync);
        }
    }
    if let Some(cause) = event.cause {
        num_field(line, "cause", cause.id.0);
        name_field(line, "root", cause.root.name());
    }
    line.push('}');
}

/// `,"key":` — every field after the first.
fn key(line: &mut String, key: &str) {
    line.push_str(",\"");
    line.push_str(key);
    line.push_str("\":");
}

/// A string field whose value is a static name (no escaping needed).
fn name_field(line: &mut String, k: &str, name: &str) {
    key(line, k);
    line.push('"');
    line.push_str(name);
    line.push('"');
}

/// An integer field, numbered as `Value::from(u64)` would carry it.
fn num_field(line: &mut String, k: &str, n: u64) {
    key(line, k);
    let _ = json::write_num(line, n as f64);
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
    /// The line being encoded, cleared and reused for every line.
    line: String,
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
            line: String::new(),
            error: None,
        }
    }

    /// Encodes one line into the reused buffer and writes it whole.
    fn write_line(&mut self, encode: impl FnOnce(&mut String)) {
        if self.error.is_some() {
            return;
        }
        self.line.clear();
        encode(&mut self.line);
        self.line.push('\n');
        if let Err(e) = self.writer.write_all(self.line.as_bytes()) {
            self.error = Some(e);
        }
    }

    /// Writes the run-metadata line (call once, first).
    pub fn write_meta(&mut self, meta: &TraceMeta) {
        self.write_line(|line| {
            let _ = write!(line, "{}", meta.to_value());
        });
    }

    /// Writes the end-of-run profile line.
    pub fn write_profile(&mut self, report: &ProfileReport) {
        self.write_line(|line| {
            let _ = write!(line, "{}", profile_to_value(report));
        });
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
        self.write_line(|line| write_event(line, event));
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

    fn line_of(event: &Event) -> String {
        let mut line = String::new();
        write_event(&mut line, event);
        line
    }

    #[test]
    fn every_event_kind_round_trips_through_json() {
        for event in sample_events() {
            let text = line_of(&event);
            let parsed = Value::parse(&text).unwrap();
            assert_eq!(event_from_value(&parsed), Some(event), "{text}");
        }
    }

    /// The encoder writes names as they are: every one it can write must
    /// be a string the `Value` encoder leaves unescaped.
    #[test]
    fn every_name_the_encoder_writes_needs_no_escaping() {
        let kinds = sample_events().into_iter().map(|e| e.kind.name());
        let names = Layer::ALL
            .iter()
            .map(|l| l.name())
            .chain(MsgClass::ALL.iter().map(|c| c.name()))
            .chain(RootCause::ALL.iter().map(|r| r.name()))
            .chain(kinds);
        for name in names {
            assert_eq!(Value::from(name).to_string(), format!("\"{name}\""));
        }
    }

    /// The exact bytes of one line per event kind (with the cause tags of
    /// an attributed run on three of them), as the `Value` tree encoder
    /// wrote them before event lines were encoded directly; then the
    /// number edge cases: a fractional time, counts and times at and above
    /// 2^53, the largest `u32` id and `u64` cause id, and non-finite times,
    /// which encode as `null`.
    #[test]
    fn every_event_kind_writes_its_pinned_line() {
        let pinned = [
            r#"{"type":"event","t":0.25,"layer":"sim","kind":"link_up","a":3,"b":17}"#,
            r#"{"type":"event","t":0.25,"layer":"sim","kind":"link_down","a":1,"b":2}"#,
            r#"{"type":"event","t":0.5,"layer":"sim","kind":"msg_sent","class":"HELLO","count":12}"#,
            r#"{"type":"event","t":0.5,"layer":"hello","kind":"msg_lost","class":"HELLO","count":2}"#,
            r#"{"type":"event","t":0.75,"layer":"sim","kind":"node_crashed","node":9}"#,
            r#"{"type":"event","t":1,"layer":"sim","kind":"node_recovered","node":9}"#,
            r#"{"type":"event","t":1.25,"layer":"cluster","kind":"head_elected","node":4}"#,
            r#"{"type":"event","t":1.25,"layer":"cluster","kind":"head_resigned","node":6,"new_head":4,"cause":3,"root":"head_contact"}"#,
            r#"{"type":"event","t":1.25,"layer":"cluster","kind":"member_reaffiliated","member":8,"head":4}"#,
            r#"{"type":"event","t":1.25,"layer":"cluster","kind":"head_lost","member":8,"head":6,"cause":4,"root":"head_loss"}"#,
            r#"{"type":"event","t":1.5,"layer":"routing","kind":"route_round_started","head":4,"size":7,"rounds":2}"#,
            r#"{"type":"event","t":1.5,"layer":"cluster","kind":"retx_scheduled","node":6,"wait_ticks":8}"#,
            r#"{"type":"event","t":2,"layer":"cluster","kind":"cluster_gauge","heads":40}"#,
            r#"{"type":"event","t":2.25,"layer":"sim","kind":"interconnect_lost","src":0,"dst":1,"count":5,"cause":5,"root":"interconnect_fault"}"#,
            r#"{"type":"event","t":2.25,"layer":"sim","kind":"interconnect_stalled","shard":2,"ticks":3}"#,
            r#"{"type":"event","t":2.5,"layer":"sim","kind":"ghost_stale","src":1,"dst":0,"staleness":5,"dropped":4}"#,
            r#"{"type":"event","t":2.75,"layer":"sim","kind":"interconnect_recovered","src":0,"dst":1,"resync":6}"#,
            r#"{"type":"event","t":0.30000000000000004,"layer":"sim","kind":"link_up","a":0,"b":4294967295}"#,
            r#"{"type":"event","t":1000000000000000000000,"layer":"sim","kind":"msg_sent","class":"ROUTE","count":9007199254740992}"#,
            r#"{"type":"event","t":0,"layer":"sim","kind":"msg_lost","class":"CLUSTER","count":18446744073709552000}"#,
            r#"{"type":"event","t":null,"layer":"sim","kind":"cluster_gauge","heads":9007199254740992}"#,
            r#"{"type":"event","t":null,"layer":"sim","kind":"route_round_started","head":1,"size":9007199254740991,"rounds":0}"#,
            r#"{"type":"event","t":0.00000025,"layer":"sim","kind":"link_down","a":5,"b":6,"cause":18446744073709552000,"root":"link_break"}"#,
        ];
        let sim = |time: f64, kind: EventKind| ev(time, Layer::Sim, kind);
        let mut events = sample_events();
        let kinds: std::collections::BTreeSet<&str> =
            events.iter().map(|e| e.kind.name()).collect();
        assert_eq!(kinds.len(), 17, "one sample event per kind");
        events.extend([
            sim(0.1 + 0.2, EventKind::LinkUp { a: 0, b: u32::MAX }),
            sim(
                1e21,
                EventKind::MsgSent {
                    class: MsgClass::Route,
                    count: (1 << 53) + 1,
                },
            ),
            sim(
                -0.0,
                EventKind::MsgLost {
                    class: MsgClass::Cluster,
                    count: u64::MAX,
                },
            ),
            sim(f64::NAN, EventKind::ClusterGauge { heads: 1 << 53 }),
            sim(
                f64::INFINITY,
                EventKind::RouteRoundStarted {
                    head: 1,
                    size: (1 << 53) - 1,
                    rounds: 0,
                },
            ),
            caused(
                sim(2.5e-7, EventKind::LinkDown { a: 5, b: 6 }),
                u64::MAX,
                RootCause::LinkBreak,
            ),
        ]);
        assert_eq!(events.len(), pinned.len());
        let mut sink = JsonlSink::new(Vec::new());
        for (event, want) in events.iter().zip(pinned) {
            assert_eq!(line_of(event), want);
            sink.event(event);
        }
        let written = String::from_utf8(sink.finish_into().unwrap()).unwrap();
        assert_eq!(written, pinned.map(|l| format!("{l}\n")).concat());
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
