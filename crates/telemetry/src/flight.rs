//! The flight recorder: a bounded ring buffer over the live event stream,
//! dumped as replayable JSONL when something goes wrong.
//!
//! Full `--trace-out` tracing of a chaos run is expensive — every event
//! of every tick hits the JSONL sink. The [`FlightRecorder`] is the cheap
//! alternative: it retains only the most recent `K` [`Event`]s (with
//! their causal-chain tags) in a preallocated ring, costing one copy per
//! event and zero allocations in the steady state. When an
//! [`AuditMonitor`](crate::AuditMonitor) violation or a `SimError` fires,
//! the run loop dumps the ring via [`FlightRecorder::dump_to`] — a black
//! box of the last moments before the failure, in the exact trace-file
//! format [`read_trace`](crate::read_trace) and `trace_report` already
//! understand, so a dump replays like any other trace.
//!
//! Dumps are deterministic: the ring's contents are a pure function of
//! the (seeded) event stream, so the same seed produces a byte-identical
//! dump file — pinned by the chaos-determinism integration test.

use crate::event::{Event, Subscriber};
use crate::sink::{write_event, TraceMeta};
use std::io::{self, Write};
use std::path::Path;

/// A fixed-capacity ring buffer retaining the last `K` traced events.
///
/// Implements [`Subscriber`], so it can sit anywhere a trace sink does —
/// traced runs tee every event into it alongside the windowed recorder.
/// Recording is O(1) and allocation-free after construction ([`Event`] is
/// `Copy`).
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    /// The ring storage; grows to `cap` once, then entries are overwritten
    /// in place.
    buf: Vec<Event>,
    /// Ring capacity (`K`).
    cap: usize,
    /// Index the next event will be written at (the ring head).
    next: usize,
    /// Total events observed (≥ `len`, counts the overwritten ones too).
    seen: u64,
}

impl FlightRecorder {
    /// A recorder retaining the last `capacity` events (clamped to ≥ 1).
    /// Storage is preallocated here, so recording never allocates.
    pub fn new(capacity: usize) -> FlightRecorder {
        let cap = capacity.max(1);
        FlightRecorder {
            buf: Vec::with_capacity(cap),
            cap,
            next: 0,
            seen: 0,
        }
    }

    /// The ring capacity `K`.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Events currently retained (`min(seen, K)`).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no event has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events observed over the recorder's lifetime, including
    /// those already overwritten.
    pub fn events_seen(&self) -> u64 {
        self.seen
    }

    /// Records one event, overwriting the oldest once the ring is full.
    #[inline]
    pub fn record(&mut self, event: &Event) {
        if self.buf.len() < self.cap {
            self.buf.push(*event);
        } else {
            self.buf[self.next] = *event;
        }
        self.next = (self.next + 1) % self.cap;
        self.seen += 1;
    }

    /// The retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        let split = if self.buf.len() < self.cap {
            0 // not yet wrapped: the buffer is already oldest-first
        } else {
            self.next
        };
        self.buf[split..].iter().chain(self.buf[..split].iter())
    }

    /// Renders the ring as a JSONL trace: one meta line whose label is
    /// `"{label}#flight:{reason}"`, then the retained events oldest
    /// first, each written straight into the output by the trace sink's
    /// event encoder. The output parses with
    /// [`read_trace`](crate::read_trace) and replays like any full trace.
    pub fn dump_string(&self, meta: &TraceMeta, reason: &str) -> String {
        let mut flight_meta = meta.clone();
        flight_meta.label = format!("{}#flight:{reason}", meta.label);
        let mut out = flight_meta.to_value().to_string();
        out.push('\n');
        for event in self.iter() {
            write_event(&mut out, event);
            out.push('\n');
        }
        out
    }

    /// Writes [`FlightRecorder::dump_string`] to `path`, creating parent
    /// directories.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and write failures.
    pub fn dump_to<P: AsRef<Path>>(
        &self,
        path: P,
        meta: &TraceMeta,
        reason: &str,
    ) -> io::Result<()> {
        if let Some(parent) = path.as_ref().parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.dump_string(meta, reason).as_bytes())?;
        f.flush()
    }
}

impl Subscriber for FlightRecorder {
    #[inline]
    fn event(&mut self, event: &Event) {
        self.record(event);
    }
}

/// Edge detector for the flight-dump trigger: fires exactly once, the
/// first time the observed audit-violation count rises. The run loop
/// polls it each tick with the monitor's live count; keeping the
/// trigger's state machine here (instead of inline in the loop) makes
/// the fire-once contract unit-testable.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlightTrigger {
    fired: bool,
}

impl FlightTrigger {
    /// An armed trigger.
    pub fn new() -> FlightTrigger {
        FlightTrigger::default()
    }

    /// Whether the trigger already fired (at most one dump per run).
    pub fn fired(&self) -> bool {
        self.fired
    }

    /// Reports the current violation count; returns `true` exactly once,
    /// on the first call that sees a nonzero count.
    pub fn check(&mut self, violations: u64) -> bool {
        if self.fired || violations == 0 {
            return false;
        }
        self.fired = true;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, Layer};
    use crate::sink::read_trace;

    fn gauge(time: f64, heads: u64) -> Event {
        Event {
            time,
            layer: Layer::Sim,
            kind: EventKind::ClusterGauge { heads },
            cause: None,
        }
    }

    #[test]
    fn ring_wraps_at_capacity_keeping_the_newest() {
        let mut fr = FlightRecorder::new(3);
        assert!(fr.is_empty());
        for i in 0..7u64 {
            fr.record(&gauge(i as f64, i));
        }
        assert_eq!(fr.capacity(), 3);
        assert_eq!(fr.len(), 3);
        assert_eq!(fr.events_seen(), 7);
        let kept: Vec<u64> = fr
            .iter()
            .map(|e| match e.kind {
                EventKind::ClusterGauge { heads } => heads,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(kept, vec![4, 5, 6], "oldest-first, newest retained");
    }

    #[test]
    fn partial_ring_dumps_in_arrival_order() {
        let mut fr = FlightRecorder::new(10);
        for i in 0..4u64 {
            fr.record(&gauge(i as f64, i));
        }
        let times: Vec<f64> = fr.iter().map(|e| e.time).collect();
        assert_eq!(times, vec![0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn recording_does_not_allocate_after_construction() {
        let mut fr = FlightRecorder::new(8);
        for i in 0..100u64 {
            fr.record(&gauge(i as f64, i));
        }
        // The ring vector never exceeds its preallocated capacity.
        assert_eq!(fr.buf.capacity(), 8);
        assert_eq!(fr.len(), 8);
    }

    #[test]
    fn dump_round_trips_through_read_trace() {
        let mut fr = FlightRecorder::new(4);
        let events = [
            gauge(1.0, 5),
            Event {
                time: 1.5,
                layer: Layer::Sim,
                kind: EventKind::LinkUp { a: 2, b: 9 },
                cause: None,
            },
            gauge(2.0, 6),
        ];
        for e in &events {
            fr.record(e);
        }
        let meta = TraceMeta {
            label: "unit".into(),
            nodes: 10,
            window: 5.0,
            dt: 0.25,
            duration: 30.0,
            seed: 7,
        };
        let dir = std::env::temp_dir().join("manet_flight_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested/flight.jsonl");
        fr.dump_to(&path, &meta, "unit-test").unwrap();
        let trace = read_trace(&path).unwrap();
        let m = trace.meta.clone().expect("dump carries a meta line");
        assert_eq!(m.label, "unit#flight:unit-test");
        assert_eq!(m.seed, 7);
        assert_eq!(trace.events, events.to_vec());
        // Replayable like any trace.
        let rec = trace.replay(5.0);
        assert_eq!(rec.events_seen(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trigger_fires_exactly_once_on_first_violation() {
        let mut t = FlightTrigger::new();
        assert!(!t.check(0));
        assert!(!t.check(0));
        assert!(!t.fired());
        assert!(t.check(2), "first nonzero count fires");
        assert!(t.fired());
        assert!(!t.check(3), "later increases stay quiet");
        assert!(!t.check(0));
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut fr = FlightRecorder::new(0);
        fr.record(&gauge(0.0, 1));
        fr.record(&gauge(1.0, 2));
        assert_eq!(fr.len(), 1);
        assert_eq!(fr.iter().next().unwrap().time, 1.0);
    }
}
