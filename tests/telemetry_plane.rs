//! Telemetry-plane integration tests: the zero-cost contract of the
//! disabled/no-op probe, hand-computed windowed rates against the
//! recorder, counters reconciliation of traced harness runs, and JSONL
//! round-tripping.

use clustered_manet::cluster::{Clustering, LowestId};
use clustered_manet::experiments::harness::{Protocol, Scenario};
use clustered_manet::experiments::trace::{trace_run, TelemetryConfig};
use clustered_manet::sim::{HelloMode, MessageKind, QuietCtx, SimBuilder, StepCtx, World};
use clustered_manet::telemetry::{
    read_trace, Event, EventKind, MsgClass, NoopSubscriber, Probe, WindowedRecorder,
};

fn build_world(seed: u64) -> World {
    SimBuilder::new()
        .nodes(120)
        .side(600.0)
        .radius(100.0)
        .speed(10.0)
        .dt(0.5)
        .seed(seed)
        .hello_mode(HelloMode::EventDriven)
        .build()
}

/// The tentpole guarantee: a `NoopSubscriber`-attached stack is
/// bit-identical to one that never heard of telemetry — same counters
/// (structural equality covers every per-kind message and byte total),
/// same positions, same cluster roles.
#[test]
fn noop_subscriber_leaves_the_stack_bit_identical() {
    let mut plain_world = build_world(42);
    let mut traced_world = build_world(42);
    let mut plain_cluster = Clustering::form(LowestId, plain_world.topology());
    let mut traced_cluster = Clustering::form(LowestId, traced_world.topology());
    let mut noop = NoopSubscriber;
    let mut quiet = QuietCtx::new();
    for _ in 0..120 {
        let plain_report = plain_world.step(&mut quiet.ctx());
        let mut probe = Probe::subscriber(&mut noop);
        let mut ctx = StepCtx::new(&mut probe);
        let traced_report = traced_world.step(&mut ctx);
        assert_eq!(plain_report, traced_report);
        plain_cluster.maintain(plain_world.topology(), &mut quiet.ctx());
        traced_cluster.maintain(traced_world.topology(), &mut ctx);
    }
    assert_eq!(plain_world.counters(), traced_world.counters());
    assert_eq!(plain_world.positions(), traced_world.positions());
    assert_eq!(plain_cluster.roles(), traced_cluster.roles());
}

/// Hand-computed tumbling-window HELLO rates: bucket the per-tick
/// event-driven beacon count (2 per generated link) by `floor(t/width)`
/// independently of the telemetry plane, then demand the recorder's rate
/// series matches bucket for bucket.
#[test]
fn recorder_windows_match_hand_computed_hello_series() {
    const WIDTH: f64 = 4.0;
    let mut world = build_world(9);
    let mut recorder = WindowedRecorder::new(WIDTH);
    let mut expected: Vec<u64> = Vec::new();
    for _ in 0..160 {
        let report = {
            let mut probe = Probe::subscriber(&mut recorder);
            world.step(&mut StepCtx::new(&mut probe))
        };
        let hello_sent = 2 * report.generated as u64;
        let idx = (report.time / WIDTH).floor() as usize;
        if expected.len() <= idx {
            expected.resize(idx + 1, 0);
        }
        expected[idx] += hello_sent;
    }
    let rates = recorder.rate_series(MsgClass::Hello);
    assert_eq!(rates.len(), expected.len());
    let mut total = 0;
    for (i, (&rate, &count)) in rates.iter().zip(&expected).enumerate() {
        assert!(
            (rate - count as f64 / WIDTH).abs() < 1e-12,
            "window {i}: recorder {rate} vs hand-computed {}",
            count as f64 / WIDTH
        );
        total += count;
    }
    assert!(total > 0, "the run must generate links");
    assert_eq!(recorder.total_msgs(MsgClass::Hello), total);
    assert_eq!(
        world.counters().messages(MessageKind::Hello),
        total,
        "counters agree with both"
    );
}

/// The traced harness run reconciles: per-class window sums equal the
/// final counters exactly, and the JSONL file round-trips to the same
/// series.
#[test]
fn traced_run_jsonl_reconciles_with_counters() {
    let scenario = Scenario {
        nodes: 80,
        side: 500.0,
        radius: 100.0,
        ..Scenario::default()
    };
    let protocol = Protocol {
        warmup: 10.0,
        measure: 30.0,
        seeds: vec![7],
        dt: 0.5,
    };
    let dir = std::env::temp_dir().join(format!("manet-telemetry-it-{}", std::process::id()));
    let path = dir.join("run.jsonl");
    let run = trace_run(
        &scenario,
        &protocol,
        &TelemetryConfig::to_file("integration", path.clone()),
    )
    .expect("traced run writes its JSONL");

    let trace = read_trace(&path).expect("written trace parses");
    let replayed = trace.replay(run.meta.window);
    assert_eq!(trace.meta.as_ref(), Some(&run.meta));
    assert_eq!(trace.profile.as_ref(), Some(&run.profile));
    for (class, kind) in [
        (MsgClass::Hello, MessageKind::Hello),
        (MsgClass::Cluster, MessageKind::Cluster),
        (MsgClass::Route, MessageKind::Route),
    ] {
        assert!(run.counters.messages(kind) > 0);
        assert_eq!(replayed.total_msgs(class), run.counters.messages(kind));
        assert_eq!(
            replayed.rate_series(class),
            run.recorder.rate_series(class),
            "file replay equals the in-memory recorder for {}",
            class.name()
        );
    }
    assert!(run.counters.bytes_consistent());
    std::fs::remove_dir_all(&dir).ok();
}

/// A live subscriber sees exactly the structured events the layers commit:
/// per-tick link events equal the step report, cluster gauge samples are
/// present, and timestamps never decrease.
#[test]
fn live_subscriber_sees_committed_events_in_order() {
    let mut world = build_world(3);
    let mut sink = Vec::<Event>::new();
    let mut links_up = 0usize;
    let mut links_down = 0usize;
    for _ in 0..60 {
        let mut probe = Probe::subscriber(&mut sink);
        let report = world.step(&mut StepCtx::new(&mut probe));
        links_up += report.generated;
        links_down += report.broken;
    }
    let seen_up = sink
        .iter()
        .filter(|e| matches!(e.kind, EventKind::LinkUp { .. }))
        .count();
    let seen_down = sink
        .iter()
        .filter(|e| matches!(e.kind, EventKind::LinkDown { .. }))
        .count();
    assert_eq!(seen_up, links_up);
    assert_eq!(seen_down, links_down);
    assert!(links_up > 0);
    let mut last = 0.0;
    for e in &sink {
        assert!(e.time >= last, "timestamps must be monotone across ticks");
        last = e.time;
    }
}
