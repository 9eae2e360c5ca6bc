//! Span-plane integration: the hierarchical span recorder over the
//! sharded chaos stack (DESIGN.md §16).
//!
//! Four contracts, end to end through the public facade:
//!
//! 1. **Coverage** — a sharded chaos run records ≥ 1 span per
//!    (stage, shard) per tick: the tick root, every pipeline stage
//!    on the main thread, and per-shard compute + interconnect spans.
//! 2. **Chrome trace round trip** — the `--spans-out` dump parses with
//!    the in-house JSON reader, carries per-shard `tid`s with
//!    thread-name metadata, and covers every (tick, shard) cell.
//! 3. **Determinism** — on the canonical timebase, same seed ⇒
//!    byte-identical dumps, across runs *and* across worker counts
//!    (compute spans fold into the recorder in shard-index order).
//! 4. **Inertness** — arming the raw-span ring and dump leaves the
//!    traced JSONL and final counters byte-identical: observability must
//!    not perturb the sim.

use clustered_manet::experiments::harness::{Protocol, Scenario, ShardRun};
use clustered_manet::experiments::robustness2::ChaosPoint;
use clustered_manet::experiments::trace::{
    trace_run_chaos, TelemetryConfig, TraceRun, DEFAULT_SPAN_RING_CAPACITY,
};
use clustered_manet::geom::ShardDims;
use clustered_manet::telemetry::{Phase, SpanLabel};
use clustered_manet::util::json::Value;
use std::collections::BTreeSet;
use std::path::PathBuf;

/// The robustness2 quick chaos scenario: 80 nodes, 500 m side, 100 m
/// radius, 2x2 shards, 20% interconnect loss with occasional stalls,
/// seed 7, 80 ticks at dt = 0.5.
const DIMS: &str = "2x2";
const TICKS: u64 = 80;

fn quick() -> (Scenario, Protocol) {
    (
        Scenario {
            nodes: 80,
            side: 500.0,
            radius: 100.0,
            ..Scenario::default()
        },
        Protocol {
            warmup: 10.0,
            measure: 30.0,
            seeds: vec![7],
            dt: 0.5,
        },
    )
}

fn chaos_run(config: &TelemetryConfig, workers: usize) -> TraceRun {
    let (scenario, protocol) = quick();
    let dims = ShardDims::parse(DIMS).unwrap();
    let point = ChaosPoint {
        loss_p: 0.2,
        stall_rate: 0.02,
        ..ChaosPoint::ideal()
    };
    let shard_run = ShardRun::new(dims)
        .with_interconnect(point.config(dims, TICKS, protocol.seeds[0]))
        .with_workers(workers);
    trace_run_chaos(&scenario, &protocol, config, Some(&shard_run)).expect("chaos run")
}

fn tmp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("manet-span-plane-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

/// Trace lines minus `"type":"profile"` records, which carry wall-clock
/// timings and legitimately differ run to run.
fn without_profile_lines(raw: &str) -> String {
    raw.lines()
        .filter(|l| !l.contains("\"type\":\"profile\""))
        .map(|l| format!("{l}\n"))
        .collect()
}

#[test]
fn spanned_chaos_run_covers_every_stage_and_shard_each_tick() {
    let config =
        TelemetryConfig::in_memory("span-coverage").with_spans_ring(DEFAULT_SPAN_RING_CAPACITY);
    let run = chaos_run(&config, 3);
    let spans = &run.spans;
    let shards = ShardDims::parse(DIMS).unwrap().count();

    assert_eq!(spans.tick(), TICKS, "one recorder tick per sim tick");
    assert_eq!(
        spans.hist(SpanLabel::Tick, None).map_or(0, |h| h.count()),
        TICKS,
        "one tick root span per tick"
    );
    for phase in Phase::ALL {
        let h = spans
            .hist(SpanLabel::Stage(phase), None)
            .unwrap_or_else(|| panic!("{}: no stage spans", phase.name()));
        assert_eq!(
            h.count(),
            TICKS,
            "{}: one stage span per tick",
            phase.name()
        );
    }
    for s in 0..shards as u16 {
        assert_eq!(
            spans
                .hist(SpanLabel::ShardCompute, Some(s))
                .map_or(0, |h| h.count()),
            TICKS,
            "shard {s}: one compute span per tick"
        );
        for label in [SpanLabel::IcSend, SpanLabel::IcDeliver] {
            assert!(
                spans.hist(label, Some(s)).is_some_and(|h| h.count() > 0),
                "shard {s}: no {} spans over {TICKS} chaos ticks",
                label.name()
            );
        }
    }
    // The default ring is generous enough to retain this whole run, so
    // the Chrome dump in the next test sees every span.
    assert_eq!(spans.ring_len() as u64, spans.spans_recorded());
}

#[test]
fn chrome_trace_round_trips_with_per_shard_threads() {
    let path = tmp_path("chaos.json");
    let config = TelemetryConfig::in_memory("span-dump")
        .with_spans_out(path.clone())
        .with_spans_canonical();
    chaos_run(&config, 3);
    let shards = ShardDims::parse(DIMS).unwrap().count() as u64;

    let raw = std::fs::read_to_string(&path).expect("span dump written");
    let doc = Value::parse(&raw).expect("dump parses with the in-house reader");
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");

    // Thread-name metadata maps every tid back to main / shard N.
    let mut thread_names = BTreeSet::new();
    for ev in events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("M"))
    {
        assert_eq!(ev.get("name").and_then(Value::as_str), Some("thread_name"));
        let name = ev
            .get("args")
            .and_then(|a| a.get("name"))
            .and_then(Value::as_str)
            .expect("thread_name args.name");
        thread_names.insert(name.to_string());
    }
    let mut expected: BTreeSet<String> = (0..shards).map(|s| format!("shard {s}")).collect();
    expected.insert("main".to_string());
    assert_eq!(thread_names, expected);

    // Complete events: per (name, tid), the set of ticks covered.
    let mut ticks_of: std::collections::BTreeMap<(String, u64), BTreeSet<u64>> =
        std::collections::BTreeMap::new();
    for ev in events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
    {
        let name = ev.get("name").and_then(Value::as_str).expect("name");
        let tid = ev.get("tid").and_then(Value::as_u64).expect("tid");
        let tick = ev
            .get("args")
            .and_then(|a| a.get("tick"))
            .and_then(Value::as_u64)
            .expect("args.tick");
        assert!(ev
            .get("ts")
            .and_then(Value::as_f64)
            .is_some_and(|v| v >= 0.0));
        assert!(ev
            .get("dur")
            .and_then(Value::as_f64)
            .is_some_and(|v| v >= 0.0));
        ticks_of
            .entry((name.to_string(), tid))
            .or_default()
            .insert(tick);
    }

    // ≥ 1 span per (stage, shard) per tick: the tick root and every
    // pipeline stage on tid 0, a compute span on every shard tid.
    for name in Phase::ALL.iter().map(|p| p.name()).chain(["tick"]) {
        let ticks = ticks_of
            .get(&(name.to_string(), 0))
            .unwrap_or_else(|| panic!("{name}: no main-thread events"));
        assert_eq!(ticks.len() as u64, TICKS, "{name}: tick coverage");
    }
    for tid in 1..=shards {
        let ticks = ticks_of
            .get(&("shard_compute".to_string(), tid))
            .unwrap_or_else(|| panic!("tid {tid}: no compute events"));
        assert_eq!(ticks.len() as u64, TICKS, "tid {tid}: tick coverage");
    }
}

#[test]
fn canonical_dump_is_byte_identical_across_runs_and_worker_counts() {
    let dump = |name: &str, workers: usize| -> Vec<u8> {
        let path = tmp_path(name);
        let config = TelemetryConfig::in_memory("span-determinism")
            .with_spans_out(path.clone())
            .with_spans_canonical();
        chaos_run(&config, workers);
        std::fs::read(&path).expect("span dump written")
    };
    let first = dump("det-a.json", 3);
    assert_eq!(
        first,
        dump("det-b.json", 3),
        "same seed, same workers: dump diverged"
    );
    // Compute spans fold into the recorder in shard-index order after
    // the join, so the dump is worker-count invariant too.
    assert_eq!(
        first,
        dump("det-w1.json", 1),
        "same seed, different workers: dump diverged"
    );
}

#[test]
fn enabling_spans_leaves_traced_jsonl_byte_identical() {
    let plain_path = tmp_path("plain.jsonl");
    let plain = chaos_run(
        &TelemetryConfig::to_file("span-inert", plain_path.clone()),
        3,
    );

    let spanned_path = tmp_path("spanned.jsonl");
    let spanned = chaos_run(
        &TelemetryConfig::to_file("span-inert", spanned_path.clone())
            .with_spans_out(tmp_path("inert-dump.json")),
        3,
    );

    let plain_raw = without_profile_lines(&std::fs::read_to_string(&plain_path).expect("trace"));
    let spanned_raw =
        without_profile_lines(&std::fs::read_to_string(&spanned_path).expect("trace"));
    assert!(plain_raw.lines().count() > 50, "vacuous parity check");
    assert_eq!(plain_raw, spanned_raw, "spans perturbed the traced JSONL");
    assert_eq!(plain.counters, spanned.counters, "spans perturbed counters");
}
