//! Critical-path and shard-imbalance analyzer for the span plane.
//!
//! ```text
//! span_report --quick [--spans-out <t.json>] [--spans-canonical]
//! span_report --check <trace.json>
//! ```
//!
//! `--quick` runs the robustness2 quick chaos scenario (80 nodes, 2x2
//! shards, lossy + stalling interconnect) with a span recorder attached
//! and prints, from the per-(stage, shard) span histograms:
//!
//! - the per-stage wall-clock table with each stage's share of the tick;
//! - the per-shard compute/interconnect totals and their imbalance
//!   (max over mean shard wall time — 1.0 is perfectly balanced);
//! - a critical-path decomposition of the mean tick and the Amdahl
//!   ceiling it implies for the parallel topology stage.
//!
//! The run doubles as a self check (nonzero exit on failure): two
//! same-seed runs must export byte-identical span dumps on the canonical
//! timebase, and the dump must parse as a Chrome trace.
//!
//! `--check <file>` validates a Chrome trace-event JSON file (as written
//! by `--spans-out` on any experiment binary) with the in-house JSON
//! reader: the event array must parse, every event must carry the
//! trace-viewer required fields, and complete events must nest sanely.

use manet_experiments::cli::BinArgs;
use manet_experiments::harness::smoke;
use manet_experiments::robustness2::{chaos_trace, ChaosPoint};
use manet_experiments::trace::{TraceRun, DEFAULT_SPAN_RING_CAPACITY};
use manet_geom::ShardDims;
use manet_telemetry::{chrome_trace_json, Phase, SpanLabel, SpanRecorder, SpanTimebase};
use manet_util::json::Value;
use manet_util::table::{fmt_sig, Table};
use std::process::ExitCode;

fn main() -> ExitCode {
    // `--check` names a file, not a run, so it bypasses the shared flags.
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = argv.iter().position(|a| a == "--check") {
        let Some(path) = argv.get(i + 1) else {
            eprintln!("usage: span_report --check <trace.json>");
            return ExitCode::FAILURE;
        };
        return check(path);
    }
    let args = BinArgs::from_env("span_report");
    if args.quick {
        return quick_report(&args);
    }
    eprintln!("usage: span_report --quick [--spans-out <t.json>] | span_report --check <t.json>");
    ExitCode::FAILURE
}

/// The robustness2 quick chaos scenario: the 80-node smoke point on 2x2
/// shards, 20% interconnect loss with occasional stalls. One worker, so
/// the per-shard compute spans serialize and the critical-path
/// accounting is exact. The raw-span ring is armed so the canonical dump
/// covers the whole run.
fn chaos_run(args: &BinArgs) -> TraceRun {
    let (scenario, protocol) = smoke();
    let point = ChaosPoint {
        loss_p: 0.2,
        stall_rate: 0.02,
        ..ChaosPoint::ideal()
    };
    let mut config = args.telemetry.clone();
    config.spans_ring.get_or_insert(DEFAULT_SPAN_RING_CAPACITY);
    chaos_trace(
        &scenario,
        &protocol,
        ShardDims::new(2, 2),
        &point,
        Some(1),
        &config,
    )
}

fn quick_report(args: &BinArgs) -> ExitCode {
    println!("span_report: sharded chaos run (80 nodes, 2x2 shards, loss 0.2, stalls)");
    let run = chaos_run(args);
    let spans = &run.spans;
    if let Some(path) = &args.telemetry.spans_out {
        println!("span trace -> {}", path.display());
    }

    let ticks = spans.tick().max(1);
    let tick_total = spans
        .hist(SpanLabel::Tick, None)
        .map_or(0.0, |h| h.sum())
        .max(f64::MIN_POSITIVE);

    // Per-stage wall clock, main thread.
    let mut t = Table::new(["stage", "count", "total s", "mean us", "p99 us", "share"]);
    for phase in Phase::ALL {
        let Some(h) = spans.hist(SpanLabel::Stage(phase), None) else {
            continue;
        };
        t.row([
            phase.name().to_string(),
            h.count().to_string(),
            fmt_sig(h.sum(), 4),
            fmt_sig(h.sum() / h.count() as f64 * 1e6, 4),
            fmt_sig(h.quantile(0.99).unwrap_or(0.0) * 1e6, 4),
            format!("{:.1}%", h.sum() / tick_total * 100.0),
        ]);
    }
    println!("\nper-stage spans over {ticks} ticks (tick wall {tick_total:.4} s):");
    print!("{}", t.to_ascii());

    // Per-shard totals and imbalance for every per-shard label.
    let shards = spans.shard_slots().saturating_sub(1);
    println!("\nper-shard spans ({shards} shards; imbalance = max/mean shard wall):");
    let mut t = Table::new(["label", "per-shard totals (s)", "imbalance"]);
    for label in [
        SpanLabel::ShardCompute,
        SpanLabel::IcSend,
        SpanLabel::IcDeliver,
    ] {
        let totals: Vec<f64> = (0..shards)
            .map(|s| spans.hist(label, Some(s as u16)).map_or(0.0, |h| h.sum()))
            .collect();
        if totals.iter().all(|&x| x == 0.0) {
            continue;
        }
        t.row([
            label.name().to_string(),
            totals
                .iter()
                .map(|x| fmt_sig(*x, 3))
                .collect::<Vec<_>>()
                .join(" "),
            fmt_sig(imbalance(&totals), 4),
        ]);
    }
    print!("{}", t.to_ascii());

    // Critical-path decomposition of the run's tick wall time. With one
    // worker the shard computes serialize, so the measured topology stage
    // contains flush + merge + the full compute sum; the critical path
    // replaces that sum with the slowest shard (what a worker-per-shard
    // run cannot go below).
    let stage_sum = |p: Phase| {
        spans
            .hist(SpanLabel::Stage(p), None)
            .map_or(0.0, |h| h.sum())
    };
    let compute: Vec<f64> = (0..shards)
        .map(|s| {
            spans
                .hist(SpanLabel::ShardCompute, Some(s as u16))
                .map_or(0.0, |h| h.sum())
        })
        .collect();
    let compute_sum: f64 = compute.iter().sum();
    let compute_max = compute.iter().cloned().fold(0.0, f64::max);
    let serial_stages: f64 = Phase::TICK
        .iter()
        .filter(|&&p| p != Phase::Topology)
        .map(|&p| stage_sum(p))
        .sum();
    let flush = stage_sum(Phase::ShardFlush);
    let merge = stage_sum(Phase::ShardMerge);
    let topo_overhead = (stage_sum(Phase::Topology) - flush - merge - compute_sum).max(0.0);
    let critical = serial_stages + flush + merge + topo_overhead + compute_max;
    println!("\ncritical path (mean per tick, us):");
    let mut t = Table::new(["component", "us/tick", "share"]);
    for (name, v) in [
        ("serial stage work", serial_stages),
        ("shard flush (interconnect)", flush),
        ("shard merge + reconcile", merge),
        ("topology overhead (spawn/join, diff)", topo_overhead),
        ("slowest shard compute", compute_max),
    ] {
        t.row([
            name.to_string(),
            fmt_sig(v / ticks as f64 * 1e6, 4),
            format!("{:.1}%", v / critical * 100.0),
        ]);
    }
    t.row([
        "critical path".to_string(),
        fmt_sig(critical / ticks as f64 * 1e6, 4),
        "100%".to_string(),
    ]);
    print!("{}", t.to_ascii());

    // Amdahl: the topology compute is the parallelizable part of the tick.
    let serial = (tick_total - compute_sum).max(f64::MIN_POSITIVE);
    println!(
        "\nAmdahl (parallel fraction = shard compute {:.1}% of tick):",
        compute_sum / tick_total * 100.0
    );
    println!(
        "  speedup ceiling (infinite workers): {:.3}x",
        tick_total / serial
    );
    println!(
        "  at {} balanced shards: {:.3}x; at the observed imbalance: {:.3}x",
        shards.max(1),
        tick_total / (serial + compute_sum / shards.max(1) as f64),
        tick_total / (serial + compute_max)
    );

    let mut ok = true;

    // Gate 1: same seed, byte-identical canonical span dump.
    let twin = chaos_run(args);
    let dump_a = canonical_dump(spans);
    let dump_b = canonical_dump(&twin.spans);
    if dump_a == dump_b {
        println!("\ncheck: canonical span dump is byte-identical across same-seed runs");
    } else {
        println!("CHECK FAIL: same-seed canonical span dumps differ");
        ok = false;
    }

    // Gate 2: the exported trace round-trips through the JSON reader.
    match validate_trace(&dump_a) {
        Ok(stats) => println!(
            "check: canonical dump parses as a Chrome trace ({} spans on {} threads)",
            stats.complete, stats.tids
        ),
        Err(e) => {
            println!("CHECK FAIL: canonical dump invalid: {e}");
            ok = false;
        }
    }

    if ok {
        println!("span_report OK");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn canonical_dump(spans: &SpanRecorder) -> String {
    chrome_trace_json(spans, SpanTimebase::Canonical)
}

/// Max-over-mean of per-shard wall totals; 1.0 when perfectly balanced.
fn imbalance(totals: &[f64]) -> f64 {
    let mean = totals.iter().sum::<f64>() / totals.len().max(1) as f64;
    if mean <= 0.0 {
        return 1.0;
    }
    totals.iter().cloned().fold(0.0, f64::max) / mean
}

struct TraceStats {
    complete: usize,
    tids: usize,
}

/// Validates Chrome trace-event JSON with the in-house reader: the file
/// must parse, `traceEvents` must be an array, and every event must carry
/// the fields the trace viewer requires (`ph`, `name`, `pid`, `tid`,
/// `ts`; `dur` on complete events).
fn validate_trace(text: &str) -> Result<TraceStats, String> {
    let root = Value::parse(text).map_err(|e| format!("parse: {e:?}"))?;
    let events = root
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .ok_or("missing traceEvents array")?;
    let mut complete = 0usize;
    let mut tids = Vec::new();
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        for key in ["name", "pid", "tid"] {
            if e.get(key).is_none() {
                return Err(format!("event {i}: missing {key}"));
            }
        }
        let tid = e
            .get("tid")
            .and_then(|v| v.as_u64())
            .ok_or_else(|| format!("event {i}: non-integer tid"))?;
        if !tids.contains(&tid) {
            tids.push(tid);
        }
        match ph {
            "X" => {
                let ts = e
                    .get("ts")
                    .and_then(|v| v.as_f64())
                    .ok_or_else(|| format!("event {i}: missing ts"))?;
                let dur = e
                    .get("dur")
                    .and_then(|v| v.as_f64())
                    .ok_or_else(|| format!("event {i}: complete event without dur"))?;
                if ts < 0.0 || dur < 0.0 {
                    return Err(format!("event {i}: negative ts/dur"));
                }
                complete += 1;
            }
            "M" => {}
            other => return Err(format!("event {i}: unexpected phase {other:?}")),
        }
    }
    if complete == 0 {
        return Err("no complete (ph=X) span events".to_string());
    }
    Ok(TraceStats {
        complete,
        tids: tids.len(),
    })
}

fn check(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            println!("CHECK FAIL: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match validate_trace(&text) {
        Ok(stats) => {
            println!(
                "{path}: valid Chrome trace ({} span events on {} threads)",
                stats.complete, stats.tids
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            println!("CHECK FAIL: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}
