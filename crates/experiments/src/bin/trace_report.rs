//! Summarizes JSONL telemetry traces written via `--trace-out`.
//!
//! ```text
//! trace_report <trace.jsonl>...   # summarize existing trace files
//! trace_report --smoke            # self-check: run, write, re-read, reconcile
//! ```
//!
//! For each trace the report prints the run metadata, the estimated warmup
//! time (first window whose CLUSTER rate is within 10% of the steady
//! state), per-class steady-state rates, churn totals, and the tick-phase
//! profile when the trace carries one. Traces recorded with attribution
//! enabled (any event carrying a cause) additionally get the root-cause
//! ledger breakdown and the measured-vs-analytic unit-cost table.

use manet_experiments::harness;
use manet_experiments::trace::{attribution_text, report_text, trace_run, TelemetryConfig};
use manet_sim::MessageKind;
use manet_telemetry::{read_trace, AttributionLedger, MsgClass, Trace};
use std::process::ExitCode;

/// Replays the ledger over a trace when any of its events carries a
/// cause, and renders the attribution section; empty otherwise.
fn attribution_section(trace: &Trace, replayed: &manet_telemetry::WindowedRecorder) -> String {
    if !trace.events.iter().any(|e| e.cause.is_some()) {
        return String::new();
    }
    let ledger = AttributionLedger::replay(&trace.events);
    let nodes = trace.meta.as_ref().map_or(0, |m| m.nodes);
    attribution_text(&ledger, replayed, nodes)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--smoke") {
        return smoke();
    }
    if args.is_empty() {
        eprintln!("usage: trace_report <trace.jsonl>... | trace_report --smoke");
        return ExitCode::FAILURE;
    }
    let mut ok = true;
    for path in &args {
        println!("== {path} ==");
        match read_trace(path) {
            Ok(trace) => {
                let window = trace.meta.as_ref().map_or(5.0, |m| m.window);
                let recorder = trace.replay(window);
                print!(
                    "{}",
                    report_text(trace.meta.as_ref(), &recorder, trace.profile.as_ref())
                );
                print!("{}", attribution_section(&trace, &recorder));
            }
            Err(e) => {
                println!("unreadable: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// End-to-end self check used by `scripts/verify.sh`: run a short traced
/// scenario, write the JSONL, read it back, and reconcile the replayed
/// window sums against the run's final counters.
fn smoke() -> ExitCode {
    let (scenario, protocol) = harness::smoke();
    let path = manet_experiments::figures_dir().join("trace_smoke.jsonl");
    let config = TelemetryConfig::to_file("trace_smoke", path.clone());
    let run = match trace_run(&scenario, &protocol, &config) {
        Ok(run) => run,
        Err(e) => {
            println!("SMOKE FAIL: traced run errored: {e}");
            return ExitCode::FAILURE;
        }
    };
    let trace = match read_trace(&path) {
        Ok(trace) => trace,
        Err(e) => {
            println!("SMOKE FAIL: written trace unreadable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let replayed = trace.replay(run.meta.window);
    let mut ok = true;
    for (class, kind) in [
        (MsgClass::Hello, MessageKind::Hello),
        (MsgClass::Cluster, MessageKind::Cluster),
        (MsgClass::Route, MessageKind::Route),
    ] {
        let from_trace = replayed.total_msgs(class);
        let from_counters = run.counters.messages(kind);
        if from_trace != from_counters {
            println!(
                "SMOKE FAIL: {} trace total {from_trace} != counters {from_counters}",
                class.name()
            );
            ok = false;
        }
    }
    if trace.meta.is_none() {
        println!("SMOKE FAIL: meta line missing");
        ok = false;
    }
    if trace.profile.is_none() {
        println!("SMOKE FAIL: profile line missing");
        ok = false;
    }
    if !run.counters.bytes_consistent() {
        println!("SMOKE FAIL: counters byte totals inconsistent with size table");
        ok = false;
    }
    // Attributed twin: same scenario with cause tracking on. The ledger
    // replayed from the written JSONL must agree with the live one, and
    // both must reconcile exactly with the shared counters.
    let attr_path = manet_experiments::figures_dir().join("trace_smoke_attr.jsonl");
    let attr_config =
        TelemetryConfig::to_file("trace_smoke_attr", attr_path.clone()).with_attribution();
    match (
        trace_run(&scenario, &protocol, &attr_config),
        read_trace(&attr_path),
    ) {
        (Ok(arun), Ok(atrace)) => {
            let attr = arun.attribution.as_ref().expect("attribution was enabled");
            let replayed_ledger = AttributionLedger::replay(&atrace.events);
            for (class, kind) in [
                (MsgClass::Hello, MessageKind::Hello),
                (MsgClass::Cluster, MessageKind::Cluster),
                (MsgClass::Route, MessageKind::Route),
            ] {
                let live = attr.ledger.attributed_total(class);
                let from_trace = replayed_ledger.attributed_total(class);
                let from_counters = arun.counters.messages(kind);
                if live != from_counters || from_trace != from_counters {
                    println!(
                        "SMOKE FAIL: {} attributed live {live} / replay {from_trace} != counters {from_counters}",
                        class.name()
                    );
                    ok = false;
                }
            }
            if !replayed_ledger.unanchored_chains().is_empty() {
                println!("SMOKE FAIL: replayed ledger has unanchored chains");
                ok = false;
            }
            if !attr.audit.is_clean() {
                println!("SMOKE FAIL: audit violations: {:?}", attr.audit.violations);
                ok = false;
            }
            print!(
                "{}",
                attribution_section(&atrace, &atrace.replay(run.meta.window))
            );
        }
        (Err(e), _) => {
            println!("SMOKE FAIL: attributed run errored: {e}");
            ok = false;
        }
        (_, Err(e)) => {
            println!("SMOKE FAIL: attributed trace unreadable: {e}");
            ok = false;
        }
    }
    print!(
        "{}",
        report_text(trace.meta.as_ref(), &replayed, trace.profile.as_ref())
    );
    if ok {
        println!(
            "SMOKE OK: {} reconciles with final counters",
            path.display()
        );
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
