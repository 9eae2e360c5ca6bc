//! Golden-parity pins: the refactored `ProtocolStack` tick pipeline must
//! reproduce the pre-refactor hand-rolled loops bit-for-bit for fixed
//! seeds — per-class `Counters`, measured harness rates, fault-plane
//! rates, and the JSONL trace (attribution on and off).
//!
//! The fixtures under `tests/golden/` were captured from the pre-refactor
//! loop (PR 3 head) by running with `GOLDEN_CAPTURE=1`:
//!
//! ```text
//! GOLDEN_CAPTURE=1 cargo test --test golden_parity
//! ```
//!
//! Profile lines (`"type":"profile"`) are excluded from the JSONL
//! comparison: they carry wall-clock timings and are nondeterministic
//! even across identical pre-refactor runs.

use clustered_manet::experiments::harness::{measure_lid, Protocol, Scenario};
use clustered_manet::experiments::hello_accuracy;
use clustered_manet::experiments::robustness::{measure_with_faults, FaultConfig};
use clustered_manet::experiments::spec::{result_json, run_scenario, ScenarioSpec};
use clustered_manet::experiments::trace::{trace_run, TelemetryConfig};
use clustered_manet::sim::LossModel;
use std::path::{Path, PathBuf};

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn capture_mode() -> bool {
    std::env::var_os("GOLDEN_CAPTURE").is_some()
}

/// Compares (or captures) `actual` against the named fixture.
fn check(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if capture_mode() {
        std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
        std::fs::write(&path, actual).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {} ({e}); see module docs", path.display()));
    assert_eq!(
        actual, expected,
        "{name} diverged from the pre-refactor golden fixture"
    );
}

/// Strips wall-clock profile lines; everything else is deterministic.
fn without_profile_lines(raw: &str) -> String {
    raw.lines()
        .filter(|l| !l.contains("\"type\":\"profile\""))
        .map(|l| format!("{l}\n"))
        .collect()
}

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

#[test]
fn traced_jsonl_and_counters_match_pre_refactor() {
    let (scenario, protocol) = quick();
    let dir = std::env::temp_dir().join(format!("manet-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("plain.jsonl");
    let run = trace_run(
        &scenario,
        &protocol,
        &TelemetryConfig::to_file("golden", path.clone()),
    )
    .expect("traced run");
    let raw = std::fs::read_to_string(&path).expect("trace file");
    check("trace_plain.jsonl", &without_profile_lines(&raw));
    check("trace_counters.txt", &format!("{:#?}\n", run.counters));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn attributed_jsonl_matches_pre_refactor() {
    let (scenario, protocol) = quick();
    let dir = std::env::temp_dir().join(format!("manet-golden-attr-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("attr.jsonl");
    let run = trace_run(
        &scenario,
        &protocol,
        &TelemetryConfig::to_file("golden", path.clone()).with_attribution(),
    )
    .expect("attributed traced run");
    let raw = std::fs::read_to_string(&path).expect("trace file");
    check("trace_attributed.jsonl", &without_profile_lines(&raw));
    check(
        "trace_attributed_counters.txt",
        &format!("{:#?}\n", run.counters),
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn harness_measurement_matches_pre_refactor() {
    let (scenario, protocol) = quick();
    let m = measure_lid(&scenario, &protocol);
    check("measured_lid.txt", &format!("{m:#?}\n"));
}

#[test]
fn faulty_stack_measurement_matches_pre_refactor() {
    let (scenario, protocol) = quick();
    let config = FaultConfig {
        loss: LossModel::Bernoulli { p: 0.15 },
        crash_rate: 0.004,
        mean_downtime: 12.0,
        ..FaultConfig::default()
    };
    let m = measure_with_faults(&scenario, &protocol, &config);
    check("measured_faulty.txt", &format!("{m:#?}\n"));
}

/// The jobs service's robustness miss: N = 200 at the paper's density,
/// one lossy row with Poisson churn, at dt = 0.25 s. Nodes move 2.5 m a
/// tick against a half skin of 15 m, so the kernel's link schedule runs
/// and a tick with a node down takes its flips through the crash mask
/// (`measured_faulty.txt` runs at dt = 0.5 s, where the schedule never
/// runs).
fn robustness_spec(seed: u64, burst: bool) -> ScenarioSpec {
    ScenarioSpec::from_json(&format!(
        "{{\"kind\": \"robustness\", \"nodes\": 200, \"side\": 707.1067811865475, \
         \"radius\": 150, \"speed\": 10, \"epoch\": 20, \"warmup\": 5, \"measure\": 10, \
         \"dt\": 0.25, \"seeds\": [{seed}], \
         \"fault\": {{\"loss\": [0.1], \"crash_rate\": 0.002, \"burst\": {burst}}}}}"
    ))
    .expect("robustness spec parses")
}

fn robustness_result(seed: u64, burst: bool) -> String {
    let spec = robustness_spec(seed, burst);
    let output = run_scenario(&spec, None).expect("robustness spec runs");
    format!("{}\n", result_json(&spec, &output))
}

#[test]
fn churned_robustness_job_matches_golden() {
    check("robustness_job_seed1.json", &robustness_result(1, false));
    check(
        "robustness_job_seed20061234.json",
        &robustness_result(20_061_234, false),
    );
}

#[test]
fn churned_burst_robustness_job_matches_golden() {
    check(
        "robustness_job_burst_seed1.json",
        &robustness_result(1, true),
    );
}

/// EXT4's sweep on the 120-node scenario of its own unit test: the
/// explicit soft-timer HELLO at six beacon intervals.
#[test]
fn hello_accuracy_sweep_matches_golden() {
    let scenario = Scenario {
        nodes: 120,
        side: 600.0,
        radius: 100.0,
        ..Scenario::default()
    };
    let rows = hello_accuracy::sweep(&scenario, 60.0);
    check("hello_accuracy_sweep.txt", &format!("{rows:#?}\n"));
}
