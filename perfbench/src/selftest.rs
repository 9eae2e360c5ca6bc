//! `--self-test`: runs every workload briefly and checks the harness.
//!
//! * Every metric listed in `BENCHMARK.json` (read from the working
//!   directory) is one the harness knows, with the same unit, and every
//!   workload reports every metric of its `--trace` mode.
//! * A planted mismatch (a perturbed reference report on the simulation
//!   workloads, corrupted reference bytes on `jobs-mix`) is counted as
//!   failed, so the failure share cannot silently read zero.

use crate::report::{self, END_TO_END, PER_LAYER};
use crate::{run_workload, WORKLOADS};
use manet_util::json::Value;

const SECONDS: f64 = 1.0;
const SEED: u64 = 7;

pub fn run() -> Result<(), String> {
    check_benchmark_json()?;
    for workload in WORKLOADS {
        for trace in [false, true] {
            let out = run_workload(workload, SEED, SECONDS, trace, false)?;
            let rows = report::selected(&out, trace);
            report::print(workload, &out, trace);
            if out.failed != 0 {
                return Err(format!(
                    "{workload}: {} checks failed unplanted: {:?}",
                    out.failed, out.failures
                ));
            }
            let line = report::result_line(&out, &rows);
            let parsed = Value::parse(&line)
                .map_err(|e| format!("{workload}: result line is not JSON: {e}"))?;
            let metrics = parsed.get("metrics").ok_or("result line has no metrics")?;
            let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            for (name, unit) in names {
                let m = metrics
                    .get(name)
                    .ok_or_else(|| format!("{workload}: metric {name} missing"))?;
                if m.get("unit").and_then(Value::as_str) != Some(unit) {
                    return Err(format!("{workload}: metric {name} lacks unit {unit}"));
                }
                if m.get("value").and_then(Value::as_f64).is_none() {
                    return Err(format!("{workload}: metric {name} has no numeric value"));
                }
            }
            if !trace {
                for (m, _) in &rows {
                    if m.samples == 0 || !m.value.is_finite() || m.value <= 0.0 {
                        return Err(format!(
                            "{workload}: end-to-end {} = {} from {} samples",
                            m.name, m.value, m.samples
                        ));
                    }
                }
            }
        }
        // The simulations plant one perturbed reference report; jobs-mix
        // corrupts the reference bytes of one hit and of one direct re-run.
        let expected = if workload == "jobs-mix" { 2 } else { 1 };
        let planted = run_workload(workload, SEED, SECONDS, false, true)?;
        if planted.failed != expected {
            return Err(format!(
                "{workload}: the planted mismatches counted {} failures, expected {expected}",
                planted.failed
            ));
        }
        println!("self-test: {workload} counted its planted mismatch");
    }
    Ok(())
}

/// `BENCHMARK.json`'s metric lists must match the harness's.
fn check_benchmark_json() -> Result<(), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = Value::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    for (key, expected) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed: Vec<(String, String)> = doc
            .get(key)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))?
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                (s("name"), s("unit"))
            })
            .collect();
        let known: Vec<(String, String)> = expected
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        if listed != known {
            return Err(format!(
                "BENCHMARK.json {key} {listed:?} != harness {known:?}"
            ));
        }
    }
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no workloads")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_string))
        .collect();
    if workloads != WORKLOADS {
        return Err(format!(
            "BENCHMARK.json workloads {workloads:?} != harness {WORKLOADS:?}"
        ));
    }
    Ok(())
}
