//! `perfbench`: the repository's benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-400 --seed 1 --seconds 10 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics of the traced run; the last stdout line is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. See README.md for
//! the workloads and the metric definitions.

mod alloc;
mod engine;
mod jobs;
mod report;
mod selftest;
mod sim;
mod stats;

use report::Outcome;
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["paper-400", "scale-100k", "jobs-mix"];

/// A seed no tuning run used; later claims must also hold on it.
pub const HELD_OUT_SEED: u64 = 20_061_234;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Runs one workload; `plant` seeds one known mismatch (self-test).
pub fn run_workload(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    plant: bool,
) -> Result<Outcome, String> {
    let mut out = match workload {
        "paper-400" => sim::PAPER_400.run(seed, seconds, trace, plant)?,
        "scale-100k" => sim::SCALE_100K.run(seed, seconds, trace, plant)?,
        "jobs-mix" => jobs::run(seed, seconds, trace, plant)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    out.fact("workload", workload);
    out.fact("seed", seed);
    out.fact("held_out_seed", HELD_OUT_SEED);
    out.fact("seconds", seconds);
    out.fact("host_cpus", stats::host_cpus());
    out.fact("rustc", env!("PERFBENCH_RUSTC"));
    out.fact("commit", commit());
    Ok(out)
}

/// The checked-out commit, read from `.git` when the working directory
/// is a git checkout.
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (id, name) = line.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where a traced run writes its spans: under the build directory, which
/// version control ignores.
pub fn spans_path(workload: &str, seed: u64) -> String {
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    format!("{dir}/perfbench/spans-{workload}-{seed}.jsonl")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--self-test") {
        return match selftest::run() {
            Ok(()) => {
                println!("self-test passed");
                ExitCode::SUCCESS
            }
            Err(why) => {
                eprintln!("self-test failed: {why}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            eprintln!("       perfbench --self-test");
            return ExitCode::from(2);
        }
    };
    match run_workload(&args.workload, args.seed, args.seconds, args.trace, false) {
        Ok(outcome) => {
            report::print(&args.workload, &outcome, args.trace);
            ExitCode::SUCCESS
        }
        Err(why) => {
            eprintln!("perfbench: {} failed to run: {why}", args.workload);
            ExitCode::FAILURE
        }
    }
}
