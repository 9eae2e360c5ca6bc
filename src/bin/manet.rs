//! `manet` — command-line front end for the clustered-MANET toolkit.
//!
//! ```text
//! manet predict  --nodes 400 --side 1000 --radius 150 --speed 10 [--p 0.08]
//! manet simulate --nodes 400 --side 1000 --radius 150 --speed 10 \
//!                [--measure 200] [--warmup 60] [--seed 1] [--policy lid|hcc] \
//!                [--shards KXxKY]   (default 1x1)
//! manet trace    --nodes 50 --side 500 --speed 8 --frames 60 --period 1 \
//!                [--format text|ns2] [--seed 1]
//! manet theta
//! manet serve-jobs [--addr 127.0.0.1:9090] [--workers 2] [--queue-cap 64] \
//!                  [--cache-cap 256] [--hold 0]
//! ```
//!
//! `predict` evaluates the paper's closed forms; `simulate` runs the full
//! protocol stack and reports measured frequencies next to the model;
//! `trace` emits a reproducible mobility trace (plain text or ns-2
//! movement format); `theta` prints the Section 6 growth-exponent table;
//! `serve-jobs` runs the simulation-as-a-service scenario server
//! (DESIGN.md §18) until `GET /quit` (or `--hold` seconds).

use clustered_manet::cluster::{Clustering, HighestConnectivity, LowestId};
use clustered_manet::experiments::cli::{parse_secs, parse_shards};
use clustered_manet::experiments::harness::ShardRun;
use clustered_manet::geom::SquareRegion;
use clustered_manet::jobs::{JobServer, JobServerConfig};
use clustered_manet::mobility::{ConstantVelocity, TraceRecorder};
use clustered_manet::model::{lid, DegreeModel, NetworkParams, OverheadModel};
use clustered_manet::routing::intra::IntraClusterRouting;
use clustered_manet::sim::{MessageKind, QuietCtx, SimBuilder};
use clustered_manet::stack::{ProtocolStack, StackReport};
use clustered_manet::util::Rng;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

/// Parsed `--key value` flags.
#[derive(Debug, Default)]
struct Flags(BTreeMap<String, String>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut map = BTreeMap::new();
        let mut i = 0;
        while i < args.len() {
            let key = args[i]
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got {:?}", args[i]))?;
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("flag --{key} is missing a value"))?;
            map.insert(key.to_string(), value.clone());
            i += 2;
        }
        Ok(Flags(map))
    }

    fn f64(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.0.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("--{key}: {e}")),
        }
    }

    fn usize(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.0.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("--{key}: {e}")),
        }
    }

    fn u64(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.0.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("--{key}: {e}")),
        }
    }

    fn str_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.0.get(key).map(String::as_str).unwrap_or(default)
    }
}

fn usage() -> &'static str {
    "usage:\n  manet predict    --nodes N --side A --radius R --speed V [--p HEADRATIO]\n  manet simulate   --nodes N --side A --radius R --speed V [--measure S] [--warmup S] [--seed K] [--policy lid|hcc] [--shards KXxKY]\n  manet trace      --nodes N --side A --speed V --frames K --period S [--format text|ns2] [--seed K]\n  manet theta\n  manet serve-jobs [--addr HOST:PORT] [--workers K] [--queue-cap K] [--cache-cap K] [--hold SECS]\nSee README.md for the underlying model (Xue, Er & Seah, ICDCS 2006)."
}

fn cmd_predict(flags: &Flags) -> Result<(), String> {
    let n = flags.usize("nodes", 400)?;
    let side = flags.f64("side", 1000.0)?;
    let radius = flags.f64("radius", 150.0)?;
    let speed = flags.f64("speed", 10.0)?;
    let params = NetworkParams::new(n, side, radius, speed).map_err(|e| e.to_string())?;
    let model = OverheadModel::new(params, DegreeModel::TorusExact);
    let d = model.expected_degree();
    let p = flags.f64("p", lid::p_approx(d))?;
    if !(0.0 < p && p <= 1.0) {
        return Err(format!("--p must be in (0, 1], got {p}"));
    }
    let b = model.breakdown(p);
    println!(
        "N={n} a={side} r={radius} v={speed}  =>  d={d:.2}, P={p:.4} (m={:.1})",
        1.0 / p
    );
    println!("per-node lower bounds:");
    println!(
        "  f_hello   = {:10.4} msg/s    O_hello   = {:10.1} bit/s",
        b.f_hello, b.o_hello
    );
    println!(
        "  f_cluster = {:10.4} msg/s    O_cluster = {:10.1} bit/s  (break {:.4} + contact {:.4})",
        b.f_cluster, b.o_cluster, b.f_cluster_break, b.f_cluster_contact
    );
    println!(
        "  f_route   = {:10.4} msg/s    O_route   = {:10.1} bit/s",
        b.f_route, b.o_route
    );
    println!(
        "  total                           O_total   = {:10.1} bit/s",
        b.o_total
    );
    Ok(())
}

fn cmd_simulate(flags: &Flags) -> Result<(), String> {
    let n = flags.usize("nodes", 400)?;
    let side = flags.f64("side", 1000.0)?;
    let radius = flags.f64("radius", 150.0)?;
    let speed = flags.f64("speed", 10.0)?;
    let measure = flags.f64("measure", 200.0)?;
    let warmup = flags.f64("warmup", 60.0)?;
    let seed = flags.u64("seed", 1)?;
    let policy = flags.str_or("policy", "lid");
    let run = match flags.0.get("shards") {
        Some(v) => ShardRun::new(parse_shards(v)?),
        None => ShardRun::resolve(None),
    };
    if radius >= side {
        return Err(format!("need radius < side (got {radius} >= {side})"));
    }

    let world = SimBuilder::new()
        .nodes(n)
        .side(side)
        .radius(radius)
        .speed(speed)
        .seed(seed)
        .build();

    // The two policies share the run loop; generics keep it monomorphic.
    fn simulate<P: clustered_manet::cluster::ClusterPolicy>(
        world: clustered_manet::sim::World,
        policy: P,
        warmup: f64,
        measure: f64,
        run: &ShardRun,
    ) -> Result<(StackReport, f64, f64, clustered_manet::sim::World), String> {
        let clustering = Clustering::form(policy, world.topology());
        let stack = ProtocolStack::ideal(world, clustering, IntraClusterRouting::new());
        let mut stack = run.stack(stack).map_err(|e| format!("--shards: {e}"))?;
        let mut quiet = QuietCtx::new();
        stack.prime(&mut quiet.ctx());
        let warm_ticks = (warmup / stack.world().dt()).round() as usize;
        for _ in 0..warm_ticks {
            stack.tick(&mut quiet.ctx());
        }
        stack.world_mut().begin_measurement();
        let mut agg = StackReport::default();
        let mut p_acc = 0.0;
        let ticks = (measure / stack.world().dt()).round() as usize;
        for _ in 0..ticks {
            let report = stack.tick(&mut quiet.ctx());
            p_acc += report.head_ratio;
            agg.absorb(report);
        }
        let connectivity = stack.world().topology().pair_connectivity();
        let world = stack.into_parts().0.into_parts().0;
        Ok((agg, p_acc / ticks.max(1) as f64, connectivity, world))
    }

    let (agg, p_meas, connectivity, world) = match policy {
        "lid" => simulate(world, LowestId, warmup, measure, &run)?,
        "hcc" => simulate(world, HighestConnectivity, warmup, measure, &run)?,
        other => return Err(format!("unknown --policy {other:?} (expected lid or hcc)")),
    };
    let (maint, route) = (agg.cluster.maintenance, agg.route);

    let elapsed = world.measured_time();
    let per_node = |count: u64| count as f64 / n as f64 / elapsed;
    let f_hello = world
        .counters()
        .per_node_rate(MessageKind::Hello, n, elapsed);
    println!(
        "simulated {elapsed:.0}s of {policy} clustering (seed {seed}, shard plane {}, workers {}):",
        run.dims,
        run.worker_count()
    );
    println!("  steady head ratio P = {p_meas:.4}  (final pair connectivity {connectivity:.3})");
    println!("  f_hello   = {f_hello:10.4} msg/node/s");
    println!(
        "  f_cluster = {:10.4} msg/node/s  (break {:.4} + contact {:.4})",
        per_node(maint.total_messages()),
        per_node(maint.break_triggered_messages()),
        per_node(maint.contact_triggered_messages())
    );
    println!(
        "  f_route   = {:10.4} msg/node/s  ({:.1} table entries/node/s)",
        per_node(route.route_messages),
        per_node(route.route_entries)
    );

    // The model at the measured P, for side-by-side reading.
    let params = NetworkParams::new(n, side, radius, speed).map_err(|e| e.to_string())?;
    let b = OverheadModel::new(params, DegreeModel::TorusExact).breakdown(p_meas.clamp(1e-6, 1.0));
    println!(
        "model at measured P: f_hello {:.4}, f_cluster {:.4}, f_route {:.4} (lower bound)",
        b.f_hello, b.f_cluster, b.f_route
    );
    Ok(())
}

fn cmd_trace(flags: &Flags) -> Result<(), String> {
    let n = flags.usize("nodes", 50)?;
    let side = flags.f64("side", 500.0)?;
    let speed = flags.f64("speed", 8.0)?;
    let frames = flags.usize("frames", 60)?;
    let period = flags.f64("period", 1.0)?;
    let seed = flags.u64("seed", 1)?;
    let format = flags.str_or("format", "text");
    if period <= 0.0 || period.is_nan() {
        return Err("need --period > 0".into());
    }
    let region = SquareRegion::new(side);
    let mut rng = Rng::seed_from_u64(seed);
    let mut cv = ConstantVelocity::new(region, n, speed, &mut rng);
    let trace = TraceRecorder::new(region, period).record(&mut cv, &mut rng, frames);
    match format {
        "text" => print!("{}", trace.to_text()),
        "ns2" => print!("{}", trace.to_ns2()),
        other => return Err(format!("unknown --format {other:?} (expected text or ns2)")),
    }
    Ok(())
}

fn cmd_theta() {
    let cells = clustered_manet::model::asymptotics::theta_table();
    println!("Section 6 growth exponents (claimed vs fitted):");
    for c in cells {
        println!(
            "  {:>7?} in {:>7?}: claimed {:>4}, fitted {:+.3} {}",
            c.family,
            c.variable,
            c.claimed_exponent,
            c.fitted_exponent,
            if c.confirms(0.12) { "ok" } else { "MISMATCH" }
        );
    }
}

fn cmd_serve_jobs(flags: &Flags) -> Result<(), String> {
    let addr = flags.str_or("addr", "127.0.0.1:9090");
    let config = JobServerConfig {
        workers: flags.usize("workers", 2)?.max(1),
        queue_cap: flags.usize("queue-cap", 64)?.max(1),
        cache_cap: flags.usize("cache-cap", 256)?.max(1),
        ..JobServerConfig::default()
    };
    // 0 = serve until /quit; anything else is a watchdog timeout.
    let hold = match flags.0.get("hold") {
        Some(raw) => parse_secs("--hold", raw)?,
        None => Duration::ZERO,
    };
    let hold = if hold.is_zero() {
        Duration::from_secs(u64::MAX / 4)
    } else {
        hold
    };
    let server = JobServer::serve(addr, config).map_err(|e| format!("bind {addr}: {e}"))?;
    let bound = server.local_addr().expect("serve() always binds HTTP");
    println!(
        "[serve-jobs] listening on http://{bound} ({} workers, queue cap {}, cache cap {})",
        config.workers, config.queue_cap, config.cache_cap
    );
    println!(
        "[serve-jobs] endpoints: POST /jobs, GET /jobs/:id[/result|/trace], \
         POST /jobs/:id/cancel, /metrics /health /quit"
    );
    server.wait_for_quit(hold);
    println!(
        "[serve-jobs] {}; shutting down",
        if server.quit_requested() {
            "quit requested"
        } else {
            "hold expired"
        }
    );
    server.shutdown();
    Ok(())
}

fn run_cli(args: Vec<String>) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        return Err(usage().to_string());
    };
    let flags = Flags::parse(&args[1..])?;
    match cmd.as_str() {
        "predict" => cmd_predict(&flags),
        "simulate" => cmd_simulate(&flags),
        "trace" => cmd_trace(&flags),
        "serve-jobs" => cmd_serve_jobs(&flags),
        "theta" => {
            cmd_theta();
            Ok(())
        }
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run_cli(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn flags_parse_pairs() {
        let f = Flags::parse(&args("--nodes 10 --speed 2.5")).unwrap();
        assert_eq!(f.usize("nodes", 0).unwrap(), 10);
        assert_eq!(f.f64("speed", 0.0).unwrap(), 2.5);
        assert_eq!(f.f64("missing", 7.0).unwrap(), 7.0);
        assert_eq!(f.str_or("format", "text"), "text");
    }

    #[test]
    fn flags_reject_malformed() {
        assert!(Flags::parse(&args("nodes 10")).is_err());
        assert!(Flags::parse(&args("--nodes")).is_err());
        let f = Flags::parse(&args("--nodes ten")).unwrap();
        assert!(f.usize("nodes", 0).is_err());
    }

    #[test]
    fn predict_runs_with_defaults() {
        let f = Flags::parse(&[]).unwrap();
        assert!(cmd_predict(&f).is_ok());
    }

    #[test]
    fn predict_rejects_bad_p() {
        let f = Flags::parse(&args("--p 1.5")).unwrap();
        assert!(cmd_predict(&f).is_err());
    }

    #[test]
    fn trace_rejects_bad_format() {
        let f = Flags::parse(&args("--format csv --nodes 3 --frames 2")).unwrap();
        assert!(cmd_trace(&f).is_err());
    }

    #[test]
    fn simulate_small_run_works() {
        let f = Flags::parse(&args(
            "--nodes 60 --side 400 --radius 80 --speed 10 --measure 20 --warmup 5",
        ))
        .unwrap();
        assert!(cmd_simulate(&f).is_ok());
    }

    #[test]
    fn simulate_accepts_shard_layouts_and_rejects_bad_ones() {
        let f = Flags::parse(&args(
            "--nodes 60 --side 400 --radius 80 --speed 10 --measure 10 --warmup 2 --shards 2x2",
        ))
        .unwrap();
        assert!(cmd_simulate(&f).is_ok());
        // Malformed dims and layouts finer than the radius both error.
        for bad in ["twoxtwo", "0x2", "16x16"] {
            let f = Flags::parse(&args(&format!(
                "--nodes 60 --side 400 --radius 80 --speed 10 --measure 10 --warmup 2 --shards {bad}"
            )))
            .unwrap();
            assert!(cmd_simulate(&f).is_err(), "--shards {bad} should fail");
        }
    }

    #[test]
    fn serve_jobs_rejects_a_non_finite_hold_before_binding() {
        for hold in ["inf", "nan", "-1", "1e300", "soon"] {
            let err = run_cli(args(&format!(
                "serve-jobs --addr 127.0.0.1:0 --hold {hold}"
            )))
            .expect_err(hold);
            assert!(err.contains("--hold"), "{hold}: {err}");
        }
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run_cli(args("frobnicate")).is_err());
        assert!(run_cli(args("help")).is_ok());
        assert!(run_cli(Vec::new()).is_err());
    }
}
