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
use clustered_manet::experiments::cli::{parse_secs, parse_shards, Flags};
use clustered_manet::experiments::harness::ShardRun;
use clustered_manet::experiments::spec::{ScenarioSpec, SpecKind};
use clustered_manet::geom::SquareRegion;
use clustered_manet::jobs::{JobServer, JobServerConfig};
use clustered_manet::mobility::{ConstantVelocity, TraceRecorder};
use clustered_manet::model::{lid, DegreeModel, NetworkParams, OverheadModel};
use clustered_manet::routing::intra::IntraClusterRouting;
use clustered_manet::sim::{MessageKind, QuietCtx, SimBuilder};
use clustered_manet::stack::{ProtocolStack, StackReport};
use clustered_manet::util::Rng;
use std::process::ExitCode;
use std::time::Duration;

/// A subcommand's body.
type Command = fn(&Flags) -> Result<(), String>;

/// The subcommands: name, the flags each reads (every one optional, as
/// [`Flags::parse`] takes them), and body.
const COMMANDS: [(&str, &str, Command); 5] = [
    (
        "predict",
        "--nodes N --side A --radius R --speed V --p HEADRATIO",
        cmd_predict,
    ),
    (
        "simulate",
        "--nodes N --side A --radius R --speed V --measure S --warmup S --seed K \
         --policy lid|hcc --shards KXxKY",
        cmd_simulate,
    ),
    (
        "trace",
        "--nodes N --side A --speed V --frames K --period S --format text|ns2 --seed K",
        cmd_trace,
    ),
    ("theta", "", cmd_theta),
    (
        "serve-jobs",
        "--addr HOST:PORT --workers K --queue-cap K --cache-cap K --hold SECS",
        cmd_serve_jobs,
    ),
];

fn usage() -> String {
    let mut text = String::from("usage:\n");
    for (name, flags, _) in COMMANDS {
        text += format!("  manet {name:<10} {flags}").trim_end();
        text.push('\n');
    }
    text + "Every flag is optional and given at most once, as --flag VALUE or --flag=VALUE;\n\
            an unknown flag is an error.\n\
            See README.md for the underlying model (Xue, Er & Seah, ICDCS 2006)."
}

fn cmd_predict(flags: &Flags) -> Result<(), String> {
    let n = flags.parse_or("nodes", 400)?;
    let side = flags.parse_or("side", 1000.0)?;
    let radius = flags.parse_or("radius", 150.0)?;
    let speed = flags.parse_or("speed", 10.0)?;
    let params = NetworkParams::new(n, side, radius, speed).map_err(|e| e.to_string())?;
    let model = OverheadModel::new(params, DegreeModel::TorusExact);
    let d = model.expected_degree();
    let p = flags.parse_or("p", lid::p_approx(d))?;
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
    let n = flags.parse_or("nodes", 400)?;
    let side = flags.parse_or("side", 1000.0)?;
    let radius = flags.parse_or("radius", 150.0)?;
    let speed = flags.parse_or("speed", 10.0)?;
    let measure = flags.parse_or("measure", 200.0)?;
    let warmup = flags.parse_or("warmup", 60.0)?;
    let seed = flags.parse_or("seed", 1)?;
    let policy = flags.get("policy").unwrap_or("lid");
    let run = match flags.get("shards") {
        Some(v) => ShardRun::new(parse_shards(v)?),
        None => ShardRun::resolve(None),
    };
    // The jobs service's rules for the `single` spec this run is, checked
    // before anything is built.
    ScenarioSpec {
        nodes: n,
        side,
        radius,
        speed,
        warmup,
        measure,
        seeds: vec![seed],
        shards: Some(run.dims),
        ..ScenarioSpec::preset(SpecKind::Single)
    }
    .validate()?;

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
        let world = stack.into_parts().0;
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
    let n = flags.parse_or("nodes", 50)?;
    let side: f64 = flags.parse_or("side", 500.0)?;
    let speed: f64 = flags.parse_or("speed", 8.0)?;
    let frames = flags.parse_or("frames", 60)?;
    let period: f64 = flags.parse_or("period", 1.0)?;
    let seed = flags.parse_or("seed", 1)?;
    let format = flags.get("format").unwrap_or("text");
    if !(period > 0.0 && period.is_finite()) {
        return Err(format!("need a finite --period > 0 (got {period})"));
    }
    if !(side > 0.0 && side.is_finite()) {
        return Err(format!("need a finite --side > 0 (got {side})"));
    }
    if !(speed >= 0.0 && speed.is_finite()) {
        return Err(format!("need a finite --speed >= 0 (got {speed})"));
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

fn cmd_theta(_: &Flags) -> Result<(), String> {
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
    Ok(())
}

fn cmd_serve_jobs(flags: &Flags) -> Result<(), String> {
    let addr = flags.get("addr").unwrap_or("127.0.0.1:9090");
    let config = JobServerConfig {
        workers: flags.parse_or("workers", 2usize)?.max(1),
        queue_cap: flags.parse_or("queue-cap", 64usize)?.max(1),
        cache_cap: flags.parse_or("cache-cap", 256usize)?.max(1),
        ..JobServerConfig::default()
    };
    // 0 = serve until /quit; anything else is a watchdog timeout.
    let hold = match flags.get("hold") {
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
    println!(
        "[serve-jobs] {}; shutting down",
        if server.wait_for_quit(hold) {
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
        return Err(usage());
    };
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        println!("{}", usage());
        return Ok(());
    }
    let Some((_, flags, run)) = COMMANDS.iter().find(|(name, ..)| name == cmd) else {
        return Err(format!("unknown command {cmd:?}\n{}", usage()));
    };
    run(&Flags::parse(&args[1..], flags)?)
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
        let argv = args("--nodes 10 --speed 2.5 --side=100");
        let f = Flags::parse(&argv, "--nodes N --speed V --side A --format F").unwrap();
        assert_eq!(f.parse_or("nodes", 0usize).unwrap(), 10);
        assert_eq!(f.parse_or("speed", 0.0).unwrap(), 2.5);
        assert_eq!(f.parse_or("side", 0.0).unwrap(), 100.0);
        assert_eq!(f.parse_or("missing", 7.0).unwrap(), 7.0);
        assert_eq!(f.get("format").unwrap_or("text"), "text");
        assert!(run_cli(args("predict --nodes=100")).is_ok());
    }

    #[test]
    fn flags_reject_malformed() {
        for (argv, needle) in [
            ("nodes 10", "unexpected argument \"nodes\""),
            ("--nodes", "--nodes needs a value"),
            (
                "--nodse 100",
                "unknown flag \"--nodse\" (flags: --nodes N --speed V)",
            ),
            ("--nodes 100 --nodes 200", "--nodes given twice"),
        ] {
            let argv = args(argv);
            let err = Flags::parse(&argv, "--nodes N --speed V").expect_err(needle);
            assert!(err.contains(needle), "{err}");
        }
        let argv = args("--nodes ten");
        let f = Flags::parse(&argv, "--nodes N").unwrap();
        assert!(f.parse_or("nodes", 0usize).is_err());
        // Every subcommand reads its flags this way: a typo is an error,
        // not a run on the defaults.
        for bad in [
            "predict --nodse 100",
            "predict --nodes 100 --nodes 200",
            "theta --x 1",
        ] {
            let err = run_cli(args(bad)).expect_err(bad);
            assert!(!err.contains('\n'), "{bad}: {err}");
        }
    }

    #[test]
    fn predict_runs_with_defaults() {
        assert!(run_cli(args("predict")).is_ok());
    }

    #[test]
    fn predict_rejects_bad_p() {
        assert!(run_cli(args("predict --p 1.5")).is_err());
    }

    #[test]
    fn trace_rejects_bad_format() {
        assert!(run_cli(args("trace --format csv --nodes 3 --frames 2")).is_err());
        // Numbers no trace can use are one-line errors, never a panic.
        for bad in ["--speed -3", "--side -100", "--period inf"] {
            let err = run_cli(args(&format!("trace --frames 2 {bad}"))).expect_err(bad);
            assert!(err.contains(&bad[..bad.find(' ').unwrap()]), "{bad}: {err}");
        }
    }

    #[test]
    fn simulate_small_run_works() {
        let argv = "simulate --nodes 60 --side 400 --radius 80 --speed 10 --measure 20 --warmup 5";
        assert!(run_cli(args(argv)).is_ok());
    }

    #[test]
    fn simulate_accepts_shard_layouts_and_rejects_bad_ones() {
        let base = "simulate --nodes 60 --side 400 --radius 80 --speed 10 --measure 10 --warmup 2";
        assert!(run_cli(args(&format!("{base} --shards 2x2"))).is_ok());
        // Malformed dims, layouts finer than the radius and numbers no run
        // can use are one-line errors before anything is built, never a
        // panic, a NaN rate or a run that does not end.
        for (bad, needle) in [
            ("--shards twoxtwo", "shards"),
            ("--shards 0x2", "shards"),
            ("--shards 16x16", "shard layout"),
            ("--radius -5", "radius"),
            ("--side nan", "side"),
            ("--speed -3", "speed"),
            ("--nodes 0", "nodes"),
            ("--measure nan", "measure"),
            ("--warmup 1e999", "warmup"),
        ] {
            let err = run_cli(args(&format!("{base} {bad}"))).expect_err(bad);
            assert!(err.contains(needle) && !err.contains('\n'), "{bad}: {err}");
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
