//! The experiment binaries' command line: the one place their arguments
//! are read.
//!
//! [`BinArgs::parse`] turns the shared flags into typed fields in one
//! pass. [`BinArgs::init`] runs it over the process arguments at the top
//! of `main` — an unknown flag or a malformed value exits with status 2
//! and a one-line error — installs `--shards`, binds `--serve-metrics`
//! and prints the topology header. [`BinArgs::finish`] at the bottom runs
//! the traced twin the telemetry flags ask for. [`BinArgs::spec`] folds
//! the parsed layout and protocol into a [`ScenarioSpec`], so a figure
//! binary is a thin wrapper over the same [`run_scenario`] entry the jobs
//! server executes.
//!
//! | flag | meaning |
//! |---|---|
//! | `--quick` | the short test protocol |
//! | `--shards KXxKY` | shard layout (default `1x1`; results are identical) |
//! | `--trace-out <path>` | the traced twin's JSONL trace |
//! | `--metrics-out <path>` | Prometheus snapshot after the run (implies attribution) |
//! | `--serve-metrics <addr>` | live `/metrics` endpoint (port 0 = ephemeral) |
//! | `--serve-hold <secs>` | keep serving after the run, until `GET /quit` |
//! | `--flight <K>` | flight-recorder ring capacity |
//! | `--flight-out <path>` | flight dump (arms a 4096-event ring) |
//! | `--spans-out <path>` | Chrome trace (arms a 64 Ki-span ring) |
//! | `--spans-ring <K>` | raw-span ring capacity |
//! | `--spans-canonical` | deterministic, sequence-derived span timestamps |
//!
//! Every valued flag takes `--flag value` or `--flag=value`. [`Flags`]
//! is the one reader of that syntax, shared with the `manet` CLI.

use crate::harness::{set_default_shards, Protocol, Scenario, ShardRun};
use crate::spec::{run_scenario, ScenarioOutput, ScenarioSpec, SpecKind};
use crate::trace::{
    attribution_text, audit_text, install_live_publisher, live_publisher, report_text, trace_run,
    TelemetryConfig,
};
use manet_geom::ShardDims;
use manet_telemetry::{serve_metrics, HttpListener};
use std::path::PathBuf;
use std::time::Duration;

/// The shared flags, as [`Flags::parse`] reads them.
const FLAGS: &str = "--quick --shards KXxKY --trace-out PATH --metrics-out PATH \
    --serve-metrics ADDR --serve-hold SECS --flight K --flight-out PATH --spans-out PATH \
    --spans-ring K --spans-canonical";

/// The parsed shared flags of one experiment-binary invocation. Holds
/// the bound `--serve-metrics` endpoint, so keep it alive until the end
/// of `main` (which [`BinArgs::finish`] does for you); dropping it
/// honors `--serve-hold`.
#[derive(Debug)]
pub struct BinArgs {
    /// `--quick`: run the short test protocol.
    pub quick: bool,
    /// `--shards KXxKY` (`None` = the default `1x1` layout).
    pub shards: Option<ShardDims>,
    /// The telemetry flags (`--trace-out`, `--metrics-out`, `--flight`,
    /// `--flight-out`, `--spans-out`, `--spans-ring`, `--spans-canonical`)
    /// as the config of the binary's traced runs, labelled with its name.
    pub telemetry: TelemetryConfig,
    /// `--serve-metrics <addr>`: the live endpoint's bind address.
    serve_metrics: Option<String>,
    /// `--serve-hold <secs>`: how long to keep serving after the run.
    serve_hold: Duration,
    /// The bound `--serve-metrics` endpoint; dropping `BinArgs` closes it.
    server: Option<HttpListener>,
}

/// Command-line flags read in one pass: `--name value`, `--name=value`
/// and bare `--switch`es, each given at most once. The one reader of
/// flag syntax, for the experiment binaries ([`BinArgs`]) and every
/// `manet` subcommand.
#[derive(Debug, Default)]
pub struct Flags<'a>(Vec<(&'a str, &'a str)>);

impl<'a> Flags<'a> {
    /// Reads `argv` against `spec`, the accepted flags as a usage line
    /// (`--quick --shards KXxKY …`): a flag followed by a placeholder
    /// takes a value, any other is a switch. Errors for an unknown flag
    /// or a positional argument quote `spec`.
    ///
    /// # Errors
    ///
    /// Returns a one-line message on an unknown flag, a positional
    /// argument, a repeated flag, a missing value, or a value given to a
    /// switch.
    pub fn parse(argv: &'a [String], spec: &str) -> Result<Flags<'a>, String> {
        let mut flags = Flags::default();
        let mut rest = argv.iter();
        while let Some(arg) = rest.next() {
            let Some(flag) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument {arg:?} (flags: {spec})"));
            };
            let (name, inline) = match flag.split_once('=') {
                Some((name, value)) => (name, Some(value)),
                None => (flag, None),
            };
            if flags.get(name).is_some() {
                return Err(format!("--{name} given twice"));
            }
            let mut words = spec.split_whitespace();
            if !words.any(|w| w.strip_prefix("--") == Some(name)) {
                return Err(format!("unknown flag {arg:?} (flags: {spec})"));
            }
            let value = if words.next().is_some_and(|w| !w.starts_with("--")) {
                match inline.or_else(|| rest.next().map(String::as_str)) {
                    Some(v) if !v.is_empty() => v,
                    _ => return Err(format!("--{name} needs a value")),
                }
            } else if inline.is_some() {
                return Err(format!("--{name} takes no value"));
            } else {
                ""
            };
            flags.0.push((name, value));
        }
        Ok(flags)
    }

    /// The value given for `name` (`""` for a switch), if it was given.
    pub fn get(&self, name: &str) -> Option<&'a str> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// The value given for `name` parsed as `T`, or `default` when absent.
    ///
    /// # Errors
    ///
    /// Returns `--name: <parse error>` when the value does not parse.
    pub fn parse_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        self.get(name).map_or(Ok(default), |v| {
            v.parse().map_err(|e| format!("--{name}: {e}"))
        })
    }
}

impl BinArgs {
    /// Parses the shared flags (`argv` without the program name).
    ///
    /// # Errors
    ///
    /// Returns a one-line message on an unknown flag, a positional
    /// argument, a repeated flag, a missing value, or a malformed value.
    pub fn parse(argv: &[String]) -> Result<BinArgs, String> {
        let flags = Flags::parse(argv, FLAGS)?;
        let path = |name| flags.get(name).map(PathBuf::from);
        let capacity = |name| flags.get(name).map(|v| parse_capacity(name, v)).transpose();
        let mut telemetry = TelemetryConfig::in_memory("");
        telemetry.out = path("trace-out");
        if let Some(path) = path("metrics-out") {
            telemetry = telemetry.with_metrics_out(path);
        }
        if let Some(k) = capacity("flight")? {
            telemetry = telemetry.with_flight(k);
        }
        if let Some(path) = path("flight-out") {
            telemetry = telemetry.with_flight_out(path);
        }
        if let Some(path) = path("spans-out") {
            telemetry = telemetry.with_spans_out(path);
        }
        if let Some(k) = capacity("spans-ring")? {
            telemetry = telemetry.with_spans_ring(k);
        }
        if flags.get("spans-canonical").is_some() {
            telemetry = telemetry.with_spans_canonical();
        }
        Ok(BinArgs {
            quick: flags.get("quick").is_some(),
            shards: flags.get("shards").map(parse_shards).transpose()?,
            telemetry,
            serve_metrics: flags.get("serve-metrics").map(String::from),
            serve_hold: flags
                .get("serve-hold")
                .map_or(Ok(Duration::ZERO), |v| parse_secs("--serve-hold", v))?,
            server: None,
        })
    }

    /// Parses the process arguments, exiting with status 2 and a
    /// one-line error when they do not parse; then installs `--shards`
    /// as the process-wide harness default and binds `--serve-metrics`.
    /// For binaries that print their own run header; the rest call
    /// [`BinArgs::init`].
    pub fn from_env(label: &'static str) -> BinArgs {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut args = BinArgs::parse(&argv).unwrap_or_else(|e| {
            eprintln!("{label}: {e}");
            std::process::exit(2)
        });
        args.telemetry.label = label.to_string();
        if let Some(dims) = args.shards {
            set_default_shards(dims);
        }
        args.bind();
        args
    }

    /// [`BinArgs::from_env`], then the topology header line.
    pub fn init(label: &'static str) -> BinArgs {
        let args = BinArgs::from_env(label);
        println!("{}", shards_header(&ShardRun::resolve(None)));
        args
    }

    /// Binds `--serve-metrics` and installs the process-wide publisher,
    /// so every traced run in this process streams its windows there.
    fn bind(&mut self) {
        let Some(addr) = &self.serve_metrics else {
            return;
        };
        if live_publisher().is_some() {
            return;
        }
        match serve_metrics(addr.as_str()) {
            Ok((server, publisher)) => {
                println!(
                    "[serve] listening on http://{} (endpoints: /metrics /health /flight /quit)",
                    server.local_addr()
                );
                install_live_publisher(publisher);
                self.server = Some(server);
            }
            Err(e) => println!("[serve] failed to bind {addr}: {e}"),
        }
    }

    /// The protocol these flags select: [`Protocol::quick`] under
    /// `--quick`, the paper default otherwise.
    pub fn protocol(&self) -> Protocol {
        if self.quick {
            Protocol::quick()
        } else {
            Protocol::default()
        }
    }

    /// The [`ScenarioSpec`] these flags select for `kind`: the preset
    /// with this invocation's shard layout and protocol folded in —
    /// exactly what `POST /jobs` with `{"kind": "<kind>"}` (plus the
    /// same overrides) would run.
    pub fn spec(&self, kind: SpecKind) -> ScenarioSpec {
        let protocol = self.protocol();
        ScenarioSpec {
            warmup: protocol.warmup,
            measure: protocol.measure,
            dt: protocol.dt,
            seeds: protocol.seeds,
            shards: self.shards,
            ..ScenarioSpec::preset(kind)
        }
    }

    /// End-of-`main` hook: when a telemetry flag asks for one, runs a
    /// traced twin of `scenario` under `protocol` (on the `--shards`
    /// layout; the trace bytes are identical at any layout) and prints
    /// its summary. Without such a flag this is a no-op, so a binary's
    /// output is unchanged by default. Then drops the serve endpoint,
    /// honoring `--serve-hold`.
    pub fn finish(self, scenario: &Scenario, protocol: &Protocol) {
        let config = &self.telemetry;
        // `--spans-ring` and `--spans-canonical` only shape a traced run
        // that another flag asks for.
        if config.out.is_none()
            && config.metrics_out.is_none()
            && self.serve_metrics.is_none()
            && config.flight.is_none()
            && config.spans_out.is_none()
        {
            return;
        }
        let label = &config.label;
        match &config.out {
            Some(path) => println!("\n[trace] {label}: traced run -> {}", path.display()),
            None => println!("\n[trace] {label}: traced run (in-memory)"),
        }
        if let Some(path) = &config.metrics_out {
            println!("[trace] metrics snapshot -> {}", path.display());
        }
        if let Some(path) = &config.flight_out {
            println!("[trace] flight dump -> {}", path.display());
        }
        if let Some(path) = &config.spans_out {
            println!("[trace] span trace -> {}", path.display());
        }
        let layout = self.shards.map(ShardRun::new);
        match trace_run(scenario, protocol, config, layout.as_ref()) {
            Ok(run) => {
                print!(
                    "{}",
                    report_text(Some(&run.meta), &run.recorder, Some(&run.profile))
                );
                if config.span_ring().is_some() {
                    println!(
                        "spans: {} recorded across {} ticks ({} retained in ring)",
                        run.spans.spans_recorded(),
                        run.spans.tick(),
                        run.spans.ring_len()
                    );
                }
                if let Some(attr) = &run.attribution {
                    print!(
                        "{}",
                        attribution_text(&attr.ledger, &run.recorder, run.meta.nodes)
                    );
                    print!("{}", audit_text(&attr.audit));
                }
            }
            Err(e) => println!("[trace] failed: {e}"),
        }
    }
}

impl Drop for BinArgs {
    /// Honors `--serve-hold` (serving the final snapshot until `GET
    /// /quit` or the timeout), then shuts the endpoint down.
    fn drop(&mut self) {
        let Some(mut server) = self.server.take() else {
            return;
        };
        if !self.serve_hold.is_zero() && !server.quit_requested() {
            println!(
                "[serve] holding http://{} for {:.0}s (GET /quit to end)",
                server.local_addr(),
                self.serve_hold.as_secs_f64()
            );
            server.wait_for_quit(self.serve_hold);
        }
        server.shutdown();
    }
}

/// Runs a figure spec (fig1–fig3) and prints its table, also written as
/// CSV, and the sim-vs-analysis RMS line.
///
/// # Panics
///
/// Panics when the spec fails validation (e.g. a `--shards` layout too
/// fine for the radius).
pub fn emit_figure(spec: &ScenarioSpec) {
    let name = spec.kind.name();
    let out = run_scenario(spec, None).unwrap_or_else(|e| panic!("{name}: {e}"));
    let ScenarioOutput::Figure(fig) = out else {
        unreachable!("figure kinds produce figures");
    };
    crate::emit(name, &fig.table());
    let (h, c, r) = fig.agreement();
    println!("RMS relative error (sim vs analysis): hello {h:.3}  cluster {c:.3}  route {r:.3}");
}

/// Parses one `--shards` value (`KXxKY`) into dims, with the usage hint
/// every frontend shares (`manet simulate` calls it from its own flags).
///
/// # Errors
///
/// Returns the usage message when the value is malformed.
pub fn parse_shards(raw: &str) -> Result<ShardDims, String> {
    ShardDims::parse(raw)
        .map_err(|e| format!("--shards {raw}: {e} (expected KXxKY, e.g. --shards 2x2)"))
}

/// Parses a hold duration in seconds (`--serve-hold`, and `manet
/// serve-jobs --hold`): finite and non-negative.
///
/// # Errors
///
/// Returns a one-line message naming `flag` on a non-number, NaN,
/// infinity, a negative value, or one too large for a [`Duration`].
pub fn parse_secs(flag: &str, raw: &str) -> Result<Duration, String> {
    let secs: f64 = raw
        .parse()
        .map_err(|e| format!("{flag} {raw}: {e} (expected seconds)"))?;
    Duration::try_from_secs_f64(secs).map_err(|e| format!("{flag} {raw}: {e} (expected seconds)"))
}

fn parse_capacity(name: &str, raw: &str) -> Result<usize, String> {
    raw.parse()
        .map_err(|e| format!("--{name} {raw}: {e} (expected a ring capacity)"))
}

/// The run-header line describing the engine: the shard layout and the
/// worker pool it runs with.
pub fn shards_header(run: &ShardRun) -> String {
    format!(
        "topology: shard plane {}, workers {}",
        run.dims,
        run.worker_count()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{DEFAULT_FLIGHT_CAPACITY, DEFAULT_SPAN_RING_CAPACITY};

    fn parse(argv: &[&str]) -> Result<BinArgs, String> {
        BinArgs::parse(&argv.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn bin_args_default_to_the_paper_protocol_without_flags() {
        let args = BinArgs::parse(&[]).expect("no flags");
        assert_eq!(args.shards, None);
        assert!(!args.quick);
        assert_eq!(args.serve_hold, Duration::ZERO);
        assert_eq!(
            parse(&["--serve-hold", "0"]).unwrap().serve_hold,
            Duration::ZERO
        );
        assert_eq!(args.protocol(), Protocol::default());
        let spec = args.spec(SpecKind::Fig1VsRange);
        assert_eq!(spec, ScenarioSpec::preset(SpecKind::Fig1VsRange));
        assert_eq!(args.telemetry, TelemetryConfig::in_memory(""));
        args.finish(&Scenario::default(), &Protocol::default());
    }

    #[test]
    fn every_shared_flag_parses_in_both_forms() {
        let forms: [fn(&str, &str) -> Vec<String>; 2] = [
            |f, v| vec![f.to_string(), v.to_string()],
            |f, v| vec![format!("{f}={v}")],
        ];
        for join in forms {
            let mut argv = vec!["--quick".to_string(), "--spans-canonical".to_string()];
            for (flag, value) in [
                ("--shards", "2x3"),
                ("--trace-out", "t.jsonl"),
                ("--metrics-out", "m.prom"),
                ("--serve-metrics", "127.0.0.1:0"),
                ("--serve-hold", "1.5"),
                ("--flight", "64"),
                ("--flight-out", "f.jsonl"),
                ("--spans-out", "s.json"),
                ("--spans-ring", "128"),
            ] {
                argv.extend(join(flag, value));
            }
            let args = BinArgs::parse(&argv).expect("every flag parses");
            assert!(args.quick);
            assert_eq!(args.shards, Some(ShardDims::new(2, 3)));
            assert_eq!(args.serve_metrics.as_deref(), Some("127.0.0.1:0"));
            assert_eq!(args.serve_hold, Duration::from_millis(1500));
            assert_eq!(args.protocol(), Protocol::quick());
            // Nothing is bound by a parse.
            assert!(args.server.is_none());
            assert_eq!(
                args.telemetry,
                TelemetryConfig::to_file("", "t.jsonl".into())
                    .with_metrics_out("m.prom".into())
                    .with_flight(64)
                    .with_flight_out("f.jsonl".into())
                    .with_spans_out("s.json".into())
                    .with_spans_ring(128)
                    .with_spans_canonical()
            );
        }
    }

    #[test]
    fn output_flags_arm_their_default_rings() {
        let args = parse(&["--flight-out", "f.jsonl", "--spans-out", "s.json"]).unwrap();
        assert_eq!(args.telemetry.flight, Some(DEFAULT_FLIGHT_CAPACITY));
        assert_eq!(args.telemetry.span_ring(), Some(DEFAULT_SPAN_RING_CAPACITY));
        let args = parse(&["--flight", "8", "--flight-out", "f.jsonl"]).unwrap();
        assert_eq!(args.telemetry.flight, Some(8));
        // A metrics snapshot carries the per-root-cause families.
        assert!(
            parse(&["--metrics-out", "m.prom"])
                .unwrap()
                .telemetry
                .attribution
        );
    }

    #[test]
    fn unknown_flags_and_malformed_values_are_rejected() {
        for (argv, needle) in [
            (&["--trace_out", "x"][..], "unknown flag \"--trace_out\""),
            (&["--bogus"], "unknown flag"),
            (&["-q"], "unexpected argument"),
            (&["fig.csv"], "unexpected argument"),
            (&["--quick=yes"], "takes no value"),
            (&["--quick", "--quick"], "given twice"),
            (&["--shards", "2x2", "--shards=3x3"], "given twice"),
            (&["--trace-out"], "needs a value"),
            (&["--trace-out="], "needs a value"),
            (&["--serve-metrics"], "needs a value"),
            (&["--shards", "twoxtwo"], "--shards twoxtwo"),
            (&["--shards=0x2"], "--shards 0x2"),
            (&["--serve-hold", "soon"], "--serve-hold soon"),
            (&["--serve-hold", "inf"], "--serve-hold inf"),
            (&["--serve-hold=nan"], "--serve-hold nan"),
            (&["--serve-hold", "-1"], "--serve-hold -1"),
            (&["--serve-hold", "1e300"], "--serve-hold 1e300"),
            (&["--flight", "many"], "--flight many"),
            (&["--flight=-3"], "--flight -3"),
            (&["--spans-ring", "1.5"], "--spans-ring 1.5"),
        ] {
            let err = parse(argv).expect_err(&argv.join(" "));
            assert!(err.contains(needle), "{argv:?}: {err:?} lacks {needle:?}");
            assert!(!err.contains('\n'), "{argv:?}: error is one line: {err:?}");
        }
    }
}
