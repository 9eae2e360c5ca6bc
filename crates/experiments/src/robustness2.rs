//! ROB2 — interconnect chaos: the sharded stack under a fallible shard
//! interconnect.
//!
//! ROB1 injects faults into the *protocol* channels (HELLO/CLUSTER/ROUTE
//! messages between nodes). This experiment injects them one layer down,
//! into the *infrastructure*: the shard-to-shard interconnect that carries
//! ghost-row syncs and ownership migrations (`manet-shard::interconnect`).
//! A seeded loss model drops whole `GhostSync` batches and `Migrate`
//! messages per directed shard link, and a stall schedule freezes shards
//! for runs of ticks. The consuming shard degrades gracefully — stale
//! ghost views up to a staleness bound, conservative link drops beyond it,
//! capped-backoff migration retries — and every degradation is traced
//! under `RootCause::InterconnectFault`.
//!
//! The sweep measures what infrastructure chaos does to the *observed*
//! protocol overhead: stale or dropped boundary links register as link
//! churn, which the stack answers with CLUSTER/ROUTE traffic. The ideal
//! row (`p = 0`, no stalls) is byte-identical to the monolithic stack —
//! the chaos machinery is provably pass-through — so every delta in the
//! table is attributable to the injected faults alone. Runs are
//! deterministic in the seed and invariant to the worker count (the
//! `--quick` gates pin both).

use crate::harness::{Protocol, Scenario, ShardRun};
use crate::trace::{trace_run_chaos, TelemetryConfig, TraceRun};
use manet_geom::ShardDims;
use manet_shard::InterconnectConfig;
use manet_sim::{LossModel, StallSchedule};
use manet_telemetry::{MsgClass, RootCause};
use manet_util::table::{fmt_sig, Table};

/// One chaos setting: loss probability × stall rate × staleness bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosPoint {
    /// Per-message interconnect loss probability (Bernoulli, per link).
    pub loss_p: f64,
    /// Per-shard stall rate, stalls per up-tick (`0` = never).
    pub stall_rate: f64,
    /// Mean stall length, ticks.
    pub mean_stall: f64,
    /// Ghost-view staleness bound, ticks.
    pub max_staleness: u64,
}

impl ChaosPoint {
    /// The ideal interconnect (the parity baseline).
    pub fn ideal() -> Self {
        ChaosPoint {
            loss_p: 0.0,
            stall_rate: 0.0,
            mean_stall: 3.0,
            max_staleness: 4,
        }
    }

    /// Whether this point injects no faults at all.
    pub fn is_ideal(&self) -> bool {
        self.loss_p == 0.0 && self.stall_rate == 0.0
    }

    /// Realizes the point as an [`InterconnectConfig`] for `dims` over a
    /// run of `ticks`, seeded from `seed`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range rates; sweep points are constructed in code.
    pub fn config(&self, dims: ShardDims, ticks: u64, seed: u64) -> InterconnectConfig {
        let stall = StallSchedule::poisson(
            dims.count(),
            self.stall_rate,
            self.mean_stall,
            ticks + 2,
            seed ^ 0x57A11,
        )
        .expect("stall rates validated by construction");
        InterconnectConfig {
            loss: LossModel::Bernoulli { p: self.loss_p },
            stall,
            seed: seed ^ 0x1C0_77EC7,
            max_ghost_staleness: self.max_staleness,
            ..InterconnectConfig::default()
        }
    }
}

/// Measured outcome of one chaos run.
#[derive(Debug)]
pub struct ChaosRow {
    /// The injected setting.
    pub point: ChaosPoint,
    /// Interconnect messages (batches) lost.
    pub lost: u64,
    /// Shard-stall onsets observed.
    pub stalls: u64,
    /// Ghost rows dropped after exceeding the staleness bound.
    pub stale_drops: u64,
    /// Link recoveries (first delivery after one or more misses).
    pub recoveries: u64,
    /// Root events recorded under `RootCause::InterconnectFault`.
    pub fault_events: u64,
    /// CLUSTER msgs/node/s over the traced run.
    pub f_cluster: f64,
    /// ROUTE msgs/node/s over the traced run.
    pub f_route: f64,
    /// Runtime audit verdict.
    pub audit_clean: bool,
    /// Whether every causal chain anchored to a recorded root event.
    pub anchored: bool,
}

/// Runs one chaos point on the sharded stack with full attribution,
/// under `config` (see [`chaos_trace`]).
///
/// # Panics
///
/// Panics when `dims` is too fine for the scenario radius or a rate is
/// out of range; sweeps construct both in code.
pub fn measure_chaos(
    scenario: &Scenario,
    protocol: &Protocol,
    dims: ShardDims,
    point: &ChaosPoint,
    workers: Option<usize>,
    config: &TelemetryConfig,
) -> ChaosRow {
    let run = chaos_trace(scenario, protocol, dims, point, workers, config);
    summarize(point, &run)
}

/// The raw traced run behind [`measure_chaos`], for callers that also
/// want the counters or recorder (the determinism gates compare them).
/// Runs under `config` with attribution switched on; a flight or span
/// dump path in it is rewritten by every run, so the file left behind
/// is the last run of a sweep or gate sequence.
pub fn chaos_trace(
    scenario: &Scenario,
    protocol: &Protocol,
    dims: ShardDims,
    point: &ChaosPoint,
    workers: Option<usize>,
    config: &TelemetryConfig,
) -> TraceRun {
    let seed = protocol.seeds.first().copied().unwrap_or(1);
    let ticks = ((protocol.warmup + protocol.measure) / protocol.dt).round() as u64;
    let mut shard_run = ShardRun::new(dims).with_interconnect(point.config(dims, ticks, seed));
    if let Some(w) = workers {
        shard_run = shard_run.with_workers(w);
    }
    let config = config.clone().with_attribution();
    trace_run_chaos(scenario, protocol, &config, Some(&shard_run))
        .expect("chaos run cannot fail on IO (flight dumps create their dirs)")
}

/// Reduces a traced chaos run to its [`ChaosRow`].
pub fn summarize(point: &ChaosPoint, run: &TraceRun) -> ChaosRow {
    let (mut lost, mut stalls, mut stale_drops, mut recoveries) = (0u64, 0u64, 0u64, 0u64);
    for w in run.recorder.windows() {
        lost += w.interconnect_lost;
        stalls += w.shard_stalls;
        stale_drops += w.ghost_stale_drops;
        recoveries += w.interconnect_recoveries;
    }
    let attr = run.attribution.as_ref().expect("chaos runs attribute");
    let nodes = run.meta.nodes.max(1) as f64;
    let secs = run.meta.duration.max(f64::MIN_POSITIVE);
    ChaosRow {
        point: *point,
        lost,
        stalls,
        stale_drops,
        recoveries,
        fault_events: attr.ledger.root_events(RootCause::InterconnectFault),
        f_cluster: run.recorder.total_msgs(MsgClass::Cluster) as f64 / nodes / secs,
        f_route: run.recorder.total_msgs(MsgClass::Route) as f64 / nodes / secs,
        audit_clean: attr.audit.is_clean(),
        anchored: attr.ledger.unanchored_chains().is_empty(),
    }
}

/// Sweeps loss × stall settings at a fixed staleness bound, ideal row
/// first, plus a staleness-bound sweep at the heaviest loss setting;
/// every run is traced under `config`.
pub fn sweep_chaos(
    scenario: &Scenario,
    protocol: &Protocol,
    dims: ShardDims,
    config: &TelemetryConfig,
) -> Vec<ChaosRow> {
    let mut rows = Vec::new();
    for &(loss_p, stall_rate) in &[
        (0.0, 0.0), // ideal: the parity baseline
        (0.05, 0.0),
        (0.2, 0.0),
        (0.0, 0.02),
        (0.2, 0.02),
    ] {
        let point = ChaosPoint {
            loss_p,
            stall_rate,
            ..ChaosPoint::ideal()
        };
        rows.push(measure_chaos(
            scenario, protocol, dims, &point, None, config,
        ));
    }
    for max_staleness in [1, 8] {
        let point = ChaosPoint {
            loss_p: 0.2,
            max_staleness,
            ..ChaosPoint::ideal()
        };
        rows.push(measure_chaos(
            scenario, protocol, dims, &point, None, config,
        ));
    }
    rows
}

/// Renders the chaos sweep table.
pub fn table(rows: &[ChaosRow]) -> Table {
    let mut t = Table::new([
        "loss p",
        "stall rate",
        "stale bound",
        "lost",
        "stalls",
        "stale drops",
        "recoveries",
        "fault events",
        "f_cluster",
        "f_route",
        "audit",
    ]);
    for r in rows {
        t.row([
            fmt_sig(r.point.loss_p, 3),
            fmt_sig(r.point.stall_rate, 3),
            r.point.max_staleness.to_string(),
            r.lost.to_string(),
            r.stalls.to_string(),
            r.stale_drops.to_string(),
            r.recoveries.to_string(),
            r.fault_events.to_string(),
            fmt_sig(r.f_cluster, 4),
            fmt_sig(r.f_route, 4),
            if r.audit_clean && r.anchored {
                "clean".to_string()
            } else {
                "VIOLATED".to_string()
            },
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> (Scenario, Protocol) {
        (
            Scenario {
                nodes: 80,
                side: 500.0,
                radius: 100.0,
                ..Scenario::default()
            },
            Protocol {
                warmup: 5.0,
                measure: 20.0,
                seeds: vec![7],
                dt: 0.5,
            },
        )
    }

    #[test]
    fn ideal_point_reports_no_fault_traffic() {
        let (scenario, protocol) = quick();
        let dims = ShardDims::parse("2x2").unwrap();
        let row = measure_chaos(
            &scenario,
            &protocol,
            dims,
            &ChaosPoint::ideal(),
            Some(1),
            &TelemetryConfig::in_memory("rob2_chaos"),
        );
        assert!(row.point.is_ideal());
        assert_eq!(
            (row.lost, row.stalls, row.stale_drops, row.recoveries),
            (0, 0, 0, 0)
        );
        assert_eq!(row.fault_events, 0);
        assert!(row.audit_clean && row.anchored);
    }

    #[test]
    fn chaos_point_emits_anchored_fault_events() {
        let (scenario, protocol) = quick();
        let dims = ShardDims::parse("2x2").unwrap();
        let point = ChaosPoint {
            loss_p: 0.3,
            stall_rate: 0.05,
            ..ChaosPoint::ideal()
        };
        let row = measure_chaos(
            &scenario,
            &protocol,
            dims,
            &point,
            Some(1),
            &TelemetryConfig::in_memory("rob2_chaos"),
        );
        assert!(row.lost > 0, "a 30% lossy interconnect must drop batches");
        assert!(row.fault_events > 0);
        assert!(row.anchored, "interconnect events must self-anchor");
        assert!(row.audit_clean, "degradation must not corrupt invariants");
        assert!(row.recoveries > 0, "lossy links must also recover");
    }

    /// The flight recorder's black box is a pure function of the seed:
    /// two identical chaos runs leave byte-identical dumps, and the dump
    /// re-reads as a replayable trace carrying the chaos event kinds.
    #[test]
    fn flight_dump_is_deterministic_in_the_seed_and_replayable() {
        let (scenario, protocol) = quick();
        let dims = ShardDims::parse("2x2").unwrap();
        let point = ChaosPoint {
            loss_p: 0.3,
            stall_rate: 0.05,
            ..ChaosPoint::ideal()
        };
        let config = TelemetryConfig::in_memory("rob2_chaos").with_flight(512);
        let run_once = || chaos_trace(&scenario, &protocol, dims, &point, Some(1), &config);
        let (a, b) = (run_once(), run_once());
        let fa = a.flight.as_ref().expect("flight armed");
        let fb = b.flight.as_ref().expect("flight armed");
        assert!(fa.events_seen() > 512, "chaos outgrows the ring");
        assert_eq!(fa.len(), 512, "ring wrapped and stayed bounded");
        let dump_a = fa.dump_string(&a.meta, "end-of-run");
        let dump_b = fb.dump_string(&b.meta, "end-of-run");
        assert_eq!(dump_a, dump_b, "same seed must give a byte-identical dump");

        // The dump round-trips through the trace reader and replays.
        let dir = std::env::temp_dir().join("manet_rob2_flight_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("flight.jsonl");
        fa.dump_to(&path, &a.meta, "end-of-run").unwrap();
        let trace = manet_telemetry::read_trace(&path).unwrap();
        assert_eq!(
            trace.meta.as_ref().map(|m| m.label.as_str()),
            Some("rob2_chaos#flight:end-of-run")
        );
        assert_eq!(trace.events.len(), 512);
        let replayed = trace.replay(5.0);
        assert_eq!(replayed.events_seen(), 512);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
