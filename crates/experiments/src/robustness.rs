//! ROB1 — control overhead under a lossy channel with node churn.
//!
//! The paper's frequencies (Eqns 4–13) are **lower bounds**: they assume
//! every control message is delivered and every node stays up. This
//! experiment injects a fault plane — per-message loss (Bernoulli or
//! Gilbert–Elliott burst) and crash/recover node churn — and runs the
//! self-healing stack (lossy HELLO beacons, retry-with-backoff cluster
//! maintenance, fallback re-sync routing). It reports the *measured*
//! overhead, decomposed into ordinary traffic vs retransmissions vs repair
//! traffic, against the analytical ideal at the measured head ratio. At
//! `p = 0` with no churn the fault machinery is pass-through and the
//! measured total collapses onto the ideal stack's numbers.

use crate::harness::{
    analysis_at, on_plane, run_measured, sim_builder, CancelToken, Estimate, Protocol, Scenario,
    ShardRun,
};
use crate::trace::UNTRACED;
use manet_cluster::{Backoff, Clustering, LowestId, SelfHealing};
use manet_routing::intra::IntraClusterRouting;
use manet_sim::{
    ChurnSchedule, FaultPlan, HelloProtocol, LossModel, MessageKind, QuietCtx, STREAM_CLUSTER,
};
use manet_stack::ProtocolStack;
use manet_util::stats::Summary;
use manet_util::table::{fmt_sig, Table};

/// Fault-plane configuration for one measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Per-message channel loss model (shared by all three layers, drawn
    /// from independent per-layer streams).
    pub loss: LossModel,
    /// Per-node crash rate, crashes/s (`0` disables churn).
    pub crash_rate: f64,
    /// Mean downtime per crash, seconds.
    pub mean_downtime: f64,
    /// Periodic HELLO beacon interval, seconds (soft timeout is 3×).
    pub hello_interval: f64,
    /// CLUSTER retry backoff.
    pub backoff: Backoff,
    /// Repair sweep period, ticks.
    pub sweep_interval: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            loss: LossModel::Ideal,
            crash_rate: 0.0,
            mean_downtime: 20.0,
            hello_interval: 1.0,
            backoff: Backoff::default(),
            sweep_interval: 8,
        }
    }
}

/// Measured per-node control rates under faults (msgs/node/s unless noted).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultMeasured {
    /// Attempted HELLO beacons.
    pub f_hello: Estimate,
    /// First-attempt CLUSTER sends from ordinary mobility churn.
    pub f_cluster: Estimate,
    /// CLUSTER retransmissions (retries of lost sends).
    pub f_retransmit: Estimate,
    /// CLUSTER repair traffic (crashed-head fallout, post-recovery fixes).
    pub f_repair: Estimate,
    /// Regular ROUTE update messages.
    pub f_route: Estimate,
    /// ROUTE fallback re-sync messages.
    pub f_resync: Estimate,
    /// All attempted control messages (sum of the above).
    pub total: Estimate,
    /// Fraction of attempted CLUSTER + ROUTE messages the channel dropped.
    pub lost_fraction: Estimate,
    /// Time-averaged head ratio `P` over the window.
    pub head_ratio: Estimate,
    /// P1/P2 violations among live nodes after the quiescence drain
    /// (self-healing must push this to zero).
    pub violations_end: Estimate,
}

impl FaultMeasured {
    /// The analytical ideal total (HELLO + CLUSTER + ROUTE lower bounds) at
    /// this measurement's head ratio.
    pub fn ideal_bound(&self, scenario: &Scenario) -> f64 {
        let b = analysis_at(scenario, self.head_ratio.mean);
        b.f_hello + b.f_cluster + b.f_route
    }
}

/// Runs the self-healing stack (lossy HELLO + retrying cluster maintenance
/// + re-syncing intra-cluster routing) under `config` and measures rates.
///
/// Runs on the process-wide [`crate::harness::default_shards`] layout.
pub fn measure_with_faults(
    scenario: &Scenario,
    protocol: &Protocol,
    config: &FaultConfig,
) -> FaultMeasured {
    measure_with_faults_ctl(scenario, protocol, config, None, None)
        .expect("a measurement without a cancel token cannot be cancelled")
}

/// The cancellable core of [`measure_with_faults`]: full [`ShardRun`]
/// options (`None` = the default layout) plus an optional [`CancelToken`]
/// polled every [`CANCEL_CHECK_TICKS`](crate::harness::CANCEL_CHECK_TICKS)
/// ticks. Returns `None` when cancellation fired mid-run. The jobs plane
/// and the robustness bin share this loop.
///
/// # Panics
///
/// Panics when the layout's tiles would be narrower than the radio
/// radius; validate dims against the scenario up front for a friendlier
/// error.
pub fn measure_with_faults_ctl(
    scenario: &Scenario,
    protocol: &Protocol,
    config: &FaultConfig,
    run: Option<&ShardRun>,
    cancel: Option<&CancelToken>,
) -> Option<FaultMeasured> {
    let mut f_hello = Summary::new();
    let mut f_cluster = Summary::new();
    let mut f_retransmit = Summary::new();
    let mut f_repair = Summary::new();
    let mut f_route = Summary::new();
    let mut f_resync = Summary::new();
    let mut total = Summary::new();
    let mut lost_fraction = Summary::new();
    let mut head_ratio = Summary::new();
    let mut violations_end = Summary::new();

    for &seed in &protocol.seeds {
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return None;
        }
        let n = scenario.nodes;
        let horizon = protocol.warmup + protocol.measure + 1.0;
        let churn = if config.crash_rate > 0.0 {
            ChurnSchedule::poisson(
                n,
                config.crash_rate,
                config.mean_downtime,
                horizon,
                seed ^ 0xC0_FFEE,
            )
            .expect("churn config validated by construction")
        } else {
            ChurnSchedule::none()
        };
        let plan = FaultPlan {
            loss: config.loss,
            churn,
            seed: seed ^ 0xFA_017,
        }
        .validated()
        .expect("loss config validated by construction");
        let world = sim_builder(scenario, protocol.dt, seed).fault(plan).build();
        let hello = HelloProtocol::new(n, config.hello_interval, 3.0 * config.hello_interval);
        let clustering = Clustering::form(LowestId, world.topology());
        let healer = SelfHealing::new(clustering, config.backoff, config.sweep_interval);
        let stack = ProtocolStack::faulty(world, healer, IntraClusterRouting::new(), hello);
        let mut stack = on_plane(stack, run);
        let mut quiet = QuietCtx::new();
        stack.prime(&mut quiet.ctx());

        // The stack records each tick's decomposed traffic into the shared
        // counters (the RETX/REPAIR categories included) and the rates are
        // read back from there, so the accounting path the paper's tooling
        // uses is exercised end to end.
        let mut p_samples = Summary::new();
        let agg = run_measured(
            &mut stack,
            protocol.warmup,
            protocol.measure,
            cancel,
            UNTRACED,
            |_, report, _| p_samples.push(report.head_ratio),
        )?;
        let elapsed = stack.world().measured_time();
        let counters = stack.world().counters().clone();
        let rate = |kind| counters.per_node_rate(kind, n, elapsed);

        // Quiescence drain: freeze the world, heal the channel, and give the
        // repair machinery one sweep's worth of passes to converge.
        let mut fine = FaultPlan::ideal().channel(STREAM_CLUSTER);
        let mut left = agg.cluster.violations_left;
        let (world, healer, _) = stack.split_mut();
        for _ in 0..config.sweep_interval + 2 {
            left = healer // stage-exempt: post-run repair drain, not a tick
                .step(world.topology(), world.alive(), &mut fine, &mut quiet.ctx())
                .violations_left;
        }

        let route = agg.route;
        let per_node = |count: u64| count as f64 / n as f64 / elapsed;
        f_hello.push(rate(MessageKind::Hello));
        f_cluster.push(rate(MessageKind::Cluster));
        f_retransmit.push(rate(MessageKind::Retransmit));
        f_repair.push(rate(MessageKind::Repair));
        f_route.push(per_node(route.route_messages));
        f_resync.push(per_node(route.resync_messages));
        total.push(per_node(agg.attempted_messages()));
        let attempted = agg.cluster.maintenance.attempted_messages() + route.attempted_messages();
        let lost = agg.cluster.maintenance.lost_sends + route.lost_messages;
        lost_fraction.push(if attempted == 0 {
            0.0
        } else {
            lost as f64 / attempted as f64
        });
        head_ratio.push(p_samples.mean());
        violations_end.push(left as f64);
    }

    Some(FaultMeasured {
        f_hello: f_hello.into(),
        f_cluster: f_cluster.into(),
        f_retransmit: f_retransmit.into(),
        f_repair: f_repair.into(),
        f_route: f_route.into(),
        f_resync: f_resync.into(),
        total: total.into(),
        lost_fraction: lost_fraction.into(),
        head_ratio: head_ratio.into(),
        violations_end: violations_end.into(),
    })
}

/// The [`FaultConfig`] of a Bernoulli-loss row at stationary loss `p`
/// (the ideal channel at `p = 0`), as [`row_ctl`] runs it.
pub fn bernoulli_config(p: f64, crash_rate: f64) -> FaultConfig {
    FaultConfig {
        loss: if p == 0.0 {
            LossModel::Ideal
        } else {
            LossModel::Bernoulli { p }
        },
        crash_rate,
        ..FaultConfig::default()
    }
}

/// The [`FaultConfig`] of a Gilbert–Elliott burst row whose *stationary*
/// loss matches `p`: the bad state is mostly-lossy and sticky, and
/// `p_gb` is chosen so `π_b · loss_bad = p`, as [`row_ctl`] runs it
/// under `burst`.
pub fn burst_config(p: f64, crash_rate: f64) -> FaultConfig {
    let loss_bad = 0.8;
    let p_bg = 0.25;
    let p_gb = p * p_bg / (loss_bad - p).max(1e-9);
    FaultConfig {
        loss: LossModel::GilbertElliott {
            p_gb,
            p_bg,
            loss_good: 0.0,
            loss_bad,
        },
        crash_rate,
        ..FaultConfig::default()
    }
}

/// One cancellable robustness row: Bernoulli (or, with `burst`, a
/// stationary-loss-matched Gilbert–Elliott channel) at loss `p`. Returns
/// `None` when cancellation fired mid-measurement.
pub fn row_ctl(
    scenario: &Scenario,
    protocol: &Protocol,
    p: f64,
    crash_rate: f64,
    burst: bool,
    run: Option<&ShardRun>,
    cancel: Option<&CancelToken>,
) -> Option<RobustnessRow> {
    let config = if burst {
        burst_config(p, crash_rate)
    } else {
        bernoulli_config(p, crash_rate)
    };
    let measured = measure_with_faults_ctl(scenario, protocol, &config, run, cancel)?;
    Some(RobustnessRow {
        loss_p: p,
        crash_rate,
        ideal_bound: measured.ideal_bound(scenario),
        measured,
    })
}

/// One sweep row: a loss probability × churn setting and its measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustnessRow {
    /// Stationary per-message loss probability of the row's channel.
    pub loss_p: f64,
    /// Per-node crash rate, crashes/s.
    pub crash_rate: f64,
    /// Measured rates.
    pub measured: FaultMeasured,
    /// Analytical ideal total at the measured head ratio.
    pub ideal_bound: f64,
}

/// Renders the sweep as a paper-style table.
pub fn table(rows: &[RobustnessRow]) -> Table {
    let mut t = Table::new([
        "loss p",
        "crash rate",
        "f_hello",
        "f_cluster",
        "f_retx",
        "f_repair",
        "f_route",
        "f_resync",
        "total",
        "ideal bound",
        "overhead ratio",
        "lost frac",
        "viol end",
    ]);
    for r in rows {
        t.row([
            fmt_sig(r.loss_p, 3),
            fmt_sig(r.crash_rate, 3),
            fmt_sig(r.measured.f_hello.mean, 4),
            fmt_sig(r.measured.f_cluster.mean, 4),
            fmt_sig(r.measured.f_retransmit.mean, 4),
            fmt_sig(r.measured.f_repair.mean, 4),
            fmt_sig(r.measured.f_route.mean, 4),
            fmt_sig(r.measured.f_resync.mean, 4),
            fmt_sig(r.measured.total.mean, 4),
            fmt_sig(r.ideal_bound, 4),
            fmt_sig(r.measured.total.mean / r.ideal_bound, 4),
            fmt_sig(r.measured.lost_fraction.mean, 3),
            fmt_sig(r.measured.violations_end.mean, 3),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_scenario() -> Scenario {
        Scenario {
            nodes: 120,
            side: 600.0,
            radius: 100.0,
            ..Scenario::default()
        }
    }

    #[test]
    fn ideal_config_has_no_fault_traffic() {
        let m = measure_with_faults(
            &quick_scenario(),
            &Protocol::quick(),
            &FaultConfig::default(),
        );
        assert_eq!(m.f_retransmit.mean, 0.0);
        assert_eq!(m.f_repair.mean, 0.0);
        assert_eq!(m.f_resync.mean, 0.0);
        assert_eq!(m.lost_fraction.mean, 0.0);
        assert_eq!(m.violations_end.mean, 0.0);
        // Periodic beaconing at 1 Hz.
        assert!(
            (m.f_hello.mean - 1.0).abs() < 0.05,
            "f_hello {}",
            m.f_hello.mean
        );
    }

    #[test]
    fn measured_total_beats_ideal_bound_and_grows_with_loss() {
        let scenario = quick_scenario();
        let protocol = Protocol::quick();
        let rows: Vec<RobustnessRow> = [0.0, 0.2]
            .iter()
            .map(|&p| row_ctl(&scenario, &protocol, p, 0.0, false, None, None).unwrap())
            .collect();
        for r in &rows {
            assert!(
                r.measured.total.mean >= r.ideal_bound,
                "p={}: measured {} below bound {}",
                r.loss_p,
                r.measured.total.mean,
                r.ideal_bound
            );
            assert_eq!(
                r.measured.violations_end.mean, 0.0,
                "p={} did not heal",
                r.loss_p
            );
        }
        // Loss forces retransmissions and re-syncs on top of the ideal work.
        let (clean, lossy) = (&rows[0], &rows[1]);
        assert!(lossy.measured.f_retransmit.mean > 0.0);
        assert!(lossy.measured.f_resync.mean > 0.0);
        assert!(
            lossy.measured.total.mean > clean.measured.total.mean,
            "lossy {} vs clean {}",
            lossy.measured.total.mean,
            clean.measured.total.mean
        );
    }

    #[test]
    fn churn_produces_repair_traffic_and_still_heals() {
        let scenario = quick_scenario();
        let config = FaultConfig {
            loss: LossModel::Bernoulli { p: 0.1 },
            crash_rate: 0.005,
            mean_downtime: 15.0,
            ..FaultConfig::default()
        };
        let m = measure_with_faults(&scenario, &Protocol::quick(), &config);
        assert!(
            m.f_repair.mean > 0.0,
            "churn must surface as repair traffic"
        );
        assert_eq!(m.violations_end.mean, 0.0, "self-healing must converge");
    }

    #[test]
    fn burst_channel_matches_stationary_loss_target() {
        let r = row_ctl(
            &quick_scenario(),
            &Protocol::quick(),
            0.1,
            0.0,
            true,
            None,
            None,
        )
        .unwrap();
        // The GE channel's long-run drop fraction should be near the target.
        assert!(
            (r.measured.lost_fraction.mean - 0.1).abs() < 0.06,
            "lost fraction {} vs target 0.1",
            r.measured.lost_fraction.mean
        );
        assert_eq!(r.measured.violations_end.mean, 0.0);
    }
}
