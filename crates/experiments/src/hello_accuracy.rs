//! EXT4 — the HELLO-rate/view-accuracy trade (paper Section 3.5.1).
//!
//! The paper argues the HELLO frequency must be at least the per-node link
//! generation rate — its lower bound for `f_hello`. This experiment runs
//! the real soft-timer protocol at several beacon intervals and measures
//! how the protocol's neighbor view degrades as the beacon rate drops
//! below the link dynamics, quantifying what the bound actually buys.

use crate::harness::{build_world, on_plane, Scenario};
use manet_sim::hello::HelloProtocol;
use manet_sim::{Channel, LossModel, QuietCtx};
use manet_stack::{HelloDriver, NoClustering, NoRouting, ProtocolStack};
use manet_util::stats::Summary;
use manet_util::table::{fmt_sig, Table};

/// One row: beacon interval vs view accuracy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HelloRow {
    /// Beacon interval, seconds.
    pub interval: f64,
    /// HELLO rate per node (1/interval).
    pub hello_rate: f64,
    /// Paper's lower bound: the per-node link generation rate.
    pub link_gen_rate: f64,
    /// Mean fraction of true neighbor relations missing from views.
    pub missing_fraction: f64,
    /// Mean stale entries per true relation.
    pub stale_fraction: f64,
}

/// Sweeps the beacon interval on the default scenario.
pub fn sweep(scenario: &Scenario, measure: f64) -> Vec<HelloRow> {
    [0.5, 1.0, 2.0, 5.0, 10.0, 20.0]
        .into_iter()
        .map(|interval| {
            let world = build_world(scenario, 0.25, 0x4E11);
            // Timeout at the conventional 3 beacon periods; the explicit
            // driver beacons over an ideal channel (accuracy only, no loss).
            let hello = HelloProtocol::new(world.node_count(), interval, 3.0 * interval);
            let ideal = || Channel::new(LossModel::Ideal, 0);
            let stack = ProtocolStack::new(
                world,
                NoClustering,
                NoRouting,
                HelloDriver::explicit(hello, ideal()),
                ideal(),
                ideal(),
            );
            let mut stack = on_plane(stack, None);
            let mut quiet = QuietCtx::new();
            stack.run_world_for(30.0, &mut quiet.ctx());
            stack.world_mut().begin_measurement();
            let mut missing = Summary::new();
            let mut stale = Summary::new();
            let ticks = (measure / stack.world().dt()) as usize;
            for _ in 0..ticks {
                stack.tick(&mut quiet.ctx());
                let hello = stack.hello().expect("explicit driver attached");
                let acc = hello.accuracy(stack.world().topology());
                missing.push(acc.missing_fraction());
                stale.push(acc.stale_fraction());
            }
            let world = stack.world();
            let n = world.node_count();
            let t = world.measured_time();
            HelloRow {
                interval,
                hello_rate: 1.0 / interval,
                link_gen_rate: world.counters().per_node_link_generation_rate(n, t),
                missing_fraction: missing.mean(),
                stale_fraction: stale.mean(),
            }
        })
        .collect()
}

/// Renders the accuracy table.
pub fn table(rows: &[HelloRow]) -> Table {
    let mut t = Table::new([
        "interval [s]",
        "hello rate",
        "link gen rate (bound)",
        "missing frac",
        "stale frac",
    ]);
    for r in rows {
        t.row([
            fmt_sig(r.interval, 3),
            fmt_sig(r.hello_rate, 3),
            fmt_sig(r.link_gen_rate, 3),
            fmt_sig(r.missing_fraction, 3),
            fmt_sig(r.stale_fraction, 3),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_degrades_as_beacons_slow() {
        let scenario = Scenario {
            nodes: 120,
            side: 600.0,
            radius: 100.0,
            ..Scenario::default()
        };
        let rows = sweep(&scenario, 60.0);
        assert_eq!(rows.len(), 6);
        // Monotone-ish degradation: the slowest beacon misses far more
        // than the fastest.
        let fast = rows.first().unwrap();
        let slow = rows.last().unwrap();
        assert!(
            slow.missing_fraction > 2.0 * fast.missing_fraction + 0.001,
            "fast {fast:?} vs slow {slow:?}"
        );
        assert!(slow.stale_fraction > fast.stale_fraction);
        // Fast beaconing keeps views nearly perfect.
        assert!(fast.missing_fraction < 0.05, "{fast:?}");
    }
}
