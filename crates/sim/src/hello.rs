//! The HELLO protocol proper: periodic beacons + soft-timer neighbor
//! tables.
//!
//! The [`World`](crate::World) counts HELLO traffic; this module implements
//! the *protocol state* behind it — each node's view of its neighborhood,
//! built purely from received beacons and expired by soft timers. It exists
//! to test the paper's Section 3.5.1 argument empirically: the HELLO rate
//! must at least match the link generation rate, or the protocol view of
//! the topology decays (see the `hello_accuracy` experiment).

use crate::ctx::StepCtx;
use crate::error::SimError;
use crate::fault::Channel;
use crate::topology::Topology;
use crate::NodeId;
#[cfg(test)]
use manet_telemetry::Probe;
use manet_telemetry::{EventKind, Layer, MsgClass, RootCause};

use std::collections::BTreeMap;

/// Soft-state neighbor tables driven by periodic HELLO beacons.
#[derive(Debug, Clone)]
pub struct HelloProtocol {
    interval: f64,
    timeout: f64,
    /// Next beacon time per node (staggered at start to avoid synchrony).
    next_beacon: Vec<f64>,
    /// `last_heard[u][w]` = when `u` last heard `w`.
    last_heard: Vec<BTreeMap<NodeId, f64>>,
    hellos_sent: u64,
}

/// Per-tick accuracy of the protocol's neighbor view against ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ViewAccuracy {
    /// Directed neighbor relations in the ground truth.
    pub true_relations: u64,
    /// Ground-truth relations missing from the view (not yet heard).
    pub missing: u64,
    /// View entries that are no longer true links (stale, not yet timed
    /// out).
    pub stale: u64,
}

impl ViewAccuracy {
    /// Fraction of true relations missing from the view (0 when there are
    /// no relations).
    pub fn missing_fraction(&self) -> f64 {
        if self.true_relations == 0 {
            0.0
        } else {
            self.missing as f64 / self.true_relations as f64
        }
    }

    /// Stale entries per true relation.
    pub fn stale_fraction(&self) -> f64 {
        if self.true_relations == 0 {
            0.0
        } else {
            self.stale as f64 / self.true_relations as f64
        }
    }
}

impl HelloProtocol {
    /// Creates tables for `n` nodes beaconing every `interval` seconds and
    /// expiring entries after `timeout` seconds of silence.
    ///
    /// Beacons are staggered deterministically (node `u` first beacons at
    /// `u/n · interval`).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < interval ≤ timeout` (finite).
    pub fn new(n: usize, interval: f64, timeout: f64) -> Self {
        HelloProtocol::try_new(n, interval, timeout).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`HelloProtocol::new`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::HelloTiming`] unless `0 < interval ≤ timeout`
    /// (finite).
    pub fn try_new(n: usize, interval: f64, timeout: f64) -> Result<Self, SimError> {
        if !(interval > 0.0 && interval.is_finite() && timeout >= interval && timeout.is_finite()) {
            return Err(SimError::HelloTiming { interval, timeout });
        }
        let next_beacon = (0..n)
            .map(|u| interval * u as f64 / n.max(1) as f64)
            .collect();
        Ok(HelloProtocol {
            interval,
            timeout,
            next_beacon,
            last_heard: vec![BTreeMap::new(); n],
            hellos_sent: 0,
        })
    }

    /// Beacon interval.
    pub fn interval(&self) -> f64 {
        self.interval
    }

    /// Soft-timer timeout.
    pub fn timeout(&self) -> f64 {
        self.timeout
    }

    /// Total HELLO messages sent so far.
    pub fn hellos_sent(&self) -> u64 {
        self.hellos_sent
    }

    /// Advances the protocol to `ctx.now`: every live node whose beacon is
    /// due broadcasts, each (beacon, receiver) delivery is drawn from
    /// `channel`, and soft timers expire silent entries. Returns
    /// `(sent, lost)` — beacons *attempted* (overhead is paid at the
    /// sender) and deliveries dropped.
    ///
    /// Crashed nodes neither beacon nor keep soft state; their timers
    /// advance silently so recovery does not replay missed beacons.
    /// `topology` should already exclude crashed nodes' links (see
    /// `Topology::retain_alive`). With an ideal channel and an all-alive
    /// mask this is the ideal HELLO layer — no draws, no losses. Telemetry
    /// (batched `MsgSent` / `MsgLost` events) flows through `ctx.probe`;
    /// [`Probe::off`](manet_telemetry::Probe::off) makes the step quiet
    /// with identical state and draws.
    ///
    /// # Panics
    ///
    /// Panics if `alive.len()` differs from the node count.
    pub fn step(
        &mut self,
        topology: &Topology,
        channel: &mut Channel,
        alive: &[bool],
        ctx: &mut StepCtx<'_, '_>,
    ) -> (u64, u64) {
        let now = ctx.now;
        let probe = &mut *ctx.probe;
        assert_eq!(
            self.next_beacon.len(),
            alive.len(),
            "alive mask size mismatch"
        );
        let mut sent = 0u64;
        let mut lost = 0u64;
        for (u, &up) in alive.iter().enumerate() {
            if !up {
                // Advance the timer silently so recovery does not replay the
                // beacons missed while down, and drop the dead node's soft
                // state (it recovers with empty tables).
                while self.next_beacon[u] <= now {
                    self.next_beacon[u] += self.interval;
                }
                self.last_heard[u].clear();
                continue;
            }
            while self.next_beacon[u] <= now {
                self.next_beacon[u] += self.interval;
                sent += 1;
                for &w in topology.neighbors(u as NodeId) {
                    if channel.deliver() {
                        self.last_heard[w as usize].insert(u as NodeId, now);
                    } else {
                        lost += 1;
                    }
                }
            }
        }
        let timeout = self.timeout;
        for table in &mut self.last_heard {
            table.retain(|_, &mut t| now - t <= timeout);
        }
        self.hellos_sent += sent;
        if sent > 0 {
            probe.emit(
                now,
                Layer::Hello,
                EventKind::MsgSent {
                    class: MsgClass::Hello,
                    count: sent,
                },
            );
        }
        if lost > 0 {
            let cause = probe.root(RootCause::ChannelLoss);
            probe.emit_caused(
                now,
                Layer::Hello,
                EventKind::MsgLost {
                    class: MsgClass::Hello,
                    count: lost,
                },
                cause,
            );
        }
        (sent, lost)
    }

    /// Node `u`'s current view of its neighborhood.
    pub fn view(&self, u: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.last_heard[u as usize].keys().copied()
    }

    /// Compares every node's view against the ground-truth topology.
    pub fn accuracy(&self, topology: &Topology) -> ViewAccuracy {
        let mut acc = ViewAccuracy::default();
        for u in 0..self.last_heard.len() {
            let truth = topology.neighbors(u as NodeId);
            acc.true_relations += truth.len() as u64;
            for &w in truth {
                if !self.last_heard[u].contains_key(&w) {
                    acc.missing += 1;
                }
            }
            for &w in self.last_heard[u].keys() {
                if !topology.are_linked(u as NodeId, w) {
                    acc.stale += 1;
                }
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{Channel, LossModel};
    use manet_geom::{Metric, SquareRegion, Vec2};

    /// One quiet ideal-channel step at time `now` (the pre-ctx `step`).
    fn tick(h: &mut HelloProtocol, now: f64, topo: &Topology) -> u64 {
        let mut ideal = Channel::new(LossModel::Ideal, 0);
        let alive = vec![true; topo.len()];
        lossy_tick(h, now, topo, &mut ideal, &alive).0
    }

    /// One quiet step at time `now` over an explicit channel and mask.
    fn lossy_tick(
        h: &mut HelloProtocol,
        now: f64,
        topo: &Topology,
        channel: &mut Channel,
        alive: &[bool],
    ) -> (u64, u64) {
        let mut probe = Probe::off();
        h.step(topo, channel, alive, &mut StepCtx::new(&mut probe).at(now))
    }

    fn static_topo() -> Topology {
        let pts = [
            Vec2::new(0.0, 0.0),
            Vec2::new(1.0, 0.0),
            Vec2::new(2.0, 0.0),
        ];
        Topology::compute(&pts, SquareRegion::new(10.0), 1.1, Metric::Euclidean)
    }

    #[test]
    fn views_fill_after_one_interval() {
        let topo = static_topo();
        let mut h = HelloProtocol::new(3, 1.0, 3.0);
        tick(&mut h, 1.0, &topo);
        let acc = h.accuracy(&topo);
        assert_eq!(acc.missing, 0, "every node beaconed at least once by t=1");
        assert_eq!(acc.stale, 0);
        assert_eq!(acc.true_relations, 4); // path 0-1-2: 2 links × 2 directions
        assert!(h.hellos_sent() >= 3);
    }

    #[test]
    fn stale_entries_persist_until_timeout() {
        let topo = static_topo();
        let mut h = HelloProtocol::new(3, 1.0, 2.5);
        tick(&mut h, 1.0, &topo);
        // Node 2 moves away: links (1,2) vanish.
        let pts = [
            Vec2::new(0.0, 0.0),
            Vec2::new(1.0, 0.0),
            Vec2::new(9.0, 0.0),
        ];
        let far = Topology::compute(&pts, SquareRegion::new(10.0), 1.1, Metric::Euclidean);
        // Shortly after, 1 still believes in 2 (soft state).
        tick(&mut h, 1.5, &far);
        let acc = h.accuracy(&far);
        assert!(acc.stale > 0, "view should lag ground truth");
        // After the timeout the entry expires.
        tick(&mut h, 4.1, &far);
        let acc = h.accuracy(&far);
        assert_eq!(acc.stale, 0, "soft timer must clear stale entries");
    }

    #[test]
    fn beacons_fire_once_per_interval_per_node() {
        let topo = static_topo();
        let mut h = HelloProtocol::new(3, 2.0, 4.0);
        let mut total = 0;
        for k in 1..=8 {
            total += tick(&mut h, k as f64, &topo);
        }
        // 8 s / 2 s = 4 beacons per node (plus the staggered t≈0 ones).
        assert!((12..=15).contains(&total), "total {total}");
        assert_eq!(h.interval(), 2.0);
        assert_eq!(h.timeout(), 4.0);
    }

    #[test]
    fn accuracy_fractions() {
        let a = ViewAccuracy {
            true_relations: 10,
            missing: 2,
            stale: 5,
        };
        assert!((a.missing_fraction() - 0.2).abs() < 1e-12);
        assert!((a.stale_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(ViewAccuracy::default().missing_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "interval")]
    fn bad_timing_panics() {
        HelloProtocol::new(2, 2.0, 1.0);
    }

    #[test]
    fn try_new_returns_typed_timing_error() {
        let err = HelloProtocol::try_new(2, 2.0, 1.0).unwrap_err();
        assert!(err.to_string().contains("interval"));
        assert!(HelloProtocol::try_new(2, 0.0, 1.0).is_err());
        assert!(HelloProtocol::try_new(2, 1.0, 2.0).is_ok());
    }

    #[test]
    fn lossy_step_on_ideal_channel_matches_ideal_helper() {
        let topo = static_topo();
        let mut a = HelloProtocol::new(3, 1.0, 3.0);
        let mut b = a.clone();
        let mut ideal = Channel::new(LossModel::Ideal, 0);
        let alive = [true; 3];
        for k in 1..=6 {
            let now = k as f64 * 0.5;
            assert_eq!(
                tick(&mut a, now, &topo),
                lossy_tick(&mut b, now, &topo, &mut ideal, &alive).0
            );
        }
        assert_eq!(a.accuracy(&topo), b.accuracy(&topo));
        assert_eq!(a.hellos_sent(), b.hellos_sent());
    }

    #[test]
    fn lost_beacons_decay_the_view() {
        let topo = static_topo();
        let mut h = HelloProtocol::new(3, 1.0, 1.5);
        // Everything is lost: views never fill, yet beacons are still
        // counted as attempted sends.
        let mut dead_air = Channel::new(LossModel::Bernoulli { p: 1.0 }, 4);
        let alive = [true; 3];
        let (sent, _) = lossy_tick(&mut h, 1.0, &topo, &mut dead_air, &alive);
        assert!(sent >= 3);
        assert_eq!(h.hellos_sent(), sent);
        let acc = h.accuracy(&topo);
        assert_eq!(acc.missing, acc.true_relations, "no beacon got through");
    }

    #[test]
    fn traced_lossy_step_counts_and_emits_losses() {
        use manet_telemetry::Event;

        let topo = static_topo();
        let mut h = HelloProtocol::new(3, 1.0, 1.5);
        let mut dead_air = Channel::new(LossModel::Bernoulli { p: 1.0 }, 4);
        let mut sink = Vec::<Event>::new();
        let (sent, lost) = {
            let mut probe = Probe::subscriber(&mut sink);
            h.step(
                &topo,
                &mut dead_air,
                &[true; 3],
                &mut StepCtx::new(&mut probe).at(1.0),
            )
        };
        assert!(sent >= 3);
        // Path 0-1-2: each beacon reaches every ground-truth neighbor and
        // every delivery drops, so losses equal the directed relations
        // covered by this step's beacons.
        assert!(lost >= sent, "each beacon had at least one neighbor");
        let sent_events: u64 = sink
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::MsgSent { count, .. } => Some(count),
                _ => None,
            })
            .sum();
        let lost_events: u64 = sink
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::MsgLost { count, .. } => Some(count),
                _ => None,
            })
            .sum();
        assert_eq!(sent_events, sent);
        assert_eq!(lost_events, lost);
        assert!(sink.iter().all(|e| e.layer == Layer::Hello));
    }

    #[test]
    fn crashed_nodes_lose_state_and_stay_silent() {
        let full = static_topo();
        let mut h = HelloProtocol::new(3, 1.0, 10.0);
        let mut ideal = Channel::new(LossModel::Ideal, 0);
        lossy_tick(&mut h, 1.0, &full, &mut ideal, &[true; 3]);
        assert!(h.view(1).count() > 0);
        // Node 1 crashes: its links vanish from the masked ground truth.
        let mut masked = full.clone();
        masked.retain_alive(&[true, false, true]);
        let before = h.hellos_sent();
        let (sent, _) = lossy_tick(&mut h, 2.0, &masked, &mut ideal, &[true, false, true]);
        // Two survivors beaconed; the crashed node did not.
        assert_eq!(sent, 2);
        assert_eq!(h.hellos_sent(), before + 2);
        assert_eq!(h.view(1).count(), 0, "crashed node drops its tables");
        // Long outage: timers advance silently, no replay burst on recovery.
        lossy_tick(&mut h, 9.0, &masked, &mut ideal, &[true, false, true]);
        let (recovered_sent, _) = lossy_tick(&mut h, 10.0, &full, &mut ideal, &[true; 3]);
        assert_eq!(
            recovered_sent, 3,
            "exactly one beacon per node after recovery"
        );
    }
}
