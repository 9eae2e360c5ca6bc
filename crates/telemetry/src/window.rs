//! Windowed time-series recording.
//!
//! The [`WindowedRecorder`] is a [`Subscriber`] that folds the event stream
//! into fixed-width *tumbling* windows over simulation time: event at time
//! `t` lands in window `floor(t / width)`, windows never overlap, and every
//! event lands in exactly one window — so per-class message totals summed
//! over all windows reconcile exactly with a run's final `Counters`.

use crate::event::{Event, EventKind, MsgClass, Subscriber};

/// Aggregates for one tumbling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WindowStats {
    /// Window index (`floor(time / width)`).
    pub index: u64,
    /// Messages sent per [`MsgClass`] (indexed by `MsgClass::index`).
    pub msgs: [u64; 8],
    /// Deliveries lost per [`MsgClass`].
    pub lost: [u64; 8],
    /// Links that formed.
    pub links_up: u64,
    /// Links that broke.
    pub links_down: u64,
    /// Node crashes.
    pub crashes: u64,
    /// Node recoveries.
    pub recoveries: u64,
    /// Head self-promotions.
    pub head_elections: u64,
    /// Head resignations (head–head contact).
    pub head_resignations: u64,
    /// Member cluster switches.
    pub reaffiliations: u64,
    /// Members orphaned by a lost head (break, resignation, or crash).
    pub head_losses: u64,
    /// ROUTE broadcast rounds started.
    pub route_rounds: u64,
    /// Retransmissions scheduled into backoff.
    pub retx_scheduled: u64,
    /// Sum of cluster-head gauge samples (divide by `gauge_samples`).
    pub heads_sum: u64,
    /// Number of cluster-head gauge samples.
    pub gauge_samples: u64,
    /// Shard-interconnect batch entries lost (ghost rows + migrations).
    pub interconnect_lost: u64,
    /// Shard interconnect-stall onsets.
    pub shard_stalls: u64,
    /// Ghost entries dropped past the staleness bound.
    pub ghost_stale_drops: u64,
    /// Shard-link recoveries (resyncs after missed syncs).
    pub interconnect_recoveries: u64,
}

impl WindowStats {
    /// Messages sent for `class` in this window.
    pub fn msgs_of(&self, class: MsgClass) -> u64 {
        self.msgs[class.index()]
    }

    /// Mean cluster-head count over this window's gauge samples.
    pub fn mean_heads(&self) -> Option<f64> {
        if self.gauge_samples == 0 {
            None
        } else {
            Some(self.heads_sum as f64 / self.gauge_samples as f64)
        }
    }

    /// Link churn (formations + breaks) in this window.
    pub fn link_churn(&self) -> u64 {
        self.links_up + self.links_down
    }

    fn absorb(&mut self, kind: &EventKind) {
        match *kind {
            EventKind::LinkUp { .. } => self.links_up += 1,
            EventKind::LinkDown { .. } => self.links_down += 1,
            EventKind::NodeCrashed { .. } => self.crashes += 1,
            EventKind::NodeRecovered { .. } => self.recoveries += 1,
            EventKind::MsgSent { class, count } => self.msgs[class.index()] += count,
            EventKind::MsgLost { class, count } => self.lost[class.index()] += count,
            EventKind::HeadElected { .. } => self.head_elections += 1,
            EventKind::HeadResigned { .. } => self.head_resignations += 1,
            EventKind::MemberReaffiliated { .. } => self.reaffiliations += 1,
            EventKind::HeadLost { .. } => self.head_losses += 1,
            EventKind::RouteRoundStarted { rounds, .. } => self.route_rounds += rounds,
            EventKind::RetxScheduled { .. } => self.retx_scheduled += 1,
            EventKind::ClusterGauge { heads } => {
                self.heads_sum += heads;
                self.gauge_samples += 1;
            }
            EventKind::InterconnectLost { count, .. } => self.interconnect_lost += count,
            EventKind::InterconnectStalled { .. } => self.shard_stalls += 1,
            EventKind::GhostStale { dropped, .. } => self.ghost_stale_drops += dropped,
            EventKind::InterconnectRecovered { .. } => self.interconnect_recoveries += 1,
        }
    }
}

/// Folds an event stream into fixed-width tumbling windows over sim time.
#[derive(Debug, Clone)]
pub struct WindowedRecorder {
    width: f64,
    windows: Vec<WindowStats>,
    events_seen: u64,
}

impl WindowedRecorder {
    /// A recorder with the given window width (seconds of sim time).
    ///
    /// # Panics
    ///
    /// Panics unless `width` is finite and positive.
    pub fn new(width: f64) -> WindowedRecorder {
        assert!(
            width.is_finite() && width > 0.0,
            "window width must be finite and positive, got {width}"
        );
        WindowedRecorder {
            width,
            windows: Vec::new(),
            events_seen: 0,
        }
    }

    /// Window width in sim seconds.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Total events absorbed.
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// All windows, dense from index 0 through the latest event's window.
    pub fn windows(&self) -> &[WindowStats] {
        &self.windows
    }

    /// Mutable window for the given index, growing the dense vec as needed.
    fn window_mut(&mut self, index: u64) -> &mut WindowStats {
        let idx = index as usize;
        while self.windows.len() <= idx {
            let next = self.windows.len() as u64;
            self.windows.push(WindowStats {
                index: next,
                ..WindowStats::default()
            });
        }
        &mut self.windows[idx]
    }

    /// Absorbs one event (also the [`Subscriber`] impl's body).
    pub fn absorb(&mut self, event: &Event) {
        debug_assert!(
            event.time.is_finite() && event.time >= 0.0,
            "event time must be finite and non-negative, got {}",
            event.time
        );
        let index = (event.time / self.width).floor() as u64;
        self.events_seen += 1;
        self.window_mut(index).absorb(&event.kind);
    }

    /// Total messages sent for `class` across all windows.
    pub fn total_msgs(&self, class: MsgClass) -> u64 {
        self.windows.iter().map(|w| w.msgs_of(class)).sum()
    }

    /// Total lost deliveries for `class` across all windows.
    pub fn total_lost(&self, class: MsgClass) -> u64 {
        self.windows.iter().map(|w| w.lost[class.index()]).sum()
    }

    /// Per-window message rate series for `class` (messages per sim second).
    pub fn rate_series(&self, class: MsgClass) -> Vec<f64> {
        self.windows
            .iter()
            .map(|w| w.msgs_of(class) as f64 / self.width)
            .collect()
    }

    /// Per-window mean cluster-head count (windows without gauge samples
    /// carry `None`).
    pub fn cluster_count_series(&self) -> Vec<Option<f64>> {
        self.windows.iter().map(|w| w.mean_heads()).collect()
    }

    /// Per-window head-change series (elections + resignations).
    pub fn head_change_series(&self) -> Vec<u64> {
        self.windows
            .iter()
            .map(|w| w.head_elections + w.head_resignations)
            .collect()
    }

    /// Steady-state rate estimate for `class`: the mean per-window rate over
    /// the last half of the windows (`None` with fewer than two windows).
    pub fn steady_state_rate(&self, class: MsgClass) -> Option<f64> {
        let rates = self.rate_series(class);
        if rates.len() < 2 {
            return None;
        }
        let tail = &rates[rates.len() / 2..];
        Some(tail.iter().sum::<f64>() / tail.len() as f64)
    }

    /// Warmup detection: index of the first window whose `class` rate is
    /// within `tolerance` (relative) of the steady-state rate. With a zero
    /// steady state the first window at exactly zero qualifies. `None` with
    /// fewer than two windows or when no window qualifies.
    pub fn warmup_index(&self, class: MsgClass, tolerance: f64) -> Option<usize> {
        let steady = self.steady_state_rate(class)?;
        let rates = self.rate_series(class);
        if steady == 0.0 {
            return rates.iter().position(|&r| r == 0.0);
        }
        rates
            .iter()
            .position(|&r| (r - steady).abs() <= tolerance * steady)
    }

    /// Sim time at which warmup ends: the *start* of the first steady
    /// window for `class` (see [`WindowedRecorder::warmup_index`]).
    pub fn warmup_time(&self, class: MsgClass, tolerance: f64) -> Option<f64> {
        self.warmup_index(class, tolerance)
            .map(|i| i as f64 * self.width)
    }
}

impl Subscriber for WindowedRecorder {
    fn event(&mut self, event: &Event) {
        self.absorb(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Layer;

    fn ev(time: f64, kind: EventKind) -> Event {
        Event {
            time,
            layer: Layer::Sim,
            kind,
            cause: None,
        }
    }

    #[test]
    fn events_land_in_tumbling_windows() {
        let mut rec = WindowedRecorder::new(5.0);
        rec.absorb(&ev(
            0.0,
            EventKind::MsgSent {
                class: MsgClass::Hello,
                count: 4,
            },
        ));
        // 4.999… is still window 0; 5.0 opens window 1.
        rec.absorb(&ev(
            4.999,
            EventKind::MsgSent {
                class: MsgClass::Hello,
                count: 1,
            },
        ));
        rec.absorb(&ev(
            5.0,
            EventKind::MsgSent {
                class: MsgClass::Hello,
                count: 2,
            },
        ));
        rec.absorb(&ev(12.5, EventKind::LinkUp { a: 1, b: 2 }));
        assert_eq!(rec.windows().len(), 3);
        assert_eq!(rec.windows()[0].msgs_of(MsgClass::Hello), 5);
        assert_eq!(rec.windows()[1].msgs_of(MsgClass::Hello), 2);
        assert_eq!(rec.windows()[2].links_up, 1);
        assert_eq!(rec.total_msgs(MsgClass::Hello), 7);
        assert_eq!(rec.events_seen(), 4);
        // Dense indices even when a window saw no events.
        assert_eq!(rec.windows()[2].index, 2);
        assert_eq!(rec.rate_series(MsgClass::Hello), vec![1.0, 0.4, 0.0]);
    }

    #[test]
    fn gauge_and_change_series() {
        let mut rec = WindowedRecorder::new(2.0);
        rec.absorb(&ev(0.5, EventKind::ClusterGauge { heads: 10 }));
        rec.absorb(&ev(1.5, EventKind::ClusterGauge { heads: 12 }));
        rec.absorb(&ev(2.5, EventKind::HeadElected { node: 3 }));
        rec.absorb(&ev(
            3.0,
            EventKind::HeadResigned {
                node: 4,
                new_head: 3,
            },
        ));
        rec.absorb(&ev(
            3.5,
            EventKind::MemberReaffiliated { member: 9, head: 3 },
        ));
        rec.absorb(&ev(3.5, EventKind::HeadLost { member: 9, head: 4 }));
        assert_eq!(rec.cluster_count_series(), vec![Some(11.0), None]);
        assert_eq!(rec.head_change_series(), vec![0, 2]);
        assert_eq!(rec.windows()[1].reaffiliations, 1);
        assert_eq!(rec.windows()[1].head_losses, 1);
    }

    #[test]
    fn warmup_detection_finds_first_steady_window() {
        let mut rec = WindowedRecorder::new(1.0);
        // Rates per window: 40, 20, 11, 10, 10, 10 — steady (last half
        // mean) = 10, so windows within 10% start at index 2 (11 ≤ 11.0).
        for (i, count) in [40u64, 20, 11, 10, 10, 10].into_iter().enumerate() {
            rec.absorb(&ev(
                i as f64 + 0.5,
                EventKind::MsgSent {
                    class: MsgClass::Cluster,
                    count,
                },
            ));
        }
        assert_eq!(rec.steady_state_rate(MsgClass::Cluster), Some(10.0));
        assert_eq!(rec.warmup_index(MsgClass::Cluster, 0.10), Some(2));
        assert_eq!(rec.warmup_time(MsgClass::Cluster, 0.10), Some(2.0));
        // A class that never fires: steady state 0, first window qualifies.
        assert_eq!(rec.warmup_index(MsgClass::Repair, 0.10), Some(0));
    }

    #[test]
    fn lost_and_retx_accounting() {
        let mut rec = WindowedRecorder::new(10.0);
        rec.absorb(&ev(
            1.0,
            EventKind::MsgLost {
                class: MsgClass::Hello,
                count: 3,
            },
        ));
        rec.absorb(&ev(
            2.0,
            EventKind::RetxScheduled {
                node: 5,
                wait_ticks: 4,
            },
        ));
        rec.absorb(&ev(3.0, EventKind::NodeCrashed { node: 5 }));
        rec.absorb(&ev(4.0, EventKind::NodeRecovered { node: 5 }));
        rec.absorb(&ev(
            5.0,
            EventKind::RouteRoundStarted {
                head: 1,
                size: 6,
                rounds: 2,
            },
        ));
        rec.absorb(&ev(
            6.0,
            EventKind::InterconnectLost {
                src: 0,
                dst: 1,
                count: 4,
            },
        ));
        rec.absorb(&ev(
            6.5,
            EventKind::InterconnectStalled { shard: 1, ticks: 2 },
        ));
        rec.absorb(&ev(
            7.0,
            EventKind::GhostStale {
                src: 1,
                dst: 0,
                staleness: 5,
                dropped: 6,
            },
        ));
        rec.absorb(&ev(
            7.5,
            EventKind::InterconnectRecovered {
                src: 0,
                dst: 1,
                resync: 9,
            },
        ));
        let w = rec.windows()[0];
        assert_eq!(w.lost[MsgClass::Hello.index()], 3);
        assert_eq!(w.interconnect_lost, 4);
        assert_eq!(w.shard_stalls, 1);
        assert_eq!(w.ghost_stale_drops, 6);
        assert_eq!(w.interconnect_recoveries, 1);
        assert_eq!(rec.total_lost(MsgClass::Hello), 3);
        assert_eq!(w.retx_scheduled, 1);
        assert_eq!(w.crashes, 1);
        assert_eq!(w.recoveries, 1);
        assert_eq!(w.route_rounds, 2);
    }

    #[test]
    #[should_panic(expected = "window width")]
    fn zero_width_rejected() {
        WindowedRecorder::new(0.0);
    }
}
