//! Self-healing maintenance: retries, backoff, and crash repair.
//!
//! [`SelfHealing`] drives a [`Clustering`] through a faulty world. It
//! implements the engine's [`FaultHooks`] from three pieces of state:
//!
//! * **bounded exponential backoff** per node — a lost CLUSTER send is
//!   retried after `base · 2^(failures−1)` ticks, capped by
//!   [`Backoff::max_exponent`], so a bursty channel is not hammered;
//! * **soft-timer crash detection** — when a cluster-head goes down its
//!   members' links vanish; the wrapper marks those members (and every
//!   node that comes back up with stale state) as *repairing*, so the
//!   messages that re-home or re-promote them are accounted as repair
//!   traffic rather than ordinary mobility-induced maintenance;
//! * a **periodic repair sweep** — every `sweep_interval` ticks all
//!   backoff gates open at once, bounding how long any violation can
//!   linger. Once faults stop (ideal channel, no churn), every violation
//!   is repaired within one sweep interval plus one pass.
//!
//! Under an ideal channel with no churn the wrapper never defers, never
//! retries, and classifies nothing as repair — its counts collapse to the
//! plain [`Clustering::maintain`] numbers.

use crate::engine::{Attempt, ClusterFlow, Clustering, FaultHooks};
use crate::policy::ClusterPolicy;
use crate::Role;
use manet_sim::{Channel, NodeId, StepCtx, Topology};
use manet_telemetry::{EventKind, Layer, RootCause};

/// Bounded exponential backoff for lost CLUSTER sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    /// Ticks to wait after the first loss.
    pub base_ticks: u32,
    /// Exponent cap: the wait never exceeds `base_ticks << max_exponent`.
    pub max_exponent: u32,
}

impl Default for Backoff {
    /// Waits 1, 2, 4, 8, 16, 16, … ticks after consecutive losses.
    fn default() -> Self {
        Backoff {
            base_ticks: 1,
            max_exponent: 4,
        }
    }
}

impl Backoff {
    /// Ticks to wait after the `failures`-th consecutive loss (1-based).
    pub fn delay_after(&self, failures: u32) -> u64 {
        (self.base_ticks.max(1) as u64) << failures.saturating_sub(1).min(self.max_exponent)
    }
}

/// Per-node retry state.
#[derive(Debug, Clone, Copy, Default)]
struct SendState {
    /// Consecutive lost sends.
    failures: u32,
    /// First tick at which another attempt is allowed.
    next_allowed: u64,
}

/// [`FaultHooks`] adapter borrowing the wrapper's state disjointly from
/// the clustering it maintains.
struct Gate<'a> {
    alive: &'a [bool],
    channel: &'a mut Channel,
    send: &'a mut [SendState],
    repairing: &'a mut [bool],
    backoff: Backoff,
    tick: u64,
    retransmissions: u64,
    repairs: u64,
    /// `(node, wait_ticks)` for each loss this pass, emitted as
    /// `RetxScheduled` telemetry after the maintenance pass returns (the
    /// gate cannot hold the probe itself: the engine borrows it mutably).
    scheduled: &'a mut Vec<(NodeId, u64)>,
}

impl FaultHooks for Gate<'_> {
    fn is_alive(&self, u: NodeId) -> bool {
        self.alive[u as usize]
    }

    fn attempt(&mut self, u: NodeId) -> Attempt {
        let s = &mut self.send[u as usize];
        if self.tick < s.next_allowed {
            return Attempt::Deferred;
        }
        // Classify the transmission before drawing its fate: a retry is a
        // retransmission whether or not it succeeds; a first attempt by a
        // repairing node is repair traffic.
        if s.failures > 0 {
            self.retransmissions += 1;
        } else if self.repairing[u as usize] {
            self.repairs += 1;
        }
        if self.channel.deliver() {
            *s = SendState::default();
            self.repairing[u as usize] = false;
            Attempt::Delivered
        } else {
            s.failures += 1;
            let wait = self.backoff.delay_after(s.failures);
            s.next_allowed = self.tick + wait;
            self.scheduled.push((u, wait));
            Attempt::Lost
        }
    }
}

/// Self-healing cluster maintenance over a lossy channel with node churn.
#[derive(Debug, Clone)]
pub struct SelfHealing<P> {
    clustering: Clustering<P>,
    backoff: Backoff,
    /// Every this many ticks all backoff gates open (0 disables sweeps).
    sweep_interval: u64,
    tick: u64,
    send: Vec<SendState>,
    repairing: Vec<bool>,
    prev_alive: Vec<bool>,
    /// The gate's retransmission schedule, reused from pass to pass.
    scheduled: Vec<(NodeId, u64)>,
}

impl<P: ClusterPolicy> SelfHealing<P> {
    /// Wraps a formed clustering.
    pub fn new(clustering: Clustering<P>, backoff: Backoff, sweep_interval: u64) -> Self {
        let n = clustering.roles().len();
        SelfHealing {
            clustering,
            backoff,
            sweep_interval,
            tick: 0,
            send: vec![SendState::default(); n],
            repairing: vec![false; n],
            prev_alive: vec![true; n],
            scheduled: Vec::new(),
        }
    }

    /// The wrapped clustering.
    pub fn clustering(&self) -> &Clustering<P> {
        &self.clustering
    }

    /// Ticks stepped so far.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Advances one tick: detect crash/recovery fallout, open sweep gates
    /// when due, then run one fault-gated maintenance pass.
    ///
    /// `topology` must already exclude dead nodes' links and `alive` must
    /// match the world's current up/down state (see `World::alive`).
    ///
    /// The wrapper installs its own retry/backoff gate as the engine's
    /// fault hooks for the nested maintenance pass (any hooks already on
    /// `ctx` are not consulted). Telemetry flows through `ctx.probe`:
    /// role-change events come from the engine, and every lost send
    /// additionally emits a `RetxScheduled` event (stamped `ctx.now`)
    /// carrying the backoff wait chosen for its retry. With
    /// [`Probe::off`](manet_telemetry::Probe::off) the step is quiet with
    /// identical outcomes.
    ///
    /// Once warm the step allocates nothing: the violations left are
    /// counted in the walk that collects them for
    /// [`Clustering::violations_among`], and the gate's retransmission
    /// schedule is one reused buffer.
    ///
    /// # Panics
    ///
    /// Panics if `alive.len()` differs from the node count.
    pub fn step(
        &mut self,
        topology: &Topology,
        alive: &[bool],
        channel: &mut Channel,
        ctx: &mut StepCtx<'_, '_>,
    ) -> ClusterFlow {
        let now = ctx.now;
        assert_eq!(alive.len(), self.send.len(), "alive mask size mismatch");
        self.tick += 1;

        // Soft-timer fault detection: a head going down orphans its
        // members (their repair sends are repair traffic); a node coming
        // back up must re-validate its stale role.
        for (u, &up) in alive.iter().enumerate() {
            if self.prev_alive[u] && !up {
                if self.clustering.roles()[u].is_head() {
                    for (m, r) in self.clustering.roles().iter().enumerate() {
                        if *r == (Role::Member { head: u as NodeId }) {
                            self.repairing[m] = true;
                        }
                    }
                }
                // The dead node itself transmits nothing; reset its state.
                self.send[u] = SendState::default();
                self.repairing[u] = false;
            } else if !self.prev_alive[u] && up {
                self.repairing[u] = true;
            }
        }
        self.prev_alive.copy_from_slice(alive);

        // Periodic repair sweep: open every backoff gate so no violation
        // can outlive a sweep interval once the faults stop.
        if self.sweep_interval > 0 && self.tick.is_multiple_of(self.sweep_interval) {
            for s in &mut self.send {
                s.next_allowed = 0;
            }
        }

        let mut gate = Gate {
            alive,
            channel,
            send: &mut self.send,
            repairing: &mut self.repairing,
            backoff: self.backoff,
            tick: self.tick,
            retransmissions: 0,
            repairs: 0,
            scheduled: &mut self.scheduled,
        };
        let mut inner = StepCtx::new(&mut *ctx.probe).at(now).with_hooks(&mut gate);
        let maintenance = self.clustering.maintain(topology, &mut inner);
        let (retransmissions, repairs) = (gate.retransmissions, gate.repairs);
        for (node, wait_ticks) in self.scheduled.drain(..) {
            let cause = ctx.probe.root(RootCause::ChannelLoss);
            ctx.probe.emit_caused(
                now,
                Layer::Cluster,
                EventKind::RetxScheduled { node, wait_ticks },
                cause,
            );
        }
        let violations_left = self.clustering.violation_count_among(topology, alive);
        ClusterFlow {
            maintenance,
            retransmissions,
            repairs,
            violations_left,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::LowestId;
    use manet_sim::{Counters, FaultPlan, LossModel, QuietCtx, SimBuilder};
    use manet_telemetry::Probe;

    fn lossy_channel(p: f64, seed: u64) -> Channel {
        Channel::new(LossModel::Bernoulli { p }, seed)
    }

    fn ideal_channel() -> Channel {
        Channel::new(LossModel::Ideal, 0)
    }

    #[test]
    fn backoff_delays_are_bounded_exponential() {
        let b = Backoff {
            base_ticks: 2,
            max_exponent: 3,
        };
        assert_eq!(b.delay_after(1), 2);
        assert_eq!(b.delay_after(2), 4);
        assert_eq!(b.delay_after(3), 8);
        assert_eq!(b.delay_after(4), 16);
        assert_eq!(b.delay_after(5), 16, "cap holds");
        assert_eq!(b.delay_after(100), 16);
        assert_eq!(Backoff::default().delay_after(1), 1);
    }

    #[test]
    fn ideal_step_matches_plain_maintain() {
        let mut world = SimBuilder::new().nodes(100).seed(31).build();
        let mut plain = Clustering::form(LowestId, world.topology());
        let mut healing = SelfHealing::new(plain.clone(), Backoff::default(), 10);
        let mut channel = ideal_channel();
        let alive = vec![true; 100];
        let mut q = QuietCtx::new();
        for _ in 0..60 {
            world.step(&mut q.ctx());
            let o_plain = plain.maintain(world.topology(), &mut q.ctx());
            let o_heal = healing.step(world.topology(), &alive, &mut channel, &mut q.ctx());
            assert_eq!(o_heal.maintenance, o_plain);
            assert_eq!(o_heal.retransmissions, 0);
            assert_eq!(o_heal.repairs, 0);
            assert_eq!(o_heal.violations_left, 0);
            assert_eq!(o_heal.cluster_messages(), o_plain.total_messages());
            assert_eq!(healing.clustering().roles(), plain.roles());
        }
    }

    #[test]
    fn backoff_defers_after_a_loss() {
        // Two heads forced into contact over a dead channel.
        use manet_geom::{Metric, SquareRegion, Vec2};
        let far = Topology::compute(
            &[Vec2::new(0.0, 0.0), Vec2::new(10.0, 0.0)],
            SquareRegion::new(100.0),
            1.1,
            Metric::Euclidean,
        );
        let near = Topology::compute(
            &[Vec2::new(0.0, 0.0), Vec2::new(1.0, 0.0)],
            SquareRegion::new(100.0),
            1.1,
            Metric::Euclidean,
        );
        let c = Clustering::form(LowestId, &far);
        let mut healing = SelfHealing::new(
            c,
            Backoff {
                base_ticks: 4,
                max_exponent: 2,
            },
            0,
        );
        let mut dead_air = lossy_channel(1.0, 7);
        let alive = [true, true];
        let mut q = QuietCtx::new();
        let o = healing.step(&near, &alive, &mut dead_air, &mut q.ctx());
        assert_eq!(o.maintenance.lost_sends, 1);
        assert_eq!(o.violations_left, 1);
        // Next 3 ticks: backoff gates the retry, zero overhead.
        for _ in 0..3 {
            let o = healing.step(&near, &alive, &mut dead_air, &mut q.ctx());
            assert_eq!(o.maintenance.deferred_sends, 1);
            assert_eq!(o.maintenance.attempted_messages(), 0);
        }
        // Gate opens: the retry happens (and is lost again, as a retx).
        let o = healing.step(&near, &alive, &mut dead_air, &mut q.ctx());
        assert_eq!(o.maintenance.lost_sends, 1);
        assert_eq!(o.retransmissions, 1);
        // Channel heals: the next allowed retry commits.
        let mut fine = ideal_channel();
        let mut done = false;
        for _ in 0..20 {
            let o = healing.step(&near, &alive, &mut fine, &mut q.ctx());
            if o.violations_left == 0 {
                done = true;
                break;
            }
        }
        assert!(done, "violations must drain once the channel heals");
    }

    #[test]
    fn sweep_bounds_the_backoff_wait() {
        use manet_geom::{Metric, SquareRegion, Vec2};
        let far = Topology::compute(
            &[Vec2::new(0.0, 0.0), Vec2::new(10.0, 0.0)],
            SquareRegion::new(100.0),
            1.1,
            Metric::Euclidean,
        );
        let near = Topology::compute(
            &[Vec2::new(0.0, 0.0), Vec2::new(1.0, 0.0)],
            SquareRegion::new(100.0),
            1.1,
            Metric::Euclidean,
        );
        let c = Clustering::form(LowestId, &far);
        // Huge backoff, small sweep: the sweep must unlock the retry.
        let mut healing = SelfHealing::new(
            c,
            Backoff {
                base_ticks: 1000,
                max_exponent: 0,
            },
            3,
        );
        let mut dead_air = lossy_channel(1.0, 7);
        let alive = [true, true];
        let mut q = QuietCtx::new();
        healing.step(&near, &alive, &mut dead_air, &mut q.ctx()); // lost, gated ~1000 ticks
        let mut fine = ideal_channel();
        let mut healed_at = None;
        for k in 2..=8u64 {
            let o = healing.step(&near, &alive, &mut fine, &mut q.ctx());
            if o.violations_left == 0 {
                healed_at = Some(k);
                break;
            }
        }
        let healed_at = healed_at.expect("sweep must force the retry");
        assert!(
            healed_at <= 6,
            "healed at tick {healed_at}, sweep is every 3"
        );
    }

    #[test]
    fn crashed_head_fallout_is_repair_traffic() {
        use manet_geom::{Metric, SquareRegion, Vec2};
        // 0—1—2 path: 0 and 2 are heads, 1 is a member of 0.
        let pts = [
            Vec2::new(0.0, 0.0),
            Vec2::new(1.0, 0.0),
            Vec2::new(2.0, 0.0),
        ];
        let full = Topology::compute(&pts, SquareRegion::new(100.0), 1.1, Metric::Euclidean);
        let c = Clustering::form(LowestId, &full);
        let mut healing = SelfHealing::new(c, Backoff::default(), 10);
        let mut channel = ideal_channel();
        let mut q = QuietCtx::new();
        healing.step(&full, &[true; 3], &mut channel, &mut q.ctx());
        // Head 0 crashes.
        let alive = [false, true, true];
        let mut masked = full.clone();
        masked.retain_alive(&alive);
        let o = healing.step(&masked, &alive, &mut channel, &mut q.ctx());
        assert_eq!(o.repairs, 1, "the orphan's re-home is repair traffic");
        assert_eq!(o.cluster_messages(), 0);
        assert_eq!(o.violations_left, 0);
        assert_eq!(healing.clustering().role(1), Role::Member { head: 2 });
        // Head 0 recovers: it wakes as a stale head next to nobody — its
        // role is still consistent (singleton head), so no traffic, but a
        // recovering *member* would re-validate. Either way: no violation.
        let o = healing.step(&full, &[true; 3], &mut channel, &mut q.ctx());
        assert_eq!(o.violations_left, 0);
    }

    #[test]
    fn traced_step_emits_retx_schedules_and_records_consistently() {
        use manet_telemetry::Event;

        let mut world = SimBuilder::new()
            .nodes(80)
            .side(500.0)
            .radius(120.0)
            .speed(12.0)
            .seed(41)
            .build();
        let c = Clustering::form(LowestId, world.topology());
        let mut traced = SelfHealing::new(c.clone(), Backoff::default(), 8);
        let mut plain = SelfHealing::new(c, Backoff::default(), 8);
        let plan = FaultPlan::bernoulli(0.5, 13).unwrap();
        let mut ch_probed = plan.channel(manet_sim::fault::STREAM_CLUSTER);
        let mut ch_plain = plan.channel(manet_sim::fault::STREAM_CLUSTER);
        let alive = vec![true; 80];
        let mut sink = Vec::<Event>::new();
        let mut counters = Counters::default();
        let mut losses = 0;
        let mut q = QuietCtx::new();
        for t in 0..40 {
            world.step(&mut q.ctx());
            let now = t as f64;
            let mut probe = Probe::subscriber(&mut sink);
            let o = traced.step(
                world.topology(),
                &alive,
                &mut ch_probed,
                &mut StepCtx::new(&mut probe).at(now),
            );
            let o_plain = plain.step(world.topology(), &alive, &mut ch_plain, &mut q.ctx());
            assert_eq!(o, o_plain, "tracing must not change the outcome");
            o.record(&mut counters);
            losses += o.maintenance.lost_sends;
        }
        assert!(losses > 0, "the lossy channel must actually lose sends");
        let retx_events = sink
            .iter()
            .filter(|e| matches!(e.kind, EventKind::RetxScheduled { .. }))
            .count() as u64;
        assert_eq!(
            retx_events, losses,
            "one RetxScheduled per lost send, exactly"
        );
        for e in &sink {
            assert_eq!(e.layer, Layer::Cluster);
            if let EventKind::RetxScheduled { wait_ticks, .. } = e.kind {
                assert!((1..=16).contains(&wait_ticks), "default backoff range");
            }
        }
        assert!(counters.bytes_consistent());
    }

    #[test]
    fn heals_through_sustained_loss_and_churn() {
        // End-to-end: lossy channel + a crash/recover cycle, then
        // quiescence. Violations must drain to zero.
        let mut world = SimBuilder::new()
            .nodes(60)
            .side(400.0)
            .radius(100.0)
            .speed(10.0)
            .seed(97)
            .build();
        let c = Clustering::form(LowestId, world.topology());
        let mut healing = SelfHealing::new(c, Backoff::default(), 8);
        let plan = FaultPlan::bernoulli(0.4, 5).unwrap();
        let mut channel = plan.channel(manet_sim::fault::STREAM_CLUSTER);
        let mut alive = vec![true; 60];
        let mut q = QuietCtx::new();
        for t in 0..200 {
            world.step(&mut q.ctx());
            // Crash nodes 3 and 17 for a stretch.
            if t == 40 {
                alive[3] = false;
                alive[17] = false;
            }
            if t == 120 {
                alive[3] = true;
                alive[17] = true;
            }
            let mut masked = world.topology().clone();
            masked.retain_alive(&alive);
            healing.step(&masked, &alive, &mut channel, &mut q.ctx());
        }
        // Quiescence: freeze the world, heal the channel.
        let mut fine = ideal_channel();
        let masked = world.topology().clone();
        let mut last = u64::MAX;
        for _ in 0..10 {
            last = healing
                .step(&masked, &alive, &mut fine, &mut q.ctx())
                .violations_left;
        }
        assert_eq!(
            last, 0,
            "violations must be zero after the quiescence window"
        );
        healing.clustering().check_invariants(&masked).unwrap();
    }
}
