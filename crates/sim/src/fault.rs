//! Fault injection: lossy channels and node churn.
//!
//! The paper derives *lower* bounds on control overhead under an ideal
//! channel: every HELLO/CLUSTER/ROUTE message is delivered and link breaks
//! are detected for free by soft timers. This module supplies the
//! counterfactual — a seeded, deterministic [`FaultPlan`] combining
//! per-message loss (IID Bernoulli or a two-state Gilbert–Elliott burst
//! channel) with a node churn schedule (crash/recover events) — so the
//! *gap* a real deployment pays above the bound becomes measurable.
//!
//! Everything here is deterministic: a [`Channel`] is a seeded realization
//! of a [`LossModel`], and per-layer channels are forked from the plan's
//! seed through fixed stream labels, so two runs with the same seed and
//! the same plan replay bit-identical fault sequences.
//!
//! [`FaultPlan::ideal`] (no loss, no churn) is the zero-cost default: the
//! ideal channel never consumes randomness and never drops, so the whole
//! simulator reduces exactly to the paper's lower-bound setting.

use crate::NodeId;
use manet_util::rng::{splitmix64, Rng};
use std::fmt;

/// Stream label for the HELLO layer's channel (see [`FaultPlan::channel`]).
pub const STREAM_HELLO: u64 = 1;
/// Stream label for the CLUSTER layer's channel.
pub const STREAM_CLUSTER: u64 = 2;
/// Stream label for the ROUTE layer's channel.
pub const STREAM_ROUTE: u64 = 3;

/// An invalid user-supplied fault-plane parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultError {
    /// A probability parameter was outside `[0, 1]` (or not a number).
    InvalidProbability {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
    /// A rate or duration parameter was not positive and finite.
    InvalidRate {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
    /// A churn event referenced a node outside the simulated population.
    NodeOutOfRange {
        /// Offending node id.
        node: NodeId,
        /// Population size.
        nodes: usize,
    },
    /// A stall event referenced a shard outside the shard layout.
    ShardOutOfRange {
        /// Offending shard index.
        shard: u16,
        /// Shard count.
        shards: usize,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultError::InvalidProbability { name, value } => {
                write!(f, "{name} must be a probability in [0, 1], got {value}")
            }
            FaultError::InvalidRate { name, value } => {
                write!(f, "{name} must be positive and finite, got {value}")
            }
            FaultError::NodeOutOfRange { node, nodes } => {
                write!(
                    f,
                    "churn event names node {node}, but only {nodes} nodes exist"
                )
            }
            FaultError::ShardOutOfRange { shard, shards } => {
                write!(
                    f,
                    "stall event names shard {shard}, but only {shards} shards exist"
                )
            }
        }
    }
}

impl std::error::Error for FaultError {}

fn check_probability(name: &'static str, value: f64) -> Result<(), FaultError> {
    if (0.0..=1.0).contains(&value) {
        Ok(())
    } else {
        Err(FaultError::InvalidProbability { name, value })
    }
}

/// Per-message loss model of the control channel.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum LossModel {
    /// Perfect delivery — the paper's ideal-channel assumption. Default.
    #[default]
    Ideal,
    /// Independent loss: every message is dropped with probability `p`.
    Bernoulli {
        /// Per-message loss probability.
        p: f64,
    },
    /// Two-state Gilbert–Elliott burst-loss channel. The channel alternates
    /// between a *good* and a *bad* state with per-message transition
    /// probabilities; each state drops messages at its own rate, producing
    /// the time-correlated loss bursts of real radio links.
    GilbertElliott {
        /// P(good → bad) per delivery attempt.
        p_gb: f64,
        /// P(bad → good) per delivery attempt.
        p_bg: f64,
        /// Loss probability while in the good state.
        loss_good: f64,
        /// Loss probability while in the bad state.
        loss_bad: f64,
    },
}

impl LossModel {
    /// Validates every parameter, returning the model unchanged on success.
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::InvalidProbability`] for any parameter outside
    /// `[0, 1]`.
    pub fn validated(self) -> Result<Self, FaultError> {
        match self {
            LossModel::Ideal => {}
            LossModel::Bernoulli { p } => check_probability("loss probability p", p)?,
            LossModel::GilbertElliott {
                p_gb,
                p_bg,
                loss_good,
                loss_bad,
            } => {
                check_probability("p_gb", p_gb)?;
                check_probability("p_bg", p_bg)?;
                check_probability("loss_good", loss_good)?;
                check_probability("loss_bad", loss_bad)?;
            }
        }
        Ok(self)
    }

    /// Whether this model never drops a message.
    pub fn is_ideal(&self) -> bool {
        match *self {
            LossModel::Ideal => true,
            LossModel::Bernoulli { p } => p == 0.0,
            LossModel::GilbertElliott {
                p_gb,
                loss_good,
                loss_bad,
                ..
            } => loss_good == 0.0 && (loss_bad == 0.0 || p_gb == 0.0),
        }
    }

    /// Long-run mean loss probability (stationary expectation).
    ///
    /// For Gilbert–Elliott this is `π_g·loss_good + π_b·loss_bad` with the
    /// stationary state split `π_b = p_gb / (p_gb + p_bg)`; a channel that
    /// can never leave its initial good state has `π_b = 0`.
    pub fn mean_loss(&self) -> f64 {
        match *self {
            LossModel::Ideal => 0.0,
            LossModel::Bernoulli { p } => p,
            LossModel::GilbertElliott {
                p_gb,
                p_bg,
                loss_good,
                loss_bad,
            } => {
                if p_gb == 0.0 || p_gb + p_bg == 0.0 {
                    loss_good
                } else {
                    let pi_b = p_gb / (p_gb + p_bg);
                    (1.0 - pi_b) * loss_good + pi_b * loss_bad
                }
            }
        }
    }
}

/// A seeded, deterministic realization of a [`LossModel`].
///
/// Each protocol layer owns its own channel (forked from the plan seed via
/// a fixed stream label) so that loss draws in one layer never perturb
/// another layer's stream. An ideal channel consumes no randomness at all.
#[derive(Debug, Clone, PartialEq)]
pub struct Channel {
    model: LossModel,
    rng: Rng,
    /// Gilbert–Elliott state: currently in the bad state.
    bad: bool,
}

impl Channel {
    /// Creates a channel realizing `model` from `seed`.
    pub fn new(model: LossModel, seed: u64) -> Self {
        Channel {
            model,
            rng: Rng::seed_from_u64(seed),
            bad: false,
        }
    }

    /// The loss model realized by this channel.
    pub fn model(&self) -> LossModel {
        self.model
    }

    /// Whether this channel never drops a message.
    pub fn is_ideal(&self) -> bool {
        self.model.is_ideal()
    }

    /// Draws one delivery attempt: `true` = delivered, `false` = dropped.
    ///
    /// Gilbert–Elliott channels first take one state-transition step, so
    /// the burst process advances per attempted message.
    pub fn deliver(&mut self) -> bool {
        match self.model {
            LossModel::Ideal => true,
            LossModel::Bernoulli { p } => p == 0.0 || !self.rng.bernoulli(p),
            LossModel::GilbertElliott {
                p_gb,
                p_bg,
                loss_good,
                loss_bad,
            } => {
                let flip = if self.bad { p_bg } else { p_gb };
                if self.rng.bernoulli(flip) {
                    self.bad = !self.bad;
                }
                let loss = if self.bad { loss_bad } else { loss_good };
                loss == 0.0 || !self.rng.bernoulli(loss)
            }
        }
    }

    /// How many of `sends` messages are dropped: `sends` [`deliver`]
    /// draws in order, or none at all when the channel
    /// [`is_ideal`](Self::is_ideal) (every draw would deliver).
    ///
    /// [`deliver`]: Self::deliver
    pub fn lost_of(&mut self, sends: u64) -> u64 {
        if self.is_ideal() {
            return 0;
        }
        (0..sends).map(|_| u64::from(!self.deliver())).sum()
    }
}

/// Whether a churn event takes a node down or brings it back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChurnKind {
    /// The node fails: all its links vanish and it neither sends nor
    /// receives until it recovers.
    Crash,
    /// The node comes back up with empty protocol state.
    Recover,
}

/// A scheduled crash or recovery of one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnEvent {
    /// Simulation time at which the event fires.
    pub time: f64,
    /// The affected node.
    pub node: NodeId,
    /// Crash or recover.
    pub kind: ChurnKind,
}

/// A time-ordered schedule of [`ChurnEvent`]s.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChurnSchedule {
    events: Vec<ChurnEvent>,
}

impl ChurnSchedule {
    /// The empty schedule (no churn) — the paper's immortal-node setting.
    pub fn none() -> Self {
        ChurnSchedule::default()
    }

    /// Builds a schedule from explicit events, sorting them by time (ties
    /// broken by node id, crashes before recoveries).
    pub fn new(mut events: Vec<ChurnEvent>) -> Self {
        events.sort_by(|a, b| {
            a.time
                .total_cmp(&b.time)
                .then_with(|| a.node.cmp(&b.node))
                .then_with(|| (a.kind == ChurnKind::Recover).cmp(&(b.kind == ChurnKind::Recover)))
        });
        ChurnSchedule { events }
    }

    /// Generates memoryless crash/recover churn over `[0, horizon)`:
    /// every node fails at rate `crash_rate` (per up-second) and stays
    /// down for an exponential time of mean `mean_downtime` seconds.
    ///
    /// Deterministic in `(nodes, rates, horizon, seed)`.
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::InvalidRate`] unless `crash_rate` is
    /// non-negative and finite and `mean_downtime` and `horizon` are
    /// positive and finite (`crash_rate == 0` yields an empty schedule).
    pub fn poisson(
        nodes: usize,
        crash_rate: f64,
        mean_downtime: f64,
        horizon: f64,
        seed: u64,
    ) -> Result<Self, FaultError> {
        if !(crash_rate >= 0.0 && crash_rate.is_finite()) {
            return Err(FaultError::InvalidRate {
                name: "crash_rate",
                value: crash_rate,
            });
        }
        if !(mean_downtime > 0.0 && mean_downtime.is_finite()) {
            return Err(FaultError::InvalidRate {
                name: "mean_downtime",
                value: mean_downtime,
            });
        }
        if !(horizon > 0.0 && horizon.is_finite()) {
            return Err(FaultError::InvalidRate {
                name: "horizon",
                value: horizon,
            });
        }
        let mut events = Vec::new();
        if crash_rate > 0.0 {
            let mut root = Rng::seed_from_u64(seed);
            for node in 0..nodes as NodeId {
                let mut rng = root.fork(node as u64);
                let mut t = rng.exponential(crash_rate);
                while t < horizon {
                    events.push(ChurnEvent {
                        time: t,
                        node,
                        kind: ChurnKind::Crash,
                    });
                    t += rng.exponential(1.0 / mean_downtime);
                    if t >= horizon {
                        break;
                    }
                    events.push(ChurnEvent {
                        time: t,
                        node,
                        kind: ChurnKind::Recover,
                    });
                    t += rng.exponential(crash_rate);
                }
            }
        }
        Ok(ChurnSchedule::new(events))
    }

    /// The events in firing order.
    pub fn events(&self) -> &[ChurnEvent] {
        &self.events
    }

    /// Whether the schedule contains no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Checks that every event names a node below `nodes`.
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::NodeOutOfRange`] for the first offender.
    pub fn check_population(&self, nodes: usize) -> Result<(), FaultError> {
        for e in &self.events {
            if e.node as usize >= nodes {
                return Err(FaultError::NodeOutOfRange {
                    node: e.node,
                    nodes,
                });
            }
        }
        Ok(())
    }
}

/// One scheduled shard-interconnect stall: shard `shard` stops sending
/// and receiving interconnect messages for `ticks` consecutive topology
/// ticks starting at `tick` (inclusive).
///
/// A stall freezes only the shard's interconnect endpoints — its compute
/// still runs, but on whatever ghost view it last received, and its peers
/// stop hearing from it. This is the shard-level analogue of a node
/// crash in [`ChurnSchedule`]: the process is alive but partitioned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallEvent {
    /// First stalled tick (the shard plane counts topology builds).
    pub tick: u64,
    /// The stalled shard (row-major shard index).
    pub shard: u16,
    /// Stall duration in ticks (at least 1 to have any effect).
    pub ticks: u32,
}

/// A tick-ordered schedule of [`StallEvent`]s, analogous to
/// [`ChurnSchedule`] but indexed by shard and discrete tick rather than
/// node and simulated time (the interconnect exchanges messages once per
/// topology tick, so ticks are its natural clock).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StallSchedule {
    events: Vec<StallEvent>,
}

impl StallSchedule {
    /// The empty schedule (no stalls) — the ideal interconnect setting.
    pub fn none() -> Self {
        StallSchedule::default()
    }

    /// Builds a schedule from explicit events, sorting them by tick (ties
    /// broken by shard index).
    pub fn new(mut events: Vec<StallEvent>) -> Self {
        events.sort_by(|a, b| a.tick.cmp(&b.tick).then_with(|| a.shard.cmp(&b.shard)));
        StallSchedule { events }
    }

    /// Generates memoryless stall churn over ticks `[0, horizon)`: every
    /// shard stalls at rate `stall_rate` (per up-tick) and stays frozen
    /// for an exponential duration of mean `mean_stall` ticks (rounded up
    /// to at least one tick).
    ///
    /// Deterministic in `(shards, rates, horizon, seed)`; each shard's
    /// draws come from an independent forked stream, so adding shards
    /// never perturbs the existing ones.
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::InvalidRate`] unless `stall_rate` is
    /// non-negative and finite and `mean_stall` is positive and finite
    /// (`stall_rate == 0` yields an empty schedule).
    pub fn poisson(
        shards: usize,
        stall_rate: f64,
        mean_stall: f64,
        horizon: u64,
        seed: u64,
    ) -> Result<Self, FaultError> {
        if !(stall_rate >= 0.0 && stall_rate.is_finite()) {
            return Err(FaultError::InvalidRate {
                name: "stall_rate",
                value: stall_rate,
            });
        }
        if !(mean_stall > 0.0 && mean_stall.is_finite()) {
            return Err(FaultError::InvalidRate {
                name: "mean_stall",
                value: mean_stall,
            });
        }
        let mut events = Vec::new();
        if stall_rate > 0.0 {
            let mut root = Rng::seed_from_u64(seed);
            for shard in 0..shards.min(u16::MAX as usize) as u16 {
                let mut rng = root.fork(shard as u64);
                let mut t = rng.exponential(stall_rate);
                while (t as u64) < horizon {
                    let ticks = rng.exponential(1.0 / mean_stall).ceil().max(1.0) as u32;
                    events.push(StallEvent {
                        tick: t as u64,
                        shard,
                        ticks,
                    });
                    t += ticks as f64 + rng.exponential(stall_rate);
                }
            }
        }
        Ok(StallSchedule::new(events))
    }

    /// The events in firing order.
    pub fn events(&self) -> &[StallEvent] {
        &self.events
    }

    /// Whether the schedule contains no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Whether `shard` is stalled at `tick` (covered by any event).
    pub fn stalled(&self, shard: u16, tick: u64) -> bool {
        self.events
            .iter()
            .any(|e| e.shard == shard && e.tick <= tick && tick < e.tick + e.ticks as u64)
    }

    /// Length of the contiguous stalled run of `shard` starting at
    /// `tick` (0 when the shard is up), merging overlapping events.
    pub fn stall_run(&self, shard: u16, tick: u64) -> u64 {
        let mut t = tick;
        while self.stalled(shard, t) {
            t += 1;
        }
        t - tick
    }

    /// Checks that every event names a shard below `shards`.
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::ShardOutOfRange`] for the first offender.
    pub fn check_shards(&self, shards: usize) -> Result<(), FaultError> {
        for e in &self.events {
            if e.shard as usize >= shards {
                return Err(FaultError::ShardOutOfRange {
                    shard: e.shard,
                    shards,
                });
            }
        }
        Ok(())
    }
}

/// A complete, seeded fault scenario: a channel loss model plus a node
/// churn schedule.
///
/// The default plan is [`FaultPlan::ideal`] — no loss, no churn — under
/// which every fault-aware code path reduces exactly to the paper's
/// lower-bound behavior.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Per-message loss model shared (as independent seeded realizations)
    /// by all protocol layers.
    pub loss: LossModel,
    /// Node crash/recover schedule.
    pub churn: ChurnSchedule,
    /// Root seed for every channel realization derived from this plan.
    pub seed: u64,
}

impl FaultPlan {
    /// The ideal plan: perfect channel, immortal nodes.
    pub fn ideal() -> Self {
        FaultPlan::default()
    }

    /// A pure Bernoulli-loss plan with no churn.
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::InvalidProbability`] unless `p ∈ [0, 1]`.
    pub fn bernoulli(p: f64, seed: u64) -> Result<Self, FaultError> {
        Ok(FaultPlan {
            loss: LossModel::Bernoulli { p }.validated()?,
            churn: ChurnSchedule::none(),
            seed,
        })
    }

    /// Whether this plan can never drop a message or kill a node.
    pub fn is_ideal(&self) -> bool {
        self.loss.is_ideal() && self.churn.is_empty()
    }

    /// Validates the loss model parameters, returning the plan unchanged.
    ///
    /// # Errors
    ///
    /// Propagates [`FaultError`] from [`LossModel::validated`].
    pub fn validated(self) -> Result<Self, FaultError> {
        self.loss.validated()?;
        Ok(self)
    }

    /// Forks a deterministic per-layer channel. Fixed `stream` labels
    /// ([`STREAM_HELLO`], [`STREAM_CLUSTER`], [`STREAM_ROUTE`]) keep the
    /// layers' loss draws independent of each other and of call order.
    pub fn channel(&self, stream: u64) -> Channel {
        let mut mix = self.seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Channel::new(self.loss, splitmix64(&mut mix))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_channel_delivers_everything_without_randomness() {
        let mut c = Channel::new(LossModel::Ideal, 7);
        let before = c.clone();
        for _ in 0..100 {
            assert!(c.deliver());
        }
        assert_eq!(c, before, "ideal channel must not consume randomness");
        assert!(c.is_ideal());
        assert_eq!(c.model().mean_loss(), 0.0);
    }

    #[test]
    fn lost_of_counts_drops_and_skips_ideal_draws() {
        let lossy = LossModel::GilbertElliott {
            p_gb: 0.1,
            p_bg: 0.3,
            loss_good: 0.05,
            loss_bad: 0.8,
        };
        let mut batched = Channel::new(lossy, 9);
        let mut single = batched.clone();
        for k in [0u64, 1, 7, 50] {
            let lost = (0..k).filter(|_| !single.deliver()).count() as u64;
            assert_eq!(batched.lost_of(k), lost);
            assert_eq!(batched, single, "k sends make exactly k draws");
        }
        // An ideal Gilbert–Elliott channel (loss-free in both states) drops
        // nothing and draws nothing.
        let ideal = LossModel::GilbertElliott {
            p_gb: 0.5,
            p_bg: 0.5,
            loss_good: 0.0,
            loss_bad: 0.0,
        };
        let mut c = Channel::new(ideal, 3);
        let before = c.clone();
        assert_eq!(c.lost_of(1000), 0);
        assert_eq!(c, before);
    }

    #[test]
    fn bernoulli_loss_matches_p() {
        let mut c = Channel::new(LossModel::Bernoulli { p: 0.3 }, 42);
        let n = 20_000;
        let delivered = (0..n).filter(|_| c.deliver()).count();
        let rate = 1.0 - delivered as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.01, "loss rate {rate}");
    }

    #[test]
    fn bernoulli_zero_is_ideal_and_lossless() {
        let model = LossModel::Bernoulli { p: 0.0 };
        assert!(model.is_ideal());
        let mut c = Channel::new(model, 1);
        assert!((0..1000).all(|_| c.deliver()));
    }

    #[test]
    fn gilbert_elliott_matches_stationary_loss() {
        let model = LossModel::GilbertElliott {
            p_gb: 0.05,
            p_bg: 0.25,
            loss_good: 0.01,
            loss_bad: 0.6,
        };
        let expect = model.mean_loss();
        // π_b = 0.05/0.30 = 1/6; mean = 5/6·0.01 + 1/6·0.6.
        assert!((expect - (5.0 / 6.0 * 0.01 + 0.6 / 6.0)).abs() < 1e-12);
        let mut c = Channel::new(model, 3);
        let n = 60_000;
        let lost = (0..n).filter(|_| !c.deliver()).count();
        let rate = lost as f64 / n as f64;
        assert!((rate - expect).abs() < 0.01, "loss {rate} vs {expect}");
    }

    #[test]
    fn gilbert_elliott_losses_are_bursty() {
        // With sticky states, consecutive losses should be far likelier
        // than under IID loss of the same mean.
        let model = LossModel::GilbertElliott {
            p_gb: 0.02,
            p_bg: 0.1,
            loss_good: 0.0,
            loss_bad: 0.9,
        };
        let mut c = Channel::new(model, 9);
        let draws: Vec<bool> = (0..40_000).map(|_| !c.deliver()).collect();
        let losses = draws.iter().filter(|&&l| l).count() as f64;
        let pairs = draws.windows(2).filter(|w| w[0] && w[1]).count() as f64;
        let p = losses / draws.len() as f64;
        let p_pair = pairs / (draws.len() - 1) as f64;
        assert!(
            p_pair > 2.0 * p * p,
            "burstiness: P(loss,loss) {p_pair:.4} should exceed iid {:.4}",
            p * p
        );
    }

    #[test]
    fn channels_are_deterministic_and_stream_independent() {
        let plan = FaultPlan::bernoulli(0.2, 77).unwrap();
        let draws = |mut c: Channel| (0..64).map(|_| c.deliver()).collect::<Vec<_>>();
        assert_eq!(
            draws(plan.channel(STREAM_HELLO)),
            draws(plan.channel(STREAM_HELLO))
        );
        assert_ne!(
            draws(plan.channel(STREAM_HELLO)),
            draws(plan.channel(STREAM_CLUSTER))
        );
        assert_ne!(
            draws(plan.channel(STREAM_CLUSTER)),
            draws(plan.channel(STREAM_ROUTE))
        );
    }

    #[test]
    fn invalid_parameters_are_typed_errors() {
        assert!(matches!(
            FaultPlan::bernoulli(1.5, 0),
            Err(FaultError::InvalidProbability {
                name: "loss probability p",
                ..
            })
        ));
        assert!(LossModel::Bernoulli { p: f64::NAN }.validated().is_err());
        assert!(LossModel::GilbertElliott {
            p_gb: -0.1,
            p_bg: 0.5,
            loss_good: 0.0,
            loss_bad: 1.0
        }
        .validated()
        .is_err());
        let e = ChurnSchedule::poisson(10, -1.0, 5.0, 100.0, 0);
        assert!(matches!(
            e,
            Err(FaultError::InvalidRate {
                name: "crash_rate",
                ..
            })
        ));
        assert!(ChurnSchedule::poisson(10, 0.01, 0.0, 100.0, 0).is_err());
        assert!(ChurnSchedule::poisson(10, 0.01, 5.0, f64::INFINITY, 0).is_err());
        // Errors display usefully.
        let msg = FaultError::InvalidProbability {
            name: "p",
            value: 2.0,
        }
        .to_string();
        assert!(msg.contains("[0, 1]"));
    }

    #[test]
    fn poisson_churn_is_sorted_alternating_and_deterministic() {
        let a = ChurnSchedule::poisson(50, 0.01, 10.0, 500.0, 5).unwrap();
        let b = ChurnSchedule::poisson(50, 0.01, 10.0, 500.0, 5).unwrap();
        assert_eq!(a, b);
        assert!(!a.is_empty());
        // Sorted by time.
        for w in a.events().windows(2) {
            assert!(w[0].time <= w[1].time);
        }
        // Per node: alternating crash/recover starting with a crash.
        for node in 0..50 {
            let kinds: Vec<ChurnKind> = a
                .events()
                .iter()
                .filter(|e| e.node == node)
                .map(|e| e.kind)
                .collect();
            for (i, k) in kinds.iter().enumerate() {
                let expect = if i % 2 == 0 {
                    ChurnKind::Crash
                } else {
                    ChurnKind::Recover
                };
                assert_eq!(*k, expect, "node {node} event {i}");
            }
        }
        assert!(a.check_population(50).is_ok());
        assert!(matches!(
            a.check_population(10),
            Err(FaultError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn zero_rate_churn_is_empty() {
        let s = ChurnSchedule::poisson(20, 0.0, 10.0, 100.0, 1).unwrap();
        assert!(s.is_empty());
    }

    #[test]
    fn ideal_plan_roundtrip() {
        let plan = FaultPlan::ideal();
        assert!(plan.is_ideal());
        assert!(plan.validated().is_ok());
        assert!(!FaultPlan::bernoulli(0.1, 0).unwrap().is_ideal());
        let churny = FaultPlan {
            loss: LossModel::Ideal,
            churn: ChurnSchedule::new(vec![ChurnEvent {
                time: 1.0,
                node: 0,
                kind: ChurnKind::Crash,
            }]),
            seed: 0,
        };
        assert!(!churny.is_ideal());
    }

    #[test]
    fn stall_schedule_covers_intervals_and_validates() {
        let s = StallSchedule::new(vec![
            StallEvent {
                tick: 10,
                shard: 1,
                ticks: 3,
            },
            StallEvent {
                tick: 4,
                shard: 0,
                ticks: 1,
            },
        ]);
        // Sorted by tick.
        assert_eq!(s.events()[0].tick, 4);
        assert!(s.stalled(0, 4));
        assert!(!s.stalled(0, 5));
        assert!(s.stalled(1, 10) && s.stalled(1, 12));
        assert!(!s.stalled(1, 13));
        assert!(!s.stalled(2, 10));
        assert_eq!(s.stall_run(1, 10), 3);
        assert_eq!(s.stall_run(1, 11), 2);
        assert_eq!(s.stall_run(1, 13), 0);
        assert!(s.check_shards(2).is_ok());
        assert!(matches!(
            s.check_shards(1),
            Err(FaultError::ShardOutOfRange {
                shard: 1,
                shards: 1
            })
        ));
        let msg = FaultError::ShardOutOfRange {
            shard: 7,
            shards: 4,
        }
        .to_string();
        assert!(msg.contains("shard 7"));
        assert!(StallSchedule::none().is_empty());
    }

    #[test]
    fn poisson_stalls_are_deterministic_and_non_overlapping_per_shard() {
        let a = StallSchedule::poisson(6, 0.02, 4.0, 400, 9).unwrap();
        let b = StallSchedule::poisson(6, 0.02, 4.0, 400, 9).unwrap();
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.check_shards(6).is_ok());
        // Per shard: events are disjoint and ordered (a shard cannot
        // stall while already stalled).
        for shard in 0..6u16 {
            let evs: Vec<&StallEvent> = a.events().iter().filter(|e| e.shard == shard).collect();
            for w in evs.windows(2) {
                assert!(w[0].tick + w[0].ticks as u64 <= w[1].tick);
            }
            for e in &evs {
                assert!(e.ticks >= 1);
            }
        }
        // Adding shards never perturbs existing streams.
        let wider = StallSchedule::poisson(8, 0.02, 4.0, 400, 9).unwrap();
        let narrow: Vec<&StallEvent> = wider.events().iter().filter(|e| e.shard < 6).collect();
        assert_eq!(narrow.len(), a.events().len());
        // Validation mirrors churn's.
        assert!(StallSchedule::poisson(4, -0.1, 4.0, 100, 0).is_err());
        assert!(StallSchedule::poisson(4, 0.1, 0.0, 100, 0).is_err());
        assert!(StallSchedule::poisson(4, 0.0, 4.0, 100, 0)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn explicit_schedule_sorts_events() {
        let s = ChurnSchedule::new(vec![
            ChurnEvent {
                time: 5.0,
                node: 1,
                kind: ChurnKind::Recover,
            },
            ChurnEvent {
                time: 1.0,
                node: 2,
                kind: ChurnKind::Crash,
            },
            ChurnEvent {
                time: 1.0,
                node: 0,
                kind: ChurnKind::Crash,
            },
        ]);
        let times: Vec<f64> = s.events().iter().map(|e| e.time).collect();
        assert_eq!(times, vec![1.0, 1.0, 5.0]);
        assert_eq!(s.events()[0].node, 0);
    }
}
