//! The shard interconnect: a fallible, typed message layer between shards.
//!
//! PR 5's shard plane moved ghost rows and ownership between shards by
//! writing directly into the peer's buffers — an implicitly perfect
//! interconnect. This module reifies that traffic as [`InterconnectMsg`]
//! batches flowing over per-pair [`ShardLink`](crate::ShardLink)s, so the exchange can be
//! fault-injected with the same machinery the protocol layers use
//! ([`LossModel`] channels, plus a [`StallSchedule`] that freezes a
//! shard's endpoints for whole ticks), while staying deterministic and
//! worker-count-invariant: every draw happens on the sequential exchange
//! path, in node-id order for migrations and `(src, dst)` order for
//! ghost syncs.
//!
//! # Degradation and recovery semantics
//!
//! * **Ghost sync**: each directed pair sends one `GhostSync` batch per
//!   tick. On loss the receiver keeps its last delivered view
//!   ([`PairView`]) tagged with the tick it was synced at; links are then
//!   computed against stale ghost coordinates. Once the view's age
//!   exceeds [`InterconnectConfig::max_ghost_staleness`] it is dropped
//!   entirely — boundary links to that peer vanish until the link
//!   recovers — and a `GhostStale` event anchors the fault. The next
//!   delivery after one or more missed syncs emits
//!   `InterconnectRecovered` and resynchronizes the view in one swap.
//! * **Migration**: an ownership transfer is a unit `Migrate` message.
//!   On loss the source shard *retains* the node (it is still within the
//!   ghost margin, so its frame has a valid image) and retries under
//!   capped exponential backoff. If the node has drifted past the margin
//!   — no image of it remains in the owner's frame — ownership is handed
//!   off unconditionally (a forced handoff, counted but not retried),
//!   because the ledger must keep partitioning the population.
//! * **Stall**: a stalled shard neither sends nor receives; its links
//!   record failures without consuming channel draws, so the loss
//!   realization of every other link is unperturbed.
//!
//! Any tick on which stale data was used, a message was lost, or a shard
//! stalled is flagged ([`Interconnect::fault_tick`]); the plane then runs
//! a deterministic symmetrization sweep over the merged topology so the
//! conservative "both endpoints must agree" link rule holds. On an ideal
//! interconnect (the default config) none of this machinery draws
//! randomness or emits events, and the plane is bit-identical to PR 5.

use crate::link::LinkManager;
use manet_geom::Vec2;
use manet_sim::{FaultError, LossModel, StallSchedule};
use manet_telemetry::{EventKind, Layer, Probe, RootCause, SpanLabel};
use std::collections::BTreeMap;

/// Configuration of the shard interconnect's fault plane.
///
/// The default is the **ideal** interconnect: no loss, no stalls, no
/// randomness consumed — byte-identical behavior to a plane without the
/// message layer.
#[derive(Debug, Clone, PartialEq)]
pub struct InterconnectConfig {
    /// Loss model applied independently per directed shard link.
    pub loss: LossModel,
    /// Tick-indexed schedule of per-shard interconnect stalls.
    pub stall: StallSchedule,
    /// Seed mixed into every per-pair channel.
    pub seed: u64,
    /// Maximum age (ticks) of a ghost view before it is dropped.
    pub max_ghost_staleness: u64,
    /// Cap on the exponential migration-retry delay, in ticks.
    pub backoff_cap: u32,
    /// Consecutive failures after which a link reports `Down`.
    pub down_after: u32,
}

impl Default for InterconnectConfig {
    fn default() -> Self {
        InterconnectConfig {
            loss: LossModel::Ideal,
            stall: StallSchedule::none(),
            seed: 0,
            max_ghost_staleness: 4,
            backoff_cap: 8,
            down_after: 3,
        }
    }
}

impl InterconnectConfig {
    /// Whether this config can never perturb the exchange (no loss, no
    /// stalls).
    pub fn is_ideal(&self) -> bool {
        self.loss.is_ideal() && self.stall.is_empty()
    }
}

/// One typed message header on a shard link. The payload (ghost rows)
/// travels alongside in-process; a future multi-process transport
/// serializes header + payload together and uses `seq` for gap detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterconnectMsg {
    /// A full ghost batch from `src`'s owned nodes into `dst`'s frame.
    GhostSync {
        /// Sending shard.
        src: u16,
        /// Receiving shard.
        dst: u16,
        /// Link sequence number of this send.
        seq: u64,
        /// Ghost entries in the batch.
        count: u64,
    },
    /// An ownership transfer of one node from `src` to `dst`.
    Migrate {
        /// Current owner.
        src: u16,
        /// Tile owner taking over.
        dst: u16,
        /// Link sequence number of this send.
        seq: u64,
        /// The migrating node.
        node: u32,
    },
}

impl InterconnectMsg {
    /// Entries carried (ghost rows, or 1 for a migration) — the `count`
    /// reported by an `InterconnectLost` event when this message drops.
    pub fn entries(&self) -> u64 {
        match *self {
            InterconnectMsg::GhostSync { count, .. } => count,
            InterconnectMsg::Migrate { .. } => 1,
        }
    }
}

/// A batch of ghost entries: global ids with dst-frame-local coordinates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GhostBatch {
    /// Global node ids.
    pub ids: Vec<u32>,
    /// Frame-local coordinates in the *receiver's* frame, parallel to
    /// `ids`.
    pub pts: Vec<Vec2>,
}

impl GhostBatch {
    fn clear(&mut self) {
        self.ids.clear();
        self.pts.clear();
    }

    /// Entries in the batch.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the batch holds no entries.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// The receiver-side state of one directed ghost stream.
#[derive(Debug, Clone, PartialEq)]
pub struct PairView {
    /// Batch being assembled this tick (sender side).
    staging: GhostBatch,
    /// Last delivered batch (receiver side, possibly stale).
    cache: GhostBatch,
    /// Tick the cache was delivered at (`u64::MAX` = never synced).
    epoch: u64,
}

impl Default for PairView {
    fn default() -> Self {
        PairView {
            staging: GhostBatch::default(),
            cache: GhostBatch::default(),
            epoch: u64::MAX,
        }
    }
}

impl PairView {
    /// Age of the cached view at `tick` (`None` before the first sync).
    fn staleness(&self, tick: u64) -> Option<u64> {
        (self.epoch != u64::MAX).then(|| tick - self.epoch)
    }
}

/// Migration-retry backoff state for one node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Backoff {
    attempts: u32,
    next_tick: u64,
}

/// The interconnect: per-pair ghost streams, per-node migration backoff,
/// the link manager, and the per-tick fault flag.
#[derive(Debug)]
pub struct Interconnect {
    config: InterconnectConfig,
    links: LinkManager,
    pairs: BTreeMap<(u16, u16), PairView>,
    backoff: BTreeMap<u32, Backoff>,
    shard_count: usize,
    tick: u64,
    started: bool,
    fault_tick: bool,
    forced_handoffs: u64,
    migrations_lost: u64,
}

impl Interconnect {
    /// An interconnect over `shard_count` shards under `config`.
    ///
    /// # Errors
    ///
    /// Rejects an invalid loss model or a stall schedule naming a shard
    /// outside the layout.
    pub fn new(config: InterconnectConfig, shard_count: usize) -> Result<Self, FaultError> {
        config.loss.validated()?;
        config.stall.check_shards(shard_count)?;
        let links = LinkManager::new(config.loss, config.seed, config.down_after);
        Ok(Interconnect {
            config,
            links,
            pairs: BTreeMap::new(),
            backoff: BTreeMap::new(),
            shard_count,
            tick: 0,
            started: false,
            fault_tick: false,
            forced_handoffs: 0,
            migrations_lost: 0,
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &InterconnectConfig {
        &self.config
    }

    /// The link manager (health inspection).
    pub fn links(&self) -> &LinkManager {
        &self.links
    }

    /// Whether the current tick saw any interconnect fault (loss, stall,
    /// or stale ghost use) — the trigger for the plane's symmetrization
    /// sweep.
    pub fn fault_tick(&self) -> bool {
        self.fault_tick
    }

    /// Forced ownership handoffs so far (retention impossible: the node
    /// left its owner's ghost margin while its migration was unacked).
    pub fn forced_handoffs(&self) -> u64 {
        self.forced_handoffs
    }

    /// Migration messages lost so far.
    pub fn migrations_lost(&self) -> u64 {
        self.migrations_lost
    }

    /// The current tick index (0-based; advances in [`Interconnect::begin_tick`]).
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Worst ghost-view age across synced pairs at the current tick.
    pub fn max_staleness(&self) -> u64 {
        self.pairs
            .values()
            .filter_map(|p| p.staleness(self.tick))
            .max()
            .unwrap_or(0)
    }

    /// Whether `shard`'s interconnect endpoints are frozen this tick.
    pub fn stalled(&self, shard: u16) -> bool {
        self.config.stall.stalled(shard, self.tick)
    }

    /// Drops all transient state (caches, backoff) — called when the node
    /// population changes, which only happens across reconstruction.
    pub fn reset(&mut self) {
        self.pairs.clear();
        self.backoff.clear();
    }

    /// Advances to the next tick: emits stall-onset events and flags the
    /// tick faulty if any shard is stalled. Returns the new tick index.
    pub fn begin_tick(&mut self, probe: &mut Probe<'_>, now: f64) -> u64 {
        if self.started {
            self.tick += 1;
        } else {
            self.started = true;
        }
        self.fault_tick = false;
        let tick = self.tick;
        if !self.config.stall.is_empty() {
            for shard in 0..self.shard_count as u16 {
                if !self.config.stall.stalled(shard, tick) {
                    continue;
                }
                self.fault_tick = true;
                if tick == 0 || !self.config.stall.stalled(shard, tick - 1) {
                    let ticks = self.config.stall.stall_run(shard, tick);
                    let cause = probe.root(RootCause::InterconnectFault);
                    probe.emit_caused(
                        now,
                        Layer::Sim,
                        EventKind::InterconnectStalled { shard, ticks },
                        cause,
                    );
                }
            }
        }
        tick
    }

    /// Attempts an ownership transfer of `node` from `src` to `dst`.
    /// Returns `true` when ownership moves (delivered, or forced handoff
    /// because `can_retain` is false), `false` when the source retains
    /// the node and will retry.
    pub fn migrate(
        &mut self,
        node: u32,
        src: u16,
        dst: u16,
        can_retain: bool,
        probe: &mut Probe<'_>,
        now: f64,
    ) -> bool {
        let tick = self.tick;
        if self.stalled(src) || self.stalled(dst) {
            self.fault_tick = true;
            if can_retain {
                self.links.link_mut(src, dst).record_failure();
                return false;
            }
            self.forced_handoffs += 1;
            self.backoff.remove(&node);
            return true;
        }
        if let Some(b) = self.backoff.get(&node) {
            if tick < b.next_tick {
                self.fault_tick = true;
                if can_retain {
                    return false;
                }
                self.forced_handoffs += 1;
                self.backoff.remove(&node);
                return true;
            }
        }
        let link = self.links.link_mut(src, dst);
        let msg = InterconnectMsg::Migrate {
            src,
            dst,
            seq: link.next_seq(),
            node,
        };
        if link.send(&msg) {
            self.backoff.remove(&node);
            return true;
        }
        self.fault_tick = true;
        self.migrations_lost += 1;
        let cause = probe.root(RootCause::InterconnectFault);
        probe.emit_caused(
            now,
            Layer::Sim,
            EventKind::InterconnectLost {
                src,
                dst,
                count: msg.entries(),
            },
            cause,
        );
        if can_retain {
            // Delay doubles per failed attempt (2, 4, 8, ... ticks up to
            // the cap), so even the first failure skips at least one tick.
            let b = self.backoff.entry(node).or_default();
            b.attempts += 1;
            let delay = 1u64
                .checked_shl(b.attempts)
                .unwrap_or(u64::MAX)
                .min(u64::from(self.config.backoff_cap).max(2));
            b.next_tick = tick + delay;
            false
        } else {
            self.forced_handoffs += 1;
            self.backoff.remove(&node);
            true
        }
    }

    /// Stages one ghost entry onto the `(src, dst)` stream for this
    /// tick's sync batch.
    pub fn stage(&mut self, src: u16, dst: u16, id: u32, lp: Vec2) {
        let view = self.pairs.entry((src, dst)).or_default();
        view.staging.ids.push(id);
        view.staging.pts.push(lp);
    }

    /// Sends every pair's ghost batch over its link, in `(src, dst)`
    /// order: a delivery swaps the batch into the receiver's cached view
    /// (emitting `InterconnectRecovered` after missed syncs); a loss
    /// discards it and the cache goes stale.
    pub fn sync(&mut self, probe: &mut Probe<'_>, now: f64) {
        let Interconnect {
            config,
            links,
            pairs,
            tick,
            fault_tick,
            ..
        } = self;
        let tick = *tick;
        for (&(src, dst), view) in pairs.iter_mut() {
            // One ic_send span per directed pair, tagged with the sending
            // shard; if this hop allocates an attribution cause (loss or
            // post-gap recovery) the span links to the same CauseId.
            let span = probe.span_open();
            let mut span_cause = None;
            if config.stall.stalled(src, tick) || config.stall.stalled(dst, tick) {
                links.link_mut(src, dst).record_failure();
                view.staging.clear();
                *fault_tick = true;
                probe.span_close(span, SpanLabel::IcSend, Some(src), None);
                continue;
            }
            let link = links.link_mut(src, dst);
            let msg = InterconnectMsg::GhostSync {
                src,
                dst,
                seq: link.next_seq(),
                count: view.staging.len() as u64,
            };
            if link.send(&msg) {
                let gap = view.staleness(tick).unwrap_or(1);
                std::mem::swap(&mut view.staging, &mut view.cache);
                view.staging.clear();
                view.epoch = tick;
                if gap > 1 {
                    let cause = probe.root(RootCause::InterconnectFault);
                    span_cause = cause.map(|c| c.id);
                    probe.emit_caused(
                        now,
                        Layer::Sim,
                        EventKind::InterconnectRecovered {
                            src,
                            dst,
                            resync: view.cache.len() as u64,
                        },
                        cause,
                    );
                }
            } else {
                *fault_tick = true;
                let cause = probe.root(RootCause::InterconnectFault);
                span_cause = cause.map(|c| c.id);
                probe.emit_caused(
                    now,
                    Layer::Sim,
                    EventKind::InterconnectLost {
                        src,
                        dst,
                        count: msg.entries(),
                    },
                    cause,
                );
                view.staging.clear();
            }
            probe.span_close(span, SpanLabel::IcSend, Some(src), span_cause);
        }
    }

    /// Hands every pair's cached (possibly stale) ghost view to the
    /// receiver via `sink(dst, ids, pts)`, enforcing the staleness bound:
    /// a view older than `max_ghost_staleness` is dropped (anchored by a
    /// `GhostStale` event) instead of consumed.
    pub fn consume(
        &mut self,
        probe: &mut Probe<'_>,
        now: f64,
        mut sink: impl FnMut(u16, &[u32], &[Vec2]),
    ) {
        let Interconnect {
            config,
            pairs,
            tick,
            fault_tick,
            ..
        } = self;
        let tick = *tick;
        for (&(src, dst), view) in pairs.iter_mut() {
            let Some(staleness) = view.staleness(tick) else {
                continue; // never synced; the loss was already flagged
            };
            // One ic_deliver span per directed pair, tagged with the
            // receiving shard; a staleness drop links the span to the
            // GhostStale event's cause.
            let span = probe.span_open();
            if staleness > 0 {
                *fault_tick = true;
            }
            if staleness > config.max_ghost_staleness {
                let dropped = view.cache.len() as u64;
                view.cache.clear();
                let mut span_cause = None;
                if dropped > 0 {
                    let cause = probe.root(RootCause::InterconnectFault);
                    span_cause = cause.map(|c| c.id);
                    probe.emit_caused(
                        now,
                        Layer::Sim,
                        EventKind::GhostStale {
                            src,
                            dst,
                            staleness,
                            dropped,
                        },
                        cause,
                    );
                }
                probe.span_close(span, SpanLabel::IcDeliver, Some(dst), span_cause);
                continue;
            }
            sink(dst, &view.cache.ids, &view.cache.pts);
            probe.span_close(span, SpanLabel::IcDeliver, Some(dst), None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_sim::StallEvent;

    fn v(x: f64, y: f64) -> Vec2 {
        Vec2 { x, y }
    }

    #[test]
    fn ideal_interconnect_delivers_everything_silently() {
        let mut ic = Interconnect::new(InterconnectConfig::default(), 4).unwrap();
        assert!(ic.config().is_ideal());
        let mut probe = Probe::off();
        for tick in 0..3u64 {
            assert_eq!(ic.begin_tick(&mut probe, 0.0), tick);
            for _ in 0..2 {
                ic.stage(0, 1, 7, v(1.0, 2.0));
            }
            ic.sync(&mut probe, 0.0);
            let mut got = Vec::new();
            ic.consume(&mut probe, 0.0, |dst, ids, _| {
                got.push((dst, ids.to_vec()));
            });
            assert_eq!(got, vec![(1, vec![7, 7])]);
            assert!(!ic.fault_tick());
        }
        assert_eq!(ic.max_staleness(), 0);
        assert_eq!(ic.forced_handoffs(), 0);
    }

    #[test]
    fn lost_sync_keeps_stale_view_then_drops_past_bound() {
        // Total loss: every sync drops. Staleness bound of 2 ticks.
        let config = InterconnectConfig {
            loss: LossModel::Bernoulli { p: 1.0 },
            max_ghost_staleness: 2,
            ..InterconnectConfig::default()
        };
        let mut ic = Interconnect::new(config, 2).unwrap();
        let mut probe = Probe::off();

        // Tick 0: seed the cache by hand (loss model would never let a
        // batch through) — emulate one delivered sync.
        ic.begin_tick(&mut probe, 0.0);
        ic.stage(0, 1, 3, v(1.0, 1.0));
        ic.pairs.get_mut(&(0, 1)).unwrap().epoch = 0;
        let view = ic.pairs.get_mut(&(0, 1)).unwrap();
        std::mem::swap(&mut view.staging, &mut view.cache);

        // Ticks 1..=2: syncs lost, stale view still served.
        for tick in 1..=2u64 {
            ic.begin_tick(&mut probe, 0.0);
            ic.stage(0, 1, 3, v(2.0, 2.0));
            ic.sync(&mut probe, 0.0);
            let mut served = 0;
            ic.consume(&mut probe, 0.0, |_, ids, _| served += ids.len());
            assert_eq!(served, 1, "tick {tick}: stale view should be served");
            assert!(ic.fault_tick());
        }
        assert_eq!(ic.max_staleness(), 2);

        // Tick 3: staleness 3 > 2 — view dropped, nothing served.
        ic.begin_tick(&mut probe, 0.0);
        ic.stage(0, 1, 3, v(3.0, 3.0));
        ic.sync(&mut probe, 0.0);
        let mut served = 0;
        ic.consume(&mut probe, 0.0, |_, ids, _| served += ids.len());
        assert_eq!(served, 0, "stale view must be dropped past the bound");
        assert!(ic.fault_tick());
    }

    #[test]
    fn stalled_shard_freezes_without_channel_draws() {
        // A stall on shard 0 for ticks 0..2 under an otherwise lossy
        // model: no draws must be consumed while stalled, so the draw
        // sequence afterwards matches a schedule-free run offset by zero.
        let config = InterconnectConfig {
            loss: LossModel::Bernoulli { p: 0.5 },
            stall: StallSchedule::new(vec![StallEvent {
                tick: 0,
                shard: 0,
                ticks: 2,
            }]),
            ..InterconnectConfig::default()
        };
        let mut ic = Interconnect::new(config, 2).unwrap();
        let mut probe = Probe::off();
        ic.begin_tick(&mut probe, 0.0);
        assert!(ic.stalled(0));
        assert!(!ic.stalled(1));
        ic.stage(0, 1, 1, v(1.0, 1.0));
        ic.sync(&mut probe, 0.0);
        assert!(ic.fault_tick());
        // The link recorded a failure but the channel never drew.
        let (_, link) = ic.links().iter().next().unwrap();
        assert_eq!(link.send_seq(), 0);
        assert_ne!(link.health(), crate::link::LinkHealth::Up);
    }

    #[test]
    fn migration_retries_with_backoff_and_forces_handoff() {
        let config = InterconnectConfig {
            loss: LossModel::Bernoulli { p: 1.0 },
            backoff_cap: 4,
            ..InterconnectConfig::default()
        };
        let mut ic = Interconnect::new(config, 2).unwrap();
        let mut probe = Probe::off();
        ic.begin_tick(&mut probe, 0.0);
        // Attempt fails, node retained; backoff gates the next tick.
        assert!(!ic.migrate(9, 0, 1, true, &mut probe, 0.0));
        assert_eq!(ic.migrations_lost(), 1);
        ic.begin_tick(&mut probe, 0.0);
        assert!(!ic.migrate(9, 0, 1, true, &mut probe, 0.0));
        assert_eq!(ic.migrations_lost(), 1, "backoff tick must not resend");
        // Once the node leaves the margin, ownership is forced over.
        ic.begin_tick(&mut probe, 0.0);
        assert!(ic.migrate(9, 0, 1, false, &mut probe, 0.0));
        assert_eq!(ic.forced_handoffs(), 1);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let bad_loss = InterconnectConfig {
            loss: LossModel::Bernoulli { p: 1.5 },
            ..InterconnectConfig::default()
        };
        assert!(Interconnect::new(bad_loss, 2).is_err());
        let bad_stall = InterconnectConfig {
            stall: StallSchedule::new(vec![StallEvent {
                tick: 0,
                shard: 9,
                ticks: 1,
            }]),
            ..InterconnectConfig::default()
        };
        assert!(Interconnect::new(bad_stall, 2).is_err());
    }
}
