//! Stage traits of the world-side tick.
//!
//! The [`crate::TopologyBuilder`] pattern (DESIGN.md §13) — the world owns
//! the stage *order*, a trait object owns the stage *strategy* — is
//! generalized here to the rest of the tick. [`MobilityStage`] covers the
//! world-side motion advance; the HELLO/Cluster/Route stage traits live in
//! `manet-stack` next to the layers they drive. Each default delegates to
//! the layer's single entry point. The shard plane overrides only the
//! topology rebuild and takes every other default (DESIGN.md §17).

use manet_mobility::Mobility;
use manet_util::Rng;

/// The mobility stage of the canonical tick: how node motion is advanced.
///
/// The default is the sequential [`Mobility::step`]; the shard plane and
/// [`crate::GridTopology`] both take it.
pub trait MobilityStage {
    /// Advances every node of `mobility` by `dt` seconds.
    fn advance(&mut self, mobility: &mut dyn Mobility, dt: f64, rng: &mut Rng) {
        mobility.step(dt, rng);
    }
}

/// The monolithic default builder is also the monolithic mobility stage,
/// so `&mut GridTopology` is a complete world-stage bundle.
impl MobilityStage for crate::GridTopology {}

/// The world-side stage bundle: one object supplying both the mobility
/// advance and the topology rebuild of `World::step_staged`.
///
/// Blanket-implemented, so any `MobilityStage + TopologyBuilder` type —
/// the shard plane, or [`crate::GridTopology`] for the monolithic default —
/// is a `WorldStages` automatically.
pub trait WorldStages: MobilityStage + crate::TopologyBuilder {}

impl<T: MobilityStage + crate::TopologyBuilder + ?Sized> WorldStages for T {}
