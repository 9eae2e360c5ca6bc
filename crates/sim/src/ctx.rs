//! The unified per-tick context threaded through every protocol layer.
//!
//! Before this module existed, each cross-cutting plane grew its own
//! parameter-twin entry points (a plain `step` next to traced and
//! faulty variants of itself, and so on). [`StepCtx`] bundles
//! everything those twins varied — the telemetry [`Probe`], the fault
//! plane ([`FaultHooks`]), the sim time, and shared scratch buffers — so
//! every layer exposes exactly one entry point and a future plane adds a
//! context field instead of a fourth twin (DESIGN.md §12).

use crate::topology::{LinkEvent, Topology};
use crate::NodeId;
use manet_geom::SpatialGrid;
use manet_telemetry::Probe;

/// The fate of one attempted CLUSTER send under a fault plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attempt {
    /// The message went through; the role change commits.
    Delivered,
    /// The message was lost; the role change does not commit and the
    /// underlying invariant violation persists for a later retry.
    Lost,
    /// The sender is backing off; no transmission this pass.
    Deferred,
}

/// Fault plane seen by the cluster maintenance engine.
///
/// The engine calls [`FaultHooks::is_alive`] to skip crashed nodes and
/// [`FaultHooks::attempt`] before committing each role change (one CLUSTER
/// message each). The default implementations — everything alive,
/// everything delivered — make [`NoFaults`] a zero-cost ideal plane.
pub trait FaultHooks {
    /// Whether node `u` is up. Crashed nodes neither detect breaks nor
    /// transmit; their links should already be absent from the topology.
    fn is_alive(&self, u: NodeId) -> bool {
        let _ = u;
        true
    }

    /// Gates and draws one CLUSTER send by node `u`.
    fn attempt(&mut self, u: NodeId) -> Attempt {
        let _ = u;
        Attempt::Delivered
    }
}

/// The ideal fault plane: every node up, every message delivered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoFaults;

impl FaultHooks for NoFaults {}

/// Shared scratch buffers for the steady-state tick loop.
///
/// Holding the kernel's frame, its link schedule and the double-buffered
/// topology here (rather than rebuilding them from scratch each tick)
/// makes the topology/diff path of `World::step` allocation-free once
/// capacities have warmed up; this crate's `tests/alloc_free.rs` pins it.
/// A scratch may serve several worlds: the kernel measures every call's
/// positions against the previous call's, so its rows stay exact, and
/// its flips name the stamp of the topology it last wrote, so a world
/// never takes another world's events.
#[derive(Debug, Default)]
pub struct Scratch {
    /// The unit-disk kernel's 1x1 frame and its link schedule: each tick
    /// re-tests the due pairs, rebuilds a rotating slice of the lists in
    /// place, and records the flips against the stamp of the topology it
    /// wrote last tick (the first tick, and any tick of fast motion,
    /// sweeps the frame instead).
    pub(crate) grid: Option<SpatialGrid>,
    /// The next-tick topology buffer, swapped with the world's current
    /// topology after the tick's events are in, so both row stores keep
    /// their capacities.
    pub(crate) spare: Topology,
    /// Debug builds' row diff of a tick whose builder recorded the
    /// events, checked against them (unused in release builds).
    pub(crate) check: Vec<LinkEvent>,
}

impl Scratch {
    /// Fresh, empty scratch buffers (capacities warm up over the first
    /// couple of ticks).
    pub fn new() -> Self {
        Scratch::default()
    }
}

/// Per-tick context carried through every layer's single entry point:
/// telemetry probe, optional fault hooks, current sim time, and the shared
/// [`Scratch`] buffers.
///
/// Layers read `now` for event timestamps, route telemetry through
/// `probe`, and consult the hooks via [`StepCtx::is_alive`] /
/// [`StepCtx::attempt`] (both default to the ideal plane when no hooks
/// are attached). `World::step` refreshes `now` after advancing time, so
/// downstream layers in the same tick observe the post-step clock.
pub struct StepCtx<'a, 'p> {
    /// Telemetry probe; [`Probe::off`] for quiet runs.
    pub probe: &'a mut Probe<'p>,
    /// Fault plane for the cluster maintenance engine (`None` = ideal).
    pub hooks: Option<&'a mut dyn FaultHooks>,
    /// Current sim time, seconds.
    pub now: f64,
    /// Shared scratch buffers, reused across ticks.
    pub scratch: &'a mut Scratch,
}

impl<'a, 'p> StepCtx<'a, 'p> {
    /// A context with no fault hooks at `t = 0`.
    pub fn new(probe: &'a mut Probe<'p>, scratch: &'a mut Scratch) -> Self {
        StepCtx {
            probe,
            hooks: None,
            now: 0.0,
            scratch,
        }
    }

    /// Sets the sim time (builder style).
    #[must_use]
    pub fn at(mut self, now: f64) -> Self {
        self.now = now;
        self
    }

    /// Attaches fault hooks (builder style).
    #[must_use]
    pub fn with_hooks(mut self, hooks: &'a mut dyn FaultHooks) -> Self {
        self.hooks = Some(hooks);
        self
    }

    /// Whether node `u` is up under the attached fault plane (always true
    /// without hooks).
    pub fn is_alive(&self, u: NodeId) -> bool {
        match &self.hooks {
            Some(h) => h.is_alive(u),
            None => true,
        }
    }

    /// Gates and draws one CLUSTER send by node `u` (always
    /// [`Attempt::Delivered`] without hooks).
    pub fn attempt(&mut self, u: NodeId) -> Attempt {
        match &mut self.hooks {
            Some(h) => h.attempt(u),
            None => Attempt::Delivered,
        }
    }

    /// Opens the root tick span as an RAII guard: the guard derefs to
    /// this context (so the tick body uses it exactly like the plain
    /// `StepCtx`) and closes the span when dropped. Without a span
    /// recorder on the probe this is a no-op pass-through — the disabled
    /// path never reads the clock.
    pub fn tick_span(&mut self) -> TickSpan<'_, 'a, 'p> {
        let start = self.probe.tick_start();
        TickSpan { ctx: self, start }
    }
}

/// RAII guard for the root tick span (see [`StepCtx::tick_span`]):
/// derefs to the underlying [`StepCtx`] and closes the span on drop, so
/// the whole tick body — including everything emitted through the probe
/// — nests inside it.
pub struct TickSpan<'g, 'a, 'p> {
    ctx: &'g mut StepCtx<'a, 'p>,
    start: Option<manet_telemetry::SpanStart>,
}

impl<'a, 'p> std::ops::Deref for TickSpan<'_, 'a, 'p> {
    type Target = StepCtx<'a, 'p>;

    fn deref(&self) -> &Self::Target {
        self.ctx
    }
}

impl std::ops::DerefMut for TickSpan<'_, '_, '_> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        self.ctx
    }
}

impl Drop for TickSpan<'_, '_, '_> {
    fn drop(&mut self) {
        self.ctx.probe.tick_end(self.start.take());
    }
}

/// Owned probe-off context bundle for quiet runs (tests and experiments
/// that want neither telemetry nor faults).
///
/// Create one per simulation, then mint a fresh [`StepCtx`] per tick; the
/// [`Scratch`] buffers inside persist across ticks so the hot loop stays
/// allocation-free.
pub struct QuietCtx {
    probe: Probe<'static>,
    scratch: Scratch,
}

impl QuietCtx {
    /// A quiet bundle: [`Probe::off`] and empty scratch buffers.
    pub fn new() -> Self {
        QuietCtx {
            probe: Probe::off(),
            scratch: Scratch::new(),
        }
    }

    /// A fresh hookless context at `t = 0` (`World::step` refreshes `now`).
    pub fn ctx(&mut self) -> StepCtx<'_, 'static> {
        StepCtx::new(&mut self.probe, &mut self.scratch)
    }
}

impl Default for QuietCtx {
    fn default() -> Self {
        QuietCtx::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hookless_ctx_is_the_ideal_plane() {
        let mut probe = Probe::off();
        let mut scratch = Scratch::new();
        let mut ctx = StepCtx::new(&mut probe, &mut scratch).at(3.5);
        assert_eq!(ctx.now, 3.5);
        assert!(ctx.is_alive(7));
        assert_eq!(ctx.attempt(7), Attempt::Delivered);
    }

    /// The tick-span guard passes the context through unchanged and
    /// closes exactly one tick span per guard when a recorder is
    /// attached (none when it is not).
    #[test]
    fn tick_span_guard_records_one_tick_span() {
        use manet_telemetry::{SpanLabel, SpanRecorder};
        let mut spans = SpanRecorder::new();
        let mut scratch = Scratch::new();
        {
            let mut probe = Probe::new(None).with_spans(Some(&mut spans));
            let mut ctx = StepCtx::new(&mut probe, &mut scratch).at(2.0);
            let mut span = ctx.tick_span();
            // The guard is a drop-in StepCtx: fields and methods resolve
            // through Deref.
            assert_eq!(span.now, 2.0);
            assert!(span.is_alive(3));
            assert_eq!(span.attempt(3), Attempt::Delivered);
        }
        assert_eq!(spans.tick(), 1);
        assert_eq!(spans.hist(SpanLabel::Tick, None).unwrap().count(), 1);

        // Quiet context: the guard is inert.
        let mut q = QuietCtx::new();
        let mut ctx = q.ctx();
        let span = ctx.tick_span();
        assert!(!span.probe.is_spanning());
    }

    #[test]
    fn attached_hooks_are_consulted() {
        struct DeadAndLossy;
        impl FaultHooks for DeadAndLossy {
            fn is_alive(&self, u: NodeId) -> bool {
                u != 1
            }
            fn attempt(&mut self, _: NodeId) -> Attempt {
                Attempt::Lost
            }
        }
        let mut probe = Probe::off();
        let mut scratch = Scratch::new();
        let mut hooks = DeadAndLossy;
        let mut ctx = StepCtx::new(&mut probe, &mut scratch).with_hooks(&mut hooks);
        assert!(!ctx.is_alive(1));
        assert!(ctx.is_alive(2));
        assert_eq!(ctx.attempt(2), Attempt::Lost);
        assert_eq!(ctx.attempt(0), Attempt::Lost);
    }
}
