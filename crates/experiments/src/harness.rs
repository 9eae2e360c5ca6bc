//! The shared simulation harness: runs the full protocol stack (HELLO +
//! clustering + intra-cluster routing) over a scenario and measures the
//! paper's per-node control-message frequencies.

use crate::trace::TraceCapture;
use manet_cluster::{ClusterPolicy, Clustering, LowestId};
use manet_geom::{ShardDims, ShardLayoutError};
use manet_routing::intra::IntraClusterRouting;
use manet_shard::{default_workers, InterconnectConfig, ShardPlane};
use manet_sim::{
    HelloMode, MessageKind, MobilityKind, QuietCtx, SimBuilder, StepCtx, StepReport, World,
};
use manet_stack::{ClusterLayer, ProtocolStack, RouteLayer, StackReport};
use manet_telemetry::Probe;
use manet_util::stats::Summary;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// Scenario geometry and kinematics (DESIGN.md §5 defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scenario {
    /// Number of nodes `N`.
    pub nodes: usize,
    /// Region side `a`, meters.
    pub side: f64,
    /// Transmission range `r`, meters.
    pub radius: f64,
    /// Node speed `v`, m/s.
    pub speed: f64,
    /// Direction-redraw epoch `τ`, seconds.
    pub epoch: f64,
    /// Mobility model (defaults to the paper's epoch random-direction).
    pub mobility: MobilityKind,
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario {
            nodes: 400,
            side: 1000.0,
            radius: 150.0,
            speed: 10.0,
            epoch: 20.0,
            mobility: MobilityKind::EpochRandomDirection { epoch: 20.0 },
        }
    }
}

impl Scenario {
    /// Node density `ρ = N/a²`.
    pub fn density(&self) -> f64 {
        self.nodes as f64 / (self.side * self.side)
    }

    /// Builds the analytical parameter tuple for this scenario.
    ///
    /// # Panics
    ///
    /// Panics if the scenario violates the model's constraints (`r < a`…);
    /// scenario sweeps are constructed in-code, so this indicates a bug.
    pub fn params(&self) -> manet_model::NetworkParams {
        manet_model::NetworkParams::new(self.nodes, self.side, self.radius, self.speed)
            .expect("scenario violates model constraints")
    }
}

/// Measurement protocol: warmup, window length, seeds, tick.
#[derive(Debug, Clone, PartialEq)]
pub struct Protocol {
    /// Seconds simulated before measurement starts.
    pub warmup: f64,
    /// Measurement window length, seconds.
    pub measure: f64,
    /// Independent replications.
    pub seeds: Vec<u64>,
    /// Tick length, seconds.
    pub dt: f64,
}

impl Default for Protocol {
    fn default() -> Self {
        Protocol {
            warmup: 100.0,
            measure: 400.0,
            seeds: vec![11, 22, 33],
            dt: 0.25,
        }
    }
}

impl Protocol {
    /// A cheap protocol for unit/integration tests.
    pub fn quick() -> Self {
        Protocol {
            warmup: 40.0,
            measure: 120.0,
            seeds: vec![7],
            dt: 0.5,
        }
    }
}

/// The 80-node smoke point the quick gates and traced-run tests share:
/// `N = 80` on a 500 m side at `r = 100 m`, 10 s warmup, 30 s measured,
/// seed 7, `dt = 0.5 s`.
pub fn smoke() -> (Scenario, Protocol) {
    (
        Scenario {
            nodes: 80,
            side: 500.0,
            radius: 100.0,
            ..Scenario::default()
        },
        Protocol {
            warmup: 10.0,
            measure: 30.0,
            seeds: vec![7],
            dt: 0.5,
        },
    )
}

/// Cross-seed estimate (mean ± 95% CI half-width).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Estimate {
    /// Cross-seed mean.
    pub mean: f64,
    /// Normal-approximation 95% confidence half-width.
    pub ci95: f64,
}

impl From<Summary> for Estimate {
    fn from(s: Summary) -> Self {
        Estimate {
            mean: s.mean(),
            ci95: s.ci95_half_width(),
        }
    }
}

/// Measured per-node control-message frequencies and structure statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Measured {
    /// HELLO msgs/node/s (event-driven lower bound).
    pub f_hello: Estimate,
    /// CLUSTER msgs/node/s, total.
    pub f_cluster: Estimate,
    /// CLUSTER msgs/node/s attributable to member–head breaks.
    pub f_cluster_break: Estimate,
    /// CLUSTER msgs/node/s attributable to head contacts.
    pub f_cluster_contact: Estimate,
    /// ROUTE msgs/node/s.
    pub f_route: Estimate,
    /// ROUTE table entries/node/s (full-table broadcasts).
    pub f_route_entries: Estimate,
    /// Time-averaged head ratio `P` during the window.
    pub head_ratio: Estimate,
    /// Time-averaged mean degree `d`.
    pub mean_degree: Estimate,
    /// Per-node link generation rate.
    pub link_gen_rate: Estimate,
    /// Per-node total link change rate.
    pub link_change_rate: Estimate,
}

/// Cooperative cancellation handle for harness measurement loops.
///
/// Cloneable and thread-safe: the jobs plane hands one clone to the
/// worker running a scenario and keeps another to flip from the HTTP
/// thread. The `*_ctl` measurement cores poll it every
/// [`CANCEL_CHECK_TICKS`] ticks, so a running sweep stops within a few
/// dozen ticks of wall-clock work rather than at the next sweep point.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation; idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Ticks between [`CancelToken`] polls inside the measurement loops: a
/// compromise between reaction latency (a few dozen ticks) and keeping
/// the uncancellable hot path free of per-tick atomic loads.
pub const CANCEL_CHECK_TICKS: usize = 32;

/// `true` when a token is present and cancelled — the loop-body check.
fn cancelled(cancel: Option<&CancelToken>) -> bool {
    cancel.is_some_and(|c| c.is_cancelled())
}

/// Process-wide default shard layout, set once by experiment binaries
/// from `--shards` (see [`set_default_shards`]).
static DEFAULT_SHARDS: OnceLock<ShardDims> = OnceLock::new();

/// Sets the process-wide default shard layout. Experiment binaries call
/// this once at startup after parsing `--shards`; every harness run not
/// handed explicit [`ShardRun`] options then uses it. A second call is
/// ignored.
///
/// Every layout is bit-identical for a fixed seed, so this changes
/// wall-clock only — never results.
pub fn set_default_shards(dims: ShardDims) {
    let _ = DEFAULT_SHARDS.set(dims);
}

/// The process-wide default shard layout: `1x1` until a binary sets one.
pub fn default_shards() -> ShardDims {
    DEFAULT_SHARDS
        .get()
        .copied()
        .unwrap_or_else(ShardDims::unit)
}

/// Shard-plane options for one harness run: the layout plus an optional
/// worker cap and an optional fallible-interconnect configuration.
#[derive(Debug, Clone)]
pub struct ShardRun {
    /// Shard grid layout.
    pub dims: ShardDims,
    /// Worker-thread cap for the per-shard compute fan-out (`None` = one
    /// thread per shard up to the host parallelism).
    pub workers: Option<usize>,
    /// Interconnect fault config (`None` = the ideal default).
    pub interconnect: Option<InterconnectConfig>,
}

impl ShardRun {
    /// An ideal-interconnect run at `dims` with the default worker pool.
    pub fn new(dims: ShardDims) -> Self {
        ShardRun {
            dims,
            workers: None,
            interconnect: None,
        }
    }

    /// The options `run` names, or the default layout
    /// ([`default_shards`]) when `None` — the one place a missing layout
    /// is resolved.
    pub fn resolve(run: Option<&ShardRun>) -> ShardRun {
        run.cloned()
            .unwrap_or_else(|| ShardRun::new(default_shards()))
    }

    /// Caps the shard worker pool.
    #[must_use]
    pub fn with_workers(mut self, n: usize) -> Self {
        self.workers = Some(n);
        self
    }

    /// Runs the fallible interconnect under `config`.
    #[must_use]
    pub fn with_interconnect(mut self, config: InterconnectConfig) -> Self {
        self.interconnect = Some(config);
        self
    }

    /// The worker pool these options run with.
    pub fn worker_count(&self) -> usize {
        self.workers
            .unwrap_or_else(|| default_workers(self.dims.count()))
            .max(1)
    }

    /// Puts `stack` on a shard plane with these options.
    ///
    /// # Errors
    ///
    /// Fails when the layout is too fine for the world's radio radius.
    ///
    /// # Panics
    ///
    /// Panics on an invalid interconnect config (loss probability or
    /// stall schedule out of range) — chaos configs are constructed in
    /// code, so this indicates a bug in the sweep, not user input.
    pub fn stack<C: ClusterLayer, R: RouteLayer>(
        &self,
        stack: ProtocolStack<C, R>,
    ) -> Result<ProtocolStack<C, R, ShardPlane>, ShardLayoutError> {
        let mut plane =
            ShardPlane::for_world(stack.world(), self.dims)?.with_workers(self.worker_count());
        if let Some(ic) = &self.interconnect {
            plane = plane
                .with_interconnect(ic.clone())
                .expect("interconnect config validated by construction");
        }
        Ok(stack.with_stages(plane))
    }
}

/// Puts `stack` on the shard plane `run` describes (`None` = the default
/// layout) — the engine every harness loop ticks.
///
/// # Panics
///
/// Panics when the layout's tiles would be narrower than the ghost margin
/// of the world's radio radius; validate dims against the scenario up
/// front (as `ScenarioSpec::validate` does) for a friendlier error.
pub fn on_plane<C: ClusterLayer, R: RouteLayer>(
    stack: ProtocolStack<C, R>,
    run: Option<&ShardRun>,
) -> ProtocolStack<C, R, ShardPlane> {
    ShardRun::resolve(run)
        .stack(stack)
        .expect("shard layout incompatible with the scenario radius")
}

/// A bare [`World`] stepped on the default shard plane — the world-only
/// counterpart of [`on_plane`] for engine-validation experiments that run
/// no protocol stack (tick convergence, data-plane stretch, claim checks).
/// Dereferences to the inner world for everything except `step`/`run_for`,
/// which are shadowed to tick on the plane.
pub struct WorldDriver {
    world: World,
    plane: ShardPlane,
}

impl WorldDriver {
    /// Wraps `world` in a plane of the process-wide [`default_shards`]
    /// layout.
    ///
    /// # Panics
    ///
    /// Panics when the default layout is too fine for the world's radio
    /// radius — the operator picked `--shards` for this scenario.
    pub fn new(world: World) -> Self {
        let plane = ShardPlane::for_world(&world, default_shards())
            .expect("--shards layout incompatible with the scenario radius");
        WorldDriver { world, plane }
    }

    /// One tick on the plane.
    pub fn step(&mut self, ctx: &mut StepCtx<'_, '_>) -> StepReport {
        self.world.step_staged(ctx, &mut self.plane)
    }

    /// Runs whole ticks until at least `seconds` more simulated time has
    /// elapsed (see `World::run_for`).
    pub fn run_for(&mut self, seconds: f64, ctx: &mut StepCtx<'_, '_>) {
        self.world.run_for_staged(seconds, ctx, &mut self.plane);
    }
}

impl Deref for WorldDriver {
    type Target = World;
    fn deref(&self) -> &World {
        &self.world
    }
}

impl DerefMut for WorldDriver {
    fn deref_mut(&mut self) -> &mut World {
        &mut self.world
    }
}

/// Runs the full stack (HELLO + clustering + intra-cluster routing) under
/// `policy_for_seed` and measures the paper's metrics.
///
/// The per-seed policy constructor allows weight-based policies (DMAC) to
/// draw per-node weights deterministically per replication. Runs on the
/// process-wide [`default_shards`] layout (results are identical at any
/// layout; only the parallelism changes).
pub fn measure_with_policy<P, F>(
    scenario: &Scenario,
    protocol: &Protocol,
    policy_for_seed: F,
) -> Measured
where
    P: ClusterPolicy,
    F: FnMut(u64) -> P,
{
    measure_with_policy_ctl(scenario, protocol, None, None, None, policy_for_seed)
        .expect("a measurement without a cancel token cannot be cancelled")
}

/// The cancellable core of [`measure_with_policy`]: full [`ShardRun`]
/// options (`None` = the default layout) plus an optional [`CancelToken`]
/// polled every [`CANCEL_CHECK_TICKS`] ticks. Returns `None` when
/// cancellation fired mid-run (partial seeds are discarded — a cancelled
/// measurement never yields numbers). The jobs plane and the experiment
/// bins share this loop, which is what makes their outputs
/// byte-comparable.
///
/// A `capture` observes the first seed's run: its ticks, warmup and
/// measurement alike, run with the capture's probe instead of a quiet
/// one. Telemetry never changes a run, so the numbers are those of an
/// unobserved measurement, and the capture holds the trace a separate
/// traced run of that seed would write, when its tick count is this
/// run's (see [`TraceCapture`]).
///
/// # Panics
///
/// Panics when the layout's tiles would be narrower than the radio
/// radius; validate dims against the scenario up front (as
/// `ScenarioSpec::validate` does) for a friendlier error.
pub fn measure_with_policy_ctl<P, F>(
    scenario: &Scenario,
    protocol: &Protocol,
    run: Option<&ShardRun>,
    cancel: Option<&CancelToken>,
    mut capture: Option<&mut TraceCapture<Vec<u8>>>,
    mut policy_for_seed: F,
) -> Option<Measured>
where
    P: ClusterPolicy,
    F: FnMut(u64) -> P,
{
    let mut f_hello = Summary::new();
    let mut f_cluster = Summary::new();
    let mut f_cluster_break = Summary::new();
    let mut f_cluster_contact = Summary::new();
    let mut f_route = Summary::new();
    let mut f_route_entries = Summary::new();
    let mut head_ratio = Summary::new();
    let mut mean_degree = Summary::new();
    let mut link_gen = Summary::new();
    let mut link_change = Summary::new();

    for &seed in &protocol.seeds {
        if cancelled(cancel) {
            return None;
        }
        let world = sim_builder(scenario, protocol.dt, seed)
            .hello_mode(HelloMode::EventDriven)
            .build();
        let clustering = Clustering::form(policy_for_seed(seed), world.topology());
        let stack = ProtocolStack::ideal(world, clustering, IntraClusterRouting::new());
        let mut stack = on_plane(stack, run);
        stack.prime(&mut QuietCtx::new().ctx()); // baseline fill
        let mut observer = capture.take();

        // Warmup: run the full stack so the structure reaches steady state.
        let warm_ticks = (protocol.warmup / protocol.dt).round() as usize;
        for tick in 0..warm_ticks {
            if tick % CANCEL_CHECK_TICKS == 0 && cancelled(cancel) {
                return None;
            }
            stack.tick(&mut StepCtx::new(&mut probe_of(observer.as_deref_mut())));
        }

        stack.world_mut().begin_measurement();
        let mut agg = StackReport::default();
        let mut p_samples = Summary::new();
        let ticks = (protocol.measure / protocol.dt).round() as usize;
        for tick in 0..ticks {
            if tick % CANCEL_CHECK_TICKS == 0 && cancelled(cancel) {
                return None;
            }
            let report = stack.tick(&mut StepCtx::new(&mut probe_of(observer.as_deref_mut())));
            p_samples.push(report.head_ratio);
            agg.absorb(report);
        }
        let world = stack.world();
        let elapsed = world.measured_time();
        let n = world.node_count();
        let per_node = |count: u64| count as f64 / n as f64 / elapsed;
        let maint = agg.cluster.maintenance;

        f_hello.push(
            world
                .counters()
                .per_node_rate(MessageKind::Hello, n, elapsed),
        );
        f_cluster.push(per_node(maint.total_messages()));
        f_cluster_break.push(per_node(maint.break_triggered_messages()));
        f_cluster_contact.push(per_node(maint.contact_triggered_messages()));
        f_route.push(per_node(agg.route.route_messages));
        f_route_entries.push(per_node(agg.route.route_entries));
        head_ratio.push(p_samples.mean());
        mean_degree.push(world.mean_degree());
        link_gen.push(world.counters().per_node_link_generation_rate(n, elapsed));
        link_change.push(
            world.counters().per_node_link_generation_rate(n, elapsed)
                + world.counters().per_node_link_break_rate(n, elapsed),
        );
    }

    Some(Measured {
        f_hello: f_hello.into(),
        f_cluster: f_cluster.into(),
        f_cluster_break: f_cluster_break.into(),
        f_cluster_contact: f_cluster_contact.into(),
        f_route: f_route.into(),
        f_route_entries: f_route_entries.into(),
        head_ratio: head_ratio.into(),
        mean_degree: mean_degree.into(),
        link_gen_rate: link_gen.into(),
        link_change_rate: link_change.into(),
    })
}

/// The probe a measured tick runs with: the capture's when one observes
/// the run, else the quiet one.
fn probe_of(capture: Option<&mut TraceCapture<Vec<u8>>>) -> Probe<'_> {
    capture.map_or_else(Probe::default, TraceCapture::probe)
}

/// [`measure_with_policy`] specialized to the paper's LID case study.
pub fn measure_lid(scenario: &Scenario, protocol: &Protocol) -> Measured {
    measure_with_policy(scenario, protocol, |_| LowestId)
}

/// The analytical counterpart at a given head ratio: frequencies from the
/// default model (torus degree, per-pair contacts, member+member route
/// links — the configuration matching this simulator; see DESIGN.md §4).
pub fn analysis_at(scenario: &Scenario, p: f64) -> manet_model::OverheadBreakdown {
    let model =
        manet_model::OverheadModel::new(scenario.params(), manet_model::DegreeModel::TorusExact);
    model.breakdown(p.clamp(1e-6, 1.0))
}

/// A world builder for `scenario`'s geometry and mobility at tick `dt`.
pub fn sim_builder(scenario: &Scenario, dt: f64, seed: u64) -> SimBuilder {
    SimBuilder::new()
        .side(scenario.side)
        .nodes(scenario.nodes)
        .radius(scenario.radius)
        .speed(scenario.speed)
        .mobility(scenario.mobility)
        .dt(dt)
        .seed(seed)
}

/// Convenience: a type-erased World for ad-hoc experiment code.
pub fn build_world(scenario: &Scenario, dt: f64, seed: u64) -> World {
    sim_builder(scenario, dt, seed).build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_lid_produces_sane_numbers() {
        let scenario = Scenario {
            nodes: 150,
            side: 600.0,
            radius: 100.0,
            ..Scenario::default()
        };
        let m = measure_lid(&scenario, &Protocol::quick());
        assert!(m.f_hello.mean > 0.0);
        assert!(m.f_cluster.mean > 0.0);
        assert!(m.f_route.mean > 0.0);
        assert!(m.head_ratio.mean > 0.0 && m.head_ratio.mean < 1.0);
        assert!(m.mean_degree.mean > 1.0);
        // Entries dominate messages (full tables).
        assert!(m.f_route_entries.mean > m.f_route.mean);
        // Decomposition adds up.
        assert!(
            (m.f_cluster.mean - m.f_cluster_break.mean - m.f_cluster_contact.mean).abs() < 1e-9
        );
    }

    #[test]
    fn hello_rate_equals_link_generation_rate() {
        let scenario = Scenario {
            nodes: 120,
            side: 600.0,
            radius: 110.0,
            ..Scenario::default()
        };
        let m = measure_lid(&scenario, &Protocol::quick());
        // Event-driven HELLO: one beacon per endpoint per generation.
        assert!((m.f_hello.mean - m.link_gen_rate.mean).abs() < 1e-9);
    }

    #[test]
    fn measured_link_rate_matches_claim2() {
        let scenario = Scenario::default();
        let m = measure_lid(&scenario, &Protocol::quick());
        let model = manet_model::OverheadModel::new(
            scenario.params(),
            manet_model::DegreeModel::TorusExact,
        );
        let theory = model.link_change_rate();
        let rel = (m.link_change_rate.mean - theory).abs() / theory;
        assert!(
            rel < 0.15,
            "λ sim {} vs theory {theory} (rel {rel:.3})",
            m.link_change_rate.mean
        );
    }

    #[test]
    fn pre_cancelled_token_aborts_before_any_seed() {
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        token.cancel();
        token.cancel(); // idempotent
        assert!(token.is_cancelled());
        let m = measure_with_policy_ctl(
            &Scenario::default(),
            &Protocol::quick(),
            None,
            Some(&token),
            None,
            |_| LowestId,
        );
        assert!(m.is_none(), "cancelled measurement must yield no numbers");
    }

    #[test]
    fn missing_run_options_resolve_to_the_default_layout() {
        let run = ShardRun::resolve(None);
        assert_eq!(run.dims, default_shards());
        assert_eq!(run.worker_count(), default_workers(run.dims.count()));
        assert!(run.interconnect.is_none());
        let explicit = ShardRun::new(ShardDims::new(2, 2)).with_workers(3);
        let resolved = ShardRun::resolve(Some(&explicit));
        assert_eq!(resolved.dims, ShardDims::new(2, 2));
        assert_eq!(resolved.worker_count(), 3);
    }

    #[test]
    fn analysis_at_matches_model_directly() {
        let scenario = Scenario::default();
        let b = analysis_at(&scenario, 0.1);
        assert!(b.f_hello > 0.0 && b.f_route > 0.0);
    }
}
