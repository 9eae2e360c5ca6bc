//! Library-level scenario specs: what the experiment binaries express as
//! argv, captured as a canonical JSON document the jobs plane can queue,
//! cache, and replay.
//!
//! A [`ScenarioSpec`] names a sweep kind (the paper figure or a single
//! point), the scenario geometry/kinematics, the measurement protocol,
//! the cluster policy, and the execution layout (`--shards`, workers,
//! fault plane). [`run_scenario`] drives the exact same `*_ctl`
//! measurement cores the experiment binaries use — `fig1_vs_range` run
//! as a process and a `{"kind":"fig1_vs_range"}` spec submitted to
//! `manet serve-jobs` produce identical sweep numbers for identical
//! seeds, which `tests/jobs_plane.rs` pins.
//!
//! [`ScenarioSpec::canonical`] renders the spec with every default
//! materialized, fields in a fixed order, through the deterministic
//! in-house JSON codec — so formatting variants, key reordering, and
//! omitted-default submissions all collapse to one cache key. Since a
//! seeded run is bit-identical at any shard layout or worker count, that
//! key fully determines the result bytes, and the jobs plane caches on
//! it.

use crate::figures::{sweep_with, Figure, FIG1_RADIUS_FRACS, FIG2_SPEEDS, FIG3_NODES};
use crate::harness::{
    measure_with_policy_ctl, CancelToken, Estimate, Measured, Protocol, Scenario, ShardRun,
};
use crate::robustness::{row_ctl, FaultMeasured, RobustnessRow};
use crate::trace::{jsonl_text, memory_sink, trace_run_to_sink, TelemetryConfig, TraceCapture};
use manet_cluster::{ClusterPolicy, HighestConnectivity, LowestId, Priority};
use manet_geom::{ghost_margin, ShardDims, ShardLayout, ShardLayoutError, SquareRegion};
use manet_model::{DegreeModel, NetworkParams};
use manet_sim::{MobilityKind, NodeId, Topology};
use manet_util::json::Value;
use std::{fmt, io};

/// Most nodes one scenario point may ask for: per-node state (position,
/// neighbor rows, role, HELLO table) is a few hundred bytes, so this keeps
/// it under ~1 GB. Ten times the largest point the repo runs, the
/// benchmark's `scale-100k` (N = 100 000).
const MAX_NODES: usize = 1_000_000;

/// Most spatial-grid cells, `floor(side / r)²`, one point may ask for: the
/// grid allocates a 24-byte bin per cell up front, whatever the node
/// count, so this caps it at 24 MB (`scale-100k` uses 11 025 cells).
const MAX_GRID_CELLS: f64 = 1_000_000.0;

/// Most expected neighbor entries, `N·d` with `d` from
/// [`DegreeModel::TorusExact`], one point may ask for: topology rows and
/// HELLO tables hold tens of bytes per entry, and tick time grows with it
/// too (`scale-100k` expects about 2.8 M).
const MAX_NEIGHBOR_ENTRIES: f64 = 20_000_000.0;

/// Which experiment a spec runs: one of the paper-figure sweeps, a single
/// scenario point, or the fault-plane robustness sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecKind {
    /// Figure 1: frequencies vs transmission range (sweep = `r/a` fracs).
    Fig1VsRange,
    /// Figure 2: frequencies vs node speed (sweep = speeds, m/s).
    Fig2VsVelocity,
    /// Figure 3: frequencies vs density (sweep = node counts).
    Fig3VsDensity,
    /// One scenario point, no sweep.
    Single,
    /// ROB1 fault-plane rows (sweep lives in `fault.loss`).
    Robustness,
}

impl SpecKind {
    /// Every kind, for usage messages and exhaustive tests.
    pub const ALL: [SpecKind; 5] = [
        SpecKind::Fig1VsRange,
        SpecKind::Fig2VsVelocity,
        SpecKind::Fig3VsDensity,
        SpecKind::Single,
        SpecKind::Robustness,
    ];

    /// The wire name (matches the experiment binary where one exists).
    pub fn name(self) -> &'static str {
        match self {
            SpecKind::Fig1VsRange => "fig1_vs_range",
            SpecKind::Fig2VsVelocity => "fig2_vs_velocity",
            SpecKind::Fig3VsDensity => "fig3_vs_density",
            SpecKind::Single => "single",
            SpecKind::Robustness => "robustness",
        }
    }

    /// Parses a wire name.
    pub fn from_name(name: &str) -> Option<SpecKind> {
        SpecKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Cluster-head election policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Lowest-ID (the paper's primary policy; `P` measured live).
    Lid,
    /// Highest-connectivity.
    Hcc,
}

impl PolicyKind {
    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Lid => "lid",
            PolicyKind::Hcc => "hcc",
        }
    }

    /// Parses a wire name.
    pub fn from_name(name: &str) -> Option<PolicyKind> {
        match name {
            "lid" => Some(PolicyKind::Lid),
            "hcc" => Some(PolicyKind::Hcc),
            _ => None,
        }
    }
}

/// A spec's policy elects as the policy it names, so one stack type runs
/// either.
impl ClusterPolicy for PolicyKind {
    fn priority(&self, node: NodeId, topology: &Topology) -> Priority {
        match self {
            PolicyKind::Lid => LowestId.priority(node, topology),
            PolicyKind::Hcc => HighestConnectivity.priority(node, topology),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            PolicyKind::Lid => LowestId.name(),
            PolicyKind::Hcc => HighestConnectivity.name(),
        }
    }
}

/// Routing scheme. One scheme exists today; the field keeps the wire
/// format stable when inter-cluster routing lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteKind {
    /// Intra-cluster proactive routing (the paper's scheme).
    Intra,
}

impl RouteKind {
    /// The wire name.
    pub fn name(self) -> &'static str {
        "intra"
    }

    /// Parses a wire name.
    pub fn from_name(name: &str) -> Option<RouteKind> {
        (name == "intra").then_some(RouteKind::Intra)
    }
}

/// Fault-plane options for [`SpecKind::Robustness`] specs.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Stationary loss probabilities, one robustness row each.
    pub loss: Vec<f64>,
    /// Per-node crash rate, crashes/s.
    pub crash_rate: f64,
    /// Gilbert–Elliott burst loss instead of Bernoulli.
    pub burst: bool,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            loss: vec![0.0, 0.05, 0.1, 0.2],
            crash_rate: 0.0,
            burst: false,
        }
    }
}

/// A complete, self-contained experiment description — everything a bin
/// expresses as argv, as data.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Which experiment to run.
    pub kind: SpecKind,
    /// Node count `N` (fig3 overrides per sweep point).
    pub nodes: usize,
    /// Region side `a`, meters.
    pub side: f64,
    /// Transmission range `r`, meters (fig1 overrides per sweep point).
    pub radius: f64,
    /// Node speed `v`, m/s (fig2 overrides per sweep point).
    pub speed: f64,
    /// Direction-redraw epoch `τ`, seconds.
    pub epoch: f64,
    /// Warmup seconds before measurement.
    pub warmup: f64,
    /// Measurement window, seconds.
    pub measure: f64,
    /// Tick length, seconds.
    pub dt: f64,
    /// Replication seeds.
    pub seeds: Vec<u64>,
    /// Cluster-head election policy.
    pub policy: PolicyKind,
    /// Routing scheme.
    pub route: RouteKind,
    /// Sweep grid; meaning depends on [`ScenarioSpec::kind`] (fig1: `r/a`
    /// fractions, fig2: speeds, fig3: node counts). Empty for
    /// single/robustness.
    pub sweep: Vec<f64>,
    /// Shard layout (`None` = the default layout, `1x1` unless the process
    /// set one). Results are bit-identical at any layout, so this is an
    /// execution hint, not part of the outcome.
    pub shards: Option<ShardDims>,
    /// Shard worker-thread budget.
    pub workers: Option<usize>,
    /// Fault plane ([`SpecKind::Robustness`] only).
    pub fault: Option<FaultSpec>,
    /// Capture a JSONL telemetry trace of the spec's base scenario
    /// alongside the result (served from `GET /jobs/:id/trace`).
    pub trace: bool,
}

impl ScenarioSpec {
    /// The default spec for `kind`: paper-default scenario and protocol,
    /// the figure's own sweep grid, LID clustering, default layout.
    pub fn preset(kind: SpecKind) -> ScenarioSpec {
        let scenario = Scenario::default();
        let MobilityKind::EpochRandomDirection { epoch } = scenario.mobility else {
            unreachable!("the default scenario runs the paper's epoch model")
        };
        let protocol = Protocol::default();
        let sweep = match kind {
            SpecKind::Fig1VsRange => FIG1_RADIUS_FRACS.to_vec(),
            SpecKind::Fig2VsVelocity => FIG2_SPEEDS.to_vec(),
            SpecKind::Fig3VsDensity => FIG3_NODES.iter().map(|&n| n as f64).collect(),
            SpecKind::Single | SpecKind::Robustness => Vec::new(),
        };
        ScenarioSpec {
            kind,
            nodes: scenario.nodes,
            side: scenario.side,
            radius: scenario.radius,
            speed: scenario.speed,
            epoch,
            warmup: protocol.warmup,
            measure: protocol.measure,
            dt: protocol.dt,
            seeds: protocol.seeds,
            policy: PolicyKind::Lid,
            route: RouteKind::Intra,
            sweep,
            shards: None,
            workers: None,
            fault: (kind == SpecKind::Robustness).then(FaultSpec::default),
            trace: false,
        }
    }

    /// The base [`Scenario`] this spec describes (sweeps override one
    /// field per point).
    pub fn scenario(&self) -> Scenario {
        Scenario {
            nodes: self.nodes,
            side: self.side,
            radius: self.radius,
            speed: self.speed,
            mobility: MobilityKind::EpochRandomDirection { epoch: self.epoch },
        }
    }

    /// The measurement [`Protocol`] this spec describes.
    pub fn protocol(&self) -> Protocol {
        Protocol {
            warmup: self.warmup,
            measure: self.measure,
            seeds: self.seeds.clone(),
            dt: self.dt,
        }
    }

    /// The execution layout: `None` when the spec leaves both the layout
    /// and the worker pool to their defaults.
    pub fn shard_run(&self) -> Option<ShardRun> {
        if self.shards.is_none() && self.workers.is_none() {
            return None;
        }
        let mut run = ShardRun::resolve(self.shards.map(ShardRun::new).as_ref());
        if let Some(n) = self.workers {
            run = run.with_workers(n);
        }
        Some(run)
    }

    /// Every scenario this spec will measure (the base point, or one per
    /// sweep entry), used for validation and by [`run_scenario`].
    fn sweep_scenarios(&self) -> Vec<(f64, Scenario)> {
        let base = self.scenario();
        match self.kind {
            SpecKind::Fig1VsRange => self
                .sweep
                .iter()
                .map(|&frac| {
                    (
                        frac,
                        Scenario {
                            radius: frac * base.side,
                            ..base
                        },
                    )
                })
                .collect(),
            SpecKind::Fig2VsVelocity => self
                .sweep
                .iter()
                .map(|&v| (v, Scenario { speed: v, ..base }))
                .collect(),
            SpecKind::Fig3VsDensity => {
                let area = base.side * base.side;
                self.sweep
                    .iter()
                    .map(|&n| {
                        (
                            n / area,
                            Scenario {
                                nodes: n as usize,
                                ..base
                            },
                        )
                    })
                    .collect()
            }
            SpecKind::Single | SpecKind::Robustness => vec![(0.0, base)],
        }
    }

    /// Checks the spec against the constraints a bin would hit as panics,
    /// so a bad submission is a 400 instead of a dead worker.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes < 2 {
            return Err(format!("nodes must be >= 2, got {}", self.nodes));
        }
        if !self.side.is_finite() || self.side <= 0.0 {
            return Err(format!("side must be positive, got {}", self.side));
        }
        if !self.dt.is_finite() || self.dt <= 0.0 {
            return Err(format!("dt must be positive, got {}", self.dt));
        }
        if !self.measure.is_finite() || self.measure <= 0.0 {
            return Err(format!("measure must be positive, got {}", self.measure));
        }
        if !self.warmup.is_finite() || self.warmup < 0.0 {
            return Err(format!("warmup must be finite and >= 0: {}", self.warmup));
        }
        if self.seeds.is_empty() {
            return Err("seeds must be non-empty".to_string());
        }
        if !self.epoch.is_finite() || self.epoch <= 0.0 {
            return Err(format!("epoch must be positive, got {}", self.epoch));
        }
        match self.kind {
            SpecKind::Single | SpecKind::Robustness => {
                if !self.sweep.is_empty() {
                    return Err(format!(
                        "kind {:?} takes no sweep grid ({} values given)",
                        self.kind.name(),
                        self.sweep.len()
                    ));
                }
            }
            _ => {
                if self.sweep.is_empty() {
                    return Err(format!("kind {:?} needs a sweep grid", self.kind.name()));
                }
            }
        }
        if self.kind == SpecKind::Fig3VsDensity {
            for &n in &self.sweep {
                if n.fract() != 0.0 || n < 2.0 {
                    return Err(format!(
                        "fig3 sweep entries must be node counts >= 2, got {n}"
                    ));
                }
            }
        }
        match (&self.fault, self.kind) {
            (Some(_), SpecKind::Robustness) | (None, _) => {}
            (Some(_), _) => {
                return Err(format!(
                    "fault config is only valid for kind {:?}",
                    SpecKind::Robustness.name()
                ));
            }
        }
        if self.kind == SpecKind::Robustness {
            let fault = self
                .fault
                .as_ref()
                .ok_or("robustness needs a fault config")?;
            if fault.loss.is_empty() {
                return Err("fault.loss must be non-empty".to_string());
            }
            for &p in &fault.loss {
                if !(0.0..1.0).contains(&p) {
                    return Err(format!("fault.loss entries must be in [0, 1), got {p}"));
                }
                if fault.burst && p >= 0.8 {
                    return Err(format!(
                        "burst loss must stay below the bad-state loss 0.8, got {p}"
                    ));
                }
            }
            if fault.crash_rate < 0.0 {
                return Err(format!(
                    "fault.crash_rate must be >= 0, got {}",
                    fault.crash_rate
                ));
            }
        }
        // Every point runs on the resolved layout, under the plane's own
        // ghost-margin rule.
        let dims = ShardRun::resolve(self.shard_run().as_ref()).dims;
        for (_, s) in self.sweep_scenarios() {
            if !(s.radius > 0.0 && s.radius < s.side) {
                return Err(format!(
                    "radius must satisfy 0 < r < side, got r={} side={}",
                    s.radius, s.side
                ));
            }
            if !s.speed.is_finite() || s.speed < 0.0 {
                return Err(format!("speed must be finite and >= 0, got {}", s.speed));
            }
            if s.nodes > MAX_NODES {
                return Err(format!("nodes must be <= {MAX_NODES}, got {}", s.nodes));
            }
            let cells = (s.side / s.radius).floor().powi(2);
            if cells > MAX_GRID_CELLS {
                return Err(format!(
                    "spatial grid of floor(side/r)^2 = {cells} cells exceeds {MAX_GRID_CELLS} \
                     (side={} r={})",
                    s.side, s.radius
                ));
            }
            // The expected degree does not depend on speed.
            let params = NetworkParams::new(s.nodes, s.side, s.radius, 0.0)
                .map_err(|e| format!("scenario point: {e}"))?;
            let entries = s.nodes as f64 * DegreeModel::TorusExact.expected_degree(&params);
            if entries > MAX_NEIGHBOR_ENTRIES {
                return Err(format!(
                    "expected neighbor entries N*d = {entries:.0} exceed {MAX_NEIGHBOR_ENTRIES} \
                     (nodes={} side={} r={})",
                    s.nodes, s.side, s.radius
                ));
            }
            let region = SquareRegion::new(s.side);
            match ShardLayout::new(dims, region, ghost_margin(s.radius), false) {
                Ok(_) => {}
                Err(ShardLayoutError::TileTooSmall { tile, margin }) => {
                    return Err(format!(
                        "shard layout {dims}: tile width {tile} is narrower than the \
                         ghost margin {margin} of radius {}",
                        s.radius
                    ));
                }
                Err(e) => return Err(format!("shard layout {dims}: {e}")),
            }
        }
        if self.workers == Some(0) {
            return Err("workers must be >= 1 when set".to_string());
        }
        Ok(())
    }

    /// The spec as a JSON value with every default materialized and
    /// fields in a fixed order.
    pub fn to_value(&self) -> Value {
        let mut pairs: Vec<(String, Value)> = vec![
            ("kind".into(), self.kind.name().into()),
            ("nodes".into(), self.nodes.into()),
            ("side".into(), self.side.into()),
            ("radius".into(), self.radius.into()),
            ("speed".into(), self.speed.into()),
            ("epoch".into(), self.epoch.into()),
            ("warmup".into(), self.warmup.into()),
            ("measure".into(), self.measure.into()),
            ("dt".into(), self.dt.into()),
            (
                "seeds".into(),
                Value::Arr(self.seeds.iter().map(|&s| s.into()).collect()),
            ),
            ("policy".into(), self.policy.name().into()),
            ("route".into(), self.route.name().into()),
            (
                "sweep".into(),
                Value::Arr(self.sweep.iter().map(|&x| x.into()).collect()),
            ),
            (
                "shards".into(),
                self.shards
                    .map_or(Value::Null, |d| d.to_string().as_str().into()),
            ),
            (
                "workers".into(),
                self.workers.map_or(Value::Null, Value::from),
            ),
        ];
        let fault = match &self.fault {
            None => Value::Null,
            Some(f) => Value::Obj(vec![
                (
                    "loss".into(),
                    Value::Arr(f.loss.iter().map(|&p| p.into()).collect()),
                ),
                ("crash_rate".into(), f.crash_rate.into()),
                ("burst".into(), f.burst.into()),
            ]),
        };
        pairs.push(("fault".into(), fault));
        pairs.push(("trace".into(), self.trace.into()));
        Value::Obj(pairs)
    }

    /// The canonical serialized form — the jobs plane's cache key. Two
    /// submissions that describe the same experiment (whatever their
    /// formatting, key order, or omitted defaults) canonicalize to the
    /// same string.
    pub fn canonical(&self) -> String {
        self.to_value().to_string()
    }

    /// Parses a spec from JSON text: `kind` selects a [`preset`], every
    /// other present key overrides it, unknown keys are rejected.
    ///
    /// [`preset`]: ScenarioSpec::preset
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed, unknown, or
    /// constraint-violating field.
    pub fn from_json(text: &str) -> Result<ScenarioSpec, String> {
        let value = Value::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
        let Value::Obj(pairs) = &value else {
            return Err("spec must be a JSON object".to_string());
        };
        let kind_name = value
            .get("kind")
            .and_then(Value::as_str)
            .ok_or("spec needs a string \"kind\"")?;
        let kind = SpecKind::from_name(kind_name).ok_or_else(|| {
            let names: Vec<&str> = SpecKind::ALL.iter().map(|k| k.name()).collect();
            format!("unknown kind {kind_name:?} (expected one of {names:?})")
        })?;
        let mut spec = ScenarioSpec::preset(kind);
        for (key, v) in pairs {
            match key.as_str() {
                "kind" => {}
                "nodes" => spec.nodes = usize_field(v, key)?,
                "side" => spec.side = f64_field(v, key)?,
                "radius" => spec.radius = f64_field(v, key)?,
                "speed" => spec.speed = f64_field(v, key)?,
                "epoch" => spec.epoch = f64_field(v, key)?,
                "warmup" => spec.warmup = f64_field(v, key)?,
                "measure" => spec.measure = f64_field(v, key)?,
                "dt" => spec.dt = f64_field(v, key)?,
                "seeds" => {
                    spec.seeds = array_field(v, key)?
                        .iter()
                        .map(|s| {
                            s.as_u64()
                                .ok_or(format!("{key:?} entries must be integers"))
                        })
                        .collect::<Result<_, _>>()?;
                }
                "policy" => {
                    let name = str_field(v, key)?;
                    spec.policy = PolicyKind::from_name(name)
                        .ok_or_else(|| format!("unknown policy {name:?} (lid | hcc)"))?;
                }
                "route" => {
                    let name = str_field(v, key)?;
                    spec.route = RouteKind::from_name(name)
                        .ok_or_else(|| format!("unknown route {name:?} (intra)"))?;
                }
                "sweep" => {
                    spec.sweep = array_field(v, key)?
                        .iter()
                        .map(|x| x.as_f64().ok_or(format!("{key:?} entries must be numbers")))
                        .collect::<Result<_, _>>()?;
                }
                "shards" => {
                    spec.shards = match v {
                        Value::Null => None,
                        _ => Some(
                            ShardDims::parse(str_field(v, key)?)
                                .map_err(|e| format!("{key:?}: {e}"))?,
                        ),
                    };
                }
                "workers" => {
                    spec.workers = match v {
                        Value::Null => None,
                        _ => Some(usize_field(v, key)?),
                    };
                }
                "fault" => {
                    spec.fault = match v {
                        Value::Null => None,
                        Value::Obj(fault_pairs) => Some(fault_field(fault_pairs)?),
                        _ => return Err("\"fault\" must be an object or null".to_string()),
                    };
                }
                "trace" => {
                    spec.trace = v
                        .as_bool()
                        .ok_or_else(|| format!("{key:?} must be a boolean"))?;
                }
                _ => return Err(format!("unknown spec key {key:?}")),
            }
        }
        spec.validate()?;
        Ok(spec)
    }
}

fn f64_field(v: &Value, key: &str) -> Result<f64, String> {
    v.as_f64()
        .ok_or_else(|| format!("{key:?} must be a number"))
}

fn usize_field(v: &Value, key: &str) -> Result<usize, String> {
    v.as_u64()
        .map(|n| n as usize)
        .ok_or_else(|| format!("{key:?} must be a non-negative integer"))
}

fn str_field<'v>(v: &'v Value, key: &str) -> Result<&'v str, String> {
    v.as_str()
        .ok_or_else(|| format!("{key:?} must be a string"))
}

fn array_field<'v>(v: &'v Value, key: &str) -> Result<&'v [Value], String> {
    v.as_array()
        .ok_or_else(|| format!("{key:?} must be an array"))
}

fn fault_field(pairs: &[(String, Value)]) -> Result<FaultSpec, String> {
    let mut fault = FaultSpec::default();
    for (key, fv) in pairs {
        match key.as_str() {
            "loss" => {
                fault.loss = array_field(fv, key)?
                    .iter()
                    .map(|x| x.as_f64().ok_or(format!("{key:?} entries must be numbers")))
                    .collect::<Result<_, _>>()?;
            }
            "crash_rate" => fault.crash_rate = f64_field(fv, key)?,
            "burst" => {
                fault.burst = fv
                    .as_bool()
                    .ok_or_else(|| format!("{key:?} must be a boolean"))?;
            }
            _ => return Err(format!("unknown fault key {key:?}")),
        }
    }
    Ok(fault)
}

/// Why a scenario run produced no result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The cancel token fired mid-run; partial results were discarded.
    Cancelled,
    /// The spec failed validation.
    Invalid(String),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Cancelled => f.write_str("run cancelled"),
            RunError::Invalid(why) => write!(f, "invalid spec: {why}"),
        }
    }
}

impl std::error::Error for RunError {}

/// What [`run_scenario`] produced, by spec kind.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioOutput {
    /// A figure sweep (fig1/fig2/fig3).
    Figure(Figure),
    /// Robustness rows, one per loss probability.
    Robustness(Vec<RobustnessRow>),
    /// One measured point.
    Single(Measured),
}

/// Runs `spec` in-process through the same measurement cores the
/// experiment binaries use. Deterministic: a fixed spec produces
/// bit-identical output at any shard layout or worker count, which is
/// what makes the jobs plane's (spec, seed) cache sound.
///
/// # Errors
///
/// [`RunError::Invalid`] when the spec fails [`ScenarioSpec::validate`];
/// [`RunError::Cancelled`] when `cancel` fired mid-run.
pub fn run_scenario(
    spec: &ScenarioSpec,
    cancel: Option<&CancelToken>,
) -> Result<ScenarioOutput, RunError> {
    run_observed(spec, cancel, None)
}

/// Runs `spec` as the jobs plane serves it: [`run_scenario`]'s output,
/// plus, when `spec.trace` asks for one, the JSONL trace of the spec's
/// base scenario that [`trace_run_to_string`](crate::trace::trace_run_to_string)
/// writes (meta line, events, profile line).
///
/// When that trace *is* the measurement's first run (a `single` LID spec
/// whose warmup and measurement tick counts add up to the trace's), the
/// capture rides along on it and the seed is simulated once. Any other
/// traced spec captures its trace in a separate run after the
/// measurement, which polls `cancel` as the measurement does.
///
/// # Errors
///
/// As [`run_scenario`]; [`RunError::Cancelled`] also when `cancel` fired
/// during a separate capture, and [`RunError::Invalid`] when writing the
/// in-memory trace failed.
pub fn run_scenario_with_trace(
    spec: &ScenarioSpec,
    cancel: Option<&CancelToken>,
) -> Result<(ScenarioOutput, Option<String>), RunError> {
    if !spec.trace {
        return run_scenario(spec, cancel).map(|output| (output, None));
    }
    let config = TelemetryConfig::in_memory(spec.kind.name());
    let (scenario, protocol) = (spec.scenario(), spec.protocol());
    let sink = Some(memory_sink());
    let (output, writer) = if traces_its_run(spec) {
        let mut capture = TraceCapture::new(&scenario, &protocol, &config, sink);
        let output = run_observed(spec, cancel, Some(&mut capture))?;
        let (_, writer) = capture.finish().map_err(capture_failed)?;
        (output, writer)
    } else {
        let output = run_scenario(spec, cancel)?;
        let run = spec.shard_run();
        let (_, writer) =
            trace_run_to_sink(&scenario, &protocol, &config, run.as_ref(), sink, cancel)
                .map_err(capture_failed)?
                .ok_or(RunError::Cancelled)?;
        (output, writer)
    };
    Ok((output, Some(jsonl_text(writer).map_err(capture_failed)?)))
}

/// Whether `spec`'s trace is exactly its measurement's first run: the
/// trace runs LID on the base scenario for `round((warmup + measure) /
/// dt)` ticks from `t = 0`, which is what a `single` LID measurement
/// ticks for its first seed when the warmup's and the measurement's
/// rounded tick counts add up to it.
fn traces_its_run(spec: &ScenarioSpec) -> bool {
    let ticks = |seconds: f64| (seconds / spec.dt).round() as usize;
    spec.kind == SpecKind::Single
        && spec.policy == PolicyKind::Lid
        && ticks(spec.warmup + spec.measure) == ticks(spec.warmup) + ticks(spec.measure)
}

fn capture_failed(e: io::Error) -> RunError {
    RunError::Invalid(format!("trace capture failed: {e}"))
}

/// [`run_scenario`] with an optional capture observing the first seed of
/// a `single` spec's measurement.
fn run_observed(
    spec: &ScenarioSpec,
    cancel: Option<&CancelToken>,
    capture: Option<&mut TraceCapture<Vec<u8>>>,
) -> Result<ScenarioOutput, RunError> {
    spec.validate().map_err(RunError::Invalid)?;
    let protocol = spec.protocol();
    let run = spec.shard_run();
    let run = run.as_ref();
    let measure_point = |s: &Scenario, capture| {
        measure_with_policy_ctl(s, &protocol, run, cancel, capture, |_| spec.policy)
    };
    let sweep_point = |s: &Scenario| measure_point(s, None);
    match spec.kind {
        SpecKind::Fig1VsRange => sweep_with("r/a", spec.sweep_scenarios(), sweep_point)
            .map(ScenarioOutput::Figure)
            .ok_or(RunError::Cancelled),
        SpecKind::Fig2VsVelocity => sweep_with("v [m/s]", spec.sweep_scenarios(), sweep_point)
            .map(ScenarioOutput::Figure)
            .ok_or(RunError::Cancelled),
        SpecKind::Fig3VsDensity => sweep_with("rho [1/m^2]", spec.sweep_scenarios(), sweep_point)
            .map(ScenarioOutput::Figure)
            .ok_or(RunError::Cancelled),
        SpecKind::Single => measure_point(&spec.scenario(), capture)
            .map(ScenarioOutput::Single)
            .ok_or(RunError::Cancelled),
        SpecKind::Robustness => {
            let fault = spec.fault.clone().unwrap_or_default();
            let scenario = spec.scenario();
            fault
                .loss
                .iter()
                .map(|&p| {
                    row_ctl(
                        &scenario,
                        &protocol,
                        p,
                        fault.crash_rate,
                        fault.burst,
                        run,
                        cancel,
                    )
                })
                .collect::<Option<Vec<_>>>()
                .map(ScenarioOutput::Robustness)
                .ok_or(RunError::Cancelled)
        }
    }
}

fn estimate_value(e: &Estimate) -> Value {
    Value::Obj(vec![
        ("mean".into(), e.mean.into()),
        ("ci95".into(), e.ci95.into()),
    ])
}

fn measured_value(m: &Measured) -> Value {
    Value::Obj(vec![
        ("f_hello".into(), estimate_value(&m.f_hello)),
        ("f_cluster".into(), estimate_value(&m.f_cluster)),
        ("f_cluster_break".into(), estimate_value(&m.f_cluster_break)),
        (
            "f_cluster_contact".into(),
            estimate_value(&m.f_cluster_contact),
        ),
        ("f_route".into(), estimate_value(&m.f_route)),
        ("f_route_entries".into(), estimate_value(&m.f_route_entries)),
        ("head_ratio".into(), estimate_value(&m.head_ratio)),
        ("mean_degree".into(), estimate_value(&m.mean_degree)),
        ("link_gen_rate".into(), estimate_value(&m.link_gen_rate)),
        (
            "link_change_rate".into(),
            estimate_value(&m.link_change_rate),
        ),
    ])
}

fn fault_measured_value(m: &FaultMeasured) -> Value {
    Value::Obj(vec![
        ("f_hello".into(), estimate_value(&m.f_hello)),
        ("f_cluster".into(), estimate_value(&m.f_cluster)),
        ("f_retransmit".into(), estimate_value(&m.f_retransmit)),
        ("f_repair".into(), estimate_value(&m.f_repair)),
        ("f_route".into(), estimate_value(&m.f_route)),
        ("f_resync".into(), estimate_value(&m.f_resync)),
        ("total".into(), estimate_value(&m.total)),
        ("lost_fraction".into(), estimate_value(&m.lost_fraction)),
        ("head_ratio".into(), estimate_value(&m.head_ratio)),
        ("violations_end".into(), estimate_value(&m.violations_end)),
    ])
}

/// Renders a run's result as the canonical JSON document the jobs plane
/// serves (and caches byte-for-byte): the spec echo plus the
/// kind-dependent payload. Deterministic — identical runs render
/// identical bytes.
pub fn result_json(spec: &ScenarioSpec, output: &ScenarioOutput) -> Value {
    let mut pairs: Vec<(String, Value)> = vec![
        ("type".into(), "result".into()),
        ("kind".into(), spec.kind.name().into()),
        ("spec".into(), spec.to_value()),
    ];
    match output {
        ScenarioOutput::Figure(fig) => {
            pairs.push(("x_label".into(), fig.x_label.into()));
            let points: Vec<Value> = fig
                .points
                .iter()
                .map(|p| {
                    Value::Obj(vec![
                        ("x".into(), p.x.into()),
                        ("sim".into(), measured_value(&p.sim)),
                        ("ana_f_hello".into(), p.ana_f_hello.into()),
                        ("ana_f_cluster".into(), p.ana_f_cluster.into()),
                        ("ana_f_route".into(), p.ana_f_route.into()),
                    ])
                })
                .collect();
            pairs.push(("points".into(), Value::Arr(points)));
            let (hello, cluster, route) = fig.agreement();
            pairs.push((
                "agreement".into(),
                Value::Obj(vec![
                    ("hello".into(), hello.into()),
                    ("cluster".into(), cluster.into()),
                    ("route".into(), route.into()),
                ]),
            ));
        }
        ScenarioOutput::Robustness(rows) => {
            let rows: Vec<Value> = rows
                .iter()
                .map(|r| {
                    Value::Obj(vec![
                        ("loss_p".into(), r.loss_p.into()),
                        ("crash_rate".into(), r.crash_rate.into()),
                        ("measured".into(), fault_measured_value(&r.measured)),
                        ("ideal_bound".into(), r.ideal_bound.into()),
                    ])
                })
                .collect();
            pairs.push(("rows".into(), Value::Arr(rows)));
        }
        ScenarioOutput::Single(m) => {
            pairs.push(("measured".into(), measured_value(m)));
        }
    }
    Value::Obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_single() -> ScenarioSpec {
        ScenarioSpec {
            nodes: 80,
            side: 500.0,
            radius: 100.0,
            warmup: 10.0,
            measure: 30.0,
            dt: 0.5,
            seeds: vec![7],
            ..ScenarioSpec::preset(SpecKind::Single)
        }
    }

    #[test]
    fn canonical_is_stable_across_json_formatting_variants() {
        let spec = ScenarioSpec::preset(SpecKind::Fig1VsRange);
        let canonical = spec.canonical();
        // Round-trips through the codec.
        let reparsed = ScenarioSpec::from_json(&canonical).expect("canonical form parses");
        assert_eq!(reparsed, spec);
        assert_eq!(reparsed.canonical(), canonical);
        // Omitted defaults and shuffled keys collapse to the same key.
        let sparse = ScenarioSpec::from_json(r#"{"kind": "fig1_vs_range"}"#).expect("sparse");
        assert_eq!(sparse.canonical(), canonical);
        let shuffled =
            ScenarioSpec::from_json(r#"{ "policy" : "lid" , "kind" : "fig1_vs_range" }"#)
                .expect("shuffled");
        assert_eq!(shuffled.canonical(), canonical);
        // A real override changes it.
        let other = ScenarioSpec::from_json(r#"{"kind":"fig1_vs_range","seeds":[5]}"#)
            .expect("seed override");
        assert_ne!(other.canonical(), canonical);
    }

    #[test]
    fn from_json_rejects_malformed_specs() {
        for (text, needle) in [
            ("[]", "object"),
            (r#"{"nodes":10}"#, "kind"),
            (r#"{"kind":"figX"}"#, "unknown kind"),
            (r#"{"kind":"single","bogus":1}"#, "unknown spec key"),
            (r#"{"kind":"single","nodes":1}"#, "nodes"),
            (r#"{"kind":"single","seeds":[]}"#, "seeds"),
            (r#"{"kind":"single","sweep":[0.1]}"#, "no sweep"),
            (r#"{"kind":"fig1_vs_range","sweep":[]}"#, "needs a sweep"),
            (r#"{"kind":"fig3_vs_density","sweep":[1.5]}"#, "node counts"),
            (r#"{"kind":"single","warmup":1e999}"#, "warmup"),
            (r#"{"kind":"single","speed":-3}"#, "speed"),
            (r#"{"kind":"fig2_vs_velocity","sweep":[5,1e999]}"#, "speed"),
            (r#"{"kind":"single","epoch":0}"#, "epoch"),
            (r#"{"kind":"single","fault":{}}"#, "only valid"),
            (r#"{"kind":"single","shards":"0x2"}"#, "shards"),
            (
                r#"{"kind":"single","radius":300.0,"side":500.0,"shards":"2x2","nodes":80}"#,
                "narrower",
            ),
            (
                r#"{"kind":"single","nodes":60,"side":1000,"radius":250,"shards":"4x4","warmup":2,"measure":4,"dt":0.5,"seeds":[7]}"#,
                "narrower",
            ),
            (
                r#"{"kind":"robustness","fault":{"loss":[0.85],"burst":true}}"#,
                "bad-state",
            ),
            (
                r#"{"kind":"single","nodes":4000000000,"side":1e9,"radius":100,"warmup":0,"measure":1,"dt":0.5,"seeds":[1]}"#,
                "nodes must be <=",
            ),
            (
                r#"{"kind":"single","nodes":80,"side":1e9,"radius":100,"warmup":0,"measure":1,"dt":0.5,"seeds":[1]}"#,
                "spatial grid",
            ),
            (
                r#"{"kind":"single","nodes":50000,"side":1000,"radius":900}"#,
                "neighbor entries",
            ),
        ] {
            let err = ScenarioSpec::from_json(text).expect_err(text);
            assert!(err.contains(needle), "{text}: {err:?} missing {needle:?}");
        }
    }

    /// The size bounds admit every preset and the largest point the repo
    /// runs, the benchmark's scale-100k.
    #[test]
    fn size_bounds_admit_the_points_the_repo_runs() {
        for kind in SpecKind::ALL {
            let preset = ScenarioSpec::preset(kind);
            assert_eq!(preset.validate(), Ok(()), "{}", kind.name());
        }
        ScenarioSpec::from_json(
            r#"{"kind":"single","nodes":100000,"side":15811.388300841898,"radius":150,"dt":0.5,"shards":"2x2"}"#,
        )
        .expect("scale-100k");
    }

    #[test]
    fn run_scenario_single_matches_the_bin_core_and_cancels() {
        let spec = tiny_single();
        let out = run_scenario(&spec, None).expect("uncancelled run");
        let ScenarioOutput::Single(measured) = &out else {
            panic!("single spec yields a single measurement");
        };
        let direct = crate::harness::measure_lid(&spec.scenario(), &spec.protocol());
        assert_eq!(*measured, direct);
        // The result document is byte-stable across repeat runs.
        let again = run_scenario(&spec, None).expect("second run");
        assert_eq!(
            result_json(&spec, &out).to_string(),
            result_json(&spec, &again).to_string()
        );
        // A pre-cancelled token aborts without numbers.
        let cancel = CancelToken::new();
        cancel.cancel();
        assert_eq!(run_scenario(&spec, Some(&cancel)), Err(RunError::Cancelled));
    }

    /// A traced spec runs once exactly when its trace is its
    /// measurement's first run: the jobs-mix traced point does; an HCC
    /// point, a robustness or figure spec, and a point whose warmup and
    /// measurement round to 2 + 2 ticks of the trace's 3 do not.
    #[test]
    fn only_a_trace_that_is_the_first_run_rides_on_it() {
        let jobs_mix = r#"{"kind":"single","nodes":200,"side":707.1067811865475,"radius":150,
            "speed":10,"epoch":20,"warmup":5,"measure":10,"dt":0.25,"seeds":[1],"trace":true}"#;
        let spec = ScenarioSpec::from_json(jobs_mix).expect("jobs-mix spec");
        assert!(traces_its_run(&spec));
        for other in [
            ScenarioSpec {
                policy: PolicyKind::Hcc,
                ..spec.clone()
            },
            ScenarioSpec {
                trace: true,
                ..ScenarioSpec::preset(SpecKind::Robustness)
            },
            ScenarioSpec {
                trace: true,
                ..ScenarioSpec::preset(SpecKind::Fig1VsRange)
            },
            ScenarioSpec {
                warmup: 0.375,
                measure: 0.375,
                ..spec.clone()
            },
        ] {
            assert_eq!(other.validate(), Ok(()));
            assert!(!traces_its_run(&other), "{}", other.canonical());
        }
    }

    /// The one-run path rides the trace on the first seed only: with two
    /// seeds the numbers are the plain run's and the trace is the first
    /// seed's, as a separate capture writes it (profile line aside).
    #[test]
    fn a_one_run_trace_is_the_first_seeds_capture() {
        let spec = ScenarioSpec {
            seeds: vec![7, 8],
            trace: true,
            ..tiny_single()
        };
        assert!(traces_its_run(&spec));
        let (output, trace) = run_scenario_with_trace(&spec, None).expect("traced run");
        assert_eq!(output, run_scenario(&spec, None).expect("plain run"));
        let config = TelemetryConfig::in_memory(spec.kind.name());
        let (_, direct) =
            crate::trace::trace_run_to_string(&spec.scenario(), &spec.protocol(), &config, None)
                .expect("separate capture");
        let events = |t: &str| -> Vec<String> {
            t.lines()
                .filter(|l| !l.starts_with(r#"{"type":"profile""#))
                .map(str::to_string)
                .collect()
        };
        let trace = trace.expect("a traced spec returns its trace");
        assert!(events(&trace).len() > 100);
        assert_eq!(events(&trace), events(&direct));
    }

    #[test]
    fn sharded_spec_reproduces_the_monolithic_bytes() {
        // Captured from the monolithic loop on this very scenario (see
        // the root `tests/golden_parity.rs`).
        let golden = include_str!("../../../tests/golden/measured_lid.txt");
        let mut spec = tiny_single();
        // The layout is an execution hint: the default and an explicit
        // 2x2 layout yield the monolithic numbers, and the result bodies
        // differ only in the spec echo. An explicit worker count wins.
        for (shards, workers) in [
            (None, None),
            (None, Some(2)),
            (ShardDims::parse("2x2").ok(), Some(2)),
        ] {
            spec.shards = shards;
            spec.workers = workers;
            assert_eq!(spec.shard_run().map(|r| r.worker_count()), workers);
            let ScenarioOutput::Single(measured) = run_scenario(&spec, None).expect("run") else {
                panic!("single spec yields a single measurement");
            };
            assert_eq!(format!("{measured:#?}\n"), golden, "{shards:?}");
        }
    }
}
