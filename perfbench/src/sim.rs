//! The simulation workloads: `paper-400` (the paper's default point on the
//! monolithic bundle, one thread) and `scale-100k` (the same density at
//! N = 100 000 on the 2x2 shard plane with two workers).
//!
//! A run sets the stack up several times (the last build runs), ticks
//! through a warm-up, then times untraced ticks for the requested seconds.
//! It then replays the same seed through the traced stage wrapper (every
//! tick when tracing, else the allocation window): the per-tick reports
//! must match, and the spans give the per-stage numbers. A traced
//! `scale-100k` run replays once more on a 1x1 plane with one worker for
//! the two-worker speedups.

use crate::engine::{Recorder, Span, Stack, Stage, Stages};
use crate::report::Outcome;
use crate::stats;
use manet_cluster::{Clustering, LowestId};
use manet_geom::ShardDims;
use manet_model::{lid, DegreeModel, NetworkParams, OverheadModel};
use manet_routing::intra::IntraClusterRouting;
use manet_sim::{QuietCtx, SimBuilder};
use manet_stack::{ProtocolStack, StackReport};
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Radio range and node speed shared by both workloads (the paper's
/// defaults; the builder's defaults supply τ = 20 s epoch random direction
/// and event-driven HELLO).
const RADIUS: f64 = 150.0;
const SPEED: f64 = 10.0;

/// Relative tolerance of the measured per-node link-change rate against
/// Claim 2 (the same bound as the `measured_link_rate_matches_claim2`
/// unit test).
const LINK_RATE_TOL: f64 = 0.15;

/// One simulation workload.
pub struct SimWorkload {
    pub name: &'static str,
    nodes: usize,
    side: f64,
    dt: f64,
    /// Shard layout; `None` runs the monolithic bundle.
    layout: Option<&'static str>,
    workers: usize,
    warm_ticks: usize,
    setup_reps: usize,
    /// Allocation counts cover this many measured ticks, so they repeat
    /// exactly whatever the run's length.
    alloc_ticks: usize,
}

pub const PAPER_400: SimWorkload = SimWorkload {
    name: "paper-400",
    nodes: 400,
    side: 1000.0,
    dt: 0.25,
    layout: None,
    workers: 1,
    warm_ticks: 400,
    setup_reps: 9,
    alloc_ticks: 400,
};

pub const SCALE_100K: SimWorkload = SimWorkload {
    name: "scale-100k",
    nodes: 100_000,
    // sqrt(100 000 / 400) × 1000 m: the paper's density.
    side: 15_811.388_300_841_898,
    dt: 0.5,
    layout: Some("2x2"),
    workers: 2,
    warm_ticks: 3,
    setup_reps: 5,
    alloc_ticks: 10,
};

/// A stack ready to tick, with the set-up time of each step.
struct Built {
    stack: Stack,
    stages: Stages,
    quiet: QuietCtx,
    /// World build, cluster formation, stage bundle, route baseline (s).
    times: [f64; 4],
}

/// Running sums over the timed ticks. The run keeps whole reports only
/// for the ticks it compares, so its own memory does not grow with the
/// program's speed and move `peak_rss_mib`.
#[derive(Default)]
struct Traffic {
    ticks: u64,
    link_events: u64,
    head_ratio: f64,
    cluster_msgs: u64,
    route_msgs: u64,
    route_entries: u64,
}

impl Traffic {
    fn add(&mut self, r: &StackReport) {
        self.ticks += 1;
        self.link_events += r.generated + r.broken;
        self.head_ratio += r.head_ratio;
        self.cluster_msgs += r.cluster.cluster_messages();
        self.route_msgs += r.route.route_messages;
        self.route_entries += r.route.route_entries;
    }
}

/// Per-stage totals over one traced pass.
#[derive(Default)]
struct StageTotals {
    ticks: usize,
    /// Summed span time per stage, ms (index: `Stage` order, tick first).
    ms: [f64; 6],
    /// Allocations per stage over the first `alloc_ticks` ticks.
    allocs: [u64; 6],
    alloc_ticks: usize,
}

fn slot(stage: Stage) -> usize {
    match stage {
        Stage::Tick => 0,
        Stage::Mobility => 1,
        Stage::Topology => 2,
        Stage::Hello => 3,
        Stage::Cluster => 4,
        Stage::Route => 5,
    }
}

impl StageTotals {
    fn from_spans(spans: &[Span], ticks: usize, alloc_ticks: usize) -> StageTotals {
        let alloc_ticks = alloc_ticks.min(ticks);
        let mut t = StageTotals {
            ticks,
            alloc_ticks,
            ..StageTotals::default()
        };
        for s in spans {
            t.ms[slot(s.stage)] += s.ms();
            if (s.tick as usize) < alloc_ticks {
                t.allocs[slot(s.stage)] += s.allocs;
            }
        }
        t
    }

    fn ms_per_tick(&self, stage: Stage) -> f64 {
        self.ms[slot(stage)] / self.ticks.max(1) as f64
    }

    fn allocs_per_tick(&self, stage: Stage) -> f64 {
        self.allocs[slot(stage)] as f64 / self.alloc_ticks.max(1) as f64
    }

    /// Tick time not covered by a stage span: world churn, diff, link
    /// events, HELLO accounting and the stack's counters.
    fn self_ms_per_tick(&self) -> f64 {
        let children: f64 = Stage::CHILDREN.iter().map(|&s| self.ms_per_tick(s)).sum();
        self.ms_per_tick(Stage::Tick) - children
    }

    fn self_allocs_per_tick(&self) -> f64 {
        let children: u64 = Stage::CHILDREN.iter().map(|&s| self.allocs[slot(s)]).sum();
        // Stage spans nest inside their tick span, so this cannot underflow.
        (self.allocs[slot(Stage::Tick)] - children) as f64 / self.alloc_ticks.max(1) as f64
    }
}

/// One traced replay: the reports, the spans and the plane statistics.
struct TracedPass {
    reports: Vec<StackReport>,
    rec: Recorder,
    totals: StageTotals,
    ghosts: u64,
    migrations: u64,
    imbalance: f64,
}

impl SimWorkload {
    fn dims(&self) -> Option<ShardDims> {
        self.layout
            .map(|l| ShardDims::parse(l).expect("workload layouts are valid"))
    }

    fn build(&self, seed: u64, dims: Option<ShardDims>, workers: usize) -> Result<Built, String> {
        let t0 = Instant::now();
        let world = SimBuilder::new()
            .nodes(self.nodes)
            .side(self.side)
            .radius(RADIUS)
            .speed(SPEED)
            .dt(self.dt)
            .seed(seed)
            .try_build()
            .map_err(|e| format!("world build: {e}"))?;
        let t1 = Instant::now();
        let clustering = Clustering::form(LowestId, world.topology());
        let t2 = Instant::now();
        let stages = match dims {
            None => Stages::Mono,
            Some(dims) => Stages::plane(&world, dims, workers)?,
        };
        let mut stack = ProtocolStack::ideal(world, clustering, IntraClusterRouting::new());
        let t3 = Instant::now();
        let mut quiet = QuietCtx::new();
        stack.prime(&mut quiet.ctx());
        let t4 = Instant::now();
        let secs = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64();
        Ok(Built {
            stack,
            stages,
            quiet,
            times: [secs(t0, t1), secs(t1, t2), secs(t2, t3), secs(t3, t4)],
        })
    }

    fn warm(&self, b: &mut Built) {
        for _ in 0..self.warm_ticks {
            b.stages.tick(&mut b.stack, &mut b.quiet.ctx());
        }
    }

    /// Replays `ticks` measured ticks of `seed` through the traced wrapper.
    fn traced_pass(
        &self,
        seed: u64,
        dims: Option<ShardDims>,
        workers: usize,
        ticks: usize,
    ) -> Result<TracedPass, String> {
        let mut b = self.build(seed, dims, workers)?;
        self.warm(&mut b);
        let mut rec = Recorder::with_ticks(ticks);
        let mut reports = Vec::with_capacity(ticks);
        let (mut ghosts, mut migrations, mut imbalance) = (0u64, 0u64, 0.0f64);
        for _ in 0..ticks {
            reports.push(
                b.stages
                    .tick_traced(&mut b.stack, &mut b.quiet.ctx(), &mut rec),
            );
            if let Some(r) = b.stages.shard_report() {
                ghosts += r.ghosts as u64;
                migrations += r.migrations as u64;
                imbalance += r.max_owned as f64 * r.shards as f64 / self.nodes as f64;
            }
        }
        let totals = StageTotals::from_spans(&rec.spans, ticks, self.alloc_ticks);
        Ok(TracedPass {
            reports,
            rec,
            totals,
            ghosts,
            migrations,
            imbalance,
        })
    }

    /// Runs the workload for `seconds` of timed ticks. `traced` adds the
    /// 1x1 speedup pass and writes the spans out. With `plant`, one
    /// reference report is perturbed before the traced comparison (the
    /// self-test's planted mismatch).
    pub fn run(
        &self,
        seed: u64,
        seconds: f64,
        traced: bool,
        plant: bool,
    ) -> Result<Outcome, String> {
        let mut out = Outcome::default();
        let dims = self.dims();
        out.fact("layout", self.layout.unwrap_or("mono"));
        out.fact("workers", self.workers);
        out.fact("nodes", self.nodes);
        out.fact("dt_s", self.dt);
        out.fact("warm_ticks", self.warm_ticks);

        // Set-up, several times; the last build runs.
        let mut setups = Vec::with_capacity(self.setup_reps);
        let mut built = None;
        for _ in 0..self.setup_reps {
            drop(built.take());
            let b = self.build(seed, dims, self.workers)?;
            setups.push(b.times);
            built = Some(b);
        }
        let mut b = built.expect("setup_reps >= 1");
        let part = |i: usize| stats::median(&setups.iter().map(|t| t[i]).collect::<Vec<_>>());
        let totals: Vec<f64> = setups.iter().map(|t| t.iter().sum()).collect();
        let reps = setups.len() as u64;
        out.put("setup_s", stats::median(&totals), reps);
        out.put("setup.world_s", part(0), reps);
        out.put("setup.form_s", part(1), reps);
        out.put("setup.plane_s", part(2), reps);
        out.put("setup.prime_s", part(3), reps);

        // Untraced, timed window. The traced replay checks every tick when
        // tracing, else the allocation window.
        self.warm(&mut b);
        let keep = if traced { usize::MAX } else { self.alloc_ticks };
        let mut reports = Vec::with_capacity(self.alloc_ticks);
        let mut traffic = Traffic::default();
        let mut tick_ms = Vec::with_capacity(1 << 16);
        let start = Instant::now();
        loop {
            let t0 = Instant::now();
            let report = b.stages.tick(&mut b.stack, &mut b.quiet.ctx());
            tick_ms.push(stats::ms(t0.elapsed()));
            traffic.add(&report);
            if reports.len() < keep {
                reports.push(report);
            }
            if start.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        let window = start.elapsed().as_secs_f64();
        out.put("peak_rss_mib", stats::peak_rss_mib(), 1);
        drop(b);
        let n = tick_ms.len();
        out.put("ticks_per_s", n as f64 / window, n as u64);
        out.put("miss_p50_ms", median_slice_mean(&tick_ms), n as u64);
        out.put("miss_p90_ms", stats::quantile(&tick_ms, 0.9), n as u64);
        self.check_physics(&traffic, &mut out)?;
        put_traffic(&traffic, &mut out);

        // Traced replay of the same seed over the kept ticks.
        if plant {
            reports[0].generated += 1;
        }
        let replay = reports.len();
        let pass = self.traced_pass(seed, dims, self.workers, replay)?;
        compare(&reports, &pass.reports, "traced", &mut out);
        let t = &pass.totals;
        for (stage, ms, allocs) in [
            (
                Stage::Mobility,
                "mobility.ms_per_tick",
                "mobility.allocs_per_tick",
            ),
            (
                Stage::Topology,
                "topology.ms_per_tick",
                "topology.allocs_per_tick",
            ),
            (
                Stage::Cluster,
                "cluster.ms_per_tick",
                "cluster.allocs_per_tick",
            ),
            (Stage::Route, "route.ms_per_tick", "route.allocs_per_tick"),
        ] {
            out.put(ms, t.ms_per_tick(stage), replay as u64);
            out.put(allocs, t.allocs_per_tick(stage), t.alloc_ticks as u64);
        }
        out.put(
            "tick.ms_per_tick",
            t.ms_per_tick(Stage::Tick),
            replay as u64,
        );
        out.put(
            "world.self_ms_per_tick",
            t.self_ms_per_tick(),
            replay as u64,
        );
        out.put(
            "stack.allocs_per_tick",
            t.self_allocs_per_tick(),
            t.alloc_ticks as u64,
        );
        let untraced_ms = tick_ms.iter().sum::<f64>() / n as f64;
        out.put(
            "tracing.overhead_pct",
            (t.ms_per_tick(Stage::Tick) / untraced_ms - 1.0) * 100.0,
            n as u64,
        );
        if dims.is_some() {
            let per_tick = |x: f64| x / replay as f64;
            let samples = replay as u64;
            out.put(
                "shard.ghosts_per_tick",
                per_tick(pass.ghosts as f64),
                samples,
            );
            out.put(
                "shard.migrations_per_tick",
                per_tick(pass.migrations as f64),
                samples,
            );
            out.put("shard.owned_imbalance", per_tick(pass.imbalance), samples);
        }
        let mut passes = vec![(self.layout.unwrap_or("mono"), pass.rec)];

        // The same ticks on a 1x1 plane with one worker: the base of each
        // stage's two-worker speedup.
        if traced && dims.is_some() {
            let one = ShardDims::parse("1x1").expect("valid layout");
            let base = self.traced_pass(seed, Some(one), 1, n)?;
            compare(&reports, &base.reports, "1x1", &mut out);
            for (stage, name) in [
                (Stage::Mobility, "mobility.speedup_2w"),
                (Stage::Topology, "topology.speedup_2w"),
                (Stage::Cluster, "cluster.speedup_2w"),
                (Stage::Route, "route.speedup_2w"),
            ] {
                let two = t.ms_per_tick(stage);
                let ratio = if two > 0.0 {
                    base.totals.ms_per_tick(stage) / two
                } else {
                    0.0
                };
                out.put(name, ratio, n as u64);
            }
            passes.push(("1x1", base.rec));
        }
        let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
        out.put("failed_frac", failed_frac, out.attempted);
        if traced {
            out.spans_file = Some(write_spans(self.name, seed, &passes));
        }
        Ok(out)
    }

    /// Claim 2's link-change rate and the LID head ratio against the
    /// model, so a change that moves the physics fails the run.
    fn check_physics(&self, traffic: &Traffic, out: &mut Outcome) -> Result<(), String> {
        let params = NetworkParams::new(self.nodes, self.side, RADIUS, SPEED)
            .map_err(|e| format!("model parameters: {e}"))?;
        let model = OverheadModel::new(params, DegreeModel::TorusExact);
        // Each link event changes the neighbor set of both endpoints.
        let elapsed = traffic.ticks as f64 * self.dt;
        let rate = 2.0 * traffic.link_events as f64 / self.nodes as f64 / elapsed;
        let theory = model.link_change_rate();
        let rel = (rate - theory).abs() / theory;
        out.check(1, u64::from(!rel.is_finite() || rel >= LINK_RATE_TOL), || {
            format!("link-change rate {rate:.5}/node/s vs Claim 2 {theory:.5} (rel {rel:.3} >= {LINK_RATE_TOL})")
        });

        let p = traffic.head_ratio / traffic.ticks as f64;
        let d = DegreeModel::TorusExact.expected_degree(&params);
        let upper = lid::p_exact(d).map_err(|e| format!("Eqn 16: {e:?}"))?;
        let lower = lid::p_caro_wei(&params, DegreeModel::TorusExact);
        out.check(1, u64::from(!(lower..=upper).contains(&p)), || {
            format!("head ratio {p:.4} outside [Caro-Wei {lower:.4}, Eqn 16 {upper:.4}]")
        });
        out.fact("head_ratio", format!("{p:.5}"));
        out.fact("head_ratio_eqn16", format!("{upper:.5}"));
        out.fact("link_rate", format!("{rate:.5}"));
        out.fact("link_rate_claim2", format!("{theory:.5}"));
        Ok(())
    }
}

/// Per-tick traffic counts (deterministic for a seed and tick count).
fn put_traffic(t: &Traffic, out: &mut Outcome) {
    let per_tick = |count: u64| count as f64 / t.ticks as f64;
    out.put(
        "topology.link_events_per_tick",
        per_tick(t.link_events),
        t.ticks,
    );
    out.put("cluster.msgs_per_tick", per_tick(t.cluster_msgs), t.ticks);
    out.put("route.msgs_per_tick", per_tick(t.route_msgs), t.ticks);
    out.put("route.entries_per_tick", per_tick(t.route_entries), t.ticks);
}

/// Slices of the timed ticks `miss_p50_ms` takes its median over.
const SLICES: usize = 10;

/// The median over [`SLICES`] equal runs of consecutive ticks of each
/// run's mean tick time. A shared host alternates between a fast and a
/// slow state for seconds at a time (≈0.95 vs ≈1.3 ms per paper-400
/// tick), so the per-tick median jumps between the two from run to run;
/// slice means move only with the share of time spent in each.
fn median_slice_mean(tick_ms: &[f64]) -> f64 {
    let per = tick_ms.len().div_ceil(SLICES).max(1);
    let means: Vec<f64> = tick_ms.chunks(per).map(stats::mean).collect();
    stats::median(&means)
}

/// Counts ticks whose traced report differs from the untraced one.
fn compare(reference: &[StackReport], got: &[StackReport], pass: &str, out: &mut Outcome) {
    let differing = reference.iter().zip(got).filter(|(a, b)| a != b).count()
        + reference.len().abs_diff(got.len());
    let first = reference.iter().zip(got).position(|(a, b)| a != b);
    out.check(reference.len() as u64, differing as u64, || {
        format!(
            "{differing} of {} {pass} ticks differ from the untraced run (first at tick {first:?})",
            reference.len()
        )
    });
}

/// Writes every span as one JSON line; returns the file's path.
fn write_spans(workload: &str, seed: u64, passes: &[(&str, Recorder)]) -> String {
    let path = crate::spans_path(workload, seed);
    let written = (|| -> io::Result<()> {
        if let Some(dir) = Path::new(&path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = io::BufWriter::new(std::fs::File::create(&path)?);
        for (pass, rec) in passes {
            for s in &rec.spans {
                let parent = if s.stage == Stage::Tick {
                    "null".to_string()
                } else {
                    format!("\"tick/{}\"", s.tick)
                };
                writeln!(
                    w,
                    "{{\"pass\": \"{pass}\", \"tick\": {}, \"span\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"allocs\": {}}}",
                    s.tick,
                    s.stage.name(),
                    s.start_ns,
                    s.end_ns,
                    s.allocs
                )?;
            }
        }
        w.flush()
    })();
    match written {
        Ok(()) => path,
        Err(e) => format!("(not written: {e})"),
    }
}
