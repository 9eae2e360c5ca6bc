//! `bench_shard` — throughput of the sharded topology step across shard
//! layouts and population sizes (DESIGN.md §13).
//!
//! For each N at fixed density, measures the per-tick world step —
//! mobility, topology, diff, HELLO accounting — on the monolithic grid
//! path and on the ghost-margin shard plane at a sweep of layouts, plus
//! the steady-state allocation count of the sharded hot path (expected:
//! zero once per-shard capacities have warmed up). Results are honest to
//! the host: `host_cpus` and `workers` are recorded next to every
//! speedup, and on a single-core container the sharded layouts are
//! expected to track 1x1 (the determinism contract makes them
//! bit-identical, so the sweep is then a pure-overhead measurement).
//!
//! ```sh
//! cargo run --release -p manet-experiments --bin bench_shard          # full, writes BENCH_shard.json
//! cargo run --release -p manet-experiments --bin bench_shard -- --quick   # smoke: stdout only
//! ```

use manet_cluster::{Clustering, LowestId};
use manet_geom::ShardDims;
use manet_routing::intra::IntraClusterRouting;
use manet_shard::{ShardPlane, ShardedStack};
use manet_sim::{HelloMode, QuietCtx, Scratch, SimBuilder, StepCtx, World};
use manet_stack::ProtocolStack;
use manet_telemetry::{Probe, SpanLabel, SpanRecorder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to the system allocator; the counter is a
// relaxed atomic increment with no other side effect.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const DT: f64 = 0.5;
const RADIUS: f64 = 150.0;
const SPEED: f64 = 10.0;
const DENSITY: f64 = 400.0 / 1e6; // nodes per m², fixed across sizes

struct Row {
    /// `"world_step"`: mobility + topology + HELLO accounting only.
    /// `"full_stack"`: the whole canonical pipeline (Mobility → Topology →
    /// HELLO → Cluster → Route → Telemetry) through the stage traits.
    mode: &'static str,
    nodes: usize,
    side: f64,
    layout: String,
    shards: usize,
    workers: usize,
    measure_ticks: usize,
    ticks_per_sec: f64,
    speedup_vs_1x1: f64,
    step_allocs_per_100_ticks: u64,
    /// Max-over-mean per-shard compute wall time from the span plane
    /// (1.0 = perfectly balanced; the straggler baseline review watches).
    compute_imbalance: f64,
}

fn build_world(nodes: usize, side: f64) -> World {
    SimBuilder::new()
        .nodes(nodes)
        .side(side)
        .radius(RADIUS)
        .speed(SPEED)
        .dt(DT)
        .seed(7)
        .hello_mode(HelloMode::EventDriven)
        .build()
}

/// One (N, layout) cell: throughput over `measure_ticks`, then a
/// steady-state allocation window. `layout = None` is the monolithic
/// grid path, the reference the shard plane must not regress.
fn bench_cell(
    nodes: usize,
    layout: Option<ShardDims>,
    measure_ticks: usize,
    warm_ticks: usize,
) -> Row {
    let side = (nodes as f64 / DENSITY).sqrt();
    let mut world = build_world(nodes, side);
    let mut plane = layout.map(|dims| {
        ShardPlane::for_world(&world, dims).unwrap_or_else(|e| panic!("layout {dims}: {e}"))
    });
    let mut quiet = QuietCtx::new();
    let mut step = |world: &mut World, plane: &mut Option<ShardPlane>| match plane {
        Some(p) => world.step_staged(&mut quiet.ctx(), p),
        None => world.step(&mut quiet.ctx()),
    };

    for _ in 0..warm_ticks {
        step(&mut world, &mut plane);
    }
    let t0 = Instant::now();
    for _ in 0..measure_ticks {
        step(&mut world, &mut plane);
    }
    let elapsed = t0.elapsed().as_secs_f64();

    let alloc_window = 100;
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..alloc_window {
        step(&mut world, &mut plane);
    }
    let step_allocs = ALLOCS.load(Ordering::Relaxed) - before;

    // Straggler window: a short spanned run after the alloc window (the
    // span recorder allocates, so it must not share that window). The
    // per-shard compute spans give max/mean shard wall time — the
    // imbalance a worker-per-shard run is limited by.
    let compute_imbalance = if plane.is_some() {
        let mut spans = SpanRecorder::new();
        let mut scratch = Scratch::new();
        for _ in 0..measure_ticks.min(25) {
            let mut probe = Probe::new(None, None).with_spans(Some(&mut spans));
            let mut ctx = StepCtx::new(&mut probe, &mut scratch);
            match plane.as_mut() {
                Some(p) => world.step_staged(&mut ctx, p),
                None => unreachable!("spanned window only runs sharded"),
            };
        }
        let shards = spans.shard_slots().saturating_sub(1);
        let totals: Vec<f64> = (0..shards)
            .map(|s| {
                spans
                    .hist(SpanLabel::ShardCompute, Some(s as u16))
                    .map_or(0.0, |h| h.sum())
            })
            .collect();
        let mean = totals.iter().sum::<f64>() / totals.len().max(1) as f64;
        if mean > 0.0 {
            totals.iter().cloned().fold(0.0, f64::max) / mean
        } else {
            1.0
        }
    } else {
        1.0 // monolithic: a single undivided compute, balanced by definition
    };

    Row {
        mode: "world_step",
        nodes,
        side,
        layout: layout.map_or("mono".to_string(), |d| d.to_string()),
        shards: layout.map_or(1, |d| d.count()),
        workers: plane.as_ref().map_or(1, |p| p.workers()),
        measure_ticks,
        ticks_per_sec: measure_ticks as f64 / elapsed,
        speedup_vs_1x1: 0.0, // filled in per size group below
        step_allocs_per_100_ticks: step_allocs,
        compute_imbalance,
    }
}

/// The full canonical pipeline under bench: either the monolithic stack or
/// the sharded stack whose every stage runs on the plane.
enum StackBench {
    Mono(Box<ProtocolStack<Clustering<LowestId>, IntraClusterRouting>>),
    Sharded(Box<ShardedStack<Clustering<LowestId>, IntraClusterRouting>>),
}

impl StackBench {
    fn build(nodes: usize, side: f64, layout: Option<ShardDims>) -> Self {
        let world = build_world(nodes, side);
        let clustering = Clustering::form(LowestId, world.topology());
        match layout {
            None => StackBench::Mono(Box::new(ProtocolStack::ideal(
                world,
                clustering,
                IntraClusterRouting::new(),
            ))),
            Some(dims) => StackBench::Sharded(Box::new(
                ShardedStack::ideal(world, clustering, IntraClusterRouting::new(), dims)
                    .unwrap_or_else(|e| panic!("layout {dims}: {e}")),
            )),
        }
    }

    fn prime(&mut self, ctx: &mut StepCtx<'_, '_>) {
        match self {
            StackBench::Mono(s) => s.prime(ctx),
            StackBench::Sharded(s) => s.prime(ctx),
        }
    }

    fn tick(&mut self, ctx: &mut StepCtx<'_, '_>) {
        match self {
            StackBench::Mono(s) => {
                s.tick(ctx);
            }
            StackBench::Sharded(s) => {
                s.tick(ctx);
            }
        }
    }

    fn workers(&self) -> usize {
        match self {
            StackBench::Mono(_) => 1,
            StackBench::Sharded(s) => s.plane().workers(),
        }
    }
}

/// One (N, layout) cell of the full-stack sweep: the whole
/// Mobility→HELLO→Cluster→Route pipeline per tick, through the stage
/// traits (monolithic defaults vs the shard plane's frame-parallel
/// stages). The imbalance here aggregates *all* per-shard stage spans —
/// topology compute plus the scoped HELLO/cluster/route scans.
fn bench_stack_cell(
    nodes: usize,
    layout: Option<ShardDims>,
    measure_ticks: usize,
    warm_ticks: usize,
) -> Row {
    let side = (nodes as f64 / DENSITY).sqrt();
    let mut bench = StackBench::build(nodes, side, layout);
    let mut quiet = QuietCtx::new();
    bench.prime(&mut quiet.ctx());
    for _ in 0..warm_ticks {
        bench.tick(&mut quiet.ctx());
    }
    let t0 = Instant::now();
    for _ in 0..measure_ticks {
        bench.tick(&mut quiet.ctx());
    }
    let elapsed = t0.elapsed().as_secs_f64();

    // The cluster/route layers allocate per tick by design (they are
    // outside the world-step zero-allocation contract); the count is
    // recorded to keep that cost visible, not gated on.
    let alloc_window = 100.min(measure_ticks.max(25));
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..alloc_window {
        bench.tick(&mut quiet.ctx());
    }
    let step_allocs = (ALLOCS.load(Ordering::Relaxed) - before) * 100 / alloc_window.max(1) as u64;

    let compute_imbalance = if matches!(bench, StackBench::Sharded(_)) {
        let mut spans = SpanRecorder::new();
        let mut scratch = Scratch::new();
        for _ in 0..measure_ticks.min(25) {
            let mut probe = Probe::new(None, None).with_spans(Some(&mut spans));
            let mut ctx = StepCtx::new(&mut probe, &mut scratch);
            bench.tick(&mut ctx);
        }
        let shards = spans.shard_slots().saturating_sub(1);
        let totals: Vec<f64> = (0..shards)
            .map(|s| {
                [
                    SpanLabel::ShardCompute,
                    SpanLabel::ShardHello,
                    SpanLabel::ShardCluster,
                    SpanLabel::ShardRoute,
                ]
                .iter()
                .map(|&l| spans.hist(l, Some(s as u16)).map_or(0.0, |h| h.sum()))
                .sum()
            })
            .collect();
        let mean = totals.iter().sum::<f64>() / totals.len().max(1) as f64;
        if mean > 0.0 {
            totals.iter().cloned().fold(0.0, f64::max) / mean
        } else {
            1.0
        }
    } else {
        1.0
    };

    Row {
        mode: "full_stack",
        nodes,
        side,
        layout: layout.map_or("mono".to_string(), |d| d.to_string()),
        shards: layout.map_or(1, |d| d.count()),
        workers: bench.workers(),
        measure_ticks,
        ticks_per_sec: measure_ticks as f64 / elapsed,
        speedup_vs_1x1: 0.0,
        step_allocs_per_100_ticks: step_allocs,
        compute_imbalance,
    }
}

fn bench_size(
    nodes: usize,
    layouts: &[&str],
    measure_ticks: usize,
    warm_ticks: usize,
    cell: fn(usize, Option<ShardDims>, usize, usize) -> Row,
) -> Vec<Row> {
    let mut rows = vec![cell(nodes, None, measure_ticks, warm_ticks)];
    for l in layouts {
        let dims = ShardDims::parse(l).expect("layout literal");
        rows.push(cell(nodes, Some(dims), measure_ticks, warm_ticks));
    }
    let base = rows
        .iter()
        .find(|r| r.layout == "1x1")
        .map(|r| r.ticks_per_sec)
        .expect("sweep includes 1x1");
    for r in &mut rows {
        r.speedup_vs_1x1 = r.ticks_per_sec / base;
    }
    rows
}

/// The `--quick` stage-parallel parity gate: the full sharded stack (every
/// stage on the plane, default worker pool) must report bit-identically to
/// the monolithic stack, tick for tick. This is the cheap CI face of the
/// golden-parity suites; a nonzero exit fails `verify.sh`.
fn stage_parity_gate() -> bool {
    let nodes = 400;
    let side = (nodes as f64 / DENSITY).sqrt();
    for l in ["2x2", "4x2"] {
        let dims = ShardDims::parse(l).expect("layout literal");
        let w = build_world(nodes, side);
        let c = Clustering::form(LowestId, w.topology());
        let mut mono = ProtocolStack::ideal(w, c, IntraClusterRouting::new());
        let w = build_world(nodes, side);
        let c = Clustering::form(LowestId, w.topology());
        let mut sharded = ShardedStack::ideal(w, c, IntraClusterRouting::new(), dims)
            .unwrap_or_else(|e| panic!("layout {dims}: {e}"));
        let mut qa = QuietCtx::new();
        let mut qb = QuietCtx::new();
        mono.prime(&mut qa.ctx());
        sharded.prime(&mut qb.ctx());
        for tick in 0..60 {
            let a = mono.tick(&mut qa.ctx());
            let b = sharded.tick(&mut qb.ctx());
            if a != b {
                eprintln!("PARITY FAIL: {l} tick {tick}: sharded stack report diverged");
                return false;
            }
        }
        if mono.world().counters() != sharded.world().counters()
            || mono.world().positions() != sharded.world().positions()
        {
            eprintln!("PARITY FAIL: {l}: end-state counters/positions diverged");
            return false;
        }
        eprintln!(
            "parity {l}: 60 full-stack ticks bit-identical to monolithic ({} workers)",
            sharded.plane().workers()
        );
    }
    true
}

fn to_json(rows: &[Row], quick: bool) -> String {
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"bench_shard\",\n");
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    out.push_str(&format!(
        "  \"dt\": {DT}, \"radius\": {RADIUS}, \"speed\": {SPEED}, \"density_per_m2\": {DENSITY},\n"
    ));
    out.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"mode\": \"{}\", \"nodes\": {}, \"side\": {:.1}, \"layout\": \"{}\", \"shards\": {}, \"workers\": {}, \"measure_ticks\": {}, \"ticks_per_sec\": {:.2}, \"speedup_vs_1x1\": {:.3}, \"step_allocs_per_100_ticks\": {}, \"compute_imbalance\": {:.3}}}{}\n",
            r.mode,
            r.nodes,
            r.side,
            r.layout,
            r.shards,
            r.workers,
            r.measure_ticks,
            r.ticks_per_sec,
            r.speedup_vs_1x1,
            r.step_allocs_per_100_ticks,
            r.compute_imbalance,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() -> std::process::ExitCode {
    let quick = std::env::args().any(|a| a == "--quick");
    let layouts = ["1x1", "2x2", "4x2", "4x4"];
    // (nodes, measure_ticks, warm_ticks): the warm window must reach the
    // per-shard high-water marks so the allocation count reflects steady
    // state, but scales down with N to keep the full sweep tractable.
    let sizes: &[(usize, usize, usize)] = if quick {
        &[(400, 40, 40), (1600, 20, 20)]
    } else {
        &[(1600, 400, 600), (10_000, 100, 200), (100_000, 25, 40)]
    };

    let mut rows = Vec::new();
    for &(nodes, measure_ticks, warm_ticks) in sizes {
        rows.extend(bench_size(
            nodes,
            &layouts,
            measure_ticks,
            warm_ticks,
            bench_cell,
        ));
    }
    // Full-stack sweep: quick mode keeps one small size; the full sweep
    // mirrors the world-step sizes so the stage-trait overhead and the
    // scoped-stage scaling are visible at every N.
    let stack_sizes: &[(usize, usize, usize)] = if quick {
        &[(400, 40, 40)]
    } else {
        &[(1600, 200, 300), (10_000, 60, 100), (100_000, 15, 25)]
    };
    for &(nodes, measure_ticks, warm_ticks) in stack_sizes {
        rows.extend(bench_size(
            nodes,
            &layouts,
            measure_ticks,
            warm_ticks,
            bench_stack_cell,
        ));
    }
    let json = to_json(&rows, quick);
    print!("{json}");
    for r in &rows {
        eprintln!(
            "{:>10} N={:>6} {:>4}: {:>8.2} ticks/s  ({:.3}x vs 1x1, {} shards, {} workers, {} allocs/100 ticks, imbalance {:.3})",
            r.mode,
            r.nodes,
            r.layout,
            r.ticks_per_sec,
            r.speedup_vs_1x1,
            r.shards,
            r.workers,
            r.step_allocs_per_100_ticks,
            r.compute_imbalance,
        );
    }
    if quick && !stage_parity_gate() {
        return std::process::ExitCode::FAILURE;
    }
    if !quick {
        std::fs::write("BENCH_shard.json", &json).expect("write BENCH_shard.json");
        eprintln!("wrote BENCH_shard.json");
    }
    std::process::ExitCode::SUCCESS
}
