//! Shard-plane parity: the sharded stack is *bit-identical* to the
//! monolithic one (DESIGN.md §13).
//!
//! Three layers of evidence. The monolithic reference is the golden
//! fixtures under `tests/golden/`, captured from the pre-refactor
//! monolithic loop on the same quick scenario (and pinned by
//! `tests/golden_parity.rs`), or `World::step` called directly:
//!
//! 1. **Traced JSONL** — a traced run at the default layout and at 1x1,
//!    2x2, and 4x1 produces byte-identical trace files and final counters
//!    to the monolithic fixtures (profile lines excluded: they carry
//!    wall-clock).
//! 2. **Measured metrics** — the harness (`measure_lid`) and the fault
//!    plane (`measure_with_faults`) reproduce the monolithic fixtures at
//!    every layout.
//! 3. **Migration property** — stepping a world on the shard plane next
//!    to an identical monolithic world, node↔shard migration across the
//!    torus wrap never drops or duplicates a node or a link event: link
//!    events, neighbor rows, and counters match tick for tick while the
//!    plane's ownership partition stays exact.

use clustered_manet::cluster::LowestId;
use clustered_manet::experiments::harness::{
    measure_lid, measure_with_policy_ctl, Protocol, Scenario, ShardRun,
};
use clustered_manet::experiments::robustness::{
    measure_with_faults, measure_with_faults_ctl, FaultConfig,
};
use clustered_manet::experiments::trace::{trace_run_chaos, TelemetryConfig};
use clustered_manet::geom::ShardDims;
use clustered_manet::shard::{InterconnectConfig, ShardPlane};
use clustered_manet::sim::{HelloMode, LossModel, QuietCtx, SimBuilder};
use std::path::{Path, PathBuf};

/// The layouts every parity check sweeps: the degenerate single shard,
/// a 2-D split, and a 1-D strip split (exercising both axes' wrap).
const LAYOUTS: [&str; 3] = ["1x1", "2x2", "4x1"];

/// The golden fixtures' scenario: short but non-trivial, long enough for
/// clusters to churn and for nodes to cross shard boundaries and the
/// torus seam.
fn quick() -> (Scenario, Protocol) {
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

/// A monolithic reference fixture from `tests/golden/`.
fn golden(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {} ({e})", path.display()))
}

/// Trace lines minus `"type":"profile"` records, which carry wall-clock
/// timings and legitimately differ run to run.
fn without_profile_lines(raw: &str) -> String {
    raw.lines()
        .filter(|l| !l.contains("\"type\":\"profile\""))
        .map(|l| format!("{l}\n"))
        .collect()
}

fn tmp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("manet-shard-parity-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

/// Runs a traced run of the fixture scenario (label `golden`, as when the
/// fixtures were captured) and asserts its JSONL and counters equal the
/// monolithic fixtures.
fn assert_traced_run_matches_golden(run: Option<&ShardRun>, what: &str) {
    let (scenario, protocol) = quick();
    let path = tmp_path(&format!("{what}.jsonl"));
    let traced = trace_run_chaos(
        &scenario,
        &protocol,
        &TelemetryConfig::to_file("golden", path.clone()),
        run,
    )
    .expect("traced run");
    let raw = without_profile_lines(&std::fs::read_to_string(&path).expect("trace"));
    assert!(
        raw.lines().count() > 50,
        "trace unexpectedly small — the parity check would be vacuous"
    );
    assert_eq!(
        raw,
        golden("trace_plain.jsonl"),
        "{what}: traced JSONL diverged"
    );
    assert_eq!(
        format!("{:#?}\n", traced.counters),
        golden("trace_counters.txt"),
        "{what}: counters diverged"
    );
    let dims = run.map_or(ShardDims::unit(), |r| r.dims);
    assert_eq!(traced.shard.shards.len(), dims.count(), "{what}");
}

#[test]
fn traced_jsonl_is_byte_identical_across_shard_layouts() {
    assert_traced_run_matches_golden(None, "default");
    for dims in LAYOUTS {
        let run = ShardRun::new(ShardDims::parse(dims).unwrap());
        assert_traced_run_matches_golden(Some(&run), dims);
    }
}

/// The fallible interconnect, explicitly enabled but fault-free, is
/// pass-through at the trace level: with the ideal
/// [`InterconnectConfig`] wired in (message staging, per-pair channels,
/// sync/consume protocol all active) the traced JSONL stays byte-identical
/// to the monolithic fixtures at every layout and a non-trivial worker
/// count.
#[test]
fn ideal_interconnect_traced_jsonl_is_byte_identical() {
    for dims in LAYOUTS {
        let run = ShardRun::new(ShardDims::parse(dims).unwrap())
            .with_interconnect(InterconnectConfig::default())
            .with_workers(3);
        assert_traced_run_matches_golden(Some(&run), &format!("chaos-ideal-{dims}"));
    }
}

#[test]
fn measured_metrics_are_identical_across_shard_layouts() {
    let (scenario, protocol) = quick();
    let mono = golden("measured_lid.txt");
    assert_eq!(
        format!("{:#?}\n", measure_lid(&scenario, &protocol)),
        mono,
        "default layout: measured metrics diverged"
    );
    for dims in LAYOUTS {
        let run = ShardRun::new(ShardDims::parse(dims).unwrap());
        let sharded =
            measure_with_policy_ctl(&scenario, &protocol, Some(&run), None, None, |_| LowestId)
                .expect("uncancelled");
        assert_eq!(
            format!("{sharded:#?}\n"),
            mono,
            "{dims}: measured metrics diverged"
        );
    }

    // The fault plane (lossy HELLO, retries, repair sweeps) rides the
    // same plane, so it inherits the same equality (the fixture's config).
    let config = FaultConfig {
        loss: LossModel::Bernoulli { p: 0.15 },
        crash_rate: 0.004,
        mean_downtime: 12.0,
        ..FaultConfig::default()
    };
    let mono = golden("measured_faulty.txt");
    assert_eq!(
        format!(
            "{:#?}\n",
            measure_with_faults(&scenario, &protocol, &config)
        ),
        mono,
        "default layout: fault-plane metrics diverged"
    );
    let run = ShardRun::new(ShardDims::parse("2x2").unwrap());
    let sharded = measure_with_faults_ctl(&scenario, &protocol, &config, Some(&run), None)
        .expect("uncancelled");
    assert_eq!(
        format!("{sharded:#?}\n"),
        mono,
        "2x2: fault-plane metrics diverged"
    );
}

/// Seeded property: under Poisson crash/recovery churn, a lossy channel,
/// and constant cross-shard migration, at layouts 2x2, 4x1, and 3x3
/// across 240 ticks, the shards' owned counts always sum to the node
/// count, and the full faulty stack is worker-count invariant: 1-worker
/// and 3-worker runs produce equal reports and equal shard statistics
/// tick for tick. The exact per-node partition is pinned by the plane's
/// `crashed_node_is_never_double_owned_or_orphaned`.
#[test]
fn owner_frames_partition_nodes_exactly_under_churn() {
    use clustered_manet::cluster::{Clustering, LowestId};
    use clustered_manet::routing::intra::IntraClusterRouting;
    use clustered_manet::sim::{ChurnSchedule, FaultPlan, HelloProtocol};
    use clustered_manet::stack::ProtocolStack;

    let n = 120usize;
    for dims_s in ["2x2", "4x1", "3x3"] {
        let dims = ShardDims::parse(dims_s).unwrap();
        let build = |workers: usize| {
            let churn = ChurnSchedule::poisson(n, 0.004, 6.0, 140.0, 0xC0_FFEE).unwrap();
            let plan = FaultPlan {
                loss: LossModel::Bernoulli { p: 0.05 },
                churn,
                seed: 99,
            }
            .validated()
            .unwrap();
            let world = SimBuilder::new()
                .nodes(n)
                .side(600.0)
                .radius(100.0)
                .speed(20.0)
                .dt(0.5)
                .seed(5)
                .hello_mode(HelloMode::Disabled)
                .fault(plan)
                .build();
            let hello = HelloProtocol::new(n, 1.0, 3.0);
            let clustering = Clustering::form(LowestId, world.topology());
            let plane = ShardPlane::for_world(&world, dims)
                .unwrap()
                .with_workers(workers);
            ProtocolStack::faulty(world, clustering, IntraClusterRouting::new(), hello)
                .with_stages(plane)
        };
        let mut a = build(1);
        let mut b = build(3);
        let mut qa = QuietCtx::new();
        let mut qb = QuietCtx::new();
        a.prime(&mut qa.ctx());
        b.prime(&mut qb.ctx());
        let mut saw_dead = false;
        for tick in 0..240 {
            let ra = a.tick(&mut qa.ctx());
            let rb = b.tick(&mut qb.ctx());
            assert_eq!(ra, rb, "{dims_s}: tick {tick} diverged across workers");
            saw_dead |= a.world().alive().iter().any(|&up| !up);

            let stats: Vec<_> = a.stages().shard_stats().collect();
            assert_eq!(stats.len(), a.stages().layout().count(), "{dims_s}");
            let owned: usize = stats.iter().map(|s| s.owned).sum();
            assert_eq!(
                owned, n,
                "{dims_s}: tick {tick}: owned counts must sum to n"
            );
            assert_eq!(
                stats,
                b.stages().shard_stats().collect::<Vec<_>>(),
                "{dims_s}: tick {tick}: shard stats diverged across workers"
            );
        }
        assert!(saw_dead, "{dims_s}: churn never crashed a node — vacuous");
    }
}

/// Seeded property: node↔shard migration across the torus wrap never
/// drops or duplicates a node or a link event. Fast nodes on a small
/// torus cross shard boundaries and the wrap seam constantly; every tick
/// the sharded world must report exactly the monolithic link events and
/// neighbor rows, and the plane's ownership must stay an exact partition
/// with balanced migration flows.
#[test]
fn torus_wrap_migration_preserves_nodes_and_link_events() {
    for seed in [3u64, 11, 42] {
        let build = || {
            SimBuilder::new()
                .nodes(90)
                .side(450.0)
                .radius(90.0)
                .speed(25.0) // fast: constant boundary + seam crossings
                .dt(0.5)
                .seed(seed)
                .hello_mode(HelloMode::EventDriven)
                .build()
        };
        let mut mono = build();
        let mut sharded = build();
        let n = sharded.node_count();
        let mut plane = ShardPlane::for_world(&sharded, ShardDims::parse("3x3").unwrap()).unwrap();
        let mut qa = QuietCtx::new();
        let mut qb = QuietCtx::new();
        let mut total_migrations = 0usize;
        for tick in 0..240 {
            let a = mono.step(&mut qa.ctx());
            let b = sharded.step_staged(&mut qb.ctx(), &mut plane);
            assert_eq!(a, b, "seed {seed}: step report diverged at tick {tick}");
            assert_eq!(
                mono.last_events(),
                sharded.last_events(),
                "seed {seed}: link events diverged at tick {tick}"
            );

            // Ownership is an exact partition: every node owned exactly
            // once (the per-shard counts sum to N and every link both
            // worlds agree on is owner-visible, per the assertions above),
            // and migration flows balance — nothing is lost at the seam.
            let (mut owned, mut m_in, mut m_out) = (0usize, 0usize, 0usize);
            for s in plane.shard_stats() {
                owned += s.owned;
                m_in += s.migrations_in;
                m_out += s.migrations_out;
            }
            assert_eq!(owned, n, "seed {seed}: ownership partition broken");
            assert_eq!(m_in, m_out, "seed {seed}: migration flow imbalance");
            total_migrations += m_in;
        }
        assert_eq!(mono.positions(), sharded.positions());
        assert_eq!(mono.counters(), sharded.counters());
        assert_eq!(mono.topology(), sharded.topology());
        assert!(
            total_migrations > 100,
            "seed {seed}: only {total_migrations} migrations — property under-exercised"
        );
    }
}
