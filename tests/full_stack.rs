//! Cross-crate integration tests: the full protocol stack against the
//! analytical model, determinism, and figure-harness smoke tests.

use clustered_manet::cluster::{Clustering, LowestId};
use clustered_manet::experiments::harness::{measure_lid, Protocol, Scenario};
use clustered_manet::model::{lid, DegreeModel, NetworkParams, OverheadModel};
use clustered_manet::routing::discovery::RouteDiscovery;
use clustered_manet::routing::intra::{IntraClusterRouting, IntraTables};
use clustered_manet::sim::{QuietCtx, SimBuilder};
use clustered_manet::stack::{ProtocolStack, StackReport};

/// The headline reproduction check in miniature: simulation and analysis
/// agree on HELLO exactly and on CLUSTER within the lower-bound slack.
#[test]
fn sim_and_analysis_agree_on_hello_and_cluster() {
    let scenario = Scenario {
        nodes: 200,
        side: 800.0,
        radius: 130.0,
        ..Scenario::default()
    };
    let protocol = Protocol {
        warmup: 50.0,
        measure: 200.0,
        seeds: vec![1, 2],
        dt: 0.25,
    };
    let m = measure_lid(&scenario, &protocol);
    let model = OverheadModel::new(scenario.params(), DegreeModel::TorusExact);
    let b = model.breakdown(m.head_ratio.mean.clamp(1e-6, 1.0));

    let hello_rel = (m.f_hello.mean - b.f_hello).abs() / b.f_hello;
    assert!(hello_rel < 0.1, "HELLO rel err {hello_rel:.3}");

    // The analysis is a lower bound: simulation must not undershoot it by
    // much, and cascades keep the overshoot bounded.
    let cluster_ratio = m.f_cluster.mean / b.f_cluster;
    assert!(
        (0.8..2.5).contains(&cluster_ratio),
        "CLUSTER sim/analysis ratio {cluster_ratio:.3}"
    );

    // ROUTE: the paper's mean-size bound undershoots (size dispersion);
    // sim sits between 1× and the exponential-dispersion 6×.
    let route_ratio = m.f_route.mean / b.f_route;
    assert!(
        (1.0..8.0).contains(&route_ratio),
        "ROUTE sim/analysis ratio {route_ratio:.3}"
    );
}

/// End-to-end determinism: identical seeds give identical traffic counts
/// through the entire stack.
#[test]
fn full_stack_is_deterministic() {
    let run = || {
        let world = SimBuilder::new()
            .nodes(120)
            .side(600.0)
            .radius(110.0)
            .seed(9)
            .build();
        let clustering = Clustering::form(LowestId, world.topology());
        let mut stack = ProtocolStack::ideal(world, clustering, IntraClusterRouting::new());
        let mut quiet = QuietCtx::new();
        stack.prime(&mut quiet.ctx());
        let mut agg = StackReport::default();
        for _ in 0..400 {
            agg.absorb(stack.tick(&mut quiet.ctx()));
        }
        (
            agg.cluster.maintenance.total_messages(),
            agg.route.route_messages,
            stack.cluster().head_count(),
        )
    };
    assert_eq!(run(), run());
}

/// Hybrid routing end to end: proactive tables answer intra-cluster
/// queries; reactive discovery finds inter-cluster routes whenever flat
/// BFS says the network is connected at the cluster level.
#[test]
fn hybrid_routing_covers_the_network() {
    let mut world = SimBuilder::new()
        .nodes(150)
        .side(700.0)
        .radius(120.0)
        .seed(4)
        .build();
    let mut clustering = Clustering::form(LowestId, world.topology());
    let mut quiet = QuietCtx::new();
    for _ in 0..40 {
        world.step(&mut quiet.ctx());
        clustering.maintain(world.topology(), &mut quiet.ctx());
    }
    let topo = world.topology();
    let tables = IntraTables::build(topo, &clustering);
    let discovery = RouteDiscovery::new();

    let flat = clustered_manet::routing::dsdv::Dsdv::converged_tables(topo);
    let mut checked_intra = 0;
    let mut checked_inter = 0;
    for src in 0..150u32 {
        for dst in (src + 1)..150 {
            let connected = flat[src as usize][dst as usize].is_some();
            if clustering.head_of(src) == clustering.head_of(dst) {
                // One-hop clusters are internally connected through the
                // head by construction.
                let path = tables.path(src, dst);
                assert!(path.is_some(), "intra pair {src}->{dst} missing route");
                checked_intra += 1;
            } else if connected {
                // The cluster graph need not be connected even when the
                // node graph is? It must be: any node path induces a
                // cluster-graph walk.
                let o = discovery.discover(topo, &clustering, src, dst);
                assert!(o.found, "inter pair {src}->{dst} not discovered");
                checked_inter += 1;
            }
        }
    }
    assert!(
        checked_intra > 50,
        "too few intra pairs exercised: {checked_intra}"
    );
    assert!(
        checked_inter > 50,
        "too few inter pairs exercised: {checked_inter}"
    );
}

/// The LID analysis plumbing is exposed end to end through the facade.
#[test]
fn facade_exposes_the_paper_api() {
    let params = NetworkParams::new(400, 1000.0, 150.0, 10.0).unwrap();
    let d = DegreeModel::BorderCorrected.expected_degree(&params);
    let exact = lid::p_exact(d).unwrap();
    let approx = lid::p_approx(d);
    assert!((exact - approx).abs() / exact < 0.05);
    let model = OverheadModel::new(params, DegreeModel::BorderCorrected);
    let b = model.breakdown(approx);
    assert!(b.o_total > 0.0);
}

/// Figure harness smoke test at a reduced size: tables render with the
/// right shape and the agreement metric is finite.
#[test]
fn figure_harness_smoke() {
    let rows = clustered_manet::experiments::lid_figures::fig4();
    assert!(rows.len() > 10);
    let cells = clustered_manet::experiments::theta::compute();
    assert_eq!(cells.len(), 9);
    assert!(cells.iter().all(|c| c.confirms(0.12)));
}

/// Recording a mobility trace and replaying it through the simulator gives
/// the same link-event counts — the reproducibility path for sharing
/// scenarios between tools.
#[test]
fn trace_replay_reproduces_link_dynamics() {
    use clustered_manet::geom::{Metric, SquareRegion};
    use clustered_manet::mobility::{EpochRandomDirection, TraceRecorder};
    use clustered_manet::sim::{MessageSizes, World};
    use clustered_manet::util::Rng;

    let region = SquareRegion::new(400.0);
    let dt = 0.5;
    let mut rng = Rng::seed_from_u64(404);
    let mut erd = EpochRandomDirection::new(region, 80, 10.0, 15.0, &mut rng);
    let trace = TraceRecorder::new(region, dt).record(&mut erd, &mut rng, 200);

    let run = |mobility: Box<dyn clustered_manet::mobility::Mobility>| {
        let mut world = World::new(
            mobility,
            70.0,
            dt,
            Metric::toroidal(400.0),
            MessageSizes::default(),
            1,
        );
        let mut quiet = QuietCtx::new();
        for _ in 0..200 {
            world.step(&mut quiet.ctx());
        }
        (
            world.counters().links_generated(),
            world.counters().links_broken(),
        )
    };

    let mut replay_a = trace.clone();
    replay_a.rewind();
    let mut replay_b = trace.clone();
    replay_b.rewind();
    let a = run(Box::new(replay_a));
    let b = run(Box::new(replay_b));
    assert_eq!(a, b, "replays must be identical");
    assert!(a.0 > 0, "the trace must contain churn");
}
