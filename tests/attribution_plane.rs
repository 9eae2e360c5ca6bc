//! Attribution-plane integration tests: every Cluster/Routing/Repair
//! event of an attributed run carries a cause that resolves to a recorded
//! root anchor, the causal ledger reconciles exactly with the shared
//! counters, and the attribution-disabled path emits the same trace
//! format (no cause fields, no marker events) as before the attribution
//! plane existed.

use clustered_manet::cluster::{Backoff, Clustering, LowestId, SelfHealing};
use clustered_manet::experiments::harness::{Protocol, Scenario};
use clustered_manet::experiments::trace::{trace_run, TelemetryConfig};
use clustered_manet::routing::intra::IntraClusterRouting;
use clustered_manet::sim::{
    ChurnSchedule, FaultPlan, LossModel, MessageKind, QuietCtx, SimBuilder, StepCtx,
    STREAM_CLUSTER, STREAM_ROUTE,
};
use clustered_manet::telemetry::{
    AttributionLedger, CauseTracker, Event, EventKind, Layer, MsgClass, Probe,
};

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

/// Property: driving the full faulty stack (lossy channels + churn +
/// self-healing repair) with attribution on, every event the cluster and
/// routing layers emit carries a cause, and every cause id resolves to a
/// chain anchored by a recorded root event.
#[test]
fn every_attributed_event_resolves_to_a_root() {
    let churn = ChurnSchedule::poisson(100, 0.004, 15.0, 140.0, 77).expect("valid churn");
    let plan = FaultPlan {
        loss: LossModel::GilbertElliott {
            p_gb: 0.1,
            p_bg: 0.3,
            loss_good: 0.02,
            loss_bad: 0.7,
        },
        churn,
        seed: 0xDE7E_12A1,
    };
    let mut world = SimBuilder::new()
        .nodes(100)
        .side(500.0)
        .radius(100.0)
        .speed(10.0)
        .seed(5)
        .fault(plan)
        .build();
    let mut ch_cluster = world.fault().channel(STREAM_CLUSTER);
    let mut ch_route = world.fault().channel(STREAM_ROUTE);
    let mut healing = SelfHealing::new(
        Clustering::form(LowestId, world.topology()),
        Backoff::default(),
        8,
    );
    let mut routing = IntraClusterRouting::new();
    let mut quiet = QuietCtx::new();
    routing.update(
        0.0,
        world.topology(),
        healing.clustering(),
        &mut ch_route,
        &mut quiet.ctx(),
    );

    let dt = world.dt();
    let mut tracker = CauseTracker::new();
    let mut sink = Vec::<Event>::new();
    for _ in 0..280 {
        let mut probe = Probe::with_causes(Some(&mut sink), Some(&mut tracker));
        let mut ctx = StepCtx::new(&mut probe);
        world.step(&mut ctx);
        healing.step(world.topology(), world.alive(), &mut ch_cluster, &mut ctx);
        routing.update(
            dt,
            world.topology(),
            healing.clustering(),
            &mut ch_route,
            &mut ctx,
        );
    }

    assert!(tracker.allocated() > 0, "the run must allocate causes");
    let (mut role_changes, mut route_rounds, mut retx) = (0u64, 0u64, 0u64);
    for e in &sink {
        if matches!(e.layer, Layer::Cluster | Layer::Routing) {
            assert!(
                e.cause.is_some(),
                "uncaused {:?} event at t={}",
                e.kind,
                e.time
            );
        }
        match e.kind {
            EventKind::HeadResigned { .. }
            | EventKind::HeadElected { .. }
            | EventKind::MemberReaffiliated { .. }
            | EventKind::HeadLost { .. } => role_changes += 1,
            EventKind::RouteRoundStarted { .. } => route_rounds += 1,
            EventKind::RetxScheduled { .. } => retx += 1,
            _ => {}
        }
    }
    assert!(role_changes > 0, "churny run must change roles");
    assert!(route_rounds > 0, "churny run must sync routes");
    assert!(retx > 0, "lossy run must schedule retransmissions");

    // Every chain the replayed ledger indexes is anchored by a root
    // event, and every cause on the wire resolves to a chain.
    let ledger = AttributionLedger::replay(&sink);
    assert_eq!(
        ledger.unanchored_chains(),
        Vec::new(),
        "every causal chain must begin with its recorded root event"
    );
    for e in &sink {
        if let Some(c) = e.cause {
            assert!(
                ledger.chain(c.id).is_some(),
                "cause {:?} of {:?} resolves to no chain",
                c,
                e.kind
            );
        }
    }
}

/// The attributed harness run reconciles its ledger exactly with the
/// shared counters per message class — the per-event causal charges are
/// an exact re-partition of the batched per-tick accounting.
#[test]
fn attributed_harness_run_reconciles_exactly() {
    let (scenario, protocol) = quick();
    let config = TelemetryConfig::in_memory("attribution-it").with_attribution();
    let run = trace_run(&scenario, &protocol, &config, None).expect("in-memory run");
    let attr = run.attribution.as_ref().expect("attribution enabled");
    for (class, kind) in [
        (MsgClass::Hello, MessageKind::Hello),
        (MsgClass::Cluster, MessageKind::Cluster),
        (MsgClass::Route, MessageKind::Route),
    ] {
        assert!(run.counters.messages(kind) > 0);
        assert_eq!(
            attr.ledger.attributed_total(class),
            run.counters.messages(kind),
            "{} ledger total must equal the counters",
            class.name()
        );
    }
    assert!(attr.audit.is_clean(), "{:?}", attr.audit.violations);
    assert!(attr.ledger.unanchored_chains().is_empty());
}

/// Parity: attribution is observation only. The same scenario run with
/// and without attribution produces identical counters and identical
/// windowed series, and the unattributed trace carries neither cause
/// fields nor attribution-only marker events — its JSONL output is the
/// pre-attribution format, byte for byte.
#[test]
fn disabled_attribution_is_bit_identical_to_the_plain_trace() {
    let (scenario, protocol) = quick();
    let dir = std::env::temp_dir().join(format!("manet-attribution-it-{}", std::process::id()));
    let path = dir.join("plain.jsonl");
    let plain = trace_run(
        &scenario,
        &protocol,
        &TelemetryConfig::to_file("parity", path.clone()),
        None,
    )
    .expect("plain traced run");
    let attributed = trace_run(
        &scenario,
        &protocol,
        &TelemetryConfig::in_memory("parity").with_attribution(),
        None,
    )
    .expect("attributed traced run");

    // Identical dynamics: attribution never perturbs the simulation.
    assert!(plain.attribution.is_none());
    assert_eq!(plain.counters, attributed.counters);
    for class in [MsgClass::Hello, MsgClass::Cluster, MsgClass::Route] {
        assert_eq!(
            plain.recorder.rate_series(class),
            attributed.recorder.rate_series(class),
            "windowed {} series must agree",
            class.name()
        );
    }

    // The unattributed JSONL is the pre-attribution wire format: no
    // cause fields, no HeadLost markers anywhere in the file.
    let raw = std::fs::read_to_string(&path).expect("trace file readable");
    assert!(
        !raw.contains("\"cause\""),
        "unattributed trace must not serialize cause fields"
    );
    assert!(
        !raw.to_lowercase().contains("head_lost"),
        "unattributed trace must not contain attribution marker events"
    );
    std::fs::remove_dir_all(&dir).ok();
}
