//! Gated causal-attribution report: measured per-event unit costs vs the
//! analytic per-event decomposition, plus the runtime audit verdict.
//!
//! ```text
//! attribution_report            # default 400-node scenario, 15% gates
//! attribution_report --quick    # short 80-node run: audit + exact
//!                               # reconciliation gates only (used by
//!                               # scripts/verify.sh)
//! attribution_report --metrics-out <path>   # also write a Prometheus
//!                               # text snapshot of the run
//! ```
//!
//! The paper's overhead analysis decomposes every message class into
//! per-event costs: an EventDriven link generation costs 2 HELLO beacons,
//! a member–head break costs 1 CLUSTER message, a head contact dissolves
//! the losing cluster (`m` CLUSTER messages), and an intra-cluster link
//! change triggers one sync round (`m` ROUTE messages). The attribution
//! ledger measures those same ratios from the causal chains; this binary
//! checks that measurement and analysis agree.
//!
//! Exits non-zero when any gate fails.

use manet_experiments::harness::{Protocol, Scenario};
use manet_experiments::trace::{
    attribution_text, audit_text, init_shards_from_args, metrics_out_from_args, trace_run,
    TelemetryConfig,
};
use manet_model::overhead::OverheadModel;
use manet_model::{DegreeModel, NetworkParams};
use manet_sim::MessageKind;
use manet_telemetry::{MsgClass, RootCause};
use std::process::ExitCode;

/// Relative tolerance for the measured-vs-analytic unit-cost gates.
const UNIT_COST_TOLERANCE: f64 = 0.15;

fn main() -> ExitCode {
    init_shards_from_args();
    let quick = std::env::args().any(|a| a == "--quick");
    let (scenario, protocol, label) = if quick {
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
            "attribution_quick",
        )
    } else {
        (Scenario::default(), Protocol::default(), "attribution")
    };

    let mut config = TelemetryConfig::in_memory(label).with_attribution();
    if let Some(path) = metrics_out_from_args() {
        println!("[attribution] metrics snapshot -> {}", path.display());
        config = config.with_metrics_out(path);
    }
    println!(
        "[attribution] {label}: N={} side={} r={} v={} warmup={} measure={} dt={} seed={}",
        scenario.nodes,
        scenario.side,
        scenario.radius,
        scenario.speed,
        protocol.warmup,
        protocol.measure,
        protocol.dt,
        protocol.seeds.first().copied().unwrap_or(1),
    );
    let run = match trace_run(&scenario, &protocol, &config) {
        Ok(run) => run,
        Err(e) => {
            println!("GATE FAIL: traced run errored: {e}");
            return ExitCode::FAILURE;
        }
    };
    let attr = run.attribution.as_ref().expect("attribution was enabled");
    print!(
        "{}",
        attribution_text(&attr.ledger, &run.recorder, run.meta.nodes)
    );
    print!("{}", audit_text(&attr.audit));

    let mut ok = true;
    let mut gate = |name: &str, pass: bool, detail: String| {
        println!(
            "gate {:<34} {} {}",
            name,
            if pass { "PASS" } else { "FAIL" },
            detail
        );
        ok &= pass;
    };

    // Structural gates: always enforced.
    gate(
        "audit-clean",
        attr.audit.is_clean(),
        format!(
            "{} violations over {} samples",
            attr.audit.violations.len(),
            attr.audit.samples
        ),
    );
    gate(
        "chains-anchored",
        attr.ledger.unanchored_chains().is_empty(),
        format!("{} unanchored", attr.ledger.unanchored_chains().len()),
    );
    for (class, kind) in [
        (MsgClass::Hello, MessageKind::Hello),
        (MsgClass::Cluster, MessageKind::Cluster),
        (MsgClass::Route, MessageKind::Route),
    ] {
        let attributed = attr.ledger.attributed_total(class);
        let counted = run.counters.messages(kind);
        gate(
            &format!("ledger-reconciles-{}", class.name()),
            attributed == counted,
            format!("attributed {attributed} vs counters {counted}"),
        );
    }

    // Exact per-event identities of the protocol itself.
    if let Some(c) = attr.ledger.unit_cost(RootCause::LinkGen, MsgClass::Hello) {
        gate(
            "hello-per-link-gen",
            (c - 2.0).abs() < 1e-9,
            format!("measured {c:.3}, identity 2"),
        );
    }
    if let Some(c) = attr
        .ledger
        .unit_cost(RootCause::HeadLoss, MsgClass::Cluster)
    {
        gate(
            "cluster-per-head-loss",
            (c - 1.0).abs() < 1e-9,
            format!("measured {c:.3}, identity 1"),
        );
    }

    // Statistical gates vs the analytic decomposition: need the long
    // default run for the event statistics to converge.
    if quick {
        println!("(quick mode: skipping statistical unit-cost gates)");
    } else {
        let heads: Vec<f64> = run
            .recorder
            .cluster_count_series()
            .into_iter()
            .flatten()
            .collect();
        let mean_heads = heads.iter().sum::<f64>() / heads.len().max(1) as f64;
        let p_bar = mean_heads / run.meta.nodes as f64;
        let params = NetworkParams::new(
            scenario.nodes,
            scenario.side,
            scenario.radius,
            scenario.speed,
        )
        .expect("default scenario is a valid parameterization");
        let model = OverheadModel::new(params, DegreeModel::TorusExact);
        println!(
            "analytic frame: p\u{304}={p_bar:.4} m\u{304}={:.2} d={:.2} \u{3bb}={:.4}/s/node",
            1.0 / p_bar,
            model.expected_degree(),
            model.link_change_rate()
        );
        for (name, root, class, predicted) in [
            (
                "cluster-per-head-contact",
                RootCause::HeadContact,
                MsgClass::Cluster,
                model.contact_unit_cost(p_bar),
            ),
            (
                "route-per-intra-change",
                RootCause::IntraClusterChange,
                MsgClass::Route,
                model.route_unit_cost(p_bar),
            ),
        ] {
            match attr.ledger.unit_cost(root, class) {
                Some(measured) => {
                    let rel = (measured - predicted).abs() / predicted;
                    gate(
                        name,
                        rel <= UNIT_COST_TOLERANCE,
                        format!(
                            "measured {measured:.3} vs analytic {predicted:.3} ({:+.1}%, tol {:.0}%)",
                            (measured - predicted) / predicted * 100.0,
                            UNIT_COST_TOLERANCE * 100.0
                        ),
                    );
                }
                None => gate(name, false, "no root events observed".to_string()),
            }
        }
    }

    if ok {
        println!("ATTRIBUTION OK");
        ExitCode::SUCCESS
    } else {
        println!("ATTRIBUTION FAIL");
        ExitCode::FAILURE
    }
}
