//! ROB2 — the sharded stack under interconnect chaos: loss × stall ×
//! staleness-bound sweep against the ideal (fault-free) interconnect.
//!
//! ```text
//! robustness2              # full sweep, default 400-node scenario, 2x2
//! robustness2 --quick      # short 80-node run gating the interconnect
//!                          # fault plane (used by scripts/verify.sh):
//!                          # ideal parity vs monolithic, chaos determinism
//!                          # across worker counts, clean audit, anchored
//!                          # InterconnectFault chains
//! robustness2 --shards KXxKY   # override the sweep's shard layout
//! ```
//!
//! Exits non-zero when any gate fails.

use manet_experiments::harness::{Protocol, Scenario, ShardRun};
use manet_experiments::robustness2::{chaos_trace, summarize, sweep_chaos, table, ChaosPoint};
use manet_experiments::trace::{init_serve_from_args, shards_from_args, shards_header};
use manet_geom::ShardDims;
use manet_telemetry::MsgClass;
use std::process::ExitCode;

fn main() -> ExitCode {
    // Bind the live /metrics endpoint first (no-op without the flag) so
    // every chaos run below streams its windows there; the guard honors
    // --serve-hold on exit.
    let _serve = init_serve_from_args();
    let dims = shards_from_args().unwrap_or_else(|| ShardDims::new(2, 2));
    println!("{}", shards_header(&ShardRun::new(dims)));
    let quick = std::env::args().any(|a| a == "--quick");
    let (scenario, protocol) = if quick {
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
    } else {
        (Scenario::default(), Protocol::default())
    };
    println!(
        "ROB2 — interconnect chaos on a {}x{} sharded stack (N={}, seed {})\n",
        dims.kx,
        dims.ky,
        scenario.nodes,
        protocol.seeds.first().copied().unwrap_or(1),
    );

    if quick {
        return quick_gates(&scenario, &protocol, dims);
    }

    let rows = sweep_chaos(&scenario, &protocol, dims);
    manet_experiments::emit("rob2_interconnect_chaos", &table(&rows));
    println!("\nThe ideal row is bit-identical to the monolithic stack; every other");
    println!("delta is attributable to injected interconnect faults. Stale ghost");
    println!("views beyond the staleness bound drop boundary links conservatively,");
    println!("so chaos shows up as link churn answered by CLUSTER/ROUTE repair.");
    if rows.iter().all(|r| r.audit_clean && r.anchored) {
        ExitCode::SUCCESS
    } else {
        println!("\nROB2 FAIL: an audit or anchoring violation occurred (see table)");
        ExitCode::FAILURE
    }
}

/// The verify.sh smoke: parity, determinism, audit, and anchoring gates.
fn quick_gates(scenario: &Scenario, protocol: &Protocol, dims: ShardDims) -> ExitCode {
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

    // Gate 1: the ideal interconnect is pass-through — the sharded stack
    // with chaos machinery enabled matches the monolithic stack window
    // for window and message for message.
    let ideal = ChaosPoint::ideal();
    let sharded = chaos_trace(scenario, protocol, dims, &ideal, Some(3));
    let mono = chaos_trace(
        scenario,
        protocol,
        ShardDims::parse("1x1").unwrap(),
        &ideal,
        Some(1),
    );
    gate(
        "ideal-parity-windows",
        sharded.recorder.windows() == mono.recorder.windows(),
        format!(
            "{} vs {} windows",
            sharded.recorder.windows().len(),
            mono.recorder.windows().len()
        ),
    );
    for class in [MsgClass::Hello, MsgClass::Cluster, MsgClass::Route] {
        let (s, m) = (
            sharded.recorder.total_msgs(class),
            mono.recorder.total_msgs(class),
        );
        gate(
            &format!("ideal-parity-{}", class.name()),
            s == m,
            format!("sharded {s} vs monolithic {m}"),
        );
    }
    let ideal_row = summarize(&ideal, &sharded);
    gate(
        "ideal-no-fault-traffic",
        ideal_row.lost == 0
            && ideal_row.stalls == 0
            && ideal_row.stale_drops == 0
            && ideal_row.fault_events == 0,
        format!(
            "lost {} stalls {} stale drops {} fault events {}",
            ideal_row.lost, ideal_row.stalls, ideal_row.stale_drops, ideal_row.fault_events
        ),
    );

    // Gate 2: chaos is deterministic and worker-count invariant — the same
    // seeded fault plan yields identical telemetry at 1 and 3 workers.
    let point = ChaosPoint {
        loss_p: 0.2,
        stall_rate: 0.02,
        ..ChaosPoint::ideal()
    };
    let w1 = chaos_trace(scenario, protocol, dims, &point, Some(1));
    let w3 = chaos_trace(scenario, protocol, dims, &point, Some(3));
    gate(
        "chaos-worker-invariant",
        w1.recorder.windows() == w3.recorder.windows(),
        "recorder windows at 1 vs 3 workers".to_string(),
    );
    let row = summarize(&point, &w3);
    let row1 = summarize(&point, &w1);
    gate(
        "chaos-counters-deterministic",
        (row.lost, row.stalls, row.stale_drops, row.recoveries)
            == (row1.lost, row1.stalls, row1.stale_drops, row1.recoveries),
        format!(
            "lost {} stalls {} stale drops {} recoveries {}",
            row.lost, row.stalls, row.stale_drops, row.recoveries
        ),
    );

    // Gate 3: the fault plane actually fired and every degradation traced.
    gate(
        "chaos-faults-injected",
        row.lost > 0 && row.fault_events > 0,
        format!("{} lost, {} fault root events", row.lost, row.fault_events),
    );
    gate(
        "audit-clean",
        ideal_row.audit_clean && row.audit_clean,
        "runtime invariants hold under chaos".to_string(),
    );
    gate(
        "interconnect-chains-anchored",
        ideal_row.anchored && row.anchored,
        "every InterconnectFault cause resolves in the ledger".to_string(),
    );

    if ok {
        println!("ROB2 OK");
        ExitCode::SUCCESS
    } else {
        println!("ROB2 FAIL");
        ExitCode::FAILURE
    }
}
