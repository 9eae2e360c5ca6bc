//! EXT3 — d-hop clustering (the paper's Section 7 future-work direction):
//! greedy d-hop LID and Max-Min formation against the disc-bound head-ratio
//! heuristic, plus dynamic d-hop maintenance overhead.

use crate::harness::{build_world, Scenario};
use manet_cluster::{DHopClustering, LowestId};
use manet_model::dhop as model_dhop;
use manet_util::stats::Summary;
use manet_util::table::{fmt_sig, Table};

/// One row of the formation comparison at a hop bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DhopRow {
    /// Hop bound `d`.
    pub hops: usize,
    /// Greedy d-hop LID head count (Monte-Carlo mean over placements).
    pub greedy_heads: f64,
    /// Max-Min head count (same placements).
    pub maxmin_heads: f64,
    /// Disc-bound heuristic `N·P_h`.
    pub heuristic_heads: f64,
}

/// Static formation comparison over `replications` uniform placements.
pub fn formation_rows(scenario: &Scenario, replications: u64) -> Vec<DhopRow> {
    (1..=3usize)
        .map(|hops| {
            let mut greedy = Summary::new();
            let mut maxmin = Summary::new();
            for seed in 0..replications {
                let world = build_world(scenario, 0.25, 0xD0 ^ seed.wrapping_mul(77));
                let topo = world.topology();
                let g = DHopClustering::form(&LowestId, topo, hops);
                debug_assert!(g.check_invariants(topo).is_ok());
                greedy.push(g.head_count() as f64);
                let m = DHopClustering::form_max_min(topo, hops);
                debug_assert!(m.check_invariants(topo).is_ok());
                maxmin.push(m.head_count() as f64);
            }
            DhopRow {
                hops,
                greedy_heads: greedy.mean(),
                maxmin_heads: maxmin.mean(),
                heuristic_heads: model_dhop::expected_cluster_count(&scenario.params(), hops),
            }
        })
        .collect()
}

/// Renders the formation comparison.
pub fn formation_table(rows: &[DhopRow]) -> Table {
    let mut t = Table::new([
        "hops",
        "greedy d-LID heads",
        "Max-Min heads",
        "disc-bound heuristic",
    ]);
    for r in rows {
        t.row([
            r.hops.to_string(),
            fmt_sig(r.greedy_heads, 4),
            fmt_sig(r.maxmin_heads, 4),
            fmt_sig(r.heuristic_heads, 4),
        ]);
    }
    t
}

/// Dynamic d-hop stack rates: per-node CLUSTER and ROUTE message rates vs
/// hop bound (the routing layer is generic over cluster assignments, so
/// the same proactive machinery runs unchanged on d-hop structures).
pub fn maintenance_rates(scenario: &Scenario, measure: f64) -> Vec<DhopRates> {
    use manet_routing::intra::{IntraClusterRouting, UpdatePolicy};
    use manet_sim::QuietCtx;
    use manet_stack::{DHopLayer, ProtocolStack, StackReport};
    (1..=3usize)
        .map(|hops| {
            let world = build_world(scenario, 0.5, 0xD1);
            let c = DHopClustering::form(&LowestId, world.topology(), hops);
            // Rate-limited updates: raw per-change flooding at d ≥ 2 is
            // dominated by membership-churn multiplicities (see ABL4);
            // the deployable comparison is the coalesced one.
            let routing =
                IntraClusterRouting::with_policy(UpdatePolicy::Coalesced { interval: 10.0 });
            let stack = ProtocolStack::ideal(world, DHopLayer::new(LowestId, c), routing);
            let mut stack = crate::harness::on_plane(stack, None);
            let mut quiet = QuietCtx::new();
            stack.prime(&mut quiet.ctx());
            stack.run_world_for(30.0, &mut quiet.ctx());
            {
                let (world, layer, _) = stack.split_mut();
                layer
                    .clustering // stage-exempt: single-layer d-hop study
                    .maintain(&layer.policy, world.topology(), &mut quiet.ctx());
            }
            stack.world_mut().begin_measurement();
            let mut agg = StackReport::default();
            let ticks = (measure / stack.world().dt()) as usize;
            let mut p_acc = 0.0;
            for _ in 0..ticks {
                let report = stack.tick(&mut quiet.ctx());
                p_acc += report.head_ratio;
                agg.absorb(report);
            }
            let world = stack.world();
            let per_node = |x: u64| x as f64 / world.node_count() as f64 / world.measured_time();
            DhopRates {
                hops,
                f_cluster: per_node(agg.cluster.maintenance.total_messages()),
                f_route: per_node(agg.route.route_messages),
                route_entries: per_node(agg.route.route_entries),
                steady_p: p_acc / ticks as f64,
            }
        })
        .collect()
}

/// Measured d-hop stack rates at one hop bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DhopRates {
    /// Hop bound.
    pub hops: usize,
    /// CLUSTER messages per node per second.
    pub f_cluster: f64,
    /// ROUTE messages per node per second (10 s coalesced updates).
    pub f_route: f64,
    /// ROUTE table entries per node per second.
    pub route_entries: f64,
    /// Time-averaged head ratio.
    pub steady_p: f64,
}

/// Renders the maintenance-rate comparison.
pub fn maintenance_table(rows: &[DhopRates]) -> Table {
    let mut t = Table::new([
        "hops",
        "f_cluster [msg/node/s]",
        "f_route (10s coalesced)",
        "route entries /node/s",
        "steady P",
    ]);
    for r in rows {
        t.row([
            r.hops.to_string(),
            fmt_sig(r.f_cluster, 3),
            fmt_sig(r.f_route, 3),
            fmt_sig(r.route_entries, 4),
            fmt_sig(r.steady_p, 3),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Scenario {
        Scenario {
            nodes: 100,
            side: 500.0,
            radius: 90.0,
            ..Scenario::default()
        }
    }

    #[test]
    fn formation_heads_decrease_with_hops() {
        let rows = formation_rows(&small(), 3);
        assert_eq!(rows.len(), 3);
        for w in rows.windows(2) {
            assert!(w[1].greedy_heads < w[0].greedy_heads, "{w:?}");
            assert!(w[1].heuristic_heads < w[0].heuristic_heads);
        }
        // Greedy enforces head separation → fewer heads than Max-Min.
        for r in &rows {
            assert!(r.greedy_heads <= r.maxmin_heads + 1.0, "{r:?}");
        }
        let t = formation_table(&rows);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn maintenance_runs_and_reports() {
        let rows = maintenance_rates(&small(), 40.0);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.f_cluster >= 0.0);
            assert!(r.f_route >= 0.0);
            assert!(r.route_entries >= r.f_route, "entries carry full tables");
            assert!(r.steady_p > 0.0 && r.steady_p < 1.0);
        }
        // Bigger clusters, fewer heads.
        assert!(rows[2].steady_p < rows[0].steady_p);
    }
}
