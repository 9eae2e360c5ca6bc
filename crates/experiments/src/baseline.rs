//! EXT2 — the paper's motivating comparison: flat proactive routing (DSDV)
//! vs the clustered hybrid stack, as network size grows at fixed density.

use crate::harness::{on_plane, run_measured, sim_builder, Protocol, Scenario};
use crate::trace::UNTRACED;
use manet_cluster::{Clustering, LowestId};
use manet_routing::dsdv::{Dsdv, DsdvOutcome};
use manet_routing::intra::{IntraClusterRouting, UpdatePolicy};
use manet_sim::{MessageKind, QuietCtx};
use manet_stack::ProtocolStack;
use manet_util::table::{fmt_sig, Table};

/// One row of the comparison: per-node control bit rates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineRow {
    /// Network size (side scales with √N to keep density fixed).
    pub nodes: usize,
    /// Clustered hybrid total control bits/node/s (HELLO + CLUSTER +
    /// full-table ROUTE entries).
    pub clustered_bits: f64,
    /// Flat DSDV control bits/node/s (periodic dumps + triggered updates).
    pub flat_bits: f64,
}

/// Runs the comparison at fixed density `ρ = 400/10⁶ m⁻²` with a DSDV full
/// dump every `dump_interval` seconds, the clustered stack on the default
/// shard layout.
///
/// # Panics
///
/// Panics when the default layout's tiles would be narrower than the
/// 150 m radio radius at the smallest swept size.
pub fn flat_vs_clustered(
    protocol: &Protocol,
    sizes: &[usize],
    dump_interval: f64,
) -> Vec<BaselineRow> {
    let density = 400.0 / 1e6;
    sizes
        .iter()
        .map(|&n| {
            let side = (n as f64 / density).sqrt();
            let scenario = Scenario {
                nodes: n,
                side,
                radius: 150.0,
                ..Scenario::default()
            };
            let seed = protocol.seeds.first().copied().unwrap_or(1);

            let world = sim_builder(&scenario, protocol.dt, seed).build();
            let clustering = Clustering::form(LowestId, world.topology());
            // Fairness: both sides rate-limit their proactive updates to
            // the same interval (per-change flooding is the paper's
            // counting convention, not a deployable protocol).
            let routing = IntraClusterRouting::with_policy(UpdatePolicy::Coalesced {
                interval: dump_interval,
            });
            let stack = ProtocolStack::ideal(world, clustering, routing);
            let mut stack = on_plane(stack, None);
            stack.prime(&mut QuietCtx::new().ctx());
            let mut dsdv = Dsdv::new(dump_interval);
            let mut flat = DsdvOutcome::default();
            let agg = run_measured(
                &mut stack,
                protocol.warmup,
                protocol.measure,
                None,
                UNTRACED,
                |stack, _, _| {
                    // The flat baseline sees the same link events.
                    let world = stack.world();
                    flat.absorb(dsdv.step(protocol.dt, world.topology(), world.last_events()));
                },
            )
            .expect("a run without a cancel token cannot be cancelled");

            let world = stack.world();
            let elapsed = world.measured_time();
            let sizes_tbl = world.sizes();
            let per_node_bits = |bytes: f64| bytes * 8.0 / n as f64 / elapsed;
            let hello_bits = world.counters().bytes(MessageKind::Hello) as f64;
            let cluster_bits =
                agg.cluster.maintenance.total_messages() as f64 * sizes_tbl.cluster as f64;
            let route_bits = agg.route.route_entries as f64 * sizes_tbl.route_entry as f64;
            let clustered_bits = per_node_bits(hello_bits + cluster_bits + route_bits);

            // Flat baseline bits: HELLO is needed there too; dumps carry
            // N-entry tables, triggered updates one entry.
            let flat_bytes = hello_bits
                + flat.full_dump_entries as f64 * sizes_tbl.route_entry as f64
                + flat.triggered_messages as f64 * sizes_tbl.route_entry as f64;
            let flat_bits = per_node_bits(flat_bytes);

            BaselineRow {
                nodes: n,
                clustered_bits,
                flat_bits,
            }
        })
        .collect()
}

/// Renders the comparison table.
pub fn table(rows: &[BaselineRow]) -> Table {
    let mut t = Table::new([
        "N",
        "clustered bits/node/s",
        "flat DSDV bits/node/s",
        "flat/clustered",
    ]);
    for r in rows {
        t.row([
            r.nodes.to_string(),
            fmt_sig(r.clustered_bits, 4),
            fmt_sig(r.flat_bits, 4),
            fmt_sig(r.flat_bits / r.clustered_bits, 3),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_overhead_grows_with_n_clustered_stays_flat() {
        let protocol = Protocol {
            warmup: 20.0,
            measure: 60.0,
            seeds: vec![9],
            dt: 0.5,
        };
        let rows = flat_vs_clustered(&protocol, &[100, 400], 10.0);
        assert_eq!(rows.len(), 2);
        // Flat per-node overhead grows with N (dump entries scale with N).
        assert!(rows[1].flat_bits > 2.0 * rows[0].flat_bits);
        // Clustered per-node overhead is roughly size-independent at fixed
        // density (within a factor ~2 of itself).
        let ratio = rows[1].clustered_bits / rows[0].clustered_bits;
        assert!(ratio < 2.0, "clustered ratio {ratio}");
        // And the flat baseline is the loser at scale.
        assert!(rows[1].flat_bits > rows[1].clustered_bits);
    }
}
