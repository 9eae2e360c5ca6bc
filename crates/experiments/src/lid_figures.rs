//! Figures 4 and 5: the Lowest-ID head-ratio analysis.

use manet_cluster::{ClusterStats, Clustering, LowestId};
use manet_geom::{Metric, SquareRegion};
use manet_model::{lid, DegreeModel, NetworkParams};
use manet_sim::Topology;
use manet_util::stats::Summary;
use manet_util::table::{fmt_sig, Table};
use manet_util::Rng;

/// One row of Figure 4: the Eqn 16 residual and the approximation quality
/// at a given closed-neighborhood size `d+1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig4Row {
    /// Closed neighborhood size `d+1`.
    pub closed_neighborhood: f64,
    /// Exact `P` from Eqn 16 (bisection).
    pub p_exact: f64,
    /// Approximate `P = 1/√(d+1)` (Eqn 17).
    pub p_approx: f64,
    /// The dropped residual `(1−P)^{d+1}` (Figure 4a).
    pub residual: f64,
}

/// Figure 4: sweeps `d+1 ∈ {2 … 100}`.
pub fn fig4() -> Vec<Fig4Row> {
    (2..=100)
        .step_by(2)
        .map(|k| {
            let d = k as f64 - 1.0;
            let p_exact = lid::p_exact(d).expect("Eqn 16 brackets a root");
            Fig4Row {
                closed_neighborhood: k as f64,
                p_exact,
                p_approx: lid::p_approx(d),
                residual: lid::eqn16_residual(p_exact, d),
            }
        })
        .collect()
}

/// Renders Figure 4 as a table.
pub fn fig4_table(rows: &[Fig4Row]) -> Table {
    let mut t = Table::new(["d+1", "P exact (Eqn16)", "P approx (Eqn17)", "(1-P)^(d+1)"]);
    for r in rows {
        t.row([
            fmt_sig(r.closed_neighborhood, 3),
            fmt_sig(r.p_exact, 4),
            fmt_sig(r.p_approx, 4),
            fmt_sig(r.residual, 3),
        ]);
    }
    t
}

/// One row of Figure 5: expected vs simulated cluster counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig5Row {
    /// Swept value (`N` for 5a, `r/a` for 5b).
    pub x: f64,
    /// Monte-Carlo mean cluster count from true LID formation.
    pub sim_clusters: f64,
    /// Cross-replication 95% CI half-width.
    pub sim_ci95: f64,
    /// The paper's analysis `N·P` with `P` from Eqn 18.
    pub paper_analysis: f64,
    /// This work's Caro–Wei comparison bound `N·P_CW`.
    pub caro_wei: f64,
}

/// Monte-Carlo LID formation on static uniform placements (the paper's
/// Figure 5 setting), measured over `replications` seeds.
fn simulate_formation(n: usize, side: f64, radius: f64, replications: u64) -> (f64, f64) {
    let region = SquareRegion::new(side);
    let mut counts = Summary::new();
    for seed in 0..replications {
        let mut rng = Rng::seed_from_u64(0xF1605EED ^ (seed * 0x9E37).wrapping_mul(n as u64));
        let positions: Vec<_> = (0..n).map(|_| region.sample_uniform(&mut rng)).collect();
        let topo = Topology::compute(&positions, region, radius, Metric::Euclidean);
        let clustering = Clustering::form(LowestId, &topo);
        debug_assert!(clustering.check_invariants(&topo).is_ok());
        counts.push(ClusterStats::measure(&clustering).cluster_count as f64);
    }
    (counts.mean(), counts.ci95_half_width())
}

/// Figure 5(a): cluster count vs network size `N` at fixed `r = 0.165·a`.
pub fn fig5a(replications: u64) -> Vec<Fig5Row> {
    let side = 1000.0;
    let radius = 165.0;
    [50usize, 100, 200, 400, 700, 1000]
        .into_iter()
        .map(|n| {
            let params = NetworkParams::new(n, side, radius, 1.0).expect("valid");
            let (sim, ci) = simulate_formation(n, side, radius, replications);
            Fig5Row {
                x: n as f64,
                sim_clusters: sim,
                sim_ci95: ci,
                paper_analysis: lid::expected_cluster_count(&params, DegreeModel::BorderCorrected),
                caro_wei: n as f64 * lid::p_caro_wei(&params, DegreeModel::BorderCorrected),
            }
        })
        .collect()
}

/// Figure 5(b): cluster count vs transmission range at fixed `N = 400`.
pub fn fig5b(replications: u64) -> Vec<Fig5Row> {
    let side = 1000.0;
    let n = 400usize;
    [0.05, 0.10, 0.165, 0.25, 0.35, 0.50]
        .into_iter()
        .map(|frac| {
            let radius = frac * side;
            let params = NetworkParams::new(n, side, radius, 1.0).expect("valid");
            let (sim, ci) = simulate_formation(n, side, radius, replications);
            Fig5Row {
                x: frac,
                sim_clusters: sim,
                sim_ci95: ci,
                paper_analysis: lid::expected_cluster_count(&params, DegreeModel::BorderCorrected),
                caro_wei: n as f64 * lid::p_caro_wei(&params, DegreeModel::BorderCorrected),
            }
        })
        .collect()
}

/// Renders a Figure 5 panel as a table.
pub fn fig5_table(x_label: &str, rows: &[Fig5Row]) -> Table {
    let mut t = Table::new([
        x_label,
        "clusters sim",
        "±95%",
        "paper (Eqn18)",
        "Caro-Wei (this work)",
    ]);
    for r in rows {
        t.row([
            fmt_sig(r.x, 4),
            fmt_sig(r.sim_clusters, 4),
            fmt_sig(r.sim_ci95, 2),
            fmt_sig(r.paper_analysis, 4),
            fmt_sig(r.caro_wei, 4),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Fig 4 bounds EXPERIMENTS.md states, row by row.
    #[test]
    fn fig4_residual_vanishes_and_curves_converge() {
        let rows = fig4();
        assert_eq!(rows.len(), 50);
        let (first, last) = (rows[0], rows[rows.len() - 1]);
        // Figure 4a: the residual falls strictly, from 1/9 at d+1 = 2
        // to 2.7e-5 at d+1 = 100.
        for w in rows.windows(2) {
            assert!(w[1].residual < w[0].residual, "{w:?}");
        }
        assert_eq!(first.closed_neighborhood, 2.0);
        assert!((first.residual - 1.0 / 9.0).abs() < 1e-9, "{first:?}");
        assert_eq!(last.closed_neighborhood, 100.0);
        assert!(last.residual > 2.6e-5 && last.residual < 2.7e-5, "{last:?}");
        // Figure 4b: Eqn 17 is within 0.89% of Eqn 16 for every
        // d+1 ≥ 12, and 6% off at d+1 = 2.
        let gap = |r: &Fig4Row| (r.p_exact - r.p_approx).abs() / r.p_exact;
        for r in rows.iter().filter(|r| r.closed_neighborhood >= 12.0) {
            assert!(gap(r) < 0.0089, "{r:?}: gap {}", gap(r));
        }
        assert!(
            (0.060..=0.061).contains(&gap(&first)),
            "gap {}",
            gap(&first)
        );
    }

    #[test]
    fn fig5a_shapes() {
        let rows = fig5a(3);
        // Simulated cluster count grows with N but sublinearly.
        let first = rows.first().unwrap();
        let last = rows.last().unwrap();
        assert!(last.sim_clusters > first.sim_clusters);
        let n_ratio = last.x / first.x;
        assert!(last.sim_clusters / first.sim_clusters < n_ratio);
        // Paper analysis overestimates true LID cluster counts (see
        // EXPERIMENTS.md): every analytic point sits above simulation.
        for r in &rows {
            assert!(r.paper_analysis > r.sim_clusters, "row {:?}", r);
            // …and Caro–Wei undercuts simulation.
            assert!(
                r.caro_wei < r.sim_clusters + r.sim_ci95 + 1.0,
                "row {:?}",
                r
            );
        }
    }

    #[test]
    fn fig5b_cluster_count_decreases_with_range() {
        let rows = fig5b(3);
        for w in rows.windows(2) {
            assert!(
                w[1].sim_clusters <= w[0].sim_clusters + 1.0,
                "cluster count must shrink with range: {:?}",
                w
            );
        }
        // Tables render.
        let t = fig5_table("r/a", &rows);
        assert_eq!(t.len(), rows.len());
    }
}
