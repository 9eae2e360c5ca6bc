//! Direct validation of the paper's Claims 1 and 2.

use crate::harness::{build_world, Scenario, WorldDriver};
use manet_geom::{Metric, SquareRegion};
use manet_model::{DegreeModel, NetworkParams};
use manet_sim::{MobilityKind, QuietCtx, Topology};
use manet_util::stats::Summary;
use manet_util::table::{fmt_sig, Table};
use manet_util::Rng;

/// One row of the Claim 1 validation: expected degree, theory vs Monte
/// Carlo, under both the bounded-window (Miller) and torus geometries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Claim1Row {
    /// Transmission range as a fraction of the side.
    pub r_over_a: f64,
    /// Monte-Carlo mean degree, bounded window (Euclidean metric).
    pub mc_window: f64,
    /// Claim 1 / Eqn 1 prediction (Miller CDF).
    pub theory_window: f64,
    /// Monte-Carlo mean degree on the torus.
    pub mc_torus: f64,
    /// Torus prediction `(N−1)πr²/a²`.
    pub theory_torus: f64,
}

/// Validates Claim 1 over a range sweep at `N = 400`.
pub fn claim1(replications: u64) -> Vec<Claim1Row> {
    let n = 400usize;
    let side = 1000.0;
    let region = SquareRegion::new(side);
    [0.05, 0.10, 0.15, 0.25, 0.40]
        .into_iter()
        .map(|frac| {
            let radius = frac * side;
            let params = NetworkParams::new(n, side, radius, 1.0).expect("valid");
            let mut window = Summary::new();
            let mut torus = Summary::new();
            for seed in 0..replications {
                let mut rng = Rng::seed_from_u64(0xC1A11 ^ seed.wrapping_mul(0x2545F491));
                let pts: Vec<_> = (0..n).map(|_| region.sample_uniform(&mut rng)).collect();
                for (metric, acc) in [
                    (Metric::Euclidean, &mut window),
                    (Metric::toroidal(side), &mut torus),
                ] {
                    acc.push(Topology::compute(&pts, region, radius, metric).mean_degree());
                }
            }
            Claim1Row {
                r_over_a: frac,
                mc_window: window.mean(),
                theory_window: DegreeModel::BorderCorrected.expected_degree(&params),
                mc_torus: torus.mean(),
                theory_torus: DegreeModel::TorusExact.expected_degree(&params),
            }
        })
        .collect()
}

/// Renders the Claim 1 table.
pub fn claim1_table(rows: &[Claim1Row]) -> Table {
    let mut t = Table::new([
        "r/a",
        "d window MC",
        "d window Eqn1",
        "d torus MC",
        "d torus theory",
    ]);
    for r in rows {
        t.row([
            fmt_sig(r.r_over_a, 3),
            fmt_sig(r.mc_window, 4),
            fmt_sig(r.theory_window, 4),
            fmt_sig(r.mc_torus, 4),
            fmt_sig(r.theory_torus, 4),
        ]);
    }
    t
}

/// One row of the Claim 2 validation: link change rate, simulated vs
/// `16·d·v/(π²·r)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Claim2Row {
    /// Node speed.
    pub speed: f64,
    /// Simulated per-node total link change rate.
    pub sim_rate: f64,
    /// Claim 2 prediction with the torus degree.
    pub theory_rate: f64,
}

/// Validates Claim 2 on the constant-velocity torus across a speed sweep.
pub fn claim2(measure_seconds: f64) -> Vec<Claim2Row> {
    [2.0, 5.0, 10.0, 20.0, 40.0]
        .into_iter()
        .map(|speed| {
            let scenario = Scenario {
                speed,
                mobility: MobilityKind::ConstantVelocity,
                nodes: 300,
                radius: 120.0,
                ..Scenario::default()
            };
            let mut world = WorldDriver::new(build_world(&scenario, 0.2, 0xC1A12));
            let mut quiet = QuietCtx::new();
            world.run_for(30.0, &mut quiet.ctx());
            world.begin_measurement();
            world.run_for(measure_seconds, &mut quiet.ctx());
            let n = world.node_count();
            let elapsed = world.measured_time();
            let sim_rate = world.counters().per_node_link_generation_rate(n, elapsed)
                + world.counters().per_node_link_break_rate(n, elapsed);
            let model = manet_model::OverheadModel::new(scenario.params(), DegreeModel::TorusExact);
            Claim2Row {
                speed,
                sim_rate,
                theory_rate: model.link_change_rate(),
            }
        })
        .collect()
}

/// Renders the Claim 2 table.
pub fn claim2_table(rows: &[Claim2Row]) -> Table {
    let mut t = Table::new(["v [m/s]", "λ sim", "λ = 16dv/(π²r)"]);
    for r in rows {
        t.row([
            fmt_sig(r.speed, 3),
            fmt_sig(r.sim_rate, 4),
            fmt_sig(r.theory_rate, 4),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claim1_theory_within_noise() {
        for r in claim1(20) {
            let rel_w = (r.mc_window - r.theory_window).abs() / r.theory_window;
            let rel_t = (r.mc_torus - r.theory_torus).abs() / r.theory_torus;
            assert!(rel_w < 0.03, "window r/a={}: {rel_w}", r.r_over_a);
            assert!(rel_t < 0.03, "torus r/a={}: {rel_t}", r.r_over_a);
            // The border effect is real: window degree < torus degree.
            assert!(r.mc_window < r.mc_torus);
        }
    }

    #[test]
    fn claim2_rate_tracks_theory() {
        for r in claim2(120.0) {
            let rel = (r.sim_rate - r.theory_rate).abs() / r.theory_rate;
            assert!(
                rel < 0.15,
                "v={}: sim {} vs theory {} (rel {rel:.3})",
                r.speed,
                r.sim_rate,
                r.theory_rate
            );
        }
    }
}

/// One row of the dynamic BCV-window validation: the paper's actual
/// analysis model, realized literally.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BcvRow {
    /// Window side as a fraction of the outer torus side.
    pub window_fraction: f64,
    /// Mean in-window nodes (should be ≈ N_window by uniformity).
    pub mean_in_window: f64,
    /// Measured mean in-window degree (neighbors outside the window not
    /// counted).
    pub degree_sim: f64,
    /// Claim 1 prediction with the window's `N` and side.
    pub degree_theory: f64,
    /// Measured per-node link change rate restricted to in-window pairs.
    pub lambda_sim: f64,
    /// Claim 2 prediction `16·d·v/(π²·r)` with the border-corrected `d`.
    pub lambda_theory: f64,
}

/// Realizes the Bounded Constant Velocity model literally: CV nodes on a
/// large torus (approximating the unbounded plane), observed through a
/// central square window `S`. Both Claim 1 (border-corrected degree) and
/// Claim 2 (in-window link change rate) are measured exactly as the paper
/// defines them — links to nodes outside `S` do not exist.
pub fn bcv_window(outer: f64, measure_seconds: f64) -> Vec<BcvRow> {
    use manet_geom::Vec2;
    use manet_mobility::{ConstantVelocity, Mobility};
    use manet_sim::Topology;

    assert!(
        outer >= 1200.0,
        "outer torus must dwarf the transmission range"
    );
    let density = 400.0 / 1e6; // the default scenario's density
    let n_total = (density * outer * outer).round() as usize;
    let radius = 150.0;
    let speed = 10.0;
    let dt = 0.25;

    [1.0f64 / 3.0]
        .into_iter()
        .map(|window_fraction| {
            let win_side = outer * window_fraction;
            let lo = (outer - win_side) / 2.0;
            let hi = lo + win_side;
            let n_window = density * win_side * win_side;
            let window_params =
                NetworkParams::new(n_window.round() as usize, win_side, radius, speed)
                    .expect("valid window params");

            let region = SquareRegion::new(outer);
            let mut rng = Rng::seed_from_u64(0xBC5);
            let mut cv = ConstantVelocity::new(region, n_total, speed, &mut rng);

            // Window-restricted topology: only in-window nodes, Euclidean
            // metric (no wrap inside a window far from the torus seam).
            let window_topo = |cv: &ConstantVelocity| -> (Vec<u32>, Topology) {
                let ids: Vec<u32> = cv
                    .positions()
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| p.x >= lo && p.x < hi && p.y >= lo && p.y < hi)
                    .map(|(i, _)| i as u32)
                    .collect();
                let pts: Vec<Vec2> = ids
                    .iter()
                    .map(|&i| {
                        let p = cv.positions()[i as usize];
                        Vec2::new(p.x - lo, p.y - lo)
                    })
                    .collect();
                let topo =
                    Topology::compute(&pts, SquareRegion::new(win_side), radius, Metric::Euclidean);
                (ids, topo)
            };

            // Warm up, then measure.
            for _ in 0..(30.0 / dt) as usize {
                cv.step(dt, &mut rng);
            }
            let (mut prev_ids, mut prev_topo) = window_topo(&cv);
            let mut degree = Summary::new();
            let mut in_window = Summary::new();
            let mut changes = 0u64;
            let mut node_seconds = 0.0f64;
            let ticks = (measure_seconds / dt) as usize;
            for _ in 0..ticks {
                cv.step(dt, &mut rng);
                let (ids, topo) = window_topo(&cv);
                degree.push(topo.mean_degree());
                in_window.push(ids.len() as f64);
                node_seconds += ids.len() as f64 * dt;
                // Count link changes among nodes present in both frames,
                // identified by their global ids (the paper's events: links
                // to departed/arrived nodes are window-boundary artifacts,
                // not CV link dynamics).
                let prev_links: std::collections::BTreeSet<(u32, u32)> = prev_topo
                    .links()
                    .map(|(a, b)| (prev_ids[a as usize], prev_ids[b as usize]))
                    .map(|(a, b)| if a < b { (a, b) } else { (b, a) })
                    .collect();
                let cur_links: std::collections::BTreeSet<(u32, u32)> = topo
                    .links()
                    .map(|(a, b)| (ids[a as usize], ids[b as usize]))
                    .map(|(a, b)| if a < b { (a, b) } else { (b, a) })
                    .collect();
                let stay: std::collections::BTreeSet<u32> = ids
                    .iter()
                    .copied()
                    .filter(|i| prev_ids.binary_search(i).is_ok())
                    .collect();
                for pair in prev_links.symmetric_difference(&cur_links) {
                    if stay.contains(&pair.0) && stay.contains(&pair.1) {
                        changes += 1;
                    }
                }
                prev_ids = ids;
                prev_topo = topo;
            }
            let d_theory = DegreeModel::BorderCorrected.expected_degree(&window_params);
            let lambda_theory =
                manet_mobility::rates::link_change_rate_for_degree(d_theory, radius, speed);
            BcvRow {
                window_fraction,
                mean_in_window: in_window.mean(),
                degree_sim: degree.mean(),
                degree_theory: d_theory,
                lambda_sim: 2.0 * changes as f64 / node_seconds,
                lambda_theory,
            }
        })
        .collect()
}

/// Renders the BCV-window validation table.
pub fn bcv_table(rows: &[BcvRow]) -> Table {
    let mut t = Table::new([
        "window/outer",
        "nodes in S",
        "d sim (window)",
        "d Eqn1",
        "lambda sim",
        "lambda Claim2",
    ]);
    for r in rows {
        t.row([
            fmt_sig(r.window_fraction, 3),
            fmt_sig(r.mean_in_window, 4),
            fmt_sig(r.degree_sim, 4),
            fmt_sig(r.degree_theory, 4),
            fmt_sig(r.lambda_sim, 4),
            fmt_sig(r.lambda_theory, 4),
        ]);
    }
    t
}

#[cfg(test)]
mod bcv_tests {
    use super::*;

    #[test]
    fn bcv_window_matches_border_corrected_claims() {
        // A reduced instance (600 m window in a 1.8 km torus) keeps the
        // debug-mode test fast; the claim_validation binary runs full size.
        let rows = bcv_window(1800.0, 60.0);
        assert_eq!(rows.len(), 1);
        let r = rows[0];
        // Uniformity: the window holds its share of nodes.
        let expect_n = 400.0 / 1e6 * 600.0 * 600.0;
        assert!(
            (r.mean_in_window - expect_n).abs() / expect_n < 0.08,
            "{r:?}"
        );
        // Claim 1 with border effect.
        let rel_d = (r.degree_sim - r.degree_theory).abs() / r.degree_theory;
        assert!(rel_d < 0.05, "degree: {r:?}");
        // Claim 2 with the border-corrected degree.
        let rel_l = (r.lambda_sim - r.lambda_theory).abs() / r.lambda_theory;
        assert!(rel_l < 0.2, "lambda: {r:?}");
    }
}
