//! Figures 1–3: control-message frequencies vs `r`, `v`, and `ρ`,
//! simulation against analysis.
//!
//! As in the paper, the cluster-head ratio `P` fed to the analytical
//! curves is **measured in real time during the simulation** ("P for LID
//! is measured in real time during the simulation", Section 4); everything
//! else in the analysis curve is closed-form.
//!
//! Each figure runs as a spec: [`run_scenario`](crate::spec::run_scenario)
//! sweeps the grids below through [`sweep_with`].

use crate::harness::{analysis_at, Measured, Scenario};
use manet_util::stats::rms_relative_error;
use manet_util::table::{fmt_sig, Table};

/// One sweep point: the swept value, the simulation measurement, and the
/// analysis evaluated at the measured head ratio.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Value of the swept variable (`r`, `v`, or `ρ` scaled per figure).
    pub x: f64,
    /// Simulation measurements.
    pub sim: Measured,
    /// Analytical frequencies at the measured `P`.
    pub ana_f_hello: f64,
    /// Analytical CLUSTER frequency.
    pub ana_f_cluster: f64,
    /// Analytical ROUTE frequency.
    pub ana_f_route: f64,
}

/// A completed figure: its points plus agreement metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    /// Human-readable sweep label (`"r/a"`, `"v [m/s]"`, …).
    pub x_label: &'static str,
    /// Sweep points in ascending `x`.
    pub points: Vec<SweepPoint>,
}

impl Figure {
    /// RMS relative error of simulation vs analysis for the three series
    /// `(hello, cluster, route)`.
    pub fn agreement(&self) -> (f64, f64, f64) {
        let ana_h: Vec<f64> = self.points.iter().map(|p| p.ana_f_hello).collect();
        let ana_c: Vec<f64> = self.points.iter().map(|p| p.ana_f_cluster).collect();
        let ana_r: Vec<f64> = self.points.iter().map(|p| p.ana_f_route).collect();
        let sim_h: Vec<f64> = self.points.iter().map(|p| p.sim.f_hello.mean).collect();
        let sim_c: Vec<f64> = self.points.iter().map(|p| p.sim.f_cluster.mean).collect();
        let sim_r: Vec<f64> = self.points.iter().map(|p| p.sim.f_route.mean).collect();
        (
            rms_relative_error(&ana_h, &sim_h).unwrap_or(f64::NAN),
            rms_relative_error(&ana_c, &sim_c).unwrap_or(f64::NAN),
            rms_relative_error(&ana_r, &sim_r).unwrap_or(f64::NAN),
        )
    }

    /// Renders the paper-style table.
    pub fn table(&self) -> Table {
        let mut t = Table::new([
            self.x_label,
            "P (meas)",
            "d (meas)",
            "f_hello sim",
            "f_hello ana",
            "f_cluster sim",
            "f_cluster ana",
            "f_route sim",
            "f_route ana",
        ]);
        for p in &self.points {
            t.row([
                fmt_sig(p.x, 4),
                fmt_sig(p.sim.head_ratio.mean, 3),
                fmt_sig(p.sim.mean_degree.mean, 3),
                fmt_sig(p.sim.f_hello.mean, 3),
                fmt_sig(p.ana_f_hello, 3),
                fmt_sig(p.sim.f_cluster.mean, 3),
                fmt_sig(p.ana_f_cluster, 3),
                fmt_sig(p.sim.f_route.mean, 3),
                fmt_sig(p.ana_f_route, 3),
            ]);
        }
        t
    }
}

/// Figure 1's transmission-range grid, as fractions of the area side.
pub const FIG1_RADIUS_FRACS: [f64; 7] = [0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35];
/// Figure 2's node-speed grid in m/s.
pub const FIG2_SPEEDS: [f64; 7] = [2.0, 5.0, 10.0, 20.0, 30.0, 40.0, 50.0];
/// Figure 3's node-count grid (density is `N / a²` at the default side).
pub const FIG3_NODES: [usize; 6] = [100, 200, 300, 400, 600, 900];

/// Closure-based sweep core: measures each scenario with `measure`,
/// evaluates the analysis at the measured head ratio, and assembles a
/// [`Figure`]. `measure` returning `None` (a cancelled run) aborts the
/// whole sweep — partial figures are never published.
pub fn sweep_with<M>(
    x_label: &'static str,
    scenarios: Vec<(f64, Scenario)>,
    mut measure: M,
) -> Option<Figure>
where
    M: FnMut(&Scenario) -> Option<Measured>,
{
    let mut points = Vec::new();
    for (x, scenario) in scenarios {
        let sim = measure(&scenario)?;
        let ana = analysis_at(&scenario, sim.head_ratio.mean);
        points.push(SweepPoint {
            x,
            sim,
            ana_f_hello: ana.f_hello,
            ana_f_cluster: ana.f_cluster,
            ana_f_route: ana.f_route,
        });
    }
    Some(Figure { x_label, points })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{measure_lid, Protocol};

    fn tiny_protocol() -> Protocol {
        Protocol {
            warmup: 30.0,
            measure: 90.0,
            seeds: vec![3],
            dt: 0.5,
        }
    }

    fn tiny_fig(radii: &[f64]) -> Figure {
        let base = Scenario {
            nodes: 150,
            side: 600.0,
            ..Scenario::default()
        };
        let scenarios = radii
            .iter()
            .map(|&frac| {
                (
                    frac,
                    Scenario {
                        radius: frac * base.side,
                        ..base
                    },
                )
            })
            .collect();
        sweep_with("r/a", scenarios, |s| Some(measure_lid(s, &tiny_protocol())))
            .expect("an uncancellable sweep completes")
    }

    #[test]
    fn hello_grows_with_range_and_tracks_analysis() {
        let fig = tiny_fig(&[0.1, 0.3]);
        assert!(fig.points[1].sim.f_hello.mean > fig.points[0].sim.f_hello.mean);
        for p in &fig.points {
            let rel = (p.sim.f_hello.mean - p.ana_f_hello).abs() / p.ana_f_hello;
            assert!(
                rel < 0.25,
                "x={}: sim {} vs ana {}",
                p.x,
                p.sim.f_hello.mean,
                p.ana_f_hello
            );
        }
    }

    #[test]
    fn table_has_one_row_per_point() {
        let fig = tiny_fig(&[0.15]);
        let t = fig.table();
        assert_eq!(t.len(), 1);
        let (h, c, r) = fig.agreement();
        assert!(h.is_finite() && c.is_finite() && r.is_finite());
    }
}
