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
    use manet_util::stats::loglog_slope;

    fn tiny_protocol() -> Protocol {
        Protocol {
            warmup: 30.0,
            measure: 90.0,
            seeds: vec![3],
            dt: 0.5,
        }
    }

    /// The tiny sweeps' base point: N = 150 in a 600 m square, r/a = 0.15.
    fn tiny() -> Scenario {
        Scenario {
            nodes: 150,
            side: 600.0,
            radius: 90.0,
            ..Scenario::default()
        }
    }

    /// Sweeps `xs` through `vary` applied to the tiny base point.
    fn tiny_sweep(
        x_label: &'static str,
        xs: &[f64],
        vary: fn(Scenario, f64) -> Scenario,
    ) -> Figure {
        let scenarios = xs.iter().map(|&x| (x, vary(tiny(), x))).collect();
        sweep_with(x_label, scenarios, |s| {
            Some(measure_lid(s, &tiny_protocol()))
        })
        .expect("an uncancellable sweep completes")
    }

    fn tiny_fig(radii: &[f64]) -> Figure {
        tiny_sweep("r/a", radii, |s, frac| Scenario {
            radius: frac * s.side,
            ..s
        })
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

    /// Log-log slope of `series` over the figure's `x`.
    fn slope(fig: &Figure, series: fn(&SweepPoint) -> f64) -> f64 {
        let xs: Vec<f64> = fig.points.iter().map(|p| p.x).collect();
        let ys: Vec<f64> = fig.points.iter().map(series).collect();
        loglog_slope(&xs, &ys).expect("three positive points").slope
    }

    /// The physics gates (EXPERIMENTS.md, "Asserted"): simulation against
    /// analysis at the measured P, by RMS relative error and by the
    /// difference of the two series' log-log slopes. ROUTE has no RMS
    /// gate: its level sits ×3.5–4.5 above the bound (ABL4), but its
    /// shape must follow the analysis.
    fn assert_physics(fig: &Figure) {
        let (rms_hello, rms_cluster, _) = fig.agreement();
        let gap = |sim: fn(&SweepPoint) -> f64, ana: fn(&SweepPoint) -> f64| {
            (slope(fig, sim) - slope(fig, ana)).abs()
        };
        let hello = gap(|p| p.sim.f_hello.mean, |p| p.ana_f_hello);
        let cluster = gap(|p| p.sim.f_cluster.mean, |p| p.ana_f_cluster);
        let route = gap(|p| p.sim.f_route.mean, |p| p.ana_f_route);
        let label = fig.x_label;
        assert!(rms_hello < 0.03, "{label}: HELLO RMS error {rms_hello}");
        assert!(hello < 0.05, "{label}: HELLO slope gap {hello}");
        assert!(
            rms_cluster < 0.25,
            "{label}: CLUSTER RMS error {rms_cluster}"
        );
        assert!(cluster < 0.3, "{label}: CLUSTER slope gap {cluster}");
        assert!(route < 0.45, "{label}: ROUTE slope gap {route}");
    }

    #[test]
    fn physics_gates_hold_across_range() {
        assert_physics(&tiny_fig(&[0.1, 0.2, 0.3]));
    }

    #[test]
    fn physics_gates_hold_across_speed() {
        assert_physics(&tiny_sweep("v [m/s]", &[2.0, 10.0, 40.0], |s, v| {
            Scenario { speed: v, ..s }
        }));
    }

    #[test]
    fn physics_gates_hold_across_density() {
        assert_physics(&tiny_sweep("N", &[75.0, 150.0, 300.0], |s, n| Scenario {
            nodes: n as usize,
            ..s
        }));
    }
}
