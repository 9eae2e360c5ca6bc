//! Reproduces Figure 4: the Eqn 16 residual (4a) and the quality of the
//! 1/sqrt(d+1) approximation (4b).

use manet_experiments::cli::BinArgs;
use manet_experiments::harness::{Protocol, Scenario};
use manet_experiments::lid_figures::{fig4, fig4_table};

fn main() {
    let args = BinArgs::init("fig4_lid_p_approx");
    println!("FIG4 — LID head-ratio equation: residual and approximation (paper Figure 4)\n");
    let rows = fig4();
    manet_experiments::emit("fig4_lid_p_approx", &fig4_table(&rows));
    let worst = rows
        .iter()
        .skip(5)
        .map(|r| ((r.p_exact - r.p_approx).abs() / r.p_exact * 100.0).abs())
        .fold(0.0f64, f64::max);
    println!("worst Eqn17-vs-Eqn16 deviation for d+1 > 12: {worst:.2}%");
    args.finish(&Scenario::default(), &Protocol::default());
}
