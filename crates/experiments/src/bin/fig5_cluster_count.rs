//! Reproduces Figure 5: number of clusters vs network size (5a) and vs
//! transmission range (5b), LID formation simulation vs analysis.

use manet_experiments::cli::BinArgs;
use manet_experiments::harness::{Protocol, Scenario};
use manet_experiments::lid_figures::{fig5_table, fig5a, fig5b};

fn main() {
    let args = BinArgs::init("fig5_cluster_count");
    let reps = 30;
    println!("FIG5a — cluster count vs N (r = 0.165a), {reps} replications\n");
    manet_experiments::emit("fig5a_vs_n", &fig5_table("N", &fig5a(reps)));
    println!("\nFIG5b — cluster count vs r/a (N = 400), {reps} replications\n");
    manet_experiments::emit("fig5b_vs_r", &fig5_table("r/a", &fig5b(reps)));
    println!("\nNote: the paper's Eqn 18 overestimates true LID cluster counts;");
    println!("the Caro-Wei column is this reproduction's first-round lower bound.");
    println!("See EXPERIMENTS.md for the discussion.");
    args.finish(&Scenario::default(), &Protocol::default());
}
