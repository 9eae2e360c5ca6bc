//! ABL2 — intra-cluster link models for the ROUTE bound.

use manet_experiments::ablations::route_model_ablation;
use manet_experiments::cli::BinArgs;
use manet_experiments::harness::{Protocol, Scenario};

fn main() {
    let args = BinArgs::init("route_model_ablation");
    println!("ABL2 — ROUTE frequency: member+member (κ) vs member-head-only models\n");
    manet_experiments::emit(
        "abl2_route_model",
        &route_model_ablation(&Protocol::default()),
    );
    println!("The κ model should track simulation; the star-only model misses the");
    println!("member-member churn and undershoots at large ranges.");
    args.finish(&Scenario::default(), &Protocol::default());
}
