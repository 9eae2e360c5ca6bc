//! Validates Claim 1 (expected degree) and Claim 2 (link change rate).

use manet_experiments::claims;
use manet_experiments::cli::BinArgs;
use manet_experiments::harness::{Protocol, Scenario};

fn main() {
    let args = BinArgs::init("claim_validation");
    println!("CLAIM1 — expected degree: Monte Carlo vs Eqn 1 (N = 400)\n");
    manet_experiments::emit("claim1_degree", &claims::claim1_table(&claims::claim1(50)));
    println!("\nCLAIM2 — link change rate on the CV torus vs 16dv/(pi^2 r)\n");
    manet_experiments::emit("claim2_rate", &claims::claim2_table(&claims::claim2(300.0)));
    println!("\nBCV — the paper's analysis model, literally: CV on a 3 km torus");
    println!("observed through a central 1 km window (border effects live)\n");
    manet_experiments::emit(
        "claim_bcv_window",
        &claims::bcv_table(&claims::bcv_window(3000.0, 300.0)),
    );
    args.finish(&Scenario::default(), &Protocol::default());
}
