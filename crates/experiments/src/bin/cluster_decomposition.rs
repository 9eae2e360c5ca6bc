//! ABL1 — CLUSTER traffic decomposition and head-contact counting
//! conventions.

use manet_experiments::ablations::cluster_decomposition;
use manet_experiments::cli::BinArgs;
use manet_experiments::harness::{Protocol, Scenario};

fn main() {
    let args = BinArgs::init("cluster_decomposition");
    println!("ABL1 — CLUSTER decomposition: break vs contact, PerPair vs PerEndpoint\n");
    manet_experiments::emit(
        "abl1_cluster_decomposition",
        &cluster_decomposition(&Protocol::default()),
    );
    println!("The simulation's contact column should track the PerPair convention");
    println!("(the paper's literal Eqn 10 reading, PerEndpoint, is 2x).");
    args.finish(&Scenario::default(), &Protocol::default());
}
