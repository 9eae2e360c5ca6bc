//! EXT1 — the overhead model is parametric in P: other clustering policies.

use manet_experiments::ablations::generic_p_extension;
use manet_experiments::cli::BinArgs;
use manet_experiments::harness::{Protocol, Scenario};

fn main() {
    let args = BinArgs::init("generic_p_extension");
    println!("EXT1 — generic one-hop policies through the same closed forms\n");
    manet_experiments::emit("ext1_generic_p", &generic_p_extension(&Protocol::default()));
    args.finish(&Scenario::default(), &Protocol::default());
}
