//! ABL3 — mobility-model sensitivity of the link dynamics.

use manet_experiments::ablations::mobility_sensitivity;
use manet_experiments::cli::BinArgs;
use manet_experiments::harness::{Protocol, Scenario};

fn main() {
    let args = BinArgs::init("mobility_sensitivity");
    println!("ABL3 — link dynamics under four mobility models (paper §3.2 claim)\n");
    manet_experiments::emit("abl3_mobility", &mobility_sensitivity(&Protocol::default()));
    println!("epoch-RD and CV should match Claim 2; RWP and random-walk deviate,");
    println!("which is why the paper analyzes (B)CV instead.");
    args.finish(&Scenario::default(), &Protocol::default());
}
