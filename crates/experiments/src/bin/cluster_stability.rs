//! EXT6 — cluster stability: head lifetimes, membership residence, role
//! churn, with the Claim 2 link-lifetime companion.

use manet_experiments::cli::BinArgs;
use manet_experiments::harness::{Protocol, Scenario};
use manet_experiments::stability::{lid_speed_sweep, policy_comparison, policy_table, speed_table};

fn main() {
    let args = BinArgs::init("cluster_stability");
    let scenario = Scenario::default();
    println!("EXT6 — stability vs speed (LID, N=400, r=150 m)\n");
    manet_experiments::emit(
        "ext6_stability_speed",
        &speed_table(&lid_speed_sweep(&scenario, 300.0)),
    );
    println!("\nEXT6 — stability by policy at v=10 m/s\n");
    manet_experiments::emit(
        "ext6_stability_policy",
        &policy_table(&policy_comparison(&scenario, 300.0)),
    );
    println!("\nEXT7 — mobility-aware election on a heterogeneous fleet (v in [1,19] m/s)\n");
    manet_experiments::emit(
        "ext7_mobility_aware",
        &manet_experiments::stability::mobility_aware_comparison(300.0),
    );
    println!("\nMean link lifetime tracks Claim 2's implied pi^2*r/(8v). Head lifetimes");
    println!("are shorter than link lifetimes: a head role ends on the FIRST of many");
    println!("competing events (any head contact), a union of failure modes.");
    args.finish(&scenario, &Protocol::default());
}
