//! Engine validation: link-event detection converges as the tick shrinks.

use manet_experiments::cli::BinArgs;
use manet_experiments::convergence::{table, tick_convergence};
use manet_experiments::harness::{Protocol, Scenario};

fn main() {
    let args = BinArgs::init("tick_convergence");
    println!("VALIDATION — tick-size convergence of the link-event engine\n");
    manet_experiments::emit("tick_convergence", &table(&tick_convergence(300.0)));
    println!("Coarse ticks miss links that form and break within one tick;");
    println!("the default dt = 0.25 s sits in the converged regime.");
    args.finish(&Scenario::default(), &Protocol::default());
}
