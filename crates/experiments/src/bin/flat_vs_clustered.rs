//! EXT2 — flat DSDV baseline vs the clustered hybrid stack.

use manet_experiments::baseline::{flat_vs_clustered, table};
use manet_experiments::cli::BinArgs;
use manet_experiments::harness::{Protocol, Scenario};

fn main() {
    let args = BinArgs::init("flat_vs_clustered");
    println!("EXT2 — flat proactive (DSDV, 10 s dumps) vs clustered hybrid, fixed density\n");
    let rows = flat_vs_clustered(&Protocol::default(), &[100, 200, 400, 800], 10.0);
    manet_experiments::emit("ext2_flat_vs_clustered", &table(&rows));
    println!("Flat per-node overhead grows with N; clustered stays ~flat (paper §1).");
    args.finish(&Scenario::default(), &Protocol::default());
}
