//! EXT2 — flat DSDV baseline vs the clustered hybrid stack.

use manet_experiments::baseline::{flat_vs_clustered, table};
use manet_experiments::harness::Protocol;
use manet_experiments::trace::init_shards_from_args;

fn main() {
    init_shards_from_args();
    println!("EXT2 — flat proactive (DSDV, 10 s dumps) vs clustered hybrid, fixed density\n");
    let rows = flat_vs_clustered(&Protocol::default(), &[100, 200, 400, 800], 10.0);
    manet_experiments::emit("ext2_flat_vs_clustered", &table(&rows));
    println!("Flat per-node overhead grows with N; clustered stays ~flat (paper §1).");
    manet_experiments::trace::maybe_trace_default("flat_vs_clustered");
}
