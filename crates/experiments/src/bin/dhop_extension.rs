//! EXT3 — d-hop clustering: greedy d-hop LID and Max-Min formation vs the
//! disc-bound heuristic, plus dynamic d-hop maintenance rates.

use manet_experiments::cli::BinArgs;
use manet_experiments::dhop_ext::{
    formation_rows, formation_table, maintenance_rates, maintenance_table,
};
use manet_experiments::harness::{Protocol, Scenario};

fn main() {
    let args = BinArgs::init("dhop_extension");
    let scenario = Scenario::default();
    println!("EXT3 — d-hop cluster formation (N=400, r=150 m), 10 placements\n");
    manet_experiments::emit(
        "ext3_dhop_formation",
        &formation_table(&formation_rows(&scenario, 10)),
    );
    println!("\nEXT3 — d-hop reactive maintenance over 200 s of mobility\n");
    manet_experiments::emit(
        "ext3_dhop_maintenance",
        &maintenance_table(&maintenance_rates(&scenario, 200.0)),
    );
    println!("\nMore hops → fewer, bigger clusters and (typically) fewer cluster");
    println!("changes per node — the trade the paper's future-work section poses.");
    args.finish(&scenario, &Protocol::default());
}
