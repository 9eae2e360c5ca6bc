//! EXT5 — hybrid data plane: reachability parity, path stretch, discovery
//! cost.

use manet_experiments::cli::BinArgs;
use manet_experiments::dataplane::{stretch_sweep, table};
use manet_experiments::harness::{Protocol, Scenario};

fn main() {
    let args = BinArgs::init("data_plane");
    println!("EXT5 — packet forwarding over the hybrid stack (300 pairs/point)\n");
    manet_experiments::emit(
        "ext5_data_plane",
        &table(&stretch_sweep(&Scenario::default(), 300)),
    );
    println!("\nDelivery equals flat reachability by construction (asserted in-code);");
    println!("the hierarchy's price is the stretch column, its benefit the control");
    println!("overhead comparison of EXT2.");
    args.finish(&Scenario::default(), &Protocol::default());
}
