//! EXT4 — HELLO beacon rate vs neighbor-view accuracy (paper §3.5.1).

use manet_experiments::cli::BinArgs;
use manet_experiments::harness::{Protocol, Scenario};
use manet_experiments::hello_accuracy::{sweep, table};

fn main() {
    let args = BinArgs::init("hello_accuracy");
    println!("EXT4 — soft-timer neighbor views vs beacon interval (N=400, v=10 m/s)\n");
    manet_experiments::emit(
        "ext4_hello_accuracy",
        &table(&sweep(&Scenario::default(), 200.0)),
    );
    println!("\nOnce the beacon rate drops below the per-node link generation rate");
    println!("(the paper's f_hello lower bound), the protocol's view of the");
    println!("neighborhood visibly decays — missing and stale fractions climb.");
    args.finish(&Scenario::default(), &Protocol::default());
}
