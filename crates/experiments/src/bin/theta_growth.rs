//! Verifies the Section 6 Θ-notation growth table numerically.

use manet_experiments::cli::BinArgs;
use manet_experiments::harness::{Protocol, Scenario};
use manet_experiments::theta;

fn main() {
    let args = BinArgs::init("theta_growth");
    println!("THETA — Section 6 growth exponents, fitted over two decades\n");
    let cells = theta::compute();
    manet_experiments::emit("theta_growth", &theta::table(&cells));
    let confirmed = cells.iter().filter(|c| c.confirms(0.12)).count();
    println!("{confirmed}/9 cells confirm the paper's exponents");
    args.finish(&Scenario::default(), &Protocol::default());
}
