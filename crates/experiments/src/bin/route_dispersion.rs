//! ABL4 — the ROUTE bound with the *measured* cluster-size distribution.

use manet_experiments::ablations::route_dispersion_closure;
use manet_experiments::cli::BinArgs;
use manet_experiments::harness::{Protocol, Scenario};

fn main() {
    let args = BinArgs::init("route_dispersion");
    println!("ABL4 — dispersion-weighted ROUTE bound with empirical cluster sizes\n");
    manet_experiments::emit(
        "abl4_route_dispersion",
        &route_dispersion_closure(&Protocol::default(), &[0.10, 0.15, 0.25]),
    );
    println!("\nDecomposition of the FIG1 ROUTE gap (sim / mean-size bound ≈ 4.7):");
    println!("  x2.2  cluster-size dispersion (convex L(m), m-weighted traffic)");
    println!("  x0.55 intra-cluster links are shorter than average, so they break");
    println!("        slower than the mean per-link rate mu (physical-churn column)");
    println!("  x4    membership churn: a member switching clusters moves all its");
    println!("        intra-links between cluster tables at once -- the dominant");
    println!("        term, absent from the paper's physical-link bound.");
    args.finish(&Scenario::default(), &Protocol::default());
}
