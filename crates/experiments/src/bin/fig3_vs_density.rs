//! Reproduces Figure 3: control message frequencies vs node density.
//!
//! A thin CLI wrapper over [`run_scenario`](manet_experiments::spec::run_scenario),
//! like `fig1_vs_range`: `{"kind":"fig3_vs_density"}` on `manet
//! serve-jobs` runs the same sweep.

use manet_experiments::cli::{emit_figure, BinArgs};
use manet_experiments::spec::SpecKind;

fn main() {
    let args = BinArgs::init("fig3_vs_density");
    println!("FIG3 — control message frequencies vs density (paper Figure 3)");
    println!("fixed: a=1000 m, r=150 m, v=10 m/s; N sweeps the density\n");
    let spec = args.spec(SpecKind::Fig3VsDensity);
    emit_figure(&spec);
    args.finish(&spec.scenario(), &spec.protocol());
}
