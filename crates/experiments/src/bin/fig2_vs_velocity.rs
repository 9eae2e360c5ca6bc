//! Reproduces Figure 2: control message frequencies vs node speed.
//!
//! A thin CLI wrapper over [`run_scenario`](manet_experiments::spec::run_scenario),
//! like `fig1_vs_range`: `{"kind":"fig2_vs_velocity"}` on `manet
//! serve-jobs` runs the same sweep.

use manet_experiments::cli::{emit_figure, BinArgs};
use manet_experiments::spec::SpecKind;

fn main() {
    let args = BinArgs::init("fig2_vs_velocity");
    println!("FIG2 — control message frequencies vs v (paper Figure 2)");
    println!("fixed: N=400, a=1000 m, r=150 m, epoch-RD mobility; P measured live\n");
    let spec = args.spec(SpecKind::Fig2VsVelocity);
    emit_figure(&spec);
    args.finish(&spec.scenario(), &spec.protocol());
}
