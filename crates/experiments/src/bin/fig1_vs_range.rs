//! Reproduces Figure 1: control message frequencies vs transmission range.
//!
//! A thin CLI wrapper over [`run_scenario`](manet_experiments::spec::run_scenario):
//! the same `{"kind":"fig1_vs_range"}` spec submitted to `manet
//! serve-jobs` produces the same sweep numbers (pinned by
//! `tests/jobs_plane.rs`).

use manet_experiments::cli::{emit_figure, BinArgs};
use manet_experiments::spec::SpecKind;

fn main() {
    let args = BinArgs::init("fig1_vs_range");
    println!("FIG1 — control message frequencies vs r (paper Figure 1)");
    println!("fixed: N=400, a=1000 m, v=10 m/s, epoch-RD mobility; P measured live\n");
    let spec = args.spec(SpecKind::Fig1VsRange);
    emit_figure(&spec);
    args.finish(&spec.scenario(), &spec.protocol());
}
