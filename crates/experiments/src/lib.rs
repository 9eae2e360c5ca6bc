//! Experiment harnesses reproducing every figure and table of the paper.
//!
//! Each experiment pairs the **simulator** (`manet-sim` + `manet-cluster` +
//! `manet-routing`) with the **analytical model** (`manet-model`) over the
//! same parameter sweep and emits a paper-style table (stdout) plus CSV
//! (`target/figures/`). See DESIGN.md §5 for the experiment index and
//! EXPERIMENTS.md for recorded results.
//!
//! Binaries (one per paper artifact):
//!
//! | binary | paper artifact |
//! |---|---|
//! | `fig1_vs_range` | Figure 1 — control frequencies vs `r` |
//! | `fig2_vs_velocity` | Figure 2 — control frequencies vs `v` |
//! | `fig3_vs_density` | Figure 3 — control frequencies vs `ρ` |
//! | `fig4_lid_p_approx` | Figure 4 — Eqn 16 residual & approximation |
//! | `fig5_cluster_count` | Figure 5 — cluster counts vs `N` and `r` |
//! | `theta_growth` | Section 6 — Θ-notation table |
//! | `claim_validation` | Claims 1–2 — degree & link-rate checks |
//! | `cluster_decomposition` | ABL1 — head-contact counting convention |
//! | `route_model_ablation` | ABL2 — intra-cluster link models |
//! | `mobility_sensitivity` | ABL3 — mobility-model sensitivity |
//! | `generic_p_extension` | EXT1 — model parametric in `P` (HCC/DMAC) |
//! | `flat_vs_clustered` | EXT2 — DSDV baseline vs clustered hybrid |
//! | `dhop_extension` | EXT3 — d-hop clustering (Section 7 future work) |
//! | `robustness` | ROB1 — overhead under loss + churn vs the ideal bounds |
//! | `robustness2` | ROB2 — sharded stack under interconnect chaos |
//! | `trace_report` | telemetry — summarize a `--trace-out` JSONL trace |
//!
//! Every binary additionally accepts `--trace-out <path>`: after its
//! experiment runs, a telemetry-instrumented twin of its default scenario
//! writes a JSONL event trace there (see the [`trace`] module).
//!
//! Every simulation ticks the shard plane ([`harness::on_plane`]): the
//! `1x1` layout unless `--shards KXxKY` picks another, with identical
//! results at every layout.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod baseline;
pub mod claims;
pub mod cli;
pub mod convergence;
pub mod dataplane;
pub mod dhop_ext;
pub mod figures;
pub mod harness;
pub mod hello_accuracy;
pub mod lid_figures;
pub mod robustness;
pub mod robustness2;
pub mod spec;
pub mod stability;
pub mod theta;
pub mod trace;

use std::path::PathBuf;

/// Directory where experiment CSVs are written (`target/figures`).
pub fn figures_dir() -> PathBuf {
    // Walk up from the crate to the workspace target dir; fall back to CWD.
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    base.join("figures")
}

/// Prints a table and writes it as CSV under [`figures_dir`], reporting the
/// path written (best-effort: IO errors are printed, not fatal — the table
/// on stdout is the primary artifact).
pub fn emit(name: &str, table: &manet_util::table::Table) {
    println!("{}", table.to_ascii());
    let path = figures_dir().join(format!("{name}.csv"));
    match table.write_csv(&path) {
        Ok(()) => println!("[csv] {}", path.display()),
        Err(e) => println!("[csv] write failed ({e}); stdout table is authoritative"),
    }
}
