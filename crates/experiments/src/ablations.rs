//! Ablations over the reconstruction's modeling choices (DESIGN.md §8) and
//! the generic-`P` extension.

use crate::harness::{measure_lid, measure_with_policy, Protocol, Scenario};
use manet_cluster::{HighestConnectivity, StaticWeights};
use manet_model::{
    ClusterSizeModel, DegreeModel, HeadContactConvention, OverheadModel, RouteLinkModel,
};
use manet_sim::MobilityKind;
use manet_util::table::{fmt_sig, Table};
use manet_util::Rng;

/// ABL1 — decomposes CLUSTER traffic by trigger and compares both
/// head-contact counting conventions against simulation, over a speed
/// sweep.
pub fn cluster_decomposition(protocol: &Protocol) -> Table {
    let mut t = Table::new([
        "v [m/s]",
        "break sim",
        "break ana",
        "contact sim",
        "contact ana (PerPair)",
        "contact ana (PerEndpoint)",
    ]);
    for v in [5.0, 10.0, 20.0, 40.0] {
        let scenario = Scenario {
            speed: v,
            ..Scenario::default()
        };
        let m = measure_lid(&scenario, protocol);
        let p = m.head_ratio.mean.clamp(1e-6, 1.0);
        let pair = OverheadModel::new(scenario.params(), DegreeModel::TorusExact);
        let endpoint = pair.with_contact_convention(HeadContactConvention::PerEndpoint);
        t.row([
            fmt_sig(v, 3),
            fmt_sig(m.f_cluster_break.mean, 3),
            fmt_sig(pair.f_cluster_break(p), 3),
            fmt_sig(m.f_cluster_contact.mean, 3),
            fmt_sig(pair.f_cluster_contact(p), 3),
            fmt_sig(endpoint.f_cluster_contact(p), 3),
        ]);
    }
    t
}

/// ABL2 — compares the two intra-cluster link models for ROUTE against
/// simulation, over a range sweep.
pub fn route_model_ablation(protocol: &Protocol) -> Table {
    let mut t = Table::new([
        "r/a",
        "f_route sim",
        "ana member+member (κ)",
        "ana +exp. size dispersion",
        "ana member-head only (paper Eqn13)",
    ]);
    let base = Scenario::default();
    for frac in [0.08, 0.15, 0.25, 0.35] {
        let scenario = Scenario {
            radius: frac * base.side,
            ..base
        };
        let m = measure_lid(&scenario, protocol);
        let p = m.head_ratio.mean.clamp(1e-6, 1.0);
        let with = OverheadModel::new(scenario.params(), DegreeModel::TorusExact);
        let dispersed = with.with_size_model(ClusterSizeModel::Exponential);
        let without = with.with_route_links(RouteLinkModel::MemberHeadOnly);
        t.row([
            fmt_sig(frac, 3),
            fmt_sig(m.f_route.mean, 3),
            fmt_sig(with.f_route(p), 3),
            fmt_sig(dispersed.f_route(p), 3),
            fmt_sig(without.f_route(p), 3),
        ]);
    }
    t
}

/// ABL3 — mobility-model sensitivity: the link dynamics (and hence every
/// overhead bound) under the analysis-friendly models vs classic RWP and
/// random walk, at identical `N, r, v`.
pub fn mobility_sensitivity(protocol: &Protocol) -> Table {
    let mut t = Table::new([
        "mobility",
        "lambda sim",
        "lambda Claim2",
        "d (meas)",
        "center-bias",
    ]);
    let kinds: [(&str, MobilityKind); 4] = [
        (
            "epoch-rd (paper sim)",
            MobilityKind::EpochRandomDirection { epoch: 20.0 },
        ),
        ("constant-velocity", MobilityKind::ConstantVelocity),
        (
            "random-waypoint",
            MobilityKind::RandomWaypoint { pause: 0.0 },
        ),
        (
            "random-walk",
            MobilityKind::RandomWalk {
                min_leg: 5.0,
                max_leg: 25.0,
            },
        ),
    ];
    for (name, kind) in kinds {
        let scenario = Scenario {
            mobility: kind,
            ..Scenario::default()
        };
        let m = measure_lid(&scenario, protocol);
        let model = OverheadModel::new(scenario.params(), DegreeModel::TorusExact);
        // Center bias: measured mean degree vs the uniform torus baseline —
        // RWP's center-heavy stationary law inflates it.
        let bias = m.mean_degree.mean / model.expected_degree();
        t.row([
            name.to_string(),
            fmt_sig(m.link_change_rate.mean, 4),
            fmt_sig(model.link_change_rate(), 4),
            fmt_sig(m.mean_degree.mean, 4),
            fmt_sig(bias, 3),
        ]);
    }
    t
}

/// EXT1 — the generic model is parametric in `P`: measure `P` for HCC and
/// DMAC-style weights and evaluate the same closed forms at the measured
/// value.
pub fn generic_p_extension(protocol: &Protocol) -> Table {
    let scenario = Scenario::default();
    let lid = measure_lid(&scenario, protocol);
    let hcc = measure_with_policy(&scenario, protocol, |_| HighestConnectivity);
    let dmac = measure_with_policy(&scenario, protocol, |seed| {
        let mut rng = Rng::seed_from_u64(seed ^ 0xD44C);
        StaticWeights::new((0..scenario.nodes).map(|_| rng.f64()).collect())
    });

    let mut t = Table::new([
        "policy",
        "P (meas)",
        "f_cluster sim",
        "f_cluster ana(P)",
        "f_route sim",
        "f_route ana(P)",
    ]);
    for (name, m) in [
        ("lowest-id", &lid),
        ("highest-connectivity", &hcc),
        ("dmac-weights", &dmac),
    ] {
        let p = m.head_ratio.mean.clamp(1e-6, 1.0);
        let model = OverheadModel::new(scenario.params(), DegreeModel::TorusExact);
        t.row([
            name.to_string(),
            fmt_sig(p, 3),
            fmt_sig(m.f_cluster.mean, 3),
            fmt_sig(model.f_cluster(p), 3),
            fmt_sig(m.f_route.mean, 3),
            fmt_sig(model.f_route(p), 3),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_tables_render() {
        let p = Protocol {
            warmup: 20.0,
            measure: 60.0,
            seeds: vec![5],
            dt: 0.5,
        };
        let small = |s: Scenario| Scenario {
            nodes: 120,
            side: 600.0,
            radius: 100.0,
            ..s
        };
        // Use a reduced scenario through the public API by shrinking the
        // default via the sweep entry points would re-run big scenarios;
        // here we only smoke-test the cheapest ablation directly.
        let scenario = small(Scenario::default());
        let m = measure_lid(&scenario, &p);
        assert!(m.f_cluster.mean >= 0.0);
        let table = mobility_sensitivity_tiny(&p);
        assert_eq!(table.len(), 2);
    }

    /// A tiny two-row variant of the mobility ablation for tests.
    fn mobility_sensitivity_tiny(protocol: &Protocol) -> Table {
        let mut t = Table::new(["mobility", "lambda sim"]);
        for (name, kind) in [
            ("erd", MobilityKind::EpochRandomDirection { epoch: 20.0 }),
            ("rwp", MobilityKind::RandomWaypoint { pause: 0.0 }),
        ] {
            let scenario = Scenario {
                nodes: 100,
                side: 500.0,
                radius: 90.0,
                mobility: kind,
                ..Scenario::default()
            };
            let m = measure_lid(&scenario, protocol);
            t.row([name.to_string(), fmt_sig(m.link_change_rate.mean, 4)]);
        }
        t
    }
}

/// ABL4 — closes the ROUTE dispersion loop: instead of assuming a size
/// distribution, measure the empirical cluster sizes during the run and
/// evaluate the exact dispersion-weighted bound
/// `f_route = 2μ · E[L(m)·m] / E[m]` with them. If the reconstruction is
/// right, this empirical prediction should land on the simulated ROUTE
/// frequency without any fitted constant.
pub fn route_dispersion_closure(protocol: &Protocol, range_fractions: &[f64]) -> Table {
    use crate::harness::{ideal_stack, run_measured};
    use crate::trace::UNTRACED;
    use manet_cluster::LowestId;
    use manet_geom::linkdist::DISC_SAME_RADIUS_LINK_PROB;
    use manet_util::Samples;

    let mut t = Table::new([
        "r/a",
        "f_route sim",
        "pred (κ-model sizes)",
        "pred (measured links)",
        "physical-churn msgs",
        "ratio (phys)",
        "kappa_eff",
    ]);
    let base = Scenario::default();
    for &frac in range_fractions {
        let scenario = Scenario {
            radius: frac * base.side,
            ..base
        };
        let seed = protocol.seeds.first().copied().unwrap_or(1);
        let mut stack = ideal_stack(&scenario, protocol.dt, seed, LowestId, None);
        let mut phys_msgs = 0u64;
        let mut sizes = Samples::new();
        // Paired per-cluster samples: (size m, actual intra-cluster links).
        let mut pairs: Vec<(f64, f64)> = Vec::new();
        let measured = run_measured(
            &mut stack,
            protocol.warmup,
            protocol.measure,
            None,
            UNTRACED,
            |stack, _, k| {
                let (world, clustering) = (stack.world(), stack.cluster());
                // Physical intra-cluster churn: link events whose endpoints are
                // co-clustered — the only changes the paper's Eqn 13 counts.
                for e in world.last_events() {
                    let h = clustering.head_of(e.a);
                    if h == clustering.head_of(e.b) {
                        phys_msgs += 1 + clustering.members_of(h).len() as u64;
                    }
                }
                if k % 8 == 0 {
                    let topo = world.topology();
                    for (head, members) in clustering.clusters() {
                        let m = members.len() as f64 + 1.0;
                        sizes.push(m);
                        let mut nodes = members.clone();
                        nodes.push(head);
                        let mut links = 0usize;
                        for i in 0..nodes.len() {
                            for j in (i + 1)..nodes.len() {
                                if topo.are_linked(nodes[i], nodes[j]) {
                                    links += 1;
                                }
                            }
                        }
                        pairs.push((m, links as f64));
                    }
                }
            },
        )
        .expect("a run without a cancel token cannot be cancelled");
        let world = stack.world();
        let n = world.node_count();
        let elapsed = world.measured_time();
        let f_route_sim = measured.route.route_messages as f64 / n as f64 / elapsed;

        // Dispersion-weighted bounds: κ geometry model vs measured links.
        let kappa = DISC_SAME_RADIUS_LINK_PROB;
        let l_model = |m: f64| (m - 1.0).max(0.0) + kappa * ((m - 1.0) * (m - 2.0) / 2.0).max(0.0);
        let e_m = sizes.raw_moment(1);
        let e_lm_model: f64 =
            sizes.values().iter().map(|&m| l_model(m) * m).sum::<f64>() / sizes.len() as f64;
        let e_lm_meas: f64 = pairs.iter().map(|&(m, l)| l * m).sum::<f64>() / pairs.len() as f64;
        let mu = manet_mobility::rates::per_link_break_rate(scenario.radius, scenario.speed);
        let pred_model = 2.0 * mu * e_lm_model / e_m;
        let pred_meas = 2.0 * mu * e_lm_meas / e_m;
        // Effective member-pair link probability vs the κ disc model.
        let (mut link_sum, mut pair_sum) = (0.0, 0.0);
        for &(m, l) in &pairs {
            let member_links = (l - (m - 1.0)).max(0.0);
            let member_pairs = ((m - 1.0) * (m - 2.0) / 2.0).max(0.0);
            link_sum += member_links;
            pair_sum += member_pairs;
        }
        let kappa_eff = if pair_sum > 0.0 {
            link_sum / pair_sum
        } else {
            0.0
        };

        let f_phys = phys_msgs as f64 / n as f64 / elapsed;
        t.row([
            fmt_sig(frac, 3),
            fmt_sig(f_route_sim, 3),
            fmt_sig(pred_model, 3),
            fmt_sig(pred_meas, 3),
            fmt_sig(f_phys, 3),
            fmt_sig(f_phys / pred_meas, 3),
            fmt_sig(kappa_eff, 3),
        ]);
    }
    t
}

#[cfg(test)]
mod abl4_tests {
    use super::*;

    #[test]
    fn dispersion_closure_table_is_internally_consistent() {
        let p = Protocol {
            warmup: 15.0,
            measure: 45.0,
            seeds: vec![5],
            dt: 0.5,
        };
        let t = route_dispersion_closure(&p, &[0.12]);
        assert_eq!(t.len(), 1);
    }
}

/// ABL5 — epoch-length sensitivity: the paper's simulation model redraws
/// directions every `τ` seconds (a configurable the paper leaves
/// unexplored). Measured answer: the CV closed forms are `τ`-invariant —
/// the link-generation flux depends only on the instantaneous
/// relative-speed distribution, which the epoch model preserves at every
/// `τ` — so the paper's (unstated) epoch choice cannot have affected its
/// Figures 1–3.
pub fn epoch_sensitivity(protocol: &Protocol) -> Table {
    let mut t = Table::new([
        "epoch tau [s]",
        "tau / link lifetime",
        "f_hello sim",
        "f_hello ana",
        "ratio",
    ]);
    let base = Scenario::default();
    let link_lifetime = std::f64::consts::PI.powi(2) * base.radius / (8.0 * base.speed);
    for tau in [2.0, 5.0, 20.0, 100.0] {
        let scenario = Scenario {
            mobility: manet_sim::MobilityKind::EpochRandomDirection { epoch: tau },
            ..base
        };
        let m = measure_lid(&scenario, protocol);
        let model = OverheadModel::new(scenario.params(), DegreeModel::TorusExact);
        let ana = model.f_hello();
        t.row([
            fmt_sig(tau, 3),
            fmt_sig(tau / link_lifetime, 3),
            fmt_sig(m.f_hello.mean, 4),
            fmt_sig(ana, 4),
            fmt_sig(m.f_hello.mean / ana, 4),
        ]);
    }
    t
}

#[cfg(test)]
mod abl5_tests {
    use super::*;

    #[test]
    fn long_epochs_match_cv_analysis() {
        let p = Protocol {
            warmup: 20.0,
            measure: 80.0,
            seeds: vec![3],
            dt: 0.5,
        };
        let scenario = Scenario {
            nodes: 150,
            side: 600.0,
            radius: 100.0,
            mobility: manet_sim::MobilityKind::EpochRandomDirection { epoch: 60.0 },
            ..Scenario::default()
        };
        let m = measure_lid(&scenario, &p);
        let model = OverheadModel::new(scenario.params(), DegreeModel::TorusExact);
        let ratio = m.f_hello.mean / model.f_hello();
        assert!((0.9..1.1).contains(&ratio), "ratio {ratio}");
    }
}
