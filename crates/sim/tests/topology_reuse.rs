//! Property tests for the allocation-reusing topology path (DESIGN.md §12):
//! `Topology::compute_into` over a reused buffer must equal a from-scratch
//! `Topology::compute`, whatever garbage the buffer held before — including
//! neighbor lists from a *larger* earlier network — and the tick diff must
//! stay a consistent, replayable stream after `retain_alive` edits both
//! endpoints of it.
//!
//! The cases are seeded (no external proptest dependency; the hermetic
//! build resolves zero crates). The `_large` tests run a seeded slice of
//! thousand-node networks.

use manet_geom::{Metric, SpatialGrid, SquareRegion, Vec2};
use manet_sim::{LinkEventKind, Topology};
use manet_util::Rng;
use std::collections::BTreeSet;

fn random_positions(rng: &mut Rng, n: usize, side: f64) -> Vec<Vec2> {
    (0..n)
        .map(|_| Vec2::new(rng.f64() * side, rng.f64() * side))
        .collect()
}

fn assert_same(reused: &Topology, fresh: &Topology) {
    assert_eq!(reused.len(), fresh.len(), "node counts diverged");
    for i in 0..fresh.len() as u32 {
        assert_eq!(
            reused.neighbors(i),
            fresh.neighbors(i),
            "neighbor list of node {i} diverged"
        );
    }
}

/// Core property: recomputing into a dirty reused buffer gives exactly the
/// from-scratch topology, across changing node counts, radii, and metrics.
fn check_reuse(seed: u64, rounds: usize, max_nodes: usize) {
    let side = 500.0;
    let region = SquareRegion::new(side);
    let mut rng = Rng::seed_from_u64(seed);
    let mut reused = Topology::default();
    let mut grid = SpatialGrid::default();
    for round in 0..rounds {
        // Grow and shrink the network so truncate/resize paths both run.
        let n = 1 + rng.usize_below(max_nodes);
        let radius = rng.f64_range(10.0..side / 2.0);
        let metric = if rng.bernoulli(0.5) {
            Metric::toroidal(side)
        } else {
            Metric::Euclidean
        };
        let positions = random_positions(&mut rng, n, side);
        // Reuse the grid and the dirty rows exactly as `World::step` reuses
        // its own kernel and spare topology.
        reused.compute_into(&mut grid, &positions, region, radius, metric);
        let fresh = Topology::compute(&positions, region, radius, metric);
        assert_same(&reused, &fresh);
        // Symmetry + sortedness invariants hold on the reused buffer.
        for i in 0..n as u32 {
            let ns = reused.neighbors(i);
            assert!(
                ns.windows(2).all(|w| w[0] < w[1]),
                "round {round}: unsorted"
            );
            for &j in ns {
                assert_ne!(i, j, "self-link");
                assert!(reused.are_linked(j, i), "asymmetric link {i}-{j}");
            }
        }
    }
}

/// Core property: after `retain_alive` rewrites both topologies, the diff
/// stream still transforms the old link set exactly into the new one, in
/// `a < b` order with no duplicate events.
fn check_diff_stability(seed: u64, rounds: usize, max_nodes: usize) {
    let side = 400.0;
    let region = SquareRegion::new(side);
    let metric = Metric::toroidal(side);
    let mut rng = Rng::seed_from_u64(seed);
    for _ in 0..rounds {
        let n = 2 + rng.usize_below(max_nodes);
        let radius = rng.f64_range(20.0..side / 2.0);
        let p_dead = rng.f64() * 0.4;
        let alive: Vec<bool> = (0..n).map(|_| !rng.bernoulli(p_dead)).collect();

        let mut prev =
            Topology::compute(&random_positions(&mut rng, n, side), region, radius, metric);
        let mut next =
            Topology::compute(&random_positions(&mut rng, n, side), region, radius, metric);
        prev.retain_alive(&alive);
        next.retain_alive(&alive);

        let mut events = Vec::new();
        prev.diff_into(&next, &mut events);
        let mut links: BTreeSet<(u32, u32)> = prev.links().collect();
        let mut seen = BTreeSet::new();
        for e in &events {
            assert!(e.a < e.b, "event endpoints out of order: {e:?}");
            assert!(
                alive[e.a as usize] && alive[e.b as usize],
                "event touches a dead node: {e:?}"
            );
            let gen = matches!(e.kind, LinkEventKind::Generated);
            assert!(seen.insert((gen, e.a, e.b)), "duplicate event {e:?}");
            match e.kind {
                LinkEventKind::Generated => {
                    assert!(links.insert((e.a, e.b)), "generated existing link {e:?}")
                }
                LinkEventKind::Broken => {
                    assert!(links.remove(&(e.a, e.b)), "broke unknown link {e:?}")
                }
            };
        }
        let target: BTreeSet<(u32, u32)> = next.links().collect();
        assert_eq!(links, target, "replayed diff must land on the new topology");
    }
}

#[test]
fn reused_buffer_equals_from_scratch() {
    for seed in [1, 0xC0FFEE, 0x5EED_5EED] {
        check_reuse(seed, 20, 120);
    }
}

#[test]
fn diff_is_stable_after_retain_alive() {
    for seed in [2, 0xBEEF, 0xDEAD_10CC] {
        check_diff_stability(seed, 20, 100);
    }
}

/// Thousand-node networks: two seeds, sized for the tier-1 suite.
#[test]
fn reused_buffer_equals_from_scratch_large() {
    for seed in 0..2u64 {
        check_reuse(0x1A46_E000 + seed, 12, 2000);
    }
}

#[test]
fn diff_is_stable_after_retain_alive_large() {
    for seed in 0..2u64 {
        check_diff_stability(0xD1FF_0000 + seed, 12, 1500);
    }
}
