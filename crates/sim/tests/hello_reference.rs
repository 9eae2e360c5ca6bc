//! `HelloProtocol` against a reference: receiver-indexed `BTreeMap`
//! tables, each delivery an insert into its receiver's table and every
//! table's expired entries dropped at the end of each step. The protocol
//! keeps its tables by sender and expires them lazily; driven through the
//! same seeded cases and the same channel draws, both must give the same
//! `(sent, lost)`, every node's view and the same accuracy on every step.
//!
//! The cases draw random positions that drift a little each step, mask
//! the topology by crashes and recoveries as `World` does, and run over
//! Bernoulli and Gilbert–Elliott channels forked from one seed, with
//! beacon intervals below the step (several beacons per step) and
//! timeouts equal to the interval.

use manet_geom::{Metric, SquareRegion, Vec2};
use manet_sim::{
    Channel, ChurnSchedule, FaultPlan, HelloProtocol, LossModel, NodeId, StepCtx, Topology,
    STREAM_HELLO,
};
use manet_telemetry::Probe;
use manet_util::Rng;
use std::collections::BTreeMap;

/// The receiver-indexed soft-state tables: `last_heard[u][w]` is when
/// `u` last heard `w`.
struct Reference {
    interval: f64,
    timeout: f64,
    next_beacon: Vec<f64>,
    last_heard: Vec<BTreeMap<NodeId, f64>>,
}

impl Reference {
    fn new(n: usize, interval: f64, timeout: f64) -> Self {
        Reference {
            interval,
            timeout,
            next_beacon: (0..n)
                .map(|u| interval * u as f64 / n.max(1) as f64)
                .collect(),
            last_heard: vec![BTreeMap::new(); n],
        }
    }

    fn step(
        &mut self,
        topology: &Topology,
        channel: &mut Channel,
        alive: &[bool],
        now: f64,
    ) -> (u64, u64) {
        let (mut sent, mut lost) = (0, 0);
        for (u, &up) in alive.iter().enumerate() {
            if !up {
                while self.next_beacon[u] <= now {
                    self.next_beacon[u] += self.interval;
                }
                self.last_heard[u].clear();
                continue;
            }
            while self.next_beacon[u] <= now {
                self.next_beacon[u] += self.interval;
                sent += 1;
                for &w in topology.neighbors(u as NodeId) {
                    if channel.deliver() {
                        self.last_heard[w as usize].insert(u as NodeId, now);
                    } else {
                        lost += 1;
                    }
                }
            }
        }
        let timeout = self.timeout;
        for table in &mut self.last_heard {
            table.retain(|_, &mut t| now - t <= timeout);
        }
        (sent, lost)
    }

    fn view(&self, u: NodeId) -> Vec<NodeId> {
        self.last_heard[u as usize].keys().copied().collect()
    }

    /// `(true relations, missing, stale)`.
    fn accuracy(&self, topology: &Topology) -> (u64, u64, u64) {
        let (mut truth, mut missing, mut stale) = (0, 0, 0);
        for (u, table) in self.last_heard.iter().enumerate() {
            let row = topology.neighbors(u as NodeId);
            truth += row.len() as u64;
            missing += row.iter().filter(|w| !table.contains_key(w)).count() as u64;
            stale += table
                .keys()
                .filter(|&&w| !topology.are_linked(u as NodeId, w))
                .count() as u64;
        }
        (truth, missing, stale)
    }
}

/// One seeded case: `n` nodes on a `side` square with radius `radius`,
/// stepped every `dt` for `steps` steps under `loss`, with Poisson churn
/// at `crash_rate` per node and second.
struct Case {
    n: usize,
    side: f64,
    radius: f64,
    dt: f64,
    steps: usize,
    interval: f64,
    timeout: f64,
    loss: LossModel,
    crash_rate: f64,
}

/// Runs `case` through both implementations and compares them on every
/// step; returns the steps on which some node was down and the
/// deliveries lost.
fn run(case: &Case, seed: u64) -> (usize, u64) {
    let region = SquareRegion::new(case.side);
    let metric = Metric::toroidal(case.side);
    let mut rng = Rng::seed_from_u64(seed);
    let mut positions: Vec<Vec2> = (0..case.n)
        .map(|_| region.sample_uniform(&mut rng))
        .collect();
    let horizon = case.dt * case.steps as f64 + 1.0;
    let churn = ChurnSchedule::poisson(case.n, case.crash_rate, 4.0, horizon, seed ^ 0xC4).unwrap();
    let plan = FaultPlan {
        loss: case.loss,
        churn: ChurnSchedule::none(),
        seed,
    };
    let mut channel = plan.channel(STREAM_HELLO);
    let mut reference_channel = channel.clone();
    let mut hello = HelloProtocol::new(case.n, case.interval, case.timeout);
    let mut reference = Reference::new(case.n, case.interval, case.timeout);
    let mut alive = vec![true; case.n];
    let mut cursor = 0;
    let (mut down_steps, mut lost_total) = (0, 0);
    for step in 1..=case.steps {
        let now = step as f64 * case.dt;
        // Drift every node a little, with a jump to a fresh spot now and
        // then, so links form and break between beacons.
        for p in &mut positions {
            *p = if rng.bernoulli(0.02) {
                region.sample_uniform(&mut rng)
            } else {
                let (dx, dy) = rng.direction();
                region.wrap(Vec2::new(p.x + 3.0 * dx, p.y + 3.0 * dy))
            };
        }
        while let Some(e) = churn.events().get(cursor).filter(|e| e.time <= now) {
            alive[e.node as usize] = e.kind == manet_sim::ChurnKind::Recover;
            cursor += 1;
        }
        let mut topology = Topology::compute(&positions, region, case.radius, metric);
        topology.retain_alive(&alive);
        down_steps += usize::from(alive.contains(&false));

        let mut probe = Probe::off();
        let got = hello.step(
            &topology,
            &mut channel,
            &alive,
            &mut StepCtx::new(&mut probe).at(now),
        );
        let expected = reference.step(&topology, &mut reference_channel, &alive, now);
        assert_eq!(got, expected, "seed {seed} step {step}: (sent, lost)");
        lost_total += got.1;
        for u in 0..case.n as NodeId {
            assert_eq!(
                hello.view(u).collect::<Vec<_>>(),
                reference.view(u),
                "seed {seed} step {step}: view of node {u}"
            );
        }
        let acc = hello.accuracy(&topology);
        assert_eq!(
            (acc.true_relations, acc.missing, acc.stale),
            reference.accuracy(&topology),
            "seed {seed} step {step}: accuracy"
        );
    }
    assert_eq!(channel, reference_channel, "seed {seed}: draws consumed");
    (down_steps, lost_total)
}

fn bursty() -> LossModel {
    LossModel::GilbertElliott {
        p_gb: 0.05,
        p_bg: 0.3,
        loss_good: 0.02,
        loss_bad: 0.6,
    }
}

#[test]
fn sender_lists_match_receiver_tables_under_loss_and_churn() {
    for seed in 1..=4 {
        for loss in [LossModel::Bernoulli { p: 0.2 }, bursty()] {
            let case = Case {
                n: 40 + 10 * seed as usize,
                side: 300.0,
                radius: 70.0,
                dt: 0.25,
                steps: 120,
                interval: 1.0,
                timeout: 3.0,
                loss,
                crash_rate: 0.01,
            };
            let (down, lost) = run(&case, seed);
            assert!(
                down > 0 && lost > 0,
                "seed {seed}: {down} down steps, {lost} lost"
            );
        }
    }
}

/// Beacons faster than the step: each live node beacons two or three
/// times a step, and a receiver's entry is fresh if any of them got
/// through.
#[test]
fn several_beacons_per_step_match() {
    for seed in 11..=13 {
        for loss in [LossModel::Bernoulli { p: 0.5 }, bursty()] {
            let case = Case {
                n: 50,
                side: 250.0,
                radius: 60.0,
                dt: 0.5,
                steps: 80,
                interval: 0.2,
                timeout: 0.6,
                loss,
                crash_rate: 0.02,
            };
            run(&case, seed);
        }
    }
}

/// A timeout equal to the interval: an entry lives exactly one beacon
/// period, so a single lost delivery empties it at the boundary.
#[test]
fn timeout_equal_to_interval_matches() {
    for seed in 21..=24 {
        for loss in [LossModel::Ideal, LossModel::Bernoulli { p: 0.3 }, bursty()] {
            for (interval, dt) in [(1.0, 0.25), (0.5, 0.5), (0.75, 0.25)] {
                let case = Case {
                    n: 45,
                    side: 260.0,
                    radius: 65.0,
                    dt,
                    steps: 60,
                    interval,
                    timeout: interval,
                    loss,
                    crash_rate: 0.01,
                };
                run(&case, seed);
            }
        }
    }
}
