//! The tick-phase profile: per-phase wall-clock summaries.
//!
//! Each simulation tick decomposes into phases (mobility integration,
//! topology rebuild, HELLO exchange, cluster maintenance, route update;
//! the shard plane also times its interconnect flush and merge stages).
//! The span recorder times every phase as a `Stage` span and folds it
//! into a streaming [`Histogram`]; a [`ProfileReport`] is the view of
//! those main-thread histograms
//! ([`SpanRecorder::profile`](crate::SpanRecorder::profile)), with min /
//! mean / p99 / max per phase. Samples are wall-clock seconds —
//! profiling is about *where the host CPU goes*, orthogonal to simulated
//! time.
//!
//! Count, sum, min, and max are exact; only p99 is approximated,
//! interpolated within one log2 bucket of the exact order statistic
//! (between 0.5× and 2× it — pinned by the regression test below against
//! the exact nearest-rank reference).

use crate::hist::Histogram;
use manet_util::table::{fmt_sig, Table};

/// A timed tick phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Mobility-model position integration.
    Mobility,
    /// Geometric topology rebuild + link diffing.
    Topology,
    /// Shard-plane owner/ghost exchange through the interconnect — a
    /// sub-phase of `Topology` (its time is included in `Topology`'s),
    /// recorded only on sharded runs.
    ShardFlush,
    /// Shard-plane merge + reconciliation sweep — a sub-phase of
    /// `Topology`, recorded only on sharded runs.
    ShardMerge,
    /// HELLO beacon exchange and neighbor-table upkeep.
    Hello,
    /// Cluster maintenance (including repair under faults).
    Cluster,
    /// Intra-cluster route update.
    Routing,
}

impl Phase {
    /// All phases, in tick execution order (the shard sub-phases nest
    /// inside `Topology` and appear right after it).
    pub const ALL: [Phase; 7] = [
        Phase::Mobility,
        Phase::Topology,
        Phase::ShardFlush,
        Phase::ShardMerge,
        Phase::Hello,
        Phase::Cluster,
        Phase::Routing,
    ];

    /// The five top-level phases every tick runs (no shard sub-phases):
    /// these partition the tick, so their totals sum to the tick wall
    /// time without double counting.
    pub const TICK: [Phase; 5] = [
        Phase::Mobility,
        Phase::Topology,
        Phase::Hello,
        Phase::Cluster,
        Phase::Routing,
    ];

    /// Position in [`Phase::ALL`] (crate-visible: the span plane packs
    /// `SpanLabel::Stage` into its own dense domain with it).
    pub(crate) fn index(self) -> usize {
        match self {
            Phase::Mobility => 0,
            Phase::Topology => 1,
            Phase::ShardFlush => 2,
            Phase::ShardMerge => 3,
            Phase::Hello => 4,
            Phase::Cluster => 5,
            Phase::Routing => 6,
        }
    }

    /// Stable lowercase name (used in JSONL traces and reports).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Mobility => "mobility",
            Phase::Topology => "topology",
            Phase::ShardFlush => "shard_flush",
            Phase::ShardMerge => "shard_merge",
            Phase::Hello => "hello",
            Phase::Cluster => "cluster",
            Phase::Routing => "routing",
        }
    }

    /// Inverse of [`Phase::name`].
    pub fn from_name(name: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.name() == name)
    }
}

/// Order statistics for one phase's wall-clock samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseSummary {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples, seconds.
    pub total: f64,
    /// Fastest sample, seconds.
    pub min: f64,
    /// Arithmetic mean, seconds.
    pub mean: f64,
    /// 99th percentile (nearest-rank), seconds. From a histogram this is
    /// bucket-interpolated: within one log2 bucket of the exact value.
    pub p99: f64,
    /// Slowest sample, seconds.
    pub max: f64,
}

impl PhaseSummary {
    /// Summarizes a raw sample set exactly; `None` when empty. This is
    /// the exact nearest-rank reference the histogram-backed path is
    /// tested against.
    pub fn from_samples(samples: &[f64]) -> Option<PhaseSummary> {
        if samples.is_empty() {
            return None;
        }
        let n = samples.len();
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("non-finite phase sample"));
        let total: f64 = sorted.iter().sum();
        // Nearest-rank percentile: the ceil(q·n)-th smallest sample.
        let rank = ((0.99 * n as f64).ceil() as usize).clamp(1, n);
        Some(PhaseSummary {
            count: n as u64,
            total,
            min: sorted[0],
            mean: total / n as f64,
            p99: sorted[rank - 1],
            max: sorted[n - 1],
        })
    }

    /// Summarizes a streaming histogram; `None` when empty. Everything
    /// except `p99` is exact.
    pub fn from_histogram(hist: &Histogram) -> Option<PhaseSummary> {
        Some(PhaseSummary {
            count: hist.count(),
            total: hist.sum(),
            min: hist.min()?,
            mean: hist.mean()?,
            p99: hist.p99()?,
            max: hist.max()?,
        })
    }
}

/// End-of-run profile: one summary per phase that ran, as projected from
/// a span recorder's stage histograms by
/// [`SpanRecorder::profile`](crate::SpanRecorder::profile).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProfileReport {
    /// `(phase, summary)` pairs in tick execution order.
    pub phases: Vec<(Phase, PhaseSummary)>,
}

impl ProfileReport {
    /// Whether no phase recorded any sample.
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }

    /// The summary for `phase`, if it ran.
    pub fn get(&self, phase: Phase) -> Option<&PhaseSummary> {
        self.phases
            .iter()
            .find(|(p, _)| *p == phase)
            .map(|(_, s)| s)
    }

    /// Total wall-clock seconds across the top-level tick phases (the
    /// shard sub-phases nest inside `Topology` and are excluded so the
    /// total is not double-counted).
    pub fn total_secs(&self) -> f64 {
        self.phases
            .iter()
            .filter(|(p, _)| Phase::TICK.contains(p))
            .map(|(_, s)| s.total)
            .sum()
    }

    /// Renders the per-phase timing table (microseconds).
    pub fn to_table(&self) -> Table {
        let mut table = Table::new([
            "phase", "ticks", "total_ms", "min_us", "mean_us", "p99_us", "max_us",
        ]);
        for (phase, s) in &self.phases {
            table.row([
                phase.name().to_string(),
                s.count.to_string(),
                fmt_sig(s.total * 1e3, 4),
                fmt_sig(s.min * 1e6, 4),
                fmt_sig(s.mean * 1e6, 4),
                fmt_sig(s.p99 * 1e6, 4),
                fmt_sig(s.max * 1e6, 4),
            ]);
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{SpanLabel, SpanRecorder};
    use std::time::{Duration, Instant};

    #[test]
    fn summary_of_known_samples() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = PhaseSummary::from_samples(&samples).unwrap();
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!((s.mean - 50.5).abs() < 1e-12);
        // Nearest rank: ceil(0.99 * 100) = 99th smallest = 99.0.
        assert_eq!(s.p99, 99.0);
        assert!((s.total - 5050.0).abs() < 1e-9);
    }

    #[test]
    fn summary_edge_cases() {
        assert_eq!(PhaseSummary::from_samples(&[]), None);
        assert_eq!(PhaseSummary::from_histogram(&Histogram::new()), None);
        let single = PhaseSummary::from_samples(&[0.25]).unwrap();
        assert_eq!(single.count, 1);
        assert_eq!(single.min, 0.25);
        assert_eq!(single.p99, 0.25);
        assert_eq!(single.max, 0.25);
    }

    /// Records one main-thread `Stage(phase)` span of `nanos` ns — the
    /// path every probe phase hook takes.
    fn record(rec: &mut SpanRecorder, phase: Phase, nanos: u64) {
        rec.record_external(
            SpanLabel::Stage(phase),
            None,
            None,
            Instant::now(),
            Duration::from_nanos(nanos),
        );
    }

    /// The span-projected profile keeps count/total/min/mean/max exact
    /// and its p99 within one log2 bucket of the exact nearest-rank value
    /// computed from the raw samples.
    #[test]
    fn histogram_summary_tracks_exact_reference_within_one_bucket() {
        // Latency-like heavy tail across several decades of seconds.
        let nanos: Vec<u64> = (1..=500)
            .map(|i| (2_000.0 + 100.0 * (i as f64).powf(2.1)).round() as u64)
            .collect();
        let samples: Vec<f64> = nanos
            .iter()
            .map(|&n| Duration::from_nanos(n).as_secs_f64())
            .collect();
        let exact = PhaseSummary::from_samples(&samples).unwrap();
        let mut rec = SpanRecorder::new();
        for &n in &nanos {
            record(&mut rec, Phase::Topology, n);
        }
        let report = rec.profile();
        let s = report.get(Phase::Topology).unwrap();
        assert_eq!(s.count, exact.count);
        assert_eq!(s.min, exact.min);
        assert_eq!(s.max, exact.max);
        assert!((s.total - exact.total).abs() < 1e-12);
        assert!((s.mean - exact.mean).abs() < 1e-15);
        assert!(
            s.p99 >= exact.p99 * 0.5 && s.p99 <= exact.p99 * 2.0,
            "p99 {} must be within one log2 bucket of exact {}",
            s.p99,
            exact.p99
        );
        // The interpolated quantile reports an interior value, not the
        // max endpoint (the old edge-clamping wart).
        assert!(s.p99 < s.max, "p99 must stay below max for spread samples");
    }

    /// Only main-thread stage spans feed the profile: tick spans and
    /// per-shard spans stay on the span plane.
    #[test]
    fn report_orders_by_execution_and_skips_empty() {
        let mut rec = SpanRecorder::new();
        record(&mut rec, Phase::Routing, 2_000);
        record(&mut rec, Phase::Mobility, 1_000);
        record(&mut rec, Phase::Mobility, 3_000);
        rec.record_external(
            SpanLabel::Tick,
            None,
            None,
            Instant::now(),
            Duration::from_micros(9),
        );
        rec.record_external(
            SpanLabel::Stage(Phase::Hello),
            Some(0),
            None,
            Instant::now(),
            Duration::from_micros(1),
        );
        let report = rec.profile();
        assert_eq!(report.phases.len(), 2);
        assert_eq!(report.phases[0].0, Phase::Mobility);
        assert_eq!(report.phases[1].0, Phase::Routing);
        assert_eq!(report.get(Phase::Mobility).unwrap().count, 2);
        assert_eq!(report.get(Phase::Hello), None);
        assert!((report.total_secs() - 6e-6).abs() < 1e-15);
        let table = report.to_table();
        assert_eq!(table.len(), 2);
        assert!(SpanRecorder::new().profile().is_empty());
    }

    /// Shard sub-phases render in the report but do not double-count in
    /// the top-level total.
    #[test]
    fn shard_sub_phases_are_excluded_from_the_total() {
        let mut rec = SpanRecorder::new();
        record(&mut rec, Phase::Topology, 10_000);
        record(&mut rec, Phase::ShardFlush, 4_000);
        record(&mut rec, Phase::ShardMerge, 2_000);
        let report = rec.profile();
        assert_eq!(report.phases.len(), 3);
        assert_eq!(report.phases[1].0, Phase::ShardFlush);
        assert!((report.total_secs() - 10e-6).abs() < 1e-15);
        assert_eq!(report.get(Phase::ShardMerge).unwrap().count, 1);
    }

    #[test]
    fn phase_names_round_trip() {
        for phase in Phase::ALL {
            assert_eq!(Phase::from_name(phase.name()), Some(phase));
        }
        assert_eq!(Phase::from_name("warp"), None);
        for phase in Phase::TICK {
            assert!(Phase::ALL.contains(&phase));
        }
    }
}
