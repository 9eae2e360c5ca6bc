//! Fixed-capacity streaming histograms for wall-clock latencies.
//!
//! [`Histogram`] is the telemetry plane's answer to "keep a latency
//! distribution forever without growing": 64 log2-spaced buckets plus
//! exact count / sum / min / max, all inline in the struct — recording is
//! O(1), allocation-free, and the memory footprint is a compile-time
//! constant regardless of how many samples arrive. That makes it safe for
//! long-running servers: the span recorder keeps one per (label, shard)
//! for the whole run.
//!
//! Quantiles are approximate: a query interpolates by rank position
//! inside the bucket holding the nearest-rank sample, with the bucket's
//! span clipped to the observed `[min, max]` range. Because buckets are
//! powers of two, the answer is always within one log2 bucket of the
//! exact order statistic (between 0.5× and 2× the true value) — pinned
//! by a regression test in `profile.rs` against the exact nearest-rank
//! reference — and an interior quantile of a spread distribution never
//! collapses onto the max endpoint (the old edge-clamping answer did
//! whenever the top bucket held more than `1 − q` of the samples).

/// Number of log2 buckets (compile-time capacity of a [`Histogram`]).
pub const HIST_BUCKETS: usize = 64;

/// Binary exponent covered by the first regular bucket: bucket 1 spans
/// `[2^MIN_EXP, 2^(MIN_EXP+1))` seconds. With 62 regular buckets the
/// histogram resolves ~9e-13 s .. ~4.4e6 s; bucket 0 catches underflow
/// (zero, negatives, subnormals) and bucket 63 catches overflow.
const MIN_EXP: i64 = -40;

/// A zero-alloc streaming histogram over non-negative `f64` samples
/// (seconds), with exact count/sum/min/max and log2-bucketed quantiles.
///
/// The struct is plain data: `record` touches no heap, `merge` adds two
/// histograms bucket-wise, and `size_of::<Histogram>()` bounds the memory
/// per tracked distribution forever.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Histogram {
    counts: [u64; HIST_BUCKETS],
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            counts: [0; HIST_BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Bucket index for a sample: 0 for anything not strictly positive
    /// and normal (zero, negative, subnormal), 63 for overflow, else the
    /// sample's binary exponent shifted into range.
    fn bucket(v: f64) -> usize {
        if v.is_nan() || v <= 0.0 {
            return 0;
        }
        let e = ((v.to_bits() >> 52) & 0x7ff) as i64;
        if e == 0 {
            return 0; // subnormal: below every regular bucket
        }
        (e - 1023 - MIN_EXP + 1).clamp(0, HIST_BUCKETS as i64 - 1) as usize
    }

    /// Upper edge of bucket `b` in seconds (`2^(b + MIN_EXP)`).
    fn upper_edge(b: usize) -> f64 {
        f64::exp2((b as i64 + MIN_EXP) as f64)
    }

    /// Records one sample. O(1), allocation-free.
    #[inline]
    pub fn record(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
        self.counts[Self::bucket(v)] += 1;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all samples (exact).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest sample (exact); `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample (exact); `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Arithmetic mean (exact); `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.sum / self.count as f64)
    }

    /// Nearest-rank quantile, interpolated by rank position inside the
    /// containing log2 bucket (bucket span clipped to the observed
    /// `[min, max]`). `None` when empty; `q` is clamped to `[0, 1]`.
    ///
    /// The result stays within one log2 bucket of the exact nearest-rank
    /// value (between 0.5× and 2× it), and — unlike the former
    /// edge-clamping answer — an interior rank reports an interior
    /// value: p99 of a spread distribution stays strictly below the max
    /// even when the top bucket holds more than 1% of the samples.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        // The extreme order statistics are tracked exactly — no need to
        // approximate them from the buckets.
        if rank == 1 {
            return Some(self.min);
        }
        if rank == self.count {
            return Some(self.max);
        }
        let mut cum = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let before = cum;
            cum += c;
            if cum >= rank {
                // Bucket 0 has no meaningful edges; report the exact min.
                if b == 0 {
                    return Some(self.min);
                }
                // The rank-th sample is one of `c` samples inside this
                // bucket's span (clipped to the exact endpoints, which
                // tightens the extreme buckets); interpolate linearly by
                // its rank position within the bucket.
                let upper = Self::upper_edge(b);
                let lo = (upper * 0.5).max(self.min);
                let hi = upper.min(self.max);
                let pos = (rank - before) as f64 / c as f64;
                return Some((lo + pos * (hi - lo)).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Median (see [`Histogram::quantile`]).
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> Option<f64> {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// Non-empty log2 buckets as `(upper_edge_seconds, count)` pairs in
    /// ascending edge order. The Prometheus exporter turns these into
    /// cumulative `le` buckets; bucket 0 (underflow: zero/negative/
    /// subnormal samples) reports the smallest representable edge.
    pub fn buckets(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(b, &c)| (Self::upper_edge(b), c))
    }

    /// Folds `other` into `self` (bucket-wise addition; min/max/sum/count
    /// combine exactly). Merging then querying equals querying a
    /// histogram that recorded both sample streams.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact nearest-rank quantile over raw samples, the reference the
    /// bucketed answer is compared against.
    fn exact_quantile(samples: &[f64], q: f64) -> f64 {
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn exact_statistics_match_the_sample_stream() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        for v in [3e-6, 1e-6, 2e-6, 8e-6] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), Some(1e-6));
        assert_eq!(h.max(), Some(8e-6));
        assert!((h.sum() - 14e-6).abs() < 1e-18);
        assert!((h.mean().unwrap() - 3.5e-6).abs() < 1e-18);
    }

    #[test]
    fn quantiles_stay_within_one_log2_bucket_of_exact() {
        // A skewed latency-like distribution spanning several decades.
        let samples: Vec<f64> = (1..=1000).map(|i| 1e-6 * (i as f64).powf(1.7)).collect();
        let mut h = Histogram::new();
        for &v in &samples {
            h.record(v);
        }
        for q in [0.5, 0.9, 0.99, 0.999] {
            let exact = exact_quantile(&samples, q);
            let approx = h.quantile(q).unwrap();
            // Interpolation keeps the answer inside the exact value's
            // log2 bucket: between 0.5× and 2× the true order statistic.
            assert!(
                approx >= exact * 0.5 && approx <= exact * 2.0,
                "q={q}: approx {approx} vs exact {exact}"
            );
        }
        // Extremes are exact, not bucketed.
        assert_eq!(h.quantile(0.0), Some(samples[0]));
        assert_eq!(h.quantile(1.0).unwrap(), *samples.last().unwrap());
    }

    /// Regression for the small-n quantile wart: with a linear spread the
    /// top log2 bucket holds far more than 1% of the samples, and the old
    /// edge-clamping quantile answered `max` for p99 (the bucket's upper
    /// edge, clamped). Interpolation must report an interior value.
    #[test]
    fn interior_quantiles_stay_strictly_below_the_max() {
        let samples: Vec<f64> = (1..=300).map(|i| 1e-6 * i as f64).collect();
        let mut h = Histogram::new();
        for &v in &samples {
            h.record(v);
        }
        let p99 = h.quantile(0.99).unwrap();
        let max = h.max().unwrap();
        assert!(p99 < max, "p99 {p99} must not collapse onto max {max}");
        let exact = exact_quantile(&samples, 0.99);
        assert!(
            p99 >= exact * 0.5 && p99 <= exact * 2.0,
            "p99 {p99} vs exact {exact}"
        );
        // Quantiles remain monotone in q.
        let p50 = h.quantile(0.5).unwrap();
        let p90 = h.quantile(0.9).unwrap();
        assert!(p50 <= p90 && p90 <= p99);
    }

    /// Seeded property: merging two histograms answers every quantile
    /// exactly as if one histogram had recorded the concatenated stream,
    /// and recording after a merge keeps the exact min/max endpoints.
    #[test]
    fn merge_matches_concatenated_stream_under_random_streams() {
        let mut rng = manet_util::Rng::seed_from_u64(0xC0FFEE);
        for case in 0..20u64 {
            let n_a = 1 + rng.usize_below(200);
            let n_b = 1 + rng.usize_below(200);
            let mut a = Histogram::new();
            let mut b = Histogram::new();
            let mut both = Histogram::new();
            // Log-uniform samples spanning ~9 decades of seconds.
            let draw = |rng: &mut manet_util::Rng| 10f64.powf(rng.f64_range(-9.0..0.0));
            for _ in 0..n_a {
                let v = draw(&mut rng);
                a.record(v);
                both.record(v);
            }
            for _ in 0..n_b {
                let v = draw(&mut rng);
                b.record(v);
                both.record(v);
            }
            a.merge(&b);
            // Counts and endpoints are exact; the sum differs only by
            // float-addition order (merge adds the two partial sums).
            assert_eq!(a.count(), both.count(), "case {case}");
            assert_eq!(a.min(), both.min(), "case {case}");
            assert_eq!(a.max(), both.max(), "case {case}");
            assert!(
                (a.sum() - both.sum()).abs() <= 1e-12 * both.sum().abs(),
                "case {case}: sums diverged beyond rounding"
            );
            for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
                assert_eq!(
                    a.quantile(q),
                    both.quantile(q),
                    "case {case}: quantile q={q} diverged after merge"
                );
            }
            // Recording after the merge keeps endpoints exact: push one
            // sample below and one above everything seen so far.
            let old_min = a.min().unwrap();
            let old_max = a.max().unwrap();
            a.record(old_min * 0.25);
            a.record(old_max * 4.0);
            assert_eq!(a.min(), Some(old_min * 0.25));
            assert_eq!(a.max(), Some(old_max * 4.0));
            assert_eq!(a.quantile(0.0), Some(old_min * 0.25));
            assert_eq!(a.quantile(1.0), Some(old_max * 4.0));
        }
    }

    #[test]
    fn buckets_iterate_non_empty_cells_in_edge_order() {
        let mut h = Histogram::new();
        for v in [1e-6, 1.5e-6, 3e-3, 0.5] {
            h.record(v);
        }
        let buckets: Vec<(f64, u64)> = h.buckets().collect();
        assert_eq!(buckets.iter().map(|&(_, c)| c).sum::<u64>(), 4);
        assert!(buckets.windows(2).all(|w| w[0].0 < w[1].0), "ascending");
        // 1e-6 and 1.5e-6 share one log2 bucket.
        assert_eq!(buckets.len(), 3);
        assert_eq!(buckets[0].1, 2);
    }

    #[test]
    fn degenerate_and_out_of_range_samples_land_safely() {
        let mut h = Histogram::new();
        h.record(0.0);
        h.record(-1.0); // clock went backwards: underflow bucket
        h.record(f64::MIN_POSITIVE / 2.0); // subnormal
        h.record(1e9); // beyond the top regular bucket
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), Some(-1.0));
        assert_eq!(h.max(), Some(1e9));
        // Quantiles stay inside the observed range even for the
        // overflow/underflow buckets.
        let p = h.quantile(0.999).unwrap();
        assert!((-1.0..=1e9).contains(&p));
    }

    #[test]
    fn merge_equals_recording_both_streams() {
        let (a_samples, b_samples): (Vec<f64>, Vec<f64>) = (
            (1..=50).map(|i| 1e-5 * i as f64).collect(),
            (1..=80).map(|i| 3e-4 * i as f64).collect(),
        );
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for &v in &a_samples {
            a.record(v);
            both.record(v);
        }
        for &v in &b_samples {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
        assert_eq!(a.count(), 130);
    }

    #[test]
    fn footprint_is_a_compile_time_constant() {
        // The O(1)-memory contract: the struct holds no heap data, so its
        // size bounds the cost per tracked distribution forever.
        let mut h = Histogram::new();
        let size = std::mem::size_of_val(&h);
        for i in 0..100_000 {
            h.record(1e-6 * (i % 977) as f64);
        }
        assert_eq!(std::mem::size_of_val(&h), size);
        assert_eq!(h.count(), 100_000);
        assert_eq!(size, std::mem::size_of::<Histogram>());
    }
}
