//! Seeded property tests for the utility crate: RNG ranges and shuffles,
//! summary merging, line fits and bisection.
//!
//! Each property draws its cases from a fixed-seed `Rng`, so a failure
//! names a case that reproduces exactly.

use manet_util::rng::Rng;
use manet_util::solve::bisect;
use manet_util::stats::{linear_fit, Summary};

/// A value log-uniform in `[lo, hi)`, so every scale of a wide range
/// gets cases.
fn log_uniform(rng: &mut Rng, lo: f64, hi: f64) -> f64 {
    (rng.f64_range(lo.ln()..hi.ln())).exp()
}

fn vec_of(rng: &mut Rng, max_len: usize, lo: f64, hi: f64) -> Vec<f64> {
    let len = rng.usize_below(max_len + 1);
    (0..len).map(|_| rng.f64_range(lo..hi)).collect()
}

#[test]
fn f64_range_stays_in_range() {
    let mut cases = Rng::seed_from_u64(1);
    for _ in 0..256 {
        let mut rng = Rng::seed_from_u64(cases.u64());
        let lo = cases.f64_range(-1e6..1e6);
        let hi = lo + log_uniform(&mut cases, 1e-6, 1e6);
        for _ in 0..32 {
            let x = rng.f64_range(lo..hi);
            assert!(x >= lo && x < hi, "x={x} not in [{lo}, {hi})");
        }
    }
}

#[test]
fn u64_below_stays_below() {
    let mut cases = Rng::seed_from_u64(2);
    for case in 0..256 {
        let mut rng = Rng::seed_from_u64(cases.u64());
        // Small bounds, powers of two and their neighbours, and huge ones.
        let bound = match case % 4 {
            0 => 1 + cases.u64_below(16),
            1 => 1u64 << cases.u64_below(64),
            2 => (1u64 << (1 + cases.u64_below(63))) - 1,
            _ => 1 + cases.u64_below(u64::MAX - 1),
        };
        for _ in 0..32 {
            assert!(rng.u64_below(bound) < bound, "bound {bound}");
        }
    }
}

#[test]
fn shuffle_preserves_multiset() {
    let mut cases = Rng::seed_from_u64(3);
    for _ in 0..256 {
        let mut rng = Rng::seed_from_u64(cases.u64());
        let len = cases.usize_below(64);
        let mut v: Vec<u32> = (0..len).map(|_| cases.u64_below(1000) as u32).collect();
        let mut expected = v.clone();
        rng.shuffle(&mut v);
        expected.sort_unstable();
        v.sort_unstable();
        assert_eq!(v, expected);
    }
}

#[test]
fn summary_merge_matches_sequential() {
    let mut rng = Rng::seed_from_u64(4);
    for _ in 0..256 {
        let a = vec_of(&mut rng, 49, -1e3, 1e3);
        let b = vec_of(&mut rng, 49, -1e3, 1e3);
        let mut merged: Summary = a.iter().copied().collect();
        let right: Summary = b.iter().copied().collect();
        merged.merge(&right);
        let whole: Summary = a.iter().chain(b.iter()).copied().collect();
        assert_eq!(merged.count(), whole.count());
        assert!((merged.mean() - whole.mean()).abs() <= 1e-6 * (1.0 + whole.mean().abs()));
        assert!(
            (merged.sample_variance() - whole.sample_variance()).abs()
                <= 1e-5 * (1.0 + whole.sample_variance().abs())
        );
    }
}

#[test]
fn linear_fit_exact_on_lines() {
    let mut rng = Rng::seed_from_u64(5);
    for _ in 0..256 {
        let slope = rng.f64_range(-100.0..100.0);
        let intercept = rng.f64_range(-100.0..100.0);
        let n = 2 + rng.usize_below(28);
        let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| slope * x + intercept).collect();
        let fit = linear_fit(&xs, &ys).unwrap();
        assert!((fit.slope - slope).abs() < 1e-6 * (1.0 + slope.abs()));
        assert!((fit.intercept - intercept).abs() < 1e-5 * (1.0 + intercept.abs()));
    }
}

#[test]
fn bisect_finds_roots_of_shifted_cubic() {
    let mut rng = Rng::seed_from_u64(6);
    for _ in 0..256 {
        let root = rng.f64_range(-10.0..10.0);
        // f(x) = (x - root)^3 is monotone, so any bracket around root works.
        let f = |x: f64| (x - root).powi(3);
        let r = bisect(f, -11.0, 11.0, 1e-12, 500).unwrap();
        assert!((r - root).abs() < 1e-6, "root {root}: got {r}");
    }
}
