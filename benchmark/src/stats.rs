//! Order statistics over run samples.

use crate::spec::Better;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count). 0 for an
/// empty sample.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile, `p` in `[0, 1]`. 0 for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let v = sorted(samples);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p.clamp(0.0, 1.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// A statistic of each window's samples, in window order; `samples` are
/// `(window, value)` and a window without samples is left out.
pub fn per_window(samples: &[(usize, f64)], stat: impl Fn(&[f64]) -> f64) -> Vec<f64> {
    let mut by_window = std::collections::BTreeMap::<usize, Vec<f64>>::new();
    for &(window, value) in samples {
        by_window.entry(window).or_default().push(value);
    }
    by_window.values().map(|w| stat(w)).collect()
}

/// The `rank`-th best of `values` (1 is the best; the worst when there are
/// fewer than `rank`). 0 for an empty sample.
pub fn nth_best(values: &[f64], rank: usize, better: Better) -> f64 {
    let mut v = sorted(values);
    if better == Better::Higher {
        v.reverse();
    }
    match v.len() {
        0 => 0.0,
        n => v[rank.clamp(1, n) - 1],
    }
}

/// `(q1, median, q3)` as Python's `statistics.quantiles(values, n=4)`
/// (exclusive method) gives them — the cut the driver uses for a
/// metric's spread. Needs at least two values.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let v = sorted(samples);
    assert!(v.len() >= 2, "quartiles need at least two values");
    let m = v.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(samples: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(samples);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Per-window rates from per-window counts.
pub fn window_rates(counts: &[u64], window_s: f64) -> Vec<f64> {
    counts.iter().map(|&c| c as f64 / window_s).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn window_median_ignores_one_stalled_window() {
        // Eight windows, one of which lost most of its requests to a stall.
        let counts = [1000, 1010, 990, 120, 1005, 995, 1000, 1002];
        let rates = window_rates(&counts, 2.0);
        assert_eq!(rates[3], 60.0);
        assert_eq!(median(&rates), 500.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn cycle_percentile_leaves_ten_samples_beyond_it() {
        // 100 cycle samples at p90 leave ten above the reported value.
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        let p90 = percentile(&v, 0.90);
        assert_eq!(v.iter().filter(|&&x| x > p90).count(), 10);
    }

    #[test]
    fn nth_best_window_ignores_disturbed_windows_and_lucky_ones() {
        // Six windows of ten cycles each: three ran beside interference,
        // one was lucky, and the second and third best are the two
        // undisturbed ones.
        let mut samples = Vec::new();
        for (window, scale) in [5.0, 1.0, 7.0, 0.5, 1.0, 6.0].into_iter().enumerate() {
            for i in 1..=10 {
                samples.push((window, scale * f64::from(i)));
            }
        }
        let p90s = per_window(&samples, |w| percentile(w, 0.9));
        assert_eq!(p90s, vec![45.0, 9.0, 63.0, 4.5, 9.0, 54.0]);
        assert_eq!(nth_best(&p90s, 3, Better::Lower), 9.0);
        // Rates: the higher the better.
        let rates = [500.0, 910.0, 480.0, 1200.0, 900.0, 470.0];
        assert_eq!(nth_best(&rates, 3, Better::Higher), 900.0);
        assert_eq!(nth_best(&rates, 1, Better::Higher), 1200.0);
        // Fewer values than the rank: the worst there is.
        assert_eq!(nth_best(&[2.0, 1.0], 3, Better::Lower), 2.0);
        assert_eq!(nth_best(&[], 3, Better::Lower), 0.0);
        // A window without samples is left out.
        assert_eq!(per_window(&[(0, 1.0), (2, 3.0)], median), vec![1.0, 3.0]);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 20.0, 40.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
