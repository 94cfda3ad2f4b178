//! The evaluation metrics of §2.1 and §7.

use std::collections::BTreeMap;

/// Relative error `|estimate − truth| / |truth|`; when the truth is zero
/// the absolute error is returned (the paper's plots never divide by zero
/// because true aggregates are positive).
pub fn relative_error(estimate: f64, truth: f64) -> f64 {
    if truth.abs() < 1e-12 {
        (estimate - truth).abs()
    } else {
        (estimate - truth).abs() / truth.abs()
    }
}

/// Average relative error over the groups of a group-by result (following
/// DeepDB \[17\], as the paper does): averaged over the *true* groups; a
/// group missing from the estimate counts as 100% error.
pub fn group_relative_error(
    truth: &BTreeMap<Vec<String>, Vec<f64>>,
    estimate: &BTreeMap<Vec<String>, Vec<f64>>,
    agg_idx: usize,
) -> f64 {
    if truth.is_empty() {
        return 0.0;
    }
    let mut total = 0.0;
    for (key, tvals) in truth {
        let t = tvals[agg_idx];
        match estimate.get(key) {
            Some(evals) => total += relative_error(evals[agg_idx], t),
            None => total += 1.0,
        }
    }
    total / truth.len() as f64
}

/// Relative-error improvement (Eq. 1): how much completion reduced the
/// error versus querying the incomplete data directly. Positive = better.
pub fn error_improvement(err_incomplete: f64, err_completed: f64) -> f64 {
    err_incomplete - err_completed
}

/// Bias reduction (Eq. 2) on an aggregate statistic (mean of a continuous
/// attribute, or the fraction of a categorical value):
/// `1 − |stat_completed − stat_true| / |stat_true − stat_incomplete|`.
///
/// 1 = bias fully removed, 0 = no improvement, negative = made it worse.
/// When the incomplete data was already unbiased the result is clamped to
/// `[0, 1]` based on whether completion kept it unbiased.
pub fn bias_reduction(stat_true: f64, stat_incomplete: f64, stat_completed: f64) -> f64 {
    let before = (stat_true - stat_incomplete).abs();
    let after = (stat_true - stat_completed).abs();
    if before < 1e-12 {
        return if after < 1e-9 { 1.0 } else { 0.0 };
    }
    1.0 - after / before
}

/// Cardinality correction (§7.3):
/// `1 − |n_completed − n_complete| / |n_incomplete − n_complete|`.
pub fn cardinality_correction(n_complete: usize, n_incomplete: usize, n_completed: usize) -> f64 {
    bias_reduction(n_complete as f64, n_incomplete as f64, n_completed as f64)
}

/// Mean of a slice (`NaN`-free inputs assumed).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Median of a slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_error_basics() {
        assert_eq!(relative_error(110.0, 100.0), 0.1);
        assert_eq!(relative_error(90.0, 100.0), 0.1);
        assert_eq!(relative_error(5.0, 0.0), 5.0);
    }

    #[test]
    fn group_error_penalizes_missing_groups() {
        let mut truth = BTreeMap::new();
        truth.insert(vec!["a".to_string()], vec![100.0]);
        truth.insert(vec!["b".to_string()], vec![50.0]);
        let mut est = BTreeMap::new();
        est.insert(vec!["a".to_string()], vec![110.0]);
        // group b missing entirely -> error 1.0
        let e = group_relative_error(&truth, &est, 0);
        assert!((e - (0.1 + 1.0) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn bias_reduction_full_and_none() {
        // Truth 10, incomplete 6, completed 10 -> fully debiased.
        assert_eq!(bias_reduction(10.0, 6.0, 10.0), 1.0);
        // Completed stayed at the incomplete value -> 0.
        assert_eq!(bias_reduction(10.0, 6.0, 6.0), 0.0);
        // Completed overshot to 2 -> negative.
        assert!(bias_reduction(10.0, 6.0, 2.0) < 0.0);
        // Already unbiased and kept -> 1.
        assert_eq!(bias_reduction(10.0, 10.0, 10.0), 1.0);
    }

    #[test]
    fn cardinality_correction_matches_paper_definition() {
        // complete 1000, incomplete 500, completed 950 -> 0.9
        assert!((cardinality_correction(1000, 500, 950) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
