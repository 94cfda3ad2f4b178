//! The paper's claims, asserted on `restore-eval`'s own experiment runners
//! over seeds 1–5. Each runner's cells are a pure function of (grid,
//! scale, seed) under any worker count, so every assertion is
//! deterministic. The numbers in the comments are what the code measured
//! when the suite was written; each bound is looser than its number.
//!
//! * §7.3 / Fig. 7 — completion reduces the bias of every real-world setup
//!   and corrects its cardinality;
//! * §7.2 / Fig. 5a–b — bias reduction grows, and the target's validation
//!   loss falls, with the evidence's predictability;
//! * §6 / Figs. 6, 13 — confidence intervals cover the truth and are
//!   tighter than the theoretical range;
//! * §5 / Fig. 10 — the suspected-bias ranking picks a near-best chain.
//!
//! A debug build takes minutes, so the suite runs under `--release`:
//! `cargo test --release --test statistical`.

use restore::data::all_setups;
use restore::eval::{
    mean, median, run_confidence_synthetic, run_exp1, run_exp2, run_fig10, Exp1Config,
};

const SEEDS: std::ops::RangeInclusive<u64> = 1..=5;

/// Every seed's cells, in seed order.
fn over_seeds<C>(run: impl Fn(u64) -> Vec<C>) -> Vec<C> {
    SEEDS.flat_map(run).collect()
}

#[test]
#[cfg_attr(debug_assertions, ignore = "statistical gate: run under --release")]
fn completion_reduces_bias_on_every_real_setup() {
    let cells =
        over_seeds(|seed| run_exp2(&all_setups(), &[0.4, 0.6], &[0.6, 0.8], 0.1, seed, false));
    assert_eq!(cells.len(), 200);
    for c in &cells {
        assert!(
            c.error.is_none() && c.bias_reduction.is_finite(),
            "errored cell {} keep {} corr {}: {:?}",
            c.setup,
            c.keep_rate,
            c.removal_correlation,
            c.error
        );
    }
    let of = |field: fn(&_) -> f64, setup: Option<&str>| {
        let xs: Vec<f64> = cells
            .iter()
            .filter(|c| setup.is_none_or(|s| c.setup == s))
            .map(field)
            .collect();
        median(&xs)
    };
    for setup in all_setups() {
        // Lowest today: M4 +0.040 and H3 +0.060.
        let br = of(|c| c.bias_reduction, Some(setup.id));
        assert!(br > 0.0, "{}: median bias reduction {br:.3}", setup.id);
        // 0.45–0.84 today.
        let cc = of(|c| c.cardinality_correction, Some(setup.id));
        assert!(
            cc > 0.0,
            "{}: median cardinality correction {cc:.3}",
            setup.id
        );
    }
    // 0.263 today.
    let pooled = of(|c| c.bias_reduction, None);
    assert!(pooled >= 0.15, "pooled median bias reduction {pooled:.3}");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "statistical gate: run under --release")]
fn bias_reduction_grows_and_loss_falls_with_predictability() {
    let predictabilities = [0.2, 0.6, 1.0];
    let cells = over_seeds(|seed| {
        run_exp1(&Exp1Config {
            predictabilities: predictabilities.to_vec(),
            zipfs: Vec::new(),
            keeps: vec![0.2, 0.8],
            corrs: vec![0.2, 0.8],
            seed,
            ..Exp1Config::default()
        })
    });
    let panel_means = |field: fn(&_) -> f64| -> Vec<f64> {
        predictabilities
            .iter()
            .map(|p| {
                let panel = format!("predictability={p}");
                let xs: Vec<f64> = cells
                    .iter()
                    .filter(|c| c.panel == panel)
                    .map(field)
                    .collect();
                assert_eq!(xs.len(), 20, "{panel}");
                mean(&xs)
            })
            .collect()
    };
    // −0.059 / 0.232 / 0.998 today.
    let br = panel_means(|c| c.bias_reduction);
    assert!(br.iter().all(|x| x.is_finite()), "bias reductions {br:?}");
    assert!(
        br.windows(2).all(|w| w[0] < w[1]),
        "bias reduction by predictability {br:?}"
    );
    assert!(
        br[2] >= 0.9,
        "mean bias reduction at predictability 1.0: {:.3}",
        br[2]
    );
    // 2.28 / 1.67 / 0.00 today.
    let loss = panel_means(|c| f64::from(c.val_loss));
    assert!(
        loss.windows(2).all(|w| w[0] > w[1]),
        "target val loss by predictability {loss:?}"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "statistical gate: run under --release")]
fn confidence_intervals_cover_and_are_tighter_than_the_theoretical_range() {
    let cells = over_seeds(|seed| {
        run_confidence_synthetic(&[0.25, 1.0], &[0.2, 0.8], &[0.2, 0.8], 250, seed)
    });
    assert_eq!(cells.len(), 40);
    // Strict containment, without the runner's ±0.02 slack: 40/40 today.
    let covered = cells
        .iter()
        .filter(|c| c.ci_lo <= c.true_fraction && c.true_fraction <= c.ci_hi)
        .count();
    assert!(
        covered * 10 >= cells.len() * 9,
        "{covered}/{} intervals contain the truth",
        cells.len()
    );
    let ratios: Vec<f64> = cells
        .iter()
        .map(|c| {
            let ratio = (c.ci_hi - c.ci_lo) / (c.theoretical_max - c.theoretical_min);
            // 0.88 at most today.
            assert!(
                ratio < 1.0,
                "interval [{:.3}, {:.3}] not narrower than its range [{:.3}, {:.3}] (predictability {}, keep {}, corr {})",
                c.ci_lo,
                c.ci_hi,
                c.theoretical_min,
                c.theoretical_max,
                c.predictability,
                c.keep_rate,
                c.removal_correlation
            );
            ratio
        })
        .collect();
    // 0.28 today.
    let width = median(&ratios);
    assert!(width <= 0.5, "median width / theoretical range {width:.3}");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "statistical gate: run under --release")]
fn suspected_bias_ranking_picks_a_near_best_chain() {
    let cells = over_seeds(|seed| run_fig10(&all_setups(), &[0.6, 0.8], 0.1, seed));
    assert_eq!(cells.len(), 100);
    let near_best = |pick: fn(&_) -> f64| {
        cells
            .iter()
            .filter(|c| c.best.is_finite() && pick(c) >= c.best - 0.1)
            .count()
    };
    // 88 and 63 of 100 today.
    let hint = near_best(|c| c.selected_suspected);
    let val_loss = near_best(|c| c.selected);
    assert!(
        hint >= 80,
        "SuspectedBiasRanking within 10 pp of the best on {hint}/100"
    );
    // The hint is what makes selection work on this grid: test loss alone
    // carries little signal here (ranking by the *highest* loss lands
    // near-best on 67 cells), so this margin — 25 today, 21 with the
    // ranking inverted — is what notices BestValLoss ranking the wrong way.
    assert!(
        hint >= val_loss + 22,
        "SuspectedBiasRanking {hint}/100 vs BestValLoss {val_loss}/100"
    );
}
