//! Runs every experiment of the paper's evaluation in one process. Each
//! runner writes its JSON artifact to `results/` (or
//! `$RESTORE_RESULTS_DIR`) and prints one verdict line: cell count, errored
//! cells and the figure's headline number. Expect tens of minutes at
//! default scale; `--quick` shrinks every grid for a smoke run.
//!
//! `run_all [--quick] [--scale=0.3] [--seed=7] [--keeps=0.2,0.4] [--corrs=0.2,0.8]`
//!
//! Exits 2 on a bad flag, 1 when an artifact cannot be written, and
//! non-zero when a runner panics.

use std::path::PathBuf;
use std::time::Instant;

use restore_data::all_setups;
use restore_eval::{
    mean, median, parse_args, run_confidence_real, run_confidence_synthetic, run_exp1,
    run_exp1_fanout, run_exp2, run_exp3, run_fig10, run_fig9, run_timings, Exp1Config,
};
use restore_util::json::ToJson;

/// Writes `cells` to `<results dir>/<name>.json`.
fn save_json<C: ToJson>(name: &str, cells: &[C]) -> std::io::Result<PathBuf> {
    let dir = std::env::var("RESTORE_RESULTS_DIR").unwrap_or_else(|_| "results".to_string());
    std::fs::create_dir_all(&dir)?;
    let path = PathBuf::from(dir).join(format!("{name}.json"));
    std::fs::write(&path, cells.to_json())?;
    Ok(path)
}

/// Runs one experiment, saves its artifact and prints its verdict line.
/// Returns whether the artifact was written.
fn step<C: ToJson>(
    name: &str,
    run: impl FnOnce() -> Vec<C>,
    errored: impl Fn(&C) -> bool,
    headline: impl FnOnce(&[C]) -> String,
) -> bool {
    let started = Instant::now();
    let cells = run();
    let errored = cells.iter().filter(|c| errored(c)).count();
    let (n, headline) = (cells.len(), headline(&cells));
    let secs = started.elapsed().as_secs_f64();
    match save_json(name, &cells) {
        Ok(path) => {
            println!("{name}: {n} cells, {errored} errored, {headline} [{path:?}, {secs:.1}s]");
            true
        }
        Err(e) => {
            eprintln!("{name}: artifact not written: {e}");
            false
        }
    }
}

/// `label value` pairs, three decimals each.
fn listing(pairs: impl IntoIterator<Item = (f64, f64)>) -> String {
    let items: Vec<String> = pairs
        .into_iter()
        .map(|(k, v)| format!("{k} {v:.3}"))
        .collect();
    items.join(", ")
}

fn finite(xs: impl IntoIterator<Item = f64>) -> Vec<f64> {
    xs.into_iter().filter(|x| x.is_finite()).collect()
}

fn main() {
    let args = parse_args();
    let (keeps, corrs, scale, seed) = (&args.keeps, &args.corrs, args.scale, args.seed);
    let setups = all_setups();
    let quick = |small: &[f64], full: &[f64]| if args.quick { small } else { full }.to_vec();
    let started = Instant::now();
    let mut written = true;

    let mut exp1 = Exp1Config {
        keeps: keeps.clone(),
        corrs: corrs.clone(),
        seed,
        ..Default::default()
    };
    if args.quick {
        exp1.predictabilities = vec![0.2, 0.6, 1.0];
        exp1.zipfs = vec![1.0, 2.0, 3.0];
    }
    written &= step(
        "fig5a_exp1_bias",
        || run_exp1(&exp1),
        |c| c.bias_reduction.is_nan(),
        |cells| {
            let by_pred = exp1.predictabilities.iter().map(|&p| {
                let panel = format!("predictability={p}");
                let of_panel = cells.iter().filter(|c| c.panel == panel);
                (p, mean(&finite(of_panel.map(|c| c.bias_reduction))))
            });
            format!(
                "mean bias reduction by predictability: {}",
                listing(by_pred)
            )
        },
    );
    written &= step(
        "fig5c_fanout",
        || {
            run_exp1_fanout(
                &quick(&[0.25, 0.75, 1.0], &[0.2, 0.4, 0.6, 0.8, 1.0]),
                250,
                seed,
            )
        },
        |c| c.improvement.is_nan(),
        |cells| {
            let points = cells
                .iter()
                .map(|c| (c.fanout_predictability, c.improvement));
            format!("SSAR - AR by fan-out predictability: {}", listing(points))
        },
    );
    let preds = quick(&[0.25, 1.0], &[0.25, 0.5, 0.75, 1.0]);
    written &= step(
        "fig6_fig13_confidence_synthetic",
        || run_confidence_synthetic(&preds, keeps, corrs, 250, seed),
        |c| c.ci_lo.is_nan(),
        |cells| {
            let covered = cells.iter().filter(|c| c.covered).count();
            format!("{covered}/{} cells cover the true fraction", cells.len())
        },
    );
    written &= step(
        "fig7_exp2_real",
        || run_exp2(&setups, keeps, corrs, scale, seed, false),
        |c| c.error.is_some(),
        |cells| {
            let br = median(&finite(cells.iter().map(|c| c.bias_reduction)));
            let cc = median(&finite(cells.iter().map(|c| c.cardinality_correction)));
            format!("median bias reduction {br:.3}, median cardinality correction {cc:.3}")
        },
    );
    written &= step(
        "fig8_exp3_queries",
        || run_exp3(&setups, keeps, corrs, scale, seed),
        |c| c.error.is_some(),
        |cells| {
            let finite = finite(cells.iter().map(|c| c.improvement));
            let improved = finite.iter().filter(|&&x| x > 0.0).count();
            format!(
                "completion improved {improved}/{} query cells",
                finite.len()
            )
        },
    );
    written &= step(
        "fig9_ar_vs_ssar",
        || run_fig9(&setups, corrs, scale, seed),
        |c| c.bias_reduction.is_nan(),
        |cells| {
            let mean_of = |setup: &str, class: &str| {
                let of = cells
                    .iter()
                    .filter(|c| c.setup == setup && c.model_class == class);
                mean(&finite(of.map(|c| c.bias_reduction)))
            };
            let ar = setups
                .iter()
                .filter(|s| mean_of(s.id, "AR") >= mean_of(s.id, "SSAR"))
                .count();
            format!("AR better on {ar} setups, SSAR on {}", setups.len() - ar)
        },
    );
    written &= step(
        "fig10_selection",
        || run_fig10(&setups, corrs, scale, seed),
        |c| c.best.is_nan(),
        |cells| {
            let near = |a: f64, b: f64| a.is_finite() && b.is_finite() && a >= b - 0.1;
            let total = cells.iter().filter(|c| c.best.is_finite()).count();
            let val = cells.iter().filter(|c| near(c.selected, c.best)).count();
            let hint = cells.iter().filter(|c| near(c.selected_suspected, c.best));
            format!(
                "within 10 pp of the best: BestValLoss {val}/{total}, SuspectedBiasRanking {}/{total}",
                hint.count()
            )
        },
    );
    written &= step(
        "fig11_fig12_timing",
        || run_timings(&setups, scale, seed),
        |c| c.train_seconds.is_nan(),
        |cells| {
            let train = mean(&finite(cells.iter().map(|c| c.train_seconds)));
            let complete = mean(&finite(cells.iter().map(|c| c.completion_seconds)));
            format!("mean training {train:.3}s, mean completion {complete:.3}s")
        },
    );
    written &= step(
        "fig14_confidence_real",
        || run_confidence_real(&["H2", "H3", "M2", "M3", "M5"], keeps, corrs, scale, seed),
        |c| c.ci_lo.is_nan(),
        |cells| {
            let covered = cells.iter().filter(|c| c.covered).count();
            format!("{covered}/{} cells cover the true fraction", cells.len())
        },
    );

    println!(
        "all experiments done in {:.1}s",
        started.elapsed().as_secs_f64()
    );
    if !written {
        std::process::exit(1);
    }
}
