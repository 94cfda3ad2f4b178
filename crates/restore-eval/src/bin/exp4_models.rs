//! Regenerates **Fig. 9**: distribution of bias reductions for AR vs SSAR
//! models per completion setup — neither class dominates, motivating model
//! selection.

use restore_data::all_setups;
use restore_eval::{mean, median, parse_args, pct, print_table, run_fig9, save_json};

fn main() {
    let args = parse_args();
    let setups = all_setups();
    let cells = run_fig9(&setups, &args.corrs, args.scale, args.seed);
    save_json("fig9_ar_vs_ssar", &cells);

    let mut rows = Vec::new();
    for setup in &setups {
        for class in ["AR", "SSAR"] {
            let brs: Vec<f64> = cells
                .iter()
                .filter(|c| {
                    c.setup == setup.id && c.model_class == class && c.bias_reduction.is_finite()
                })
                .map(|c| c.bias_reduction)
                .collect();
            if brs.is_empty() {
                continue;
            }
            let min = brs.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = brs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            rows.push(vec![
                setup.id.to_string(),
                class.to_string(),
                pct(min),
                pct(median(&brs)),
                pct(mean(&brs)),
                pct(max),
            ]);
        }
    }
    print_table(
        "Fig. 9 — AR vs SSAR bias-reduction distributions",
        &["setup", "model", "min", "median", "mean", "max"],
        &rows,
    );

    // Who wins per setup?
    let mut wins_ar = 0;
    let mut wins_ssar = 0;
    for setup in &setups {
        let m = |class: &str| {
            let brs: Vec<f64> = cells
                .iter()
                .filter(|c| {
                    c.setup == setup.id && c.model_class == class && c.bias_reduction.is_finite()
                })
                .map(|c| c.bias_reduction)
                .collect();
            mean(&brs)
        };
        if m("AR") >= m("SSAR") {
            wins_ar += 1;
        } else {
            wins_ssar += 1;
        }
    }
    println!("\nAR better on {wins_ar} setups, SSAR better on {wins_ssar} setups — no clear winner (as in the paper), motivating model selection.");
}
