//! Regenerates **Fig. 6** (synthetic confidence intervals at removal
//! correlation 40%) and **Fig. 13** (appendix: all correlations).

use restore_eval::{parse_args, pct, print_table, run_confidence_synthetic, save_json};

fn main() {
    let args = parse_args();
    let preds = if args.quick {
        vec![0.25, 1.0]
    } else {
        vec![0.25, 0.5, 0.75, 1.0]
    };
    let cells = run_confidence_synthetic(&preds, &args.keeps, &args.corrs, 250, args.seed);
    save_json("fig6_fig13_confidence_synthetic", &cells);

    for &corr in &args.corrs {
        let mut rows = Vec::new();
        for c in cells.iter().filter(|c| c.removal_correlation == corr) {
            rows.push(vec![
                pct(c.keep_rate),
                pct(c.predictability),
                format!("[{} , {}]", pct(c.ci_lo), pct(c.ci_hi)),
                pct(c.true_fraction),
                format!("[{} , {}]", pct(c.theoretical_min), pct(c.theoretical_max)),
                if c.covered { "yes" } else { "NO" }.to_string(),
            ]);
        }
        let title = if (corr - 0.4).abs() < 1e-9 {
            format!(
                "Fig. 6 — confidence intervals (removal correlation {})",
                pct(corr)
            )
        } else {
            format!(
                "Fig. 13 — confidence intervals (removal correlation {})",
                pct(corr)
            )
        };
        print_table(
            &title,
            &[
                "keep",
                "predictability",
                "95% CI",
                "true fraction",
                "theoretical",
                "covered",
            ],
            &rows,
        );
    }
    let covered = cells.iter().filter(|c| c.covered).count();
    println!(
        "\ncoverage: {covered}/{} cells contain the true fraction",
        cells.len()
    );
}
