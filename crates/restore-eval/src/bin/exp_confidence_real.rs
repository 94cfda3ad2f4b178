//! Regenerates **Fig. 14** (appendix): confidence intervals for the
//! categorical attributes of the real-world setups H2, H3, M2, M3, M5.

use restore_eval::{parse_args, pct, print_table, run_confidence_real, save_json};

fn main() {
    let args = parse_args();
    let setups = ["H2", "H3", "M2", "M3", "M5"];
    let cells = run_confidence_real(&setups, &args.keeps, &args.corrs, args.scale, args.seed);
    save_json("fig14_confidence_real", &cells);

    for setup in setups {
        let mut rows = Vec::new();
        for c in cells.iter().filter(|c| c.panel == setup) {
            rows.push(vec![
                pct(c.keep_rate),
                pct(c.removal_correlation),
                format!("[{} , {}]", pct(c.ci_lo), pct(c.ci_hi)),
                pct(c.true_fraction),
                if c.covered { "yes" } else { "NO" }.to_string(),
            ]);
        }
        print_table(
            &format!("Fig. 14 — setup {setup}"),
            &["keep", "removal corr", "95% CI", "true fraction", "covered"],
            &rows,
        );
    }
    let covered = cells.iter().filter(|c| c.covered).count();
    println!(
        "\ncoverage: {covered}/{} cells contain the true fraction",
        cells.len()
    );
}
