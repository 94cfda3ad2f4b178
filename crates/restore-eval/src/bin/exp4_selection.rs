//! Regenerates **Fig. 10**: quality of the model/path selection — all
//! candidate models vs the test-loss selection vs the suspected-bias
//! selection, against the in-hindsight best candidate.

use restore_data::all_setups;
use restore_eval::{parse_args, pct, print_table, run_fig10, save_json};

fn main() {
    let args = parse_args();
    let setups = all_setups();
    let cells = run_fig10(&setups, &args.corrs, args.scale, args.seed);
    save_json("fig10_selection", &cells);

    let mut rows = Vec::new();
    for c in &cells {
        let all: Vec<String> = c.all_models.iter().map(|(_, b)| pct(*b)).collect();
        rows.push(vec![
            c.setup.clone(),
            pct(c.removal_correlation),
            all.join(" "),
            pct(c.selected),
            pct(c.selected_suspected),
            pct(c.best),
        ]);
    }
    print_table(
        "Fig. 10 — selection quality (keep rate 40%)",
        &[
            "setup",
            "corr",
            "all models",
            "selected",
            "selected+suspected",
            "best (oracle)",
        ],
        &rows,
    );

    // How often does each strategy pick (near-)optimally?
    let near = |a: f64, b: f64| a.is_finite() && b.is_finite() && a >= b - 0.1;
    let total = cells.iter().filter(|c| c.best.is_finite()).count();
    let sel_ok = cells.iter().filter(|c| near(c.selected, c.best)).count();
    let sus_ok = cells
        .iter()
        .filter(|c| near(c.selected_suspected, c.best))
        .count();
    println!(
        "\nwithin 10pp of the best model: selection {sel_ok}/{total}, selection+suspected bias {sus_ok}/{total}"
    );
}
