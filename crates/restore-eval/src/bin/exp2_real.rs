//! Regenerates **Fig. 7a** (bias reductions) and **Fig. 7b** (cardinality
//! corrections) for the ten real-world completion setups H1–H5 / M1–M5.

use restore_data::all_setups;
use restore_eval::{parse_args, pct, print_table, run_exp2, save_json};

fn main() {
    let args = parse_args();
    let setups = all_setups();
    let cells = run_exp2(
        &setups,
        &args.keeps,
        &args.corrs,
        args.scale,
        args.seed,
        false,
    );
    save_json("fig7_exp2_real", &cells);

    for (title, field) in [
        ("Fig. 7a — bias reductions", 0usize),
        ("Fig. 7b — cardinality corrections", 1usize),
    ] {
        for setup in &setups {
            let mut rows = Vec::new();
            for &k in &args.keeps {
                let mut row = vec![format!("keep {}", pct(k))];
                for &c in &args.corrs {
                    let v = cells
                        .iter()
                        .find(|x| {
                            x.setup == setup.id && x.keep_rate == k && x.removal_correlation == c
                        })
                        .map(|x| {
                            if field == 0 {
                                x.bias_reduction
                            } else {
                                x.cardinality_correction
                            }
                        })
                        .unwrap_or(f64::NAN);
                    row.push(pct(v));
                }
                rows.push(row);
            }
            let mut headers = vec!["".to_string()];
            headers.extend(args.corrs.iter().map(|c| format!("corr {}", pct(*c))));
            let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
            print_table(
                &format!(
                    "{title} — setup {} ({}.{})",
                    setup.id, setup.bias.table, setup.bias.column
                ),
                &headers_ref,
                &rows,
            );
        }
    }
    let failed: Vec<&str> = cells
        .iter()
        .filter(|c| c.error.is_some())
        .map(|c| c.setup.as_str())
        .collect();
    if !failed.is_empty() {
        println!("\ncells with errors: {failed:?}");
    }
}
