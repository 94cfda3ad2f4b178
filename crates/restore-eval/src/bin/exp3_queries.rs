//! Regenerates **Table 1** (the query workload) and **Fig. 8** (relative
//! error improvements per query over the sweep grid).

use restore_data::all_setups;
use restore_eval::{parse_args, pct, print_table, run_exp3, save_json};

fn main() {
    let args = parse_args();
    let setups = all_setups();
    let cells = run_exp3(&setups, &args.keeps, &args.corrs, args.scale, args.seed);
    save_json("fig8_exp3_queries", &cells);

    // Table 1: the workload itself.
    let mut sql_rows = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    for c in &cells {
        if seen.insert((c.dataset.clone(), c.query.clone())) {
            sql_rows.push(vec![
                c.dataset.clone(),
                c.setup.clone(),
                c.query.clone(),
                c.sql.clone(),
            ]);
        }
    }
    print_table(
        "Table 1 — query workload",
        &["dataset", "setup", "query", "SQL"],
        &sql_rows,
    );

    // Fig. 8: one block per query; rows keep rate, cols removal corr.
    for dataset in ["Housing", "Movies"] {
        for q in ["Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "Q8", "Q9", "Q10"] {
            let subset: Vec<_> = cells
                .iter()
                .filter(|c| c.dataset == dataset && c.query == q)
                .collect();
            if subset.is_empty() {
                continue;
            }
            let mut rows = Vec::new();
            for &k in &args.keeps {
                let mut row = vec![format!("keep {}", pct(k))];
                for &c in &args.corrs {
                    let v = subset
                        .iter()
                        .find(|x| x.keep_rate == k && x.removal_correlation == c)
                        .map(|x| x.improvement)
                        .unwrap_or(f64::NAN);
                    row.push(pct(v));
                }
                rows.push(row);
            }
            let mut headers = vec!["rel. err. improvement".to_string()];
            headers.extend(args.corrs.iter().map(|c| format!("corr {}", pct(*c))));
            let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
            print_table(&format!("Fig. 8 — {dataset}: {q}"), &headers_ref, &rows);
        }
    }

    let improved = cells
        .iter()
        .filter(|c| c.improvement.is_finite() && c.improvement > 0.0)
        .count();
    let finite = cells.iter().filter(|c| c.improvement.is_finite()).count();
    println!("\ncompletion improved {improved}/{finite} query cells");
}
