//! Regenerates **Fig. 11** (training time per model) and **Fig. 12**
//! (completion time per path, with and without NN replacement).

use restore_data::all_setups;
use restore_eval::{mean, parse_args, print_table, run_timings, save_json, secs};

fn main() {
    let args = parse_args();
    let setups = all_setups();
    let cells = run_timings(&setups, args.scale, args.seed);
    save_json("fig11_fig12_timing", &cells);

    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.setup.clone(),
                c.model_class.clone(),
                c.path.clone(),
                secs(c.train_seconds),
                secs(c.completion_seconds),
                secs(c.completion_nn_seconds),
                c.synthesized_tuples.to_string(),
            ]
        })
        .collect();
    print_table(
        "Fig. 11/12 — per-setup timings",
        &[
            "setup",
            "model",
            "path",
            "train",
            "complete",
            "complete+NN",
            "synthesized",
        ],
        &rows,
    );

    // Fig. 11 aggregate: mean training time per dataset × model class.
    let mut rows11 = Vec::new();
    for dataset in ["Housing", "Movies"] {
        for class in ["AR", "SSAR"] {
            let ts: Vec<f64> = cells
                .iter()
                .filter(|c| {
                    c.dataset == dataset && c.model_class == class && c.train_seconds.is_finite()
                })
                .map(|c| c.train_seconds)
                .collect();
            rows11.push(vec![
                dataset.to_string(),
                class.to_string(),
                secs(mean(&ts)),
            ]);
        }
    }
    print_table(
        "Fig. 11 — mean training time",
        &["dataset", "model", "train time"],
        &rows11,
    );

    // Fig. 12 aggregate: mean completion time per dataset × mode.
    let mut rows12 = Vec::new();
    for dataset in ["Housing", "Movies"] {
        for class in ["AR", "SSAR"] {
            let t: Vec<f64> = cells
                .iter()
                .filter(|c| {
                    c.dataset == dataset
                        && c.model_class == class
                        && c.completion_seconds.is_finite()
                })
                .map(|c| c.completion_seconds)
                .collect();
            let tn: Vec<f64> = cells
                .iter()
                .filter(|c| {
                    c.dataset == dataset
                        && c.model_class == class
                        && c.completion_nn_seconds.is_finite()
                })
                .map(|c| c.completion_nn_seconds)
                .collect();
            rows12.push(vec![
                dataset.to_string(),
                class.to_string(),
                secs(mean(&t)),
                format!("{} (+NN replacement)", secs(mean(&tn))),
            ]);
        }
    }
    print_table(
        "Fig. 12 — mean completion time per path",
        &["dataset", "model", "complete", "complete + NN"],
        &rows12,
    );
}
