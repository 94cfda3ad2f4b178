//! Regenerates **Fig. 5a** (bias reductions on synthetic data, upper row:
//! predictability panels, lower row: skew panels) and **Fig. 5b** (training
//! loss vs predictability).

use restore_eval::{mean, parse_args, pct, print_table, run_exp1, save_json, Exp1Config};

fn main() {
    let args = parse_args();
    let mut cfg = Exp1Config {
        keeps: args.keeps.clone(),
        corrs: args.corrs.clone(),
        seed: args.seed,
        ..Default::default()
    };
    if args.quick {
        cfg.predictabilities = vec![0.2, 0.6, 1.0];
        cfg.zipfs = vec![1.0, 2.0, 3.0];
    }
    let cells = run_exp1(&cfg);
    save_json("fig5a_exp1_bias", &cells);

    // Fig. 5a — one table per panel: rows = keep rate, cols = removal corr.
    let panels: Vec<String> = {
        let mut p: Vec<String> = cells.iter().map(|c| c.panel.clone()).collect();
        p.dedup();
        p
    };
    for panel in &panels {
        let mut rows = Vec::new();
        for &k in &cfg.keeps {
            let mut row = vec![format!("keep {}", pct(k))];
            for &c in &cfg.corrs {
                let br = cells
                    .iter()
                    .find(|x| &x.panel == panel && x.keep_rate == k && x.removal_correlation == c)
                    .map(|x| x.bias_reduction)
                    .unwrap_or(f64::NAN);
                row.push(pct(br));
            }
            rows.push(row);
        }
        let mut headers = vec!["bias reduction".to_string()];
        headers.extend(cfg.corrs.iter().map(|c| format!("corr {}", pct(*c))));
        let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
        print_table(&format!("Fig. 5a — {panel}"), &headers_ref, &rows);
    }

    // Fig. 5b — mean val loss per predictability (the §5 selection signal).
    let mut rows = Vec::new();
    for &p in &cfg.predictabilities {
        let losses: Vec<f64> = cells
            .iter()
            .filter(|c| c.panel == format!("predictability={p}") && c.val_loss.is_finite())
            .map(|c| c.val_loss as f64)
            .collect();
        let brs: Vec<f64> = cells
            .iter()
            .filter(|c| c.panel == format!("predictability={p}") && c.bias_reduction.is_finite())
            .map(|c| c.bias_reduction)
            .collect();
        rows.push(vec![
            format!("{}", pct(p)),
            format!("{:.3}", mean(&losses)),
            pct(mean(&brs)),
        ]);
    }
    print_table(
        "Fig. 5b — test loss vs predictability",
        &["predictability", "target NLL", "mean bias reduction"],
        &rows,
    );
}
