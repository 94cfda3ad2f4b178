//! Regenerates **Fig. 5c**: SSAR vs AR bias-reduction improvement as the
//! fan-out predictability (self-evidence coherence) grows.

use restore_eval::{parse_args, pct, print_table, run_exp1_fanout, save_json};

fn main() {
    let args = parse_args();
    let coherences: Vec<f64> = if args.quick {
        vec![0.25, 0.75, 1.0]
    } else {
        vec![0.2, 0.4, 0.6, 0.8, 1.0]
    };
    let cells = run_exp1_fanout(&coherences, 250, args.seed);
    save_json("fig5c_fanout", &cells);
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                pct(c.fanout_predictability),
                pct(c.ar_bias_reduction),
                pct(c.ssar_bias_reduction),
                pct(c.improvement),
            ]
        })
        .collect();
    print_table(
        "Fig. 5c — SSAR vs AR under fan-out predictability",
        &[
            "fan-out predictability",
            "AR bias red.",
            "SSAR bias red.",
            "SSAR - AR",
        ],
        &rows,
    );
}
