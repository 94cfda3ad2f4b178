//! Completion confidence (§6): how sure is ReStore about its synthesized
//! data? This example sweeps the predictability of the synthetic Exp. 1
//! dataset and shows the 95% confidence intervals tightening as the
//! evidence gets stronger (the behaviour of Fig. 6).
//!
//! ```sh
//! cargo run --release --example confidence_intervals
//! ```

use restore::core::{ConfidenceQuery, ReStore, RestoreConfig};
use restore::data::{apply_removal, generate_synthetic, BiasSpec, RemovalConfig, SyntheticConfig};

fn main() {
    println!("count-query CI for the most-biased attribute value (keep 40%, corr 60%)\n");
    println!(
        "{:>14} {:>22} {:>10} {:>22} {:>8}",
        "predictability", "95% CI", "truth", "theoretical bounds", "covered"
    );
    for predictability in [0.25, 0.5, 0.75, 1.0] {
        let db = generate_synthetic(
            &SyntheticConfig {
                n_parent: 300,
                predictability,
                ..Default::default()
            },
            13,
        );
        let mut removal = RemovalConfig::new(BiasSpec::categorical("tb", "b"), 0.4, 0.6);
        removal.seed = 13;
        let sc = apply_removal(&db, &removal);
        let value = sc.bias_value.clone().unwrap();

        // True fraction of the biased value on the complete data.
        let t = sc.complete.table("tb").unwrap();
        let idx = t.resolve("b").unwrap();
        let truth = (0..t.n_rows())
            .filter(|&r| t.value(r, idx).to_string() == value)
            .count() as f64
            / t.n_rows() as f64;

        let mut restore = ReStore::new(sc.incomplete.clone(), RestoreConfig::default());
        restore.mark_incomplete("tb");
        let tables = ["tb".to_string()];
        restore
            .ensure_query_models(&tables, 13)
            .expect("query models");
        let ci = restore
            .seal(13)
            .confidence(
                &tables,
                &ConfidenceQuery::CountFraction {
                    table: "tb".into(),
                    column: "b".into(),
                    value: value.clone(),
                },
                0.95,
                13,
            )
            .expect("confidence interval");
        let (tmin, tmax) = ci.theoretical.unwrap();
        let covered = ci.lo <= truth && truth <= ci.hi;
        println!(
            "{:>13.0}% {:>10.1}% – {:>6.1}% {:>9.1}% {:>10.1}% – {:>6.1}% {:>8}",
            predictability * 100.0,
            ci.lo * 100.0,
            ci.hi * 100.0,
            truth * 100.0,
            tmin * 100.0,
            tmax * 100.0,
            if covered { "yes" } else { "NO" },
        );
    }
    println!("\nHigher predictability ⇒ more certain completions ⇒ tighter intervals (Fig. 6).");
}
