//! The paper's running example (§1): a housing database where apartment
//! data for some states is missing *systematically* — most data comes from
//! dense, expensive states, biasing every rent statistic. ReStore debiases
//! group-by queries and reports completion confidence intervals (§6).
//!
//! ```sh
//! cargo run --release --example housing_market
//! ```

use restore::core::{ConfidenceQuery, ReStore, RestoreConfig};
use restore::data::housing::{generate_housing, HousingConfig};
use restore::data::{apply_removal, BiasSpec, RemovalConfig};
use restore::db::{execute, Agg, Query};

fn main() {
    let complete = generate_housing(&HousingConfig::scaled(0.3), 7);

    // Apartments disappear in proportion to pop-density-driven prices: the
    // dataset keeps mostly cheap, rural listings (keep 35%, correlation 0.8).
    let mut removal = RemovalConfig::new(BiasSpec::continuous("apartment", "price"), 0.35, 0.8);
    removal.tf_keep_rate = 0.3;
    removal.seed = 7;
    let scenario = apply_removal(&complete, &removal);

    let mut restore = ReStore::new(scenario.incomplete.clone(), RestoreConfig::default());
    restore.mark_incomplete("apartment");
    restore.train(7).expect("training");

    // Listings and average rent per state (Fig. 1c) — the decision query.
    let query = Query::new(["neighborhood", "apartment"])
        .group_by(["state"])
        .aggregate(Agg::CountStar)
        .aggregate(Agg::Avg("price".into()));
    // Train what the two questions below need, then seal and serve.
    let apartment = ["apartment".to_string()];
    for tables in [&query.tables[..], &apartment[..]] {
        restore
            .ensure_query_models(tables, 7)
            .expect("query models");
    }
    let snapshot = restore.seal(7);
    let truth = execute(&complete, &query).unwrap().groups();
    let incomplete = snapshot
        .execute_without_completion(&query)
        .unwrap()
        .groups();
    let completed = snapshot.execute(&query, 7).unwrap().groups();

    println!(
        "SELECT COUNT(*), AVG(price) FROM neighborhood NATURAL JOIN apartment GROUP BY state;\n"
    );
    println!(
        "{:<6} {:>13} {:>17} {:>16}",
        "state", "true cnt/avg", "incomplete", "completed"
    );
    let mut err_inc = 0.0;
    let mut err_comp = 0.0;
    for (state, t) in &truth {
        let i = incomplete
            .get(state)
            .cloned()
            .unwrap_or(vec![0.0, f64::NAN]);
        let c = completed.get(state).cloned().unwrap_or(vec![0.0, f64::NAN]);
        println!(
            "{:<6} {:>6.0}/{:>6.0} {:>9.0}/{:>7.0} {:>8.0}/{:>7.0}",
            state[0], t[0], t[1], i[0], i[1], c[0], c[1]
        );
        err_inc += ((i[0] - t[0]) / t[0]).abs();
        err_comp += ((c[0] - t[0]) / t[0]).abs();
    }
    let n = truth.len() as f64;
    println!(
        "\nmean relative COUNT error: incomplete {:.1}% → completed {:.1}%",
        100.0 * err_inc / n,
        100.0 * err_comp / n
    );

    // How sure is the model about the completed average rent? (§6)
    let ci = snapshot
        .confidence(
            &apartment,
            &ConfidenceQuery::Avg {
                table: "apartment".into(),
                column: "price".into(),
            },
            0.95,
            7,
        )
        .expect("confidence interval");
    let truth_avg = execute(
        &complete,
        &Query::new(["apartment"]).aggregate(Agg::Avg("price".into())),
    )
    .unwrap()
    .scalar()
    .unwrap();
    println!(
        "\n95% confidence interval for AVG(price): [{:.0}, {:.0}] (estimate {:.0}, truth {:.0})",
        ci.lo, ci.hi, ci.estimate, truth_avg
    );
}
