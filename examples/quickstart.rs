//! Quickstart: the Fig. 1 walkthrough of the paper on a generated housing
//! database — annotate the schema, train completion models, and compare an
//! aggregate query on incomplete vs completed vs true data.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use restore::core::{ReStore, RestoreConfig};
use restore::data::housing::{generate_housing, HousingConfig};
use restore::data::{apply_removal, BiasSpec, RemovalConfig};
use restore::db::{execute, Agg, Expr, Query};

fn main() {
    // 1. A complete housing database (neighborhood / landlord / apartment,
    //    Fig. 4a) — in reality this would be loaded from your warehouse.
    let complete = generate_housing(&HousingConfig::scaled(0.25), 42);

    // 2. Make it incomplete the way the paper's H1 setup does: expensive
    //    apartments are systematically missing (e.g. landlords in rich
    //    neighborhoods don't publish listings), keeping 40% of tuples.
    let mut removal = RemovalConfig::new(BiasSpec::continuous("apartment", "price"), 0.4, 0.7);
    removal.tf_keep_rate = 0.3; // 30% of neighborhoods know their apartment count
    removal.seed = 42;
    let scenario = apply_removal(&complete, &removal);

    // 3. Annotate (§2.2 step 1): tell ReStore which table is incomplete.
    let mut restore = ReStore::new(scenario.incomplete.clone(), RestoreConfig::default());
    restore.mark_incomplete("apartment");

    // 4. Train the completion models (§3).
    restore.train(42).expect("training");
    let m = restore
        .selected_model("apartment")
        .expect("a selected model");
    println!(
        "trained {} model for `apartment` via {} ({} params, {:.1}s, held-out NLL {:.3})",
        if m.is_ssar() { "SSAR" } else { "AR" },
        m.path().describe(),
        m.params().num_scalars(),
        m.train_seconds,
        m.target_val_loss(),
    );

    // 5. Ask for the total price volume of entire homes — a query whose
    //    answer the biased removal corrupted (the paper's Q1).
    let query = Query::new(["apartment"])
        .filter(Expr::col("room_type").eq(Expr::lit("Entire home/apt")))
        .aggregate(Agg::Sum("price".into()));

    // 6. Train what the query needs beyond step 4, seal the build into an
    //    immutable snapshot, and serve: only a snapshot answers queries.
    restore
        .ensure_query_models(&query.tables, 42)
        .expect("query models");
    let snapshot = restore.seal(42);

    let truth = execute(&complete, &query).unwrap().scalar().unwrap();
    let incomplete = snapshot
        .execute_without_completion(&query)
        .unwrap()
        .scalar()
        .unwrap();
    let completed = snapshot.execute(&query, 42).unwrap().scalar().unwrap();

    println!("\nSELECT SUM(price) FROM apartment WHERE room_type='Entire home/apt'");
    println!("  true (complete) answer : {truth:9.2}");
    println!(
        "  on incomplete data     : {incomplete:9.2}  (rel. err {:5.2}%)",
        rel(incomplete, truth)
    );
    println!(
        "  after ReStore          : {completed:9.2}  (rel. err {:5.2}%)",
        rel(completed, truth)
    );
    assert!(
        (completed - truth).abs() < (incomplete - truth).abs(),
        "completion should move the answer towards the truth"
    );
    println!(
        "\nReStore recovered {:.0}% of the bias.",
        100.0 * (1.0 - (completed - truth).abs() / (incomplete - truth).abs())
    );
}

fn rel(est: f64, truth: f64) -> f64 {
    100.0 * (est - truth).abs() / truth.abs()
}
