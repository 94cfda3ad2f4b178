//! The data-integration scenario of §2.3: two regional housing databases
//! are merged — US (West) ships complete landlord/neighborhood/apartment
//! data, US (East) ships only landlords and neighborhoods. In the merged
//! database every eastern apartment is missing; ReStore uses the western
//! apartments as evidence to synthesize the eastern housing market.
//!
//! ```sh
//! cargo run --release --example data_integration
//! ```

use restore::core::{ReStore, RestoreConfig};
use restore::data::housing::{generate_housing, HousingConfig};
use restore::db::{execute, Agg, Database, Expr, Query};

fn main() {
    // One "national" ground truth; the merged warehouse lost all apartments
    // whose neighborhood lies in an eastern state (odd state index).
    let national = generate_housing(&HousingConfig::scaled(0.3), 99);
    let east = |state: &str| {
        state[1..]
            .parse::<u32>()
            .map(|s| s % 2 == 1)
            .unwrap_or(false)
    };

    let mut merged: Database = national.clone();
    let hoods = national.table("neighborhood").unwrap();
    let eastern_hoods: std::collections::HashSet<i64> = (0..hoods.n_rows())
        .filter(|&r| east(hoods.value(r, 1).as_str().unwrap()))
        .map(|r| hoods.value(r, 0).as_i64().unwrap())
        .collect();
    let apartments = national.table("apartment").unwrap();
    let keep: Vec<bool> = (0..apartments.n_rows())
        .map(|r| !eastern_hoods.contains(&apartments.value(r, 1).as_i64().unwrap()))
        .collect();
    let kept = keep.iter().filter(|&&k| k).count();
    merged.replace_table(apartments.filter(&keep));
    println!(
        "merged database: {} of {} apartments (all eastern listings missing)",
        kept,
        apartments.n_rows()
    );

    // ReStore: neighborhoods are complete evidence for the missing side.
    let mut restore = ReStore::new(merged.clone(), RestoreConfig::default());
    restore.mark_incomplete("apartment");
    restore.train(99).expect("training");

    // Rough understanding of the eastern market (never observed!).
    let eastern_filter = |q: Query| {
        // S01, S03, ... are eastern states.
        let mut pred: Option<Expr> = None;
        for s in (1..12).step_by(2) {
            let e = Expr::col("state").eq(Expr::lit(format!("S{s:02}").as_str()));
            pred = Some(match pred {
                Some(p) => p.or(e),
                None => e,
            });
        }
        q.filter(pred.unwrap())
    };
    let query = eastern_filter(Query::new(["neighborhood", "apartment"]))
        .aggregate(Agg::CountStar)
        .aggregate(Agg::Avg("price".into()));

    let truth = execute(&national, &query).unwrap();
    restore
        .ensure_query_models(&query.tables, 99)
        .expect("query models");
    let snapshot = restore.seal(99);
    let incomplete = snapshot.execute_without_completion(&query).unwrap();
    let completed = snapshot.execute(&query, 99).unwrap();

    let row = |r: &restore::db::QueryResult| {
        (
            r.table.value(0, 0).as_f64().unwrap_or(0.0),
            r.table.value(0, 1).as_f64().unwrap_or(f64::NAN),
        )
    };
    let (tc, ta) = row(&truth);
    let (ic, ia) = row(&incomplete);
    let (cc, ca) = row(&completed);
    println!("\neastern apartments: COUNT / AVG(price)");
    println!("  true      : {tc:6.0} / {ta:7.0}");
    println!("  merged db : {ic:6.0} / {ia:7.0}   (the east looks empty!)");
    println!("  ReStore   : {cc:6.0} / {ca:7.0}");
    assert!(ic == 0.0, "merged database has no eastern apartments");
    assert!(cc > 0.0, "ReStore must synthesize the eastern market");
    println!(
        "\nReStore synthesized an eastern market within {:.1}% of the true count.",
        100.0 * (cc - tc).abs() / tc
    );
}
