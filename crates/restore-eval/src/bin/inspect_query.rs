//! Diagnostic tool: runs one Table 1 query under its setup and prints the
//! true / incomplete / completed results side by side.
//!
//! `inspect_query --setup=H2 --query=Q7 [--keep=0.4] [--corr=0.6] [--scale=0.2] [--seed=7]`

use restore_core::{ReStore, RestoreConfig, SelectionStrategy};
use restore_data::{build_scenario, setup_by_id};
use restore_eval::{eval_train_config, queries_for_setup, query_error};

fn main() {
    let mut setup_id = "H1".to_string();
    let mut query_id = "Q1".to_string();
    let (mut keep, mut corr, mut scale, mut seed) = (0.4f64, 0.6f64, 0.2f64, 7u64);
    for arg in std::env::args().skip(1) {
        if let Some((k, v)) = arg.split_once('=') {
            match k {
                "--setup" => setup_id = v.to_string(),
                "--query" => query_id = v.to_string(),
                "--keep" => keep = v.parse().unwrap(),
                "--corr" => corr = v.parse().unwrap(),
                "--scale" => scale = v.parse().unwrap(),
                "--seed" => seed = v.parse().unwrap(),
                _ => {}
            }
        }
    }
    let setup = setup_by_id(&setup_id).expect("setup id");
    let wq = queries_for_setup(&setup_id)
        .into_iter()
        .find(|q| q.id == query_id)
        .expect("query id for setup");
    println!("setup {setup_id}, {query_id}: {}", wq.sql);

    let sc = build_scenario(&setup, keep, corr, scale, seed);
    let cfg = RestoreConfig {
        train: eval_train_config(),
        strategy: SelectionStrategy::BestValLoss,
        max_candidates: 3,
        ..RestoreConfig::default()
    };
    let mut rs = ReStore::new(sc.incomplete.clone(), cfg);
    for t in &sc.incomplete_tables {
        rs.mark_incomplete(t.clone());
        println!(
            "incomplete table: {t} ({} of {} rows kept)",
            sc.incomplete.table(t).unwrap().n_rows(),
            sc.complete.table(t).unwrap().n_rows()
        );
    }

    let truth = restore_db::execute(&sc.complete, &wq.query).unwrap();
    // Train what the query needs, seal, and serve from the snapshot — the
    // same `&self` path a concurrent server uses.
    rs.ensure_query_models(&wq.query.tables, seed)
        .expect("ensure models");
    let rs = rs.seal(seed);
    let incomplete = rs.execute_without_completion(&wq.query).unwrap();
    let completed = rs.execute(&wq.query, seed).expect("completed execution");
    if let Some(m) = rs.selected_model(&sc.bias.table) {
        println!("selected path: {}", m.path().describe());
    }
    for model in rs.trained_models() {
        let per_attr: Vec<String> = model
            .attrs()
            .iter()
            .zip(&model.val_per_attr)
            .map(|(a, l)| format!("{}={:.3}", a.name(), l))
            .collect();
        println!("model {}: {}", model.path().describe(), per_attr.join(" "));
    }
    // The cache holds what the query drew; a chain's completion with every
    // column drawn shows no NULL where a column was left undrawn.
    for (chain, _) in rs.cached_completions() {
        let out = rs.complete_join(&chain).expect("complete the cached chain");
        println!(
            "completed chain {chain:?}: {} rows, {} with synthesized parts",
            out.join.n_rows(),
            out.n_synthesized()
        );
        let any = out.any_synthesized();
        let names: Vec<&str> = out.join.fields().iter().map(|f| f.name.as_str()).collect();
        println!("columns: {names:?}");
        let mut shown = 0;
        for (r, &is_syn) in any.iter().enumerate() {
            if is_syn && shown < 3 {
                println!(
                    "syn row {r}: {:?}",
                    out.join
                        .row(r)
                        .iter()
                        .map(|v| v.to_string())
                        .collect::<Vec<_>>()
                );
                shown += 1;
            }
        }
    }

    println!(
        "\n{:<24} {:>12} {:>12} {:>12}",
        "group", "truth", "incomplete", "completed"
    );
    if truth.group_cols == 0 {
        println!(
            "{:<24} {:>12.2} {:>12.2} {:>12.2}",
            "(scalar)",
            truth.scalar().unwrap_or(f64::NAN),
            incomplete.scalar().unwrap_or(f64::NAN),
            completed.scalar().unwrap_or(f64::NAN)
        );
    } else {
        let (t, i, c) = (truth.groups(), incomplete.groups(), completed.groups());
        for (k, tv) in &t {
            println!(
                "{:<24} {:>12.2} {:>12.2} {:>12.2}",
                k.join("|"),
                tv[0],
                i.get(k).map(|v| v[0]).unwrap_or(f64::NAN),
                c.get(k).map(|v| v[0]).unwrap_or(f64::NAN)
            );
        }
    }
    println!(
        "\nrel. error incomplete {:.4}, completed {:.4}, improvement {:+.4}",
        query_error(&truth, &incomplete),
        query_error(&truth, &completed),
        query_error(&truth, &incomplete) - query_error(&truth, &completed)
    );
}
