//! The completion setups of Fig. 4c: H1–H5 on the housing dataset and
//! M1–M5 on the movies dataset, each naming the biased attribute and the
//! tables that stay complete.

use crate::housing::{generate_housing, HousingConfig};
use crate::movies::{generate_movies, MoviesConfig};
use crate::removal::{apply_removal, BiasSpec, RemovalConfig, Scenario};

/// Which real-world dataset a setup uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DatasetKind {
    Housing,
    Movies,
}

/// One completion setup row of Fig. 4c.
#[derive(Clone, Debug)]
pub struct Setup {
    pub id: &'static str,
    pub dataset: DatasetKind,
    /// Biased attribute (table, column, categorical/continuous).
    pub bias: BiasSpec,
    /// Share of tuple factors kept (30% housing, 20% movies per Fig. 4c).
    pub tf_keep_rate: f64,
    /// Extra uniform removals (M4/M5 drop 20% of movies).
    pub extra_removals: Vec<(&'static str, f64)>,
    /// Link tables whose dangling rows are removed (movies only).
    pub cascade: Vec<&'static str>,
}

const MOVIE_LINKS: [&str; 3] = ["movie_company", "movie_actor", "movie_director"];

/// The five housing setups H1–H5 (Fig. 4c, upper block).
pub(crate) fn housing_setups() -> Vec<Setup> {
    let mk = |id, bias| Setup {
        id,
        dataset: DatasetKind::Housing,
        bias,
        tf_keep_rate: 0.3,
        extra_removals: vec![],
        cascade: vec![],
    };
    vec![
        mk("H1", BiasSpec::continuous("apartment", "price")),
        mk("H2", BiasSpec::categorical("apartment", "room_type")),
        mk("H3", BiasSpec::categorical("apartment", "property_type")),
        mk("H4", BiasSpec::continuous("landlord", "landlord_since")),
        mk(
            "H5",
            BiasSpec::continuous("landlord", "landlord_response_rate"),
        ),
    ]
}

/// The five movies setups M1–M5 (Fig. 4c, lower block).
pub(crate) fn movie_setups() -> Vec<Setup> {
    let mk = |id, bias, extra: Vec<(&'static str, f64)>| Setup {
        id,
        dataset: DatasetKind::Movies,
        bias,
        tf_keep_rate: 0.2,
        extra_removals: extra,
        cascade: MOVIE_LINKS.to_vec(),
    };
    vec![
        mk(
            "M1",
            BiasSpec::continuous("movie", "production_year"),
            vec![],
        ),
        mk("M2", BiasSpec::categorical("movie", "genre"), vec![]),
        mk("M3", BiasSpec::categorical("movie", "country"), vec![]),
        mk(
            "M4",
            BiasSpec::continuous("director", "birth_year"),
            vec![("movie", 0.8)],
        ),
        mk(
            "M5",
            BiasSpec::categorical("company", "country_code"),
            vec![("movie", 0.8)],
        ),
    ]
}

/// All ten setups in paper order.
pub fn all_setups() -> Vec<Setup> {
    let mut v = housing_setups();
    v.extend(movie_setups());
    v
}

/// Looks a setup up by id (`"H1"`…`"M5"`).
pub fn setup_by_id(id: &str) -> Option<Setup> {
    all_setups().into_iter().find(|s| s.id == id)
}

/// Builds the complete database for a setup at the given scale and applies
/// the biased removal with the swept `keep_rate` / `removal_correlation`.
pub fn build_scenario(
    setup: &Setup,
    keep_rate: f64,
    removal_correlation: f64,
    scale: f64,
    seed: u64,
) -> Scenario {
    let complete = match setup.dataset {
        DatasetKind::Housing => generate_housing(&HousingConfig::scaled(scale), seed),
        DatasetKind::Movies => generate_movies(&MoviesConfig::scaled(scale), seed),
    };
    let cfg = RemovalConfig {
        bias: setup.bias.clone(),
        keep_rate,
        removal_correlation,
        tf_keep_rate: setup.tf_keep_rate,
        extra_removals: setup
            .extra_removals
            .iter()
            .map(|(t, k)| (t.to_string(), *k))
            .collect(),
        cascade: setup.cascade.iter().map(|c| c.to_string()).collect(),
        seed: seed ^ 0x7a3f,
    };
    apply_removal(&complete, &cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_setups_matching_figure_4c() {
        let setups = all_setups();
        assert_eq!(setups.len(), 10);
        assert_eq!(setups[0].id, "H1");
        assert_eq!(setups[9].id, "M5");
        assert!(housing_setups()
            .iter()
            .all(|s| (s.tf_keep_rate - 0.3).abs() < 1e-9));
        assert!(movie_setups()
            .iter()
            .all(|s| (s.tf_keep_rate - 0.2).abs() < 1e-9));
    }

    #[test]
    fn h1_scenario_removes_apartments_only() {
        let sc = build_scenario(&setup_by_id("H1").unwrap(), 0.5, 0.5, 0.15, 3);
        assert_eq!(sc.incomplete_tables, vec!["apartment".to_string()]);
        let before = sc.complete.table("apartment").unwrap().n_rows();
        let after = sc.incomplete.table("apartment").unwrap().n_rows();
        assert_eq!(after, (before as f64 * 0.5).round() as usize);
        assert_eq!(
            sc.complete.table("landlord").unwrap().n_rows(),
            sc.incomplete.table("landlord").unwrap().n_rows()
        );
    }

    #[test]
    fn h1_bias_lowers_average_price() {
        let sc = build_scenario(&setup_by_id("H1").unwrap(), 0.4, 0.8, 0.15, 4);
        let before = sc
            .complete
            .table("apartment")
            .unwrap()
            .column_by_name("price")
            .unwrap()
            .mean()
            .unwrap();
        let after = sc
            .incomplete
            .table("apartment")
            .unwrap()
            .column_by_name("price")
            .unwrap()
            .mean()
            .unwrap();
        assert!(
            after < before,
            "continuous bias must lower the mean: {before} -> {after}"
        );
    }

    #[test]
    fn m4_also_removes_movies_and_cascades_links() {
        let sc = build_scenario(&setup_by_id("M4").unwrap(), 0.5, 0.5, 0.15, 5);
        assert!(sc.incomplete_tables.contains(&"director".to_string()));
        assert!(sc.incomplete_tables.contains(&"movie".to_string()));
        assert!(sc.incomplete_tables.contains(&"movie_director".to_string()));
        let mb = sc.complete.table("movie").unwrap().n_rows();
        let ma = sc.incomplete.table("movie").unwrap().n_rows();
        assert_eq!(ma, (mb as f64 * 0.8).round() as usize);
    }

    #[test]
    fn tf_columns_exist_on_parents() {
        let sc = build_scenario(&setup_by_id("H1").unwrap(), 0.5, 0.5, 0.15, 6);
        let n = sc.incomplete.table("neighborhood").unwrap();
        assert!(
            n.resolve("__tf_apartment").is_ok(),
            "neighborhood must carry TF metadata"
        );
        let l = sc.incomplete.table("landlord").unwrap();
        assert!(
            l.resolve("__tf_apartment").is_ok(),
            "landlord must carry TF metadata"
        );
    }

    #[test]
    fn m2_bias_value_is_most_frequent_genre() {
        let sc = build_scenario(&setup_by_id("M2").unwrap(), 0.6, 0.6, 0.15, 7);
        assert!(sc.bias_value.is_some());
        // The biased value must be depleted in the incomplete data.
        let v = sc.bias_value.clone().unwrap();
        let frac = |db: &restore_db::Database| {
            let t = db.table("movie").unwrap();
            let idx = t.resolve("genre").unwrap();
            (0..t.n_rows())
                .filter(|&r| t.value(r, idx).to_string() == v)
                .count() as f64
                / t.n_rows() as f64
        };
        assert!(frac(&sc.incomplete) < frac(&sc.complete));
    }
}
