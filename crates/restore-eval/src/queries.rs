//! The query workload of Table 1: ten queries per dataset with joins,
//! filter predicates, aggregations and groupings, each tied to a
//! completion setup (Q1/Q6 → H1/M1, Q2/Q7 → H2/M2, …).

use restore_db::{Agg, Expr, Query};

/// A Table 1 workload entry.
#[derive(Clone, Debug)]
pub struct WorkloadQuery {
    /// `Q1` … `Q10`.
    pub id: &'static str,
    /// The setup it is evaluated under (`H1`…`H5` / `M1`…`M5`).
    pub setup: &'static str,
    /// Human-readable SQL (documentation only; `query` is the executable).
    pub sql: &'static str,
    pub query: Query,
}

/// The ten housing queries of Table 1.
pub(crate) fn housing_queries() -> Vec<WorkloadQuery> {
    let entire = || Expr::col("room_type").eq(Expr::lit("Entire home/apt"));
    vec![
        WorkloadQuery {
            id: "Q1",
            setup: "H1",
            sql: "SELECT SUM(price) FROM apartment WHERE room_type='Entire home/apt'",
            query: Query::new(["apartment"]).filter(entire()).aggregate(Agg::Sum("price".into())),
        },
        WorkloadQuery {
            id: "Q2",
            setup: "H2",
            sql: "SELECT COUNT(*) FROM apartment WHERE room_type='Entire home/apt' AND property_type='House' GROUP BY property_type",
            query: Query::new(["apartment"])
                .filter(entire().and(Expr::col("property_type").eq(Expr::lit("House"))))
                .group_by(["property_type"])
                .aggregate(Agg::CountStar),
        },
        WorkloadQuery {
            id: "Q3",
            setup: "H3",
            sql: "SELECT COUNT(*) FROM apartment WHERE property_type='House'",
            query: Query::new(["apartment"])
                .filter(Expr::col("property_type").eq(Expr::lit("House")))
                .aggregate(Agg::CountStar),
        },
        WorkloadQuery {
            id: "Q4",
            setup: "H4",
            sql: "SELECT COUNT(*) FROM landlord WHERE landlord_since >= 2011",
            query: Query::new(["landlord"])
                .filter(Expr::col("landlord_since").ge(Expr::lit(2011i64)))
                .aggregate(Agg::CountStar),
        },
        WorkloadQuery {
            id: "Q5",
            setup: "H5",
            sql: "SELECT AVG(landlord_response_rate) FROM landlord WHERE landlord_response_time >= 2",
            query: Query::new(["landlord"])
                .filter(Expr::col("landlord_response_time").ge(Expr::lit(2i64)))
                .aggregate(Agg::Avg("landlord_response_rate".into())),
        },
        WorkloadQuery {
            id: "Q6",
            setup: "H1",
            sql: "SELECT AVG(price) FROM landlord NATURAL JOIN apartment WHERE room_type='Entire home/apt' GROUP BY landlord_since",
            query: Query::new(["landlord", "apartment"])
                .filter(entire())
                .group_by(["landlord_since"])
                .aggregate(Agg::Avg("price".into())),
        },
        WorkloadQuery {
            id: "Q7",
            setup: "H2",
            sql: "SELECT COUNT(*) FROM landlord NATURAL JOIN apartment WHERE accommodates >= 3 GROUP BY landlord_since",
            query: Query::new(["landlord", "apartment"])
                .filter(Expr::col("accommodates").ge(Expr::lit(3i64)))
                .group_by(["landlord_since"])
                .aggregate(Agg::CountStar),
        },
        WorkloadQuery {
            id: "Q8",
            setup: "H3",
            sql: "SELECT COUNT(*) FROM landlord NATURAL JOIN apartment WHERE landlord_since >= 2013 GROUP BY landlord_since",
            query: Query::new(["landlord", "apartment"])
                .filter(Expr::col("landlord_since").ge(Expr::lit(2013i64)))
                .group_by(["landlord_since"])
                .aggregate(Agg::CountStar),
        },
        WorkloadQuery {
            id: "Q9",
            setup: "H4",
            sql: "SELECT SUM(landlord_since) FROM landlord NATURAL JOIN apartment WHERE room_type='Entire home/apt' AND landlord_response_time >= 2",
            query: Query::new(["landlord", "apartment"])
                .filter(entire().and(Expr::col("landlord_response_time").ge(Expr::lit(2i64))))
                .aggregate(Agg::Sum("landlord_since".into())),
        },
        WorkloadQuery {
            id: "Q10",
            setup: "H5",
            sql: "SELECT AVG(landlord_response_rate) FROM landlord NATURAL JOIN apartment WHERE room_type='Entire home/apt' AND landlord_response_time >= 2",
            query: Query::new(["landlord", "apartment"])
                .filter(entire().and(Expr::col("landlord_response_time").ge(Expr::lit(2i64))))
                .aggregate(Agg::Avg("landlord_response_rate".into())),
        },
    ]
}

/// The ten movie queries of Table 1.
pub(crate) fn movie_queries() -> Vec<WorkloadQuery> {
    vec![
        WorkloadQuery {
            id: "Q1",
            setup: "M1",
            sql: "SELECT COUNT(*) FROM movie GROUP BY production_year",
            query: Query::new(["movie"]).group_by(["production_year"]).aggregate(Agg::CountStar),
        },
        WorkloadQuery {
            id: "Q2",
            setup: "M2",
            sql: "SELECT COUNT(*) FROM movie WHERE genre='Drama' GROUP BY production_year",
            query: Query::new(["movie"])
                .filter(Expr::col("genre").eq(Expr::lit("Drama")))
                .group_by(["production_year"])
                .aggregate(Agg::CountStar),
        },
        WorkloadQuery {
            id: "Q3",
            setup: "M3",
            sql: "SELECT COUNT(*) FROM movie WHERE genre='Drama' GROUP BY country",
            query: Query::new(["movie"])
                .filter(Expr::col("genre").eq(Expr::lit("Drama")))
                .group_by(["country"])
                .aggregate(Agg::CountStar),
        },
        WorkloadQuery {
            id: "Q4",
            setup: "M4",
            sql: "SELECT AVG(birth_year) FROM director WHERE gender='m'",
            query: Query::new(["director"])
                .filter(Expr::col("gender").eq(Expr::lit("m")))
                .aggregate(Agg::Avg("birth_year".into())),
        },
        WorkloadQuery {
            id: "Q5",
            setup: "M5",
            sql: "SELECT COUNT(*) FROM company WHERE country_code='[us]'",
            query: Query::new(["company"])
                .filter(Expr::col("country_code").eq(Expr::lit("[us]")))
                .aggregate(Agg::CountStar),
        },
        WorkloadQuery {
            id: "Q6",
            setup: "M1",
            sql: "SELECT SUM(production_year) FROM movie NATURAL JOIN movie_director NATURAL JOIN director WHERE birth_country='USA' GROUP BY production_year",
            query: Query::new(["movie", "movie_director", "director"])
                .filter(Expr::col("birth_country").eq(Expr::lit("USA")))
                .group_by(["production_year"])
                .aggregate(Agg::Sum("production_year".into())),
        },
        WorkloadQuery {
            id: "Q7",
            setup: "M2",
            sql: "SELECT COUNT(*) FROM movie NATURAL JOIN movie_company NATURAL JOIN company GROUP BY country_code",
            query: Query::new(["movie", "movie_company", "company"])
                .group_by(["country_code"])
                .aggregate(Agg::CountStar),
        },
        WorkloadQuery {
            id: "Q8",
            setup: "M3",
            sql: "SELECT COUNT(*) FROM movie NATURAL JOIN company NATURAL JOIN movie_companies WHERE country_code='[us]' GROUP BY production_year",
            query: Query::new(["movie", "movie_company", "company"])
                .filter(Expr::col("country_code").eq(Expr::lit("[us]")))
                .group_by(["production_year"])
                .aggregate(Agg::CountStar),
        },
        WorkloadQuery {
            id: "Q9",
            setup: "M4",
            sql: "SELECT COUNT(*) FROM movie NATURAL JOIN movie_director NATURAL JOIN director WHERE gender='m'",
            query: Query::new(["movie", "movie_director", "director"])
                .filter(Expr::col("gender").eq(Expr::lit("m")))
                .aggregate(Agg::CountStar),
        },
        WorkloadQuery {
            id: "Q10",
            setup: "M5",
            sql: "SELECT COUNT(*) FROM movie NATURAL JOIN company NATURAL JOIN movie_companies WHERE country_code='[us]' GROUP BY country",
            query: Query::new(["movie", "movie_company", "company"])
                .filter(Expr::col("country_code").eq(Expr::lit("[us]")))
                .group_by(["country"])
                .aggregate(Agg::CountStar),
        },
    ]
}

/// Queries evaluated under a given setup id.
pub fn queries_for_setup(setup: &str) -> Vec<WorkloadQuery> {
    let all = if setup.starts_with('H') {
        housing_queries()
    } else {
        movie_queries()
    };
    all.into_iter().filter(|q| q.setup == setup).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_queries_per_dataset() {
        assert_eq!(housing_queries().len(), 10);
        assert_eq!(movie_queries().len(), 10);
    }

    #[test]
    fn each_setup_gets_two_queries() {
        for s in ["H1", "H2", "H3", "H4", "H5", "M1", "M2", "M3", "M4", "M5"] {
            assert_eq!(queries_for_setup(s).len(), 2, "setup {s}");
        }
    }

    #[test]
    fn housing_queries_execute_on_complete_data() {
        let db = restore_data::housing::generate_housing(
            &restore_data::housing::HousingConfig::scaled(0.2),
            1,
        );
        for wq in housing_queries() {
            let res = restore_db::execute(&db, &wq.query);
            assert!(res.is_ok(), "{} failed: {:?}", wq.id, res.err());
        }
    }

    #[test]
    fn movie_queries_execute_on_complete_data() {
        let db = restore_data::generate_movies(&restore_data::MoviesConfig::scaled(0.2), 1);
        for wq in movie_queries() {
            let res = restore_db::execute(&db, &wq.query);
            assert!(res.is_ok(), "{} failed: {:?}", wq.id, res.err());
        }
    }
}
