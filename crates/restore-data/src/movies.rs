//! The movies dataset (Fig. 4b) — a synthetic stand-in for the IMDB dump,
//! with the paper's modifications: `movie_info` merged into `movie` (genre,
//! rating) and the person relation split into `actor` and `director`.
//!
//! Planted correlations (what the completions exploit):
//!
//! * `movie.genre`/`movie.country`/`movie.production_year` are mutually
//!   correlated (genre mix shifts by country, production years shift by
//!   genre);
//! * directors are matched to movies by (country, era) buckets, so
//!   `director.birth_year ≈ production_year − 40` and
//!   `director.birth_country` tracks `movie.country` (setups M1, M4);
//! * companies are matched by country, so `company.country_code` tracks
//!   `movie.country` (setups M3, M5).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use restore_db::{DataType, Database, Field, ForeignKey, Table, Value};

use crate::zipf::Zipf;

/// Sizes of the generated movie database.
#[derive(Clone, Debug)]
pub struct MoviesConfig {
    n_movies: usize,
    n_directors: usize,
    n_actors: usize,
    n_companies: usize,
    /// Mean actors per movie (the paper's IMDB has a much larger fan-out;
    /// scaled down for laptop runtimes, ratios documented in DESIGN.md).
    actors_per_movie: usize,
}

impl MoviesConfig {
    pub(crate) fn small() -> Self {
        Self {
            n_movies: 2000,
            n_directors: 500,
            n_actors: 1500,
            n_companies: 300,
            actors_per_movie: 4,
        }
    }

    pub fn scaled(factor: f64) -> Self {
        let s = Self::small();
        Self {
            n_movies: ((s.n_movies as f64 * factor) as usize).max(50),
            n_directors: ((s.n_directors as f64 * factor) as usize).max(20),
            n_actors: ((s.n_actors as f64 * factor) as usize).max(30),
            n_companies: ((s.n_companies as f64 * factor) as usize).max(10),
            actors_per_movie: s.actors_per_movie,
        }
    }
}

impl Default for MoviesConfig {
    fn default() -> Self {
        Self::small()
    }
}

const COUNTRIES: [&str; 10] = [
    "USA", "UK", "Germany", "France", "India", "Japan", "Italy", "Spain", "Canada", "Brazil",
];
const COUNTRY_CODES: [&str; 10] = [
    "[us]", "[gb]", "[de]", "[fr]", "[in]", "[jp]", "[it]", "[es]", "[ca]", "[br]",
];
const GENRES: [&str; 8] = [
    "Drama",
    "Comedy",
    "Action",
    "Thriller",
    "Romance",
    "Documentary",
    "Horror",
    "Animation",
];
const COMPANY_TYPES: [&str; 2] = ["production companies", "distributors"];

/// Decade-level activity buckets: directors/actors are matched to movies
/// at this granularity, which is what makes production years predictable
/// from people evidence (the paper's completions rely on real-world data
/// being "largely correlated", §7.2).
fn period(year: i64) -> usize {
    (((year - 1950) / 10).clamp(0, 6)) as usize
}

/// Generates the movie database with the Fig. 4b star schema:
/// three entity tables around `movie` connected through m:n link tables.
pub fn generate_movies(cfg: &MoviesConfig, seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    let country_zipf = Zipf::new(COUNTRIES.len(), 1.2);

    // --- directors -----------------------------------------------------------
    let mut director = Table::new(
        "director",
        vec![
            Field::new("id", DataType::Int),
            Field::new("birth_year", DataType::Int),
            Field::new("gender", DataType::Str),
            Field::new("birth_country", DataType::Str),
        ],
    );
    // (country, activity period) -> director ids
    let mut director_buckets: Vec<Vec<Vec<usize>>> = vec![vec![Vec::new(); 7]; COUNTRIES.len()];
    let mut director_birth = Vec::with_capacity(cfg.n_directors);
    for id in 0..cfg.n_directors {
        let c = country_zipf.sample(&mut rng);
        let birth = 1935 + rng.random_range(0..55i64);
        let gender = if rng.random::<f64>() < 0.8 { "m" } else { "f" };
        director_birth.push(birth);
        // Active roughly 30–55 years after birth.
        for y in [birth + 32, birth + 42, birth + 52] {
            if (1950..=2020).contains(&y) {
                director_buckets[c][period(y)].push(id);
            }
        }
        director
            .push_row(&[
                Value::Int(id as i64),
                Value::Int(birth),
                Value::str(gender),
                Value::str(COUNTRIES[c]),
            ])
            .unwrap();
    }
    db.add_table(director);

    // --- actors --------------------------------------------------------------
    let mut actor = Table::new(
        "actor",
        vec![
            Field::new("id", DataType::Int),
            Field::new("birth_year", DataType::Int),
            Field::new("gender", DataType::Str),
        ],
    );
    let mut actor_buckets: Vec<Vec<usize>> = vec![Vec::new(); 7];
    for id in 0..cfg.n_actors {
        let birth = 1945 + rng.random_range(0..55i64);
        let gender = if rng.random::<f64>() < 0.55 { "m" } else { "f" };
        for y in [birth + 25, birth + 35, birth + 45] {
            if (1950..=2020).contains(&y) {
                actor_buckets[period(y)].push(id);
            }
        }
        actor
            .push_row(&[Value::Int(id as i64), Value::Int(birth), Value::str(gender)])
            .unwrap();
    }
    db.add_table(actor);

    // --- companies -----------------------------------------------------------
    let mut company = Table::new(
        "company",
        vec![
            Field::new("id", DataType::Int),
            Field::new("country_code", DataType::Str),
            Field::new("company_type", DataType::Str),
        ],
    );
    let mut company_buckets: Vec<Vec<usize>> = vec![Vec::new(); COUNTRIES.len()];
    for id in 0..cfg.n_companies {
        let c = country_zipf.sample(&mut rng);
        company_buckets[c].push(id);
        let ty = COMPANY_TYPES[(rng.random::<f64>() < 0.7) as usize ^ 1];
        company
            .push_row(&[
                Value::Int(id as i64),
                Value::str(COUNTRY_CODES[c]),
                Value::str(ty),
            ])
            .unwrap();
    }
    db.add_table(company);

    // --- movies + links --------------------------------------------------------
    let mut movie = Table::new(
        "movie",
        vec![
            Field::new("id", DataType::Int),
            Field::new("production_year", DataType::Int),
            Field::new("genre", DataType::Str),
            Field::new("country", DataType::Str),
            Field::new("rating", DataType::Float),
        ],
    );
    let link_fields = |a: &str, b: &str| {
        vec![
            Field::new("id", DataType::Int),
            Field::new(format!("{a}_id"), DataType::Int),
            Field::new(format!("{b}_id"), DataType::Int),
        ]
    };
    let mut movie_director = Table::new("movie_director", link_fields("movie", "director"));
    let mut movie_actor = Table::new("movie_actor", link_fields("movie", "actor"));
    let mut movie_company = Table::new("movie_company", link_fields("movie", "company"));
    let (mut md_id, mut ma_id, mut mc_id) = (0i64, 0i64, 0i64);

    for id in 0..cfg.n_movies {
        let c = country_zipf.sample(&mut rng);
        // Genre mix shifts with the country group.
        let genre = {
            let shift = c % 4;
            let g: usize = rng.random_range(0..GENRES.len() + 3);
            if g < GENRES.len() {
                (g + shift) % GENRES.len()
            } else {
                shift // over-weight the group's signature genre
            }
        };
        // Production years drift later for some genres (Animation, Action).
        let base = match GENRES[genre] {
            "Animation" => 1998,
            "Action" | "Thriller" => 1992,
            "Documentary" => 1994,
            _ => 1986,
        };
        let year = (base + rng.random_range(0..22i64)).min(2018);
        let rating = (5.0
            + (genre as f64) * 0.2
            + ((year - 1950) as f64) * 0.01
            + rng.random::<f64>() * 2.0)
            .clamp(1.0, 10.0);
        movie
            .push_row(&[
                Value::Int(id as i64),
                Value::Int(year),
                Value::str(GENRES[genre]),
                Value::str(COUNTRIES[c]),
                Value::Float((rating * 10.0).round() / 10.0),
            ])
            .unwrap();

        // Directors from the (country, decade) bucket with fallback.
        let n_dirs = 1 + (rng.random::<f64>() < 0.25) as usize;
        for _ in 0..n_dirs {
            let bucket = &director_buckets[c][period(year)];
            let did = if !bucket.is_empty() && rng.random::<f64>() < 0.85 {
                bucket[rng.random_range(0..bucket.len())]
            } else {
                rng.random_range(0..cfg.n_directors)
            };
            movie_director
                .push_row(&[
                    Value::Int(md_id),
                    Value::Int(id as i64),
                    Value::Int(did as i64),
                ])
                .unwrap();
            md_id += 1;
        }

        // Actors from the era bucket.
        let n_act = 1 + rng.random_range(0..cfg.actors_per_movie * 2);
        for _ in 0..n_act {
            let bucket = &actor_buckets[period(year)];
            let aid = if !bucket.is_empty() && rng.random::<f64>() < 0.8 {
                bucket[rng.random_range(0..bucket.len())]
            } else {
                rng.random_range(0..cfg.n_actors)
            };
            movie_actor
                .push_row(&[
                    Value::Int(ma_id),
                    Value::Int(id as i64),
                    Value::Int(aid as i64),
                ])
                .unwrap();
            ma_id += 1;
        }

        // Companies matching the country with probability 0.8.
        let n_comp = 1 + (rng.random::<f64>() < 0.5) as usize;
        for _ in 0..n_comp {
            let bucket = &company_buckets[c];
            let cid = if !bucket.is_empty() && rng.random::<f64>() < 0.8 {
                bucket[rng.random_range(0..bucket.len())]
            } else {
                rng.random_range(0..cfg.n_companies)
            };
            movie_company
                .push_row(&[
                    Value::Int(mc_id),
                    Value::Int(id as i64),
                    Value::Int(cid as i64),
                ])
                .unwrap();
            mc_id += 1;
        }
    }
    db.add_table(movie);
    db.add_table(movie_director);
    db.add_table(movie_actor);
    db.add_table(movie_company);

    for (link, entity) in [
        ("movie_director", "director"),
        ("movie_actor", "actor"),
        ("movie_company", "company"),
    ] {
        db.add_foreign_key(ForeignKey::new(link, "movie_id", "movie", "id"))
            .unwrap();
        db.add_foreign_key(ForeignKey::new(link, format!("{entity}_id"), entity, "id"))
            .unwrap();
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_matches_figure_4b() {
        let db = generate_movies(&MoviesConfig::small(), 1);
        for t in [
            "movie",
            "director",
            "actor",
            "company",
            "movie_director",
            "movie_actor",
            "movie_company",
        ] {
            assert!(db.table(t).is_ok(), "missing table {t}");
        }
        assert_eq!(db.foreign_keys().len(), 6);
    }

    #[test]
    fn director_birth_year_tracks_production_year() {
        let db = generate_movies(&MoviesConfig::small(), 2);
        let joined = restore_db::query::executor::join_tables(
            &db,
            &[
                "movie".to_string(),
                "movie_director".to_string(),
                "director".to_string(),
            ],
        )
        .unwrap();
        let y = joined.resolve("production_year").unwrap();
        let b = joined.resolve("birth_year").unwrap();
        let mut gaps: Vec<f64> = Vec::new();
        for r in 0..joined.n_rows() {
            gaps.push(joined.value(r, y).as_f64().unwrap() - joined.value(r, b).as_f64().unwrap());
        }
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!(
            (30.0..55.0).contains(&mean),
            "director age gap mean {mean} not plausible"
        );
    }

    #[test]
    fn company_country_tracks_movie_country() {
        let db = generate_movies(&MoviesConfig::small(), 3);
        let joined = restore_db::query::executor::join_tables(
            &db,
            &[
                "movie".to_string(),
                "movie_company".to_string(),
                "company".to_string(),
            ],
        )
        .unwrap();
        let mc = joined.resolve("movie.country").unwrap();
        let cc = joined.resolve("country_code").unwrap();
        let mut hit = 0usize;
        for r in 0..joined.n_rows() {
            let country = joined.value(r, mc).to_string();
            let code = joined.value(r, cc).to_string();
            let ci = COUNTRIES.iter().position(|&c| c == country).unwrap();
            if code == COUNTRY_CODES[ci] {
                hit += 1;
            }
        }
        let share = hit as f64 / joined.n_rows() as f64;
        assert!(
            share > 0.6,
            "company/movie country match share only {share}"
        );
    }

    #[test]
    fn us_is_the_most_common_country() {
        let db = generate_movies(&MoviesConfig::small(), 4);
        let m = db.table("movie").unwrap();
        let us = (0..m.n_rows())
            .filter(|&r| m.value(r, 3).to_string() == "USA")
            .count() as f64
            / m.n_rows() as f64;
        assert!(us > 0.2, "USA share {us} too small for zipf(1.2)");
    }

    #[test]
    fn link_tables_reference_valid_ids() {
        let db = generate_movies(&MoviesConfig::scaled(0.2), 5);
        let m = db.table("movie").unwrap().n_rows() as i64;
        let d = db.table("director").unwrap().n_rows() as i64;
        let md = db.table("movie_director").unwrap();
        for r in 0..md.n_rows() {
            assert!(md.value(r, 1).as_i64().unwrap() < m);
            assert!(md.value(r, 2).as_i64().unwrap() < d);
        }
    }
}
