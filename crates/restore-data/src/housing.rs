//! The housing dataset (Fig. 4a) — a synthetic stand-in for the Airbnb
//! dump the paper normalizes into `neighborhood`, `apartment`, `landlord`.
//!
//! The raw Airbnb data is not available offline, so this generator plants
//! the cross-table correlations the paper's completions exploit:
//!
//! * apartment **price** is driven by neighborhood population density /
//!   median income plus room type and capacity — so neighborhoods are
//!   useful evidence for completing apartments (setups H1–H3);
//! * landlords are matched to apartments by a price↔seniority tier, and
//!   `response_rate`/`response_time` correlate with `landlord_since` — so
//!   apartments are useful evidence for completing landlords (H4/H5).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use restore_db::{DataType, Database, Field, ForeignKey, Table, Value};

use crate::zipf::Zipf;

/// Sizes of the generated housing database.
#[derive(Clone, Debug)]
pub struct HousingConfig {
    n_neighborhoods: usize,
    n_landlords: usize,
    n_apartments: usize,
    n_states: usize,
}

impl HousingConfig {
    /// Laptop-scale default (the paper's dataset is ≈8K/360K/500K rows; the
    /// ratios are preserved, the absolute size is scaled down).
    pub fn small() -> Self {
        Self {
            n_neighborhoods: 150,
            n_landlords: 1200,
            n_apartments: 4000,
            n_states: 12,
        }
    }

    /// Uniformly scales all table sizes.
    pub fn scaled(factor: f64) -> Self {
        let s = Self::small();
        Self {
            n_neighborhoods: ((s.n_neighborhoods as f64 * factor) as usize).max(10),
            n_landlords: ((s.n_landlords as f64 * factor) as usize).max(20),
            n_apartments: ((s.n_apartments as f64 * factor) as usize).max(50),
            n_states: s.n_states,
        }
    }
}

impl Default for HousingConfig {
    fn default() -> Self {
        Self::small()
    }
}

const ROOM_TYPES: [&str; 3] = ["Entire home/apt", "Private room", "Shared room"];
const PROPERTY_TYPES: [&str; 4] = ["Apartment", "House", "Condominium", "Loft"];

/// Generates the housing database with FKs
/// `apartment.neighborhood_id → neighborhood.id` and
/// `apartment.landlord_id → landlord.id`.
pub fn generate_housing(cfg: &HousingConfig, seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();

    // --- neighborhoods -----------------------------------------------------
    // Each state has an urbanization tier 0..4 that drives density/income.
    let state_tier: Vec<usize> = (0..cfg.n_states).map(|s| s % 4).collect();
    let state_zipf = Zipf::new(cfg.n_states, 1.1);
    let mut neighborhood = Table::new(
        "neighborhood",
        vec![
            Field::new("id", DataType::Int),
            Field::new("state", DataType::Str),
            Field::new("pop_density", DataType::Float),
            Field::new("median_income", DataType::Float),
        ],
    );
    let mut hood_state = Vec::with_capacity(cfg.n_neighborhoods);
    let mut hood_density = Vec::with_capacity(cfg.n_neighborhoods);
    let mut hood_income = Vec::with_capacity(cfg.n_neighborhoods);
    for id in 0..cfg.n_neighborhoods {
        let s = state_zipf.sample(&mut rng);
        let tier = state_tier[s] as f64;
        let density = (200.0 + 6000.0 * tier) * (0.5 + rng.random::<f64>());
        let income = 30_000.0 + 12_000.0 * tier + 8_000.0 * rng.random::<f64>();
        hood_state.push(s);
        hood_density.push(density);
        hood_income.push(income);
        neighborhood
            .push_row(&[
                Value::Int(id as i64),
                Value::str(format!("S{s:02}")),
                Value::Float(density.round()),
                Value::Float(income.round()),
            ])
            .unwrap();
    }
    db.add_table(neighborhood);

    // --- landlords ----------------------------------------------------------
    // Seniority tier: earlier hosts -> slower responses, lower rates, and
    // (via apartment assignment below) cheaper apartments.
    let mut landlord = Table::new(
        "landlord",
        vec![
            Field::new("id", DataType::Int),
            Field::new("landlord_since", DataType::Int),
            Field::new("landlord_response_rate", DataType::Float),
            Field::new("landlord_response_time", DataType::Int),
        ],
    );
    let mut landlord_tier: Vec<usize> = Vec::with_capacity(cfg.n_landlords);
    let mut tier_members: Vec<Vec<usize>> = vec![Vec::new(); 4];
    for id in 0..cfg.n_landlords {
        let tier = rng.random_range(0..4usize);
        let since = 2008 + (tier as i64) * 3 + rng.random_range(0..3i64);
        let response_time =
            (4 - tier as i64).max(1) + if rng.random::<f64>() < 0.2 { 1 } else { 0 };
        let response_rate =
            (104.0 - 9.0 * response_time as f64 - 6.0 * rng.random::<f64>()).clamp(40.0, 100.0);
        landlord_tier.push(tier);
        tier_members[tier].push(id);
        landlord
            .push_row(&[
                Value::Int(id as i64),
                Value::Int(since),
                Value::Float(response_rate.round()),
                Value::Int(response_time.min(4)),
            ])
            .unwrap();
    }
    db.add_table(landlord);

    // --- apartments ----------------------------------------------------------
    let hood_zipf = Zipf::new(cfg.n_neighborhoods, 0.8);
    let mut apartment = Table::new(
        "apartment",
        vec![
            Field::new("id", DataType::Int),
            Field::new("neighborhood_id", DataType::Int),
            Field::new("landlord_id", DataType::Int),
            Field::new("price", DataType::Float),
            Field::new("room_type", DataType::Str),
            Field::new("property_type", DataType::Str),
            Field::new("accommodates", DataType::Int),
        ],
    );
    for id in 0..cfg.n_apartments {
        let h = hood_zipf.sample(&mut rng);
        let tier = state_tier[hood_state[h]] as f64;
        // Room type skews towards entire homes in dense areas.
        let p_entire = 0.35 + 0.12 * tier;
        let u: f64 = rng.random();
        let room_type = if u < p_entire {
            0
        } else if u < p_entire + 0.4 {
            1
        } else {
            2
        };
        // Houses dominate low-density states.
        let p_house = (0.5 - 0.12 * tier).max(0.05);
        let v: f64 = rng.random();
        let property_type = if v < p_house {
            1
        } else if v < p_house + 0.45 {
            0
        } else if v < p_house + 0.45 + 0.3 {
            2
        } else {
            3
        };
        let accommodates = match room_type {
            0 => rng.random_range(2..=8i64),
            1 => rng.random_range(1..=4i64),
            _ => rng.random_range(1..=2i64),
        };
        let room_effect = [420.0, 140.0, 0.0][room_type];
        let price = 120.0
            + 0.035 * hood_density[h]
            + 0.004 * (hood_income[h] - 30_000.0)
            + room_effect
            + 35.0 * accommodates as f64
            + 60.0 * rng.random::<f64>();

        // Landlord: price quartile picks the matching seniority tier with
        // probability 0.75, otherwise a random tier — this is the planted
        // apartment↔landlord correlation H4/H5 rely on.
        let price_tier = ((price - 150.0) / 280.0).clamp(0.0, 3.0) as usize;
        let tier_pick = if rng.random::<f64>() < 0.75 {
            price_tier
        } else {
            rng.random_range(0..4usize)
        };
        let members = if tier_members[tier_pick].is_empty() {
            &landlord_tier // placeholder, handled below
        } else {
            &tier_members[tier_pick]
        };
        let landlord_id = if tier_members[tier_pick].is_empty() {
            rng.random_range(0..cfg.n_landlords)
        } else {
            members[rng.random_range(0..members.len())]
        };

        apartment
            .push_row(&[
                Value::Int(id as i64),
                Value::Int(h as i64),
                Value::Int(landlord_id as i64),
                Value::Float(price.round()),
                Value::str(ROOM_TYPES[room_type]),
                Value::str(PROPERTY_TYPES[property_type]),
                Value::Int(accommodates),
            ])
            .unwrap();
    }
    db.add_table(apartment);

    db.add_foreign_key(ForeignKey::new(
        "apartment",
        "neighborhood_id",
        "neighborhood",
        "id",
    ))
    .unwrap();
    db.add_foreign_key(ForeignKey::new(
        "apartment",
        "landlord_id",
        "landlord",
        "id",
    ))
    .unwrap();
    db
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
        let n = xs.len() as f64;
        let mx = xs.iter().sum::<f64>() / n;
        let my = ys.iter().sum::<f64>() / n;
        let mut cov = 0.0;
        let mut vx = 0.0;
        let mut vy = 0.0;
        for (x, y) in xs.iter().zip(ys) {
            cov += (x - mx) * (y - my);
            vx += (x - mx) * (x - mx);
            vy += (y - my) * (y - my);
        }
        cov / (vx.sqrt() * vy.sqrt()).max(1e-12)
    }

    #[test]
    fn schema_matches_figure_4a() {
        let db = generate_housing(&HousingConfig::small(), 1);
        assert_eq!(db.table("neighborhood").unwrap().n_rows(), 150);
        assert_eq!(db.table("landlord").unwrap().n_rows(), 1200);
        assert_eq!(db.table("apartment").unwrap().n_rows(), 4000);
        assert_eq!(db.foreign_keys().len(), 2);
    }

    #[test]
    fn price_correlates_with_density() {
        let db = generate_housing(&HousingConfig::small(), 2);
        let joined = restore_db::query::executor::join_tables(
            &db,
            &["neighborhood".to_string(), "apartment".to_string()],
        )
        .unwrap();
        let d = joined.resolve("pop_density").unwrap();
        let p = joined.resolve("price").unwrap();
        let xs: Vec<f64> = (0..joined.n_rows())
            .map(|r| joined.value(r, d).as_f64().unwrap())
            .collect();
        let ys: Vec<f64> = (0..joined.n_rows())
            .map(|r| joined.value(r, p).as_f64().unwrap())
            .collect();
        let r = pearson(&xs, &ys);
        assert!(r > 0.4, "price/density correlation too weak: {r}");
    }

    #[test]
    fn landlord_seniority_correlates_with_price() {
        let db = generate_housing(&HousingConfig::small(), 3);
        let joined = restore_db::query::executor::join_tables(
            &db,
            &["landlord".to_string(), "apartment".to_string()],
        )
        .unwrap();
        let s = joined.resolve("landlord_since").unwrap();
        let p = joined.resolve("price").unwrap();
        let xs: Vec<f64> = (0..joined.n_rows())
            .map(|r| joined.value(r, s).as_f64().unwrap())
            .collect();
        let ys: Vec<f64> = (0..joined.n_rows())
            .map(|r| joined.value(r, p).as_f64().unwrap())
            .collect();
        let r = pearson(&xs, &ys);
        assert!(r > 0.3, "landlord_since/price correlation too weak: {r}");
    }

    #[test]
    fn response_rate_tracks_response_time() {
        let db = generate_housing(&HousingConfig::small(), 4);
        let l = db.table("landlord").unwrap();
        let rr = l.resolve("landlord_response_rate").unwrap();
        let rt = l.resolve("landlord_response_time").unwrap();
        let xs: Vec<f64> = (0..l.n_rows())
            .map(|r| l.value(r, rt).as_f64().unwrap())
            .collect();
        let ys: Vec<f64> = (0..l.n_rows())
            .map(|r| l.value(r, rr).as_f64().unwrap())
            .collect();
        assert!(pearson(&xs, &ys) < -0.5);
    }

    #[test]
    fn every_fk_resolves() {
        let db = generate_housing(&HousingConfig::scaled(0.2), 5);
        let a = db.table("apartment").unwrap();
        let n = db.table("neighborhood").unwrap().n_rows() as i64;
        let l = db.table("landlord").unwrap().n_rows() as i64;
        for r in 0..a.n_rows() {
            let nid = a.value(r, 1).as_i64().unwrap();
            let lid = a.value(r, 2).as_i64().unwrap();
            assert!(nid >= 0 && nid < n);
            assert!(lid >= 0 && lid < l);
        }
    }
}
