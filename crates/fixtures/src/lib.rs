//! Shared fixtures of the integration tests (`tests/`) and the process
//! smoke (`process_smoke`): a small sealed snapshot, the serving query mix
//! over it, a bit-stable result fingerprint, and a worker fleet's tenant
//! list and snapshot directory. Nothing here times anything (`benchmark/`).

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

use std::sync::Arc;

use restore_core::{CompleterConfig, ReStore, RestoreConfig, Snapshot, TrainConfig};
use restore_data::{apply_removal, generate_synthetic, BiasSpec, RemovalConfig, SyntheticConfig};
use restore_db::{Agg, Query, QueryResult};

/// A sealed snapshot over the synthetic `ta → tb` schema with every
/// [`serving_workload`] model trained and warmed — the shared fixture of
/// the serving tests and `process_smoke`. `data_seed` controls the
/// generated data and removal; `serve_seed` controls sealed synthesis,
/// so two snapshots over the same data with different serve seeds give the
/// hot-swap tests observably different (but individually deterministic)
/// responses.
pub fn sealed_synthetic_snapshot(data_seed: u64, serve_seed: u64) -> Arc<Snapshot> {
    let db = generate_synthetic(
        &SyntheticConfig {
            predictability: 0.9,
            n_parent: 150,
            ..Default::default()
        },
        data_seed,
    );
    let mut removal = RemovalConfig::new(BiasSpec::categorical("tb", "b"), 0.5, 0.5);
    removal.seed = data_seed;
    let sc = apply_removal(&db, &removal);
    let cfg = RestoreConfig {
        train: TrainConfig {
            epochs: 3,
            min_steps: 60,
            hidden: vec![24, 24],
            max_train_rows: 2_000,
            workers: 1,
            ..TrainConfig::default()
        },
        completer: CompleterConfig {
            workers: 1,
            ..CompleterConfig::default()
        },
        max_candidates: 1,
        ..RestoreConfig::default()
    };
    let mut rs = ReStore::new(sc.incomplete.clone(), cfg);
    rs.mark_incomplete("tb");
    rs.train(data_seed).expect("train");
    for q in serving_workload() {
        rs.ensure_query_models(&q.tables, data_seed)
            .expect("ensure");
    }
    Arc::new(rs.seal(serve_seed))
}

/// Tenant names balanced over `classes` FNV-1a shard classes: exactly
/// `per_class` tenants hash to each value of `fnv1a64(name) % classes`.
/// Any shard count that divides `classes` partitions those classes
/// evenly (e.g. 8 tenants balanced over 4 classes are also 4-per-shard at
/// 2 shards), so a fleet test always has a tenant on every shard.
pub fn balanced_fleet_tenants(per_class: usize, classes: usize) -> Vec<String> {
    let mut buckets = vec![0usize; classes];
    let mut tenants = Vec::with_capacity(per_class * classes);
    let mut i = 0u64;
    while tenants.len() < per_class * classes {
        let name = format!("tenant-{i}");
        let class = (restore_util::fnv1a64(name.as_bytes()) % classes as u64) as usize;
        if buckets[class] < per_class {
            buckets[class] += 1;
            tenants.push(name);
        }
        i += 1;
    }
    tenants
}

/// Seeds a fleet snapshot directory: `snapshot` saved as version 1 under
/// every tenant. Every fleet worker boot-scans this directory and serves
/// all tenants; which shard actually *receives* a tenant's requests is the
/// router's hash mapping.
pub fn seed_fleet_snapshot_dir(dir: &std::path::Path, tenants: &[String], snapshot: &Snapshot) {
    let store = restore_serve::SnapshotStore::new(dir);
    for tenant in tenants {
        store
            .save_version(tenant, 1, snapshot)
            .expect("seed fleet snapshot");
    }
}

/// The serving query mix over the synthetic `ta → tb` schema: repeated
/// shapes (cache reuse) and distinct shapes, like a dashboard hammering
/// one database. Shared by the serving, HTTP, router, persistence and
/// golden-snapshot suites, so they all check the same workload.
pub fn serving_workload() -> Vec<Query> {
    vec![
        Query::new(["tb"]).aggregate(Agg::CountStar),
        Query::new(["ta", "tb"]).aggregate(Agg::CountStar),
        Query::new(["ta", "tb"])
            .group_by(["b"])
            .aggregate(Agg::CountStar),
        Query::new(["tb"]).group_by(["b"]).aggregate(Agg::CountStar),
        Query::new(["ta"]).aggregate(Agg::CountStar),
    ]
}

/// Bit-stable rendering of a query result (group keys + f64 bit patterns)
/// — the unit of the serial-vs-concurrent equality checks.
pub fn result_fingerprint(r: &QueryResult) -> String {
    let mut out = String::new();
    for (key, vals) in r.groups() {
        out.push_str(&format!("{key:?}:"));
        for v in vals {
            out.push_str(&format!("{:016x},", v.to_bits()));
        }
        out.push(';');
    }
    out
}
