//! Multi-tenant snapshot registry with hot swap.
//!
//! A [`SnapshotRegistry`] maps tenant names to sealed [`Snapshot`]s so one
//! serving process can host many databases side by side (a RelBench-style
//! fleet of relational datasets served uniformly). The map itself is
//! immutable and swapped atomically behind one `Arc`:
//!
//! * [`SnapshotRegistry::view`] hands a reader the *entire* registry as a
//!   consistent `Arc<HashMap>` — a request resolves its tenant once against
//!   that view and can never observe a half-applied publish/retire;
//! * [`SnapshotRegistry::publish`] installs v2 of a tenant by building a new
//!   map; requests already serving from v1 keep their `Arc<Snapshot>` and
//!   drain naturally — nothing is interrupted, v1 is freed when the last
//!   reference drops;
//! * [`SnapshotRegistry::retire`] removes a tenant the same way: new
//!   requests get 404-style misses, in-flight ones finish on the old `Arc`.
//!
//! Writers pay a full map clone per mutation; tenant counts are small and
//! publishes rare, while reads (every request) are one `Arc` clone under a
//! briefly held read lock.

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use crate::snapshot::Snapshot;

/// The immutable registry generation a request resolves against.
pub(crate) type RegistryView = Arc<HashMap<String, Arc<Snapshot>>>;

/// A swappable map of tenant → sealed snapshot. All methods take `&self`;
/// share the registry itself behind an `Arc` across server threads.
#[derive(Default)]
pub struct SnapshotRegistry {
    map: RwLock<RegistryView>,
}

impl SnapshotRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    fn read(&self) -> RegistryView {
        Arc::clone(&self.map.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// A consistent snapshot of the whole registry. Resolve every lookup a
    /// request needs against **one** view — that is the torn-free contract.
    pub fn view(&self) -> RegistryView {
        self.read()
    }

    /// The current snapshot for a tenant.
    pub fn get(&self, tenant: &str) -> Option<Arc<Snapshot>> {
        self.read().get(tenant).cloned()
    }

    /// Atomically installs (or replaces) a tenant's snapshot and returns the
    /// one it displaced, which keeps serving any in-flight requests that
    /// hold it until their `Arc` refs drop.
    pub fn publish(
        &self,
        tenant: impl Into<String>,
        snapshot: Arc<Snapshot>,
    ) -> Option<Arc<Snapshot>> {
        let tenant = tenant.into();
        let mut guard = self.map.write().unwrap_or_else(|e| e.into_inner());
        let mut next: HashMap<String, Arc<Snapshot>> = (**guard).clone();
        let old = next.insert(tenant, snapshot);
        *guard = Arc::new(next);
        old
    }

    /// Atomically removes a tenant; in-flight requests on the returned
    /// snapshot are undisturbed.
    pub fn retire(&self, tenant: &str) -> Option<Arc<Snapshot>> {
        let mut guard = self.map.write().unwrap_or_else(|e| e.into_inner());
        if !guard.contains_key(tenant) {
            return None;
        }
        let mut next: HashMap<String, Arc<Snapshot>> = (**guard).clone();
        let old = next.remove(tenant);
        *guard = Arc::new(next);
        old
    }

    /// Tenant names, sorted (stable for /healthz listings).
    pub fn tenants(&self) -> Vec<String> {
        let mut names: Vec<String> = self.read().keys().cloned().collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::restore::{ReStore, RestoreConfig};
    use restore_db::Database;

    fn empty_snapshot(seed: u64) -> Arc<Snapshot> {
        Arc::new(ReStore::new(Database::new(), RestoreConfig::default()).seal(seed))
    }

    #[test]
    fn publish_get_retire_lifecycle() {
        let reg = SnapshotRegistry::new();
        assert!(reg.tenants().is_empty());
        assert!(reg.get("a").is_none());

        let v1 = empty_snapshot(1);
        assert!(reg.publish("a", Arc::clone(&v1)).is_none());
        assert_eq!(reg.tenants(), ["a"]);
        assert!(Arc::ptr_eq(&reg.get("a").unwrap(), &v1));

        let v2 = empty_snapshot(2);
        let displaced = reg.publish("a", Arc::clone(&v2)).expect("v1 displaced");
        assert!(Arc::ptr_eq(&displaced, &v1));
        assert!(Arc::ptr_eq(&reg.get("a").unwrap(), &v2));

        let retired = reg.retire("a").expect("v2 retired");
        assert!(Arc::ptr_eq(&retired, &v2));
        assert!(reg.get("a").is_none());
        assert!(reg.retire("a").is_none(), "retire is idempotent-ish");
    }

    #[test]
    fn views_are_immutable_generations() {
        let reg = SnapshotRegistry::new();
        reg.publish("a", empty_snapshot(1));
        reg.publish("b", empty_snapshot(2));
        let view = reg.view();
        assert_eq!(view.len(), 2);

        // Mutations after the view was taken do not tear it.
        reg.retire("a");
        reg.publish("c", empty_snapshot(3));
        assert_eq!(view.len(), 2, "held view is frozen");
        assert!(view.contains_key("a"));
        assert!(!view.contains_key("c"));
        assert_eq!(reg.tenants(), vec!["b".to_string(), "c".to_string()]);
    }

    #[test]
    fn displaced_snapshot_drains_under_existing_refs() {
        let reg = SnapshotRegistry::new();
        let v1 = empty_snapshot(1);
        reg.publish("a", Arc::clone(&v1));
        let weak = Arc::downgrade(&v1);

        // An in-flight request holds v1 across the swap.
        let in_flight = reg.get("a").unwrap();
        reg.publish("a", empty_snapshot(2));
        drop(v1);
        assert!(weak.upgrade().is_some(), "in-flight ref keeps v1 alive");
        drop(in_flight);
        assert!(weak.upgrade().is_none(), "v1 freed once drained");
    }

    #[test]
    fn concurrent_readers_see_whole_generations() {
        let reg = Arc::new(SnapshotRegistry::new());
        // Invariant: "a" and "b" are always published/retired together, so
        // any consistent view contains both or neither.
        reg.publish("a", empty_snapshot(1));
        reg.publish("b", empty_snapshot(1));
        let writer = {
            let reg = Arc::clone(&reg);
            std::thread::spawn(move || {
                for i in 0..200u64 {
                    if i % 2 == 0 {
                        reg.retire("a");
                        reg.retire("b");
                    } else {
                        reg.publish("a", empty_snapshot(i));
                        reg.publish("b", empty_snapshot(i));
                    }
                }
                // Leave both published.
                reg.publish("a", empty_snapshot(7));
                reg.publish("b", empty_snapshot(7));
            })
        };
        // Readers: each view is internally consistent even while the pair
        // flips; a torn read would see exactly one of the two.
        let mut torn = 0usize;
        for _ in 0..500 {
            let view = reg.view();
            let (a, b) = (view.contains_key("a"), view.contains_key("b"));
            // The writer publishes a then b, so a-without-b is a transient
            // *consistent* state; b-without-a is impossible.
            if b && !a {
                torn += 1;
            }
        }
        writer.join().expect("writer");
        assert_eq!(torn, 0, "no view may invert the publish order");
        assert_eq!(reg.tenants(), vec!["a".to_string(), "b".to_string()]);
    }
}
