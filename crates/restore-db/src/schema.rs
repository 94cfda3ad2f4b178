//! The database catalog: tables plus the foreign-key schema graph.
//!
//! ReStore's completion paths and acyclic walks (§3.3, §4) are paths in this
//! graph, so the catalog exposes FK edges and neighbor enumeration.

use std::collections::BTreeMap;

use crate::error::{DbError, DbResult};
use crate::table::Table;

/// A foreign-key relationship: `child.child_col` references
/// `parent.parent_col`. One parent row has many child rows (1:n from the
/// parent's perspective).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ForeignKey {
    pub child: String,
    pub child_col: String,
    pub parent: String,
    pub parent_col: String,
}

impl ForeignKey {
    pub fn new(
        child: impl Into<String>,
        child_col: impl Into<String>,
        parent: impl Into<String>,
        parent_col: impl Into<String>,
    ) -> Self {
        Self {
            child: child.into(),
            child_col: child_col.into(),
            parent: parent.into(),
            parent_col: parent_col.into(),
        }
    }
}

/// One step along a schema path: the FK edge plus the travel direction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathStep {
    pub fk: ForeignKey,
    /// `true` when travelling parent → child (a 1:n "fan-out" step);
    /// `false` when travelling child → parent (n:1).
    pub fan_out: bool,
}

impl PathStep {
    /// Table this step arrives at.
    pub fn to_table(&self) -> &str {
        if self.fan_out {
            &self.fk.child
        } else {
            &self.fk.parent
        }
    }
}

/// An in-memory database: named tables + foreign keys.
#[derive(Clone, Debug, Default)]
pub struct Database {
    tables: BTreeMap<String, Table>,
    foreign_keys: Vec<ForeignKey>,
}

impl Database {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add_table(&mut self, table: Table) {
        self.tables.insert(table.name().to_string(), table);
    }

    /// Registers a foreign key; both tables and columns must exist.
    pub fn add_foreign_key(&mut self, fk: ForeignKey) -> DbResult<()> {
        let child = self.table(&fk.child)?;
        child.resolve(&fk.child_col)?;
        let parent = self.table(&fk.parent)?;
        parent.resolve(&fk.parent_col)?;
        self.foreign_keys.push(fk);
        Ok(())
    }

    pub fn table(&self, name: &str) -> DbResult<&Table> {
        self.tables
            .get(name)
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))
    }

    /// Replaces (or inserts) a table wholesale.
    pub fn replace_table(&mut self, table: Table) {
        self.tables.insert(table.name().to_string(), table);
    }

    pub fn table_names(&self) -> impl Iterator<Item = &str> {
        self.tables.keys().map(String::as_str)
    }

    pub fn foreign_keys(&self) -> &[ForeignKey] {
        &self.foreign_keys
    }

    /// FK edge connecting two tables (either direction), if any.
    pub fn edge_between(&self, a: &str, b: &str) -> Option<PathStep> {
        for fk in &self.foreign_keys {
            if fk.parent == a && fk.child == b {
                return Some(PathStep {
                    fk: fk.clone(),
                    fan_out: true,
                });
            }
            if fk.child == a && fk.parent == b {
                return Some(PathStep {
                    fk: fk.clone(),
                    fan_out: false,
                });
            }
        }
        None
    }

    /// All schema-graph neighbors of `table` with their step descriptors.
    pub fn neighbors(&self, table: &str) -> Vec<PathStep> {
        let mut out = Vec::new();
        for fk in &self.foreign_keys {
            if fk.parent == table {
                out.push(PathStep {
                    fk: fk.clone(),
                    fan_out: true,
                });
            }
            if fk.child == table {
                out.push(PathStep {
                    fk: fk.clone(),
                    fan_out: false,
                });
            }
        }
        out
    }

    /// Orders `tables` into a connected join sequence: the first table, then
    /// each next table connected by an FK edge to some earlier table.
    /// Errors when the requested set is not connected in the schema graph.
    pub(crate) fn join_order(
        &self,
        tables: &[String],
    ) -> DbResult<Vec<(String, Option<PathStep>)>> {
        if tables.is_empty() {
            return Err(DbError::InvalidQuery("empty table list".into()));
        }
        for t in tables {
            self.table(t)?;
        }
        let mut placed: Vec<(String, Option<PathStep>)> = vec![(tables[0].clone(), None)];
        let mut remaining: Vec<String> = tables[1..].to_vec();
        while !remaining.is_empty() {
            let mut advanced = false;
            for i in 0..remaining.len() {
                let cand = &remaining[i];
                if let Some(step) = placed.iter().find_map(|(t, _)| self.edge_between(t, cand)) {
                    placed.push((cand.clone(), Some(step)));
                    remaining.remove(i);
                    advanced = true;
                    break;
                }
            }
            if !advanced {
                return Err(DbError::InvalidJoin(format!(
                    "tables {remaining:?} are not FK-connected to {:?}",
                    placed.iter().map(|(t, _)| t.clone()).collect::<Vec<_>>()
                )));
            }
        }
        Ok(placed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Field;
    use crate::value::DataType;

    fn housing_db() -> Database {
        let mut db = Database::new();
        db.add_table(Table::new(
            "neighborhood",
            vec![Field::new("id", DataType::Int)],
        ));
        db.add_table(Table::new(
            "apartment",
            vec![
                Field::new("id", DataType::Int),
                Field::new("neighborhood_id", DataType::Int),
                Field::new("landlord_id", DataType::Int),
            ],
        ));
        db.add_table(Table::new(
            "landlord",
            vec![Field::new("id", DataType::Int)],
        ));
        db.add_table(Table::new(
            "school",
            vec![
                Field::new("id", DataType::Int),
                Field::new("neighborhood_id", DataType::Int),
            ],
        ));
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
        db.add_foreign_key(ForeignKey::new(
            "school",
            "neighborhood_id",
            "neighborhood",
            "id",
        ))
        .unwrap();
        db
    }

    #[test]
    fn foreign_key_validation() {
        let mut db = housing_db();
        assert!(db
            .add_foreign_key(ForeignKey::new("apartment", "nope", "neighborhood", "id"))
            .is_err());
        assert!(db
            .add_foreign_key(ForeignKey::new("missing", "id", "neighborhood", "id"))
            .is_err());
    }

    #[test]
    fn path_direction_is_tracked() {
        let db = housing_db();
        let step = db.edge_between("neighborhood", "apartment").unwrap();
        assert!(step.fan_out, "neighborhood->apartment is 1:n");
        assert_eq!(step.to_table(), "apartment");
        let back = db.edge_between("apartment", "neighborhood").unwrap();
        assert!(!back.fan_out, "apartment->neighborhood is n:1");
        assert!(db.edge_between("landlord", "school").is_none());
    }

    #[test]
    fn join_order_builds_connected_sequence() {
        let db = housing_db();
        let order = db
            .join_order(&["landlord".into(), "neighborhood".into(), "apartment".into()])
            .unwrap();
        assert_eq!(order[0].0, "landlord");
        assert_eq!(order[1].0, "apartment");
        assert_eq!(order[2].0, "neighborhood");
        assert!(order[1].1.as_ref().is_some());
    }

    #[test]
    fn join_order_rejects_disconnected_sets() {
        let db = housing_db();
        assert!(db
            .join_order(&["landlord".into(), "school".into()])
            .is_err());
        // (landlord and school only connect through apartment+neighborhood)
    }
}
