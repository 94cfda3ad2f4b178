//! Schema annotation (§2.2, step 1 of Fig. 1): the user marks which tables
//! are incomplete. Tuple-factor knowledge arrives as `__tf_<child>` columns
//! on parent tables (NULL where the factor is unknown), mirroring the
//! `TFApartments = ?` column of Fig. 1a.

use std::collections::BTreeSet;

use restore_db::Table;

/// Name of the tuple-factor metadata column for an incomplete child table.
pub(crate) fn tf_column_name(child_table: &str) -> String {
    format!("__tf_{child_table}")
}

/// True for helper columns that are not part of the logical schema.
pub(crate) fn is_tf_column(name: &str) -> bool {
    name.rsplit('.').next().unwrap_or(name).starts_with("__tf_")
}

/// True for key columns (primary `id` / foreign `*_id`) — completion models
/// never synthesize keys (§4.2).
pub(crate) fn is_key_column(name: &str) -> bool {
    let base = name.rsplit('.').next().unwrap_or(name);
    base == "id" || base.ends_with("_id")
}

/// The non-key, non-metadata columns a completion model learns for a table.
pub(crate) fn modeled_columns(table: &Table) -> Vec<String> {
    table
        .fields()
        .iter()
        .map(|f| f.name.clone())
        .filter(|n| !is_key_column(n) && !is_tf_column(n))
        .collect()
}

/// Which tables of a database are complete / incomplete.
#[derive(Clone, Debug, Default)]
pub struct SchemaAnnotation {
    incomplete: BTreeSet<String>,
}

impl SchemaAnnotation {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Builds an annotation marking the listed tables incomplete.
    pub fn with_incomplete<I, S>(tables: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Self {
            incomplete: tables.into_iter().map(Into::into).collect(),
        }
    }

    /// Marks `table` incomplete; true if that changed the annotation.
    pub(crate) fn mark_incomplete(&mut self, table: impl Into<String>) -> bool {
        self.incomplete.insert(table.into())
    }

    pub(crate) fn is_incomplete(&self, table: &str) -> bool {
        self.incomplete.contains(table)
    }

    pub(crate) fn is_complete(&self, table: &str) -> bool {
        !self.is_incomplete(table)
    }

    pub(crate) fn incomplete_tables(&self) -> impl Iterator<Item = &str> {
        self.incomplete.iter().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use restore_db::{DataType, Field};

    #[test]
    fn key_and_tf_columns_are_recognized() {
        assert!(is_key_column("id"));
        assert!(is_key_column("apartment.landlord_id"));
        assert!(!is_key_column("price"));
        assert!(is_tf_column("__tf_apartment"));
        assert!(is_tf_column("neighborhood.__tf_apartment"));
        assert!(!is_tf_column("tf_apartment"));
    }

    #[test]
    fn modeled_columns_skip_keys_and_metadata() {
        let t = Table::new(
            "apartment",
            vec![
                Field::new("id", DataType::Int),
                Field::new("neighborhood_id", DataType::Int),
                Field::new("price", DataType::Float),
                Field::new("room_type", DataType::Str),
                Field::new("__tf_review", DataType::Int),
            ],
        );
        assert_eq!(
            modeled_columns(&t),
            vec!["price".to_string(), "room_type".to_string()]
        );
    }

    #[test]
    fn annotation_tracks_incompleteness() {
        let mut a = SchemaAnnotation::new();
        assert!(a.is_complete("apartment"));
        a.mark_incomplete("apartment");
        assert!(a.is_incomplete("apartment"));
        assert!(!a.mark_incomplete("apartment"), "already incomplete");
        let b = SchemaAnnotation::with_incomplete(["x", "y"]);
        assert_eq!(b.incomplete_tables().count(), 2);
    }
}
