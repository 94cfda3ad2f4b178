//! Completion paths: linear chains through the FK schema graph from an
//! evidence table to the incomplete target table (§3.2, §5).

use restore_db::{Database, DbError, DbResult, PathStep};

use crate::annotation::SchemaAnnotation;

/// A linear chain `T1 — T2 — … — Tm` in the schema graph; `T1` is the
/// evidence root, `Tm` the table being completed.
#[derive(Clone, Debug, PartialEq)]
pub struct CompletionPath {
    tables: Vec<String>,
    steps: Vec<PathStep>,
}

impl CompletionPath {
    /// Builds a path from an ordered table list; every consecutive pair must
    /// be connected by an FK edge.
    pub fn from_tables(db: &Database, tables: &[String]) -> DbResult<Self> {
        if tables.is_empty() {
            return Err(DbError::InvalidJoin("empty completion path".into()));
        }
        let mut steps = Vec::with_capacity(tables.len().saturating_sub(1));
        for w in tables.windows(2) {
            let step = db.edge_between(&w[0], &w[1]).ok_or_else(|| {
                DbError::InvalidJoin(format!("no FK edge between {} and {}", w[0], w[1]))
            })?;
            steps.push(step);
        }
        Ok(Self {
            tables: tables.to_vec(),
            steps,
        })
    }

    pub fn tables(&self) -> &[String] {
        &self.tables
    }

    pub fn steps(&self) -> &[PathStep] {
        &self.steps
    }

    pub(crate) fn len(&self) -> usize {
        self.tables.len()
    }

    /// The evidence root `T1`.
    pub(crate) fn root(&self) -> &str {
        &self.tables[0]
    }

    /// The completed table `Tm`.
    pub(crate) fn target(&self) -> &str {
        self.tables.last().unwrap()
    }

    /// A short human-readable rendering, e.g.
    /// `neighborhood→apartment`.
    pub fn describe(&self) -> String {
        self.tables.join("→")
    }
}

/// Enumerates candidate completion paths for `target`: simple chains of
/// length ≤ `max_len` whose root is a **complete** table and whose end is
/// `target`. Paths may pass through incomplete tables (e.g. m:n link tables
/// that lost tuples), exactly like the long movie paths of §7.3.
pub fn enumerate_paths(
    db: &Database,
    annotation: &SchemaAnnotation,
    target: &str,
    max_len: usize,
) -> Vec<CompletionPath> {
    let mut out = Vec::new();
    // DFS backwards from the target.
    let mut stack: Vec<Vec<String>> = vec![vec![target.to_string()]];
    while let Some(chain) = stack.pop() {
        let head = chain.last().unwrap().clone();
        // `chain` is target→…→head; the root candidate is `head`.
        if chain.len() >= 2 && annotation.is_complete(&head) {
            let tables: Vec<String> = chain.iter().rev().cloned().collect();
            if let Ok(p) = CompletionPath::from_tables(db, &tables) {
                out.push(p);
            }
        }
        if chain.len() >= max_len {
            continue;
        }
        for step in db.neighbors(&head) {
            // Continue the walk *away* from the target.
            let nxt = step.to_table();
            if chain.iter().any(|t| t == nxt) {
                continue;
            }
            let mut next_chain = chain.clone();
            next_chain.push(nxt.to_string());
            stack.push(next_chain);
        }
    }
    // Prefer short paths, deterministic order.
    out.sort_by(|a, b| {
        a.len()
            .cmp(&b.len())
            .then_with(|| a.describe().cmp(&b.describe()))
    });
    out.dedup_by(|a, b| a.tables == b.tables);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use restore_db::{DataType, Field, ForeignKey, Table};

    fn movie_like_db() -> Database {
        let mut db = Database::new();
        for t in [
            "movie",
            "director",
            "company",
            "movie_director",
            "movie_company",
        ] {
            let mut fields = vec![Field::new("id", DataType::Int)];
            if t.starts_with("movie_") {
                let entity = t.trim_start_matches("movie_");
                fields.push(Field::new("movie_id", DataType::Int));
                fields.push(Field::new(format!("{entity}_id"), DataType::Int));
            }
            db.add_table(Table::new(t, fields));
        }
        db.add_foreign_key(ForeignKey::new("movie_director", "movie_id", "movie", "id"))
            .unwrap();
        db.add_foreign_key(ForeignKey::new(
            "movie_director",
            "director_id",
            "director",
            "id",
        ))
        .unwrap();
        db.add_foreign_key(ForeignKey::new("movie_company", "movie_id", "movie", "id"))
            .unwrap();
        db.add_foreign_key(ForeignKey::new(
            "movie_company",
            "company_id",
            "company",
            "id",
        ))
        .unwrap();
        db
    }

    #[test]
    fn path_construction_validates_edges() {
        let db = movie_like_db();
        let ok = CompletionPath::from_tables(
            &db,
            &["director".into(), "movie_director".into(), "movie".into()],
        )
        .unwrap();
        assert_eq!(ok.root(), "director");
        assert_eq!(ok.target(), "movie");
        assert_eq!(ok.steps().len(), 2);
        assert!(ok.steps()[0].fan_out, "director→movie_director fans out");
        assert!(!ok.steps()[1].fan_out, "movie_director→movie is n:1");
        assert!(CompletionPath::from_tables(&db, &["director".into(), "movie".into()]).is_err());
    }

    #[test]
    fn enumerate_finds_all_roots() {
        let db = movie_like_db();
        let ann = SchemaAnnotation::with_incomplete(["movie", "movie_director", "movie_company"]);
        let paths = enumerate_paths(&db, &ann, "movie", 5);
        let describes: Vec<String> = paths.iter().map(|p| p.describe()).collect();
        assert!(describes.contains(&"director→movie_director→movie".to_string()));
        assert!(describes.contains(&"company→movie_company→movie".to_string()));
        // No path may start at an incomplete table.
        for p in &paths {
            assert!(
                ann.is_complete(p.root()),
                "path rooted at incomplete table: {}",
                p.describe()
            );
        }
    }

    #[test]
    fn long_paths_span_five_tables() {
        // M4-style: complete company evidence for incomplete director.
        let db = movie_like_db();
        let ann = SchemaAnnotation::with_incomplete([
            "director",
            "movie",
            "movie_director",
            "movie_company",
        ]);
        let paths = enumerate_paths(&db, &ann, "director", 5);
        assert!(
            paths
                .iter()
                .any(|p| p.describe() == "company→movie_company→movie→movie_director→director"),
            "expected the 5-table path, got {:?}",
            paths.iter().map(|p| p.describe()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn max_len_bounds_enumeration() {
        let db = movie_like_db();
        let ann = SchemaAnnotation::with_incomplete(["director"]);
        let paths = enumerate_paths(&db, &ann, "director", 3);
        assert!(paths.iter().all(|p| p.len() <= 3));
    }
}
