//! Query execution: join planning + filter + aggregation.

use std::collections::BTreeMap;

use crate::error::{DbError, DbResult};
use crate::schema::Database;
use crate::table::{Table, TableView};

use super::aggregate::aggregate;
use super::join::hash_join;
use super::Query;

/// A query result with helpers for extracting scalars / group maps.
#[derive(Clone, Debug)]
pub struct QueryResult {
    pub table: Table,
    /// Number of leading group-key columns.
    pub group_cols: usize,
}

impl QueryResult {
    /// The single numeric result of an ungrouped single-aggregate query.
    pub fn scalar(&self) -> Option<f64> {
        if self.group_cols == 0 && self.table.n_rows() == 1 {
            self.table.value(0, 0).as_f64()
        } else {
            None
        }
    }

    /// Map from group key (rendered values) to the aggregate columns.
    pub fn groups(&self) -> BTreeMap<Vec<String>, Vec<f64>> {
        let mut out = BTreeMap::new();
        for r in 0..self.table.n_rows() {
            let key: Vec<String> = (0..self.group_cols)
                .map(|c| self.table.value(r, c).to_string())
                .collect();
            let vals: Vec<f64> = (self.group_cols..self.table.n_cols())
                .map(|c| self.table.value(r, c).as_f64().unwrap_or(f64::NAN))
                .collect();
            out.insert(key, vals);
        }
        out
    }
}

/// Computes the (natural, FK-directed) join of the query's tables.
///
/// The first table's columns come first; every further table is attached by
/// a hash join along the FK edge the planner discovered. Output column
/// names are fully qualified.
pub fn join_tables(db: &Database, tables: &[String]) -> DbResult<Table> {
    let order = db.join_order(tables)?;
    let mut joined = db.table(&order[0].0)?.qualified();
    for (name, step) in &order[1..] {
        let step = step
            .as_ref()
            .ok_or_else(|| DbError::InvalidJoin(format!("{name} lacks a join edge")))?;
        let (left_on, right_on) = step.join_keys();
        joined = hash_join(&joined, &left_on, db.table(name)?, &right_on, "join")?;
    }
    Ok(joined)
}

/// Executes an SPJA query over the database.
pub fn execute(db: &Database, query: &Query) -> DbResult<QueryResult> {
    let joined = join_tables(db, &query.tables)?;
    execute_on_join(&joined, query)
}

/// Executes the filter/group/aggregate tail of `query` over an externally
/// provided join result (e.g. a *completed* join produced by ReStore): a
/// table, or a borrowed [`TableView`] of one. The filter narrows the
/// view's row selection and aggregation reads through it, so nothing is
/// copied but the result; a query without aggregates returns the filtered
/// view as a table.
pub fn execute_on_join<'a>(
    joined: impl Into<TableView<'a>>,
    query: &Query,
) -> DbResult<QueryResult> {
    let mut view = joined.into();
    let selected;
    if let Some(pred) = &query.filter {
        selected = pred.select(view)?;
        view.rows = Some(&selected);
    }
    let table = if query.aggregates.is_empty() {
        view.materialize()
    } else {
        aggregate(view, &query.group_by, &query.aggregates)?
    };
    Ok(QueryResult {
        table,
        group_cols: query.group_by.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::query::Agg;
    use crate::schema::ForeignKey;
    use crate::table::Field;
    use crate::value::{DataType, Value};

    /// The running example of the paper: neighborhoods with apartments.
    fn housing() -> Database {
        let mut db = Database::new();
        let mut n = Table::new(
            "neighborhood",
            vec![
                Field::new("id", DataType::Int),
                Field::new("state", DataType::Str),
                Field::new("pop_density", DataType::Float),
            ],
        );
        n.push_row(&[Value::Int(1), Value::str("NYC"), Value::Float(27000.0)])
            .unwrap();
        n.push_row(&[Value::Int(2), Value::str("CA"), Value::Float(254.0)])
            .unwrap();
        db.add_table(n);
        let mut a = Table::new(
            "apartment",
            vec![
                Field::new("id", DataType::Int),
                Field::new("neighborhood_id", DataType::Int),
                Field::new("rent", DataType::Float),
            ],
        );
        a.push_row(&[Value::Int(1), Value::Int(1), Value::Float(2000.0)])
            .unwrap();
        a.push_row(&[Value::Int(2), Value::Int(1), Value::Float(3000.0)])
            .unwrap();
        a.push_row(&[Value::Int(3), Value::Int(2), Value::Float(3200.0)])
            .unwrap();
        a.push_row(&[Value::Int(4), Value::Int(2), Value::Float(2000.0)])
            .unwrap();
        a.push_row(&[Value::Int(5), Value::Int(2), Value::Float(1000.0)])
            .unwrap();
        db.add_table(a);
        db.add_foreign_key(ForeignKey::new(
            "apartment",
            "neighborhood_id",
            "neighborhood",
            "id",
        ))
        .unwrap();
        db
    }

    #[test]
    fn figure_1c_average_rent_per_state() {
        // SELECT AVG(rent) FROM neighborhood NATURAL JOIN apartment GROUP BY state
        let db = housing();
        let q = Query::new(["neighborhood", "apartment"])
            .group_by(["state"])
            .aggregate(Agg::Avg("rent".into()));
        let res = execute(&db, &q).unwrap();
        let groups = res.groups();
        assert_eq!(
            groups[&vec!["CA".to_string()]][0],
            (3200.0 + 2000.0 + 1000.0) / 3.0
        );
        assert_eq!(groups[&vec!["NYC".to_string()]][0], 2500.0);
    }

    #[test]
    fn single_table_scalar_query() {
        let db = housing();
        let q = Query::new(["apartment"])
            .filter(Expr::col("rent").ge(Expr::lit(2000.0)))
            .aggregate(Agg::CountStar);
        let res = execute(&db, &q).unwrap();
        assert_eq!(res.scalar(), Some(4.0));
    }

    #[test]
    fn filter_on_joined_table() {
        let db = housing();
        let q = Query::new(["apartment", "neighborhood"])
            .filter(Expr::col("state").eq(Expr::lit("CA")))
            .aggregate(Agg::Sum("rent".into()));
        let res = execute(&db, &q).unwrap();
        assert_eq!(res.scalar(), Some(6200.0));
    }

    #[test]
    fn no_aggregates_returns_filtered_join() {
        let db = housing();
        let q = Query::new(["neighborhood", "apartment"])
            .filter(Expr::col("rent").gt(Expr::lit(2500.0)));
        let res = execute(&db, &q).unwrap();
        assert_eq!(res.table.n_rows(), 2);
    }

    #[test]
    fn disconnected_query_errors() {
        let mut db = housing();
        db.add_table(Table::new("island", vec![Field::new("id", DataType::Int)]));
        let q = Query::new(["apartment", "island"]).aggregate(Agg::CountStar);
        assert!(execute(&db, &q).is_err());
    }

    #[test]
    fn execute_on_provided_join_matches_execute() {
        let db = housing();
        let q = Query::new(["neighborhood", "apartment"])
            .group_by(["state"])
            .aggregate(Agg::CountStar);
        let joined = join_tables(&db, &q.tables).unwrap();
        let a = execute(&db, &q).unwrap();
        let b = execute_on_join(&joined, &q).unwrap();
        assert_eq!(a.groups(), b.groups());
    }

    /// A bad filter column is an error whatever the data: binding resolves
    /// every reference before the first row, so neither an empty input nor
    /// a short-circuiting `AND`/`OR` in front of it hides it.
    #[test]
    fn filter_columns_are_validated_before_the_first_row() {
        let db = housing();
        let joined = join_tables(&db, &["neighborhood".into(), "apartment".into()]).unwrap();
        let nope = || Expr::col("nope").eq(Expr::lit(1i64));
        let count = |filter: Expr| {
            Query::new(["neighborhood", "apartment"])
                .filter(filter)
                .aggregate(Agg::CountStar)
        };

        let empty = joined.gather(&[]);
        let err = execute_on_join(&empty, &count(nope())).unwrap_err();
        assert!(matches!(err, DbError::UnknownColumn(_)), "{err:?}");

        let never = Expr::col("rent").lt(Expr::lit(0.0));
        let always = Expr::col("rent").gt(Expr::lit(0.0));
        for hidden in [never.clone().and(nope()), always.clone().or(nope())] {
            let err = execute_on_join(&joined, &count(hidden)).unwrap_err();
            assert!(matches!(err, DbError::UnknownColumn(_)), "{err:?}");
        }
        // `id` is both neighborhood.id and apartment.id.
        let ambiguous = never.and(Expr::col("id").eq(Expr::lit(1i64)));
        let err = execute_on_join(&joined, &count(ambiguous)).unwrap_err();
        assert!(matches!(err, DbError::AmbiguousColumn(_)), "{err:?}");
        // The interpreter's nodes are checked too.
        let arith = Expr::Arith(
            Box::new(Expr::col("nope")),
            crate::expr::ArithOp::Add,
            Box::new(Expr::lit(1i64)),
        );
        let err = execute_on_join(&empty, &count(arith.gt(Expr::lit(0i64)))).unwrap_err();
        assert!(matches!(err, DbError::UnknownColumn(_)), "{err:?}");
    }
}
