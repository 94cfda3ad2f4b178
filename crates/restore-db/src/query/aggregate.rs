//! Grouped aggregation.

use std::collections::HashMap;

use crate::error::{DbError, DbResult};
use crate::table::{Field, Table, TableView};
use crate::value::{DataType, Value};

/// Aggregate functions supported by the SPJA executor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Agg {
    /// `COUNT(*)`
    CountStar,
    /// `COUNT(col)` — non-null values.
    Count(String),
    /// `SUM(col)`
    Sum(String),
    /// `AVG(col)`
    Avg(String),
    /// `MIN(col)`
    Min(String),
    /// `MAX(col)`
    Max(String),
}

impl Agg {
    /// Output column name, e.g. `sum_price`.
    pub fn output_name(&self) -> String {
        match self {
            Agg::CountStar => "count".to_string(),
            Agg::Count(c) => format!("count_{}", short(c)),
            Agg::Sum(c) => format!("sum_{}", short(c)),
            Agg::Avg(c) => format!("avg_{}", short(c)),
            Agg::Min(c) => format!("min_{}", short(c)),
            Agg::Max(c) => format!("max_{}", short(c)),
        }
    }

    pub fn input_column(&self) -> Option<&str> {
        match self {
            Agg::CountStar => None,
            Agg::Count(c) | Agg::Sum(c) | Agg::Avg(c) | Agg::Min(c) | Agg::Max(c) => Some(c),
        }
    }
}

fn short(name: &str) -> &str {
    name.rsplit('.').next().unwrap_or(name)
}

struct AggState {
    count: usize,
    sum: f64,
    min: Option<Value>,
    max: Option<Value>,
}

impl AggState {
    fn new() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            min: None,
            max: None,
        }
    }

    fn update(&mut self, v: &Value) {
        if v.is_null() {
            return;
        }
        self.count += 1;
        if let Some(x) = v.as_f64() {
            self.sum += x;
        }
        let better_min = self
            .min
            .as_ref()
            .is_none_or(|m| matches!(v.partial_cmp_sql(m), Some(std::cmp::Ordering::Less)));
        if better_min {
            self.min = Some(v.clone());
        }
        let better_max = self
            .max
            .as_ref()
            .is_none_or(|m| matches!(v.partial_cmp_sql(m), Some(std::cmp::Ordering::Greater)));
        if better_max {
            self.max = Some(v.clone());
        }
    }

    fn finish(&self, agg: &Agg, group_rows: usize) -> Value {
        match agg {
            Agg::CountStar => Value::Int(group_rows as i64),
            Agg::Count(_) => Value::Int(self.count as i64),
            Agg::Sum(_) => Value::Float(self.sum),
            Agg::Avg(_) => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float(self.sum / self.count as f64)
                }
            }
            Agg::Min(_) => self.min.clone().unwrap_or(Value::Null),
            Agg::Max(_) => self.max.clone().unwrap_or(Value::Null),
        }
    }
}

/// Groups a table — or the visible columns and selected rows of a
/// [`TableView`] of one — by `group_by` columns and computes `aggs` per
/// group. Each group sees its rows in ascending order, so float sums do
/// not depend on how the rows were selected.
///
/// Without group-by columns a single row is produced (even for an empty
/// input, matching SQL's global aggregation semantics).
pub fn aggregate<'a>(
    table: impl Into<TableView<'a>>,
    group_by: &[String],
    aggs: &[Agg],
) -> DbResult<Table> {
    if aggs.is_empty() {
        return Err(DbError::InvalidQuery(
            "aggregation without aggregate functions".into(),
        ));
    }
    let view = table.into();
    let table = view.table;
    let group_idx: Vec<usize> = group_by
        .iter()
        .map(|g| view.resolve(g))
        .collect::<DbResult<_>>()?;
    let agg_idx: Vec<Option<usize>> = aggs
        .iter()
        .map(|a| a.input_column().map(|c| view.resolve(c)).transpose())
        .collect::<DbResult<_>>()?;

    // Group rows.
    let mut groups: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
    if group_idx.is_empty() {
        groups.insert(Vec::new(), view.rows().collect());
    } else {
        for r in view.rows() {
            let key: Vec<Value> = group_idx.iter().map(|&c| table.value(r, c)).collect();
            groups.entry(key).or_default().push(r);
        }
    }

    // Deterministic output order, total on distinct keys (numbers < NaN <
    // NULL) so that the map's iteration order never shows.
    let rank = |v: &Value| 2 * v.is_null() as u8 + v.as_f64().is_some_and(f64::is_nan) as u8;
    let mut keys: Vec<&Vec<Value>> = groups.keys().collect();
    keys.sort_by(|a, b| {
        for (x, y) in a.iter().zip(b.iter()) {
            let ord = x
                .partial_cmp_sql(y)
                .unwrap_or_else(|| rank(x).cmp(&rank(y)));
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });

    // Output schema.
    let mut fields: Vec<Field> = group_idx
        .iter()
        .map(|&i| table.fields()[i].clone())
        .collect();
    for (agg, idx) in aggs.iter().zip(&agg_idx) {
        let dtype = match agg {
            Agg::CountStar | Agg::Count(_) => DataType::Int,
            Agg::Sum(_) | Agg::Avg(_) => DataType::Float,
            Agg::Min(_) | Agg::Max(_) => table.fields()[idx.unwrap()].dtype,
        };
        fields.push(Field::new(agg.output_name(), dtype));
    }
    let mut out = Table::new(format!("{}_agg", table.name()), fields);

    for key in keys {
        let rows = &groups[key];
        let mut row: Vec<Value> = key.clone();
        for (agg, idx) in aggs.iter().zip(&agg_idx) {
            let mut state = AggState::new();
            if let Some(c) = idx {
                for &r in rows {
                    state.update(&table.value(r, *c));
                }
            }
            row.push(state.finish(agg, rows.len()));
        }
        out.push_row(&row)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sales() -> Table {
        let mut t = Table::new(
            "sales",
            vec![
                Field::new("region", DataType::Str),
                Field::new("amount", DataType::Float),
            ],
        );
        for (r, a) in [
            ("east", 10.0),
            ("east", 20.0),
            ("west", 5.0),
            ("west", 15.0),
            ("west", 10.0),
        ] {
            t.push_row(&[Value::str(r), Value::Float(a)]).unwrap();
        }
        t.push_row(&[Value::str("east"), Value::Null]).unwrap();
        t
    }

    #[test]
    fn grouped_aggregates_match_reference() {
        let t = sales();
        let out = aggregate(
            &t,
            &["region".into()],
            &[
                Agg::CountStar,
                Agg::Sum("amount".into()),
                Agg::Avg("amount".into()),
            ],
        )
        .unwrap();
        assert_eq!(out.n_rows(), 2);
        // east: 3 rows, sum 30 (null skipped), avg 15
        assert_eq!(out.value(0, 0), Value::str("east"));
        assert_eq!(out.value(0, 1), Value::Int(3));
        assert_eq!(out.value(0, 2), Value::Float(30.0));
        assert_eq!(out.value(0, 3), Value::Float(15.0));
        // west: 3 rows, sum 30, avg 10
        assert_eq!(out.value(1, 1), Value::Int(3));
        assert_eq!(out.value(1, 3), Value::Float(10.0));
    }

    #[test]
    fn global_aggregate_without_groups() {
        let t = sales();
        let out = aggregate(
            &t,
            &[],
            &[Agg::Min("amount".into()), Agg::Max("amount".into())],
        )
        .unwrap();
        assert_eq!(out.n_rows(), 1);
        assert_eq!(out.value(0, 0), Value::Float(5.0));
        assert_eq!(out.value(0, 1), Value::Float(20.0));
    }

    #[test]
    fn empty_input_global_aggregate() {
        let t = Table::new("e", vec![Field::new("x", DataType::Float)]);
        let out = aggregate(&t, &[], &[Agg::CountStar, Agg::Avg("x".into())]).unwrap();
        assert_eq!(out.n_rows(), 1);
        assert_eq!(out.value(0, 0), Value::Int(0));
        assert!(out.value(0, 1).is_null());
    }

    #[test]
    fn count_col_skips_nulls() {
        let t = sales();
        let out = aggregate(&t, &[], &[Agg::CountStar, Agg::Count("amount".into())]).unwrap();
        assert_eq!(out.value(0, 0), Value::Int(6));
        assert_eq!(out.value(0, 1), Value::Int(5));
    }

    #[test]
    fn output_is_sorted_by_group_key() {
        let t = sales();
        let out = aggregate(&t, &["region".into()], &[Agg::CountStar]).unwrap();
        assert_eq!(out.value(0, 0), Value::str("east"));
        assert_eq!(out.value(1, 0), Value::str("west"));
    }

    #[test]
    fn zeros_nans_and_nulls_group_once_each_in_a_total_order() {
        let mut t = Table::new("t", vec![Field::new("x", DataType::Float)]);
        let nan = f64::NAN;
        for x in [nan, 0.0, -1.0, -0.0, nan, 2.0, -nan, 0.0] {
            t.push_row(&[Value::Float(x)]).unwrap();
            t.push_row(&[Value::Null]).unwrap();
        }
        let out = aggregate(&t, &["x".into()], &[Agg::CountStar]).unwrap();
        let groups: Vec<String> = (0..out.n_rows())
            .map(|r| format!("{}: {}", out.value(r, 0), out.value(r, 1)))
            .collect();
        assert_eq!(groups, ["-1: 1", "0: 3", "2: 1", "NaN: 3", "NULL: 8"]);
    }

    #[test]
    fn no_aggs_is_invalid() {
        let t = sales();
        assert!(aggregate(&t, &[], &[]).is_err());
    }
}
