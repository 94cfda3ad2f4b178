//! Grouped aggregation.

use std::cmp::Ordering;
use std::sync::Arc;

use crate::column::Column;
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

/// Groups a table — or the visible columns and selected rows of a
/// [`TableView`] of one — by `group_by` columns and computes `aggs` per
/// group. Each group sees its rows in ascending order, so float sums do
/// not depend on how the rows were selected.
///
/// Without group-by columns a single row is produced (even for an empty
/// input, matching SQL's global aggregation semantics).
///
/// Everything per row runs on the columns' own storage: group keys packed
/// into `u64` words and mapped to dense group ids, then one loop per
/// aggregate into per-group slots. A [`Value`] exists only in the output.
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
    let rows = view.selection();

    // `gids[i]` is the group of `rows[i]`, `first[g]` the position in `rows`
    // of group `g`'s first row. No group column is one group, of no row too,
    // and no group ids: every row is in group 0.
    let (gids, first) = if group_idx.is_empty() {
        (None, vec![0])
    } else {
        let columns: Vec<&Column> = group_idx.iter().map(|&c| table.column(c)).collect();
        let (gids, first) = group_ids(&columns, &rows);
        (Some(gids), first)
    };

    // A group's key reads as its first row's does (`-0` or `0`). The output
    // order is total on distinct keys (numbers < NaN < NULL) but for `i64`s
    // that are one `f64`: those stay in order of first appearance.
    let cell = |i: u32, c: usize| table.value(rows[i as usize] as usize, c);
    let key = |&i: &u32| group_idx.iter().map(|&c| cell(i, c)).collect();
    let mut keys: Vec<Vec<Value>> = first.iter().map(key).collect();
    let rank = |v: &Value| 2 * v.is_null() as u8 + v.as_f64().is_some_and(f64::is_nan) as u8;
    let cmp = |(x, y): (&Value, &Value)| {
        let unordered = || rank(x).cmp(&rank(y));
        x.partial_cmp_sql(y).unwrap_or_else(unordered)
    };
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_by(|&a, &b| {
        let mut cells = keys[a].iter().zip(&keys[b]).map(cmp);
        cells.find(|ord| ord.is_ne()).unwrap_or(Ordering::Equal)
    });

    // Output schema, and every aggregate's value per group.
    let mut fields: Vec<Field> = group_idx
        .iter()
        .map(|&i| table.fields()[i].clone())
        .collect();
    let mut outputs: Vec<Vec<Value>> = Vec::with_capacity(aggs.len());
    for (agg, idx) in aggs.iter().zip(&agg_idx) {
        let Some(column) = idx.map(|c| table.column(c)) else {
            let mut group_rows = vec![0i64; first.len()];
            match &gids {
                Some(gids) => gids.iter().for_each(|&g| group_rows[g as usize] += 1),
                None => group_rows[0] = rows.len() as i64,
            }
            fields.push(Field::new(agg.output_name(), DataType::Int));
            outputs.push(group_rows.into_iter().map(Value::Int).collect());
            continue;
        };
        let dtype = match agg {
            Agg::CountStar | Agg::Count(_) => DataType::Int,
            Agg::Sum(_) | Agg::Avg(_) => DataType::Float,
            Agg::Min(_) | Agg::Max(_) => column.dtype(),
        };
        fields.push(Field::new(agg.output_name(), dtype));
        outputs.push(match &gids {
            Some(gids) => {
                let row_group = rows.iter().zip(gids);
                let row_group = row_group.map(|(&r, &g)| (r as usize, g as usize));
                accumulate(agg, column, row_group, first.len())
            }
            None => accumulate(agg, column, rows.iter().map(|&r| (r as usize, 0)), 1),
        });
    }
    let mut out = Table::new(format!("{}_agg", table.name()), fields);
    for g in order {
        let mut row = std::mem::take(&mut keys[g]);
        row.extend(outputs.iter().map(|cells| cells[g].clone()));
        out.push_row(&row)?;
    }
    Ok(out)
}

/// The slots a direct group table may have however few rows are selected.
const DIRECT_SLOTS: usize = 1 << 12;

/// Dense group ids in order of first appearance, `(gids, first)` as
/// [`aggregate`] names them. A key of one column whose domain is small
/// indexes a table of ids directly: a `Str` column by dictionary code (one
/// dictionary per column, so equal codes are equal strings), an `Int`
/// column by its offset from the least value of the selected rows, NULL in
/// a slot after the values'. **The rule:** the domain is small when its
/// slots (`dict.len() + 1`, or `max - min + 2` over the selected rows) are
/// at most [`DIRECT_SLOTS`] or the number of selected rows, whichever is
/// larger. Every other key (a `Float` column, several columns, an `Int`
/// span or a dictionary past the rule) is one word per column — the
/// `i64`'s bits, the `f64`'s once `-0.0` is `0.0` and every NaN is one NaN,
/// the dictionary code — and a NULL bit per column behind them, mapped to
/// ids through an open-addressing table: a group's key is its first row's.
/// Both tables give equal keys one id, so both give the same ids.
fn group_ids(columns: &[&Column], rows: &[u32]) -> (Vec<u32>, Vec<u32>) {
    let limit = DIRECT_SLOTS.max(rows.len());
    match columns {
        [Column::Str { dict, codes }] if dict.len() < limit => {
            let null = dict.len();
            return direct_ids(rows, null + 1, |r| codes[r].map_or(null, |c| c as usize));
        }
        [Column::Int(v)] => {
            let cells = rows.iter().filter_map(|&r| v[r as usize]);
            let (min, max) = cells.fold((i64::MAX, i64::MIN), |(lo, hi), x| (lo.min(x), hi.max(x)));
            // One slot per value of `min..=max` (none when no row holds one).
            let null = (max as i128 - min as i128 + 1).max(0);
            if null < limit as i128 {
                let (null, slot) = (null as usize, |x: i64| x.wrapping_sub(min) as u64 as usize);
                return direct_ids(rows, null + 1, |r| v[r].map_or(null, slot));
            }
        }
        _ => {}
    }

    let k = columns.len();
    let stride = k + k.div_ceil(64);
    let mut keys = vec![0u64; rows.len() * stride];
    for (c, column) in columns.iter().enumerate() {
        let slots = keys.chunks_exact_mut(stride).zip(rows);
        let null = (k + c / 64, 1 << (c % 64));
        match column {
            Column::Int(v) => pack(slots, c, null, |r| v[r].map(|x| x as u64)),
            Column::Float(v) => pack(slots, c, null, |r| {
                v[r].map(|x| if x.is_nan() { f64::NAN } else { x + 0.0 }.to_bits())
            }),
            Column::Str { codes, .. } => pack(slots, c, null, |r| codes[r].map(u64::from)),
        }
    }
    let key = |i: u32| &keys[i as usize * stride..][..stride];
    let hash = |i: u32| {
        let mix = |h: u64, &w: &u64| (h.rotate_left(5) ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        key(i).iter().fold(0, mix)
    };

    const EMPTY: u32 = u32::MAX;
    let mut bits = 4;
    let mut table = vec![EMPTY; 1 << bits];
    let mut first: Vec<u32> = Vec::new();
    let mut gids = Vec::with_capacity(rows.len());
    for i in 0..rows.len() as u32 {
        if 2 * first.len() >= table.len() {
            bits += 2;
            table = vec![EMPTY; 1 << bits];
            for (g, &f) in first.iter().enumerate() {
                let mut slot = (hash(f) >> (64 - bits)) as usize;
                while table[slot] != EMPTY {
                    slot = (slot + 1) % table.len();
                }
                table[slot] = g as u32;
            }
        }
        let mut slot = (hash(i) >> (64 - bits)) as usize;
        let gid = loop {
            match table[slot] {
                EMPTY => {
                    table[slot] = first.len() as u32;
                    first.push(i);
                    break table[slot];
                }
                g if key(first[g as usize]) == key(i) => break g,
                _ => slot = (slot + 1) % table.len(),
            }
        };
        gids.push(gid);
    }
    (gids, first)
}

/// [`group_ids`] through a table of `slots` ids indexed by a row's `slot`.
fn direct_ids(rows: &[u32], slots: usize, slot: impl Fn(usize) -> usize) -> (Vec<u32>, Vec<u32>) {
    let (mut table, mut first) = (vec![u32::MAX; slots], Vec::new());
    let gids = (0..).zip(rows).map(|(i, &r)| {
        let gid = &mut table[slot(r as usize)];
        if *gid == u32::MAX {
            *gid = first.len() as u32;
            first.push(i);
        }
        *gid
    });
    (gids.collect(), first)
}

/// One column's word, or its NULL bit (`null`: word and mask), into each key.
fn pack<'k>(
    slots: impl Iterator<Item = (&'k mut [u64], &'k u32)>,
    c: usize,
    null: (usize, u64),
    word: impl Fn(usize) -> Option<u64>,
) {
    for (key, &r) in slots {
        match word(r as usize) {
            Some(w) => key[c] = w,
            None => key[null.0] |= null.1,
        }
    }
}

/// One aggregate over one column: a typed loop over `(row, group)` pairs
/// into per-group slots, then a [`Value`] per group. As [`Value`] would:
/// `Sum`/`Avg` add an `i64` as `f64`, count a string without adding it and
/// end in the last NaN's bits, whichever operand order codegen picks;
/// `Min`/`Max` compare numbers as `f64`, and of two cells that tie or do
/// not compare (a NaN) the first stays.
fn accumulate(
    agg: &Agg,
    column: &Column,
    row_groups: impl Iterator<Item = (usize, usize)> + Clone,
    groups: usize,
) -> Vec<Value> {
    let row_group = || row_groups.clone();
    let want = match agg {
        Agg::Min(_) => Ordering::Less,
        Agg::Max(_) => Ordering::Greater,
        _ => {
            let (mut count, mut sum) = (vec![0i64; groups], vec![0.0f64; groups]);
            let mut add = |g: usize, x: Option<f64>| {
                if let Some(x) = x {
                    count[g] += 1;
                    sum[g] = if x.is_nan() { x } else { sum[g] + x };
                }
            };
            match column {
                Column::Int(v) => row_group().for_each(|(r, g)| add(g, v[r].map(|x| x as f64))),
                Column::Float(v) => row_group().for_each(|(r, g)| add(g, v[r])),
                Column::Str { codes, .. } => {
                    row_group().for_each(|(r, g)| add(g, codes[r].map(|_| 0.0)))
                }
            }
            let finish = |(n, sum): (i64, f64)| match agg {
                Agg::Count(_) => Value::Int(n),
                Agg::Avg(_) if n == 0 => Value::Null,
                Agg::Avg(_) => Value::Float(sum / n as f64),
                _ => Value::Float(sum),
            };
            return count.into_iter().zip(sum).map(finish).collect();
        }
    };
    match column {
        Column::Int(v) => {
            let cells = row_group().map(|(r, g)| (g, v[r]));
            let better = |x: i64, m: i64| (x as f64).partial_cmp(&(m as f64)) == Some(want);
            best(groups, cells, better, Value::Int)
        }
        Column::Float(v) => {
            let cells = row_group().map(|(r, g)| (g, v[r]));
            let better = |x: f64, m: f64| x.partial_cmp(&m) == Some(want);
            best(groups, cells, better, Value::Float)
        }
        Column::Str { dict, codes } => {
            let cells = row_group().map(|(r, g)| (g, codes[r]));
            let better = |x: u32, m: u32| x != m && dict.value(x).cmp(dict.value(m)) == want;
            best(groups, cells, better, |c| {
                Value::Str(Arc::clone(dict.value(c)))
            })
        }
    }
}

/// Per group a running best — its first cell, until one `better` than it
/// comes — as a `value`, NULL for a group of no cell.
fn best<T: Copy>(
    groups: usize,
    cells: impl Iterator<Item = (usize, Option<T>)>,
    better: impl Fn(T, T) -> bool,
    value: impl Fn(T) -> Value,
) -> Vec<Value> {
    let mut best = vec![None; groups];
    for (g, cell) in cells {
        if let Some(x) = cell {
            if best[g].is_none_or(|m| better(x, m)) {
                best[g] = Some(x);
            }
        }
    }
    let value = |cell: Option<T>| cell.map_or(Value::Null, &value);
    best.into_iter().map(value).collect()
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
