//! Hash equi-join along foreign keys.

use std::collections::HashMap;
use std::hash::Hash;

use crate::column::Column;
use crate::error::DbResult;
use crate::table::Table;

/// Result of a hash join, keeping the row provenance that ReStore's
/// incompleteness join needs (which left rows had no partner, §4.2).
#[derive(Debug)]
pub struct JoinOutput {
    /// The joined table (columns of both inputs, qualified names).
    pub table: Table,
    /// For each output row: the source row in the left input.
    pub left_indices: Vec<usize>,
    /// For each output row: the source row in the right input.
    pub right_indices: Vec<usize>,
    /// Left rows that found no join partner.
    pub unmatched_left: Vec<usize>,
}

/// Builds a hash table on the right keys, then calls `visit(l, partners)`
/// for every left row in order, with the right rows (ascending) whose key
/// equals its own. NULL keys (`None`) have no partners.
fn probe<K: Hash + Eq>(
    left: impl Iterator<Item = Option<K>>,
    right: impl Iterator<Item = Option<K>>,
    mut visit: impl FnMut(usize, &[usize]),
) {
    let mut build: HashMap<K, Vec<usize>> = HashMap::new();
    for (r, key) in right.enumerate() {
        if let Some(key) = key {
            build.entry(key).or_default().push(r);
        }
    }
    for (l, key) in left.enumerate() {
        let partners = key.and_then(|key| build.get(&key));
        visit(l, partners.map_or(&[], Vec::as_slice));
    }
}

/// [`probe`] on the columns' own storage when both keys are `Int`, or both
/// `Str` (by content — each side has its own dictionary). Every other
/// pairing compares as [`Value`](crate::value::Value)s do, under which
/// `Int` 1 equals `Float` 1.0.
fn probe_keys<'a>(left: &'a Column, right: &'a Column, visit: impl FnMut(usize, &[usize])) {
    match (left, right) {
        (Column::Int(l), Column::Int(r)) => probe(l.iter().copied(), r.iter().copied(), visit),
        (Column::Str { dict: ld, codes: l }, Column::Str { dict: rd, codes: r }) => probe(
            l.iter().map(|c| c.map(|c| &**ld.value(c))),
            r.iter().map(|c| c.map(|c| &**rd.value(c))),
            visit,
        ),
        _ => {
            let values = |col: &'a Column| {
                (0..col.len()).map(move |i| Some(col.get(i)).filter(|v| !v.is_null()))
            };
            probe(values(left), values(right), visit)
        }
    }
}

/// Inner hash join `left ⋈ right` on `left.left_on == right.right_on`.
///
/// The matched rows are gathered from each input and their fields
/// qualified (`table.column`) before stacking, so column names never
/// collide. NULL keys never match (SQL semantics).
pub fn hash_join(
    left: &Table,
    left_on: &str,
    right: &Table,
    right_on: &str,
    out_name: &str,
) -> DbResult<JoinOutput> {
    let lcol = left.resolve(left_on)?;
    let rcol = right.resolve(right_on)?;
    let mut left_indices = Vec::new();
    let mut right_indices = Vec::new();
    let mut unmatched_left = Vec::new();
    probe_keys(left.column(lcol), right.column(rcol), |l, partners| {
        if partners.is_empty() {
            unmatched_left.push(l);
        }
        for &r in partners {
            left_indices.push(l);
            right_indices.push(r);
        }
    });
    let lgath = left.gather(&left_indices).into_qualified();
    let rgath = right.gather(&right_indices).into_qualified();
    Ok(JoinOutput {
        table: lgath.hstack(rgath, out_name)?,
        left_indices,
        right_indices,
        unmatched_left,
    })
}

/// What every tuple-factor metadata column's name starts with.
pub const TF_COLUMN_PREFIX: &str = "__tf_";

/// Name of the tuple-factor metadata column a parent table carries for an
/// incomplete child (`TFApartments` in Fig. 1a), NULL where the factor is
/// unknown.
pub fn tf_column_name(child_table: &str) -> String {
    format!("{TF_COLUMN_PREFIX}{child_table}")
}

/// Number of join partners each left row has in `right` — the raw material
/// for tuple factors.
pub fn partner_counts(
    left: &Table,
    left_on: &str,
    right: &Table,
    right_on: &str,
) -> DbResult<Vec<usize>> {
    let lcol = left.resolve(left_on)?;
    let rcol = right.resolve(right_on)?;
    let mut counts = Vec::with_capacity(left.n_rows());
    probe_keys(left.column(lcol), right.column(rcol), |_, partners| {
        counts.push(partners.len())
    });
    Ok(counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Field;
    use crate::value::{DataType, Value};

    fn parent() -> Table {
        let mut t = Table::new(
            "p",
            vec![
                Field::new("id", DataType::Int),
                Field::new("x", DataType::Str),
            ],
        );
        t.push_row(&[Value::Int(1), Value::str("a")]).unwrap();
        t.push_row(&[Value::Int(2), Value::str("b")]).unwrap();
        t.push_row(&[Value::Int(3), Value::str("c")]).unwrap();
        t
    }

    fn child() -> Table {
        let mut t = Table::new(
            "c",
            vec![
                Field::new("pid", DataType::Int),
                Field::new("y", DataType::Float),
            ],
        );
        t.push_row(&[Value::Int(1), Value::Float(10.0)]).unwrap();
        t.push_row(&[Value::Int(1), Value::Float(20.0)]).unwrap();
        t.push_row(&[Value::Int(3), Value::Float(30.0)]).unwrap();
        t.push_row(&[Value::Null, Value::Float(99.0)]).unwrap();
        t
    }

    #[test]
    fn join_matches_nested_loop_reference() {
        let p = parent();
        let c = child();
        let out = hash_join(&p, "id", &c, "pid", "j").unwrap();
        // Reference: nested loop.
        let mut expect = 0;
        for i in 0..p.n_rows() {
            for j in 0..c.n_rows() {
                if p.value(i, 0) == c.value(j, 0) && !p.value(i, 0).is_null() {
                    expect += 1;
                }
            }
        }
        assert_eq!(out.table.n_rows(), expect);
        assert_eq!(out.table.n_rows(), 3);
        // Provenance lines up.
        for (k, (&l, &r)) in out.left_indices.iter().zip(&out.right_indices).enumerate() {
            assert_eq!(out.table.value(k, 0), p.value(l, 0));
            assert_eq!(out.table.value(k, 3), c.value(r, 1));
        }
    }

    #[test]
    fn unmatched_left_rows_are_reported() {
        let p = parent();
        let c = child();
        let out = hash_join(&p, "id", &c, "pid", "j").unwrap();
        assert_eq!(out.unmatched_left, vec![1]); // id=2 has no children
    }

    #[test]
    fn null_keys_never_match() {
        let p = parent();
        let c = child();
        let out = hash_join(&c, "pid", &p, "id", "j").unwrap();
        // The NULL child is unmatched even though no parent key is NULL.
        assert!(out.unmatched_left.contains(&3));
    }

    #[test]
    fn qualified_output_names() {
        let out = hash_join(&parent(), "id", &child(), "pid", "j").unwrap();
        let names: Vec<&str> = out.table.fields().iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["p.id", "p.x", "c.pid", "c.y"]);
    }

    #[test]
    fn partner_counts_match_join() {
        let p = parent();
        let c = child();
        let counts = partner_counts(&p, "id", &c, "pid").unwrap();
        assert_eq!(counts, vec![2, 0, 1]);
    }
}
