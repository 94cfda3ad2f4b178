//! Hash equi-join along foreign keys.

use std::collections::HashMap;
use std::hash::Hash;

use crate::column::Column;
use crate::error::DbResult;
use crate::table::Table;

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

/// The probe half of [`hash_join`]: which rows of each input pair up, in
/// the order `hash_join` stacks them, and how many partners each left row
/// has — the raw material of tuple factors and of the incompleteness join
/// (which left rows lack partners, §4.2).
#[derive(Debug, Default)]
pub struct JoinPairs {
    /// For each pair: the row of the left input.
    pub left_indices: Vec<usize>,
    /// For each pair: the row of the right input.
    pub right_indices: Vec<usize>,
    /// For each left row: its number of partners.
    pub partners: Vec<usize>,
}

/// The row pairs of `left ⋈ right` on `left.left_on == right.right_on`,
/// without the joined table. NULL keys never match (SQL semantics).
pub fn join_pairs(
    left: &Table,
    left_on: &str,
    right: &Table,
    right_on: &str,
) -> DbResult<JoinPairs> {
    let lcol = left.resolve(left_on)?;
    let rcol = right.resolve(right_on)?;
    let mut pairs = JoinPairs::default();
    probe_keys(left.column(lcol), right.column(rcol), |l, partners| {
        pairs.partners.push(partners.len());
        for &r in partners {
            pairs.left_indices.push(l);
            pairs.right_indices.push(r);
        }
    });
    Ok(pairs)
}

impl JoinPairs {
    /// The gather half of [`hash_join`]: the paired rows of each input,
    /// their fields qualified (`table.column`) so names never collide,
    /// stacked side by side.
    pub fn gather(&self, left: &Table, right: &Table, out_name: &str) -> DbResult<Table> {
        let lgath = left.gather(&self.left_indices).into_qualified();
        let rgath = right.gather(&self.right_indices).into_qualified();
        lgath.hstack(rgath, out_name)
    }
}

/// Inner hash join `left ⋈ right` on `left.left_on == right.right_on`:
/// [`join_pairs`], then [`JoinPairs::gather`].
pub fn hash_join(
    left: &Table,
    left_on: &str,
    right: &Table,
    right_on: &str,
    out_name: &str,
) -> DbResult<Table> {
    join_pairs(left, left_on, right, right_on)?.gather(left, right, out_name)
}

/// What every tuple-factor metadata column's name starts with.
pub const TF_COLUMN_PREFIX: &str = "__tf_";

/// Name of the tuple-factor metadata column a parent table carries for an
/// incomplete child (`TFApartments` in Fig. 1a), NULL where the factor is
/// unknown.
pub fn tf_column_name(child_table: &str) -> String {
    format!("{TF_COLUMN_PREFIX}{child_table}")
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
        let pairs = join_pairs(&p, "id", &c, "pid").unwrap();
        // Reference: nested loop.
        let mut expect = 0;
        for i in 0..p.n_rows() {
            for j in 0..c.n_rows() {
                if p.value(i, 0) == c.value(j, 0) && !p.value(i, 0).is_null() {
                    expect += 1;
                }
            }
        }
        assert_eq!(out.n_rows(), expect);
        assert_eq!(out.n_rows(), 3);
        // Provenance lines up.
        for (k, (&l, &r)) in pairs
            .left_indices
            .iter()
            .zip(&pairs.right_indices)
            .enumerate()
        {
            assert_eq!(out.value(k, 0), p.value(l, 0));
            assert_eq!(out.value(k, 3), c.value(r, 1));
        }
    }

    #[test]
    fn partners_are_counted_per_left_row() {
        let out = join_pairs(&parent(), "id", &child(), "pid").unwrap();
        assert_eq!(out.partners, vec![2, 0, 1]); // id=2 has no children
    }

    #[test]
    fn null_keys_never_match() {
        let out = join_pairs(&child(), "pid", &parent(), "id").unwrap();
        // The NULL child is unmatched even though no parent key is NULL.
        assert_eq!(out.partners[3], 0);
    }

    #[test]
    fn qualified_output_names() {
        let out = hash_join(&parent(), "id", &child(), "pid", "j").unwrap();
        let names: Vec<&str> = out.fields().iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["p.id", "p.x", "c.pid", "c.y"]);
    }
}
