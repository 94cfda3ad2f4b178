//! Scalar expressions for filter predicates.
//!
//! ReStore supports "arbitrary filter predicates" (§2.2) because filters run
//! on the completed join with normal operators — this module provides the
//! comparison / boolean / arithmetic expression tree those filters use.

use std::cmp::Ordering;

use crate::column::{Column, Dictionary};
use crate::error::DbResult;
use crate::table::{Table, TableView};
use crate::value::Value;

/// Comparison operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// Whether the comparison holds for an SQL ordering; `None` (a NULL or
    /// NaN operand, a string against a number) satisfies no operator.
    fn holds(self, ord: Option<Ordering>) -> bool {
        ord.is_some_and(|o| match self {
            CmpOp::Eq => o == Ordering::Equal,
            CmpOp::Ne => o != Ordering::Equal,
            CmpOp::Lt => o == Ordering::Less,
            CmpOp::Le => o != Ordering::Greater,
            CmpOp::Gt => o == Ordering::Greater,
            CmpOp::Ge => o != Ordering::Less,
        })
    }
}

/// Arithmetic operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
}

/// A scalar expression evaluated per row.
#[derive(Clone, Debug)]
pub enum Expr {
    /// Column reference (possibly qualified, e.g. `apartment.price`).
    Col(String),
    /// Literal value.
    Lit(Value),
    /// Comparison; SQL semantics (NULL compares to nothing → false).
    Cmp(Box<Expr>, CmpOp, Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Not(Box<Expr>),
    Arith(Box<Expr>, ArithOp, Box<Expr>),
    /// True when the inner expression is NULL.
    IsNull(Box<Expr>),
}

impl Expr {
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Col(name.into())
    }

    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }

    pub fn eq(self, rhs: Expr) -> Expr {
        Expr::Cmp(Box::new(self), CmpOp::Eq, Box::new(rhs))
    }

    pub fn ne(self, rhs: Expr) -> Expr {
        Expr::Cmp(Box::new(self), CmpOp::Ne, Box::new(rhs))
    }

    pub fn lt(self, rhs: Expr) -> Expr {
        Expr::Cmp(Box::new(self), CmpOp::Lt, Box::new(rhs))
    }

    pub fn le(self, rhs: Expr) -> Expr {
        Expr::Cmp(Box::new(self), CmpOp::Le, Box::new(rhs))
    }

    pub fn gt(self, rhs: Expr) -> Expr {
        Expr::Cmp(Box::new(self), CmpOp::Gt, Box::new(rhs))
    }

    pub fn ge(self, rhs: Expr) -> Expr {
        Expr::Cmp(Box::new(self), CmpOp::Ge, Box::new(rhs))
    }

    pub fn and(self, rhs: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(rhs))
    }

    pub fn or(self, rhs: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(rhs))
    }

    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }

    /// Evaluates the expression for row `row` of a table, or of the table
    /// under a view (names then resolve among its visible columns): the
    /// `Value` interpreter, which is the semantics of record —
    /// [`Expr::select`] is tested against it.
    pub fn eval<'a>(&self, view: impl Into<TableView<'a>>, row: usize) -> DbResult<Value> {
        let view = view.into();
        Ok(match self {
            Expr::Col(name) => view.table.value(row, view.resolve(name)?),
            Expr::Lit(v) => v.clone(),
            Expr::Cmp(a, op, b) => {
                let (va, vb) = (a.eval(view, row)?, b.eval(view, row)?);
                // Three-valued logic collapsed to false: a NULL operand
                // satisfies no comparison, `Ne` included.
                Value::Int(op.holds(va.partial_cmp_sql(&vb)) as i64)
            }
            Expr::And(a, b) => {
                Value::Int((a.eval_bool(view, row)? && b.eval_bool(view, row)?) as i64)
            }
            Expr::Or(a, b) => {
                Value::Int((a.eval_bool(view, row)? || b.eval_bool(view, row)?) as i64)
            }
            Expr::Not(a) => Value::Int(!a.eval_bool(view, row)? as i64),
            Expr::Arith(a, op, b) => {
                let (va, vb) = (a.eval(view, row)?, b.eval(view, row)?);
                match (va.as_f64(), vb.as_f64()) {
                    (Some(x), Some(y)) => {
                        let r = match op {
                            ArithOp::Add => x + y,
                            ArithOp::Sub => x - y,
                            ArithOp::Mul => x * y,
                            ArithOp::Div => {
                                if y == 0.0 {
                                    return Ok(Value::Null);
                                }
                                x / y
                            }
                        };
                        Value::Float(r)
                    }
                    _ => Value::Null,
                }
            }
            Expr::IsNull(a) => Value::Int(a.eval(view, row)?.is_null() as i64),
        })
    }

    /// Evaluates as a boolean; NULL and 0 are false.
    pub fn eval_bool<'a>(&self, view: impl Into<TableView<'a>>, row: usize) -> DbResult<bool> {
        Ok(match self.eval(view, row)? {
            Value::Null => false,
            Value::Int(i) => i != 0,
            Value::Float(f) => f != 0.0,
            Value::Str(_) => true,
        })
    }

    /// Evaluates the predicate for every row, returning the selection mask.
    pub fn eval_mask(&self, table: &Table) -> DbResult<Vec<bool>> {
        (0..table.n_rows())
            .map(|r| self.eval_bool(table, r))
            .collect()
    }

    /// Collects every column reference in the expression tree.
    pub fn collect_columns(&self, out: &mut Vec<String>) {
        match self {
            Expr::Col(name) => out.push(name.clone()),
            Expr::Lit(_) => {}
            Expr::Cmp(a, _, b) | Expr::And(a, b) | Expr::Or(a, b) | Expr::Arith(a, _, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
            Expr::Not(a) | Expr::IsNull(a) => a.collect_columns(out),
        }
    }

    /// The rows of `view` the predicate holds for ([`Expr::eval_bool`]),
    /// ascending. The predicate is bound to the view first, so an unknown
    /// or ambiguous column reference is an error whatever the rows hold.
    pub fn select(&self, view: TableView<'_>) -> DbResult<Vec<u32>> {
        self.bind(view)?.narrow(&view.selection())
    }

    /// Resolves every column name, once, and sets each column-vs-literal
    /// comparison up to run on the column's own storage.
    fn bind<'a>(&'a self, view: TableView<'a>) -> DbResult<BoundExpr<'a>> {
        if let Expr::Cmp(a, op, b) = self {
            if let (Expr::Col(name), Expr::Lit(lit)) = (&**a, &**b) {
                let column = view.table.column(view.resolve(name)?);
                return Ok(match (column, lit.as_f64(), lit) {
                    (Column::Int(v), Some(x), _) => BoundExpr::Int(v, *op, x),
                    (Column::Float(v), Some(x), _) => BoundExpr::Float(v, *op, x),
                    (Column::Str { dict, codes }, _, Value::Str(s)) => match op {
                        CmpOp::Eq | CmpOp::Ne => {
                            BoundExpr::StrCode(codes, dict.lookup(s), *op == CmpOp::Eq)
                        }
                        _ => BoundExpr::StrOrd(dict, codes, *op, s),
                    },
                    _ => BoundExpr::Never,
                });
            }
        }
        let bound = |e: &'a Expr| e.bind(view).map(Box::new);
        Ok(match self {
            Expr::And(a, b) => BoundExpr::And(bound(a)?, bound(b)?),
            Expr::Or(a, b) => BoundExpr::Or(bound(a)?, bound(b)?),
            Expr::Not(a) => BoundExpr::Not(bound(a)?),
            // The interpreter runs every other node, once its column
            // references are known to resolve.
            _ => {
                let mut names = Vec::new();
                self.collect_columns(&mut names);
                for name in &names {
                    view.resolve(name)?;
                }
                BoundExpr::Interpreted(self, view)
            }
        })
    }
}

/// A predicate bound to a [`TableView`] by [`Expr::bind`].
enum BoundExpr<'a> {
    /// Numeric column vs numeric literal, compared as `f64` — as
    /// [`Value::partial_cmp_sql`] compares them.
    Int(&'a [Option<i64>], CmpOp, f64),
    Float(&'a [Option<f64>], CmpOp, f64),
    /// String column `Eq` (`true`) / `Ne` a string literal, by dictionary
    /// code; `None` when the dictionary does not hold the literal.
    StrCode(&'a [Option<u32>], Option<u32>, bool),
    /// String column ordered against a string literal, by dictionary entry.
    StrOrd(&'a Dictionary, &'a [Option<u32>], CmpOp, &'a str),
    /// A comparison no row satisfies: a number against a string, or a NULL
    /// literal.
    Never,
    And(Box<BoundExpr<'a>>, Box<BoundExpr<'a>>),
    Or(Box<BoundExpr<'a>>, Box<BoundExpr<'a>>),
    Not(Box<BoundExpr<'a>>),
    /// Everything else runs through [`Expr::eval`]'s interpreter.
    Interpreted(&'a Expr, TableView<'a>),
}

impl BoundExpr<'_> {
    /// The rows of `rows` (ascending) that [`Expr::eval_bool`] holds for,
    /// ascending: a comparison is one branch-free loop over its column
    /// ([`keep`]), a connective combines its operands' selections.
    fn narrow(&self, rows: &[u32]) -> DbResult<Vec<u32>> {
        Ok(match self {
            BoundExpr::Int(v, op, lit) => compare(rows, *op, *lit, |r| v[r].map(|x| x as f64)),
            BoundExpr::Float(v, op, lit) => compare(rows, *op, *lit, |r| v[r]),
            BoundExpr::StrCode(codes, code, eq) => keep(rows, |r| {
                codes[r].is_some_and(|c| (Some(c) == *code) == *eq)
            }),
            BoundExpr::StrOrd(dict, codes, op, lit) => {
                compare(rows, *op, *lit, |r| codes[r].map(|c| &**dict.value(c)))
            }
            BoundExpr::Never => Vec::new(),
            BoundExpr::And(a, b) => b.narrow(&a.narrow(rows)?)?,
            BoundExpr::Or(a, b) => union(&a.narrow(rows)?, &b.narrow(rows)?),
            BoundExpr::Not(a) => difference(rows, &a.narrow(rows)?),
            BoundExpr::Interpreted(expr, view) => {
                let mut kept = Vec::new();
                for &r in rows {
                    if expr.eval_bool(*view, r as usize)? {
                        kept.push(r);
                    }
                }
                kept
            }
        })
    }
}

/// The rows of `rows` that `holds`, without a branch on the answer: every
/// row is written at the cursor, which advances only past the rows kept.
/// A leaf keeps a third to two thirds of its rows on the benchmark's
/// dashboards, where a branch around a push mispredicts most.
fn keep(rows: &[u32], holds: impl Fn(usize) -> bool) -> Vec<u32> {
    let mut kept = vec![0; rows.len()];
    let mut n = 0;
    for &r in rows {
        kept[n] = r;
        n += holds(r as usize) as usize;
    }
    kept.truncate(n);
    kept
}

/// The rows whose cell is not NULL and compares to `lit` as `op` says, the
/// operator chosen outside the loop. Unordered operands (a NaN) satisfy no
/// operator, `Ne` included — [`CmpOp::holds`] on a `partial_cmp`.
#[allow(clippy::double_comparisons)] // `x != lit` holds for a NaN
fn compare<T: PartialOrd + Copy>(
    rows: &[u32],
    op: CmpOp,
    lit: T,
    cell: impl Fn(usize) -> Option<T>,
) -> Vec<u32> {
    match op {
        CmpOp::Eq => keep(rows, |r| cell(r).is_some_and(|x| x == lit)),
        CmpOp::Ne => keep(rows, |r| cell(r).is_some_and(|x| x < lit || x > lit)),
        CmpOp::Lt => keep(rows, |r| cell(r).is_some_and(|x| x < lit)),
        CmpOp::Le => keep(rows, |r| cell(r).is_some_and(|x| x <= lit)),
        CmpOp::Gt => keep(rows, |r| cell(r).is_some_and(|x| x > lit)),
        CmpOp::Ge => keep(rows, |r| cell(r).is_some_and(|x| x >= lit)),
    }
}

/// The ascending merge of two ascending selections, a row in both once.
fn union(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        out.push(x.min(y));
        i += (x <= y) as usize;
        j += (y <= x) as usize;
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// The rows of `rows` that are not in its ascending sub-selection `drop`.
fn difference(rows: &[u32], drop: &[u32]) -> Vec<u32> {
    let mut drop = drop.iter().peekable();
    let kept = rows.iter().filter(|&r| drop.next_if_eq(&r).is_none());
    kept.copied().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Field;
    use crate::value::DataType;

    fn apartments() -> Table {
        let mut t = Table::new(
            "apartment",
            vec![
                Field::new("price", DataType::Float),
                Field::new("room_type", DataType::Str),
                Field::new("rooms", DataType::Int),
            ],
        );
        t.push_row(&[
            Value::Float(1000.0),
            Value::str("Entire home/apt"),
            Value::Int(3),
        ])
        .unwrap();
        t.push_row(&[
            Value::Float(500.0),
            Value::str("Private room"),
            Value::Int(1),
        ])
        .unwrap();
        t.push_row(&[Value::Null, Value::str("Entire home/apt"), Value::Int(2)])
            .unwrap();
        t
    }

    #[test]
    fn comparison_and_boolean_logic() {
        let t = apartments();
        let pred = Expr::col("price")
            .ge(Expr::lit(600.0))
            .and(Expr::col("room_type").eq(Expr::lit("Entire home/apt")));
        assert_eq!(pred.eval_mask(&t).unwrap(), vec![true, false, false]);
    }

    #[test]
    fn null_comparisons_are_false() {
        let t = apartments();
        let pred = Expr::col("price").lt(Expr::lit(1e9));
        assert_eq!(pred.eval_mask(&t).unwrap(), vec![true, true, false]);
        let isnull = Expr::IsNull(Box::new(Expr::col("price")));
        assert_eq!(isnull.eval_mask(&t).unwrap(), vec![false, false, true]);
    }

    #[test]
    fn arithmetic_with_division_by_zero() {
        let t = apartments();
        let e = Expr::Arith(
            Box::new(Expr::col("price")),
            ArithOp::Div,
            Box::new(Expr::lit(0.0)),
        );
        assert!(e.eval(&t, 0).unwrap().is_null());
        let e2 = Expr::Arith(
            Box::new(Expr::col("price")),
            ArithOp::Mul,
            Box::new(Expr::lit(2.0)),
        );
        assert_eq!(e2.eval(&t, 1).unwrap(), Value::Float(1000.0));
    }

    #[test]
    fn not_and_or() {
        let t = apartments();
        let pred = Expr::col("rooms")
            .eq(Expr::lit(1i64))
            .or(Expr::col("rooms").eq(Expr::lit(2i64)));
        assert_eq!(pred.eval_mask(&t).unwrap(), vec![false, true, true]);
        assert_eq!(
            pred.clone().not().eval_mask(&t).unwrap(),
            vec![true, false, false]
        );
    }

    #[test]
    fn unknown_column_errors() {
        let t = apartments();
        assert!(Expr::col("nope").eval(&t, 0).is_err());
    }

    #[test]
    fn int_literal_compares_to_float_column() {
        let t = apartments();
        let pred = Expr::col("price").ge(Expr::lit(500i64));
        assert_eq!(pred.eval_mask(&t).unwrap(), vec![true, true, false]);
    }

    /// `Or` merges and `Not` subtracts selections — sides that overlap, are
    /// disjoint, are empty — of rows that are not all of the table's.
    #[test]
    fn or_merges_and_not_subtracts_over_a_sub_selection() {
        let mut t = Table::new("t", vec![Field::new("x", DataType::Int)]);
        for x in 0..10i64 {
            t.push_row(&[Value::Int(x)]).unwrap();
        }
        let rows = [1u32, 2, 4, 5, 7, 8, 9];
        let view = TableView {
            rows: Some(&rows),
            ..(&t).into()
        };
        let x = || Expr::col("x");
        let select = |pred: Expr| pred.select(view).unwrap();
        let (low, high) = (x().lt(Expr::lit(5i64)), x().ge(Expr::lit(4i64)));
        let (none, all) = (x().lt(Expr::lit(0i64)), x().ge(Expr::lit(0i64)));
        // Overlapping (4 on both sides), disjoint and interleaved, empty.
        assert_eq!(select(low.clone().or(high.clone())), rows);
        let odd = x().eq(Expr::lit(1i64)).or(x().eq(Expr::lit(7i64)));
        let even = x().eq(Expr::lit(4i64)).or(x().eq(Expr::lit(8i64)));
        assert_eq!(select(odd.clone().or(even.clone())), [1, 4, 7, 8]);
        assert_eq!(select(even.or(odd)), [1, 4, 7, 8]);
        assert_eq!(select(none.clone().or(low.clone())), [1, 2, 4]);
        assert_eq!(select(low.clone().or(none.clone())), [1, 2, 4]);
        assert_eq!(select(none.clone().or(none.clone())), [0u32; 0]);
        // Not of everything, of nothing, of a run in the middle.
        assert_eq!(select(all.not()), [0u32; 0]);
        assert_eq!(select(none.not()), rows);
        assert_eq!(select(low.and(high).not()), [1, 2, 5, 7, 8, 9]);
    }
}
