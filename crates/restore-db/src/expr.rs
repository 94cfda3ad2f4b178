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
        let bound = self.bind(view)?;
        let mut selected = Vec::new();
        for row in view.rows() {
            if bound.matches(view, row)? {
                selected.push(row as u32);
            }
        }
        Ok(selected)
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
                BoundExpr::Interpreted(self)
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
    Interpreted(&'a Expr),
}

impl BoundExpr<'_> {
    /// [`Expr::eval_bool`] for row `row` of the underlying table.
    fn matches(&self, view: TableView<'_>, row: usize) -> DbResult<bool> {
        Ok(match self {
            BoundExpr::Int(v, op, lit) => {
                v[row].is_some_and(|x| op.holds((x as f64).partial_cmp(lit)))
            }
            BoundExpr::Float(v, op, lit) => v[row].is_some_and(|x| op.holds(x.partial_cmp(lit))),
            BoundExpr::StrCode(codes, code, eq) => {
                codes[row].is_some_and(|c| (Some(c) == *code) == *eq)
            }
            BoundExpr::StrOrd(dict, codes, op, lit) => {
                codes[row].is_some_and(|c| op.holds(Some((**dict.value(c)).cmp(lit))))
            }
            BoundExpr::Never => false,
            BoundExpr::And(a, b) => a.matches(view, row)? && b.matches(view, row)?,
            BoundExpr::Or(a, b) => a.matches(view, row)? || b.matches(view, row)?,
            BoundExpr::Not(a) => !a.matches(view, row)?,
            BoundExpr::Interpreted(expr) => expr.eval_bool(view, row)?,
        })
    }
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
}
