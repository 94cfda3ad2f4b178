//! Tables: a named schema plus columnar data.

use std::borrow::Cow;

use crate::column::Column;
use crate::error::{DbError, DbResult};
use crate::value::{DataType, Value};

/// A named, typed column of a table schema.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Field {
    pub name: String,
    pub dtype: DataType,
}

impl Field {
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Self {
            name: name.into(),
            dtype,
        }
    }
}

/// [`Table::resolve`]'s rule over any subset of a table's fields; returns
/// the position within `fields`.
fn resolve_among<'f>(
    table: &str,
    fields: impl Iterator<Item = &'f Field> + Clone,
    reference: &str,
) -> DbResult<usize> {
    if let Some(i) = fields.clone().position(|f| f.name == reference) {
        return Ok(i);
    }
    let mut qualified = fields.clone().enumerate().filter(|(_, f)| {
        f.name
            .strip_suffix(reference)
            .is_some_and(|table_part| table_part.ends_with('.'))
    });
    match (qualified.next(), qualified.next()) {
        (Some((i, _)), None) => return Ok(i),
        (Some(_), Some(_)) => return Err(DbError::AmbiguousColumn(reference.to_string())),
        _ => {}
    }
    if let Some((table_part, col_part)) = reference.rsplit_once('.') {
        if table_part == table {
            if let Some(i) = fields.clone().position(|f| f.name == col_part) {
                return Ok(i);
            }
        }
    }
    Err(DbError::UnknownColumn(format!(
        "{reference} in table {table}"
    )))
}

/// An in-memory table.
#[derive(Clone, Debug)]
pub struct Table {
    name: String,
    fields: Vec<Field>,
    columns: Vec<Column>,
    n_rows: usize,
}

impl Table {
    /// Creates an empty table with the given schema.
    pub fn new(name: impl Into<String>, fields: Vec<Field>) -> Self {
        let columns = fields.iter().map(|f| Column::new(f.dtype)).collect();
        Self {
            name: name.into(),
            fields,
            columns,
            n_rows: 0,
        }
    }

    /// Builds a table directly from columns (all lengths must agree).
    pub fn from_columns(
        name: impl Into<String>,
        fields: Vec<Field>,
        columns: Vec<Column>,
    ) -> DbResult<Self> {
        if fields.len() != columns.len() {
            return Err(DbError::ShapeMismatch("fields/columns count".into()));
        }
        let n_rows = columns.first().map_or(0, Column::len);
        for (f, c) in fields.iter().zip(&columns) {
            if c.len() != n_rows {
                return Err(DbError::ShapeMismatch(format!("column {} length", f.name)));
            }
            if c.dtype() != f.dtype {
                return Err(DbError::TypeMismatch {
                    expected: "field dtype",
                    found: format!("{}", c.dtype()),
                });
            }
        }
        Ok(Self {
            name: name.into(),
            fields,
            columns,
            n_rows,
        })
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Approximate resident size in bytes (sum of the columns' estimates
    /// plus field-name payload) — see [`Column::approx_bytes`].
    pub fn approx_bytes(&self) -> usize {
        let cols: usize = self.columns.iter().map(Column::approx_bytes).sum();
        let names: usize = self.fields.iter().map(|f| f.name.len() + 48).sum();
        cols + names
    }

    pub fn n_cols(&self) -> usize {
        self.fields.len()
    }

    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Resolves a possibly qualified column reference.
    ///
    /// Resolution order: exact match; stored-qualified vs bare reference
    /// (`apartment.price` matches reference `price`); bare-stored vs
    /// qualified reference (`price` matches reference `apartment.price`
    /// when this table is `apartment`). Ambiguity is an error.
    pub fn resolve(&self, reference: &str) -> DbResult<usize> {
        resolve_among(&self.name, self.fields.iter(), reference)
    }

    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    pub fn column_by_name(&self, reference: &str) -> DbResult<&Column> {
        Ok(&self.columns[self.resolve(reference)?])
    }

    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Appends a row of values in schema order.
    pub fn push_row(&mut self, row: &[Value]) -> DbResult<()> {
        if row.len() != self.columns.len() {
            return Err(DbError::ShapeMismatch(format!(
                "row arity {} vs schema {}",
                row.len(),
                self.columns.len()
            )));
        }
        for (col, v) in self.columns.iter_mut().zip(row) {
            col.push(v)?;
        }
        self.n_rows += 1;
        Ok(())
    }

    pub fn value(&self, row: usize, col: usize) -> Value {
        self.columns[col].get(row)
    }

    /// Materializes row `r` as a `Vec<Value>`.
    pub fn row(&self, r: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.get(r)).collect()
    }

    /// New table with rows gathered by `indices` (duplicates allowed).
    pub fn gather(&self, indices: &[usize]) -> Table {
        let columns = self.columns.iter().map(|c| c.gather(indices)).collect();
        Table {
            name: self.name.clone(),
            fields: self.fields.clone(),
            columns,
            n_rows: indices.len(),
        }
    }

    /// New table keeping only rows where `mask` is true.
    pub fn filter(&self, mask: &[bool]) -> Table {
        assert_eq!(mask.len(), self.n_rows, "mask length mismatch");
        let idx: Vec<usize> = mask
            .iter()
            .enumerate()
            .filter(|(_, &m)| m)
            .map(|(i, _)| i)
            .collect();
        self.gather(&idx)
    }

    /// Projects onto the referenced columns (in the given order).
    pub fn project(&self, references: &[&str]) -> DbResult<Table> {
        let mut fields = Vec::with_capacity(references.len());
        let mut columns = Vec::with_capacity(references.len());
        for r in references {
            let i = self.resolve(r)?;
            fields.push(self.fields[i].clone());
            columns.push(self.columns[i].clone());
        }
        Ok(Table {
            name: self.name.clone(),
            fields,
            columns,
            n_rows: self.n_rows,
        })
    }

    /// Appends all rows of `other`; schemas must match by position & dtype.
    pub fn union(&mut self, other: &Table) -> DbResult<()> {
        if self.fields.len() != other.fields.len() {
            return Err(DbError::ShapeMismatch("union arity".into()));
        }
        for ((a, b), f) in self
            .columns
            .iter_mut()
            .zip(&other.columns)
            .zip(&self.fields)
        {
            if a.dtype() != b.dtype() {
                return Err(DbError::TypeMismatch {
                    expected: "matching dtypes",
                    found: f.name.clone(),
                });
            }
            a.extend_from(b)?;
        }
        self.n_rows += other.n_rows;
        Ok(())
    }

    /// A copy with every unqualified field renamed to `table.field`.
    pub fn qualified(&self) -> Table {
        self.clone().into_qualified()
    }

    /// Renames every unqualified field to `table.field`.
    pub fn into_qualified(mut self) -> Table {
        for f in &mut self.fields {
            if !f.name.contains('.') {
                f.name = format!("{}.{}", self.name, f.name);
            }
        }
        self
    }

    /// Adds a column to the table (length must equal `n_rows`).
    pub fn add_column(&mut self, field: Field, column: Column) -> DbResult<()> {
        if column.len() != self.n_rows {
            return Err(DbError::ShapeMismatch(format!(
                "column {} length",
                field.name
            )));
        }
        self.fields.push(field);
        self.columns.push(column);
        Ok(())
    }

    /// Side-by-side concatenation of two tables with equal row counts.
    pub fn hstack(mut self, other: Table, name: impl Into<String>) -> DbResult<Table> {
        if self.n_rows != other.n_rows {
            return Err(DbError::ShapeMismatch("hstack row counts".into()));
        }
        self.name = name.into();
        self.fields.extend(other.fields);
        self.columns.extend(other.columns);
        Ok(self)
    }
}

/// A borrowed view of a table — what the filter/aggregate tail of a query
/// runs over instead of a copy. `(&table).into()` views all of it.
#[derive(Clone, Copy, Debug)]
pub struct TableView<'a> {
    pub table: &'a Table,
    /// The visible columns, if not all: names resolve among these alone, so
    /// a hidden column can neither shadow a visible one nor make a
    /// reference ambiguous.
    pub cols: Option<&'a [usize]>,
    /// The selected rows, ascending, if not all.
    pub rows: Option<&'a [u32]>,
}

impl<'a> From<&'a Table> for TableView<'a> {
    fn from(table: &'a Table) -> Self {
        Self {
            table,
            cols: None,
            rows: None,
        }
    }
}

impl<'a> TableView<'a> {
    /// The table's row indices in the view, ascending: the selection a
    /// typed loop runs over.
    pub(crate) fn selection(&self) -> Cow<'a, [u32]> {
        match self.rows {
            Some(rows) => Cow::Borrowed(rows),
            None => Cow::Owned((0..self.table.n_rows as u32).collect()),
        }
    }

    /// [`Table::resolve`] among the visible columns; returns the index of
    /// the column in the underlying table.
    pub fn resolve(&self, reference: &str) -> DbResult<usize> {
        let Some(cols) = self.cols else {
            return self.table.resolve(reference);
        };
        let visible = cols.iter().map(|&c| &self.table.fields[c]);
        resolve_among(&self.table.name, visible, reference).map(|i| cols[i])
    }

    /// Copies the view out as a table: the visible columns, the selected
    /// rows (one gather per column).
    pub fn materialize(&self) -> Table {
        let table = self.table;
        let rows = self
            .rows
            .map(|rows| rows.iter().map(|&r| r as usize).collect::<Vec<_>>());
        let all: Vec<usize> = (0..table.n_cols()).collect();
        let cols = self.cols.unwrap_or(&all);
        let column = |&c: &usize| match &rows {
            Some(rows) => table.columns[c].gather(rows),
            None => table.columns[c].clone(),
        };
        Table {
            name: table.name.clone(),
            fields: cols.iter().map(|&c| table.fields[c].clone()).collect(),
            columns: cols.iter().map(column).collect(),
            n_rows: rows.as_ref().map_or(table.n_rows, Vec::len),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn people() -> Table {
        let mut t = Table::new(
            "people",
            vec![
                Field::new("id", DataType::Int),
                Field::new("name", DataType::Str),
                Field::new("age", DataType::Float),
            ],
        );
        t.push_row(&[Value::Int(1), Value::str("ann"), Value::Float(31.0)])
            .unwrap();
        t.push_row(&[Value::Int(2), Value::str("bob"), Value::Float(25.0)])
            .unwrap();
        t.push_row(&[Value::Int(3), Value::Null, Value::Float(40.0)])
            .unwrap();
        t
    }

    #[test]
    fn push_and_read_rows() {
        let t = people();
        assert_eq!(t.n_rows(), 3);
        assert_eq!(t.value(1, 1), Value::str("bob"));
        assert!(t.value(2, 1).is_null());
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let mut t = people();
        assert!(t.push_row(&[Value::Int(9)]).is_err());
    }

    #[test]
    fn resolve_qualified_and_bare() {
        let t = people().qualified();
        assert_eq!(t.fields()[0].name, "people.id");
        assert!(t.resolve("id").is_ok());
        assert!(t.resolve("people.id").is_ok());
        assert!(t.resolve("nope").is_err());
        // bare table resolving a qualified reference
        let bare = people();
        assert!(bare.resolve("people.age").is_ok());
        assert!(bare.resolve("other.age").is_err());
    }

    #[test]
    fn ambiguous_reference_is_an_error() {
        let mut t = people().qualified();
        t.add_column(Field::new("pets.id", DataType::Int), {
            let mut c = Column::new(DataType::Int);
            for _ in 0..3 {
                c.push(&Value::Int(0)).unwrap();
            }
            c
        })
        .unwrap();
        assert!(matches!(t.resolve("id"), Err(DbError::AmbiguousColumn(_))));
    }

    #[test]
    fn filter_and_gather() {
        let t = people();
        let f = t.filter(&[true, false, true]);
        assert_eq!(f.n_rows(), 2);
        assert_eq!(f.value(1, 0), Value::Int(3));
        let g = t.gather(&[2, 2]);
        assert_eq!(g.n_rows(), 2);
        assert_eq!(g.value(0, 0), g.value(1, 0));
    }

    #[test]
    fn union_appends_rows() {
        let mut a = people();
        let b = people();
        a.union(&b).unwrap();
        assert_eq!(a.n_rows(), 6);
    }

    #[test]
    fn project_reorders_columns() {
        let t = people();
        let p = t.project(&["age", "id"]).unwrap();
        assert_eq!(p.fields()[0].name, "age");
        assert_eq!(p.value(0, 1), Value::Int(1));
    }

    #[test]
    fn hstack_requires_equal_rows() {
        let t = people();
        let short = t.filter(&[true, false, false]);
        assert!(t.clone().hstack(short, "x").is_err());
        let wide = t.clone().hstack(t.qualified(), "w").unwrap();
        assert_eq!(wide.n_cols(), 6);
    }
}
