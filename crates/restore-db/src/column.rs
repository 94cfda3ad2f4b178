//! Columnar storage. Strings are dictionary-encoded — the same dictionaries
//! double as the categorical token domains of the completion models.

use std::collections::HashMap;
use std::sync::Arc;

use crate::error::{DbError, DbResult};
use crate::value::{DataType, Value};

/// Interned string dictionary.
#[derive(Clone, Debug, Default)]
pub struct Dictionary {
    values: Vec<Arc<str>>,
    index: HashMap<Arc<str>, u32>,
}

impl Dictionary {
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the code of `s`, interning it if new.
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&c) = self.index.get(s) {
            return c;
        }
        let arc: Arc<str> = Arc::from(s);
        let code = self.values.len() as u32;
        self.values.push(Arc::clone(&arc));
        self.index.insert(arc, code);
        code
    }

    pub fn lookup(&self, s: &str) -> Option<u32> {
        self.index.get(s).copied()
    }

    pub fn value(&self, code: u32) -> &Arc<str> {
        &self.values[code as usize]
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// A typed column with per-row nullability.
#[derive(Clone, Debug)]
pub enum Column {
    Int(Vec<Option<i64>>),
    Float(Vec<Option<f64>>),
    Str {
        dict: Dictionary,
        codes: Vec<Option<u32>>,
    },
}

impl Column {
    pub fn new(dtype: DataType) -> Self {
        match dtype {
            DataType::Int => Column::Int(Vec::new()),
            DataType::Float => Column::Float(Vec::new()),
            DataType::Str => Column::Str {
                dict: Dictionary::new(),
                codes: Vec::new(),
            },
        }
    }

    pub fn with_capacity(dtype: DataType, cap: usize) -> Self {
        match dtype {
            DataType::Int => Column::Int(Vec::with_capacity(cap)),
            DataType::Float => Column::Float(Vec::with_capacity(cap)),
            DataType::Str => Column::Str {
                dict: Dictionary::new(),
                codes: Vec::with_capacity(cap),
            },
        }
    }

    /// A column of `n` NULLs.
    pub fn nulls(dtype: DataType, n: usize) -> Self {
        match dtype {
            DataType::Int => Column::Int(vec![None; n]),
            DataType::Float => Column::Float(vec![None; n]),
            DataType::Str => Column::Str {
                dict: Dictionary::new(),
                codes: vec![None; n],
            },
        }
    }

    pub fn dtype(&self) -> DataType {
        match self {
            Column::Int(_) => DataType::Int,
            Column::Float(_) => DataType::Float,
            Column::Str { .. } => DataType::Str,
        }
    }

    pub fn len(&self) -> usize {
        match self {
            Column::Int(v) => v.len(),
            Column::Float(v) => v.len(),
            Column::Str { codes, .. } => codes.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends a value, coercing ints/floats as needed.
    pub fn push(&mut self, value: &Value) -> DbResult<()> {
        match (self, value) {
            (Column::Int(v), Value::Int(i)) => v.push(Some(*i)),
            (Column::Int(v), Value::Null) => v.push(None),
            (Column::Float(v), Value::Float(f)) => v.push(Some(*f)),
            (Column::Float(v), Value::Int(i)) => v.push(Some(*i as f64)),
            (Column::Float(v), Value::Null) => v.push(None),
            (Column::Str { dict, codes }, Value::Str(s)) => {
                let c = dict.intern(s);
                codes.push(Some(c));
            }
            (Column::Str { codes, .. }, Value::Null) => codes.push(None),
            (col, v) => {
                return Err(DbError::TypeMismatch {
                    expected: match col.dtype() {
                        DataType::Int => "INT",
                        DataType::Float => "FLOAT",
                        DataType::Str => "STR",
                    },
                    found: format!("{v:?}"),
                })
            }
        }
        Ok(())
    }

    pub fn get(&self, row: usize) -> Value {
        match self {
            Column::Int(v) => v[row].map_or(Value::Null, Value::Int),
            Column::Float(v) => v[row].map_or(Value::Null, Value::Float),
            Column::Str { dict, codes } => {
                codes[row].map_or(Value::Null, |c| Value::Str(Arc::clone(dict.value(c))))
            }
        }
    }

    /// New column with rows gathered by `indices` (duplicates allowed).
    pub fn gather(&self, indices: &[usize]) -> Column {
        match self {
            Column::Int(v) => Column::Int(indices.iter().map(|&i| v[i]).collect()),
            Column::Float(v) => Column::Float(indices.iter().map(|&i| v[i]).collect()),
            Column::Str { dict, codes } => Column::Str {
                dict: dict.clone(),
                codes: indices.iter().map(|&i| codes[i]).collect(),
            },
        }
    }

    /// [`Column::gather`] with a dictionary of its own: only the strings the
    /// gathered rows use, in order of first appearance — the column that
    /// pushing those values one by one builds.
    pub fn gather_compact(&self, indices: &[usize]) -> Column {
        let mut out = Column::with_capacity(self.dtype(), indices.len());
        out.extend_from(&self.gather(indices))
            .expect("a gather keeps the dtype");
        out
    }

    /// Appends all rows of `other` (must have the same dtype). Strings are
    /// interned as their rows come — each source code translated once — so
    /// the dictionary is the one a row-by-row [`Column::push`] builds: only
    /// strings some row uses, in order of first appearance.
    pub fn extend_from(&mut self, other: &Column) -> DbResult<()> {
        match (self, other) {
            (Column::Int(rows), Column::Int(more)) => rows.extend_from_slice(more),
            (Column::Float(rows), Column::Float(more)) => rows.extend_from_slice(more),
            (
                Column::Str { dict, codes },
                Column::Str {
                    dict: from,
                    codes: more,
                },
            ) => {
                let mut remap: Vec<Option<u32>> = vec![None; from.len()];
                codes.extend(more.iter().map(|code| {
                    code.map(|c| {
                        *remap[c as usize].get_or_insert_with(|| dict.intern(from.value(c)))
                    })
                }));
            }
            (rows, more) => {
                return Err(DbError::ShapeMismatch(format!(
                    "cannot append {} column to {} column",
                    more.dtype(),
                    rows.dtype()
                )))
            }
        }
        Ok(())
    }

    /// Mean of non-null numeric values (`None` for string columns / all-null).
    pub fn mean(&self) -> Option<f64> {
        let mut sum = 0.0;
        let mut n = 0usize;
        for i in 0..self.len() {
            if let Some(x) = self.get(i).as_f64() {
                sum += x;
                n += 1;
            }
        }
        if n > 0 {
            Some(sum / n as f64)
        } else {
            None
        }
    }

    pub fn null_count(&self) -> usize {
        match self {
            Column::Int(v) => v.iter().filter(|x| x.is_none()).count(),
            Column::Float(v) => v.iter().filter(|x| x.is_none()).count(),
            Column::Str { codes, .. } => codes.iter().filter(|x| x.is_none()).count(),
        }
    }

    /// Approximate resident size in bytes — row storage plus, for string
    /// columns, the dictionary payload. Used by the serving cache's memory
    /// budget; an estimate (allocator slack and map overhead are not
    /// modeled), not an exact accounting.
    pub fn approx_bytes(&self) -> usize {
        match self {
            Column::Int(v) => v.len() * std::mem::size_of::<Option<i64>>(),
            Column::Float(v) => v.len() * std::mem::size_of::<Option<f64>>(),
            Column::Str { dict, codes } => {
                let strings: usize = (0..dict.len())
                    .map(|c| dict.value(c as u32).len() + std::mem::size_of::<Arc<str>>())
                    .sum();
                // Interned strings are held twice (value vec + index map).
                codes.len() * std::mem::size_of::<Option<u32>>() + 2 * strings
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dictionary_interning_is_stable() {
        let mut d = Dictionary::new();
        let a = d.intern("x");
        let b = d.intern("y");
        let a2 = d.intern("x");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(&**d.value(b), "y");
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn push_and_get_round_trip() {
        let mut c = Column::new(DataType::Str);
        c.push(&Value::str("a")).unwrap();
        c.push(&Value::Null).unwrap();
        c.push(&Value::str("a")).unwrap();
        assert_eq!(c.get(0), Value::str("a"));
        assert!(c.get(1).is_null());
        assert_eq!(c.len(), 3);
        assert_eq!(c.null_count(), 1);
    }

    #[test]
    fn int_widens_into_float_column() {
        let mut c = Column::new(DataType::Float);
        c.push(&Value::Int(2)).unwrap();
        assert_eq!(c.get(0), Value::Float(2.0));
    }

    #[test]
    fn type_mismatch_is_rejected() {
        let mut c = Column::new(DataType::Int);
        assert!(c.push(&Value::str("nope")).is_err());
    }

    #[test]
    fn gather_reorders_and_duplicates() {
        let mut c = Column::new(DataType::Int);
        for i in 0..4 {
            c.push(&Value::Int(i)).unwrap();
        }
        let g = c.gather(&[3, 0, 0]);
        assert_eq!(g.get(0), Value::Int(3));
        assert_eq!(g.get(1), Value::Int(0));
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn mean_skips_nulls() {
        let mut c = Column::new(DataType::Float);
        c.push(&Value::Float(1.0)).unwrap();
        c.push(&Value::Null).unwrap();
        c.push(&Value::Float(3.0)).unwrap();
        assert_eq!(c.mean(), Some(2.0));
    }
}
