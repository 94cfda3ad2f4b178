//! Scalar values and data types.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The data types the engine stores.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DataType {
    Int,
    Float,
    Str,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "INT"),
            DataType::Float => write!(f, "FLOAT"),
            DataType::Str => write!(f, "STR"),
        }
    }
}

/// A scalar value. `Null` is a member of every type.
#[derive(Clone, Debug)]
pub enum Value {
    Null,
    Int(i64),
    Float(f64),
    Str(Arc<str>),
}

impl Value {
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    pub fn dtype(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
        }
    }

    /// Numeric view: ints widen to floats; strings and nulls are `None`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) => Some(*f as i64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// SQL-style comparison: `Null` compares to nothing (returns `None`);
    /// ints and floats compare numerically; strings lexicographically.
    pub fn partial_cmp_sql(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (a, b) => {
                let (x, y) = (a.as_f64()?, b.as_f64()?);
                x.partial_cmp(&y)
            }
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            // Reflexive, as `Eq` promises: a NaN group key equals itself.
            (Value::Float(a), Value::Float(b)) => a == b || (a.is_nan() && b.is_nan()),
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => *a as f64 == *b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            // Equal values must hash alike: ints and equal-valued floats,
            // -0.0 and 0.0 (`-0.0 + 0.0` is `0.0`), NaNs of any payload.
            Value::Int(i) => (*i as f64).to_bits().hash(state),
            Value::Float(f) if f.is_nan() => f64::NAN.to_bits().hash(state),
            Value::Float(f) => (f + 0.0).to_bits().hash(state),
            Value::Str(s) => s.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn int_float_equality_and_hash_agree() {
        let a = Value::Int(3);
        let b = Value::Float(3.0);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn signed_zeros_and_nans_are_one_key_each() {
        let (neg, pos) = (Value::Float(-0.0), Value::Float(0.0));
        assert_eq!(neg, pos);
        assert_eq!(hash_of(&neg), hash_of(&pos));
        assert_eq!(hash_of(&pos), hash_of(&Value::Int(0)));
        let (nan, other_nan) = (Value::Float(f64::NAN), Value::Float(-f64::NAN));
        assert_eq!(nan, nan.clone(), "Eq must be reflexive");
        assert_eq!(nan, other_nan);
        assert_eq!(hash_of(&nan), hash_of(&other_nan));
        assert_ne!(nan, Value::Float(0.0));
        assert_ne!(nan, Value::Null);
    }

    #[test]
    fn null_is_incomparable() {
        assert_eq!(Value::Null.partial_cmp_sql(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).partial_cmp_sql(&Value::Null), None);
    }

    #[test]
    fn string_comparison_is_lexicographic() {
        let a = Value::str("apple");
        let b = Value::str("banana");
        assert_eq!(a.partial_cmp_sql(&b), Some(Ordering::Less));
    }

    #[test]
    fn mixed_numeric_comparison() {
        assert_eq!(
            Value::Int(2).partial_cmp_sql(&Value::Float(2.5)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn string_never_equals_number() {
        assert_ne!(Value::str("1"), Value::Int(1));
    }
}
