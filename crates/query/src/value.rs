//! SQL values: attribute values plus NULL.

use ego_graph::AttrValue;
use std::fmt;

/// A value in a query result or expression.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// 64-bit integer (also node ids and census counts).
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
    /// Missing attribute.
    Null,
}

impl Value {
    /// Integer view.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Numeric view (ints widen).
    #[inline]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Is this NULL?
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// SQL-style comparison with numeric coercion; `None` for NULLs or
    /// incomparable types (a comparison involving them is never true).
    #[inline]
    pub fn compare(&self, other: &Value) -> Option<std::cmp::Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            _ => match (self.as_f64(), other.as_f64()) {
                (Some(a), Some(b)) => a.partial_cmp(&b),
                _ => None,
            },
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Null => write!(f, "NULL"),
        }
    }
}

impl From<AttrValue> for Value {
    fn from(v: AttrValue) -> Self {
        match v {
            AttrValue::Int(i) => Value::Int(i),
            AttrValue::Float(f) => Value::Float(f),
            AttrValue::Str(s) => Value::Str(s),
            AttrValue::Bool(b) => Value::Bool(b),
        }
    }
}

impl From<&AttrValue> for Value {
    fn from(v: &AttrValue) -> Self {
        v.clone().into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering::*;

    #[test]
    fn conversions() {
        assert_eq!(Value::from(AttrValue::Int(3)).as_int(), Some(3));
        assert_eq!(Value::from(AttrValue::Float(1.5)).as_f64(), Some(1.5));
        assert_eq!(Value::from(AttrValue::Bool(true)).as_bool(), Some(true));
        assert!(!Value::from(AttrValue::Str("x".into())).is_null());
    }

    #[test]
    fn comparisons() {
        assert_eq!(Value::Int(1).compare(&Value::Float(2.0)), Some(Less));
        assert_eq!(
            Value::Str("b".into()).compare(&Value::Str("a".into())),
            Some(Greater)
        );
        assert_eq!(Value::Null.compare(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).compare(&Value::Str("1".into())), None);
        assert_eq!(Value::Bool(true).compare(&Value::Bool(true)), Some(Equal));
    }

    #[test]
    fn display() {
        assert_eq!(Value::Int(5).to_string(), "5");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Str("hi".into()).to_string(), "hi");
    }
}
