//! SQL values: attribute values plus NULL.

use ego_graph::AttrValue;
use std::cmp::Ordering;
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
    /// Two `Int`s compare exactly; an `Int` and a `Float` compare as
    /// `f64`.
    #[inline]
    pub fn compare(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            _ => match (self.as_f64(), other.as_f64()) {
                (Some(a), Some(b)) => a.partial_cmp(&b),
                _ => None,
            },
        }
    }

    /// A total order over non-NULL values, for ranking an ORDER BY
    /// column: numbers (`Int`, and `Float` but NaN) by exact value, then
    /// NaN, then strings, then booleans. It is [`Value::compare`]
    /// wherever that orders two values, except an `Int` and a `Float`
    /// that `f64` cannot tell apart (beyond 2^53): `compare` calls them
    /// equal, which is not transitive, and this orders them exactly.
    pub(crate) fn total_cmp(&self, other: &Value) -> Ordering {
        match (self, other) {
            (&Value::Int(i), &Value::Float(f)) if !f.is_nan() => int_float_cmp(i, f),
            (&Value::Float(f), &Value::Int(i)) if !f.is_nan() => int_float_cmp(i, f).reverse(),
            _ => self
                .compare(other)
                .unwrap_or_else(|| self.type_rank().cmp(&other.type_rank())),
        }
    }

    /// Where [`Value::total_cmp`] puts a value's type: numbers, NaN,
    /// strings, booleans, NULL.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Int(_) => 0,
            Value::Float(f) => u8::from(f.is_nan()),
            Value::Str(_) => 2,
            Value::Bool(_) => 3,
            Value::Null => 4,
        }
    }
}

/// An `i64` against a non-NaN `f64`, exactly. Rounding `i` is monotone,
/// so a rounded inequality is a true one; a rounded tie means `f` is an
/// integer of at most 2^63 in magnitude, exact in `i128`.
fn int_float_cmp(i: i64, f: f64) -> Ordering {
    match (i as f64).partial_cmp(&f).expect("f is not NaN") {
        Ordering::Equal => i128::from(i).cmp(&(f as i128)),
        ord => ord,
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
    fn ints_compare_exactly() {
        // 2^53 + 1 has no f64: through f64 it would equal 2^53.
        let (big, next) = (Value::Int(1 << 53), Value::Int((1 << 53) + 1));
        assert_eq!(next.compare(&big), Some(Greater));
        assert_eq!(big.compare(&next), Some(Less));
        assert_eq!(next.compare(&next.clone()), Some(Equal));
        // An Int against a Float keeps the numeric coercion.
        assert_eq!(next.compare(&Value::Float(9007199254740992.0)), Some(Equal));
    }

    #[test]
    fn total_order_ranks_every_type() {
        let nan = Value::Float(f64::NAN);
        let ordered = [
            Value::Int(i64::MIN),
            Value::Float(-0.5),
            Value::Int(0),
            Value::Float(9007199254740992.0),
            Value::Int((1 << 53) + 1),
            Value::Float(f64::INFINITY),
            nan.clone(),
            Value::Str("a".into()),
            Value::Str("b".into()),
            Value::Bool(false),
            Value::Bool(true),
        ];
        for (i, a) in ordered.iter().enumerate() {
            for (j, b) in ordered.iter().enumerate() {
                assert_eq!(a.total_cmp(b), i.cmp(&j), "{a:?} vs {b:?}");
            }
        }
        assert_eq!(Value::Int(1).total_cmp(&Value::Float(1.0)), Equal);
        assert_eq!(Value::Float(-0.0).total_cmp(&Value::Int(0)), Equal);
        assert_eq!(nan.total_cmp(&Value::Float(f64::NAN)), Equal);
        assert_eq!(
            Value::Int(i64::MAX).total_cmp(&Value::Float(2f64.powi(63))),
            Less
        );
    }

    #[test]
    fn display() {
        assert_eq!(Value::Int(5).to_string(), "5");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Str("hi".into()).to_string(), "hi");
    }
}
