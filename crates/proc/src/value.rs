//! Runtime values: one inhabitant shape per payload sort (`coq_ty` in the
//! Coq development).

use std::fmt;

use zooid_mpst::Sort;

use crate::error::{ProcError, Result};

/// A runtime value exchanged in messages or manipulated by expressions.
///
/// Every value belongs to at least one [`Sort`]; [`Value::has_sort`] checks
/// membership and [`Value::default_of`] produces a canonical inhabitant of a
/// sort (used by the bounded explorers when a representative payload is
/// needed).
///
/// # Examples
///
/// ```
/// use zooid_proc::Value;
/// use zooid_mpst::Sort;
///
/// let v = Value::Pair(Box::new(Value::Nat(3)), Box::new(Value::Bool(true)));
/// assert!(v.has_sort(&Sort::prod(Sort::Nat, Sort::Bool)));
/// assert!(!v.has_sort(&Sort::Nat));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// The unit value.
    Unit,
    /// A natural number.
    Nat(u64),
    /// A signed integer.
    Int(i64),
    /// A boolean.
    Bool(bool),
    /// A string.
    Str(String),
    /// Left injection into a sum sort.
    Inl(Box<Value>),
    /// Right injection into a sum sort.
    Inr(Box<Value>),
    /// A pair.
    Pair(Box<Value>, Box<Value>),
    /// A finite sequence.
    Seq(Vec<Value>),
}

impl Value {
    /// Convenience constructor for pairs.
    pub fn pair(a: Value, b: Value) -> Value {
        Value::Pair(Box::new(a), Box::new(b))
    }

    /// Convenience constructor for left injections.
    pub fn inl(v: Value) -> Value {
        Value::Inl(Box::new(v))
    }

    /// Convenience constructor for right injections.
    pub fn inr(v: Value) -> Value {
        Value::Inr(Box::new(v))
    }

    /// Returns `true` if the value inhabits the given sort.
    pub fn has_sort(&self, sort: &Sort) -> bool {
        match (self, sort) {
            (Value::Unit, Sort::Unit) => true,
            (Value::Nat(_), Sort::Nat) => true,
            (Value::Int(_), Sort::Int) => true,
            (Value::Bool(_), Sort::Bool) => true,
            (Value::Str(_), Sort::Str) => true,
            (Value::Inl(v), Sort::Sum(a, _)) => v.has_sort(a),
            (Value::Inr(v), Sort::Sum(_, b)) => v.has_sort(b),
            (Value::Pair(a, b), Sort::Prod(sa, sb)) => a.has_sort(sa) && b.has_sort(sb),
            (Value::Seq(vs), Sort::Seq(elem)) => vs.iter().all(|v| v.has_sort(elem)),
            _ => false,
        }
    }

    /// A canonical inhabitant of the given sort (zero, `false`, the empty
    /// string/sequence, left injections, …).
    pub fn default_of(sort: &Sort) -> Value {
        match sort {
            Sort::Unit => Value::Unit,
            Sort::Nat => Value::Nat(0),
            Sort::Int => Value::Int(0),
            Sort::Bool => Value::Bool(false),
            Sort::Str => Value::Str(String::new()),
            Sort::Sum(a, _) => Value::inl(Value::default_of(a)),
            Sort::Prod(a, b) => Value::pair(Value::default_of(a), Value::default_of(b)),
            Sort::Seq(_) => Value::Seq(Vec::new()),
        }
    }

    /// Extracts a natural number.
    ///
    /// # Errors
    ///
    /// Returns [`ProcError::IllTypedOperation`] for non-`Nat` values.
    pub fn as_nat(&self) -> Result<u64> {
        match self {
            Value::Nat(n) => Ok(*n),
            other => Err(ProcError::IllTypedOperation {
                context: format!("expected a nat, found {other}"),
            }),
        }
    }

    /// Extracts a signed integer.
    ///
    /// # Errors
    ///
    /// Returns [`ProcError::IllTypedOperation`] for non-`Int` values.
    pub fn as_int(&self) -> Result<i64> {
        match self {
            Value::Int(n) => Ok(*n),
            other => Err(ProcError::IllTypedOperation {
                context: format!("expected an int, found {other}"),
            }),
        }
    }

    /// Extracts a boolean.
    ///
    /// # Errors
    ///
    /// Returns [`ProcError::IllTypedOperation`] for non-`Bool` values.
    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(ProcError::IllTypedOperation {
                context: format!("expected a bool, found {other}"),
            }),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => f.write_str("()"),
            Value::Nat(n) => write!(f, "{n}"),
            Value::Int(n) => write!(f, "{n}i"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Inl(v) => write!(f, "inl {v}"),
            Value::Inr(v) => write!(f, "inr {v}"),
            Value::Pair(a, b) => write!(f, "({a}, {b})"),
            Value::Seq(vs) => {
                f.write_str("[")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
        }
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Nat(n)
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Self {
        Value::Int(n)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}

impl From<()> for Value {
    fn from((): ()) -> Self {
        Value::Unit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_values_have_base_sorts() {
        assert!(Value::Unit.has_sort(&Sort::Unit));
        assert!(Value::Nat(3).has_sort(&Sort::Nat));
        assert!(Value::Int(-2).has_sort(&Sort::Int));
        assert!(Value::Bool(true).has_sort(&Sort::Bool));
        assert!(Value::Str("hi".into()).has_sort(&Sort::Str));
        assert!(!Value::Nat(1).has_sort(&Sort::Int));
    }

    #[test]
    fn composite_values_follow_their_structure() {
        let sum = Sort::sum(Sort::Nat, Sort::Bool);
        assert!(Value::inl(Value::Nat(1)).has_sort(&sum));
        assert!(Value::inr(Value::Bool(false)).has_sort(&sum));
        assert!(!Value::inl(Value::Bool(true)).has_sort(&sum));

        let seq = Sort::seq(Sort::Nat);
        assert!(Value::Seq(vec![Value::Nat(1), Value::Nat(2)]).has_sort(&seq));
        assert!(!Value::Seq(vec![Value::Nat(1), Value::Bool(true)]).has_sort(&seq));
    }

    #[test]
    fn defaults_inhabit_their_sort() {
        for sort in [
            Sort::Unit,
            Sort::Nat,
            Sort::Int,
            Sort::Bool,
            Sort::Str,
            Sort::sum(Sort::Nat, Sort::Bool),
            Sort::prod(Sort::Unit, Sort::seq(Sort::Int)),
            Sort::seq(Sort::Nat),
        ] {
            assert!(
                Value::default_of(&sort).has_sort(&sort),
                "default of {sort} should inhabit it"
            );
        }
    }

    #[test]
    fn accessors_check_the_shape() {
        assert_eq!(Value::Nat(4).as_nat().unwrap(), 4);
        assert!(Value::Bool(true).as_nat().is_err());
        assert_eq!(Value::Int(-3).as_int().unwrap(), -3);
        assert!(Value::Nat(3).as_int().is_err());
        assert!(Value::Bool(true).as_bool().unwrap());
        assert!(Value::Unit.as_bool().is_err());
    }

    #[test]
    fn conversions_from_rust_types() {
        assert_eq!(Value::from(3u64), Value::Nat(3));
        assert_eq!(Value::from(-1i64), Value::Int(-1));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("x"), Value::Str("x".into()));
        assert_eq!(Value::from(()), Value::Unit);
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(Value::pair(Value::Nat(1), Value::Bool(true)).to_string(), "(1, true)");
        assert_eq!(Value::Seq(vec![Value::Nat(1)]).to_string(), "[1]");
        assert_eq!(Value::inl(Value::Unit).to_string(), "inl ()");
    }
}
