//! Payload sorts (the paper's `mty`, Definition 3.1 / A.1).

use std::fmt;


/// The sort (payload type) of a message.
///
/// Sorts describe the values exchanged in messages: base types (`nat`, `int`,
/// `bool`, `unit`, `string`) and their closure under sums, products and
/// sequences, exactly as in Definition A.1 of the paper (with `unit` and
/// `string` added because the paper's examples use `unit` payloads and the
/// runtime benefits from a string base type).
///
/// # Examples
///
/// ```
/// use zooid_mpst::Sort;
///
/// let pair = Sort::prod(Sort::Nat, Sort::Bool);
/// assert_eq!(pair.to_string(), "(nat * bool)");
/// assert!(pair.contains(&Sort::Nat));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Sort {
    /// The one-value type; used for pure signals such as `Quit(unit)`.
    Unit,
    /// Natural numbers.
    Nat,
    /// Signed integers.
    Int,
    /// Booleans.
    Bool,
    /// Character strings (a convenience base sort used by the runtime).
    Str,
    /// Disjoint union of two sorts.
    Sum(Box<Sort>, Box<Sort>),
    /// Pair of two sorts.
    Prod(Box<Sort>, Box<Sort>),
    /// Finite sequences of a sort.
    Seq(Box<Sort>),
}

impl Sort {
    /// Builds the sum sort `left + right`.
    pub fn sum(left: Sort, right: Sort) -> Self {
        Sort::Sum(Box::new(left), Box::new(right))
    }

    /// Builds the product sort `left * right`.
    pub fn prod(left: Sort, right: Sort) -> Self {
        Sort::Prod(Box::new(left), Box::new(right))
    }

    /// Builds the sequence sort `seq elem`.
    pub fn seq(elem: Sort) -> Self {
        Sort::Seq(Box::new(elem))
    }

    /// Returns `true` if `self` is a base (non-composite) sort.
    pub fn is_base(&self) -> bool {
        matches!(
            self,
            Sort::Unit | Sort::Nat | Sort::Int | Sort::Bool | Sort::Str
        )
    }

    /// Returns `true` if `other` occurs anywhere inside `self` (including
    /// `self` itself).
    pub fn contains(&self, other: &Sort) -> bool {
        if self == other {
            return true;
        }
        match self {
            Sort::Sum(a, b) | Sort::Prod(a, b) => a.contains(other) || b.contains(other),
            Sort::Seq(a) => a.contains(other),
            _ => false,
        }
    }

    /// Structural size of the sort (number of constructors). Used by the
    /// generators and the effort report.
    pub fn size(&self) -> usize {
        match self {
            Sort::Sum(a, b) | Sort::Prod(a, b) => 1 + a.size() + b.size(),
            Sort::Seq(a) => 1 + a.size(),
            _ => 1,
        }
    }
}

impl fmt::Display for Sort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sort::Unit => f.write_str("unit"),
            Sort::Nat => f.write_str("nat"),
            Sort::Int => f.write_str("int"),
            Sort::Bool => f.write_str("bool"),
            Sort::Str => f.write_str("string"),
            Sort::Sum(a, b) => write!(f, "({a} + {b})"),
            Sort::Prod(a, b) => write!(f, "({a} * {b})"),
            Sort::Seq(a) => write!(f, "seq {a}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_sorts_are_base() {
        for s in [Sort::Unit, Sort::Nat, Sort::Int, Sort::Bool, Sort::Str] {
            assert!(s.is_base(), "{s} should be base");
        }
        assert!(!Sort::sum(Sort::Nat, Sort::Bool).is_base());
        assert!(!Sort::seq(Sort::Nat).is_base());
    }

    #[test]
    fn display_round_trips_structure() {
        let s = Sort::prod(Sort::seq(Sort::Nat), Sort::sum(Sort::Bool, Sort::Unit));
        assert_eq!(s.to_string(), "(seq nat * (bool + unit))");
    }

    #[test]
    fn contains_finds_nested_sorts() {
        let s = Sort::prod(Sort::seq(Sort::Nat), Sort::Bool);
        assert!(s.contains(&Sort::Nat));
        assert!(s.contains(&Sort::seq(Sort::Nat)));
        assert!(!s.contains(&Sort::Int));
    }

    #[test]
    fn size_counts_constructors() {
        assert_eq!(Sort::Nat.size(), 1);
        assert_eq!(Sort::prod(Sort::Nat, Sort::seq(Sort::Bool)).size(), 4);
    }
}
