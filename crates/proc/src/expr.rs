//! A deeply-embedded expression language for message payloads and control
//! decisions.
//!
//! The paper shallow-embeds payload computations as Gallina terms; its typing
//! judgement treats them through the ambient typing judgement `Γ ⊢ e : T`.
//! Here the ambient language is a small first-order expression language with
//! the same role: it is sort-checked by [`Expr::infer_sort`] and evaluated by
//! [`Expr::eval`], and the process typing rules of Figure 5 call into it
//! exactly where the paper calls into Gallina typing.

use std::collections::BTreeMap;
use std::fmt;

use zooid_mpst::Sort;

use crate::error::{ProcError, Result};
use crate::value::Value;

/// An environment assigning sorts to expression variables (the `Γ` of the
/// typing rules).
pub type SortEnv = BTreeMap<String, Sort>;

/// An environment assigning values to expression variables, used during
/// evaluation.
pub type ValueEnv = BTreeMap<String, Value>;

/// A payload expression.
///
/// Expressions compute the values sent in messages, the conditions of
/// `if`-processes and the arguments of external actions. Variables are bound
/// by receives (`recv p (l, x : S) ? ...`), by `read` and by `interact`.
///
/// # Examples
///
/// ```
/// use zooid_proc::{Expr, Value};
///
/// // x + 1, where x was bound by an enclosing receive
/// let e = Expr::add(Expr::var("x"), Expr::lit(1u64));
/// let mut env = std::collections::BTreeMap::new();
/// env.insert("x".to_string(), Value::Nat(41));
/// assert_eq!(e.eval(&env).unwrap(), Value::Nat(42));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// A literal value.
    Lit(Value),
    /// A variable bound by a receive, `read` or `interact`.
    Var(String),
    /// Addition on naturals or integers.
    Add(Box<Expr>, Box<Expr>),
    /// Truncated subtraction on naturals, ordinary subtraction on integers.
    Sub(Box<Expr>, Box<Expr>),
    /// Multiplication on naturals or integers.
    Mul(Box<Expr>, Box<Expr>),
    /// Euclidean division (the paper's `divn`); division by zero yields zero,
    /// as in Coq's `div`.
    Div(Box<Expr>, Box<Expr>),
    /// Strict "less than" on naturals or integers.
    Lt(Box<Expr>, Box<Expr>),
    /// "Less than or equal" on naturals or integers.
    Le(Box<Expr>, Box<Expr>),
    /// "Greater than or equal" on naturals or integers.
    Ge(Box<Expr>, Box<Expr>),
    /// Structural equality of two expressions of the same sort.
    Eq(Box<Expr>, Box<Expr>),
    /// Boolean conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Boolean disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Boolean negation.
    Not(Box<Expr>),
    /// Conditional expression.
    If(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Pair construction.
    Pair(Box<Expr>, Box<Expr>),
    /// First projection of a pair.
    Fst(Box<Expr>),
    /// Second projection of a pair.
    Snd(Box<Expr>),
}

impl Expr {
    /// A literal expression.
    pub fn lit(value: impl Into<Value>) -> Expr {
        Expr::Lit(value.into())
    }

    /// A variable reference.
    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Var(name.into())
    }

    /// The unit literal.
    pub fn unit() -> Expr {
        Expr::Lit(Value::Unit)
    }

    /// `left + right`.
    #[allow(clippy::should_implement_trait, reason = "a builder, not an operator")]
    pub fn add(left: Expr, right: Expr) -> Expr {
        Expr::Add(Box::new(left), Box::new(right))
    }

    /// `left - right` (truncated on naturals).
    #[allow(clippy::should_implement_trait, reason = "a builder, not an operator")]
    pub fn sub(left: Expr, right: Expr) -> Expr {
        Expr::Sub(Box::new(left), Box::new(right))
    }

    /// `left * right`.
    #[allow(clippy::should_implement_trait, reason = "a builder, not an operator")]
    pub fn mul(left: Expr, right: Expr) -> Expr {
        Expr::Mul(Box::new(left), Box::new(right))
    }

    /// `left / right` (0 when dividing by zero, as in Coq).
    #[allow(clippy::should_implement_trait, reason = "a builder, not an operator")]
    pub fn div(left: Expr, right: Expr) -> Expr {
        Expr::Div(Box::new(left), Box::new(right))
    }

    /// `left < right`.
    pub fn lt(left: Expr, right: Expr) -> Expr {
        Expr::Lt(Box::new(left), Box::new(right))
    }

    /// `left <= right`.
    pub fn le(left: Expr, right: Expr) -> Expr {
        Expr::Le(Box::new(left), Box::new(right))
    }

    /// `left >= right`.
    pub fn ge(left: Expr, right: Expr) -> Expr {
        Expr::Ge(Box::new(left), Box::new(right))
    }

    /// `left == right`.
    pub fn eq(left: Expr, right: Expr) -> Expr {
        Expr::Eq(Box::new(left), Box::new(right))
    }

    /// `left && right`.
    pub fn and(left: Expr, right: Expr) -> Expr {
        Expr::And(Box::new(left), Box::new(right))
    }

    /// `left || right`.
    pub fn or(left: Expr, right: Expr) -> Expr {
        Expr::Or(Box::new(left), Box::new(right))
    }

    /// `!inner`.
    #[allow(clippy::should_implement_trait, reason = "a builder, not an operator")]
    pub fn not(inner: Expr) -> Expr {
        Expr::Not(Box::new(inner))
    }

    /// `if cond then then_branch else else_branch`.
    pub fn ite(cond: Expr, then_branch: Expr, else_branch: Expr) -> Expr {
        Expr::If(Box::new(cond), Box::new(then_branch), Box::new(else_branch))
    }

    /// `(left, right)`.
    pub fn pair(left: Expr, right: Expr) -> Expr {
        Expr::Pair(Box::new(left), Box::new(right))
    }

    /// `fst inner`.
    pub fn fst(inner: Expr) -> Expr {
        Expr::Fst(Box::new(inner))
    }

    /// `snd inner`.
    pub fn snd(inner: Expr) -> Expr {
        Expr::Snd(Box::new(inner))
    }

    /// The free variables of the expression.
    pub fn free_vars(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out.sort();
        out.dedup();
        out
    }

    fn collect_vars(&self, out: &mut Vec<String>) {
        match self {
            Expr::Lit(_) => {}
            Expr::Var(x) => out.push(x.clone()),
            Expr::Not(a) | Expr::Fst(a) | Expr::Snd(a) => a.collect_vars(out),
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Div(a, b)
            | Expr::Lt(a, b)
            | Expr::Le(a, b)
            | Expr::Ge(a, b)
            | Expr::Eq(a, b)
            | Expr::And(a, b)
            | Expr::Or(a, b)
            | Expr::Pair(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            Expr::If(c, t, e) => {
                c.collect_vars(out);
                t.collect_vars(out);
                e.collect_vars(out);
            }
        }
    }

    /// Substitutes a value for a variable (used when a receive binds its
    /// payload).
    #[must_use]
    pub fn subst(&self, name: &str, value: &Value) -> Expr {
        match self {
            Expr::Lit(v) => Expr::Lit(v.clone()),
            Expr::Var(x) if x == name => Expr::Lit(value.clone()),
            Expr::Var(x) => Expr::Var(x.clone()),
            Expr::Add(a, b) => Expr::add(a.subst(name, value), b.subst(name, value)),
            Expr::Sub(a, b) => Expr::sub(a.subst(name, value), b.subst(name, value)),
            Expr::Mul(a, b) => Expr::mul(a.subst(name, value), b.subst(name, value)),
            Expr::Div(a, b) => Expr::div(a.subst(name, value), b.subst(name, value)),
            Expr::Lt(a, b) => Expr::lt(a.subst(name, value), b.subst(name, value)),
            Expr::Le(a, b) => Expr::le(a.subst(name, value), b.subst(name, value)),
            Expr::Ge(a, b) => Expr::ge(a.subst(name, value), b.subst(name, value)),
            Expr::Eq(a, b) => Expr::eq(a.subst(name, value), b.subst(name, value)),
            Expr::And(a, b) => Expr::and(a.subst(name, value), b.subst(name, value)),
            Expr::Or(a, b) => Expr::or(a.subst(name, value), b.subst(name, value)),
            Expr::Not(a) => Expr::not(a.subst(name, value)),
            Expr::If(c, t, e) => Expr::ite(
                c.subst(name, value),
                t.subst(name, value),
                e.subst(name, value),
            ),
            Expr::Pair(a, b) => Expr::pair(a.subst(name, value), b.subst(name, value)),
            Expr::Fst(a) => Expr::fst(a.subst(name, value)),
            Expr::Snd(a) => Expr::snd(a.subst(name, value)),
        }
    }

    /// Infers the sort of the expression under the given variable sorts
    /// (the ambient typing judgement `Γ ⊢ e : T` of Figure 5).
    ///
    /// # Errors
    ///
    /// Returns an error for unbound variables and ill-sorted operations.
    pub fn infer_sort(&self, env: &SortEnv) -> Result<Sort> {
        match self {
            Expr::Lit(v) => Ok(sort_of_value(v)),
            Expr::Var(x) => env.get(x).cloned().ok_or_else(|| ProcError::UnboundVariable {
                name: x.clone(),
            }),
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
                let sa = a.infer_sort(env)?;
                let sb = b.infer_sort(env)?;
                if sa == sb && (sa == Sort::Nat || sa == Sort::Int) {
                    Ok(sa)
                } else {
                    Err(ProcError::IllTypedOperation {
                        context: format!("arithmetic on {sa} and {sb}"),
                    })
                }
            }
            Expr::Lt(a, b) | Expr::Le(a, b) | Expr::Ge(a, b) => {
                let sa = a.infer_sort(env)?;
                let sb = b.infer_sort(env)?;
                if sa == sb && (sa == Sort::Nat || sa == Sort::Int) {
                    Ok(Sort::Bool)
                } else {
                    Err(ProcError::IllTypedOperation {
                        context: format!("comparison on {sa} and {sb}"),
                    })
                }
            }
            Expr::Eq(a, b) => {
                let sa = a.infer_sort(env)?;
                let sb = b.infer_sort(env)?;
                if sa == sb {
                    Ok(Sort::Bool)
                } else {
                    Err(ProcError::IllTypedOperation {
                        context: format!("equality on {sa} and {sb}"),
                    })
                }
            }
            Expr::And(a, b) | Expr::Or(a, b) => {
                expect_sort(a, env, &Sort::Bool, "boolean operator")?;
                expect_sort(b, env, &Sort::Bool, "boolean operator")?;
                Ok(Sort::Bool)
            }
            Expr::Not(a) => {
                expect_sort(a, env, &Sort::Bool, "negation")?;
                Ok(Sort::Bool)
            }
            Expr::If(c, t, e) => {
                expect_sort(c, env, &Sort::Bool, "condition")?;
                let st = t.infer_sort(env)?;
                let se = e.infer_sort(env)?;
                if st == se {
                    Ok(st)
                } else {
                    Err(ProcError::IllTypedOperation {
                        context: format!("branches of a conditional have sorts {st} and {se}"),
                    })
                }
            }
            Expr::Pair(a, b) => Ok(Sort::prod(a.infer_sort(env)?, b.infer_sort(env)?)),
            Expr::Fst(a) => match a.infer_sort(env)? {
                Sort::Prod(sa, _) => Ok(*sa),
                other => Err(ProcError::IllTypedOperation {
                    context: format!("fst of a non-pair of sort {other}"),
                }),
            },
            Expr::Snd(a) => match a.infer_sort(env)? {
                Sort::Prod(_, sb) => Ok(*sb),
                other => Err(ProcError::IllTypedOperation {
                    context: format!("snd of a non-pair of sort {other}"),
                }),
            },
        }
    }

    /// Evaluates the expression under the given variable values.
    ///
    /// # Errors
    ///
    /// Returns an error for unbound variables and ill-typed operations.
    pub fn eval(&self, env: &ValueEnv) -> Result<Value> {
        match self {
            Expr::Lit(v) => Ok(v.clone()),
            Expr::Var(x) => env.get(x).cloned().ok_or_else(|| ProcError::UnboundVariable {
                name: x.clone(),
            }),
            Expr::Add(a, b) => numeric(a.eval(env)?, b.eval(env)?, Arith::Add),
            Expr::Sub(a, b) => numeric(a.eval(env)?, b.eval(env)?, Arith::Sub),
            Expr::Mul(a, b) => numeric(a.eval(env)?, b.eval(env)?, Arith::Mul),
            Expr::Div(a, b) => numeric(a.eval(env)?, b.eval(env)?, Arith::Div),
            Expr::Lt(a, b) => compare(a.eval(env)?, b.eval(env)?, |o| o == std::cmp::Ordering::Less),
            Expr::Le(a, b) => compare(a.eval(env)?, b.eval(env)?, |o| o != std::cmp::Ordering::Greater),
            Expr::Ge(a, b) => compare(a.eval(env)?, b.eval(env)?, |o| o != std::cmp::Ordering::Less),
            Expr::Eq(a, b) => Ok(Value::Bool(a.eval(env)? == b.eval(env)?)),
            Expr::And(a, b) => Ok(Value::Bool(a.eval(env)?.as_bool()? && b.eval(env)?.as_bool()?)),
            Expr::Or(a, b) => Ok(Value::Bool(a.eval(env)?.as_bool()? || b.eval(env)?.as_bool()?)),
            Expr::Not(a) => Ok(Value::Bool(!a.eval(env)?.as_bool()?)),
            Expr::If(c, t, e) => {
                if c.eval(env)?.as_bool()? {
                    t.eval(env)
                } else {
                    e.eval(env)
                }
            }
            Expr::Pair(a, b) => Ok(Value::pair(a.eval(env)?, b.eval(env)?)),
            Expr::Fst(a) => match a.eval(env)? {
                Value::Pair(x, _) => Ok(*x),
                other => Err(ProcError::IllTypedOperation {
                    context: format!("fst of {other}"),
                }),
            },
            Expr::Snd(a) => match a.eval(env)? {
                Value::Pair(_, y) => Ok(*y),
                other => Err(ProcError::IllTypedOperation {
                    context: format!("snd of {other}"),
                }),
            },
        }
    }

    /// Evaluates a closed expression (no free variables).
    ///
    /// # Errors
    ///
    /// See [`Expr::eval`].
    pub fn eval_closed(&self) -> Result<Value> {
        self.eval(&ValueEnv::new())
    }
}

fn expect_sort(e: &Expr, env: &SortEnv, expected: &Sort, context: &str) -> Result<()> {
    let found = e.infer_sort(env)?;
    if &found == expected {
        Ok(())
    } else {
        Err(ProcError::SortMismatch {
            expected: expected.clone(),
            found,
            context: context.to_owned(),
        })
    }
}

/// The canonical sort of a concrete value: the sort typing gives a literal,
/// lowering gives a send site, and every executor records a sent payload
/// at. A value does not say what the other side of an injection or the
/// element of an empty sequence is, so those take `unit`: `inl v` is
/// `sort(v) + unit`, `inr v` is `unit + sort(v)`.
pub fn sort_of_value(v: &Value) -> Sort {
    match v {
        Value::Unit => Sort::Unit,
        Value::Nat(_) => Sort::Nat,
        Value::Int(_) => Sort::Int,
        Value::Bool(_) => Sort::Bool,
        Value::Str(_) => Sort::Str,
        Value::Inl(inner) => Sort::sum(sort_of_value(inner), Sort::Unit),
        Value::Inr(inner) => Sort::sum(Sort::Unit, sort_of_value(inner)),
        Value::Pair(a, b) => Sort::prod(sort_of_value(a), sort_of_value(b)),
        Value::Seq(vs) => Sort::seq(vs.first().map_or(Sort::Unit, sort_of_value)),
    }
}

/// The arithmetic operators of the expression language.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Arith {
    Add,
    Sub,
    Mul,
    Div,
}

impl fmt::Display for Arith {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Arith::Add => "+",
            Arith::Sub => "-",
            Arith::Mul => "*",
            Arith::Div => "/",
        })
    }
}

/// `a op b` on two naturals or two integers, the one definition both
/// evaluators ([`Expr::eval`] and the compiled `CExpr::eval_strided`) use.
///
/// On naturals `+` and `*` are checked, `-` saturates at 0 and `x / 0` is
/// 0. On integers `+`, `-` and `*` are checked, `x / 0` is 0 and
/// `i64::MIN / -1` is an overflow. An overflow is a
/// [`ProcError::ArithmeticError`], never a panic or a wrapped value.
#[inline(always)]
pub(crate) fn numeric(a: Value, b: Value, op: Arith) -> Result<Value> {
    match (a, b) {
        (Value::Nat(x), Value::Nat(y)) => match op {
            Arith::Add => x.checked_add(y),
            Arith::Sub => Some(x.saturating_sub(y)),
            Arith::Mul => x.checked_mul(y),
            Arith::Div => Some(x.checked_div(y).unwrap_or(0)),
        }
        .map(Value::Nat)
        .ok_or_else(|| ProcError::ArithmeticError {
            context: format!("nat overflow in {x} {op} {y}"),
        }),
        (Value::Int(x), Value::Int(y)) => match op {
            Arith::Add => x.checked_add(y),
            Arith::Sub => x.checked_sub(y),
            Arith::Mul => x.checked_mul(y),
            Arith::Div if y == 0 => Some(0),
            Arith::Div => x.checked_div(y),
        }
        .map(Value::Int)
        .ok_or_else(|| ProcError::ArithmeticError {
            context: format!("int overflow in {x} {op} {y}"),
        }),
        (a, b) => Err(ProcError::IllTypedOperation {
            context: format!("{a} {op} {b}"),
        }),
    }
}

pub(crate) fn compare(a: Value, b: Value, pick: impl Fn(std::cmp::Ordering) -> bool) -> Result<Value> {
    match (&a, &b) {
        (Value::Nat(x), Value::Nat(y)) => Ok(Value::Bool(pick(x.cmp(y)))),
        (Value::Int(x), Value::Int(y)) => Ok(Value::Bool(pick(x.cmp(y)))),
        _ => Err(ProcError::IllTypedOperation {
            context: format!("comparison of {a} and {b}"),
        }),
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Var(x) => write!(f, "{x}"),
            Expr::Add(a, b) => write!(f, "({a} + {b})"),
            Expr::Sub(a, b) => write!(f, "({a} - {b})"),
            Expr::Mul(a, b) => write!(f, "({a} * {b})"),
            Expr::Div(a, b) => write!(f, "({a} / {b})"),
            Expr::Lt(a, b) => write!(f, "({a} < {b})"),
            Expr::Le(a, b) => write!(f, "({a} <= {b})"),
            Expr::Ge(a, b) => write!(f, "({a} >= {b})"),
            Expr::Eq(a, b) => write!(f, "({a} == {b})"),
            Expr::And(a, b) => write!(f, "({a} && {b})"),
            Expr::Or(a, b) => write!(f, "({a} || {b})"),
            Expr::Not(a) => write!(f, "!{a}"),
            Expr::If(c, t, e) => write!(f, "(if {c} then {t} else {e})"),
            Expr::Pair(a, b) => write!(f, "({a}, {b})"),
            Expr::Fst(a) => write!(f, "fst {a}"),
            Expr::Snd(a) => write!(f, "snd {a}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env_with(name: &str, v: Value) -> ValueEnv {
        let mut env = ValueEnv::new();
        env.insert(name.to_owned(), v);
        env
    }

    #[test]
    fn arithmetic_on_nats_and_ints() {
        assert_eq!(
            Expr::add(Expr::lit(2u64), Expr::lit(3u64)).eval_closed().unwrap(),
            Value::Nat(5)
        );
        assert_eq!(
            Expr::mul(Expr::lit(-2i64), Expr::lit(3i64)).eval_closed().unwrap(),
            Value::Int(-6)
        );
        // Truncated subtraction on naturals.
        assert_eq!(
            Expr::sub(Expr::lit(2u64), Expr::lit(5u64)).eval_closed().unwrap(),
            Value::Nat(0)
        );
        // Division by zero yields zero, as in Coq's divn.
        assert_eq!(
            Expr::div(Expr::lit(7u64), Expr::lit(0u64)).eval_closed().unwrap(),
            Value::Nat(0)
        );
    }

    #[test]
    fn mixed_arithmetic_is_rejected() {
        let e = Expr::add(Expr::lit(1u64), Expr::lit(true));
        assert!(e.eval_closed().is_err());
        assert!(e.infer_sort(&SortEnv::new()).is_err());
    }

    #[test]
    fn comparisons_and_booleans() {
        assert_eq!(
            Expr::lt(Expr::lit(1u64), Expr::lit(2u64)).eval_closed().unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            Expr::ge(Expr::lit(1u64), Expr::lit(2u64)).eval_closed().unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            Expr::and(Expr::lit(true), Expr::not(Expr::lit(false))).eval_closed().unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            Expr::eq(Expr::lit("a"), Expr::lit("a")).eval_closed().unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn variables_are_looked_up_and_substituted() {
        let e = Expr::add(Expr::var("x"), Expr::lit(1u64));
        assert_eq!(e.eval(&env_with("x", Value::Nat(4))).unwrap(), Value::Nat(5));
        assert!(matches!(
            e.eval_closed(),
            Err(ProcError::UnboundVariable { .. })
        ));
        let closed = e.subst("x", &Value::Nat(4));
        assert_eq!(closed.eval_closed().unwrap(), Value::Nat(5));
        assert!(closed.free_vars().is_empty());
        assert_eq!(e.free_vars(), vec!["x".to_owned()]);
    }

    #[test]
    fn conditionals_pick_the_right_branch() {
        let e = Expr::ite(
            Expr::ge(Expr::var("x"), Expr::lit(10u64)),
            Expr::lit("big"),
            Expr::lit("small"),
        );
        assert_eq!(e.eval(&env_with("x", Value::Nat(12))).unwrap(), Value::Str("big".into()));
        assert_eq!(e.eval(&env_with("x", Value::Nat(2))).unwrap(), Value::Str("small".into()));
    }

    #[test]
    fn sort_inference_follows_the_structure() {
        let mut senv = SortEnv::new();
        senv.insert("x".to_owned(), Sort::Nat);
        let e = Expr::pair(Expr::var("x"), Expr::lt(Expr::var("x"), Expr::lit(3u64)));
        assert_eq!(e.infer_sort(&senv).unwrap(), Sort::prod(Sort::Nat, Sort::Bool));
        assert_eq!(Expr::fst(e.clone()).infer_sort(&senv).unwrap(), Sort::Nat);
        assert_eq!(Expr::snd(e).infer_sort(&senv).unwrap(), Sort::Bool);
    }

    #[test]
    fn pair_projections_evaluate() {
        let p = Expr::pair(Expr::lit(1u64), Expr::lit(false));
        assert_eq!(Expr::fst(p.clone()).eval_closed().unwrap(), Value::Nat(1));
        assert_eq!(Expr::snd(p).eval_closed().unwrap(), Value::Bool(false));
        assert!(Expr::fst(Expr::lit(3u64)).eval_closed().is_err());
    }

    #[test]
    fn conditional_branches_must_agree_on_sort() {
        let e = Expr::ite(Expr::lit(true), Expr::lit(1u64), Expr::lit(false));
        assert!(e.infer_sort(&SortEnv::new()).is_err());
    }

    #[test]
    fn display_is_readable() {
        let e = Expr::ite(
            Expr::ge(Expr::var("x"), Expr::lit(3u64)),
            Expr::lit(1u64),
            Expr::lit(0u64),
        );
        assert_eq!(e.to_string(), "(if (x >= 3) then 1 else 0)");
    }

    #[test]
    fn nat_overflow_is_an_error() {
        let e = Expr::add(Expr::lit(u64::MAX), Expr::lit(1u64));
        assert!(matches!(e.eval_closed(), Err(ProcError::ArithmeticError { .. })));
    }

    /// `a op b` on the tree evaluator and on the compiled one, which must
    /// agree.
    fn on_both(op: Arith, a: Value, b: Value) -> Result<Value> {
        use crate::compile::CExpr;
        let (x, y) = (Expr::Lit(a.clone()), Expr::Lit(b.clone()));
        let (cx, cy) = (Box::new(CExpr::Lit(a)), Box::new(CExpr::Lit(b)));
        let (tree, compiled) = match op {
            Arith::Add => (Expr::add(x, y), CExpr::Add(cx, cy)),
            Arith::Sub => (Expr::sub(x, y), CExpr::Sub(cx, cy)),
            Arith::Mul => (Expr::mul(x, y), CExpr::Mul(cx, cy)),
            Arith::Div => (Expr::div(x, y), CExpr::Div(cx, cy)),
        };
        let value = tree.eval_closed();
        assert_eq!(value, compiled.eval(&[]), "{op}");
        value
    }

    #[test]
    fn both_evaluators_define_arithmetic_alike() {
        let overflow = |r: Result<Value>| matches!(r, Err(ProcError::ArithmeticError { .. }));
        // Naturals: checked `+` and `*`, saturating `-`, `x / 0 = 0`.
        assert!(overflow(on_both(Arith::Add, Value::Nat(u64::MAX), Value::Nat(1))));
        assert!(overflow(on_both(Arith::Mul, Value::Nat(u64::MAX), Value::Nat(2))));
        assert_eq!(on_both(Arith::Sub, Value::Nat(1), Value::Nat(2)), Ok(Value::Nat(0)));
        assert_eq!(on_both(Arith::Div, Value::Nat(7), Value::Nat(0)), Ok(Value::Nat(0)));
        assert_eq!(on_both(Arith::Div, Value::Nat(7), Value::Nat(2)), Ok(Value::Nat(3)));
        // Integers: checked `+`, `-`, `*` and `MIN / -1`, `x / 0 = 0`.
        assert!(overflow(on_both(Arith::Add, Value::Int(i64::MAX), Value::Int(1))));
        assert!(overflow(on_both(Arith::Sub, Value::Int(i64::MIN), Value::Int(1))));
        assert!(overflow(on_both(Arith::Mul, Value::Int(i64::MIN), Value::Int(-1))));
        assert!(overflow(on_both(Arith::Div, Value::Int(i64::MIN), Value::Int(-1))));
        assert_eq!(on_both(Arith::Div, Value::Int(-7), Value::Int(0)), Ok(Value::Int(0)));
        assert_eq!(on_both(Arith::Div, Value::Int(-7), Value::Int(2)), Ok(Value::Int(-3)));
        assert_eq!(on_both(Arith::Sub, Value::Int(-1), Value::Int(2)), Ok(Value::Int(-3)));
        // Mixed operands are ill-typed on both.
        assert!(matches!(
            on_both(Arith::Add, Value::Nat(1), Value::Int(1)),
            Err(ProcError::IllTypedOperation { .. })
        ));
    }
}
