//! Casts more than one suite runs.

use zooid_mpst::global::GlobalType;
use zooid_mpst::{Role, Sort};
use zooid_proc::{Expr, Proc};

/// `p → q : Int. q → p : Int`, where `p` sends `i64::MIN` and `q` answers
/// `x / -1`, which overflows.
pub fn int_overflow_cast() -> (GlobalType, Vec<(Role, Proc)>) {
    let (p, q) = (Role::new("p"), Role::new("q"));
    let back = GlobalType::msg1(q.clone(), p.clone(), "n", Sort::Int, GlobalType::End);
    let g = GlobalType::msg1(p.clone(), q.clone(), "n", Sort::Int, back);
    let reply = Proc::recv1(q.clone(), "n", Sort::Int, "y", Proc::Finish);
    let answer = Proc::send(p.clone(), "n", Expr::div(Expr::var("x"), Expr::lit(-1i64)), Proc::Finish);
    let procs = vec![
        (p.clone(), Proc::send(q.clone(), "n", Expr::lit(i64::MIN), reply)),
        (q, Proc::recv1(p, "n", Sort::Int, "x", answer)),
    ];
    (g, procs)
}
