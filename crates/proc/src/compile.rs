//! Compilation of processes to flat instruction tables — the bytecode-over-AST
//! move applied to the data plane.
//!
//! [`crate::semantics::do_step`] and the tree-walking executors interpret a
//! [`Proc`] by structural recursion: every visible step re-normalises the
//! head, substitutes values through the whole continuation and (for loops)
//! rebuilds the unfolded tree. All of that work is *shape-directed* — it
//! depends only on the process, never on the values — so it can be done once.
//! [`CompiledProc::compile`] lowers a process into:
//!
//! * a dense array of [`Instr`]uctions addressed by program counter, with
//!   loop back-edges resolved at compile time (a `jump` is a `u32`, not a
//!   substitution);
//! * interned [`RoleId`]/[`LabelId`]/[`SortId`] ids for every send, receive
//!   and branch (a private [`Interner`] is used during compilation and kept
//!   as a read-only [`InternerSnapshot`]), so executors and monitors compare
//!   dense ids instead of hashing strings;
//! * value **slots** indexed by dense variable ids: a receive/`read`/
//!   `interact` binder writes its value into a pre-allocated slot and
//!   compiled expressions ([`CExpr`]) read slots directly — no name-keyed
//!   substitution, no environment maps.
//!
//! The result is executed by `zooid-runtime`'s compiled endpoint task: one
//! program counter plus one slot array per endpoint, stepping without
//! allocating in the steady state. The tree-walking executor remains the
//! behavioural oracle: compilation preserves the visible semantics exactly,
//! including error behaviour (unbound variables, unknown externals and
//! non-terminating internal reductions fail at the same points with the same
//! errors), which the differential suite in `zooid-runtime` checks.

use zooid_mpst::common::intern::{LabelId, RoleId, SortId};
use zooid_mpst::{Interner, InternerSnapshot, Role, Sort};

use crate::error::{ProcError, Result};
use crate::expr::{compare, numeric, Arith, Expr, SortEnv};
use crate::external::Externals;
use crate::proc::Proc;
use crate::value::Value;

/// A compiled expression: the payload/condition language of [`Expr`], with
/// variables resolved to dense slot indices at compile time.
///
/// Evaluation ([`CExpr::eval`]) reads bound values straight out of the
/// task's slot array — no `BTreeMap` environment, no substitution.
#[derive(Debug, Clone, PartialEq)]
pub enum CExpr {
    /// A literal value.
    Lit(Value),
    /// A variable, resolved to the slot its binder writes.
    Slot(u32),
    /// A variable that no enclosing binder binds: evaluating it fails with
    /// [`ProcError::UnboundVariable`], exactly like the tree-walking
    /// executor evaluating the un-substituted name.
    Unbound(String),
    /// Addition (see [`Expr::Add`]).
    Add(Box<CExpr>, Box<CExpr>),
    /// Subtraction (truncated on naturals).
    Sub(Box<CExpr>, Box<CExpr>),
    /// Multiplication.
    Mul(Box<CExpr>, Box<CExpr>),
    /// Euclidean division (zero for zero divisors).
    Div(Box<CExpr>, Box<CExpr>),
    /// Strict "less than".
    Lt(Box<CExpr>, Box<CExpr>),
    /// "Less than or equal".
    Le(Box<CExpr>, Box<CExpr>),
    /// "Greater than or equal".
    Ge(Box<CExpr>, Box<CExpr>),
    /// Structural equality.
    Eq(Box<CExpr>, Box<CExpr>),
    /// Boolean conjunction.
    And(Box<CExpr>, Box<CExpr>),
    /// Boolean disjunction.
    Or(Box<CExpr>, Box<CExpr>),
    /// Boolean negation.
    Not(Box<CExpr>),
    /// Conditional expression.
    If(Box<CExpr>, Box<CExpr>, Box<CExpr>),
    /// Pair construction.
    Pair(Box<CExpr>, Box<CExpr>),
    /// First projection.
    Fst(Box<CExpr>),
    /// Second projection.
    Snd(Box<CExpr>),
}

impl CExpr {
    /// Evaluates the expression against the task's slot array.
    ///
    /// # Errors
    ///
    /// Fails with the same [`ProcError`]s as [`Expr::eval`] on the
    /// corresponding source expression.
    pub fn eval(&self, slots: &[Value]) -> Result<Value> {
        self.eval_strided(slots, 1, 0)
    }

    /// Evaluates the expression against a **strided** slot column: slot `i`
    /// lives at `slots[i * stride + offset]`. This is how the columnar batch
    /// executor reads one session's variables out of a struct-of-arrays
    /// column shared by the whole batch (`stride` = batch capacity,
    /// `offset` = session index); `eval` is the `stride == 1` special case.
    pub fn eval_strided(&self, slots: &[Value], stride: usize, offset: usize) -> Result<Value> {
        match self {
            CExpr::Lit(v) => Ok(v.clone()),
            CExpr::Slot(i) => Ok(slots[*i as usize * stride + offset].clone()),
            CExpr::Unbound(name) => Err(ProcError::UnboundVariable { name: name.clone() }),
            CExpr::Add(a, b) => numeric(
                a.eval_strided(slots, stride, offset)?,
                b.eval_strided(slots, stride, offset)?,
                Arith::Add,
            ),
            CExpr::Sub(a, b) => numeric(
                a.eval_strided(slots, stride, offset)?,
                b.eval_strided(slots, stride, offset)?,
                Arith::Sub,
            ),
            CExpr::Mul(a, b) => numeric(
                a.eval_strided(slots, stride, offset)?,
                b.eval_strided(slots, stride, offset)?,
                Arith::Mul,
            ),
            CExpr::Div(a, b) => numeric(
                a.eval_strided(slots, stride, offset)?,
                b.eval_strided(slots, stride, offset)?,
                Arith::Div,
            ),
            CExpr::Lt(a, b) => compare(
                a.eval_strided(slots, stride, offset)?,
                b.eval_strided(slots, stride, offset)?,
                |o| o == std::cmp::Ordering::Less,
            ),
            CExpr::Le(a, b) => compare(
                a.eval_strided(slots, stride, offset)?,
                b.eval_strided(slots, stride, offset)?,
                |o| o != std::cmp::Ordering::Greater,
            ),
            CExpr::Ge(a, b) => compare(
                a.eval_strided(slots, stride, offset)?,
                b.eval_strided(slots, stride, offset)?,
                |o| o != std::cmp::Ordering::Less,
            ),
            CExpr::Eq(a, b) => Ok(Value::Bool(
                a.eval_strided(slots, stride, offset)? == b.eval_strided(slots, stride, offset)?,
            )),
            CExpr::And(a, b) => Ok(Value::Bool(
                a.eval_strided(slots, stride, offset)?.as_bool()?
                    && b.eval_strided(slots, stride, offset)?.as_bool()?,
            )),
            CExpr::Or(a, b) => Ok(Value::Bool(
                a.eval_strided(slots, stride, offset)?.as_bool()?
                    || b.eval_strided(slots, stride, offset)?.as_bool()?,
            )),
            CExpr::Not(a) => Ok(Value::Bool(!a.eval_strided(slots, stride, offset)?.as_bool()?)),
            CExpr::If(c, t, e) => {
                if c.eval_strided(slots, stride, offset)?.as_bool()? {
                    t.eval_strided(slots, stride, offset)
                } else {
                    e.eval_strided(slots, stride, offset)
                }
            }
            CExpr::Pair(a, b) => Ok(Value::pair(
                a.eval_strided(slots, stride, offset)?,
                b.eval_strided(slots, stride, offset)?,
            )),
            CExpr::Fst(a) => match a.eval_strided(slots, stride, offset)? {
                Value::Pair(x, _) => Ok(*x),
                other => Err(ProcError::IllTypedOperation {
                    context: format!("fst of {other}"),
                }),
            },
            CExpr::Snd(a) => match a.eval_strided(slots, stride, offset)? {
                Value::Pair(_, y) => Ok(*y),
                other => Err(ProcError::IllTypedOperation {
                    context: format!("snd of {other}"),
                }),
            },
        }
    }
}

/// One alternative of a compiled receive.
#[derive(Debug, Clone, PartialEq)]
pub struct Arm {
    /// Interned id of the label this alternative handles.
    pub label: LabelId,
    /// Interned id of the declared payload sort.
    pub sort: SortId,
    /// Slot the payload is written into.
    pub slot: u32,
    /// Event id of the receive action performed by this arm (an index into
    /// [`CompiledProc::events`]).
    pub event: u32,
    /// Program counter of the continuation.
    pub next: u32,
}

/// One instruction of a compiled process.
///
/// Loops compile away entirely: a `jump` is a `next`/`then_pc`/`else_pc`
/// field pointing back at the loop head, so the executor never unfolds or
/// re-normalises anything.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// The terminated process.
    Finish,
    /// Send `label` with the evaluated `payload` to `peer`, continue at
    /// `next`.
    Send {
        /// Interned id of the partner role.
        peer: RoleId,
        /// Interned id of the message label.
        label: LabelId,
        /// The compiled payload expression.
        payload: CExpr,
        /// Event id of the send action (index into
        /// [`CompiledProc::events`]).
        event: u32,
        /// Program counter of the continuation.
        next: u32,
    },
    /// Wait for a message from `peer` and dispatch on its label.
    Recv {
        /// Interned id of the partner role.
        peer: RoleId,
        /// The handled alternatives.
        arms: Box<[Arm]>,
    },
    /// Branch on a boolean condition (an internal action).
    Cond {
        /// The compiled condition.
        cond: CExpr,
        /// Program counter when the condition is `true`.
        then_pc: u32,
        /// Program counter when the condition is `false`.
        else_pc: u32,
    },
    /// Call a `read` external action and bind its result.
    Read {
        /// Index into [`CompiledProc::action_names`].
        action: u32,
        /// Slot the result is written into.
        slot: u32,
        /// Program counter of the continuation.
        next: u32,
    },
    /// Call a `write` external action with the evaluated argument.
    Write {
        /// Index into [`CompiledProc::action_names`].
        action: u32,
        /// The compiled argument expression.
        arg: CExpr,
        /// Program counter of the continuation.
        next: u32,
    },
    /// Call an `interact` external action and bind its response.
    Interact {
        /// Index into [`CompiledProc::action_names`].
        action: u32,
        /// The compiled argument expression.
        arg: CExpr,
        /// Slot the response is written into.
        slot: u32,
        /// Program counter of the continuation.
        next: u32,
    },
}

/// Static metadata of one visible communication site (a send instruction or
/// one receive arm), used by executors and monitors to pre-resolve the
/// action the site performs.
#[derive(Debug, Clone, PartialEq)]
pub struct EventMeta {
    /// `true` for a send site, `false` for a receive arm.
    pub is_send: bool,
    /// Interned id of the partner role.
    pub peer: RoleId,
    /// Interned id of the message label.
    pub label: LabelId,
    /// The statically inferred payload sort of a send site (receive arms
    /// always know their declared sort). `None` when inference failed — the
    /// executor then resolves the action dynamically, exactly like the
    /// tree-walking path.
    pub static_sort: Option<SortId>,
}

/// A certified process lowered once into a flat instruction table.
///
/// # Examples
///
/// ```
/// use zooid_proc::{CompiledProc, Expr, Externals, Proc};
/// use zooid_mpst::Role;
///
/// // loop { send q (l, 1)! jump 0 } — the loop becomes a back-edge.
/// let p = Proc::loop_(Proc::send(Role::new("q"), "l", Expr::lit(1u64), Proc::Jump(0)));
/// let compiled = CompiledProc::compile(&p, &Role::new("p"), &Externals::new()).unwrap();
/// assert_eq!(compiled.instr_count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct CompiledProc {
    role: Role,
    entry: u32,
    instrs: Vec<Instr>,
    events: Vec<EventMeta>,
    action_names: Vec<String>,
    slot_count: u32,
    snapshot: InternerSnapshot,
}

impl CompiledProc {
    /// Lowers `proc` (playing `role`) into a compiled program.
    ///
    /// `externals` is consulted only for *declared signatures* (the result
    /// sorts of `read`/`interact` binders feed the static sort inference of
    /// later sends); implementations are irrelevant here and are supplied at
    /// run time. A program compiled against one `Externals` runs correctly
    /// with any other — missing signatures only disable static-sort hints.
    ///
    /// # Errors
    ///
    /// Fails with [`ProcError::UnboundJump`] on a jump without an enclosing
    /// loop, and [`ProcError::Stuck`] on a loop whose body can never reach
    /// an instruction (`loop { jump 0 }` and friends) — both of which the
    /// tree-walking executor would only discover at run time.
    pub fn compile(proc: &Proc, role: &Role, externals: &Externals) -> Result<CompiledProc> {
        let mut ctx = Compiler {
            interner: Interner::new(),
            instrs: Vec::new(),
            events: Vec::new(),
            action_names: Vec::new(),
            slot_sorts: Vec::new(),
            scope: Vec::new(),
            loop_stack: Vec::new(),
            externals,
        };
        let entry = ctx.compile_proc(proc)?;
        Ok(CompiledProc {
            role: role.clone(),
            entry,
            instrs: ctx.instrs,
            events: ctx.events,
            action_names: ctx.action_names,
            slot_count: u32::try_from(ctx.slot_sorts.len()).expect("slot table overflow"),
            snapshot: ctx.interner.snapshot(),
        })
    }

    /// The role the program plays.
    pub fn role(&self) -> &Role {
        &self.role
    }

    /// Program counter of the first instruction.
    pub fn entry(&self) -> u32 {
        self.entry
    }

    /// The instruction table.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Number of instructions.
    pub fn instr_count(&self) -> usize {
        self.instrs.len()
    }

    /// Metadata of every visible communication site, indexed by event id.
    pub fn events(&self) -> &[EventMeta] {
        &self.events
    }

    /// Names of the external actions the program calls, indexed by the
    /// `action` field of [`Instr::Read`]/[`Instr::Write`]/[`Instr::Interact`].
    pub fn action_names(&self) -> &[String] {
        &self.action_names
    }

    /// Returns `true` if the program contains any external-action
    /// instruction (`read`/`write`/`interact`). Programs that do are not
    /// batch-eligible: externals run arbitrary host closures, which the
    /// columnar executor cannot step in lockstep.
    pub fn calls_externals(&self) -> bool {
        !self.action_names.is_empty()
    }

    /// Number of value slots a task running this program needs.
    pub fn slot_count(&self) -> usize {
        self.slot_count as usize
    }

    /// The read-only snapshot resolving the program's interned ids back to
    /// roles, labels and sorts.
    pub fn snapshot(&self) -> &InternerSnapshot {
        &self.snapshot
    }
}

struct Compiler<'a> {
    interner: Interner,
    instrs: Vec<Instr>,
    events: Vec<EventMeta>,
    action_names: Vec<String>,
    slot_sorts: Vec<Option<Sort>>,
    /// Innermost-last map of in-scope variable names to slots.
    scope: Vec<(String, u32)>,
    /// Program counters of the enclosing loop heads, innermost last.
    loop_stack: Vec<u32>,
    externals: &'a Externals,
}

impl Compiler<'_> {
    fn compile_proc(&mut self, proc: &Proc) -> Result<u32> {
        match proc {
            Proc::Finish => {
                let pc = self.emit(Instr::Finish);
                Ok(pc)
            }
            Proc::Jump(i) => self
                .loop_stack
                .get(self.loop_stack.len().wrapping_sub(1 + *i as usize))
                .copied()
                .ok_or(ProcError::UnboundJump { index: *i }),
            Proc::Loop(body) => {
                // The body's first instruction lands at the current end of
                // the table; jumps back into the loop resolve to it.
                let head = u32::try_from(self.instrs.len()).expect("instruction table overflow");
                let before = self.instrs.len();
                self.loop_stack.push(head);
                let entry = self.compile_proc(body)?;
                self.loop_stack.pop();
                if self.instrs.len() == before {
                    // The body emitted nothing (`loop { jump k }` chains):
                    // the loop can never reach a communication.
                    return Err(ProcError::Stuck {
                        context: "recursion does not reach a communication".to_owned(),
                    });
                }
                Ok(entry)
            }
            Proc::Send {
                to,
                label,
                payload,
                cont,
            } => {
                let pc = self.emit(Instr::Finish); // placeholder
                let peer = self.interner.role_id(to);
                let label_id = self.interner.label_id(label);
                let cpayload = self.compile_expr(payload);
                let static_sort = self
                    .infer_static_sort(payload)
                    .map(|s| self.interner.sort_id(&s));
                let event = self.add_event(EventMeta {
                    is_send: true,
                    peer,
                    label: label_id,
                    static_sort,
                });
                let next = self.compile_proc(cont)?;
                self.instrs[pc as usize] = Instr::Send {
                    peer,
                    label: label_id,
                    payload: cpayload,
                    event,
                    next,
                };
                Ok(pc)
            }
            Proc::Recv { from, alts } => {
                let pc = self.emit(Instr::Finish); // placeholder
                let peer = self.interner.role_id(from);
                let mut arms = Vec::with_capacity(alts.len());
                for alt in alts {
                    let label_id = self.interner.label_id(&alt.label);
                    let sort_id = self.interner.sort_id(&alt.sort);
                    let slot = self.alloc_slot(Some(alt.sort.clone()));
                    let event = self.add_event(EventMeta {
                        is_send: false,
                        peer,
                        label: label_id,
                        static_sort: Some(sort_id),
                    });
                    self.scope.push((alt.var.clone(), slot));
                    let next = self.compile_proc(&alt.cont)?;
                    self.scope.pop();
                    arms.push(Arm {
                        label: label_id,
                        sort: sort_id,
                        slot,
                        event,
                        next,
                    });
                }
                self.instrs[pc as usize] = Instr::Recv {
                    peer,
                    arms: arms.into_boxed_slice(),
                };
                Ok(pc)
            }
            Proc::Cond {
                cond,
                then_branch,
                else_branch,
            } => {
                let pc = self.emit(Instr::Finish); // placeholder
                let ccond = self.compile_expr(cond);
                let then_pc = self.compile_proc(then_branch)?;
                let else_pc = self.compile_proc(else_branch)?;
                self.instrs[pc as usize] = Instr::Cond {
                    cond: ccond,
                    then_pc,
                    else_pc,
                };
                Ok(pc)
            }
            Proc::Read { action, var, cont } => {
                let pc = self.emit(Instr::Finish); // placeholder
                let action_id = self.action_id(action);
                let sort = self
                    .externals
                    .signature(action)
                    .map(|sig| sig.output.clone());
                let slot = self.alloc_slot(sort);
                self.scope.push((var.clone(), slot));
                let next = self.compile_proc(cont)?;
                self.scope.pop();
                self.instrs[pc as usize] = Instr::Read {
                    action: action_id,
                    slot,
                    next,
                };
                Ok(pc)
            }
            Proc::Write { action, arg, cont } => {
                let pc = self.emit(Instr::Finish); // placeholder
                let action_id = self.action_id(action);
                let carg = self.compile_expr(arg);
                let next = self.compile_proc(cont)?;
                self.instrs[pc as usize] = Instr::Write {
                    action: action_id,
                    arg: carg,
                    next,
                };
                Ok(pc)
            }
            Proc::Interact {
                action,
                arg,
                var,
                cont,
            } => {
                let pc = self.emit(Instr::Finish); // placeholder
                let action_id = self.action_id(action);
                let carg = self.compile_expr(arg);
                let sort = self
                    .externals
                    .signature(action)
                    .map(|sig| sig.output.clone());
                let slot = self.alloc_slot(sort);
                self.scope.push((var.clone(), slot));
                let next = self.compile_proc(cont)?;
                self.scope.pop();
                self.instrs[pc as usize] = Instr::Interact {
                    action: action_id,
                    arg: carg,
                    slot,
                    next,
                };
                Ok(pc)
            }
        }
    }

    fn emit(&mut self, instr: Instr) -> u32 {
        let pc = u32::try_from(self.instrs.len()).expect("instruction table overflow");
        self.instrs.push(instr);
        pc
    }

    fn add_event(&mut self, meta: EventMeta) -> u32 {
        let id = u32::try_from(self.events.len()).expect("event table overflow");
        self.events.push(meta);
        id
    }

    fn alloc_slot(&mut self, sort: Option<Sort>) -> u32 {
        let slot = u32::try_from(self.slot_sorts.len()).expect("slot table overflow");
        self.slot_sorts.push(sort);
        slot
    }

    fn action_id(&mut self, name: &str) -> u32 {
        if let Some(idx) = self.action_names.iter().position(|n| n == name) {
            return idx as u32;
        }
        let id = u32::try_from(self.action_names.len()).expect("action table overflow");
        self.action_names.push(name.to_owned());
        id
    }

    /// Resolves a variable name against the scope, innermost binder first.
    fn lookup(&self, name: &str) -> Option<u32> {
        self.scope
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, slot)| *slot)
    }

    fn compile_expr(&mut self, e: &Expr) -> CExpr {
        let bin = |ctx: &mut Self, a: &Expr, b: &Expr| {
            (Box::new(ctx.compile_expr(a)), Box::new(ctx.compile_expr(b)))
        };
        match e {
            Expr::Lit(v) => CExpr::Lit(v.clone()),
            Expr::Var(x) => match self.lookup(x) {
                Some(slot) => CExpr::Slot(slot),
                None => CExpr::Unbound(x.clone()),
            },
            Expr::Add(a, b) => {
                let (a, b) = bin(self, a, b);
                CExpr::Add(a, b)
            }
            Expr::Sub(a, b) => {
                let (a, b) = bin(self, a, b);
                CExpr::Sub(a, b)
            }
            Expr::Mul(a, b) => {
                let (a, b) = bin(self, a, b);
                CExpr::Mul(a, b)
            }
            Expr::Div(a, b) => {
                let (a, b) = bin(self, a, b);
                CExpr::Div(a, b)
            }
            Expr::Lt(a, b) => {
                let (a, b) = bin(self, a, b);
                CExpr::Lt(a, b)
            }
            Expr::Le(a, b) => {
                let (a, b) = bin(self, a, b);
                CExpr::Le(a, b)
            }
            Expr::Ge(a, b) => {
                let (a, b) = bin(self, a, b);
                CExpr::Ge(a, b)
            }
            Expr::Eq(a, b) => {
                let (a, b) = bin(self, a, b);
                CExpr::Eq(a, b)
            }
            Expr::And(a, b) => {
                let (a, b) = bin(self, a, b);
                CExpr::And(a, b)
            }
            Expr::Or(a, b) => {
                let (a, b) = bin(self, a, b);
                CExpr::Or(a, b)
            }
            Expr::Not(a) => CExpr::Not(Box::new(self.compile_expr(a))),
            Expr::If(c, t, e) => CExpr::If(
                Box::new(self.compile_expr(c)),
                Box::new(self.compile_expr(t)),
                Box::new(self.compile_expr(e)),
            ),
            Expr::Pair(a, b) => {
                let (a, b) = bin(self, a, b);
                CExpr::Pair(a, b)
            }
            Expr::Fst(a) => CExpr::Fst(Box::new(self.compile_expr(a))),
            Expr::Snd(a) => CExpr::Snd(Box::new(self.compile_expr(a))),
        }
    }

    /// Static sort of a payload expression under the declared sorts of the
    /// in-scope binders, or `None` when it cannot be determined.
    ///
    /// The executor uses this as a *hint*: when the runtime sort of the
    /// evaluated payload matches the hint, the pre-resolved interned action
    /// is used; otherwise it falls back to dynamic resolution. A `None` here
    /// is never wrong, only slower.
    fn infer_static_sort(&self, payload: &Expr) -> Option<Sort> {
        let mut env = SortEnv::new();
        for (name, slot) in &self.scope {
            match &self.slot_sorts[*slot as usize] {
                Some(sort) => {
                    env.insert(name.clone(), sort.clone());
                }
                None => {
                    env.remove(name);
                }
            }
        }
        payload.infer_sort(&env).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proc::RecvAlt;

    fn r(name: &str) -> Role {
        Role::new(name)
    }

    #[test]
    fn a_straight_line_process_compiles_to_a_straight_line_program() {
        let p = Proc::send(
            r("q"),
            "l",
            Expr::lit(7u64),
            Proc::recv1(r("q"), "m", Sort::Nat, "x", Proc::Finish),
        );
        let c = CompiledProc::compile(&p, &r("p"), &Externals::new()).unwrap();
        assert_eq!(c.entry(), 0);
        assert_eq!(c.instr_count(), 3);
        assert_eq!(c.slot_count(), 1);
        assert_eq!(c.events().len(), 2);
        assert!(c.events()[0].is_send);
        assert!(!c.events()[1].is_send);
        match &c.instrs()[0] {
            Instr::Send { next, .. } => assert_eq!(*next, 1),
            other => panic!("expected send, got {other:?}"),
        }
    }

    #[test]
    fn loops_become_back_edges() {
        let p = Proc::loop_(Proc::send(r("q"), "tick", Expr::lit(0u64), Proc::Jump(0)));
        let c = CompiledProc::compile(&p, &r("p"), &Externals::new()).unwrap();
        assert_eq!(c.instr_count(), 1);
        match &c.instrs()[0] {
            Instr::Send { next, .. } => assert_eq!(*next, 0, "the jump resolves to the loop head"),
            other => panic!("expected send, got {other:?}"),
        }
    }

    #[test]
    fn nested_loops_resolve_de_bruijn_indices() {
        // loop { recv q { a(x) ? jump 0 ; b(x) ? loop { send q (l, 1)! jump 1 } } }
        let p = Proc::loop_(Proc::recv(
            r("q"),
            vec![
                RecvAlt::new("a", Sort::Nat, "x", Proc::Jump(0)),
                RecvAlt::new(
                    "b",
                    Sort::Nat,
                    "x",
                    Proc::loop_(Proc::send(r("q"), "l", Expr::lit(1u64), Proc::Jump(1))),
                ),
            ],
        ));
        let c = CompiledProc::compile(&p, &r("p"), &Externals::new()).unwrap();
        // jump 1 from inside the inner loop points at the outer head (pc 0).
        match &c.instrs()[0] {
            Instr::Recv { arms, .. } => {
                assert_eq!(arms[0].next, 0);
                let inner = arms[1].next as usize;
                match &c.instrs()[inner] {
                    Instr::Send { next, .. } => assert_eq!(*next, 0),
                    other => panic!("expected send, got {other:?}"),
                }
            }
            other => panic!("expected recv, got {other:?}"),
        }
    }

    #[test]
    fn variables_resolve_to_slots_with_shadowing() {
        // recv q { l(x) ? recv q { l(x) ? send q (l, x)! finish } }: the
        // payload reads the inner binder's slot.
        let p = Proc::recv1(
            r("q"),
            "l",
            Sort::Nat,
            "x",
            Proc::recv1(
                r("q"),
                "l",
                Sort::Nat,
                "x",
                Proc::send(r("q"), "l", Expr::var("x"), Proc::Finish),
            ),
        );
        let c = CompiledProc::compile(&p, &r("p"), &Externals::new()).unwrap();
        assert_eq!(c.slot_count(), 2);
        let send_pc = match &c.instrs()[0] {
            Instr::Recv { arms, .. } => match &c.instrs()[arms[0].next as usize] {
                Instr::Recv { arms, .. } => arms[0].next as usize,
                other => panic!("expected recv, got {other:?}"),
            },
            other => panic!("expected recv, got {other:?}"),
        };
        match &c.instrs()[send_pc] {
            Instr::Send { payload, .. } => assert_eq!(payload, &CExpr::Slot(1)),
            other => panic!("expected send, got {other:?}"),
        }
    }

    #[test]
    fn free_variables_compile_to_runtime_failures() {
        let p = Proc::send(r("q"), "l", Expr::var("ghost"), Proc::Finish);
        let c = CompiledProc::compile(&p, &r("p"), &Externals::new()).unwrap();
        match &c.instrs()[0] {
            Instr::Send { payload, .. } => {
                assert!(matches!(
                    payload.eval(&[]),
                    Err(ProcError::UnboundVariable { .. })
                ));
            }
            other => panic!("expected send, got {other:?}"),
        }
    }

    #[test]
    fn unbound_jumps_and_unguarded_loops_are_compile_errors() {
        assert!(matches!(
            CompiledProc::compile(&Proc::Jump(0), &r("p"), &Externals::new()),
            Err(ProcError::UnboundJump { index: 0 })
        ));
        assert!(matches!(
            CompiledProc::compile(&Proc::loop_(Proc::Jump(0)), &r("p"), &Externals::new()),
            Err(ProcError::Stuck { .. })
        ));
        assert!(matches!(
            CompiledProc::compile(
                &Proc::loop_(Proc::loop_(Proc::Jump(1))),
                &r("p"),
                &Externals::new()
            ),
            Err(ProcError::Stuck { .. })
        ));
    }

    #[test]
    fn static_sorts_cover_the_common_cases() {
        // x bound at nat: x + 1 is statically nat.
        let p = Proc::recv1(
            r("q"),
            "l",
            Sort::Nat,
            "x",
            Proc::send(
                r("q"),
                "m",
                Expr::add(Expr::var("x"), Expr::lit(1u64)),
                Proc::Finish,
            ),
        );
        let c = CompiledProc::compile(&p, &r("p"), &Externals::new()).unwrap();
        let send_event = c.events().iter().find(|e| e.is_send).unwrap();
        let sort_id = send_event.static_sort.expect("statically known");
        assert_eq!(c.snapshot().sort(sort_id), &Sort::Nat);

        // A read binder without a declared signature defeats inference.
        let p = Proc::read(
            "mystery",
            "y",
            Proc::send(r("q"), "m", Expr::var("y"), Proc::Finish),
        );
        let c = CompiledProc::compile(&p, &r("p"), &Externals::new()).unwrap();
        let send_event = c.events().iter().find(|e| e.is_send).unwrap();
        assert!(send_event.static_sort.is_none());
    }

    #[test]
    fn slot_evaluation_matches_tree_evaluation() {
        let e = Expr::ite(
            Expr::ge(Expr::var("x"), Expr::lit(10u64)),
            Expr::mul(Expr::var("x"), Expr::lit(2u64)),
            Expr::lit(0u64),
        );
        let p = Proc::recv1(r("q"), "l", Sort::Nat, "x", Proc::send(r("q"), "m", e.clone(), Proc::Finish));
        let c = CompiledProc::compile(&p, &r("p"), &Externals::new()).unwrap();
        let payload = match &c.instrs().iter().find(|i| matches!(i, Instr::Send { .. })).unwrap() {
            Instr::Send { payload, .. } => payload.clone(),
            _ => unreachable!(),
        };
        for v in [Value::Nat(3), Value::Nat(12)] {
            let tree = e.subst("x", &v).eval_closed().unwrap();
            let compiled = payload.eval(&[v]).unwrap();
            assert_eq!(tree, compiled);
        }
    }

    #[test]
    fn external_action_names_are_deduplicated() {
        let p = Proc::write(
            "log",
            Expr::lit(1u64),
            Proc::write("log", Expr::lit(2u64), Proc::Finish),
        );
        let mut ext = Externals::new();
        ext.register_write("log", Sort::Nat, |_| {});
        let c = CompiledProc::compile(&p, &r("p"), &ext).unwrap();
        assert_eq!(c.action_names(), &["log".to_owned()]);
    }
}
