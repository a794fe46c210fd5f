//! External actions: the counterpart of the OCaml functions a Zooid process
//! calls through `read`, `write` and `interact` (§4.1).
//!
//! External actions let a process exchange data with its environment without
//! exposing channels or the transport: they are *internal* actions that never
//! appear in traces and have no effect on the local type. Typing only needs
//! their signatures ([`ExternalSig`]); execution needs their implementations,
//! registered in an [`Externals`] registry.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use zooid_mpst::Sort;

use crate::error::{ProcError, Result};
use crate::value::Value;

/// The three kinds of environment interaction of Definition 4.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExternalKind {
    /// `read`: `unit -> S` — obtain a value from the environment.
    Read,
    /// `write`: `S -> unit` — hand a value to the environment (print, log,
    /// persist, ...).
    Write,
    /// `interact`: `S -> S'` — hand a value to the environment and obtain a
    /// response.
    Interact,
}

impl fmt::Display for ExternalKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExternalKind::Read => f.write_str("read"),
            ExternalKind::Write => f.write_str("write"),
            ExternalKind::Interact => f.write_str("interact"),
        }
    }
}

/// The signature of an external action: what it consumes and produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExternalSig {
    /// The kind of interaction.
    pub kind: ExternalKind,
    /// Sort of the argument (always `unit` for `read`).
    pub input: Sort,
    /// Sort of the result (always `unit` for `write`).
    pub output: Sort,
}

impl ExternalSig {
    /// Signature of a `read` action producing a value of sort `output`.
    pub fn read(output: Sort) -> Self {
        ExternalSig {
            kind: ExternalKind::Read,
            input: Sort::Unit,
            output,
        }
    }

    /// Signature of a `write` action consuming a value of sort `input`.
    pub fn write(input: Sort) -> Self {
        ExternalSig {
            kind: ExternalKind::Write,
            input,
            output: Sort::Unit,
        }
    }

    /// Signature of an `interact` action of type `input -> output`.
    pub fn interact(input: Sort, output: Sort) -> Self {
        ExternalSig {
            kind: ExternalKind::Interact,
            input,
            output,
        }
    }
}

type ExternalFn = Arc<dyn Fn(Value) -> Value + Send + Sync>;

/// A registry of external actions: signatures (needed for typing) plus
/// implementations (needed for execution).
///
/// The two tables sit behind one `Arc`, so a clone costs one reference
/// count however many actions are registered: every session of a cast
/// takes its own copy. Registering or declaring on a clone copies the
/// tables first (copy-on-write) and leaves the other copies as they were.
/// An empty registry has no tables at all, so making or cloning one
/// allocates nothing.
///
/// # Examples
///
/// ```
/// use zooid_proc::{Externals, Value};
/// use zooid_mpst::Sort;
///
/// let mut ext = Externals::new();
/// ext.register_interact("double", Sort::Nat, Sort::Nat,
///     |v| Value::Nat(v.as_nat().unwrap() * 2));
/// assert_eq!(ext.call("double", Value::Nat(21)).unwrap(), Value::Nat(42));
/// ```
#[derive(Clone, Default)]
pub struct Externals {
    tables: Option<Arc<Tables>>,
}

/// What an [`Externals`] shares.
#[derive(Clone, Default)]
struct Tables {
    sigs: BTreeMap<String, ExternalSig>,
    impls: BTreeMap<String, ExternalFn>,
}

/// The tables of every empty registry.
static NO_TABLES: Tables = Tables {
    sigs: BTreeMap::new(),
    impls: BTreeMap::new(),
};

impl Externals {
    /// An empty registry.
    pub fn new() -> Self {
        Externals::default()
    }

    fn tables(&self) -> &Tables {
        self.tables.as_deref().unwrap_or(&NO_TABLES)
    }

    /// The tables to register into, copied first if another registry
    /// shares them.
    fn tables_mut(&mut self) -> &mut Tables {
        Arc::make_mut(self.tables.get_or_insert_with(Default::default))
    }

    /// Registers a `read` action producing values of sort `output`.
    pub fn register_read(
        &mut self,
        name: impl Into<String>,
        output: Sort,
        f: impl Fn() -> Value + Send + Sync + 'static,
    ) -> &mut Self {
        let name = name.into();
        let tables = self.tables_mut();
        tables.sigs.insert(name.clone(), ExternalSig::read(output));
        tables.impls.insert(name, Arc::new(move |_| f()));
        self
    }

    /// Registers a `write` action consuming values of sort `input`.
    pub fn register_write(
        &mut self,
        name: impl Into<String>,
        input: Sort,
        f: impl Fn(Value) + Send + Sync + 'static,
    ) -> &mut Self {
        let name = name.into();
        let tables = self.tables_mut();
        tables.sigs.insert(name.clone(), ExternalSig::write(input));
        tables.impls.insert(
            name,
            Arc::new(move |v| {
                f(v);
                Value::Unit
            }),
        );
        self
    }

    /// Registers an `interact` action of type `input -> output`.
    pub fn register_interact(
        &mut self,
        name: impl Into<String>,
        input: Sort,
        output: Sort,
        f: impl Fn(Value) -> Value + Send + Sync + 'static,
    ) -> &mut Self {
        let name = name.into();
        let tables = self.tables_mut();
        tables
            .sigs
            .insert(name.clone(), ExternalSig::interact(input, output));
        tables.impls.insert(name, Arc::new(f));
        self
    }

    /// Declares a signature without an implementation (enough for type
    /// checking; execution will fail if the action is actually called).
    pub fn declare(&mut self, name: impl Into<String>, sig: ExternalSig) -> &mut Self {
        self.tables_mut().sigs.insert(name.into(), sig);
        self
    }

    /// The signature of an action, if declared.
    pub fn signature(&self, name: &str) -> Option<&ExternalSig> {
        self.tables().sigs.get(name)
    }

    /// Calls an action's implementation.
    ///
    /// # Errors
    ///
    /// [`ProcError::UnknownExternal`] if no implementation was registered,
    /// [`ProcError::SortMismatch`] if the argument does not inhabit the
    /// declared input sort.
    pub fn call(&self, name: &str, arg: Value) -> Result<Value> {
        let sig = self
            .signature(name)
            .ok_or_else(|| ProcError::UnknownExternal { name: name.into() })?;
        if !arg.has_sort(&sig.input) {
            return Err(ProcError::IllTypedOperation {
                context: format!(
                    "argument {arg} of external action `{name}` does not have sort {}",
                    sig.input
                ),
            });
        }
        let f = self
            .tables()
            .impls
            .get(name)
            .ok_or_else(|| ProcError::UnknownExternal { name: name.into() })?;
        let result = f(arg);
        if !result.has_sort(&sig.output) {
            return Err(ProcError::IllTypedOperation {
                context: format!(
                    "result {result} of external action `{name}` does not have sort {}",
                    sig.output
                ),
            });
        }
        Ok(result)
    }

    /// The names of all declared actions.
    pub fn names(&self) -> Vec<&str> {
        self.tables().sigs.keys().map(String::as_str).collect()
    }
}

impl fmt::Debug for Externals {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tables = self.tables();
        f.debug_struct("Externals")
            .field("declared", &tables.sigs.keys().collect::<Vec<_>>())
            .field("implemented", &tables.impls.keys().collect::<Vec<_>>())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc as StdArc;

    #[test]
    fn read_write_interact_round_trip() {
        let written = StdArc::new(AtomicU64::new(0));
        let written2 = StdArc::clone(&written);
        let mut ext = Externals::new();
        ext.register_read("answer", Sort::Nat, || Value::Nat(42));
        ext.register_write("log", Sort::Nat, move |v| {
            written2.store(v.as_nat().unwrap(), Ordering::SeqCst);
        });
        ext.register_interact("inc", Sort::Nat, Sort::Nat, |v| {
            Value::Nat(v.as_nat().unwrap() + 1)
        });

        assert_eq!(ext.call("answer", Value::Unit).unwrap(), Value::Nat(42));
        assert_eq!(ext.call("log", Value::Nat(7)).unwrap(), Value::Unit);
        assert_eq!(written.load(Ordering::SeqCst), 7);
        assert_eq!(ext.call("inc", Value::Nat(1)).unwrap(), Value::Nat(2));
        assert_eq!(ext.names().len(), 3);
    }

    #[test]
    fn unknown_actions_are_rejected() {
        let ext = Externals::new();
        assert!(matches!(
            ext.call("nope", Value::Unit),
            Err(ProcError::UnknownExternal { .. })
        ));
        assert!(ext.signature("nope").is_none());
    }

    #[test]
    fn argument_and_result_sorts_are_enforced() {
        let mut ext = Externals::new();
        ext.register_interact("id", Sort::Nat, Sort::Nat, |v| v);
        assert!(ext.call("id", Value::Bool(true)).is_err());

        // A buggy implementation returning the wrong sort is caught.
        ext.register_interact("bad", Sort::Nat, Sort::Bool, |v| v);
        assert!(ext.call("bad", Value::Nat(1)).is_err());
    }

    #[test]
    fn declared_but_unimplemented_actions_typecheck_but_do_not_run() {
        let mut ext = Externals::new();
        ext.declare("compute", ExternalSig::interact(Sort::Nat, Sort::Nat));
        assert!(ext.signature("compute").is_some());
        assert!(ext.call("compute", Value::Nat(1)).is_err());
    }

    #[test]
    fn registering_on_a_clone_leaves_the_original_as_it_was() {
        let mut original = Externals::new();
        original.register_interact("inc", Sort::Nat, Sort::Nat, |v| {
            Value::Nat(v.as_nat().unwrap() + 1)
        });
        let mut clone = original.clone();
        clone.register_read("answer", Sort::Nat, || Value::Nat(42));
        clone.declare("compute", ExternalSig::interact(Sort::Nat, Sort::Nat));
        assert_eq!(original.names(), ["inc"]);
        assert_eq!(clone.names(), ["answer", "compute", "inc"]);
        assert!(original.signature("answer").is_none());
        assert!(original.call("answer", Value::Unit).is_err());
        assert_eq!(original.call("inc", Value::Nat(1)).unwrap(), Value::Nat(2));
        assert_eq!(clone.call("inc", Value::Nat(1)).unwrap(), Value::Nat(2));
        assert_eq!(clone.call("answer", Value::Unit).unwrap(), Value::Nat(42));
        // And the other way round: the original's registrations stay its own.
        original.register_write("log", Sort::Nat, |_| {});
        assert!(clone.signature("log").is_none());
        assert_eq!(original.names(), ["inc", "log"]);
    }

    #[test]
    fn signatures_expose_their_kinds() {
        assert_eq!(ExternalSig::read(Sort::Nat).kind, ExternalKind::Read);
        assert_eq!(ExternalSig::write(Sort::Nat).kind, ExternalKind::Write);
        assert_eq!(
            ExternalSig::interact(Sort::Nat, Sort::Bool).kind,
            ExternalKind::Interact
        );
        assert_eq!(ExternalKind::Read.to_string(), "read");
    }
}
