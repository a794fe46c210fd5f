//! The protocol workflow: `\project`, `\get` and certification of endpoint
//! implementations (§5.1, *A Common Workflow*).

use std::fmt;
use std::sync::Arc;

use zooid_mpst::global::GlobalType;
use zooid_mpst::local::LocalType;
use zooid_mpst::projection::{project, project_all};
use zooid_mpst::Role;
use zooid_proc::{type_check, Externals, Proc};

use crate::builder::WtProc;
use crate::error::{DslError, Result};
use crate::unravel_eq::unravel_eq;

/// A named, well-formed global protocol, the entry point of the Zooid
/// workflow.
///
/// Constructing a `Protocol` checks well-formedness; [`Protocol::project_all`]
/// (the `\project` notation of §5.1) additionally checks projectability onto
/// every participant — only protocols that pass both can certify endpoint
/// implementations.
#[derive(Debug, Clone, PartialEq)]
pub struct Protocol {
    name: String,
    global: GlobalType,
}

impl Protocol {
    /// Wraps a global type, checking that it is well-formed (guarded, closed,
    /// non-empty label-distinct choices, no self-communication).
    ///
    /// # Errors
    ///
    /// [`DslError::IllFormedProtocol`] when the check fails.
    pub fn new(name: impl Into<String>, global: GlobalType) -> Result<Self> {
        global
            .well_formed()
            .map_err(DslError::IllFormedProtocol)?;
        Ok(Protocol {
            name: name.into(),
            global,
        })
    }

    /// The protocol's name (used in reports and diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The underlying global type.
    pub fn global(&self) -> &GlobalType {
        &self.global
    }

    /// The participants of the protocol.
    pub fn roles(&self) -> Vec<Role> {
        self.global.participants().into_iter().collect()
    }

    /// Projects the protocol onto every participant — the paper's
    /// `\project` notation. Fails if the protocol is not projectable onto
    /// some participant, exactly like the Coq notation fails to typecheck.
    ///
    /// # Errors
    ///
    /// [`DslError::Projection`] when some projection is undefined.
    pub fn project_all(&self) -> Result<Vec<(Role, LocalType)>> {
        project_all(&self.global).map_err(DslError::Projection)
    }

    /// The projection onto one participant — the paper's `\get` notation.
    ///
    /// # Errors
    ///
    /// [`DslError::UnknownRole`] if the participant is not part of the
    /// protocol, [`DslError::Projection`] if the projection is undefined.
    pub fn get(&self, role: &Role) -> Result<LocalType> {
        if !self.global.participants().contains(role) {
            return Err(DslError::UnknownRole { role: role.clone() });
        }
        project(&self.global, role).map_err(DslError::Projection)
    }

    /// Certifies an endpoint implementation for `role`:
    ///
    /// 1. the process must be well-typed against the local type inferred by
    ///    the smart constructors (re-checked here, now that payload
    ///    expressions and external signatures can be resolved);
    /// 2. that local type must be equal *up to unravelling* to the
    ///    projection of the protocol onto `role` (step (4) of the workflow —
    ///    the small coinductive proof of §5.1, discharged by the
    ///    [`unravel_eq`] decision procedure).
    ///
    /// The returned [`CertifiedProcess`] is what the runtime executes; by
    /// Theorems 4.5 and 4.7 its traces are contained in the protocol's
    /// traces, so it inherits protocol compliance, deadlock-freedom and
    /// liveness from the global type.
    ///
    /// # Errors
    ///
    /// Any of the checks above failing is reported as a [`DslError`].
    pub fn implement(
        &self,
        role: &Role,
        process: WtProc,
        externals: &Externals,
    ) -> Result<CertifiedProcess> {
        process.validate(externals)?;
        let projected = self.get(role)?;
        let (proc, inferred) = process.into_parts();
        if !unravel_eq(&inferred, &projected) {
            return Err(DslError::TypeDoesNotMatchProjection {
                role: role.clone(),
                inferred: Box::new(inferred),
                projected: Box::new(projected),
            });
        }
        Ok(CertifiedProcess::new(Certificate {
            protocol_name: self.name.clone(),
            role: role.clone(),
            proc,
            local: inferred,
            projected,
        }))
    }

    /// Certifies an implementation provided as a raw process against the
    /// projection of the protocol onto `role` (option (1) of §5.1: the local
    /// type is given as a type index rather than inferred).
    ///
    /// # Errors
    ///
    /// Fails if the process is not well-typed against the projection.
    pub fn implement_against_projection(
        &self,
        role: &Role,
        proc: Proc,
        externals: &Externals,
    ) -> Result<CertifiedProcess> {
        let projected = self.get(role)?;
        type_check(&proc, &projected, externals)?;
        Ok(CertifiedProcess::new(Certificate {
            protocol_name: self.name.clone(),
            role: role.clone(),
            proc,
            local: projected.clone(),
            projected,
        }))
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protocol {}: {}", self.name, self.global)
    }
}

/// An endpoint implementation that has been certified against a protocol:
/// the process, the local type it implements, and the projection it was
/// checked against.
///
/// Like the paper's `wt_proc L`, a certificate is an immutable value that
/// is checked once and then run by any number of sessions. A
/// `CertifiedProcess` is a *handle* on one such certificate: cloning it
/// costs a reference count and shares the process and both types.
/// Equality (`==`) is structural, so two certifications of one process are
/// equal; [`CertifiedProcess::same`] asks the stronger question of whether
/// two handles share one certification, which is what a consumer that
/// remembers the certificates it has already processed compares.
#[derive(Clone)]
pub struct CertifiedProcess(Arc<Certificate>);

/// What a [`CertifiedProcess`] shares.
#[derive(PartialEq)]
struct Certificate {
    protocol_name: String,
    role: Role,
    proc: Proc,
    local: LocalType,
    projected: LocalType,
}

impl PartialEq for CertifiedProcess {
    fn eq(&self, other: &Self) -> bool {
        self.same(other) || self.0 == other.0
    }
}

impl fmt::Debug for CertifiedProcess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = &self.0;
        f.debug_struct("CertifiedProcess")
            .field("protocol_name", &c.protocol_name)
            .field("role", &c.role)
            .field("proc", &c.proc)
            .field("local", &c.local)
            .field("projected", &c.projected)
            .finish()
    }
}

impl CertifiedProcess {
    fn new(certificate: Certificate) -> Self {
        CertifiedProcess(Arc::new(certificate))
    }

    /// Whether both handles share one certification: `true` for a clone,
    /// `false` for two certifications of equal processes (which are `==`).
    /// A `true` answer implies `==`.
    pub fn same(&self, other: &CertifiedProcess) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// The name of the protocol the process was certified against.
    pub fn protocol_name(&self) -> &str {
        &self.0.protocol_name
    }

    /// The role this process implements.
    pub fn role(&self) -> &Role {
        &self.0.role
    }

    /// The underlying process (what the runtime executes). Every clone of
    /// the handle returns the same process, at the same address.
    pub fn proc(&self) -> &Proc {
        &self.0.proc
    }

    /// The local type the process implements.
    pub fn local_type(&self) -> &LocalType {
        &self.0.local
    }

    /// The projection of the protocol onto the role (equal to
    /// [`CertifiedProcess::local_type`] up to unravelling).
    pub fn projected_type(&self) -> &LocalType {
        &self.0.projected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{self, SelectAlt};
    use zooid_mpst::Sort;
    use zooid_proc::Expr;

    fn r(name: &str) -> Role {
        Role::new(name)
    }

    fn ring() -> GlobalType {
        GlobalType::msg1(
            r("Alice"),
            r("Bob"),
            "l",
            Sort::Nat,
            GlobalType::msg1(
                r("Bob"),
                r("Carol"),
                "l",
                Sort::Nat,
                GlobalType::msg1(r("Carol"), r("Alice"), "l", Sort::Nat, GlobalType::End),
            ),
        )
    }

    fn ping_pong() -> GlobalType {
        GlobalType::rec(GlobalType::msg(
            r("Alice"),
            r("Bob"),
            vec![
                (zooid_mpst::Label::new("l1"), Sort::Unit, GlobalType::End),
                (
                    zooid_mpst::Label::new("l2"),
                    Sort::Nat,
                    GlobalType::msg1(r("Bob"), r("Alice"), "l3", Sort::Nat, GlobalType::var(0)),
                ),
            ],
        ))
    }

    #[test]
    fn protocol_creation_checks_well_formedness() {
        assert!(Protocol::new("ring", ring()).is_ok());
        let bad = GlobalType::rec(GlobalType::var(0));
        assert!(matches!(
            Protocol::new("bad", bad),
            Err(DslError::IllFormedProtocol(_))
        ));
    }

    #[test]
    fn project_all_and_get_follow_the_workflow() {
        let p = Protocol::new("ring", ring()).unwrap();
        let all = p.project_all().unwrap();
        assert_eq!(all.len(), 3);
        let alice = p.get(&r("Alice")).unwrap();
        assert_eq!(
            alice,
            LocalType::send1(
                r("Bob"),
                "l",
                Sort::Nat,
                LocalType::recv1(r("Carol"), "l", Sort::Nat, LocalType::End)
            )
        );
        assert!(matches!(
            p.get(&r("Zoe")),
            Err(DslError::UnknownRole { .. })
        ));
        assert_eq!(p.roles().len(), 3);
        assert_eq!(p.name(), "ring");
    }

    #[test]
    fn unprojectable_protocols_fail_at_project_all() {
        let g_prime = GlobalType::msg(
            r("Alice"),
            r("Bob"),
            vec![
                (
                    zooid_mpst::Label::new("l1"),
                    Sort::Nat,
                    GlobalType::msg1(r("Bob"), r("Carol"), "l", Sort::Nat, GlobalType::End),
                ),
                (
                    zooid_mpst::Label::new("l2"),
                    Sort::Nat,
                    GlobalType::msg1(r("Alice"), r("Carol"), "l", Sort::Nat, GlobalType::End),
                ),
            ],
        );
        let p = Protocol::new("bad-merge", g_prime).unwrap();
        assert!(matches!(p.project_all(), Err(DslError::Projection(_))));
    }

    #[test]
    fn implement_certifies_a_correct_alice() {
        let p = Protocol::new("ring", ring()).unwrap();
        let alice = builder::send(
            r("Bob"),
            "l",
            Sort::Nat,
            Expr::lit(7u64),
            builder::recv1(r("Carol"), "l", Sort::Nat, "y", builder::finish()).unwrap(),
        )
        .unwrap();
        let cert = p.implement(&r("Alice"), alice, &Externals::new()).unwrap();
        assert_eq!(cert.role(), &r("Alice"));
        assert_eq!(cert.protocol_name(), "ring");
        assert_eq!(cert.local_type(), cert.projected_type());
    }

    #[test]
    fn implement_rejects_a_process_for_the_wrong_role() {
        let p = Protocol::new("ring", ring()).unwrap();
        let alice = builder::send(
            r("Bob"),
            "l",
            Sort::Nat,
            Expr::lit(7u64),
            builder::recv1(r("Carol"), "l", Sort::Nat, "y", builder::finish()).unwrap(),
        )
        .unwrap();
        assert!(matches!(
            p.implement(&r("Bob"), alice, &Externals::new()),
            Err(DslError::TypeDoesNotMatchProjection { .. })
        ));
    }

    #[test]
    fn implement_accepts_unrollings_of_the_projection() {
        // alice4 of §5.1 implements an unrolling of the ping-pong projection.
        let p = Protocol::new("ping-pong", ping_pong()).unwrap();
        let k = 5u64;
        let inner = builder::select(
            r("Bob"),
            vec![
                SelectAlt::case(
                    Expr::ge(Expr::var("x"), Expr::lit(k)),
                    "l1",
                    Sort::Unit,
                    Expr::unit(),
                    builder::finish(),
                ),
                SelectAlt::otherwise("l2", Sort::Nat, Expr::var("x"), builder::jump(0)),
            ],
        )
        .unwrap();
        let looping =
            builder::loop_(builder::recv1(r("Bob"), "l3", Sort::Nat, "x", inner).unwrap()).unwrap();
        let alice4 = builder::select(
            r("Bob"),
            vec![
                SelectAlt::skip("l1", Sort::Unit, LocalType::End),
                SelectAlt::otherwise("l2", Sort::Nat, Expr::lit(0u64), looping),
            ],
        )
        .unwrap();
        let cert = p.implement(&r("Alice"), alice4, &Externals::new()).unwrap();
        assert_ne!(cert.local_type(), cert.projected_type());
        assert!(unravel_eq(cert.local_type(), cert.projected_type()));
    }

    #[test]
    fn implement_against_projection_typechecks_raw_processes() {
        let p = Protocol::new("ring", ring()).unwrap();
        // Carol: recv Bob (l, x)? send Alice (l, x)! finish — written as a
        // plain Proc rather than through the smart constructors.
        let carol = Proc::recv1(
            r("Bob"),
            "l",
            Sort::Nat,
            "x",
            Proc::send(r("Alice"), "l", Expr::var("x"), Proc::Finish),
        );
        let cert = p
            .implement_against_projection(&r("Carol"), carol, &Externals::new())
            .unwrap();
        assert_eq!(cert.role(), &r("Carol"));

        // A process that quits immediately does not implement Carol.
        let bogus = Proc::Finish;
        assert!(p
            .implement_against_projection(&r("Carol"), bogus, &Externals::new())
            .is_err());
    }

    fn certified_carol(p: &Protocol) -> CertifiedProcess {
        let carol = Proc::recv1(
            r("Bob"),
            "l",
            Sort::Nat,
            "x",
            Proc::send(r("Alice"), "l", Expr::var("x"), Proc::Finish),
        );
        p.implement_against_projection(&r("Carol"), carol, &Externals::new())
            .unwrap()
    }

    #[test]
    fn a_clone_is_the_same_certificate() {
        let p = Protocol::new("ring", ring()).unwrap();
        let cert = certified_carol(&p);
        let clone = cert.clone();
        assert!(cert.same(&clone) && clone.same(&cert));
        assert_eq!(cert, clone);
        assert!(std::ptr::eq(cert.proc(), clone.proc()));
    }

    #[test]
    fn two_certifications_of_one_process_are_equal_but_not_the_same() {
        let p = Protocol::new("ring", ring()).unwrap();
        let (first, second) = (certified_carol(&p), certified_carol(&p));
        assert_eq!(first, second);
        assert!(!first.same(&second));
        // A different certificate is neither.
        let alice = builder::send(
            r("Bob"),
            "l",
            Sort::Nat,
            Expr::lit(7u64),
            builder::recv1(r("Carol"), "l", Sort::Nat, "y", builder::finish()).unwrap(),
        )
        .unwrap();
        let alice = p.implement(&r("Alice"), alice, &Externals::new()).unwrap();
        assert_ne!(first, alice);
        assert!(!first.same(&alice));
    }

    #[test]
    fn debug_prints_the_certificate_as_a_plain_struct() {
        // What `#[derive(Debug)]` printed when the fields were inline. Only
        // `Debug` reads the fields.
        #[allow(dead_code)]
        #[derive(Debug)]
        struct CertifiedProcess<'a> {
            protocol_name: &'a str,
            role: &'a Role,
            proc: &'a Proc,
            local: &'a LocalType,
            projected: &'a LocalType,
        }
        let p = Protocol::new("ring", ring()).unwrap();
        let cert = certified_carol(&p);
        let inline = CertifiedProcess {
            protocol_name: cert.protocol_name(),
            role: cert.role(),
            proc: cert.proc(),
            local: cert.local_type(),
            projected: cert.projected_type(),
        };
        assert_eq!(format!("{cert:?}"), format!("{inline:?}"));
        assert_eq!(format!("{cert:#?}"), format!("{inline:#?}"));
    }

    #[test]
    fn display_mentions_the_protocol_name() {
        let p = Protocol::new("ring", ring()).unwrap();
        assert!(p.to_string().contains("ring"));
    }
}
