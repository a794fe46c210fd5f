//! The protocol registry: compile each registered protocol once, share the
//! artifacts with every session.
//!
//! Registration runs the whole front half of the pipeline — well-formedness
//! (already checked by [`Protocol::new`]), projection onto every participant,
//! per-role CFSM compilation, [`System::compile`] and a **safety check** of
//! the compiled system (the parallel reduced exploration of the CFSM
//! engine, under a configurable [`SafetyBudget`]) — and caches the result
//! behind an `Arc` keyed by a dense [`ProtocolId`]. Starting a session is
//! then a lookup plus a few clones of interned tables' handles: the paper's
//! per-session analysis cost is paid exactly once per protocol, no matter
//! how many thousands of sessions of it the server hosts.
//!
//! The compile/check cache is keyed on the **interned global-type id** (the
//! registry owns a [`zooid_mpst::Interner`] for exactly this), so
//! registering a structurally identical protocol — same name or a new one —
//! is a pure lookup: no re-projection, no recompilation, no re-exploration.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use zooid_cfsm::{Cfsm, CompiledSystem, System, Verdict};
use zooid_dsl::{CertifiedProcess, Protocol};
use zooid_mpst::common::intern::TypeId;
use zooid_mpst::local::LocalType;
use zooid_mpst::{Interner, Role};
use zooid_proc::{CompiledProc, Externals, Proc, ProcError};
use zooid_runtime::cbatch::BatchLayout;
use zooid_runtime::cexec::EndpointProgram;

use crate::error::{Result, ServerError};

/// Upper bound on cached compiled endpoint programs per protocol: sessions
/// normally submit one implementation per role, so the cache stays tiny; a
/// workload cycling through many distinct implementations of one protocol
/// compiles the excess ones per session instead of growing without bound.
const PROGRAM_CACHE_CAP: usize = 64;

/// Budget of the registration-time safety check: channel bound,
/// visited-configuration cap and worker-thread count handed to the reduced
/// CFSM exploration ([`zooid_cfsm::CompiledSystem::explore_por`] at one
/// thread, [`zooid_cfsm::CompiledSystem::explore_parallel`] beyond).
///
/// The default (bound 2, 50k configurations, 1 thread) keeps registration
/// latency flat for ordinary protocols; deployments registering large
/// concurrent protocols can raise the cap and the thread count. A capped
/// search never reports a false `Safe`: running out of budget yields
/// [`Verdict::Inconclusive`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SafetyBudget {
    /// FIFO bound per ordered role pair during exploration (0 = rendezvous).
    pub channel_bound: usize,
    /// Maximum visited configurations before the verdict degrades to
    /// [`Verdict::Inconclusive`].
    pub max_configs: usize,
    /// Worker threads of the exploration. At most 1 runs the sequential
    /// reduced engine ([`zooid_cfsm::CompiledSystem::explore_por`]) on the
    /// registering thread; 2 or more spawn the work-stealing pool.
    pub threads: usize,
}

impl Default for SafetyBudget {
    fn default() -> Self {
        SafetyBudget {
            channel_bound: 2,
            max_configs: 50_000,
            threads: 1,
        }
    }
}

/// Structure-keyed compilation artifacts shared by every registration of
/// the same global type (under any name).
#[derive(Debug, Clone)]
struct CompiledEntry {
    locals: Arc<[(Role, LocalType)]>,
    /// The participants, sorted — the shared role table every session's
    /// [`zooid_runtime::transport::InMemoryNetwork`] is built from without
    /// re-sorting or re-allocating.
    sorted_roles: Arc<[Role]>,
    compiled: Arc<CompiledSystem>,
    verdict: Verdict,
}

/// Dense id of a registered protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProtocolId(pub(crate) u32);

impl ProtocolId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Everything the server needs to run sessions of one protocol, compiled
/// once at registration time.
#[derive(Debug)]
pub struct ProtocolArtifacts {
    id: ProtocolId,
    /// Interned id of the protocol's global type: equal ids ⟺ structurally
    /// identical protocols (within this registry), the key of the
    /// compile/check cache.
    tid: TypeId,
    protocol: Protocol,
    locals: Arc<[(Role, LocalType)]>,
    sorted_roles: Arc<[Role]>,
    compiled: Arc<CompiledSystem>,
    verdict: Verdict,
    /// Compiled endpoint programs ([`EndpointProgram`]), cached per
    /// `(role, process)`: every session submitting the same implementation
    /// of a role shares one lowered program with its action templates
    /// pre-interned against `compiled`. Lazily filled (sessions bring their
    /// own processes), hence the interior mutability.
    programs: Mutex<Vec<(Role, Proc, Arc<EndpointProgram>)>>,
    /// Batchable-layout descriptors ([`BatchLayout`]), cached per resolved
    /// program set. The key holds the `Arc`s themselves (compared by
    /// pointer identity) — keeping the programs alive is what makes the
    /// identity comparison sound against allocator address reuse. `None` is
    /// cached too: a program set that is not batch-eligible is not
    /// re-analysed per session.
    batch_layouts: Mutex<Vec<(Vec<Arc<EndpointProgram>>, Option<Arc<BatchLayout>>)>>,
}

impl ProtocolArtifacts {
    /// The protocol's registry id.
    pub fn id(&self) -> ProtocolId {
        self.id
    }

    /// The registered protocol.
    pub fn protocol(&self) -> &Protocol {
        &self.protocol
    }

    /// The protocol's name.
    pub fn name(&self) -> &str {
        self.protocol.name()
    }

    /// The participants, with the projection of the protocol onto each.
    pub fn locals(&self) -> &[(Role, LocalType)] {
        &self.locals
    }

    /// The participants of the protocol.
    pub fn roles(&self) -> impl Iterator<Item = &Role> {
        self.locals.iter().map(|(role, _)| role)
    }

    /// The participants, sorted, behind a shared `Arc` — every session's
    /// in-memory network is built directly on this table.
    pub(crate) fn sorted_roles(&self) -> &Arc<[Role]> {
        &self.sorted_roles
    }

    /// The compiled per-role transition tables, shared by every session's
    /// [`CompiledMonitor`](zooid_runtime::CompiledMonitor).
    pub fn compiled(&self) -> &Arc<CompiledSystem> {
        &self.compiled
    }

    /// The verdict of the registration-time safety check (deadlocks, orphan
    /// messages, reception errors) under the registry's [`SafetyBudget`].
    ///
    /// Projectable protocols come out [`Verdict::Safe`] unless the budget
    /// was exhausted first, in which case this is
    /// [`Verdict::Inconclusive`] — never a false `Safe`.
    pub fn safety_verdict(&self) -> Verdict {
        self.verdict
    }

    /// The compiled endpoint program for one `(role, process)` pair —
    /// compile-once-per-implementation, shared across every session that
    /// submits it.
    ///
    /// Returns `None` when the process does not lower (a jump without an
    /// enclosing loop, a loop that can never reach a communication).
    /// Certification rejects both, so a [`CertifiedProcess`] always lowers;
    /// the server closes a session whose process does not with every
    /// endpoint `Failed` — there is no second executor to fall back to.
    ///
    /// `externals` only contributes declared signatures to the static-sort
    /// hints; the cache deliberately ignores it — a program compiled under
    /// one `Externals` runs correctly under any other (see
    /// [`CompiledProc::compile`]).
    pub fn endpoint_program(
        &self,
        role: &Role,
        proc: &Proc,
        externals: &Externals,
    ) -> Option<Arc<EndpointProgram>> {
        self.lower(role, proc, externals).ok()
    }

    /// [`ProtocolArtifacts::endpoint_program`], keeping the lowering error
    /// for the session outcome that reports it.
    pub(crate) fn lower(
        &self,
        role: &Role,
        proc: &Proc,
        externals: &Externals,
    ) -> std::result::Result<Arc<EndpointProgram>, ProcError> {
        let lookup = |cache: &Vec<(Role, Proc, Arc<EndpointProgram>)>| {
            cache
                .iter()
                .find(|(cached_role, cached_proc, _)| cached_role == role && cached_proc == proc)
                .map(|(_, _, program)| Arc::clone(program))
        };
        if let Some(program) = lookup(&self.programs.lock().unwrap_or_else(|e| e.into_inner())) {
            return Ok(program);
        }
        // Compile outside the lock: a miss must not stall the other shards'
        // session construction for the whole lowering. Losing the race just
        // means two structurally identical programs briefly exist; the
        // cache keeps the first.
        let compiled = CompiledProc::compile(proc, role, externals)?;
        let program = Arc::new(EndpointProgram::with_system(
            Arc::new(compiled),
            &self.compiled,
        ));
        let mut cache = self.programs.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(existing) = lookup(&cache) {
            return Ok(existing);
        }
        if cache.len() < PROGRAM_CACHE_CAP {
            cache.push((role.clone(), proc.clone(), Arc::clone(&program)));
        }
        Ok(program)
    }

    /// The shared [`BatchLayout`] for a session's endpoints, or `None` when
    /// the combination is not batch-eligible (a process that does not
    /// lower, calls externals, or has a communication site without a
    /// statically known sort): the caller keeps the session on the slab
    /// executor.
    ///
    /// The endpoints may come in any order; the layout's role order is the
    /// protocol's sorted role table. Results — including `None` — are
    /// cached per resolved program set, so the steady state is one lock and
    /// a handful of pointer comparisons per session.
    pub(crate) fn batch_layout(
        &self,
        endpoints: &[(CertifiedProcess, Externals)],
    ) -> Option<Arc<BatchLayout>> {
        let roles = self.sorted_roles();
        let mut resolved: Vec<Option<Arc<EndpointProgram>>> = vec![None; roles.len()];
        for (cert, externals) in endpoints {
            let pos = roles.binary_search(cert.role()).ok()?;
            resolved[pos] = Some(self.endpoint_program(cert.role(), cert.proc(), externals)?);
        }
        let programs: Vec<Arc<EndpointProgram>> = resolved.into_iter().collect::<Option<_>>()?;
        let lookup = |cache: &Vec<(Vec<Arc<EndpointProgram>>, Option<Arc<BatchLayout>>)>| {
            cache
                .iter()
                .find(|(key, _)| {
                    key.len() == programs.len()
                        && key.iter().zip(&programs).all(|(a, b)| Arc::ptr_eq(a, b))
                })
                .map(|(_, layout)| layout.clone())
        };
        if let Some(cached) = lookup(&self.batch_layouts.lock().unwrap_or_else(|e| e.into_inner()))
        {
            return cached;
        }
        let layout = BatchLayout::new(
            Arc::clone(roles),
            programs.clone(),
            Arc::clone(&self.compiled),
        );
        let mut cache = self.batch_layouts.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(cached) = lookup(&cache) {
            return cached;
        }
        if cache.len() < PROGRAM_CACHE_CAP {
            cache.push((programs, layout.clone()));
        }
        layout
    }
}

/// A registry of compiled protocols.
///
/// # Examples
///
/// ```
/// use zooid_dsl::Protocol;
/// use zooid_mpst::generators;
/// use zooid_server::ProtocolRegistry;
///
/// let mut registry = ProtocolRegistry::new();
/// let id = registry.register(Protocol::new("ring", generators::ring3()).unwrap()).unwrap();
/// assert_eq!(registry.get(id).unwrap().name(), "ring");
/// // Re-registering the same protocol is idempotent.
/// let again = registry.register(Protocol::new("ring", generators::ring3()).unwrap()).unwrap();
/// assert_eq!(id, again);
/// ```
#[derive(Debug, Default)]
pub struct ProtocolRegistry {
    ids: HashMap<String, ProtocolId>,
    artifacts: Vec<Arc<ProtocolArtifacts>>,
    /// Interns registered global types; equal [`TypeId`]s ⟺ structurally
    /// identical protocols, so both the duplicate-name check and the
    /// compile/check cache are id comparisons, not deep tree walks.
    interner: Interner,
    /// Compilation + safety artifacts per distinct global type.
    compiled: HashMap<TypeId, CompiledEntry>,
    budget: SafetyBudget,
}

impl ProtocolRegistry {
    /// An empty registry with the default [`SafetyBudget`].
    pub fn new() -> Self {
        ProtocolRegistry::default()
    }

    /// An empty registry whose registrations are safety-checked under
    /// `budget`.
    pub fn with_safety_budget(budget: SafetyBudget) -> Self {
        ProtocolRegistry {
            budget,
            ..ProtocolRegistry::default()
        }
    }

    /// The safety budget applied at registration time.
    pub fn safety_budget(&self) -> SafetyBudget {
        self.budget
    }

    /// Registers a protocol, compiling its artifacts (projection, per-role
    /// machines, dense transition tables) and safety-checking the compiled
    /// system (parallel reduced exploration under the registry's
    /// [`SafetyBudget`]) exactly once per *structurally distinct* global
    /// type.
    ///
    /// Registering the same (name, global type) again returns the existing
    /// id; registering the same global type under a new name is a pure
    /// cache lookup keyed on the interned type id — the new entry shares
    /// the compiled tables, projections and safety verdict of the first.
    ///
    /// # Errors
    ///
    /// Fails if a *different* protocol already uses the name, or if the
    /// protocol is not projectable onto one of its participants.
    pub fn register(&mut self, protocol: Protocol) -> Result<ProtocolId> {
        let tid = self.interner.intern_global(protocol.global());
        if let Some(&id) = self.ids.get(protocol.name()) {
            if self.artifacts[id.index()].tid == tid {
                return Ok(id);
            }
            return Err(ServerError::DuplicateProtocol {
                name: protocol.name().to_owned(),
            });
        }
        let entry = match self.compiled.get(&tid) {
            Some(entry) => entry.clone(),
            None => {
                let locals: Arc<[(Role, LocalType)]> = protocol.project_all()?.into();
                let mut sorted: Vec<Role> = locals.iter().map(|(role, _)| role.clone()).collect();
                sorted.sort();
                sorted.dedup();
                let sorted_roles: Arc<[Role]> = sorted.into();
                let machines = locals
                    .iter()
                    .map(|(role, local)| Cfsm::from_local_type(role.clone(), local))
                    .collect::<std::result::Result<Vec<_>, _>>()?;
                let system = System::new(machines)?;
                let compiled = Arc::new(system.compile());
                // Same reduced search, same verdict (differentially
                // tested); the single-threaded budget takes the sequential
                // engine and skips the shard/deque machinery outright.
                let outcome = if self.budget.threads <= 1 {
                    compiled.explore_por(self.budget.channel_bound, self.budget.max_configs)
                } else {
                    compiled.explore_parallel(
                        self.budget.channel_bound,
                        self.budget.max_configs,
                        self.budget.threads,
                    )
                };
                let verdict = outcome.verdict();
                let entry = CompiledEntry {
                    locals,
                    sorted_roles,
                    compiled,
                    verdict,
                };
                self.compiled.insert(tid, entry.clone());
                entry
            }
        };
        let id = ProtocolId(u32::try_from(self.artifacts.len()).expect("registry overflow"));
        self.ids.insert(protocol.name().to_owned(), id);
        self.artifacts.push(Arc::new(ProtocolArtifacts {
            id,
            tid,
            protocol,
            locals: entry.locals,
            sorted_roles: entry.sorted_roles,
            compiled: entry.compiled,
            verdict: entry.verdict,
            programs: Mutex::new(Vec::new()),
            batch_layouts: Mutex::new(Vec::new()),
        }));
        Ok(id)
    }

    /// The artifacts of a registered protocol.
    pub fn get(&self, id: ProtocolId) -> Option<&Arc<ProtocolArtifacts>> {
        self.artifacts.get(id.index())
    }

    /// Looks a protocol up by name.
    pub fn lookup(&self, name: &str) -> Option<ProtocolId> {
        self.ids.get(name).copied()
    }

    /// Number of registered protocols.
    pub fn len(&self) -> usize {
        self.artifacts.len()
    }

    /// Returns `true` if no protocol has been registered.
    pub fn is_empty(&self) -> bool {
        self.artifacts.is_empty()
    }

    /// Iterates over the registered artifacts in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<ProtocolArtifacts>> {
        self.artifacts.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zooid_mpst::generators;

    #[test]
    fn registration_compiles_projections_and_machines() {
        let mut registry = ProtocolRegistry::new();
        let id = registry
            .register(Protocol::new("ring", generators::ring3()).unwrap())
            .unwrap();
        let artifacts = registry.get(id).unwrap();
        assert_eq!(artifacts.locals().len(), 3);
        assert_eq!(artifacts.compiled().machine_count(), 3);
        assert_eq!(registry.lookup("ring"), Some(id));
        assert_eq!(registry.len(), 1);
    }

    #[test]
    fn conflicting_names_are_rejected_but_reregistration_is_idempotent() {
        let mut registry = ProtocolRegistry::new();
        let id = registry
            .register(Protocol::new("p", generators::ring3()).unwrap())
            .unwrap();
        let again = registry
            .register(Protocol::new("p", generators::ring3()).unwrap())
            .unwrap();
        assert_eq!(id, again);
        assert_eq!(registry.len(), 1);
        let conflicting = Protocol::new("p", generators::two_buyer()).unwrap();
        assert!(matches!(
            registry.register(conflicting),
            Err(ServerError::DuplicateProtocol { .. })
        ));
    }

    #[test]
    fn unprojectable_protocols_fail_at_registration() {
        use zooid_mpst::global::GlobalType;
        use zooid_mpst::{Label, Sort};
        let r = Role::new;
        let g = GlobalType::msg(
            r("Alice"),
            r("Bob"),
            vec![
                (
                    Label::new("l1"),
                    Sort::Nat,
                    GlobalType::msg1(r("Bob"), r("Carol"), "l", Sort::Nat, GlobalType::End),
                ),
                (
                    Label::new("l2"),
                    Sort::Nat,
                    GlobalType::msg1(r("Alice"), r("Carol"), "l", Sort::Nat, GlobalType::End),
                ),
            ],
        );
        let mut registry = ProtocolRegistry::new();
        assert!(matches!(
            registry.register(Protocol::new("bad-merge", g).unwrap()),
            Err(ServerError::Dsl(_))
        ));
    }

    #[test]
    fn structurally_identical_protocols_share_artifacts_across_names() {
        let mut registry = ProtocolRegistry::new();
        let a = registry
            .register(Protocol::new("ring-a", generators::ring3()).unwrap())
            .unwrap();
        let b = registry
            .register(Protocol::new("ring-b", generators::ring3()).unwrap())
            .unwrap();
        assert_ne!(a, b, "distinct names get distinct ids");
        let (fa, fb) = (registry.get(a).unwrap(), registry.get(b).unwrap());
        // The compile/check cache is keyed on the interned global-type id:
        // the second registration reuses the first's compiled tables and
        // projections outright instead of recomputing them.
        assert!(Arc::ptr_eq(fa.compiled(), fb.compiled()));
        assert_eq!(fa.safety_verdict(), fb.safety_verdict());
        assert!(std::ptr::eq(fa.locals().as_ptr(), fb.locals().as_ptr()));
    }

    #[test]
    fn registration_records_a_safety_verdict() {
        let mut registry = ProtocolRegistry::new();
        let id = registry
            .register(Protocol::new("ring", generators::ring3()).unwrap())
            .unwrap();
        assert_eq!(registry.get(id).unwrap().safety_verdict(), Verdict::Safe);
        assert_eq!(registry.safety_budget(), SafetyBudget::default());
    }

    #[test]
    fn an_exhausted_budget_reads_inconclusive_not_safe() {
        let mut registry = ProtocolRegistry::with_safety_budget(SafetyBudget {
            channel_bound: 2,
            max_configs: 1,
            threads: 2,
        });
        let id = registry
            .register(Protocol::new("ring", generators::ring3()).unwrap())
            .unwrap();
        assert_eq!(
            registry.get(id).unwrap().safety_verdict(),
            Verdict::Inconclusive
        );
    }

    #[test]
    fn unknown_ids_return_none() {
        let registry = ProtocolRegistry::new();
        assert!(registry.get(ProtocolId(0)).is_none());
        assert!(registry.lookup("nope").is_none());
        assert!(registry.is_empty());
    }
}
