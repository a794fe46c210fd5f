//! The protocol registry: compile each registered protocol once, and be the
//! one place its facts live.
//!
//! Registration runs the whole front half of the pipeline — well-formedness
//! (already checked by [`Protocol::new`]), projection onto every participant,
//! per-role CFSM compilation, [`System::compile`] and a **safety check** of
//! the compiled system (the sequential reduced exploration of the CFSM
//! engine, [`CompiledSystem::explore_por`], under a configurable
//! [`SafetyBudget`]) — and files the result under a dense [`ProtocolId`].
//! [`SessionServer::start`](crate::SessionServer::start) freezes the
//! registry behind one `Arc` that every worker shard holds, so a session
//! crosses threads as an id and a spec and every protocol fact is an index
//! into the registry: the paper's per-session analysis cost is paid exactly
//! once per protocol, no matter how many thousands of sessions of it the
//! server hosts.
//!
//! Everything compiled is keyed on the **interned global-type id** (the
//! registry owns a [`zooid_mpst::Interner`] for exactly this), so
//! registering a structurally identical protocol — same name or a new one —
//! is a pure lookup: no re-projection, no recompilation, no re-exploration,
//! and the twins share their lowered endpoint programs and batch layouts.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use zooid_cfsm::{Cfsm, CompiledSystem, System, Verdict};
use zooid_dsl::{CertifiedProcess, Protocol};
use zooid_mpst::common::intern::TypeId;
use zooid_mpst::local::LocalType;
use zooid_mpst::{Interner, Role};
use zooid_proc::{CompiledProc, Externals, Proc, ProcError};
use zooid_engine::cbatch::BatchLayout;
use zooid_engine::program::EndpointProgram;

use crate::error::{Result, ServerError};

/// Upper bound on cached compiled endpoint programs (and on cached layouts)
/// per global type: sessions normally submit one implementation per role, so
/// the caches stay tiny; a workload cycling through many distinct
/// implementations of one protocol compiles the excess ones per session
/// instead of growing without bound.
const CACHE_CAP: usize = 64;

/// Budget of the registration-time safety check: channel bound and
/// visited-configuration cap handed to the reduced CFSM exploration
/// ([`CompiledSystem::explore_por`]).
///
/// Every registration runs under the default (bound 2, 50k
/// configurations), which keeps registration latency flat for ordinary
/// protocols. A capped search never reports a false `Safe`: running out
/// of budget yields [`Verdict::Inconclusive`].
///
/// The cap is also what a registration may cost in memory: the explorer
/// keeps every configuration it visits until it answers. A configuration
/// is one word per machine, per channel and per queued message, and a word
/// is a byte whenever the protocol's state indices and message ids and the
/// channel bound are all at most 255 (at the default bound, any protocol
/// with at most 256 states per role and 256 distinct messages), four bytes
/// otherwise. Each configuration adds a few dozen bytes of bookkeeping
/// (where it ends, its hash, its index slot, the step that found it). So
/// at the default budget a 64-role chain, about 130 words a configuration,
/// holds about 6.5 MB of words when it runs the budget dry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SafetyBudget {
    /// FIFO bound per ordered role pair during exploration (0 = rendezvous).
    pub channel_bound: usize,
    /// Maximum visited configurations before the verdict degrades to
    /// [`Verdict::Inconclusive`].
    pub max_configs: usize,
}

impl Default for SafetyBudget {
    fn default() -> Self {
        SafetyBudget {
            channel_bound: 2,
            max_configs: 50_000,
        }
    }
}

/// A cast's lowered programs, one per participant in sorted-role order.
type Programs = Vec<Arc<EndpointProgram>>;

/// The process a cached program was lowered from. A cast's process is kept
/// as its certificate, shared: a later lookup through any handle on that
/// certificate passes the very `&Proc` the cache holds, and hits on its
/// address without walking the tree. A bare process
/// ([`ProtocolArtifacts::endpoint_program`]) is kept as a copy.
#[derive(Debug)]
enum Lowered {
    Certified(CertifiedProcess),
    Bare(Proc),
}

impl Lowered {
    fn proc(&self) -> &Proc {
        match self {
            Lowered::Certified(cert) => cert.proc(),
            Lowered::Bare(proc) => proc,
        }
    }
}

/// A small shared cache of `(key, value)` entries, read through [`cached`].
type Cache<K, V> = Mutex<Vec<(K, V)>>;

/// Everything compiled from one global type, shared by every protocol
/// registered for it (under any name).
#[derive(Debug)]
struct Compiled {
    locals: Vec<(Role, LocalType)>,
    /// The participants, sorted — the role table of every batch layout of
    /// this protocol, shared without re-sorting or re-allocating.
    sorted_roles: Arc<[Role]>,
    system: Arc<CompiledSystem>,
    verdict: Verdict,
    /// Compiled endpoint programs ([`EndpointProgram`]), cached per
    /// `(role, process)`: every session submitting the same implementation
    /// of a role shares one lowered program with its action templates
    /// pre-interned against `system`. Lazily filled (sessions bring their
    /// own processes), hence the interior mutability. An entry holds the
    /// process it compiled, shared with the certificate it came from
    /// ([`Lowered`]), so a lookup with that very process is an address
    /// comparison; any other is a structural one.
    programs: Cache<(Role, Lowered), Arc<EndpointProgram>>,
    /// Batch layouts ([`BatchLayout`]), cached per resolved program set: the
    /// batch key every session of that cast shares. The key holds the
    /// `Arc`s themselves (compared by pointer identity) — keeping the
    /// programs alive is what makes the identity comparison sound against
    /// allocator address reuse.
    layouts: Cache<Programs, Arc<BatchLayout>>,
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
    compiled: Arc<Compiled>,
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
        &self.compiled.locals
    }

    /// The participants of the protocol.
    pub fn roles(&self) -> impl Iterator<Item = &Role> {
        self.locals().iter().map(|(role, _)| role)
    }

    /// The participants, sorted, behind a shared `Arc` — every batch
    /// layout's role table.
    pub(crate) fn sorted_roles(&self) -> &Arc<[Role]> {
        &self.compiled.sorted_roles
    }

    /// The compiled per-role transition tables, shared by every session's
    /// [`CompiledMonitor`](zooid_engine::CompiledMonitor).
    pub fn compiled(&self) -> &Arc<CompiledSystem> {
        &self.compiled.system
    }

    /// The verdict of the registration-time safety check (deadlocks, orphan
    /// messages, reception errors) under the default [`SafetyBudget`].
    ///
    /// Projectable protocols come out [`Verdict::Safe`] unless the budget
    /// was exhausted first, in which case this is
    /// [`Verdict::Inconclusive`] — never a false `Safe`.
    pub fn safety_verdict(&self) -> Verdict {
        self.compiled.verdict
    }

    /// The compiled endpoint program for one `(role, process)` pair —
    /// compile-once-per-implementation, shared across every session (of any
    /// protocol registered for the same global type) that submits it.
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
        self.lower(role, proc, || Lowered::Bare(proc.clone()), externals)
            .ok()
    }

    /// [`ProtocolArtifacts::endpoint_program`], keeping the lowering error
    /// for the session outcome that reports it; `lowered` is what a miss
    /// files the program under.
    fn lower(
        &self,
        role: &Role,
        proc: &Proc,
        lowered: impl FnOnce() -> Lowered,
        externals: &Externals,
    ) -> std::result::Result<Arc<EndpointProgram>, ProcError> {
        cached(
            &self.compiled.programs,
            |(cached_role, cached)| {
                let cached = cached.proc();
                cached_role == role && (std::ptr::eq(cached, proc) || cached == proc)
            },
            || (role.clone(), lowered()),
            || {
                let compiled = Arc::new(CompiledProc::compile(proc, role, externals)?);
                Ok(Arc::new(EndpointProgram::with_system(compiled, &self.compiled.system)))
            },
        )
    }

    /// Resolves a session's cast, once per admission, into the
    /// [`BatchLayout`] its session runs in: every endpoint's lowered
    /// program, in **sorted-role order** ([`BatchLayout::programs`]), with
    /// the routing tables they share. Every cast that lowers has one.
    ///
    /// The endpoints may come in any order but must cover the protocol's
    /// participants exactly (`validate_spec`).
    ///
    /// # Errors
    ///
    /// The [`ProcError`] of the first process that does not lower.
    pub(crate) fn resolve(
        &self,
        endpoints: &[(CertifiedProcess, Externals)],
    ) -> std::result::Result<Arc<BatchLayout>, ProcError> {
        let mut programs = endpoints
            .iter()
            .map(|(cert, externals)| {
                let lowered = || Lowered::Certified(cert.clone());
                self.lower(cert.role(), cert.proc(), lowered, externals)
            })
            .collect::<std::result::Result<Vec<_>, _>>()?;
        programs.sort_by(|a, b| a.program().role().cmp(b.program().role()));
        // The layout is cached per program set, compared by pointer
        // identity.
        let Ok(layout) = cached::<_, _, std::convert::Infallible>(
            &self.compiled.layouts,
            |key| {
                key.len() == programs.len()
                    && key.iter().zip(&programs).all(|(a, b)| Arc::ptr_eq(a, b))
            },
            || programs.clone(),
            || {
                let roles = Arc::clone(self.sorted_roles());
                let system = Arc::clone(&self.compiled.system);
                let layout = BatchLayout::new(roles, programs.clone(), system);
                Ok(layout.expect("one program per participant, in sorted-role order"))
            },
        );
        Ok(layout)
    }
}

/// Looks a key up in one of [`Compiled`]'s caches and, on a miss, builds the
/// value **outside** the lock — a miss must not stall the other shards'
/// admissions for a whole lowering — then files it under `key()`, up to
/// [`CACHE_CAP`] entries. Losing a race just means two equal values briefly
/// exist; the cache keeps the first.
fn cached<K, V: Clone, E>(
    cache: &Cache<K, V>,
    is_key: impl Fn(&K) -> bool,
    key: impl FnOnce() -> K,
    build: impl FnOnce() -> std::result::Result<V, E>,
) -> std::result::Result<V, E> {
    let find = |entries: &Vec<(K, V)>| {
        let hit = entries.iter().find(|(key, _)| is_key(key));
        hit.map(|(_, value)| value.clone())
    };
    if let Some(hit) = find(&cache.lock().unwrap_or_else(|e| e.into_inner())) {
        return Ok(hit);
    }
    let value = build()?;
    let mut entries = cache.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(first) = find(&entries) {
        return Ok(first);
    }
    if entries.len() < CACHE_CAP {
        entries.push((key(), value.clone()));
    }
    Ok(value)
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
    artifacts: Vec<ProtocolArtifacts>,
    /// Interns registered global types; equal [`TypeId`]s ⟺ structurally
    /// identical protocols, so both the duplicate-name check and the
    /// compile/check cache are id comparisons, not deep tree walks.
    interner: Interner,
    /// What was compiled for each distinct global type.
    compiled: HashMap<TypeId, Arc<Compiled>>,
}

impl ProtocolRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ProtocolRegistry::default()
    }

    /// Registers a protocol, compiling its artifacts (projection, per-role
    /// machines, dense transition tables) and safety-checking the compiled
    /// system (sequential reduced exploration under the default
    /// [`SafetyBudget`]) exactly once per *structurally distinct* global
    /// type.
    ///
    /// Registering the same (name, global type) again returns the existing
    /// id; registering the same global type under a new name is a pure
    /// cache lookup keyed on the interned type id — the new entry shares
    /// everything compiled for the first: tables, projections, safety
    /// verdict, and the endpoint programs and batch layouts its sessions
    /// lower.
    ///
    /// # Errors
    ///
    /// Fails if a *different* protocol already uses the name, or if the
    /// protocol is not projectable onto one of its participants.
    pub fn register(&mut self, protocol: Protocol) -> Result<ProtocolId> {
        let tid = self.interner.intern_global(protocol.global());
        if let Some(&id) = self.ids.get(protocol.name()) {
            if self[id].tid == tid {
                return Ok(id);
            }
            return Err(ServerError::DuplicateProtocol {
                name: protocol.name().to_owned(),
            });
        }
        let compiled = match self.compiled.get(&tid) {
            Some(compiled) => Arc::clone(compiled),
            None => {
                let locals = protocol.project_all()?;
                let mut sorted: Vec<Role> = locals.iter().map(|(role, _)| role.clone()).collect();
                sorted.sort();
                sorted.dedup();
                let machines = locals
                    .iter()
                    .map(|(role, local)| Cfsm::from_local_type(role.clone(), local))
                    .collect::<std::result::Result<Vec<_>, _>>()?;
                let system = Arc::new(System::new(machines)?.compile());
                // Always the sequential reduced engine: the work-stealing
                // one reaches the same verdict (differentially tested) but
                // takes 1.4–1.6x as long at 2 threads on a 2-vCPU box
                // (traced `register`, seeds 1–3, explore_t2_us over
                // explore_por_us: 266–325 ms over 171–206 ms).
                let budget = SafetyBudget::default();
                let verdict = system
                    .explore_por(budget.channel_bound, budget.max_configs)
                    .verdict();
                let compiled = Arc::new(Compiled {
                    locals,
                    sorted_roles: sorted.into(),
                    system,
                    verdict,
                    programs: Mutex::new(Vec::new()),
                    layouts: Mutex::new(Vec::new()),
                });
                self.compiled.insert(tid, Arc::clone(&compiled));
                compiled
            }
        };
        let id = ProtocolId(u32::try_from(self.artifacts.len()).expect("registry overflow"));
        self.ids.insert(protocol.name().to_owned(), id);
        self.artifacts.push(ProtocolArtifacts {
            id,
            tid,
            protocol,
            compiled,
        });
        Ok(id)
    }

    /// The artifacts of a registered protocol.
    pub fn get(&self, id: ProtocolId) -> Option<&ProtocolArtifacts> {
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
}

/// A [`ProtocolId`] is the dense index of its artifacts: total for the ids
/// this registry issued, a panic for any other ([`ProtocolRegistry::get`]).
impl std::ops::Index<ProtocolId> for ProtocolRegistry {
    type Output = ProtocolArtifacts;

    fn index(&self, id: ProtocolId) -> &ProtocolArtifacts {
        &self.artifacts[id.index()]
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
        // So are the caches: a cast lowered for one name is a cache hit for
        // its twin, down to the batch layout. (Each cast is certified
        // against its own protocol name; the processes are equal.)
        let cast = |f: &ProtocolArtifacts| crate::synth::skeleton_endpoints(f.protocol()).unwrap();
        let (layout_a, layout_b) = (
            fa.resolve(&cast(fa)).unwrap(),
            fb.resolve(&cast(fb)).unwrap(),
        );
        assert_eq!(layout_a.programs().len(), 3);
        assert!(Arc::ptr_eq(&layout_a, &layout_b));
    }

    #[test]
    fn registration_records_a_safety_verdict() {
        let mut registry = ProtocolRegistry::new();
        let id = registry
            .register(Protocol::new("ring", generators::ring3()).unwrap())
            .unwrap();
        assert_eq!(registry.get(id).unwrap().safety_verdict(), Verdict::Safe);
    }

    #[test]
    fn an_exhausted_budget_reads_inconclusive_not_safe() {
        // A recursive chain of 12 roles reaches more configurations than the
        // default budget visits.
        let mut registry = ProtocolRegistry::new();
        let id = registry
            .register(Protocol::new("chain12", generators::chain_n(12)).unwrap())
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
