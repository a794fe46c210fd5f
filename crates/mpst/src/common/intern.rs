//! Hash-consed interning of global and local session types.
//!
//! The hot paths of the pipeline — unravelling (`unravel`), projection
//! (`projection`) and the trace-equivalence checkers (`trace_equiv`) — all
//! operate on recursive type terms. Represented naively (`Box`-based
//! [`GlobalType`] / [`LocalType`]), every unfolding step deep-clones a term
//! and every memo-table lookup deep-hashes one, which makes those paths
//! quadratic in protocol size before the actual algorithm even starts.
//!
//! An [`Interner`] is an arena that assigns each *structurally distinct* type
//! node a dense `u32` id ([`TypeId`] for global terms, [`LTypeId`] for local
//! terms) and stores its children as ids. Interning gives us, for free:
//!
//! * **O(1) structural equality** — two interned terms are structurally equal
//!   iff their ids are equal (checked by the property tests);
//! * **cheap memoisation** — unfolding, substitution and projection memo
//!   tables are keyed on ids instead of deep terms;
//! * **maximal sharing** — substitution and unfolding reuse every subterm
//!   they do not touch, so a chain of unfoldings costs the size of the
//!   *changed* spine only;
//! * **per-node metadata** — each interned node carries its free-variable
//!   mask, participant set and whether it contains a recursion binder,
//!   computed once bottom-up at intern time and reused by every later pass.
//!
//! The interner also owns a role table mapping [`Role`]s to dense indices
//! ([`RoleId`]), which is what [`RoleSet`] bitsets are indexed by.
//!
//! [`GlobalType`]: crate::global::GlobalType
//! [`LocalType`]: crate::local::LocalType

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use crate::common::branch::Branch;
use crate::common::label::Label;
use crate::common::role::{Role, RoleSet};
use crate::common::sort::Sort;
use crate::error::{Error, Result};
use crate::global::syntax::GlobalType;
use crate::local::syntax::LocalType;

/// A fast, non-cryptographic hasher (the rustc-hash / FxHash algorithm).
///
/// The interner's maps are keyed on small ids and short strings and sit on
/// the hot paths of unravelling and projection; SipHash's DoS resistance
/// buys nothing there and costs a measurable constant factor.
#[derive(Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` using [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// Index of a role in an [`Interner`]'s role table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RoleId(pub(crate) u32);

impl RoleId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Index of a label in an [`Interner`]'s label table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LabelId(pub(crate) u32);

impl LabelId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Index of a sort in an [`Interner`]'s sort table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SortId(pub(crate) u32);

impl SortId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Index of an interned `(label, sort)` message payload in an [`Interner`]'s
/// message table. Two messages carry the same id iff their label and payload
/// sort are both equal, so channel contents and CFSM actions can be compared
/// and hashed as single `u32`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MsgId(pub(crate) u32);

impl MsgId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds a message id from a raw index, as produced by
    /// [`MsgId::index`]. The result is only meaningful against the interner
    /// (or snapshot) the index came from; callers restoring persisted state
    /// must bounds-check it against that table before trusting it.
    pub fn from_index(index: usize) -> Option<MsgId> {
        u32::try_from(index).ok().map(MsgId)
    }
}

/// One alternative of an interned choice: everything is a dense id, so
/// hashing and comparing terms never touches a string or a recursive sort.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IBranch<T> {
    /// The interned label selecting this alternative.
    pub label: LabelId,
    /// The interned payload sort.
    pub sort: SortId,
    /// The interned continuation.
    pub cont: T,
}

/// Id of an interned global-type node. Equal ids ⟺ structurally equal terms
/// (within one interner).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TypeId(u32);

impl TypeId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Id of an interned local-type node. Equal ids ⟺ structurally equal terms
/// (within one interner).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LTypeId(u32);

impl LTypeId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An interned global-type node; children are [`TypeId`]s.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum GTerm {
    /// `end`.
    End,
    /// A recursion variable (de Bruijn index).
    Var(u32),
    /// `mu X. body`.
    Rec(TypeId),
    /// `from -> to : { l_i(S_i). G_i }`.
    Msg {
        /// The sending participant.
        from: RoleId,
        /// The receiving participant.
        to: RoleId,
        /// The alternatives; shared so re-interning reuses the allocation.
        branches: Arc<[IBranch<TypeId>]>,
    },
}

/// An interned local-type node; children are [`LTypeId`]s.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LTerm {
    /// `end`.
    End,
    /// A recursion variable (de Bruijn index).
    Var(u32),
    /// `mu X. body`.
    Rec(LTypeId),
    /// Internal choice `![to] ; { l_i(S_i). L_i }`.
    Send {
        /// The partner the message is sent to.
        to: RoleId,
        /// The alternatives.
        branches: Arc<[IBranch<LTypeId>]>,
    },
    /// External choice `?[from] ; { l_i(S_i). L_i }`.
    Recv {
        /// The partner the message is expected from.
        from: RoleId,
        /// The alternatives.
        branches: Arc<[IBranch<LTypeId>]>,
    },
}

/// What the leaves of a binder-free subterm look like; used by projection to
/// prune subtrees a role does not occur in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeafKind {
    /// Every leaf is `end`.
    AllEnd,
    /// Every leaf is the recursion variable with this de Bruijn index.
    AllVar(u32),
    /// Leaves differ (or the subterm contains a binder).
    Mixed,
}

/// Per-node metadata, computed bottom-up when the node is interned.
#[derive(Debug, Clone)]
struct GMeta {
    /// Bit `i` set ⟺ de Bruijn index `i` occurs free. Binder nesting beyond
    /// 128 is rejected at intern time (far beyond any practical protocol).
    free_mask: u128,
    /// The participants occurring anywhere in the subterm.
    parts: RoleSet,
    /// Whether the subterm contains a `mu` binder anywhere.
    has_rec: bool,
    /// The shape of the subterm's leaves (meaningful when `has_rec` is
    /// `false`).
    leaf: LeafKind,
}

#[derive(Debug, Clone)]
struct LMeta {
    free_mask: u128,
}

/// A read-only, `Send + Sync` snapshot of an [`Interner`]'s scalar lookup
/// tables (roles, labels, sorts and `(label, sort)` messages).
///
/// The parallel CFSM explorer shares one compiled system across N worker
/// threads; the workers decode configurations and resolve observed actions
/// through this snapshot instead of the live interner, so they never touch
/// (or contend on) the hash-consing maps. The tables are behind `Arc`s:
/// taking a snapshot is a handful of allocations at compile time, and
/// cloning one afterwards is reference counting only.
///
/// A snapshot deliberately does **not** expose the type-term arenas or any
/// interning method — it can resolve and look up what was already interned,
/// nothing more.
#[derive(Debug, Clone)]
pub struct InternerSnapshot {
    roles: Arc<[Role]>,
    role_ids: Arc<FxHashMap<Role, RoleId>>,
    labels: Arc<[Label]>,
    label_ids: Arc<FxHashMap<Label, LabelId>>,
    sorts: Arc<[Sort]>,
    sort_ids: Arc<FxHashMap<Sort, SortId>>,
    msgs: Arc<[(LabelId, SortId)]>,
    msg_ids: Arc<FxHashMap<(LabelId, SortId), MsgId>>,
}

impl InternerSnapshot {
    /// The role with the given index.
    #[inline]
    pub fn role(&self, id: RoleId) -> &Role {
        &self.roles[id.index()]
    }

    /// The index of a role interned before the snapshot was taken.
    pub fn lookup_role(&self, role: &Role) -> Option<RoleId> {
        self.role_ids.get(role).copied()
    }

    /// The role table, in interning order.
    pub fn roles(&self) -> &[Role] {
        &self.roles
    }

    /// The label with the given index.
    #[inline]
    pub fn label(&self, id: LabelId) -> &Label {
        &self.labels[id.index()]
    }

    /// The index of a label interned before the snapshot was taken.
    pub fn lookup_label(&self, label: &Label) -> Option<LabelId> {
        self.label_ids.get(label).copied()
    }

    /// The sort with the given index.
    #[inline]
    pub fn sort(&self, id: SortId) -> &Sort {
        &self.sorts[id.index()]
    }

    /// The index of a sort interned before the snapshot was taken.
    pub fn lookup_sort(&self, sort: &Sort) -> Option<SortId> {
        self.sort_ids.get(sort).copied()
    }

    /// The `(label, sort)` pair behind a message id.
    #[inline]
    pub fn msg(&self, id: MsgId) -> (LabelId, SortId) {
        self.msgs[id.index()]
    }

    /// The id of a `(label, sort)` message interned before the snapshot was
    /// taken.
    pub fn lookup_msg(&self, label: LabelId, sort: SortId) -> Option<MsgId> {
        self.msg_ids.get(&(label, sort)).copied()
    }

    /// Number of distinct `(label, sort)` messages in the snapshot.
    pub fn msg_len(&self) -> usize {
        self.msgs.len()
    }
}

/// A hash-consing arena for global and local session types.
///
/// # Examples
///
/// ```
/// use zooid_mpst::common::intern::Interner;
/// use zooid_mpst::global::GlobalType;
/// use zooid_mpst::{Role, Sort};
///
/// let mut interner = Interner::new();
/// let g = GlobalType::msg1(Role::new("p"), Role::new("q"), "l", Sort::Nat, GlobalType::End);
/// let a = interner.intern_global(&g);
/// let b = interner.intern_global(&g.clone());
/// assert_eq!(a, b); // structural equality is id equality
/// ```
#[derive(Debug, Default)]
pub struct Interner {
    roles: Vec<Role>,
    role_ids: FxHashMap<Role, RoleId>,
    labels: Vec<Label>,
    label_ids: FxHashMap<Label, LabelId>,
    sorts: Vec<Sort>,
    sort_ids: FxHashMap<Sort, SortId>,
    msgs: Vec<(LabelId, SortId)>,
    msg_ids: FxHashMap<(LabelId, SortId), MsgId>,

    gterms: Vec<GTerm>,
    gmeta: Vec<GMeta>,
    gdedup: FxHashMap<GTerm, TypeId>,

    lterms: Vec<LTerm>,
    lmeta: Vec<LMeta>,
    ldedup: FxHashMap<LTerm, LTypeId>,

    /// Memoised head-normal forms (`unfold_head`).
    hnf_memo: FxHashMap<TypeId, TypeId>,
    /// Memoised substitutions `t[depth := repl]`.
    subst_memo: FxHashMap<(TypeId, u32, TypeId), TypeId>,
    /// Local-side counterparts of the two memo tables above.
    lhnf_memo: FxHashMap<LTypeId, LTypeId>,
    lsubst_memo: FxHashMap<(LTypeId, u32, LTypeId), LTypeId>,

    /// One-entry caches for the table lookups: protocol terms mention the
    /// same role/label/sort in long runs, and a pointer-equality hit skips
    /// the map probe (and its string hash) entirely.
    role_cache: [Option<(Role, RoleId)>; 2],
    label_cache: Option<(Label, LabelId)>,
    sort_cache: Option<(Sort, SortId)>,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Self {
        Interner::default()
    }

    // ------------------------------------------------------------------
    // Roles, labels, sorts
    // ------------------------------------------------------------------

    /// Interns a role, returning its dense index.
    pub fn role_id(&mut self, role: &Role) -> RoleId {
        for (cached, id) in self.role_cache.iter().flatten() {
            if cached == role {
                return *id;
            }
        }
        let id = if let Some(&id) = self.role_ids.get(role) {
            id
        } else {
            let id = RoleId(u32::try_from(self.roles.len()).expect("role table overflow"));
            self.roles.push(role.clone());
            self.role_ids.insert(role.clone(), id);
            id
        };
        self.role_cache.swap(0, 1);
        self.role_cache[0] = Some((role.clone(), id));
        id
    }

    /// The role with the given index.
    #[inline]
    pub fn role(&self, id: RoleId) -> &Role {
        &self.roles[id.index()]
    }

    /// The index of an already-interned role.
    pub fn lookup_role(&self, role: &Role) -> Option<RoleId> {
        self.role_ids.get(role).copied()
    }

    /// The role table, in interning order.
    pub fn roles(&self) -> &[Role] {
        &self.roles
    }

    /// Interns a label, returning its dense index.
    pub fn label_id(&mut self, label: &Label) -> LabelId {
        if let Some((cached, id)) = &self.label_cache {
            if cached == label {
                return *id;
            }
        }
        let id = if let Some(&id) = self.label_ids.get(label) {
            id
        } else {
            let id = LabelId(u32::try_from(self.labels.len()).expect("label table overflow"));
            self.labels.push(label.clone());
            self.label_ids.insert(label.clone(), id);
            id
        };
        self.label_cache = Some((label.clone(), id));
        id
    }

    /// The label with the given index.
    #[inline]
    pub fn label(&self, id: LabelId) -> &Label {
        &self.labels[id.index()]
    }

    /// Interns a sort, returning its dense index.
    pub fn sort_id(&mut self, sort: &Sort) -> SortId {
        if let Some((cached, id)) = &self.sort_cache {
            if cached == sort {
                return *id;
            }
        }
        let id = if let Some(&id) = self.sort_ids.get(sort) {
            id
        } else {
            let id = SortId(u32::try_from(self.sorts.len()).expect("sort table overflow"));
            self.sorts.push(sort.clone());
            self.sort_ids.insert(sort.clone(), id);
            id
        };
        self.sort_cache = Some((sort.clone(), id));
        id
    }

    /// The sort with the given index.
    #[inline]
    pub fn sort(&self, id: SortId) -> &Sort {
        &self.sorts[id.index()]
    }

    /// Interns a `(label, sort)` message payload, returning its dense index.
    ///
    /// Message ids are what the CFSM engine stores in channel buffers and
    /// transition tables: comparing a queued message against an expected one
    /// is a single `u32` comparison instead of two string/sort comparisons.
    pub fn msg_id(&mut self, label: LabelId, sort: SortId) -> MsgId {
        if let Some(&id) = self.msg_ids.get(&(label, sort)) {
            return id;
        }
        let id = MsgId(u32::try_from(self.msgs.len()).expect("message table overflow"));
        self.msgs.push((label, sort));
        self.msg_ids.insert((label, sort), id);
        id
    }

    /// The `(label, sort)` pair behind a message id.
    #[inline]
    pub fn msg(&self, id: MsgId) -> (LabelId, SortId) {
        self.msgs[id.index()]
    }

    /// The index of an already-interned label, without interning.
    ///
    /// Read-only lookups let shared artifacts (e.g. a compiled CFSM system
    /// behind an `Arc`) resolve observed labels to ids on the hot path
    /// without requiring `&mut self`.
    pub fn lookup_label(&self, label: &Label) -> Option<LabelId> {
        self.label_ids.get(label).copied()
    }

    /// The index of an already-interned sort, without interning.
    pub fn lookup_sort(&self, sort: &Sort) -> Option<SortId> {
        self.sort_ids.get(sort).copied()
    }

    /// The id of an already-interned `(label, sort)` message, without
    /// interning.
    pub fn lookup_msg(&self, label: LabelId, sort: SortId) -> Option<MsgId> {
        self.msg_ids.get(&(label, sort)).copied()
    }

    /// Number of distinct `(label, sort)` messages interned so far.
    pub fn msg_len(&self) -> usize {
        self.msgs.len()
    }

    /// Takes a read-only, `Send + Sync` [`InternerSnapshot`] of the scalar
    /// lookup tables (roles, labels, sorts, messages) as they stand now.
    ///
    /// Entries interned after the snapshot are invisible to it; the CFSM
    /// engine takes the snapshot once compilation has interned everything
    /// the transition tables can ever mention.
    pub fn snapshot(&self) -> InternerSnapshot {
        InternerSnapshot {
            roles: self.roles.clone().into(),
            role_ids: Arc::new(self.role_ids.clone()),
            labels: self.labels.clone().into(),
            label_ids: Arc::new(self.label_ids.clone()),
            sorts: self.sorts.clone().into(),
            sort_ids: Arc::new(self.sort_ids.clone()),
            msgs: self.msgs.clone().into(),
            msg_ids: Arc::new(self.msg_ids.clone()),
        }
    }

    // ------------------------------------------------------------------
    // Global terms
    // ------------------------------------------------------------------

    /// Number of distinct global-type nodes interned so far.
    pub fn global_len(&self) -> usize {
        self.gterms.len()
    }

    /// Interns (hash-conses) a global node built from already-interned
    /// children.
    pub fn mk_global(&mut self, term: GTerm) -> TypeId {
        if let Some(&id) = self.gdedup.get(&term) {
            return id;
        }
        let meta = self.compute_gmeta(&term);
        let id = TypeId(u32::try_from(self.gterms.len()).expect("interner overflow"));
        self.gterms.push(term.clone());
        self.gmeta.push(meta);
        self.gdedup.insert(term, id);
        id
    }

    fn compute_gmeta(&mut self, term: &GTerm) -> GMeta {
        match term {
            GTerm::End => GMeta {
                free_mask: 0,
                parts: RoleSet::new(),
                has_rec: false,
                leaf: LeafKind::AllEnd,
            },
            GTerm::Var(i) => {
                assert!(*i < 128, "recursion nesting beyond 128 binders is unsupported");
                GMeta {
                    free_mask: 1u128 << i,
                    parts: RoleSet::new(),
                    has_rec: false,
                    leaf: LeafKind::AllVar(*i),
                }
            }
            GTerm::Rec(body) => {
                let m = &self.gmeta[body.index()];
                GMeta {
                    free_mask: m.free_mask >> 1,
                    parts: m.parts.clone(),
                    has_rec: true,
                    leaf: LeafKind::Mixed,
                }
            }
            GTerm::Msg { from, to, branches } => {
                let mut free_mask = 0u128;
                let mut parts = RoleSet::new();
                parts.insert(from.index());
                parts.insert(to.index());
                let mut has_rec = false;
                let mut leaf: Option<LeafKind> = None;
                for b in branches.iter() {
                    let m = &self.gmeta[b.cont.index()];
                    free_mask |= m.free_mask;
                    parts.union_with(&m.parts);
                    has_rec |= m.has_rec;
                    leaf = match leaf {
                        None => Some(m.leaf),
                        Some(l) if l == m.leaf => Some(l),
                        Some(_) => Some(LeafKind::Mixed),
                    };
                }
                GMeta {
                    free_mask,
                    parts,
                    has_rec,
                    leaf: if has_rec {
                        LeafKind::Mixed
                    } else {
                        leaf.unwrap_or(LeafKind::AllEnd)
                    },
                }
            }
        }
    }

    /// Interns a [`GlobalType`] bottom-up.
    pub fn intern_global(&mut self, g: &GlobalType) -> TypeId {
        match g {
            GlobalType::End => self.mk_global(GTerm::End),
            GlobalType::Var(i) => self.mk_global(GTerm::Var(*i)),
            GlobalType::Rec(body) => {
                let body = self.intern_global(body);
                self.mk_global(GTerm::Rec(body))
            }
            GlobalType::Msg { from, to, branches } => {
                let from = self.role_id(from);
                let to = self.role_id(to);
                let bs: Vec<IBranch<TypeId>> = branches
                    .iter()
                    .map(|b| IBranch {
                        label: self.label_id(&b.label),
                        sort: self.sort_id(&b.sort),
                        cont: self.intern_global(&b.cont),
                    })
                    .collect();
                self.mk_global(GTerm::Msg {
                    from,
                    to,
                    branches: bs.into(),
                })
            }
        }
    }

    /// The node behind an id.
    #[inline]
    pub fn global(&self, id: TypeId) -> &GTerm {
        &self.gterms[id.index()]
    }

    /// The free-variable mask of a global term (bit `i` ⟺ index `i` free).
    #[inline]
    pub fn global_free_mask(&self, id: TypeId) -> u128 {
        self.gmeta[id.index()].free_mask
    }

    /// The participants occurring in the subterm, as a [`RoleSet`] over this
    /// interner's role table.
    #[inline]
    pub fn global_parts(&self, id: TypeId) -> &RoleSet {
        &self.gmeta[id.index()].parts
    }

    /// Whether the subterm contains a recursion binder.
    #[inline]
    pub fn global_has_rec(&self, id: TypeId) -> bool {
        self.gmeta[id.index()].has_rec
    }

    /// The shape of the subterm's leaves (meaningful when
    /// [`Interner::global_has_rec`] is `false`).
    #[inline]
    pub fn global_leaf_kind(&self, id: TypeId) -> LeafKind {
        self.gmeta[id.index()].leaf
    }

    /// Checks the `g_precond` of the Coq development on an interned term,
    /// mirroring [`GlobalType::well_formed`]: guarded, closed, and every
    /// choice non-empty with pairwise distinct labels and distinct
    /// sender/receiver.
    ///
    /// Each *distinct* subterm is checked once — on hash-consed input this is
    /// linear in the number of distinct nodes, not in the syntax size.
    ///
    /// # Errors
    ///
    /// Returns the first violated condition, with the same error values (and
    /// checking order) as [`GlobalType::well_formed`].
    pub fn well_formed_global(&self, t: TypeId) -> Result<()> {
        if !self.guarded_global(t) {
            return Err(Error::Unguarded {
                context: self.resolve_global(t).to_string(),
            });
        }
        let mask = self.global_free_mask(t);
        if mask != 0 {
            return Err(Error::UnboundVariable {
                index: mask.trailing_zeros(),
            });
        }
        let mut visited = vec![false; self.gterms.len()];
        self.check_choices_global(t, &mut visited)
    }

    fn guarded_global(&self, t: TypeId) -> bool {
        match self.global(t) {
            GTerm::End | GTerm::Var(_) => true,
            GTerm::Rec(body) => !self.pure_rec_global(*body) && self.guarded_global(*body),
            GTerm::Msg { branches, .. } => {
                branches.iter().all(|b| self.guarded_global(b.cont))
            }
        }
    }

    fn pure_rec_global(&self, t: TypeId) -> bool {
        match self.global(t) {
            GTerm::Var(_) => true,
            GTerm::Rec(body) => self.pure_rec_global(*body),
            _ => false,
        }
    }

    fn check_choices_global(&self, t: TypeId, visited: &mut [bool]) -> Result<()> {
        if visited[t.index()] {
            return Ok(());
        }
        visited[t.index()] = true;
        match self.global(t) {
            GTerm::End | GTerm::Var(_) => Ok(()),
            GTerm::Rec(body) => self.check_choices_global(*body, visited),
            GTerm::Msg { from, to, branches } => {
                if from == to {
                    return Err(Error::SelfCommunication {
                        role: self.role(*from).clone(),
                    });
                }
                if branches.is_empty() {
                    return Err(Error::EmptyChoice);
                }
                for (i, b) in branches.iter().enumerate() {
                    if branches[..i].iter().any(|b2| b2.label == b.label) {
                        return Err(Error::DuplicateLabel {
                            label: self.label(b.label).clone(),
                        });
                    }
                }
                for b in branches.iter() {
                    self.check_choices_global(b.cont, visited)?;
                }
                Ok(())
            }
        }
    }

    /// Reconstructs the (boxed) [`GlobalType`] behind an id.
    pub fn resolve_global(&self, id: TypeId) -> GlobalType {
        match self.global(id) {
            GTerm::End => GlobalType::End,
            GTerm::Var(i) => GlobalType::Var(*i),
            GTerm::Rec(body) => GlobalType::Rec(Box::new(self.resolve_global(*body))),
            GTerm::Msg { from, to, branches } => GlobalType::Msg {
                from: self.role(*from).clone(),
                to: self.role(*to).clone(),
                branches: branches
                    .iter()
                    .map(|b| Branch {
                        label: self.label(b.label).clone(),
                        sort: self.sort(b.sort).clone(),
                        cont: self.resolve_global(b.cont),
                    })
                    .collect(),
            },
        }
    }

    /// Capture-avoiding substitution `t[depth := repl]` with the same
    /// convention as [`GlobalType::subst_top`]: `repl` is closed, so it is
    /// never shifted; free variables of `t` above `depth` are decremented.
    ///
    /// Memoised per `(t, depth, repl)`; subterms with no free variable at or
    /// above `depth` are returned unchanged (maximal sharing).
    pub fn subst_global(&mut self, t: TypeId, depth: u32, repl: TypeId) -> TypeId {
        // No free variable ≥ depth: nothing to replace or decrement.
        if self.gmeta[t.index()].free_mask >> depth == 0 {
            return t;
        }
        if let Some(&r) = self.subst_memo.get(&(t, depth, repl)) {
            return r;
        }
        let result = match self.global(t).clone() {
            GTerm::End => t,
            GTerm::Var(i) => {
                if i == depth {
                    repl
                } else if i > depth {
                    self.mk_global(GTerm::Var(i - 1))
                } else {
                    t
                }
            }
            GTerm::Rec(body) => {
                let body = self.subst_global(body, depth + 1, repl);
                self.mk_global(GTerm::Rec(body))
            }
            GTerm::Msg { from, to, branches } => {
                let bs: Vec<IBranch<TypeId>> = branches
                    .iter()
                    .map(|b| IBranch {
                        label: b.label,
                        sort: b.sort,
                        cont: self.subst_global(b.cont, depth, repl),
                    })
                    .collect();
                self.mk_global(GTerm::Msg {
                    from,
                    to,
                    branches: bs.into(),
                })
            }
        };
        self.subst_memo.insert((t, depth, repl), result);
        result
    }

    /// One step of recursion unfolding: `mu X. G ↦ G[X := mu X. G]`; other
    /// constructors are returned unchanged.
    pub fn unfold_once_global(&mut self, t: TypeId) -> TypeId {
        match *self.global(t) {
            GTerm::Rec(body) => self.subst_global(body, 0, t),
            _ => t,
        }
    }

    /// The equi-recursive head-normal form: unfolds leading `mu` binders
    /// until the head constructor is `End` or `Msg`. Memoised per id.
    ///
    /// # Panics
    ///
    /// Panics if the term is unguarded or not closed (callers are expected to
    /// check [`GlobalType::well_formed`] first), mirroring
    /// [`GlobalType::unfold_head`].
    pub fn unfold_head_global(&mut self, t: TypeId) -> TypeId {
        if let Some(&h) = self.hnf_memo.get(&t) {
            return h;
        }
        let mut chain = vec![t];
        let mut current = t;
        let mut fuel = self.gterms.len() + 1;
        while matches!(self.global(current), GTerm::Rec(_)) {
            assert!(fuel > 0, "unfold_head: unguarded or open recursion");
            fuel -= 1;
            current = self.unfold_once_global(current);
            if let Some(&h) = self.hnf_memo.get(&current) {
                current = h;
                break;
            }
            chain.push(current);
        }
        assert!(
            !matches!(self.global(current), GTerm::Var(_)),
            "unfold_head reached a free variable; type was not closed"
        );
        for step in chain {
            self.hnf_memo.insert(step, current);
        }
        current
    }

    // ------------------------------------------------------------------
    // Local terms
    // ------------------------------------------------------------------

    /// Interns (hash-conses) a local node built from already-interned
    /// children.
    pub fn mk_local(&mut self, term: LTerm) -> LTypeId {
        if let Some(&id) = self.ldedup.get(&term) {
            return id;
        }
        let free_mask = match &term {
            LTerm::End => 0,
            LTerm::Var(i) => {
                assert!(*i < 128, "recursion nesting beyond 128 binders is unsupported");
                1u128 << i
            }
            LTerm::Rec(body) => self.lmeta[body.index()].free_mask >> 1,
            LTerm::Send { branches, .. } | LTerm::Recv { branches, .. } => branches
                .iter()
                .fold(0, |m, b| m | self.lmeta[b.cont.index()].free_mask),
        };
        let id = LTypeId(u32::try_from(self.lterms.len()).expect("interner overflow"));
        self.lterms.push(term.clone());
        self.lmeta.push(LMeta { free_mask });
        self.ldedup.insert(term, id);
        id
    }

    /// Interns a [`LocalType`] bottom-up.
    pub fn intern_local(&mut self, l: &LocalType) -> LTypeId {
        match l {
            LocalType::End => self.mk_local(LTerm::End),
            LocalType::Var(i) => self.mk_local(LTerm::Var(*i)),
            LocalType::Rec(body) => {
                let body = self.intern_local(body);
                self.mk_local(LTerm::Rec(body))
            }
            LocalType::Send { to, branches } => {
                let to = self.role_id(to);
                let bs = self.intern_lbranches(branches);
                self.mk_local(LTerm::Send { to, branches: bs })
            }
            LocalType::Recv { from, branches } => {
                let from = self.role_id(from);
                let bs = self.intern_lbranches(branches);
                self.mk_local(LTerm::Recv { from, branches: bs })
            }
        }
    }

    fn intern_lbranches(&mut self, branches: &[Branch<LocalType>]) -> Arc<[IBranch<LTypeId>]> {
        branches
            .iter()
            .map(|b| IBranch {
                label: self.label_id(&b.label),
                sort: self.sort_id(&b.sort),
                cont: self.intern_local(&b.cont),
            })
            .collect::<Vec<_>>()
            .into()
    }

    /// The node behind an id.
    #[inline]
    pub fn local(&self, id: LTypeId) -> &LTerm {
        &self.lterms[id.index()]
    }

    /// The free-variable mask of a local term.
    #[inline]
    pub fn local_free_mask(&self, id: LTypeId) -> u128 {
        self.lmeta[id.index()].free_mask
    }

    /// Reconstructs the (boxed) [`LocalType`] behind an id.
    pub fn resolve_local(&self, id: LTypeId) -> LocalType {
        match self.local(id) {
            LTerm::End => LocalType::End,
            LTerm::Var(i) => LocalType::Var(*i),
            LTerm::Rec(body) => LocalType::Rec(Box::new(self.resolve_local(*body))),
            LTerm::Send { to, branches } => LocalType::Send {
                to: self.role(*to).clone(),
                branches: self.resolve_lbranches(branches),
            },
            LTerm::Recv { from, branches } => LocalType::Recv {
                from: self.role(*from).clone(),
                branches: self.resolve_lbranches(branches),
            },
        }
    }

    fn resolve_lbranches(&self, branches: &[IBranch<LTypeId>]) -> Vec<Branch<LocalType>> {
        branches
            .iter()
            .map(|b| Branch {
                label: self.label(b.label).clone(),
                sort: self.sort(b.sort).clone(),
                cont: self.resolve_local(b.cont),
            })
            .collect()
    }

    /// Capture-avoiding substitution on local terms, mirroring
    /// [`Interner::subst_global`] (memoised per `(t, depth, repl)`).
    pub fn subst_local(&mut self, t: LTypeId, depth: u32, repl: LTypeId) -> LTypeId {
        if self.lmeta[t.index()].free_mask >> depth == 0 {
            return t;
        }
        if let Some(&r) = self.lsubst_memo.get(&(t, depth, repl)) {
            return r;
        }
        let result = match self.local(t).clone() {
            LTerm::End => t,
            LTerm::Var(i) => {
                if i == depth {
                    repl
                } else if i > depth {
                    self.mk_local(LTerm::Var(i - 1))
                } else {
                    t
                }
            }
            LTerm::Rec(body) => {
                let body = self.subst_local(body, depth + 1, repl);
                self.mk_local(LTerm::Rec(body))
            }
            LTerm::Send { to, branches } => {
                let bs = self.subst_lbranches(&branches, depth, repl);
                self.mk_local(LTerm::Send { to, branches: bs })
            }
            LTerm::Recv { from, branches } => {
                let bs = self.subst_lbranches(&branches, depth, repl);
                self.mk_local(LTerm::Recv { from, branches: bs })
            }
        };
        self.lsubst_memo.insert((t, depth, repl), result);
        result
    }

    fn subst_lbranches(
        &mut self,
        branches: &[IBranch<LTypeId>],
        depth: u32,
        repl: LTypeId,
    ) -> Arc<[IBranch<LTypeId>]> {
        branches
            .iter()
            .map(|b| IBranch {
                label: b.label,
                sort: b.sort,
                cont: self.subst_local(b.cont, depth, repl),
            })
            .collect::<Vec<_>>()
            .into()
    }

    /// One step of recursion unfolding on local terms.
    pub fn unfold_once_local(&mut self, t: LTypeId) -> LTypeId {
        match *self.local(t) {
            LTerm::Rec(body) => self.subst_local(body, 0, t),
            _ => t,
        }
    }

    /// The equi-recursive head-normal form of a local term. Memoised per id.
    ///
    /// # Panics
    ///
    /// Panics if the term is unguarded or not closed.
    pub fn unfold_head_local(&mut self, t: LTypeId) -> LTypeId {
        if let Some(&h) = self.lhnf_memo.get(&t) {
            return h;
        }
        let mut chain = vec![t];
        let mut current = t;
        let mut fuel = self.lterms.len() + 1;
        while matches!(self.local(current), LTerm::Rec(_)) {
            assert!(fuel > 0, "unfold_head: unguarded or open recursion");
            fuel -= 1;
            current = self.unfold_once_local(current);
            if let Some(&h) = self.lhnf_memo.get(&current) {
                current = h;
                break;
            }
            chain.push(current);
        }
        assert!(
            !matches!(self.local(current), LTerm::Var(_)),
            "unfold_head reached a free variable; type was not closed"
        );
        for step in chain {
            self.lhnf_memo.insert(step, current);
        }
        current
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::sort::Sort;

    fn r(name: &str) -> Role {
        Role::new(name)
    }

    fn simple_loop() -> GlobalType {
        GlobalType::rec(GlobalType::msg1(
            r("p"),
            r("q"),
            "l",
            Sort::Nat,
            GlobalType::var(0),
        ))
    }

    #[test]
    fn interning_is_idempotent_and_shares_subterms() {
        let mut int = Interner::new();
        let g = simple_loop();
        let a = int.intern_global(&g);
        let before = int.global_len();
        let b = int.intern_global(&g.clone());
        assert_eq!(a, b);
        assert_eq!(int.global_len(), before, "re-interning allocates nothing");
    }

    #[test]
    fn structural_equality_is_id_equality() {
        let mut int = Interner::new();
        let g1 = GlobalType::msg1(r("p"), r("q"), "l", Sort::Nat, GlobalType::End);
        let g2 = GlobalType::msg1(r("p"), r("q"), "l", Sort::Nat, GlobalType::End);
        let g3 = GlobalType::msg1(r("p"), r("q"), "m", Sort::Nat, GlobalType::End);
        assert_eq!(int.intern_global(&g1), int.intern_global(&g2));
        assert_ne!(int.intern_global(&g1), int.intern_global(&g3));
    }

    #[test]
    fn resolve_round_trips() {
        let mut int = Interner::new();
        let g = simple_loop();
        let id = int.intern_global(&g);
        assert_eq!(int.resolve_global(id), g);
        let l = LocalType::rec(LocalType::send1(r("q"), "l", Sort::Nat, LocalType::var(0)));
        let lid = int.intern_local(&l);
        assert_eq!(int.resolve_local(lid), l);
    }

    #[test]
    fn metadata_tracks_free_vars_parts_and_rec() {
        let mut int = Interner::new();
        let open = GlobalType::msg1(r("p"), r("q"), "l", Sort::Nat, GlobalType::var(3));
        let id = int.intern_global(&open);
        assert_eq!(int.global_free_mask(id), 1 << 3);
        assert!(!int.global_has_rec(id));
        let closed = int.intern_global(&simple_loop());
        assert_eq!(int.global_free_mask(closed), 0);
        assert!(int.global_has_rec(closed));
        let p = int.lookup_role(&r("p")).unwrap();
        let q = int.lookup_role(&r("q")).unwrap();
        assert!(int.global_parts(closed).contains(p.index()));
        assert!(int.global_parts(closed).contains(q.index()));
        assert_eq!(int.global_parts(closed).len(), 2);
    }

    #[test]
    fn unfolding_agrees_with_the_boxed_implementation() {
        let mut int = Interner::new();
        let g = simple_loop();
        let id = int.intern_global(&g);
        let unfolded = int.unfold_once_global(id);
        assert_eq!(int.resolve_global(unfolded), g.unfold_once());
        // Head-normalisation strips all leading binders.
        let hnf = int.unfold_head_global(id);
        assert_eq!(int.resolve_global(hnf), g.unfold_head());
        // And is idempotent + memoised.
        assert_eq!(int.unfold_head_global(hnf), hnf);
        assert_eq!(int.unfold_head_global(id), hnf);
    }

    #[test]
    fn substitution_shares_untouched_subterms() {
        let mut int = Interner::new();
        // p->q:l(nat).end contains no free vars: substituting under it is
        // the identity, not a copy.
        let g = GlobalType::msg1(r("p"), r("q"), "l", Sort::Nat, GlobalType::End);
        let id = int.intern_global(&g);
        let end = int.mk_global(GTerm::End);
        assert_eq!(int.subst_global(id, 0, end), id);
    }

    #[test]
    fn message_ids_are_dense_and_deduplicated() {
        let mut int = Interner::new();
        let l1 = int.label_id(&Label::new("ping"));
        let l2 = int.label_id(&Label::new("pong"));
        let nat = int.sort_id(&Sort::Nat);
        let bool_ = int.sort_id(&Sort::Bool);
        let a = int.msg_id(l1, nat);
        let b = int.msg_id(l1, nat);
        let c = int.msg_id(l2, nat);
        let d = int.msg_id(l1, bool_);
        assert_eq!(a, b, "same (label, sort) interns to the same id");
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_ne!(c, d);
        assert_eq!(int.msg_len(), 3);
        assert_eq!(int.msg(a), (l1, nat));
        assert_eq!(int.msg(d), (l1, bool_));
    }

    #[test]
    fn snapshots_are_send_sync_and_resolve_interned_entries() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<InternerSnapshot>();

        let mut int = Interner::new();
        let p = int.role_id(&r("p"));
        let l = int.label_id(&Label::new("ping"));
        let nat = int.sort_id(&Sort::Nat);
        let m = int.msg_id(l, nat);
        let snap = int.snapshot();
        assert_eq!(snap.role(p), &r("p"));
        assert_eq!(snap.lookup_role(&r("p")), Some(p));
        assert_eq!(snap.lookup_role(&r("zzz")), None);
        assert_eq!(snap.label(l), &Label::new("ping"));
        assert_eq!(snap.lookup_label(&Label::new("ping")), Some(l));
        assert_eq!(snap.sort(nat), &Sort::Nat);
        assert_eq!(snap.lookup_sort(&Sort::Bool), None);
        assert_eq!(snap.msg(m), (l, nat));
        assert_eq!(snap.lookup_msg(l, nat), Some(m));
        assert_eq!(snap.msg_len(), 1);
        assert_eq!(snap.roles(), &[r("p")]);
        // Entries interned after the snapshot are invisible to it.
        let q = int.role_id(&r("q"));
        assert_eq!(snap.lookup_role(&r("q")), None);
        assert_eq!(int.role(q), &r("q"));
    }

    #[test]
    fn local_unfold_head_matches_boxed() {
        let mut int = Interner::new();
        let l = LocalType::rec(LocalType::recv1(r("p"), "l", Sort::Nat, LocalType::var(0)));
        let id = int.intern_local(&l);
        let hnf = int.unfold_head_local(id);
        assert_eq!(int.resolve_local(hnf), l.unfold_head());
    }
}
