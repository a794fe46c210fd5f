//! Protocol participants (also called *roles*).

use super::name::{self, name_handle, Name};

/// A participant of a multiparty protocol.
///
/// A role is an 8-byte handle on its name's entry in a process-wide name
/// table: the text is stored once, cloning copies a pointer and dropping
/// does nothing, so recording an action that names a role costs no
/// allocation and no atomic operation. Entries are never freed. That is
/// bounded because only code makes names ([`Role::new`], the `From`
/// conversions); decoders of outside bytes use [`Role::lookup`] and refuse
/// a name no code made.
///
/// Roles are equal when their names are (one pointer compare), ordered by
/// name, and hash as their name does.
///
/// # Examples
///
/// ```
/// use zooid_mpst::Role;
///
/// let alice = Role::new("Alice");
/// assert_eq!(alice.name(), "Alice");
/// assert_eq!(alice, Role::new("Alice"));
/// assert_ne!(alice, Role::new("Bob"));
/// assert_eq!(Role::lookup("Alice"), Some(alice));
/// ```
#[derive(Clone)]
pub struct Role(&'static Name);

impl Role {
    /// Creates a role with the given name, entering the name in the
    /// process-wide table if it is new.
    pub fn new(name: impl AsRef<str>) -> Self {
        Role(name::intern(name.as_ref()))
    }

    /// The role with the given name, if some code already made a role or
    /// label of that name; never grows the name table.
    pub fn lookup(name: &str) -> Option<Self> {
        name::lookup(name).map(Role)
    }

    /// Returns the role's name.
    pub fn name(&self) -> &str {
        self.0.text()
    }
}

name_handle!(Role);

/// A compact set of roles, represented as a bitset over the role *indices* of
/// some role table (a [`GlobalTree`]'s sorted participant list, or an
/// [`Interner`]'s role table).
///
/// The hot paths of the semantics and the checkers key visited-state sets on
/// `(node, blocked-roles)` pairs and test membership per branch; a bitset
/// makes those inserts and tests word operations instead of `BTreeSet<Role>`
/// clones and string comparisons. The words vector never keeps trailing zero
/// words, so structural equality and hashing are canonical.
///
/// [`GlobalTree`]: crate::global::GlobalTree
/// [`Interner`]: crate::common::intern::Interner
///
/// # Examples
///
/// ```
/// use zooid_mpst::RoleSet;
///
/// let mut blocked = RoleSet::new();
/// assert!(blocked.insert(3));
/// assert!(!blocked.insert(3));
/// assert!(blocked.contains(3) && !blocked.contains(65));
/// assert_eq!(blocked.len(), 1);
/// ```
// The derived `Eq`/`Hash` depend on the no-trailing-zero-words invariant, so
// anything that builds a set from outside data (a deserializer, say) must
// normalise; nothing serializes role sets today.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RoleSet {
    /// Bits 0–63. Kept inline so sets over up to 64 roles never allocate —
    /// the common case for every protocol family in the benchmarks.
    first: u64,
    /// Bits 64+, in 64-bit words; never keeps trailing zero words (so the
    /// derived `Eq`/`Hash` are canonical).
    rest: Vec<u64>,
}

impl RoleSet {
    /// The empty set.
    pub fn new() -> Self {
        RoleSet::default()
    }

    /// Inserts the role with the given index; returns `true` if it was not
    /// already present.
    #[inline]
    pub fn insert(&mut self, index: usize) -> bool {
        if index < 64 {
            let bit = 1u64 << index;
            let fresh = self.first & bit == 0;
            self.first |= bit;
            return fresh;
        }
        let (word, bit) = ((index - 64) / 64, 1u64 << (index % 64));
        if self.rest.len() <= word {
            self.rest.resize(word + 1, 0);
        }
        let fresh = self.rest[word] & bit == 0;
        self.rest[word] |= bit;
        fresh
    }

    /// Removes the role with the given index; returns `true` if it was
    /// present.
    pub fn remove(&mut self, index: usize) -> bool {
        if index < 64 {
            let bit = 1u64 << index;
            let present = self.first & bit != 0;
            self.first &= !bit;
            return present;
        }
        let (word, bit) = ((index - 64) / 64, 1u64 << (index % 64));
        if self.rest.len() <= word || self.rest[word] & bit == 0 {
            return false;
        }
        self.rest[word] &= !bit;
        while self.rest.last() == Some(&0) {
            self.rest.pop();
        }
        true
    }

    /// Returns `true` if the role with the given index is in the set.
    #[inline]
    pub fn contains(&self, index: usize) -> bool {
        if index < 64 {
            return self.first & (1u64 << index) != 0;
        }
        let (word, bit) = ((index - 64) / 64, 1u64 << (index % 64));
        self.rest.get(word).is_some_and(|w| w & bit != 0)
    }

    /// Number of roles in the set.
    pub fn len(&self) -> usize {
        self.first.count_ones() as usize
            + self.rest.iter().map(|w| w.count_ones() as usize).sum::<usize>()
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.first == 0 && self.rest.is_empty()
    }

    /// Adds every role of `other` to `self`.
    pub fn union_with(&mut self, other: &RoleSet) {
        self.first |= other.first;
        if self.rest.len() < other.rest.len() {
            self.rest.resize(other.rest.len(), 0);
        }
        for (w, o) in self.rest.iter_mut().zip(&other.rest) {
            *w |= o;
        }
    }

    /// Returns `true` if every role of `self` is in `other`.
    #[inline]
    pub fn is_subset(&self, other: &RoleSet) -> bool {
        self.first & other.first == self.first
            && self
                .rest
                .iter()
                .enumerate()
                .all(|(i, w)| other.rest.get(i).copied().unwrap_or(0) & w == *w)
    }

    /// Iterates over the indices in the set, in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let first = self.first;
        (0..64)
            .filter(move |b| first & (1 << b) != 0)
            .chain(self.rest.iter().enumerate().flat_map(|(wi, &w)| {
                (0..64).filter_map(move |b| (w & (1 << b) != 0).then_some(64 + wi * 64 + b))
            }))
    }
}

impl FromIterator<usize> for RoleSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut set = RoleSet::new();
        for i in iter {
            set.insert(i);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equality_is_by_name() {
        assert_eq!(Role::new("p"), Role::new("p"));
        assert_ne!(Role::new("p"), Role::new("q"));
    }

    #[test]
    fn display_shows_name() {
        assert_eq!(Role::new("Seller").to_string(), "Seller");
    }

    #[test]
    fn conversions() {
        let a: Role = "A".into();
        let b: Role = String::from("A").into();
        assert_eq!(a, b);
        assert_eq!(a.as_ref(), "A");
    }

    #[test]
    fn ordering_is_lexicographic() {
        let mut v = [Role::new("C"), Role::new("A"), Role::new("B")];
        v.sort();
        let names: Vec<_> = v.iter().map(Role::name).collect();
        assert_eq!(names, ["A", "B", "C"]);
    }

    #[test]
    fn a_role_is_an_eight_byte_shareable_handle() {
        fn send_sync<T: Send + Sync>() {}
        send_sync::<Role>();
        assert_eq!(std::mem::size_of::<Role>(), 8);
        assert_eq!(std::mem::size_of::<Option<Role>>(), 8);
    }

    #[test]
    fn threads_racing_to_make_a_fresh_name_get_equal_handles() {
        let fresh = "role-table-race";
        assert_eq!(Role::lookup(fresh), None);
        let barrier = std::sync::Barrier::new(4);
        let roles: Vec<Role> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        Role::new(fresh)
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert!(roles.iter().all(|r| *r == roles[0] && r.name() == fresh));
        assert_eq!(Role::lookup(fresh), Some(roles[0].clone()));
    }

    #[test]
    fn a_role_hashes_as_its_name() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |h: &dyn Fn(&mut DefaultHasher)| {
            let mut state = DefaultHasher::new();
            h(&mut state);
            state.finish()
        };
        for n in ["Alice", "", "w17"] {
            assert_eq!(hash(&|s| Role::new(n).hash(s)), hash(&|s| n.hash(s)));
        }
    }

    #[test]
    fn debug_text_is_the_tuple_of_the_name() {
        assert_eq!(format!("{:?}", Role::new("Alice")), "Role(\"Alice\")");
    }

    #[test]
    fn lookup_never_makes_a_name() {
        assert_eq!(Role::lookup("role-nobody-made"), None);
        assert_eq!(Role::lookup("role-nobody-made"), None);
        let made = Role::new("role-somebody-made");
        assert_eq!(Role::lookup("role-somebody-made"), Some(made));
    }

    #[test]
    fn role_set_insert_contains_remove() {
        let mut s = RoleSet::new();
        assert!(s.is_empty());
        assert!(s.insert(0));
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(!s.insert(64));
        assert_eq!(s.len(), 3);
        assert!(s.contains(0) && s.contains(63) && s.contains(64));
        assert!(!s.contains(1) && !s.contains(128));
        assert!(s.remove(63));
        assert!(!s.remove(63));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn role_set_equality_is_canonical_across_word_boundaries() {
        // Inserting and removing a high index must not leave trailing zero
        // words behind that would break Eq/Hash.
        let mut a = RoleSet::new();
        a.insert(2);
        let mut b = RoleSet::new();
        b.insert(2);
        b.insert(200);
        b.remove(200);
        assert_eq!(a, b);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |s: &RoleSet| {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&b));
    }

    #[test]
    fn role_set_union_subset_iter() {
        let a: RoleSet = [1usize, 5, 70].into_iter().collect();
        let b: RoleSet = [5usize].into_iter().collect();
        assert!(b.is_subset(&a));
        assert!(!a.is_subset(&b));
        let mut c = b.clone();
        c.union_with(&a);
        assert_eq!(c, a);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 5, 70]);
    }

    #[test]
    fn role_set_scales_past_128_roles() {
        let mut s = RoleSet::new();
        for i in 0..300 {
            s.insert(i);
        }
        assert_eq!(s.len(), 300);
        assert!(s.contains(299));
    }
}
