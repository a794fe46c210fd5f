//! The process-wide name table behind [`Role`](super::role::Role) and
//! [`Label`](super::label::Label).
//!
//! A name's text is stored once per process, in an entry that is leaked when
//! it is made and never freed, and a role or a label is a `&'static`
//! reference to its entry: cloning one copies a pointer, dropping one does
//! nothing, and since [`intern`] is the only way to make an entry, two
//! handles name the same text exactly when they point at the same entry.
//!
//! The table grows only through [`intern`], which only code calls: protocol
//! builders, generators, tests. Decoders of outside bytes call [`lookup`]
//! and refuse a name no code made (it could not match any program arm or
//! compiled table anyway), so the table is bounded by the names the process
//! itself mentions, never by what a peer sends.

use std::collections::HashMap;
use std::sync::{LazyLock, PoisonError, RwLock};

/// One interned name.
pub(crate) struct Name {
    text: Box<str>,
}

impl Name {
    pub(crate) fn text(&self) -> &str {
        &self.text
    }
}

static TABLE: LazyLock<RwLock<HashMap<&'static str, &'static Name>>> =
    LazyLock::new(Default::default);

/// The entry for `text`, if some code already made one.
pub(crate) fn lookup(text: &str) -> Option<&'static Name> {
    // No code panics while holding the lock, and an insert is the only
    // write, so a poisoned table is still a consistent one.
    let table = TABLE.read().unwrap_or_else(PoisonError::into_inner);
    table.get(text).copied()
}

/// The entry for `text`, made on first use.
pub(crate) fn intern(text: &str) -> &'static Name {
    if let Some(name) = lookup(text) {
        return name;
    }
    let mut table = TABLE.write().unwrap_or_else(PoisonError::into_inner);
    // Another thread may have made it between the two locks.
    if let Some(&name) = table.get(text) {
        return name;
    }
    let name: &'static Name = Box::leak(Box::new(Name { text: text.into() }));
    table.insert(name.text(), name);
    name
}

/// The traits a handle type `$handle(&'static Name)` with a `name()` method
/// shares with every other: equality is identity of the entry (valid because
/// [`intern`] is the only constructor), order and hash are the text's (so
/// sorted role order and every hash-map iteration order are what they were
/// when names were strings), `Debug` prints `$handle("text")`, and the
/// conversions from strings intern.
macro_rules! name_handle {
    ($handle:ident) => {
        impl PartialEq for $handle {
            fn eq(&self, other: &Self) -> bool {
                std::ptr::eq(self.0, other.0)
            }
        }

        impl Eq for $handle {}

        impl Ord for $handle {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                if self == other {
                    return std::cmp::Ordering::Equal;
                }
                self.name().cmp(other.name())
            }
        }

        impl PartialOrd for $handle {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }

        impl std::hash::Hash for $handle {
            fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
                self.name().hash(state);
            }
        }

        impl std::fmt::Debug for $handle {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_tuple(stringify!($handle)).field(&self.name()).finish()
            }
        }

        impl std::fmt::Display for $handle {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str(self.name())
            }
        }

        impl From<&str> for $handle {
            fn from(name: &str) -> Self {
                $handle::new(name)
            }
        }

        impl From<String> for $handle {
            fn from(name: String) -> Self {
                $handle::new(name)
            }
        }

        impl AsRef<str> for $handle {
            fn as_ref(&self) -> &str {
                self.name()
            }
        }
    };
}

pub(crate) use name_handle;
