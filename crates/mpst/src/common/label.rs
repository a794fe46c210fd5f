//! Message labels.

use super::name::{self, name_handle, Name};

/// A message label, used to select among the branches of a choice.
///
/// Within a single choice all labels must be pairwise distinct (Definition
/// 3.1); this is enforced by the well-formedness checks on [`GlobalType`] and
/// [`LocalType`].
///
/// Like a [`Role`](crate::Role), a label is an 8-byte handle on its name's
/// entry in the process-wide name table (shared with roles): cloning copies a
/// pointer, dropping does nothing, equality is one pointer compare, ordering
/// is by name and hashing is the name's. Entries are never freed, which is
/// bounded because only code makes names; decoders of outside bytes use
/// [`Label::lookup`] and refuse a label no code made.
///
/// [`GlobalType`]: crate::global::GlobalType
/// [`LocalType`]: crate::local::LocalType
///
/// # Examples
///
/// ```
/// use zooid_mpst::Label;
///
/// let accept = Label::new("Accept");
/// assert_eq!(accept.name(), "Accept");
/// assert_eq!(Label::lookup("Accept"), Some(accept));
/// ```
#[derive(Clone)]
pub struct Label(&'static Name);

impl Label {
    /// Creates a label with the given name, entering the name in the
    /// process-wide table if it is new.
    pub fn new(name: impl AsRef<str>) -> Self {
        Label(name::intern(name.as_ref()))
    }

    /// The label with the given name, if some code already made a role or
    /// label of that name; never grows the name table.
    pub fn lookup(name: &str) -> Option<Self> {
        name::lookup(name).map(Label)
    }

    /// Returns the label's name.
    pub fn name(&self) -> &str {
        self.0.text()
    }
}

name_handle!(Label);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equality_is_by_name() {
        assert_eq!(Label::new("l"), Label::new("l"));
        assert_ne!(Label::new("l1"), Label::new("l2"));
    }

    #[test]
    fn display_shows_name() {
        assert_eq!(Label::new("Quote").to_string(), "Quote");
    }

    #[test]
    fn conversions() {
        let a: Label = "x".into();
        let b: Label = String::from("x").into();
        assert_eq!(a, b);
    }

    #[test]
    fn a_label_is_an_eight_byte_shareable_handle() {
        fn send_sync<T: Send + Sync>() {}
        send_sync::<Label>();
        assert_eq!(std::mem::size_of::<Label>(), 8);
    }

    #[test]
    fn a_label_hashes_as_its_name_and_orders_by_it() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |h: &dyn Fn(&mut DefaultHasher)| {
            let mut state = DefaultHasher::new();
            h(&mut state);
            state.finish()
        };
        assert_eq!(
            hash(&|s| Label::new("Quote").hash(s)),
            hash(&|s| "Quote".hash(s))
        );
        let mut v = [Label::new("b"), Label::new("a"), Label::new("ab")];
        v.sort();
        let names: Vec<_> = v.iter().map(Label::name).collect();
        assert_eq!(names, ["a", "ab", "b"]);
    }

    #[test]
    fn debug_text_is_the_tuple_of_the_name() {
        assert_eq!(format!("{:?}", Label::new("Accept")), "Label(\"Accept\")");
    }
}
