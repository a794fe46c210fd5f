//! Message labels.

use std::fmt;
use std::sync::Arc;


/// A message label, used to select among the branches of a choice.
///
/// Within a single choice all labels must be pairwise distinct (Definition
/// 3.1); this is enforced by the well-formedness checks on [`GlobalType`] and
/// [`LocalType`].
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
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Label(Arc<str>);

impl Label {
    /// Creates a label with the given name.
    pub fn new(name: impl AsRef<str>) -> Self {
        Label(Arc::from(name.as_ref()))
    }

    /// Returns the label's name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Label {
    fn from(name: &str) -> Self {
        Label::new(name)
    }
}

impl From<String> for Label {
    fn from(name: String) -> Self {
        Label::new(name)
    }
}

impl AsRef<str> for Label {
    fn as_ref(&self) -> &str {
        self.name()
    }
}

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
}
