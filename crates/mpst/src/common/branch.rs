//! Labelled branches of a choice, shared by global types, local types,
//! semantic trees and processes.


use crate::common::label::Label;
use crate::common::sort::Sort;
use crate::error::{Error, Result};

/// One alternative of a choice: a label, the sort of its payload and a
/// continuation.
///
/// Global messages, local send/receive types, tree nodes and processes all
/// carry a non-empty list of `Branch`es with pairwise distinct labels
/// (Definition 3.1).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Branch<T> {
    /// The label selecting this alternative.
    pub label: Label,
    /// The sort of the payload carried by a message with this label.
    pub sort: Sort,
    /// What the protocol (or process) continues as after this alternative.
    pub cont: T,
}

impl<T> Branch<T> {
    /// Creates a branch.
    pub fn new(label: impl Into<Label>, sort: Sort, cont: T) -> Self {
        Branch {
            label: label.into(),
            sort,
            cont,
        }
    }

    /// Maps the continuation, keeping label and sort.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Branch<U> {
        Branch {
            label: self.label,
            sort: self.sort,
            cont: f(self.cont),
        }
    }

    /// Maps the continuation by reference, keeping label and sort.
    pub fn map_ref<U>(&self, f: impl FnOnce(&T) -> U) -> Branch<U> {
        Branch {
            label: self.label.clone(),
            sort: self.sort.clone(),
            cont: f(&self.cont),
        }
    }
}

impl<T> From<(Label, Sort, T)> for Branch<T> {
    fn from((label, sort, cont): (Label, Sort, T)) -> Self {
        Branch { label, sort, cont }
    }
}

/// Converts a list of `(label, sort, continuation)` triples into branches.
pub fn branches_from<T>(items: impl IntoIterator<Item = (Label, Sort, T)>) -> Vec<Branch<T>> {
    items.into_iter().map(Branch::from).collect()
}

/// Checks the side conditions the paper imposes on every choice:
/// the branch list is non-empty and all labels are pairwise distinct.
///
/// # Errors
///
/// Returns [`Error::EmptyChoice`] or [`Error::DuplicateLabel`].
pub fn check_branches<T>(branches: &[Branch<T>]) -> Result<()> {
    if branches.is_empty() {
        return Err(Error::EmptyChoice);
    }
    for (i, b) in branches.iter().enumerate() {
        if branches[..i].iter().any(|b2| b2.label == b.label) {
            return Err(Error::DuplicateLabel {
                label: b.label.clone(),
            });
        }
    }
    Ok(())
}

/// Looks up the branch with the given label (the paper's `find_cont`).
pub fn find_branch<'a, T>(branches: &'a [Branch<T>], label: &Label) -> Option<&'a Branch<T>> {
    branches.iter().find(|b| &b.label == label)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_rejects_empty_choice() {
        let empty: Vec<Branch<u32>> = Vec::new();
        assert_eq!(check_branches(&empty), Err(Error::EmptyChoice));
    }

    #[test]
    fn check_rejects_duplicate_labels() {
        let bs = vec![
            Branch::new("l", Sort::Nat, 0u32),
            Branch::new("l", Sort::Bool, 1u32),
        ];
        assert!(matches!(
            check_branches(&bs),
            Err(Error::DuplicateLabel { .. })
        ));
    }

    #[test]
    fn check_accepts_distinct_labels() {
        let bs = vec![
            Branch::new("l1", Sort::Nat, 0u32),
            Branch::new("l2", Sort::Nat, 1u32),
        ];
        assert!(check_branches(&bs).is_ok());
    }

    #[test]
    fn find_branch_by_label() {
        let bs = vec![
            Branch::new("a", Sort::Nat, 1u32),
            Branch::new("b", Sort::Bool, 2u32),
        ];
        assert_eq!(find_branch(&bs, &Label::new("b")).map(|b| b.cont), Some(2));
        assert_eq!(find_branch(&bs, &Label::new("z")).map(|b| b.cont), None);
    }

    #[test]
    fn map_preserves_label_and_sort() {
        let b = Branch::new("a", Sort::Nat, 1u32).map(|x| x + 1);
        assert_eq!(b.cont, 2);
        assert_eq!(b.label, Label::new("a"));
        assert_eq!(b.sort, Sort::Nat);
        let b2 = b.map_ref(|x| x * 2);
        assert_eq!(b2.cont, 4);
    }
}
