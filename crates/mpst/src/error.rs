//! Error types for the MPST metatheory layer.

use std::fmt;

use crate::common::label::Label;
use crate::common::role::Role;

/// A specialised `Result` for MPST operations.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by well-formedness checks, unravelling, projection and the
/// operational semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A recursion binder is not guarded (e.g. `mu X. X`), violating
    /// Definition A.2/A.10.
    Unguarded {
        /// Human-readable description of the offending subterm.
        context: String,
    },
    /// The type contains a free recursion variable (violating closedness,
    /// Definition A.3/A.11).
    UnboundVariable {
        /// de Bruijn index of the unbound variable.
        index: u32,
    },
    /// A choice has an empty set of continuations (the paper requires
    /// `I != {}`).
    EmptyChoice,
    /// Two branches of the same choice carry the same label.
    DuplicateLabel {
        /// The repeated label.
        label: Label,
    },
    /// A message type has the same participant as sender and receiver
    /// (the paper requires `p != q`).
    SelfCommunication {
        /// The offending participant.
        role: Role,
    },
    /// The global type (or tree) cannot be projected onto the given
    /// participant.
    NotProjectable {
        /// The participant the projection was attempted for.
        role: Role,
        /// Why projection failed.
        reason: String,
    },
    /// A projection, environment or queue lookup referred to a participant
    /// that is not part of the protocol.
    UnknownRole {
        /// The missing participant.
        role: Role,
    },
    /// A well-formedness precondition did not hold.
    IllFormed {
        /// Human-readable description of the violated condition.
        reason: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Unguarded { context } => write!(f, "unguarded recursion in {context}"),
            Error::UnboundVariable { index } => {
                write!(f, "unbound recursion variable with de Bruijn index {index}")
            }
            Error::EmptyChoice => f.write_str("choice with an empty set of continuations"),
            Error::DuplicateLabel { label } => {
                write!(f, "duplicate label `{label}` in a choice")
            }
            Error::SelfCommunication { role } => {
                write!(f, "participant `{role}` sends a message to itself")
            }
            Error::NotProjectable { role, reason } => {
                write!(f, "global type is not projectable onto `{role}`: {reason}")
            }
            Error::UnknownRole { role } => write!(f, "unknown participant `{role}`"),
            Error::IllFormed { reason } => write!(f, "ill-formed type: {reason}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let cases: Vec<Error> = vec![
            Error::Unguarded {
                context: "mu X. X".into(),
            },
            Error::UnboundVariable { index: 2 },
            Error::EmptyChoice,
            Error::DuplicateLabel {
                label: Label::new("l"),
            },
            Error::SelfCommunication {
                role: Role::new("p"),
            },
            Error::NotProjectable {
                role: Role::new("r"),
                reason: "branches disagree".into(),
            },
            Error::UnknownRole {
                role: Role::new("x"),
            },
            Error::IllFormed {
                reason: "empty protocol".into(),
            },
        ];
        for e in cases {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(
                msg.chars().next().unwrap().is_lowercase(),
                "error message should start lowercase: {msg}"
            );
            assert!(!msg.ends_with('.'), "no trailing punctuation: {msg}");
        }
    }

    #[test]
    fn errors_are_send_sync_and_error() {
        fn assert_bounds<T: std::error::Error + Send + Sync + 'static>() {}
        assert_bounds::<Error>();
    }
}
