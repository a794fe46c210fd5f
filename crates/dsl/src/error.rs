//! Error types for the DSL layer.

use std::fmt;

use zooid_mpst::local::LocalType;
use zooid_mpst::{Label, Role};

/// A specialised `Result` for DSL operations.
pub type Result<T> = std::result::Result<T, DslError>;

/// Errors produced while building well-typed processes or certifying them
/// against a protocol.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DslError {
    /// The global type given to [`Protocol::new`](crate::Protocol::new) is
    /// ill-formed.
    IllFormedProtocol(zooid_mpst::Error),
    /// The protocol cannot be projected onto the requested participant
    /// (the `\project` / `\get` step fails).
    Projection(zooid_mpst::Error),
    /// The participant looked up with `\get` is not part of the protocol.
    UnknownRole {
        /// The missing participant.
        role: Role,
    },
    /// A smart constructor was given inconsistent pieces (duplicate labels,
    /// empty choice, misplaced `otherwise`, ...).
    MalformedConstructor {
        /// Which constructor and why.
        reason: String,
    },
    /// Two alternatives of an `if`-process have different local types.
    BranchTypeMismatch {
        /// Type of the `then` branch.
        then_type: LocalType,
        /// Type of the `else` branch.
        else_type: LocalType,
    },
    /// A `select` has no `otherwise` alternative, has more than one, or the
    /// `otherwise` is not the last non-`skip` alternative.
    SelectShape {
        /// Why the shape is wrong.
        reason: String,
    },
    /// Duplicate label inside a `select`/`branch`.
    DuplicateLabel {
        /// The repeated label.
        label: Label,
    },
    /// The process's inferred local type is not equal (up to unravelling) to
    /// the projection of the protocol onto the role it claims to implement.
    TypeDoesNotMatchProjection {
        /// The role being implemented.
        role: Role,
        /// The type inferred for the process.
        inferred: Box<LocalType>,
        /// The projection of the global type onto the role.
        projected: Box<LocalType>,
    },
    /// The underlying typing judgement failed (this indicates a misuse of
    /// [`WtProc::from_parts_unchecked`] or an ill-sorted payload expression).
    ///
    /// [`WtProc::from_parts_unchecked`]: crate::builder::WtProc::from_parts_unchecked
    Typing(zooid_proc::ProcError),
}

impl fmt::Display for DslError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DslError::IllFormedProtocol(e) => write!(f, "ill-formed protocol: {e}"),
            DslError::Projection(e) => write!(f, "projection failed: {e}"),
            DslError::UnknownRole { role } => {
                write!(f, "participant `{role}` is not part of the protocol")
            }
            DslError::MalformedConstructor { reason } => {
                write!(f, "malformed constructor: {reason}")
            }
            DslError::BranchTypeMismatch {
                then_type,
                else_type,
            } => write!(
                f,
                "the branches of an if-process have different local types: {then_type} and {else_type}"
            ),
            DslError::SelectShape { reason } => write!(f, "malformed select: {reason}"),
            DslError::DuplicateLabel { label } => {
                write!(f, "duplicate label `{label}` in a choice")
            }
            DslError::TypeDoesNotMatchProjection {
                role,
                inferred,
                projected,
            } => write!(
                f,
                "the process's local type {inferred} is not equal up to unravelling to the \
                 projection {projected} of the protocol onto `{role}`"
            ),
            DslError::Typing(e) => write!(f, "typing failed: {e}"),
        }
    }
}

impl std::error::Error for DslError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DslError::IllFormedProtocol(e) | DslError::Projection(e) => Some(e),
            DslError::Typing(e) => Some(e),
            _ => None,
        }
    }
}

impl From<zooid_proc::ProcError> for DslError {
    fn from(e: zooid_proc::ProcError) -> Self {
        DslError::Typing(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_lowercase_without_trailing_punctuation() {
        let cases = vec![
            DslError::UnknownRole {
                role: Role::new("X"),
            },
            DslError::MalformedConstructor {
                reason: "empty branch list".into(),
            },
            DslError::SelectShape {
                reason: "missing otherwise".into(),
            },
            DslError::DuplicateLabel {
                label: Label::new("l"),
            },
        ];
        for e in cases {
            let msg = e.to_string();
            assert!(msg.chars().next().unwrap().is_lowercase(), "{msg}");
            assert!(!msg.ends_with('.'), "{msg}");
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<T: std::error::Error + Send + Sync + 'static>() {}
        assert_bounds::<DslError>();
    }
}
