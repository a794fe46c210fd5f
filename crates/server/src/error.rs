//! Error types for the session server.

use std::fmt;

use zooid_mpst::Role;

/// A specialised `Result` for server operations.
pub type Result<T> = std::result::Result<T, ServerError>;

/// Errors produced by the protocol registry and the session server.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServerError {
    /// The protocol failed well-formedness, projection or certification.
    Dsl(zooid_dsl::DslError),
    /// The protocol's machines could not be compiled or composed.
    Cfsm(zooid_cfsm::CfsmError),
    /// A different protocol is already registered under this name.
    DuplicateProtocol {
        /// The contested name.
        name: String,
    },
    /// The referenced protocol id is not registered.
    UnknownProtocol,
    /// A session spec has no implementation for one of the protocol's
    /// participants.
    MissingEndpoint {
        /// The uncovered role.
        role: Role,
    },
    /// A session spec provides an endpoint for a role twice, or for a role
    /// that is not a participant of the protocol.
    UnexpectedEndpoint {
        /// The offending role.
        role: Role,
    },
    /// An endpoint was certified against a different protocol than the one
    /// the session was started for.
    WrongProtocol {
        /// The protocol the session runs.
        expected: String,
        /// The protocol the endpoint was certified for.
        found: String,
    },
    /// The server's worker shards are gone (already shut down).
    Shutdown,
    /// The networked serving plane hit a socket-level failure (bind,
    /// listen).
    Net {
        /// The underlying IO error, rendered.
        reason: String,
    },
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Dsl(e) => write!(f, "protocol error: {e}"),
            ServerError::Cfsm(e) => write!(f, "machine compilation error: {e}"),
            ServerError::DuplicateProtocol { name } => {
                write!(f, "a different protocol is already registered as `{name}`")
            }
            ServerError::UnknownProtocol => write!(f, "unknown protocol id"),
            ServerError::MissingEndpoint { role } => {
                write!(f, "no endpoint implementation for role `{role}`")
            }
            ServerError::UnexpectedEndpoint { role } => {
                write!(f, "unexpected endpoint implementation for role `{role}`")
            }
            ServerError::WrongProtocol { expected, found } => write!(
                f,
                "endpoint certified for protocol `{found}` used in a session of `{expected}`"
            ),
            ServerError::Shutdown => write!(f, "the server has been shut down"),
            ServerError::Net { reason } => write!(f, "network error: {reason}"),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Dsl(e) => Some(e),
            ServerError::Cfsm(e) => Some(e),
            _ => None,
        }
    }
}

impl From<zooid_dsl::DslError> for ServerError {
    fn from(e: zooid_dsl::DslError) -> Self {
        ServerError::Dsl(e)
    }
}

impl From<zooid_cfsm::CfsmError> for ServerError {
    fn from(e: zooid_cfsm::CfsmError) -> Self {
        ServerError::Cfsm(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_lowercase_and_informative() {
        let cases: Vec<ServerError> = vec![
            ServerError::DuplicateProtocol { name: "ring".into() },
            ServerError::UnknownProtocol,
            ServerError::MissingEndpoint { role: Role::new("p") },
            ServerError::UnexpectedEndpoint { role: Role::new("p") },
            ServerError::WrongProtocol {
                expected: "a".into(),
                found: "b".into(),
            },
            ServerError::Shutdown,
            ServerError::Net {
                reason: "address in use".into(),
            },
        ];
        for e in cases {
            let msg = e.to_string();
            assert!(msg.chars().next().unwrap().is_lowercase(), "{msg}");
            assert!(!msg.ends_with('.'), "{msg}");
        }
    }
}
