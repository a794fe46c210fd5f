//! Error types for the runtime layer.

use std::fmt;

use zooid_mpst::{Label, Role};

/// A specialised `Result` for runtime operations.
pub type Result<T> = std::result::Result<T, RuntimeError>;

/// Errors produced by transports, the executor and the session harness.
#[derive(Debug)]
#[non_exhaustive]
pub enum RuntimeError {
    /// The transport has no channel towards the requested role.
    UnknownPeer {
        /// The peer no channel exists for.
        role: Role,
    },
    /// The peer disconnected (or its channel closed) while sending or
    /// receiving.
    Disconnected {
        /// The peer that went away.
        role: Role,
    },
    /// No message arrived within the configured timeout.
    Timeout {
        /// The peer the endpoint was waiting for.
        from: Role,
    },
    /// A frame could not be decoded.
    Codec {
        /// Description of the decoding failure.
        reason: String,
    },
    /// A wire frame announced a length above the transport's configured
    /// cap. Raised from the 4-byte header alone — the oversized body is
    /// never buffered, so a hostile length prefix cannot force a large
    /// allocation.
    FrameTooLarge {
        /// The length the frame header announced.
        len: usize,
        /// The configured `max_frame_bytes` cap it exceeded.
        max: usize,
    },
    /// The process received a message whose label it cannot handle in its
    /// current state.
    UnexpectedMessage {
        /// The sender of the offending message.
        from: Role,
        /// Its label.
        label: Label,
    },
    /// The payload of a received message does not inhabit the expected sort.
    BadPayload {
        /// The sender of the offending message.
        from: Role,
        /// Its label.
        label: Label,
    },
    /// An error bubbled up from the process layer (expression evaluation,
    /// missing external action, ...).
    Process(zooid_proc::ProcError),
    /// An I/O error from the TCP transport.
    Io(std::io::Error),
    /// A participant thread panicked inside the session harness.
    EndpointPanicked {
        /// The role whose thread panicked.
        role: Role,
    },
    /// Persisted session state (a checkpoint or a write-ahead log) failed
    /// re-certification on restore: the bytes decoded, but the state they
    /// describe is not one the protocol's compiled tables admit. The session
    /// is refused — durability never readmits an uncertified session.
    Recovery {
        /// What the re-certification rejected.
        reason: String,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::UnknownPeer { role } => write!(f, "no channel towards `{role}`"),
            RuntimeError::Disconnected { role } => write!(f, "peer `{role}` disconnected"),
            RuntimeError::Timeout { from } => {
                write!(f, "timed out waiting for a message from `{from}`")
            }
            RuntimeError::Codec { reason } => write!(f, "malformed frame: {reason}"),
            RuntimeError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte cap")
            }
            RuntimeError::UnexpectedMessage { from, label } => {
                write!(f, "unexpected message `{label}` from `{from}`")
            }
            RuntimeError::BadPayload { from, label } => {
                write!(f, "payload of message `{label}` from `{from}` has the wrong sort")
            }
            RuntimeError::Process(e) => write!(f, "process error: {e}"),
            RuntimeError::Io(e) => write!(f, "transport i/o error: {e}"),
            RuntimeError::EndpointPanicked { role } => {
                write!(f, "the endpoint thread for `{role}` panicked")
            }
            RuntimeError::Recovery { reason } => {
                write!(f, "recovery refused: {reason}")
            }
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Process(e) => Some(e),
            RuntimeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<zooid_proc::ProcError> for RuntimeError {
    fn from(e: zooid_proc::ProcError) -> Self {
        RuntimeError::Process(e)
    }
}

impl From<std::io::Error> for RuntimeError {
    fn from(e: std::io::Error) -> Self {
        RuntimeError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_lowercase_and_informative() {
        let cases: Vec<RuntimeError> = vec![
            RuntimeError::UnknownPeer {
                role: Role::new("q"),
            },
            RuntimeError::Disconnected {
                role: Role::new("q"),
            },
            RuntimeError::Timeout {
                from: Role::new("q"),
            },
            RuntimeError::Codec {
                reason: "truncated frame".into(),
            },
            RuntimeError::FrameTooLarge {
                len: 1 << 32,
                max: 1 << 24,
            },
            RuntimeError::UnexpectedMessage {
                from: Role::new("q"),
                label: Label::new("l"),
            },
            RuntimeError::BadPayload {
                from: Role::new("q"),
                label: Label::new("l"),
            },
            RuntimeError::EndpointPanicked {
                role: Role::new("q"),
            },
            RuntimeError::Recovery {
                reason: "monitor rejected the replayed trace".into(),
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
        assert_bounds::<RuntimeError>();
    }
}
