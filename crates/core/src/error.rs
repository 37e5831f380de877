//! Error type shared across the Waterwheel crates.

use std::fmt;
use std::io;

/// Convenience alias used throughout the workspace.
pub type Result<T, E = WwError> = std::result::Result<T, E>;

/// Errors surfaced by Waterwheel components.
#[derive(Debug)]
pub enum WwError {
    /// Underlying I/O failure (simulated DFS, metadata persistence, …).
    Io(io::Error),
    /// A persisted artifact (chunk, metadata snapshot, log segment) failed
    /// to decode.
    Corrupt {
        /// What was being decoded.
        what: &'static str,
        /// Human-readable detail.
        detail: String,
    },
    /// A referenced entity does not exist.
    NotFound {
        /// Entity kind ("chunk", "topic", "region", …).
        what: &'static str,
        /// Identifier of the missing entity.
        id: String,
    },
    /// An operation was issued against a component in the wrong state
    /// (e.g. inserting into a sealed tree, flushing an empty tree).
    InvalidState(String),
    /// Invalid configuration detected at startup.
    Config(String),
    /// A server or channel shut down while the operation was in flight.
    Shutdown(&'static str),
    /// An injected fault (failure-injection test hooks).
    Injected(&'static str),
    /// An RPC did not complete before its deadline (lost request, slow
    /// link, or overload). Retryable: the request may never have reached
    /// the destination.
    Timeout(&'static str),
    /// The destination of an RPC cannot be reached (network partition,
    /// dead node, or no server bound at the address). Retryable.
    Unreachable(&'static str),
    /// The destination shed this request before running its handler: its
    /// class's share of the listener's worker queue was full. Carries the
    /// server's retry-after hint. Retryable: the handler never ran, so
    /// resending cannot duplicate a side effect.
    Overloaded {
        /// How long the sender should wait before retrying.
        retry_after: std::time::Duration,
    },
    /// An indexing server refused an in-memory subquery planned against
    /// metadata its flush hand-off has moved past: the plan saw neither the
    /// offset the server last registered nor the one its sealed stores wait
    /// on. Not retryable as is; the coordinator plans the query again.
    StalePlan,
}

impl fmt::Display for WwError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WwError::Io(e) => write!(f, "I/O error: {e}"),
            WwError::Corrupt { what, detail } => write!(f, "corrupt {what}: {detail}"),
            WwError::NotFound { what, id } => write!(f, "{what} not found: {id}"),
            WwError::InvalidState(msg) => write!(f, "invalid state: {msg}"),
            WwError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            WwError::Shutdown(who) => write!(f, "{who} has shut down"),
            WwError::Injected(what) => write!(f, "injected fault: {what}"),
            WwError::Timeout(what) => write!(f, "rpc timed out: {what}"),
            WwError::Unreachable(what) => write!(f, "destination unreachable: {what}"),
            WwError::Overloaded { retry_after } => write!(
                f,
                "destination overloaded: retry after {}ms",
                retry_after.as_millis()
            ),
            WwError::StalePlan => write!(f, "stale plan: a flush registered since"),
        }
    }
}

impl std::error::Error for WwError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WwError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for WwError {
    fn from(e: io::Error) -> Self {
        WwError::Io(e)
    }
}

impl WwError {
    /// Shorthand for a corruption error.
    pub fn corrupt(what: &'static str, detail: impl Into<String>) -> Self {
        WwError::Corrupt {
            what,
            detail: detail.into(),
        }
    }

    /// Shorthand for a not-found error.
    pub fn not_found(what: &'static str, id: impl fmt::Display) -> Self {
        WwError::NotFound {
            what,
            id: id.to_string(),
        }
    }

    /// Whether a retry of the same RPC could plausibly succeed: the request
    /// may never have reached (or may again reach) the destination. Other
    /// errors are answers from the destination and must not be retried.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            WwError::Timeout(_) | WwError::Unreachable(_) | WwError::Overloaded { .. }
        )
    }

    /// The retry-after hint carried by [`WwError::Overloaded`], if any.
    pub fn retry_after(&self) -> Option<std::time::Duration> {
        match self {
            WwError::Overloaded { retry_after } => Some(*retry_after),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let e = WwError::corrupt("chunk", "bad magic");
        assert_eq!(e.to_string(), "corrupt chunk: bad magic");
        let e = WwError::not_found("topic", "ingest-3");
        assert_eq!(e.to_string(), "topic not found: ingest-3");
    }

    #[test]
    fn rpc_errors_format_and_classify() {
        let t = WwError::Timeout("chunk subquery");
        assert_eq!(t.to_string(), "rpc timed out: chunk subquery");
        assert!(t.is_retryable());
        let u = WwError::Unreachable("link partitioned");
        assert_eq!(u.to_string(), "destination unreachable: link partitioned");
        assert!(u.is_retryable());
        assert!(!WwError::Injected("server down").is_retryable());
        assert!(!WwError::not_found("chunk", 3).is_retryable());
        let o = WwError::Overloaded {
            retry_after: std::time::Duration::from_millis(25),
        };
        assert_eq!(o.to_string(), "destination overloaded: retry after 25ms");
        assert!(o.is_retryable(), "shed requests never ran: safe to retry");
        assert_eq!(o.retry_after(), Some(std::time::Duration::from_millis(25)));
        assert_eq!(WwError::Timeout("late").retry_after(), None);
    }

    #[test]
    fn io_errors_convert_and_chain() {
        let inner = io::Error::new(io::ErrorKind::NotFound, "gone");
        let e: WwError = inner.into();
        assert!(e.to_string().contains("gone"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
