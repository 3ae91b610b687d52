//! The serving layer's error surface.
//!
//! Errors cross thread boundaries here (the batch worker replies to many waiting
//! clients), so [`ServeError`] is `Clone` — durability failures carry their detail as a
//! rendered string rather than the underlying [`crowd_ckpt::CkptError`].

use std::fmt;
use std::path::PathBuf;

/// Result alias for every fallible serving operation.
pub type Result<T> = std::result::Result<T, ServeError>;

/// Everything that can go wrong submitting to, running or recovering a decision server.
#[derive(Debug, Clone)]
pub enum ServeError {
    /// The bounded ingress queue is full ([`Client::try_decide`] only — the blocking
    /// submit paths wait instead; this is the backpressure contract surfacing).
    ///
    /// [`Client::try_decide`]: crate::Client::try_decide
    Saturated,
    /// The server is shedding load instead of wedging: the decision log is failing
    /// after bounded retries, or the request waited in the ingress queue past the
    /// configured staleness bound. The request had **no effect** on the policy —
    /// retrying it later ([`Client::decide_with_retry`] does so automatically) is a
    /// fresh request, so nothing is lost or duplicated.
    ///
    /// [`Client::decide_with_retry`]: crate::Client::decide_with_retry
    Degraded {
        /// Why the server is degraded (log outage detail or staleness shed).
        detail: String,
    },
    /// The server stopped (shutdown, kill or an earlier fatal error) before this
    /// request could be accepted or answered.
    ShuttingDown,
    /// [`Server::start`] found existing segments in the log directory — starting fresh
    /// over a previous run's log would fork history; use [`Server::recover`].
    ///
    /// [`Server::start`]: crate::Server::start
    /// [`Server::recover`]: crate::Server::recover
    LogNotEmpty {
        /// The offending log directory.
        dir: PathBuf,
    },
    /// The decision log could not be written, synced, rotated or read.
    Log {
        /// Rendered cause (I/O error, CRC mismatch, corrupt framing, …).
        detail: String,
    },
    /// A request was refused at the client boundary because its content is unusable:
    /// a NaN or infinite number in a feedback (worker quality, quality gain, a
    /// worker-feature entry) or an arrival (worker quality, a worker-feature entry, a
    /// task's feature, quality or award), or an arrival listing one task twice. Nothing
    /// was sent, logged, decided or observed.
    Malformed {
        /// Which field is malformed.
        detail: String,
    },
    /// Log replay could not reconstruct the server state: the re-executed policy
    /// diverged from a logged decision, or the record sequence violates an invariant
    /// (non-monotonic request ids, feedback for an unknown request).
    Recovery {
        /// What diverged or which invariant broke.
        detail: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Saturated => write!(f, "ingress queue is full (server saturated)"),
            ServeError::Degraded { detail } => {
                write!(f, "server is degraded and shedding load: {detail}")
            }
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::LogNotEmpty { dir } => write!(
                f,
                "decision log directory {} already contains segments; recover instead of starting fresh",
                dir.display()
            ),
            ServeError::Log { detail } => write!(f, "decision log failure: {detail}"),
            ServeError::Malformed { detail } => write!(f, "malformed request: {detail}"),
            ServeError::Recovery { detail } => write!(f, "decision log replay failed: {detail}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<crowd_ckpt::CkptError> for ServeError {
    fn from(e: crowd_ckpt::CkptError) -> Self {
        ServeError::Log {
            detail: e.to_string(),
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Log {
            detail: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(ServeError::Saturated.to_string().contains("full"));
        let e = ServeError::LogNotEmpty {
            dir: PathBuf::from("/tmp/x"),
        };
        assert!(e.to_string().contains("/tmp/x"));
        let e: ServeError = crowd_ckpt::CkptError::Unsupported { what: "p" }.into();
        assert!(matches!(e, ServeError::Log { .. }));
        assert!(ServeError::Recovery {
            detail: "act diverged".into()
        }
        .to_string()
        .contains("act diverged"));
        assert!(ServeError::Malformed {
            detail: "quality_gain is NaN".into()
        }
        .to_string()
        .contains("quality_gain is NaN"));
    }
}
