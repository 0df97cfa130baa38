//! Typed serving errors. Like the `try_*` layers of `ha-mapreduce`, the
//! service never panics on recoverable conditions: overload, shutdown,
//! malformed requests, and storage/decoding failures all surface here.

use std::fmt;

use ha_mapreduce::DfsError;

/// Why a serving operation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// The admission controller rejected the request: the bounded request
    /// queue was full. Back off and retry — nothing was enqueued.
    Overloaded {
        /// The queue capacity that was exhausted.
        capacity: usize,
    },
    /// The service is shutting down (or shut down while the request was
    /// in flight); no answer will be produced.
    Shutdown,
    /// The query/insert code length does not match the served index.
    WrongCodeLength {
        /// Code length the service was built for.
        expected: usize,
        /// Code length of the offending request.
        got: usize,
    },
    /// The index (or configuration) is leafless — Option B of the
    /// MapReduce join drops the tuple-id lists, so there is nothing to
    /// serve ids from.
    Leafless,
    /// The index blob could not be read back from the DFS.
    Storage(DfsError),
    /// A persisted generation (a shard's rows) was read back from the
    /// DFS but failed to decode; recovery refuses it rather than serve
    /// rows it cannot vouch for.
    CorruptGeneration(RowsError),
    /// The request's deadline expired before a worker reached it; the
    /// work was shed at dequeue instead of executed. The answer would
    /// have arrived too late to be useful, so no search was run.
    DeadlineExceeded,
    /// A planned crash fault (see `MergeFaultPlan`) killed the process
    /// at this operation — the deterministic stand-in for `kill -9` that
    /// the recovery tests use. Only injected faults produce this.
    CrashInjected,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Overloaded { capacity } => {
                write!(f, "service overloaded: request queue full ({capacity} pending)")
            }
            ServiceError::Shutdown => write!(f, "service is shut down"),
            ServiceError::WrongCodeLength { expected, got } => {
                write!(f, "code length mismatch: index serves {expected}-bit codes, got {got}")
            }
            ServiceError::Leafless => {
                write!(f, "index is leafless (no tuple-id lists) — cannot serve ids")
            }
            ServiceError::Storage(e) => write!(f, "index load failed: {e}"),
            ServiceError::CorruptGeneration(e) => write!(f, "generation blob rejected: {e}"),
            ServiceError::DeadlineExceeded => {
                write!(f, "deadline exceeded: request shed before execution")
            }
            ServiceError::CrashInjected => {
                write!(f, "injected crash: service killed by fault plan")
            }
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Storage(e) => Some(e),
            ServiceError::CorruptGeneration(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DfsError> for ServiceError {
    fn from(e: DfsError) -> Self {
        ServiceError::Storage(e)
    }
}

impl From<RowsError> for ServiceError {
    fn from(e: RowsError) -> Self {
        ServiceError::CorruptGeneration(e)
    }
}

/// Why a generation blob — the rows a durable shard persists at every
/// publish — failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RowsError {
    /// The blob does not start with the rows magic.
    BadMagic,
    /// The blob's code length is not the one the service was built for.
    CodeLength {
        /// Code length recorded in the service's `META`.
        expected: usize,
        /// Code length the blob's header declares.
        got: usize,
    },
    /// The blob ends before its header and the rows it declares do.
    Truncated,
    /// The blob runs past the rows its header declares.
    TrailingBytes,
    /// The checksum footer does not match the blob's body.
    ChecksumMismatch,
}

impl fmt::Display for RowsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RowsError::BadMagic => write!(f, "not a generation rows blob (bad magic)"),
            RowsError::CodeLength { expected, got } => {
                write!(f, "rows of {got}-bit codes in a service of {expected}-bit codes")
            }
            RowsError::Truncated => write!(f, "truncated rows blob"),
            RowsError::TrailingBytes => write!(f, "bytes past the declared rows"),
            RowsError::ChecksumMismatch => write!(f, "rows blob failed checksum verification"),
        }
    }
}

impl std::error::Error for RowsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ServiceError::Overloaded { capacity: 8 };
        assert!(e.to_string().contains("overloaded"));
        let e = ServiceError::WrongCodeLength { expected: 32, got: 64 };
        assert!(e.to_string().contains("32"));
        assert!(e.to_string().contains("64"));
        let e: ServiceError = RowsError::ChecksumMismatch.into();
        assert!(matches!(e, ServiceError::CorruptGeneration(RowsError::ChecksumMismatch)));
        assert!(e.to_string().contains("generation blob"));
        use std::error::Error;
        assert!(e.source().is_some());
    }

    #[test]
    fn deadline_and_crash_variants_display() {
        assert!(ServiceError::DeadlineExceeded.to_string().contains("deadline"));
        assert!(ServiceError::CrashInjected.to_string().contains("crash"));
        use std::error::Error;
        assert!(ServiceError::DeadlineExceeded.source().is_none());
    }

    #[test]
    fn storage_errors_convert_and_chain() {
        use std::error::Error;
        let e: ServiceError = DfsError::FileNotFound { path: "/idx".into() }.into();
        assert!(e.source().is_some());
        assert!(e.to_string().contains("/idx"));
    }
}
