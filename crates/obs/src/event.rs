//! The typed event log: discrete happenings (a retry, a failover, a
//! served batch) that have a point in time but no duration.
//!
//! Events are attributed to the innermost open span of the emitting
//! thread, so a `TaskRetry` lands inside the `mr.map_task` span whose
//! attempt failed, and the flame/JSON views can show *where* recovery
//! work happened, not just that it did.

/// A discrete observability event. Variants cover the three instrumented
/// layers: MapReduce task recovery, DFS storage recovery, and serving.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// A task attempt was launched (the first, or a retry).
    TaskAttempt {
        /// Task id rendered as `map[i]` / `reduce[i]`.
        task: String,
        /// 0-based attempt number.
        attempt: u32,
    },
    /// A transient attempt failure triggered a retry.
    TaskRetry {
        /// The failing task.
        task: String,
        /// Failures so far (this one included).
        failures: u32,
        /// The failure description (panic payload or injected error).
        message: String,
    },
    /// A deterministic fault was injected into an attempt.
    TaskFault {
        /// The targeted task.
        task: String,
        /// The targeted attempt.
        attempt: u32,
        /// Rendered fault (`panic`, `transient`, `delay(..)`).
        fault: String,
    },
    /// A replica failed read-time checksum verification and was
    /// quarantined.
    DfsCorruptReplica {
        /// File the block belongs to.
        path: String,
        /// Block index within the file.
        block: usize,
        /// Datanode hosting the bad copy.
        node: usize,
    },
    /// A block read skipped dead/corrupt replicas before being served.
    DfsFailover {
        /// File the block belongs to.
        path: String,
        /// Block index within the file.
        block: usize,
        /// Replicas skipped before a healthy copy answered.
        skipped: u64,
    },
    /// A degraded block was repaired back toward target replication.
    DfsReReplication {
        /// File the block belongs to.
        path: String,
        /// Block index within the file.
        block: usize,
        /// New copies placed.
        copies: u64,
    },
    /// A serving micro-batch was answered.
    ServeBatch {
        /// Radius shared by the batched selects.
        h: u32,
        /// Queries answered by the executed shard probes.
        executed: usize,
        /// Queries answered straight from the result cache.
        cache_hits: usize,
    },
    /// A kNN-select was answered.
    ServeKnn {
        /// Requested neighbour count.
        k: usize,
    },
}

impl Event {
    /// Stable machine-readable kind tag (the `"kind"` field of the
    /// JSON-lines encoding).
    pub fn kind(&self) -> &'static str {
        match self {
            Event::TaskAttempt { .. } => "task.attempt",
            Event::TaskRetry { .. } => "task.retry",
            Event::TaskFault { .. } => "task.fault",
            Event::DfsCorruptReplica { .. } => "dfs.corrupt_replica",
            Event::DfsFailover { .. } => "dfs.failover",
            Event::DfsReReplication { .. } => "dfs.re_replication",
            Event::ServeBatch { .. } => "serve.batch",
            Event::ServeKnn { .. } => "serve.knn",
        }
    }

    /// The event's payload as `(field, value)` pairs, in declaration
    /// order — the flat encoding both the JSON-lines sink and tests use.
    pub fn fields(&self) -> Vec<(&'static str, String)> {
        match self {
            Event::TaskAttempt { task, attempt } => vec![
                ("task", task.clone()),
                ("attempt", attempt.to_string()),
            ],
            Event::TaskRetry {
                task,
                failures,
                message,
            } => vec![
                ("task", task.clone()),
                ("failures", failures.to_string()),
                ("message", message.clone()),
            ],
            Event::TaskFault {
                task,
                attempt,
                fault,
            } => vec![
                ("task", task.clone()),
                ("attempt", attempt.to_string()),
                ("fault", fault.clone()),
            ],
            Event::DfsCorruptReplica { path, block, node } => vec![
                ("path", path.clone()),
                ("block", block.to_string()),
                ("node", node.to_string()),
            ],
            Event::DfsFailover {
                path,
                block,
                skipped,
            } => vec![
                ("path", path.clone()),
                ("block", block.to_string()),
                ("skipped", skipped.to_string()),
            ],
            Event::DfsReReplication {
                path,
                block,
                copies,
            } => vec![
                ("path", path.clone()),
                ("block", block.to_string()),
                ("copies", copies.to_string()),
            ],
            Event::ServeBatch {
                h,
                executed,
                cache_hits,
            } => vec![
                ("h", h.to_string()),
                ("executed", executed.to_string()),
                ("cache_hits", cache_hits.to_string()),
            ],
            Event::ServeKnn { k } => vec![("k", k.to_string())],
        }
    }
}

/// One logged event with its attribution: when it happened (nanoseconds
/// since the collector epoch), inside which open span, on which thread.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EventRecord {
    /// Emission time, nanoseconds since the collector epoch.
    pub at_ns: u64,
    /// Innermost span open on the emitting thread, if any.
    pub span: Option<crate::SpanId>,
    /// Dense id of the emitting thread.
    pub thread: u64,
    /// The typed payload.
    pub event: Event,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_stable_and_distinct() {
        let events = [
            Event::TaskAttempt {
                task: "map[0]".into(),
                attempt: 0,
            },
            Event::TaskRetry {
                task: "map[0]".into(),
                failures: 1,
                message: "boom".into(),
            },
            Event::TaskFault {
                task: "map[2]".into(),
                attempt: 1,
                fault: "panic".into(),
            },
            Event::DfsCorruptReplica {
                path: "f".into(),
                block: 0,
                node: 3,
            },
            Event::DfsFailover {
                path: "f".into(),
                block: 0,
                skipped: 2,
            },
            Event::DfsReReplication {
                path: "f".into(),
                block: 0,
                copies: 1,
            },
            Event::ServeBatch {
                h: 3,
                executed: 4,
                cache_hits: 2,
            },
            Event::ServeKnn { k: 5 },
        ];
        let kinds: Vec<&str> = events.iter().map(|e| e.kind()).collect();
        let mut uniq = kinds.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), kinds.len(), "kinds collide: {kinds:?}");
        for e in &events {
            assert!(!e.fields().is_empty(), "{} renders no fields", e.kind());
        }
    }

    #[test]
    fn fields_carry_the_payload() {
        let e = Event::DfsFailover {
            path: "in/r".into(),
            block: 2,
            skipped: 1,
        };
        assert_eq!(
            e.fields(),
            vec![
                ("path", "in/r".to_string()),
                ("block", "2".to_string()),
                ("skipped", "1".to_string()),
            ]
        );
    }
}
