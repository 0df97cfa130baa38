//! # ha-service — HA-Serve, the online query-serving layer
//!
//! The MapReduce pipeline (ha-distributed) answers Hamming-joins offline;
//! this crate answers queries online: a long-lived, multi-threaded
//! service that hash-partitions `(code, id)` tuples into shards and
//! answers Hamming-selects and kNN-selects.
//!
//! The serving tricks are the paper's batch-amortization ideas applied at
//! query time instead of join time:
//!
//! * **Micro-batching** ([`ServeConfig::max_batch`]): queued selects with
//!   the same radius share one cache pass and one shard fan-out; each
//!   shard answers the batch's queries one after another under one read
//!   guard.
//! * **Admission control** ([`ServeConfig::queue_capacity`]): the request
//!   queue is bounded and overflow is a typed
//!   [`ServiceError::Overloaded`], never an unbounded backlog.
//! * **Epoch-validated result cache** ([`ServeConfig::cache_capacity`]):
//!   H-Insert / H-Delete bump a global mutation epoch; cached answers
//!   are only served at the exact epoch they were computed at, so hits
//!   are provably identical to re-running the search.
//!
//! Since the generational-serving rework, each shard is an immutable,
//! atomically-swapped **generation** (a frozen `PlannedIndex`) plus a
//! small mutable **delta** searched alongside it: mutations are O(delta)
//! instead of a full shard re-freeze, a background freeze/merge worker
//! absorbs the delta into the next generation off-lock, and — in durable
//! mode ([`HaServe::bootstrap_durable`] / [`HaServe::recover`]) — every
//! mutation is appended to a checksummed write-ahead log on the DFS
//! *before* it is acknowledged, so a killed process recovers to exactly
//! the acknowledged state. Requests may carry **deadlines**
//! ([`HaServe::submit_select_with_deadline`]): expired work is shed at
//! dequeue with [`ServiceError::DeadlineExceeded`] instead of executed.
//! Chaos tests script merge panics, delayed publishes, and crashes
//! around the WAL append through [`MergeFaultPlan`].
//!
//! [`ServeMetrics`] exposes what happened — throughput, batch-size
//! distribution, cache hits/misses/evictions, admission rejections,
//! deadline sheds, WAL appends/replays, merge attempts/panics/publishes,
//! and per-shard latency histograms — in the style of the MapReduce
//! layer's `JobMetrics`.
//!
//! # Example
//!
//! ```
//! use ha_bitcode::BinaryCode;
//! use ha_service::{HaServe, ServeConfig, ServiceError};
//!
//! fn main() -> Result<(), ServiceError> {
//!     let codes = (0..256u64).map(|i| (BinaryCode::from_u64(i, 16), i));
//!     let serve = HaServe::build(16, codes, ServeConfig::default())?;
//!
//!     let query = BinaryCode::from_u64(9, 16);
//!     let ids = serve.select(&query, 1)?;          // exact Hamming-select
//!     assert!(ids.contains(&9) && ids.contains(&8));
//!     let near = serve.knn(&query, 5)?;            // top-5 (id, distance)
//!     assert_eq!(near[0], (9, 0));
//!     serve.insert(BinaryCode::from_u64(900, 16), 900)?; // epoch++ → cache invalid
//!     assert_eq!(serve.metrics().selects, 1);
//!     Ok(())
//! }
//! ```

#![forbid(unsafe_code)]

mod cache;
mod error;
mod fault;
mod metrics;
mod service;

pub use cache::ResultCache;
pub use error::{RowsError, ServiceError};
pub use fault::{CrashPoint, MergeFault, MergeFaultEvent, MergeFaultPlan};
pub use metrics::{LatencyHistogram, ServeMetrics, ShardMetrics};
pub use service::{HaServe, SelectTicket, ServeConfig};
