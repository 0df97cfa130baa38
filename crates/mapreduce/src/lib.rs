//! # ha-mapreduce — a MapReduce runtime for algorithm evaluation
//!
//! The paper prototypes its distributed Hamming-join on Hadoop 0.22 over a
//! 16-node cluster. This crate is the substitution (see DESIGN.md): a
//! faithful, deterministic, multi-threaded MapReduce execution engine with
//! the three properties the algorithms actually rely on —
//!
//! 1. **map → shuffle → reduce semantics** with pluggable partitioners
//!    ([`job`]);
//! 2. a **distributed cache** for broadcasting side data (pivots, hash
//!    functions, the global HA-Index) to every worker, with the broadcast
//!    volume charged to the job's shuffle accounting ([`cache`]);
//! 3. **byte-accurate metrics**: every key/value crossing the shuffle
//!    boundary is measured via [`ShuffleBytes`], and per-task wall-clock
//!    times expose stragglers and skew ([`metrics`]) — the quantities
//!    behind Figures 7 and 9.
//!
//! An in-memory [`dfs`] rounds out the Hadoop role: named files, block
//! splits, and read/write between the chained jobs of the 3-phase join —
//! with HDFS-style replication (default 3× over simulated datanodes) and
//! per-block FNV-1a checksums ([`checksum`]) verified on every read.
//! Corrupt or unreachable replicas are quarantined, reads fail over and
//! re-replicate back to target factor (counted in [`DfsMetrics`]), and
//! unrecoverable loss surfaces as a typed [`dfs::DfsError`] /
//! [`JobError::StorageFailed`] instead of a panic. The [`storage_fault`]
//! module injects storage failures as deterministically as [`fault`]
//! injects task failures.
//!
//! ## Fault tolerance
//!
//! Hadoop's premise — and the paper's (§5: "the slowest mapper or reducer
//! determines the job running time") — is that tasks fail and straggle.
//! The runner therefore executes every task under a supervisor that
//! runs its attempts one after another, each under `catch_unwind`,
//! retries failed attempts up to [`JobConfig::max_attempts`] with
//! deterministic seeded backoff, and surfaces exhausted tasks as a typed
//! [`JobError`] from [`try_run_job`], the one job runner, instead of
//! panicking. Because mappers, partitioners, and reducers are required
//! to be pure, every attempt of a task produces identical output and
//! recovery is invisible in the results: outputs are byte-identical for
//! any worker count and any fault schedule that leaves each task one
//! successful attempt. The [`fault`] module provides the deterministic
//! [`FaultPlan`]/[`FaultInjector`] machinery the chaos tests use to prove
//! exactly that, and [`TaskMetrics`] reports what recovery cost (attempts
//! and failures) next to the shuffle accounting. A straggling attempt runs
//! to completion; nothing launches a duplicate beside it.
//!
//! ```
//! use ha_mapreduce::{hash_partition, try_run_job, FaultInjector, JobConfig};
//!
//! // Word count, the obligatory example.
//! let docs = vec!["a b a".to_string(), "b b c".to_string()];
//! let result = try_run_job(
//!     &JobConfig::named("wordcount"),
//!     docs,
//!     |doc, emit| {
//!         for w in doc.split_whitespace() {
//!             emit(w.to_string(), 1u64);
//!         }
//!     },
//!     hash_partition,
//!     |word, counts, out| out.push((word.clone(), counts.iter().sum::<u64>())),
//!     &FaultInjector::none(),
//! )?;
//! let mut counts = result.outputs;
//! counts.sort();
//! assert_eq!(counts, vec![("a".into(), 2), ("b".into(), 3), ("c".into(), 1)]);
//! assert!(result.metrics.shuffle_bytes > 0);
//! # Ok::<(), ha_mapreduce::JobError>(())
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod checksum;
pub mod dfs;
pub mod fault;
pub mod job;
pub mod metrics;
mod shuffle;
pub mod storage_fault;
pub mod wal;

pub use cache::DistributedCache;
pub use checksum::{BlockHasher, Checksum};
pub use dfs::{DfsConfig, DfsError, InMemoryDfs};
pub use fault::{Fault, FaultInjector, FaultPlan, Phase, TaskId};
pub use job::{hash_partition, try_run_job, JobConfig, JobError, JobResult};
pub use metrics::{DfsMetrics, JobMetrics, TaskMetrics};
pub use shuffle::ShuffleBytes;
pub use storage_fault::{StorageFault, StorageFaultEvent, StorageFaultPlan};
pub use wal::{DfsWal, WalError};
