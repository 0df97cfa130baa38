//! # ha-distributed — Hamming-join over MapReduce (§5)
//!
//! The paper's three-phase pipeline (Figure 5), implemented over the
//! [`ha_mapreduce`] runtime:
//!
//! 1. **Preprocessing** ([`preprocess`]): reservoir-sample R ∪ S, learn
//!    the similarity hash function on the sample, build a Gray-order
//!    histogram of the sampled codes, and cut it into `N` equal-mass
//!    ranges — the **pivots** that give every reducer the same load even
//!    under skew.
//! 2. **Global HA-Index building** ([`global_index`]): one MapReduce job
//!    hashes and range-partitions R by the pivots; each reducer bulk-loads
//!    a local HA-Index (H-Build); the driver merges the locals into the
//!    global HA-Index (§5.2).
//! 3. **Hamming-join** ([`join`]): the global index travels to the workers
//!    through the distributed cache and a second job probes it with S.
//!    **Option A** ships the index with its leaf id lists; **Option B**
//!    ships the leafless index (much smaller when R is large) and resolves
//!    ids with a MapReduce hash-join afterwards.
//!
//! Baselines for Figures 7 and 9: [`pmh`] (Manku's broadcast-R +
//! multi-hash-table join) and [`pgbj`] (Lu et al.'s pivot-partitioned
//! exact kNN-join). [`pipeline`] exposes the end-to-end drivers with
//! per-phase timing and the traffic accounting the figures plot.
//!
//! Every entry point is a `try_*` function that takes a
//! [`ha_mapreduce::FaultInjector`] (pass `FaultInjector::none()` for no
//! injected faults) and returns a typed [`ha_mapreduce::JobError`] when a
//! task exhausts its attempts or storage loses data; none panics.

#![forbid(unsafe_code)]

pub mod batch_select;
pub mod global_index;
pub mod join;
pub mod knn_join;
pub mod pgbj;
pub mod pipeline;
pub mod pivot;
pub mod pmh;
pub mod preprocess;

pub use batch_select::{try_mrha_batch_select, BatchSelectOutcome};
pub use join::JoinOption;
pub use knn_join::{try_mrha_knn_join, KnnJoinOutcome};
pub use pgbj::{try_pgbj_self_knn_join, PgbjConfig, PgbjOutcome};
pub use pipeline::{
    try_mrha_hamming_join, try_mrha_hamming_join_on_dfs, try_mrha_self_join, JoinOutcome,
    MrHaConfig, PhaseTimes,
};
pub use pivot::PivotPartitioner;
pub use pmh::try_pmh_hamming_join;
pub use preprocess::Preprocessed;

use ha_core::TupleId;
use ha_mapreduce::JobConfig;

/// A dataset tuple: the original feature vector plus its id.
pub type VecTuple = (Vec<f64>, TupleId);

/// Backoff seed shared by every pipeline job, so multi-job runs replay
/// identical retry schedules.
const FAULT_SEED: u64 = 0x4A_2015_EDB7;

/// Standard [`JobConfig`] of every pipeline job: besides workers and
/// reducers it keeps [`JobConfig::named`]'s one retry per task (Hadoop
/// defaults to four; our in-process tasks only fail on panics, where a
/// second identical attempt either recovers an injected fault or proves
/// the failure deterministic) and adds a short seeded backoff.
pub(crate) fn job_config(name: &str, workers: usize, reducers: usize) -> JobConfig {
    JobConfig::named(name)
        .with_workers(workers)
        .with_reducers(reducers)
        .with_backoff(std::time::Duration::from_millis(2), FAULT_SEED)
}
