//! Phase 2 — global HA-Index building (§5.2, Figure 5 middle):
//! one MapReduce job partitions the hashed codes of R by the pivots and
//! bulk-loads a local HA-Index per reducer; the driver then merges the
//! locals into the global index.

use ha_core::dynamic::{DhaConfig, DynamicHaIndex};
use ha_hashing::SimilarityHasher;
use ha_mapreduce::{try_run_job, FaultInjector, JobError, JobMetrics};

use crate::preprocess::Preprocessed;
use crate::VecTuple;

/// Result of the index-building job.
pub struct GlobalIndexBuild {
    /// The merged global HA-Index over R.
    pub index: DynamicHaIndex,
    /// Metrics of the MapReduce job (shuffle = hashed codes + ids;
    /// broadcast = hash function + pivots to every mapper).
    pub metrics: JobMetrics,
}

/// Runs the Phase-2 job over dataset R under a fault injector, surfacing
/// unrecoverable task or storage failures as a typed [`JobError`].
pub fn try_build_global_index(
    r: Vec<VecTuple>,
    pre: &Preprocessed,
    dha: &DhaConfig,
    workers: usize,
    partitions: usize,
    faults: &FaultInjector,
) -> Result<GlobalIndexBuild, JobError> {
    let hasher = pre.hasher.clone();
    let partitioner = &pre.partitioner;
    let dha = dha.clone();
    let config = crate::job_config("mrha-index-build", workers, partitions);

    let result = try_run_job(
        &config,
        r,
        // Map: hash the tuple, look up its pivot range, emit
        // (PartitionID, (code, id)) — §5.2's mapper verbatim.
        |(v, id): VecTuple, emit| {
            use ha_hashing::SimilarityHasher;
            let code = hasher.hash(&v);
            let part = partitioner.assign(&code) as u32;
            emit(part, (code, id));
        },
        // The emitted key *is* the partition.
        |&part, n| (part as usize).min(n - 1),
        // Reduce: bulk-load the local HA-Index (H-Build).
        |_part, tuples, out: &mut Vec<DynamicHaIndex>| {
            out.push(DynamicHaIndex::build_with(tuples, dha.clone()));
        },
        faults,
    )?;

    let mut metrics = result.metrics;
    // The distributed cache ships the hash function and the pivots to
    // every worker before the job starts.
    metrics.broadcast_bytes +=
        (pre.hasher.approx_bytes() + pre.partitioner.shuffle_bytes()) * workers;

    let locals = result.outputs;
    let mut index = if locals.is_empty() {
        DynamicHaIndex::empty(pre.hasher.code_len(), dha)
    } else {
        DynamicHaIndex::merge_all(locals)
    };
    // The merged index is read-only from here on. No snapshot is
    // compiled: each consumer freezes (or not) for the probes it runs.
    index.flush();
    Ok(GlobalIndexBuild { index, metrics })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::preprocess;
    use ha_core::HammingIndex;
    use ha_datagen::{generate, DatasetProfile};
    use ha_hashing::SimilarityHasher;

    fn dataset(n: usize, seed: u64) -> Vec<VecTuple> {
        generate(&DatasetProfile::tiny(10, 3), n, seed)
            .into_iter()
            .enumerate()
            .map(|(i, v)| (v, i as u64))
            .collect()
    }

    /// Phase 2 over 4 workers, without injected faults.
    fn build(r: &[VecTuple], pre: &Preprocessed, partitions: usize) -> GlobalIndexBuild {
        let none = FaultInjector::none();
        try_build_global_index(r.to_vec(), pre, &DhaConfig::default(), 4, partitions, &none)
            .expect("phase 2 runs")
    }

    #[test]
    fn global_index_contains_all_tuples() {
        let r = dataset(400, 31);
        let pre = preprocess(&r, &[], 0.2, 32, 4, 1);
        let built = build(&r, &pre, 4);
        built.index.check_invariants();
        assert_eq!(built.index.len(), 400);
        // Every tuple is findable at distance 0.
        for (v, id) in r.iter().take(25) {
            let code = pre.hasher.hash(v);
            assert!(built.index.search(&code, 0).contains(id));
        }
    }

    #[test]
    fn distributed_build_equals_centralized_search_results() {
        let r = dataset(300, 32);
        let pre = preprocess(&r, &[], 0.2, 32, 4, 2);
        let built = build(&r, &pre, 4);
        // Centralized reference: hash everything, bulk-load once.
        let central = DynamicHaIndex::build(
            r.iter().map(|(v, id)| (pre.hasher.hash(v), *id)),
        );
        for (v, _) in r.iter().take(15) {
            let q = pre.hasher.hash(v);
            for h in [0u32, 2, 4] {
                let mut a = built.index.search(&q, h);
                let mut b = central.search(&q, h);
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "h={h}");
            }
        }
    }

    #[test]
    fn shuffle_carries_codes_not_vectors() {
        let r = dataset(500, 33);
        let pre = preprocess(&r, &[], 0.2, 32, 4, 3);
        let built = build(&r, &pre, 4);
        // 500 × (key 4B + code 6B + id 8B) — two orders below vector bytes
        // (500 × 10 × 8B = 40 KB).
        let expected = 500 * (4 + (2 + 4) + 8);
        assert_eq!(built.metrics.shuffle_bytes, expected);
        assert!(built.metrics.broadcast_bytes > 0);
    }

    #[test]
    fn partition_loads_are_balanced() {
        let r = dataset(800, 34);
        let pre = preprocess(&r, &[], 0.2, 32, 8, 4);
        let built = build(&r, &pre, 8);
        assert!(
            built.metrics.reduce_skew() < 2.5,
            "skew {}",
            built.metrics.reduce_skew()
        );
    }
}
