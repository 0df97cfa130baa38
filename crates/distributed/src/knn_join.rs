//! Distributed approximate kNN-join (§6.2's workload): for every tuple of
//! R, its k nearest S tuples *in Hamming space* under the learned hash —
//! the approximation the paper pits against PGBJ's exact kNN-join.
//!
//! Pipeline reuse: Phase 1 and 2 are identical to the Hamming-join's
//! (sample → learn → pivots; partition → H-Build → merge). Phase 3
//! broadcasts the leafy global index over S and each reducer answers its
//! slice of R by [`knn_by_radius`] over H-Search (radii 0, 1, 2, 3, 5, 8,
//! …) — unsuccessful small-`h` rounds die high up in the tree, which is
//! why the expansion loop is affordable (§2).

use ha_core::select::knn_by_radius;
use ha_core::{HammingIndex, TupleId};
use ha_mapreduce::{try_run_job, DistributedCache, FaultInjector, JobError, JobMetrics};

use crate::global_index::try_build_global_index;
use crate::join::index_broadcast_bytes;
use crate::pipeline::{MrHaConfig, PhaseTimes};
use crate::preprocess::preprocess;
use crate::VecTuple;

/// Result of a distributed kNN-join.
pub struct KnnJoinOutcome {
    /// For each R id (sorted), its k nearest S ids with Hamming distances
    /// (ascending distance, ties by id).
    pub neighbours: Vec<(TupleId, Vec<(TupleId, u32)>)>,
    /// Accumulated pipeline metrics.
    pub metrics: JobMetrics,
    /// Per-phase wall clock.
    pub times: PhaseTimes,
}

/// Runs the distributed kNN-join R ⋉ S (k nearest S tuples per R tuple)
/// under a fault injector, surfacing unrecoverable task or storage
/// failures as a typed [`JobError`].
pub fn try_mrha_knn_join(
    r: &[VecTuple],
    s: &[VecTuple],
    k: usize,
    cfg: &MrHaConfig,
    faults: &FaultInjector,
) -> Result<KnnJoinOutcome, JobError> {
    // Phase 1.
    let pre = preprocess(r, s, cfg.sample_rate, cfg.code_len, cfg.partitions, cfg.seed);
    let mut times = PhaseTimes {
        sampling: pre.sampling_time,
        hash_learning: pre.hash_learn_time,
        ..PhaseTimes::default()
    };

    // Phase 2: leafy index over S (ids needed for ranking output).
    let t = std::time::Instant::now();
    let dha = ha_core::DhaConfig {
        keep_leaf_ids: true,
        ..cfg.dha.clone()
    };
    let built = try_build_global_index(s.to_vec(), &pre, &dha, cfg.workers, cfg.partitions, faults)?;
    times.index_build = t.elapsed();
    let mut metrics = built.metrics;

    // Phase 3: probe with R.
    let t = std::time::Instant::now();
    let mut index = built.index;
    index.freeze();
    let cache = DistributedCache::broadcast_sized(
        index,
        cfg.partitions,
        0, // sized below, after the move
    );
    let index_bytes = index_broadcast_bytes(&cache.get(), true);
    let hasher = pre.hasher.clone();
    let partitioner = &pre.partitioner;
    let shared = cache.get();
    let code_len = shared.code_len() as u32;
    let config = crate::job_config("mrha-knn-join", cfg.workers, cfg.partitions);
    let result = try_run_job(
        &config,
        r.to_vec(),
        |(v, rid): VecTuple, emit| {
            use ha_hashing::SimilarityHasher;
            let code = hasher.hash(&v);
            emit(partitioner.assign(&code) as u32, (code, rid));
        },
        |&part, n| (part as usize).min(n - 1),
        |_part, tuples, out: &mut Vec<(TupleId, Vec<(TupleId, u32)>)>| {
            for (code, rid) in tuples {
                let near = knn_by_radius(k, code_len, |h| shared.search_with_distances(&code, h));
                out.push((rid, near));
            }
        },
        faults,
    )?;
    times.join = t.elapsed();
    metrics.absorb(&result.metrics);
    metrics.broadcast_bytes += index_bytes * cfg.partitions
        + (pre.hasher.approx_bytes() + pre.partitioner.shuffle_bytes()) * cfg.workers;
    metrics.job_name = "mrha-knn-join".to_string();

    let mut neighbours = result.outputs;
    neighbours.sort_by_key(|(rid, _)| *rid);
    Ok(KnnJoinOutcome {
        neighbours,
        metrics,
        times,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ha_bitcode::BinaryCode;
    use ha_datagen::{generate, DatasetProfile};
    use ha_hashing::SimilarityHasher;

    fn dataset(n: usize, seed: u64, base: u64) -> Vec<VecTuple> {
        generate(&DatasetProfile::tiny(10, 3), n, seed)
            .into_iter()
            .enumerate()
            .map(|(i, v)| (v, base + i as u64))
            .collect()
    }

    fn cfg() -> MrHaConfig {
        MrHaConfig {
            partitions: 4,
            workers: 4,
            ..MrHaConfig::default()
        }
    }

    /// Centralized Hamming-kNN oracle under the same learned hash.
    fn oracle(
        r: &[VecTuple],
        s: &[VecTuple],
        pre: &crate::preprocess::Preprocessed,
        k: usize,
    ) -> Vec<(u64, Vec<(u64, u32)>)> {
        let sc: Vec<(BinaryCode, u64)> =
            s.iter().map(|(v, id)| (pre.hasher.hash(v), *id)).collect();
        r.iter()
            .map(|(v, rid)| {
                let q = pre.hasher.hash(v);
                let mut all: Vec<(u64, u32)> =
                    sc.iter().map(|(c, id)| (*id, c.hamming(&q))).collect();
                all.sort_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)));
                all.truncate(k);
                (*rid, all)
            })
            .collect()
    }

    #[test]
    fn distributed_knn_join_matches_centralized_oracle() {
        let r = dataset(60, 101, 0);
        let s = dataset(200, 102, 10_000);
        let c = cfg();
        let outcome = try_mrha_knn_join(&r, &s, 5, &c, &FaultInjector::none()).unwrap();
        assert_eq!(outcome.neighbours.len(), 60);
        let pre = preprocess(&r, &s, c.sample_rate, c.code_len, c.partitions, c.seed);
        let want = oracle(&r, &s, &pre, 5);
        assert_eq!(outcome.neighbours, want);
    }

    #[test]
    fn k_larger_than_s_returns_all_of_s() {
        let r = dataset(10, 103, 0);
        let s = dataset(7, 104, 500);
        let outcome = try_mrha_knn_join(&r, &s, 20, &cfg(), &FaultInjector::none()).unwrap();
        for (_, neigh) in &outcome.neighbours {
            assert_eq!(neigh.len(), 7);
        }
    }

    #[test]
    fn k_zero_yields_one_empty_list_per_r_tuple() {
        let r = dataset(10, 107, 0);
        let s = dataset(30, 108, 500);
        let outcome = try_mrha_knn_join(&r, &s, 0, &cfg(), &FaultInjector::none()).unwrap();
        let want: Vec<(u64, Vec<(u64, u32)>)> = (0..10).map(|rid| (rid, Vec::new())).collect();
        assert_eq!(outcome.neighbours, want);
    }

    #[test]
    fn metrics_cover_all_phases() {
        let r = dataset(50, 105, 0);
        let s = dataset(80, 106, 500);
        let outcome = try_mrha_knn_join(&r, &s, 3, &cfg(), &FaultInjector::none()).unwrap();
        assert!(outcome.metrics.broadcast_bytes > 0);
        assert!(outcome.metrics.shuffle_bytes > 0);
        assert!(outcome.times.total() > std::time::Duration::ZERO);
    }
}
