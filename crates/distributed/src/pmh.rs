//! PMH — Parallel Hamming-join via Manku's multi-hash tables (§6.2's baseline;
//! Manku et al.'s MapReduce extension described in §2):
//!
//! > "\[4\] extends the sequential approach to MapReduce by broadcasting
//! > Table R into each server, then applying a sequential algorithm
//! > between R and S. This approach is subject to a very heavy shuffling
//! > cost and servers cannot work in a load-balanced way when data is
//! > skewed."
//!
//! Costs reproduced here, per the §5.4 formula `O(mNd + nd)`:
//! the whole of R — raw `d`-dimensional vectors — is broadcast to every
//! one of the `N` servers (`m·N·d`), and S is shuffled as raw vectors
//! (`n·d`) because hashing happens server-side against the broadcast copy.

use ha_core::select::hamming_join;
use ha_core::{SegmentIndex, SegmentScheme, TupleId};
use ha_mapreduce::{run_job_with_faults, DistributedCache, FaultInjector, JobError, ShuffleBytes};

use crate::pipeline::{JoinOutcome, MrHaConfig, PhaseTimes};
use crate::preprocess::preprocess;
use crate::JoinOption;
use crate::VecTuple;

/// Runs the PMH baseline join of R ⋈ S with `num_tables` hash tables
/// (PMH-10 in the paper's figures), panicking on job failure (wrapper
/// over [`try_pmh_hamming_join`]).
pub fn pmh_hamming_join(
    r: &[VecTuple],
    s: &[VecTuple],
    num_tables: usize,
    cfg: &MrHaConfig,
) -> JoinOutcome {
    try_pmh_hamming_join(r, s, num_tables, cfg, &FaultInjector::none())
        .unwrap_or_else(|e| panic!("job failed: {e}"))
}

/// [`pmh_hamming_join`] under a fault injector, surfacing unrecoverable
/// task or storage failures as a typed [`JobError`].
pub fn try_pmh_hamming_join(
    r: &[VecTuple],
    s: &[VecTuple],
    num_tables: usize,
    cfg: &MrHaConfig,
    faults: &FaultInjector,
) -> Result<JoinOutcome, JobError> {
    // PMH still needs a hash function; it is learned the same way but no
    // pivots are used — S is hash-partitioned (the source of PMH's skew
    // sensitivity).
    let pre = preprocess(r, s, cfg.sample_rate, cfg.code_len, cfg.partitions, cfg.seed);
    let mut times = PhaseTimes {
        sampling: pre.sampling_time,
        hash_learning: pre.hash_learn_time,
        ..PhaseTimes::default()
    };

    // Broadcast ALL of R — raw vectors — to every server.
    let r_bytes: usize = r.iter().map(|t| t.shuffle_bytes()).sum();
    let cache = DistributedCache::broadcast_sized(r.to_vec(), cfg.partitions, r_bytes);

    let t = std::time::Instant::now();
    let hasher = pre.hasher.clone();
    let shared_r = cache.get();
    let config = crate::job_config("pmh-join", cfg.workers, cfg.partitions);
    let h = cfg.h;
    let code_len = cfg.code_len;
    let partitions = cfg.partitions as u64;
    let result = run_job_with_faults(
        &config,
        s.to_vec(),
        // Map: route the raw S tuple to a server (no pivots — plain
        // round-robin on the id, which is PMH's skew weakness). The key IS
        // the server so each reducer group is one server's whole slice,
        // and the *vector* crosses the shuffle.
        move |(v, sid): VecTuple, emit| {
            emit(sid % partitions, (v, sid));
        },
        |&key, n| (key as usize) % n,
        // Reduce: each server builds Manku's multi-hash tables over the
        // broadcast R (hashed locally), then joins its slice of S.
        |_key, tuples: Vec<VecTuple>, out: &mut Vec<(TupleId, TupleId)>| {
            use ha_hashing::SimilarityHasher;
            let index = SegmentIndex::build(
                SegmentScheme::Manku,
                code_len,
                num_tables,
                shared_r.iter().map(|(v, rid)| (hasher.hash(v), *rid)),
            );
            let probes: Vec<_> = tuples
                .iter()
                .map(|(v, sid)| (hasher.hash(v), *sid))
                .collect();
            // hamming_join yields (probe_id, index_id) = (s, r); the
            // outcome convention is (r, s).
            for (sid, rid) in hamming_join(&index, &probes, h) {
                out.push((rid, sid));
            }
        },
        faults,
    )?;
    times.join = t.elapsed();

    let mut metrics = result.metrics;
    metrics.job_name = "pmh-pipeline".to_string();
    metrics.broadcast_bytes += cache.traffic_bytes() + pre.hasher.approx_bytes() * cfg.workers;
    let mut pairs: Vec<(TupleId, TupleId)> = result.outputs;
    pairs.sort_unstable();
    Ok(JoinOutcome {
        pairs,
        metrics,
        times,
        option_used: JoinOption::A,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::mrha_hamming_join;
    use ha_datagen::{generate, DatasetProfile};

    fn dataset(n: usize, seed: u64, base: u64) -> Vec<VecTuple> {
        generate(&DatasetProfile::tiny(10, 3), n, seed)
            .into_iter()
            .enumerate()
            .map(|(i, v)| (v, base + i as u64))
            .collect()
    }

    /// Overlapping R/S (same generator seed) so the join is guaranteed to
    /// be non-empty — an agreement assertion over empty sets proves
    /// nothing.
    fn overlapping(n_r: usize, n_s: usize, seed: u64) -> (Vec<VecTuple>, Vec<VecTuple>) {
        let r: Vec<VecTuple> = generate(&DatasetProfile::tiny(10, 3), n_r, seed)
            .into_iter()
            .enumerate()
            .map(|(i, v)| (v, i as u64))
            .collect();
        let s: Vec<VecTuple> = generate(&DatasetProfile::tiny(10, 3), n_s, seed)
            .into_iter()
            .enumerate()
            .map(|(i, v)| (v, 1_000_000 + i as u64))
            .collect();
        (r, s)
    }

    fn cfg() -> MrHaConfig {
        MrHaConfig {
            partitions: 4,
            workers: 4,
            ..MrHaConfig::default()
        }
    }

    #[test]
    fn pmh_agrees_with_mrha_within_guarantee() {
        // With h = 3 and 4+ tables, PMH is complete, so both pipelines
        // must produce identical pairs under the same learned hash (same
        // seed ⇒ same hasher). Overlapping inputs guarantee the agreement
        // is over a non-trivial result set.
        let (r, s) = overlapping(100, 120, 61);
        let c = cfg();
        let pmh = pmh_hamming_join(&r, &s, 10, &c);
        let mrha = mrha_hamming_join(&r, &s, &c);
        assert!(
            pmh.pairs.len() >= 100,
            "workload must produce pairs (got {})",
            pmh.pairs.len()
        );
        assert_eq!(pmh.pairs, mrha.pairs);
        // Orientation check: every pair is (r_id, s_id).
        for (rid, sid) in &pmh.pairs {
            assert!(*rid < 1_000_000 && *sid >= 1_000_000, "({rid},{sid})");
        }
    }

    #[test]
    fn pmh_broadcast_dwarfs_mrha() {
        let r = dataset(300, 63, 0);
        let s = dataset(300, 64, 10_000);
        let c = cfg();
        let pmh = pmh_hamming_join(&r, &s, 10, &c);
        let mrha = mrha_hamming_join(&r, &s, &c);
        // Even at this toy scale (300 tuples, 10-d) PMH moves a multiple
        // of MRHA's bytes; the gap widens with n and d (Figure 7).
        assert!(
            pmh.metrics.total_traffic_bytes() > 2 * mrha.metrics.total_traffic_bytes(),
            "PMH {}B vs MRHA {}B",
            pmh.metrics.total_traffic_bytes(),
            mrha.metrics.total_traffic_bytes()
        );
    }

    #[test]
    fn pmh_shuffles_raw_vectors() {
        let r = dataset(50, 65, 0);
        let s = dataset(80, 66, 1_000);
        let pmh = pmh_hamming_join(&r, &s, 4, &cfg());
        // Shuffle ≥ n·d·8 bytes (raw S vectors) — far beyond code bytes.
        assert!(pmh.metrics.shuffle_bytes >= 80 * 10 * 8);
    }
}
