//! Distributed batch Hamming-select — the title operation, at cluster
//! scale.
//!
//! §5 details the join; the select distributes with the same machinery:
//! dataset S is hashed and range-partitioned by the sampled pivots, each
//! reducer bulk-loads a **local HA-Index** over its slice, and the query
//! batch travels to every reducer through the distributed cache (queries
//! are tiny — codes — so broadcasting them is the cheap direction).
//! Each reducer answers every query against its local index; the driver
//! concatenates per-partition hits. The union over partitions is exact
//! because the partitions tile the dataset.

use ha_bitcode::BinaryCode;
use ha_core::dynamic::DynamicHaIndex;
use ha_core::planner::{PlanConfig, PlannedIndex};
use ha_core::{HammingIndex, TupleId};
use ha_mapreduce::{try_run_job, DistributedCache, FaultInjector, JobError, JobMetrics};

use crate::pipeline::{MrHaConfig, PhaseTimes};
use crate::preprocess::preprocess;
use crate::VecTuple;

/// Result of a distributed batch select.
pub struct BatchSelectOutcome {
    /// Per query (by position in the input batch), the qualifying ids,
    /// sorted.
    pub hits: Vec<Vec<TupleId>>,
    /// Accumulated metrics.
    pub metrics: JobMetrics,
    /// Phase timings.
    pub times: PhaseTimes,
}

/// Runs Hamming-select for a batch of query vectors against dataset `s`
/// under a fault injector, surfacing unrecoverable task or storage
/// failures as a typed [`JobError`].
pub fn try_mrha_batch_select(
    s: &[VecTuple],
    queries: &[Vec<f64>],
    cfg: &MrHaConfig,
    faults: &FaultInjector,
) -> Result<BatchSelectOutcome, JobError> {
    if queries.is_empty() {
        return Ok(BatchSelectOutcome {
            hits: Vec::new(),
            metrics: JobMetrics::default(),
            times: PhaseTimes::default(),
        });
    }
    // Phase 1 (sample only S; queries follow the same hash).
    let pre = preprocess(s, &[], cfg.sample_rate, cfg.code_len, cfg.partitions, cfg.seed);
    let mut times = PhaseTimes {
        sampling: pre.sampling_time,
        hash_learning: pre.hash_learn_time,
        ..PhaseTimes::default()
    };

    // Hash the query batch once, driver-side, and broadcast it.
    let query_codes: Vec<BinaryCode> = {
        use ha_hashing::SimilarityHasher;
        queries.iter().map(|v| pre.hasher.hash(v)).collect()
    };
    let query_bytes: usize = query_codes.iter().map(|c| 2 + c.len().div_ceil(8)).sum();
    let cache = DistributedCache::broadcast_sized(query_codes, cfg.partitions, query_bytes);
    let shared_queries = cache.get();

    // One job: partition S, build the local index per reducer, answer the
    // whole batch against it.
    let t = std::time::Instant::now();
    let hasher = pre.hasher.clone();
    let partitioner = &pre.partitioner;
    let dha = cfg.dha.clone();
    let h = cfg.h;
    let code_len = cfg.code_len;
    let config = crate::job_config("mrha-batch-select", cfg.workers, cfg.partitions);
    let result = try_run_job(
        &config,
        s.to_vec(),
        |(v, sid): VecTuple, emit| {
            use ha_hashing::SimilarityHasher;
            let code = hasher.hash(&v);
            emit(partitioner.assign(&code) as u32, (code, sid));
        },
        |&part, n| (part as usize).min(n - 1),
        |_part, tuples, out: &mut Vec<(u32, TupleId)>| {
            // Each reducer answers the whole query batch off one build;
            // the planned index freezes the flat snapshot up front and
            // routes every probe (flat vs MIH vs arena vs scan) by the
            // fitted cost model. A leafless config cannot answer with ids
            // at all, so that mode keeps the plain local HA-Index.
            if dha.keep_leaf_ids {
                let plan = PlanConfig {
                    dha: dha.clone(),
                    model: ha_core::CostModel::default(),
                };
                let local = PlannedIndex::build_with(code_len, tuples, plan);
                for (qi, q) in shared_queries.iter().enumerate() {
                    for id in local.search(q, h) {
                        out.push((qi as u32, id));
                    }
                }
            } else {
                let mut local = DynamicHaIndex::build_with(tuples, dha.clone());
                local.freeze();
                for (qi, q) in shared_queries.iter().enumerate() {
                    for id in local.search(q, h) {
                        out.push((qi as u32, id));
                    }
                }
            }
        },
        faults,
    )?;
    times.join = t.elapsed();

    let mut metrics = result.metrics;
    metrics.job_name = "mrha-batch-select".to_string();
    metrics.broadcast_bytes += cache.traffic_bytes()
        + (pre.hasher.approx_bytes() + pre.partitioner.shuffle_bytes()) * cfg.workers;

    let mut hits: Vec<Vec<TupleId>> = vec![Vec::new(); queries.len()];
    for (qi, id) in result.outputs {
        hits[qi as usize].push(id);
    }
    for h in &mut hits {
        h.sort_unstable();
    }
    Ok(BatchSelectOutcome {
        hits,
        metrics,
        times,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ha_datagen::{generate, DatasetProfile};
    use ha_hashing::SimilarityHasher;

    fn dataset(n: usize, seed: u64) -> Vec<VecTuple> {
        generate(&DatasetProfile::tiny(10, 3), n, seed)
            .into_iter()
            .enumerate()
            .map(|(i, v)| (v, i as u64))
            .collect()
    }

    fn cfg() -> MrHaConfig {
        MrHaConfig {
            partitions: 4,
            workers: 4,
            ..MrHaConfig::default()
        }
    }

    #[test]
    fn batch_select_matches_centralized_oracle() {
        let s = dataset(300, 111);
        let queries: Vec<Vec<f64>> = s.iter().step_by(23).map(|(v, _)| v.clone()).collect();
        let c = cfg();
        let outcome = try_mrha_batch_select(&s, &queries, &c, &FaultInjector::none()).unwrap();
        assert_eq!(outcome.hits.len(), queries.len());

        let pre = preprocess(&s, &[], c.sample_rate, c.code_len, c.partitions, c.seed);
        let codes: Vec<(ha_bitcode::BinaryCode, u64)> =
            s.iter().map(|(v, id)| (pre.hasher.hash(v), *id)).collect();
        for (qi, qv) in queries.iter().enumerate() {
            let q = pre.hasher.hash(qv);
            let want = ha_core::testkit::oracle_select(&codes, &q, c.h);
            assert_eq!(outcome.hits[qi], want, "query {qi}");
        }
    }

    #[test]
    fn every_query_finds_itself() {
        let s = dataset(200, 112);
        let queries: Vec<Vec<f64>> = s.iter().take(10).map(|(v, _)| v.clone()).collect();
        let outcome = try_mrha_batch_select(&s, &queries, &cfg(), &FaultInjector::none()).unwrap();
        for (qi, hits) in outcome.hits.iter().enumerate() {
            assert!(
                hits.contains(&(qi as u64)),
                "query {qi} must match its own tuple"
            );
        }
    }

    #[test]
    fn empty_batch_is_ok_with_no_hits() {
        let outcome = try_mrha_batch_select(&dataset(50, 114), &[], &cfg(), &FaultInjector::none())
            .expect("an empty batch is not an error");
        assert!(outcome.hits.is_empty());
        assert_eq!(outcome.metrics.shuffle_bytes, 0, "nothing ran");
    }

    #[test]
    fn broadcast_is_queries_not_data() {
        let s = dataset(500, 113);
        let queries: Vec<Vec<f64>> = s.iter().take(5).map(|(v, _)| v.clone()).collect();
        let outcome = try_mrha_batch_select(&s, &queries, &cfg(), &FaultInjector::none()).unwrap();
        // Query broadcast is tiny: 5 codes × 6B × 4 partitions plus the
        // hasher; far below shipping the dataset.
        assert!(outcome.metrics.broadcast_bytes < 100_000);
        assert!(outcome.metrics.shuffle_bytes > 0);
    }
}
