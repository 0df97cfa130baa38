//! PGBJ — parallel exact kNN-join (Lu, Shen, Chen, Ooi — VLDB 2012; the
//! paper's reference \[10\] and the exact baseline of Figures 7 and 9).
//!
//! Pivot-based Voronoi partitioning in the **original vector space**:
//!
//! 1. sample `p` pivots; every tuple belongs to the cell of its nearest
//!    pivot (one reducer per cell group);
//! 2. a tuple must additionally be **replicated** into every cell that
//!    could contain one of its k nearest neighbours. With a bound `θ` on
//!    the kNN radius, the triangle inequality gives the sufficient test
//!    `dist(t, pivot_c) ≤ dist(t, pivot_home) + 2θ`;
//! 3. each reducer solves the kNN-join of its home tuples against
//!    everything it received, exactly, by scan.
//!
//! The defining cost — which Figure 7 plots two orders of magnitude above
//! the code-based joins — is that *raw d-dimensional vectors* are
//! shuffled, with a replication factor on top.
//!
//! `θ` is estimated from sampled kNN distances (× a safety factor): the
//! result is exact whenever the estimate really bounds the kNN radius,
//! which the tests verify on the evaluation workloads.

use ha_core::TupleId;
use ha_knn::exact::sq_euclidean;
use ha_mapreduce::{
    try_run_job, DistributedCache, FaultInjector, JobError, JobMetrics, ShuffleBytes,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::VecTuple;

/// PGBJ configuration.
#[derive(Clone, Debug)]
pub struct PgbjConfig {
    /// Number of Voronoi pivots (= reduce partitions).
    pub num_pivots: usize,
    /// Worker threads.
    pub workers: usize,
    /// Neighbours per tuple.
    pub k: usize,
    /// Safety factor on the sampled kNN-radius estimate.
    pub theta_safety: f64,
    /// Sample size for the θ estimate.
    pub theta_sample: usize,
    /// Seed for pivot/θ sampling.
    pub seed: u64,
}

impl Default for PgbjConfig {
    fn default() -> Self {
        PgbjConfig {
            num_pivots: 8,
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            k: 10,
            theta_safety: 1.5,
            theta_sample: 64,
            seed: 42,
        }
    }
}

/// Result of a PGBJ self-kNN-join.
pub struct PgbjOutcome {
    /// For each tuple id, its `k` nearest neighbour ids (ascending
    /// distance, ties by id).
    pub neighbours: Vec<(TupleId, Vec<TupleId>)>,
    /// Job metrics (the raw-vector shuffle dominates).
    pub metrics: JobMetrics,
    /// The θ bound used.
    pub theta: f64,
    /// Mean number of cells each tuple was sent to (≥ 1).
    pub replication_factor: f64,
}

/// Runs the PGBJ exact self-kNN-join under a fault injector, surfacing
/// unrecoverable task or storage failures as a typed [`JobError`].
pub fn try_pgbj_self_knn_join(
    data: &[VecTuple],
    cfg: &PgbjConfig,
    faults: &FaultInjector,
) -> Result<PgbjOutcome, JobError> {
    assert!(!data.is_empty(), "empty input");
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Pivot selection (sampled from the data, as in PGBJ's random
    // strategy).
    let num_pivots = cfg.num_pivots.min(data.len()).max(1);
    let pivots: Vec<Vec<f64>> = (0..num_pivots)
        .map(|_| data[rng.gen_range(0..data.len())].0.clone())
        .collect();

    // θ: sampled kNN radius × safety.
    let theta = estimate_theta(data, cfg, &mut rng);

    // Pivots travel via the distributed cache.
    let pivot_bytes: usize = pivots.iter().map(|p| p.shuffle_bytes()).sum();
    let cache = DistributedCache::broadcast_sized(pivots, num_pivots, pivot_bytes);
    let pivots_shared = cache.get();

    let config = crate::job_config("pgbj-self-knn-join", cfg.workers, num_pivots);
    let k = cfg.k;
    let pivots_map = pivots_shared.clone();
    let pivots_red = pivots_shared.clone();
    let mut replicas = 0usize;
    let result = try_run_job(
        &config,
        data.to_vec(),
        // Map: emit the tuple to its home cell and every cell within the
        // 2θ bound. The raw vector crosses the shuffle each time.
        |(v, id): VecTuple, emit| {
            let dists: Vec<f64> = pivots_map
                .iter()
                .map(|p| sq_euclidean(p, &v).sqrt())
                .collect();
            let home = argmin(&dists);
            for (cell, &d) in dists.iter().enumerate() {
                if cell == home || d <= dists[home] + 2.0 * theta {
                    emit(cell as u32, (v.clone(), id));
                }
            }
        },
        |&cell, n| (cell as usize).min(n - 1),
        // Reduce: exact kNN of the cell's *home* tuples over everything
        // received.
        move |&cell, tuples: Vec<VecTuple>, out: &mut Vec<(TupleId, Vec<TupleId>)>| {
            for (v, id) in &tuples {
                let dists: Vec<f64> = pivots_red
                    .iter()
                    .map(|p| sq_euclidean(p, v).sqrt())
                    .collect();
                if argmin(&dists) != cell as usize {
                    continue; // replica: candidate only
                }
                let mut near: Vec<(f64, TupleId)> = tuples
                    .iter()
                    .filter(|(_, oid)| oid != id)
                    .map(|(ov, oid)| (sq_euclidean(ov, v).sqrt(), *oid))
                    .collect();
                near.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                near.truncate(k);
                out.push((*id, near.into_iter().map(|(_, oid)| oid).collect()));
            }
        },
        faults,
    )?;
    replicas += result.metrics.reduce_input_records();

    let mut metrics = result.metrics;
    metrics.job_name = "pgbj-pipeline".to_string();
    metrics.broadcast_bytes += cache.traffic_bytes();
    let mut neighbours = result.outputs;
    neighbours.sort_by_key(|(id, _)| *id);
    Ok(PgbjOutcome {
        neighbours,
        metrics,
        theta,
        replication_factor: replicas as f64 / data.len() as f64,
    })
}

/// Sampled kNN-radius bound: for a sample of tuples, the exact k-th NN
/// distance over the full dataset; θ = max × safety.
fn estimate_theta(data: &[VecTuple], cfg: &PgbjConfig, rng: &mut StdRng) -> f64 {
    let sample = cfg.theta_sample.min(data.len());
    let mut max_radius = 0.0f64;
    for _ in 0..sample {
        let (v, id) = &data[rng.gen_range(0..data.len())];
        let mut dists: Vec<f64> = data
            .iter()
            .filter(|(_, oid)| oid != id)
            .map(|(ov, _)| sq_euclidean(ov, v))
            .collect();
        let Some(kth) = cfg.k.min(dists.len()).checked_sub(1) else {
            continue; // no other tuple, or k = 0: no radius to bound
        };
        dists.select_nth_unstable_by(kth, f64::total_cmp);
        max_radius = max_radius.max(dists[kth].sqrt());
    }
    max_radius * cfg.theta_safety
}

fn argmin(xs: &[f64]) -> usize {
    xs.iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .expect("non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ha_datagen::{generate, DatasetProfile};
    use ha_knn::exact::exact_knn;

    fn dataset(n: usize, seed: u64) -> Vec<VecTuple> {
        generate(&DatasetProfile::tiny(8, 3), n, seed)
            .into_iter()
            .enumerate()
            .map(|(i, v)| (v, i as u64))
            .collect()
    }

    #[test]
    fn exact_on_evaluation_workload() {
        let data = dataset(300, 71);
        let cfg = PgbjConfig {
            num_pivots: 4,
            workers: 4,
            k: 5,
            ..PgbjConfig::default()
        };
        let outcome = try_pgbj_self_knn_join(&data, &cfg, &FaultInjector::none()).unwrap();
        assert_eq!(outcome.neighbours.len(), 300, "one entry per tuple");
        // Compare against the oracle for a sample of tuples.
        for (id, neigh) in outcome.neighbours.iter().step_by(23) {
            let (v, _) = &data[*id as usize];
            let mut truth: Vec<TupleId> = exact_knn(
                &data
                    .iter()
                    .filter(|(_, oid)| oid != id)
                    .cloned()
                    .collect::<Vec<_>>(),
                v,
                5,
            )
            .iter()
            .map(|n| n.id)
            .collect();
            truth.sort_unstable();
            let mut got = neigh.clone();
            got.sort_unstable();
            assert_eq!(got, truth, "tuple {id}");
        }
    }

    #[test]
    fn replication_factor_above_one() {
        let data = dataset(200, 72);
        let outcome = try_pgbj_self_knn_join(
            &data,
            &PgbjConfig {
                num_pivots: 6,
                workers: 4,
                k: 10,
                ..PgbjConfig::default()
            },
            &FaultInjector::none(),
        )
        .unwrap();
        assert!(outcome.replication_factor >= 1.0);
        assert!(outcome.theta > 0.0);
    }

    #[test]
    fn shuffle_cost_scales_with_dimension() {
        // The hallmark of PGBJ: shuffle ∝ n·d·8 × replication.
        let data = dataset(150, 73);
        let outcome = try_pgbj_self_knn_join(
            &data,
            &PgbjConfig {
                num_pivots: 4,
                workers: 4,
                k: 3,
                ..PgbjConfig::default()
            },
            &FaultInjector::none(),
        )
        .unwrap();
        assert!(
            outcome.metrics.shuffle_bytes >= 150 * 8 * 8,
            "raw vectors must cross the shuffle"
        );
    }

    #[test]
    fn k_zero_yields_one_empty_list_per_tuple() {
        let data = dataset(40, 75);
        let cfg = PgbjConfig { num_pivots: 3, workers: 2, k: 0, ..PgbjConfig::default() };
        let outcome = try_pgbj_self_knn_join(&data, &cfg, &FaultInjector::none()).unwrap();
        let want: Vec<(TupleId, Vec<TupleId>)> = (0..40).map(|id| (id, Vec::new())).collect();
        assert_eq!(outcome.neighbours, want);
    }

    #[test]
    fn single_pivot_degenerates_to_central_scan() {
        let data = dataset(60, 74);
        let outcome = try_pgbj_self_knn_join(
            &data,
            &PgbjConfig {
                num_pivots: 1,
                workers: 2,
                k: 3,
                ..PgbjConfig::default()
            },
            &FaultInjector::none(),
        )
        .unwrap();
        assert_eq!(outcome.neighbours.len(), 60);
        assert!((outcome.replication_factor - 1.0).abs() < 1e-9);
    }
}
