//! End-to-end driver: preprocess → build global index → join, with
//! per-phase wall-clock and pipeline-total traffic (the quantities behind
//! Figures 7, 9 and 10a).

use std::time::{Duration, Instant};

use ha_core::dynamic::DhaConfig;
use ha_core::TupleId;
use ha_mapreduce::{DfsError, FaultInjector, JobError, JobMetrics};

use crate::global_index::try_build_global_index;
use crate::join::{probe_option_a, probe_side, try_join_option_a, try_join_option_b, JoinOption};
use crate::preprocess::preprocess;
use crate::VecTuple;

/// Configuration of the MRHA pipeline.
#[derive(Clone, Debug)]
pub struct MrHaConfig {
    /// Number of partitions / reducers `N`.
    pub partitions: usize,
    /// Worker threads per job.
    pub workers: usize,
    /// Learned code length `L`.
    pub code_len: usize,
    /// Preprocessing sample rate (Figure 10's knob).
    pub sample_rate: f64,
    /// Hamming-join threshold `h`.
    pub h: u32,
    /// Join realization (A, B, or Auto).
    pub option: JoinOption,
    /// HA-Index build parameters.
    pub dha: DhaConfig,
    /// When `option` is Auto: switch to Option B once |R| exceeds this
    /// ("if dataset R is big […] storage of leaf nodes dominates").
    pub auto_option_b_threshold: usize,
    /// Seed for sampling determinism.
    pub seed: u64,
}

impl Default for MrHaConfig {
    fn default() -> Self {
        MrHaConfig {
            partitions: 8,
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            code_len: 32,
            sample_rate: 0.1,
            h: 3,
            option: JoinOption::Auto,
            dha: DhaConfig::default(),
            auto_option_b_threshold: 50_000,
            seed: 42,
        }
    }
}

/// Wall-clock per pipeline phase (the stacked series of Figure 10a).
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimes {
    /// Sampling time.
    pub sampling: Duration,
    /// Hash-function learning + pivot selection.
    pub hash_learning: Duration,
    /// Phase-2 job: partition + H-Build + merge.
    pub index_build: Duration,
    /// Phase-3 job(s): probe (+ post-join for Option B).
    pub join: Duration,
}

impl PhaseTimes {
    /// Total pipeline wall-clock.
    pub fn total(&self) -> Duration {
        self.sampling + self.hash_learning + self.index_build + self.join
    }
}

/// Everything a distributed join run reports.
pub struct JoinOutcome {
    /// All qualifying `(r_id, s_id)` pairs, sorted.
    pub pairs: Vec<(TupleId, TupleId)>,
    /// Accumulated metrics over all jobs of the pipeline.
    pub metrics: JobMetrics,
    /// Per-phase timings.
    pub times: PhaseTimes,
    /// Which option actually ran (resolves Auto).
    pub option_used: JoinOption,
}

/// Runs the full 3-phase MRHA Hamming-join of R ⋈ S under a fault
/// injector, surfacing unrecoverable failures as a typed [`JobError`].
/// Every job of the pipeline consults the same injector.
///
/// ```
/// use ha_datagen::{generate, DatasetProfile};
/// use ha_distributed::pipeline::{try_mrha_hamming_join, MrHaConfig};
/// use ha_mapreduce::FaultInjector;
///
/// let r: Vec<(Vec<f64>, u64)> = generate(&DatasetProfile::tiny(8, 3), 60, 1)
///     .into_iter().enumerate().map(|(i, v)| (v, i as u64)).collect();
/// let s: Vec<(Vec<f64>, u64)> = generate(&DatasetProfile::tiny(8, 3), 80, 2)
///     .into_iter().enumerate().map(|(i, v)| (v, 1000 + i as u64)).collect();
///
/// let cfg = MrHaConfig { partitions: 2, workers: 2, ..MrHaConfig::default() };
/// let outcome = try_mrha_hamming_join(&r, &s, &cfg, &FaultInjector::none())?;
/// // Pairs are (r_id, s_id), sorted; shuffle traffic was measured.
/// assert!(outcome.pairs.iter().all(|&(ri, si)| ri < 1000 && si >= 1000));
/// assert!(outcome.metrics.shuffle_bytes > 0);
/// # Ok::<(), ha_mapreduce::JobError>(())
/// ```
pub fn try_mrha_hamming_join(
    r: &[VecTuple],
    s: &[VecTuple],
    cfg: &MrHaConfig,
    faults: &FaultInjector,
) -> Result<JoinOutcome, JobError> {
    let option = match cfg.option {
        JoinOption::Auto => {
            if r.len() > cfg.auto_option_b_threshold {
                JoinOption::B
            } else {
                JoinOption::A
            }
        }
        o => o,
    };
    let _pipeline_span = ha_obs::span_labeled("pipeline.mrha_join", || format!("{option:?}"));

    // Phase 1.
    let pre = {
        let _span = ha_obs::span("pipeline.preprocess");
        preprocess(r, s, cfg.sample_rate, cfg.code_len, cfg.partitions, cfg.seed)
    };
    let mut times = PhaseTimes {
        sampling: pre.sampling_time,
        hash_learning: pre.hash_learn_time,
        ..PhaseTimes::default()
    };

    // Phase 2: the index is leafless under Option B.
    let dha = DhaConfig {
        keep_leaf_ids: option == JoinOption::A,
        ..cfg.dha.clone()
    };
    let t = Instant::now();
    let built = {
        let _span = ha_obs::span("pipeline.index_build");
        try_build_global_index(r.to_vec(), &pre, &dha, cfg.workers, cfg.partitions, faults)
    }?;
    times.index_build = t.elapsed();
    let mut metrics = built.metrics;

    // Phase 3.
    let t = Instant::now();
    let phase = {
        let _span = ha_obs::span("pipeline.join");
        match option {
            JoinOption::A => try_join_option_a(
                &built.index,
                s.to_vec(),
                &pre,
                cfg.h,
                cfg.workers,
                cfg.partitions,
                faults,
            ),
            JoinOption::B => try_join_option_b(
                &built.index,
                r,
                s.to_vec(),
                &pre,
                cfg.h,
                cfg.workers,
                cfg.partitions,
                faults,
            ),
            JoinOption::Auto => unreachable!("resolved above"),
        }
    }?;
    times.join = t.elapsed();
    metrics.absorb(&phase.metrics);
    metrics.job_name = "mrha-pipeline".to_string();

    Ok(JoinOutcome {
        pairs: phase.pairs,
        metrics,
        times,
        option_used: option,
    })
}

/// The Figure 5 pipeline with the DFS in the loop: inputs are read from
/// `r_path`/`s_path`, the serialized global HA-Index is written to (and
/// re-read from) the DFS between Phases 2 and 3 — exercising the real
/// wire format — and the result pairs land in `out_path`.
///
/// This path always runs Option A (`option_used` says so), so the index
/// is built with its leaf ids whatever `cfg.dha.keep_leaf_ids` says — a
/// leafless index would leave Option A's reducers no ids to emit.
///
/// Every DFS hop goes through the typed `try_*` read path: replica loss
/// and corruption the store can mask are invisible here, and
/// unrecoverable loss (or a global-index blob whose checksum footer fails
/// to verify) surfaces as [`JobError::StorageFailed`] — the pipeline
/// fails closed, never on a panic and never on silently-corrupt data.
pub fn try_mrha_hamming_join_on_dfs(
    dfs: &ha_mapreduce::InMemoryDfs,
    r_path: &str,
    s_path: &str,
    out_path: &str,
    cfg: &MrHaConfig,
    faults: &FaultInjector,
) -> Result<JoinOutcome, JobError> {
    use crate::preprocess::preprocess;
    use ha_core::dynamic::DynamicHaIndex;

    let _pipeline_span =
        ha_obs::span_labeled("pipeline.mrha_join_on_dfs", || out_path.to_string());

    let (r, s) = {
        let _span = ha_obs::span("pipeline.input_read");
        let r: Vec<VecTuple> = dfs.try_get(r_path)?;
        let s: Vec<VecTuple> = dfs.try_get(s_path)?;
        (r, s)
    };

    // Phase 1.
    let pre = {
        let _span = ha_obs::span("pipeline.preprocess");
        preprocess(&r, &s, cfg.sample_rate, cfg.code_len, cfg.partitions, cfg.seed)
    };
    let mut times = PhaseTimes {
        sampling: pre.sampling_time,
        hash_learning: pre.hash_learn_time,
        ..PhaseTimes::default()
    };

    // Phase 2, then persist the global index blob (Figure 5's DFS hop).
    let dha = DhaConfig {
        keep_leaf_ids: true,
        ..cfg.dha.clone()
    };
    let t = Instant::now();
    let index_path = format!("{out_path}.ha-index");
    let mut metrics = {
        let _span = ha_obs::span("pipeline.index_build");
        let built = try_build_global_index(r, &pre, &dha, cfg.workers, cfg.partitions, faults)?;
        dfs.try_put_with_blocks(&index_path, vec![built.index.to_bytes()], 1, 1)?;
        built.metrics
    };
    times.index_build = t.elapsed();

    // Phase 3 reads the blob back — the join runs on the *decoded* index,
    // so any serializer defect breaks the join, not just a unit test.
    let t = Instant::now();
    let phase = {
        let _span = ha_obs::span("pipeline.join");
        let blob: Vec<u8> = dfs
            .try_get::<Vec<u8>>(&index_path)?
            .pop()
            .ok_or(DfsError::FileNotFound {
                path: index_path.clone(),
            })?;
        let probe = {
            let _span = ha_obs::span("distributed.join.probe_setup");
            // A decode failure here means the blob rotted *between* the
            // block checksum verifying and H-Search consuming it — the
            // wire format's own footer is the last line of defense.
            let index = DynamicHaIndex::from_bytes(&blob, dha).map_err(|_| {
                JobError::StorageFailed(DfsError::ChecksumMismatch {
                    path: index_path.clone(),
                    block: 0,
                })
            })?;
            probe_side(index, cfg.h)
        };
        // The blob *is* the shipped HA-Index: its length is the
        // `to_bytes()` length the in-memory path charges.
        probe_option_a(probe, blob.len(), s, &pre, cfg.h, cfg.workers, cfg.partitions, faults)?
    };
    times.join = t.elapsed();
    metrics.absorb(&phase.metrics);
    metrics.job_name = "mrha-pipeline-dfs".to_string();

    {
        let _span = ha_obs::span("pipeline.output_write");
        dfs.try_put_with_blocks(out_path, phase.pairs.clone(), 4096, 16)?;
    }
    Ok(JoinOutcome {
        pairs: phase.pairs,
        metrics,
        times,
        option_used: JoinOption::A,
    })
}

/// Self-join: R ⋈ R with mirror pairs and self-matches removed (the §6.2
/// Self-Hamming-join workload), under a fault injector.
pub fn try_mrha_self_join(
    data: &[VecTuple],
    cfg: &MrHaConfig,
    faults: &FaultInjector,
) -> Result<JoinOutcome, JobError> {
    let mut outcome = try_mrha_hamming_join(data, data, cfg, faults)?;
    outcome.pairs.retain(|(a, b)| a < b);
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ha_core::select::nested_loop_join;
    use ha_datagen::{generate, DatasetProfile};
    use ha_hashing::SimilarityHasher;

    fn dataset(n: usize, seed: u64, base: u64) -> Vec<VecTuple> {
        generate(&DatasetProfile::tiny(10, 3), n, seed)
            .into_iter()
            .enumerate()
            .map(|(i, v)| (v, base + i as u64))
            .collect()
    }

    fn small_cfg() -> MrHaConfig {
        MrHaConfig {
            partitions: 4,
            workers: 4,
            ..MrHaConfig::default()
        }
    }

    #[test]
    fn pipeline_produces_correct_pairs_option_a() {
        // Same generator seed ⇒ overlapping distributions ⇒ non-empty join.
        let r = dataset(120, 51, 0);
        let s = dataset(150, 51, 10_000);
        let cfg = MrHaConfig {
            option: JoinOption::A,
            ..small_cfg()
        };
        let outcome = try_mrha_hamming_join(&r, &s, &cfg, &FaultInjector::none()).unwrap();
        assert_eq!(outcome.option_used, JoinOption::A);
        // Verify against a centralized join under the same learned hash:
        // re-run preprocessing with the same seed to get the same hasher.
        let pre = preprocess(&r, &s, cfg.sample_rate, cfg.code_len, cfg.partitions, cfg.seed);
        let rc: Vec<_> = r.iter().map(|(v, id)| (pre.hasher.hash(v), *id)).collect();
        let sc: Vec<_> = s.iter().map(|(v, id)| (pre.hasher.hash(v), *id)).collect();
        let want = nested_loop_join(&rc, &sc, cfg.h);
        assert!(want.len() >= 100, "workload too sparse ({})", want.len());
        assert_eq!(outcome.pairs, want);
        assert!(outcome.times.total() > Duration::ZERO);
    }

    #[test]
    fn auto_picks_a_for_small_r_and_b_for_large() {
        let r = dataset(60, 53, 0);
        let s = dataset(60, 53, 1_000);
        let cfg = MrHaConfig {
            auto_option_b_threshold: 50,
            ..small_cfg()
        };
        let outcome = try_mrha_hamming_join(&r, &s, &cfg, &FaultInjector::none()).unwrap();
        assert_eq!(outcome.option_used, JoinOption::B, "|R|=60 > 50");
        let cfg2 = MrHaConfig {
            auto_option_b_threshold: 500,
            ..small_cfg()
        };
        let outcome2 = try_mrha_hamming_join(&r, &s, &cfg2, &FaultInjector::none()).unwrap();
        assert_eq!(outcome2.option_used, JoinOption::A);
        assert_eq!(outcome.pairs, outcome2.pairs, "options agree");
    }

    #[test]
    fn self_join_is_ordered_and_irreflexive() {
        let d = dataset(100, 55, 0);
        let outcome = try_mrha_self_join(&d, &small_cfg(), &FaultInjector::none()).unwrap();
        for (a, b) in &outcome.pairs {
            assert!(a < b);
        }
        // Clustered data must produce some close pairs.
        assert!(!outcome.pairs.is_empty());
    }

    #[test]
    fn dfs_pipeline_matches_in_memory_pipeline() {
        use ha_mapreduce::dfs::DEFAULT_BLOCK_RECORDS;
        use ha_mapreduce::InMemoryDfs;
        // Same generator seed ⇒ overlapping distributions ⇒ non-empty join.
        let r = dataset(100, 58, 0);
        let s = dataset(120, 58, 10_000);
        // A leafless `cfg.dha` must not empty the DFS join: that path is
        // Option A and keeps leaf ids whatever the config says.
        for keep_leaf_ids in [true, false] {
            let cfg = MrHaConfig {
                option: JoinOption::A,
                dha: DhaConfig {
                    keep_leaf_ids,
                    ..DhaConfig::default()
                },
                ..small_cfg()
            };
            let dfs = InMemoryDfs::new();
            dfs.put_with_blocks("in/r", r.clone(), DEFAULT_BLOCK_RECORDS, 0);
            dfs.put_with_blocks("in/s", s.clone(), DEFAULT_BLOCK_RECORDS, 0);
            let via_dfs = try_mrha_hamming_join_on_dfs(
                &dfs,
                "in/r",
                "in/s",
                "out/pairs",
                &cfg,
                &FaultInjector::none(),
            )
            .unwrap();
            let in_memory = try_mrha_hamming_join(&r, &s, &cfg, &FaultInjector::none()).unwrap();
            assert!(!in_memory.pairs.is_empty(), "workload must produce pairs");
            assert_eq!(via_dfs.pairs, in_memory.pairs, "keep_leaf_ids={keep_leaf_ids}");
            // The blob's length is the in-memory path's `to_bytes()` term.
            assert_eq!(via_dfs.metrics.broadcast_bytes, in_memory.metrics.broadcast_bytes);
            assert_eq!(via_dfs.metrics.shuffle_bytes, in_memory.metrics.shuffle_bytes);
            // Artifacts landed in the DFS: the serialized index + the output.
            assert!(dfs.exists("out/pairs.ha-index"));
            assert_eq!(
                dfs.record_count("out/pairs"),
                via_dfs.pairs.len(),
                "pairs persisted"
            );
        }
    }

    #[test]
    fn metrics_accumulate_across_phases() {
        let r = dataset(80, 56, 0);
        let s = dataset(80, 57, 1_000);
        let outcome = try_mrha_hamming_join(&r, &s, &small_cfg(), &FaultInjector::none()).unwrap();
        // At least two jobs contributed map tasks.
        assert!(outcome.metrics.map_tasks.len() >= 2);
        assert!(outcome.metrics.shuffle_bytes > 0);
        assert!(outcome.metrics.broadcast_bytes > 0);
    }
}
